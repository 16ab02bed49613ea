/**
 * @file
 * Health-aware, resilience-hardened front-end router over N serving
 * instances.
 *
 * The paper's at-scale configuration (Sec. 6.5) runs one independent
 * serving instance per physical core. This router is the tier in
 * front of them: it owns N Server instances — each a full-replica
 * DlrmModel view over one shared EmbeddingStore, each with a private
 * disjoint core group from Topology::partition() — and dispatches a
 * Poisson request stream across them.
 *
 * Routing policies:
 *  - round-robin: requests cycle through instances;
 *  - power-of-two-choices: two seed-derived candidate instances,
 *    the less-queued one (earliest projected start) wins;
 *  - health-aware: every instance is scored by its projected
 *    completion for *this* request — queue wait plus the batch-size-
 *    and straggler-aware ServiceModel estimate — plus penalties for
 *    its recent served-latency p95 (WindowedP95) and its accumulated
 *    failure/shed history (CoreHealth::failed and admission sheds);
 *    the lowest score wins.
 *
 * Fault handling composes with the per-instance machinery: a request
 * that exhausts its retry budget on one instance is re-dispatched
 * once (maxFailovers) to a different instance chosen by the same
 * policy; admission control sheds at the routed instance, and a shed
 * where *no* instance could have met the deadline is counted
 * separately as a cluster-level shed.
 *
 * On top of that sits the cluster-resilience layer:
 *
 *  - **instance lifecycle**: a FaultSchedule can script whole-instance
 *    crashes and recoveries; the router's InstanceSet (kept across
 *    sessions) drives each instance through Up -> Draining -> Down ->
 *    WarmRestart, and the router rebuilds the replica model view over
 *    the shared store in O(weights) on restart, re-admitting it after
 *    a probation window. Down instances leave every candidate set;
 *    their pinned retries are re-routed to survivors.
 *  - **circuit breakers** (RouterConfig::breaker): a per-instance
 *    rolling failure-rate window trips a sick instance out of
 *    rotation entirely; after a cooldown a single half-open probe
 *    decides re-admission.
 *  - **hedged failover** (RouterConfig::hedging): a request whose
 *    routed instance's projected completion would bust the deadline
 *    is redirected to the best available instance that still fits,
 *    instead of queueing behind a dying one.
 *  - **embedding integrity** (RouterConfig::integrity): before an
 *    attempt executes, every store block its lookups touch is
 *    verified against the build-time checksums; a corrupt block is
 *    either repaired in place (regenerated to the exact as-built
 *    bytes — the "verified replica block") or, with repair disabled,
 *    the request is degraded to a counted failure rather than served
 *    from corrupt rows. Either way corruption is a survivable,
 *    counted event, never a silent wrong answer.
 *
 * Like Server::serve, the router advances a deterministic virtual
 * clock while the kernels really execute, so a whole multi-instance
 * chaos session is bit-reproducible under fixed seeds.
 */

#ifndef DLRMOPT_SERVE_ROUTER_HPP
#define DLRMOPT_SERVE_ROUTER_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "sched/topology.hpp"
#include "serve/breaker.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/instance_set.hpp"
#include "serve/scrub.hpp"
#include "serve/server.hpp"

namespace dlrmopt::serve
{

/** How the router picks an instance for a fresh request. */
enum class RoutePolicy
{
    RoundRobin,
    PowerOfTwo,
    HealthAware,
};

/** CLI/report name of a policy ("rr", "po2", "health"). */
const char *routePolicyName(RoutePolicy p);

/** Parses a policy name; throws std::invalid_argument on others. */
RoutePolicy parseRoutePolicy(const std::string& name);

/** Embedding-integrity knobs for the serving path. */
struct IntegrityConfig
{
    /** Verify the checksums of every store block an attempt's lookups
     *  touch before executing it. */
    bool enabled = false;

    /** Repair a corrupt block in place (regenerate the as-built
     *  bytes) and serve; false degrades the request instead. Repair
     *  requires the router to hold a mutable store handle. */
    bool repair = true;
};

/** Cluster-level serving parameters. */
struct RouterConfig
{
    ServerConfig server;  //!< per-instance parameters (SLA, retries..)

    std::size_t instances = 2;
    RoutePolicy policy = RoutePolicy::PowerOfTwo;

    std::uint64_t seed = 1; //!< power-of-two candidate sampling

    /** Cross-instance re-dispatches after a request exhausts its
     *  retry budget on one instance (0 disables failover). */
    std::size_t maxFailovers = 1;

    /** Sliding-window size for the per-instance served-latency p95
     *  used by the health-aware policy. */
    std::size_t healthWindow = 64;

    /** Health-score penalty (virtual ms) per failed task and per
     *  admission shed recorded against an instance. */
    double failurePenaltyMs = 1.0;

    /** Per-instance circuit breakers (disabled by default). */
    BreakerConfig breaker;

    /** Health-score penalty (virtual ms) while an instance's breaker
     *  sits half-open: a probation instance should win routing only
     *  when the healthy ones are meaningfully worse, not split
     *  traffic evenly the moment its cooldown expires. Applied only
     *  when breakers are enabled. */
    double halfOpenPenaltyMs = 5.0;

    /** Peak health-score penalty (virtual ms) right after a breaker
     *  trip, decaying linearly to zero over tripRecencyWindowMs — a
     *  just-reclosed breaker says the instance was proven sick
     *  moments ago, and the score should remember that even though
     *  admits() no longer objects. Applied only when breakers are
     *  enabled. */
    double tripRecencyPenaltyMs = 10.0;

    /** Decay horizon (virtual ms) of the trip-recency penalty. */
    double tripRecencyWindowMs = 50.0;

    /** Partial drain: a crashed (Draining) instance keeps this many
     *  cores serving its *pinned retries* until the drain completes,
     *  instead of re-routing every in-flight request the moment the
     *  crash is announced (0 = legacy all-or-nothing drain). Fresh
     *  requests still avoid a Draining instance. */
    std::size_t partialDrainCores = 0;

    /** Redirect a request to the next-best available instance when
     *  its routed instance's projected completion busts the SLA. */
    bool hedging = false;

    /** Virtual ms a warm-restarted instance waits in WarmRestart
     *  before re-admission. */
    double probationMs = 5.0;

    /** Embedding-integrity verification/quarantine. */
    IntegrityConfig integrity;

    /** Background checksum scrubbing over the shared store: a
     *  round-robin block sweep on a periodic virtual-clock tick,
     *  bounding the detection latency of silent bit flips by one
     *  sweep period instead of by request luck (serve/scrub.hpp). */
    ScrubConfig scrub;

    /** Record a per-request prediction fingerprint for every served
     *  request (RouterStats::predFingerprints), letting tests assert
     *  bitwise-correct answers against a fault-free baseline. */
    bool recordPredictions = false;
};

/** Outcome of one routed serving session. */
struct RouterStats
{
    ServeStats total; //!< cluster-wide aggregate

    std::vector<ServeStats> perInstance;

    std::size_t failovers = 0; //!< cross-instance re-dispatches

    /** Sheds where every instance's projected completion missed the
     *  SLA (subset of total.shed). */
    std::size_t clusterShed = 0;

    /** Served requests whose latency met the per-request SLA. */
    std::size_t compliant = 0;

    /** Virtual end time of the last completed attempt (for
     *  throughput comparisons over the same arrival stream). */
    double makespanMs = 0.0;

    /// @name Resilience counters
    /// @{

    std::size_t breakerTrips = 0; //!< breaker open transitions
    std::size_t hedges = 0;       //!< deadline-hedged redirects
    std::size_t crashes = 0;      //!< scripted instance crashes
    std::size_t restarts = 0;     //!< completed warm restarts

    /** Corrupt store blocks detected by pre-execution verification. */
    std::size_t corruptionsDetected = 0;

    /** Corrupt blocks repaired in place (regenerated). */
    std::size_t blocksRepaired = 0;

    /** Requests degraded (failed without serving) because their
     *  lookups touched a corrupt block and repair was off. */
    std::size_t integrityDegraded = 0;

    /** Blocks verified by the background scrubber. */
    std::uint64_t blocksScrubbed = 0;

    /** Corrupt blocks the scrubber found (before any request did). */
    std::uint64_t scrubCorruptions = 0;

    /** Corrupt blocks the scrubber repaired in place. */
    std::uint64_t scrubRepairs = 0;

    /** Full sweeps over every (table, block) pair the scrubber
     *  completed within the session. */
    std::uint64_t scrubSweeps = 0;

    /** Pinned retries served on a Draining instance's residual core
     *  group (partial drain) instead of being re-routed. */
    std::size_t partialDrainServed = 0;

    /** Fresh requests shed because no instance was available
     *  (subset of total.shed). */
    std::size_t lifecycleShed = 0;

    /** Per-instance fraction of the session spent lifecycle-Up. */
    std::vector<double> availability;

    /** Per-request prediction fingerprint (0 = not served); filled
     *  only when RouterConfig::recordPredictions. */
    std::vector<std::uint64_t> predFingerprints;

    /// @}

    /** One-line cluster summary (aggregate + router counters). */
    std::string summary() const;
};

/**
 * Front-end router owning N replica Server instances over one shared
 * EmbeddingStore.
 */
class Router
{
  public:
    /**
     * Builds cfg.instances Server instances. The topology is
     * partitioned into disjoint per-instance core groups; each
     * instance gets a full-replica DlrmModel view over @p store
     * (zero embedding bytes beyond the store's single copy).
     *
     * @param model_cfg Architecture served by every instance.
     * @param store Shared table storage (kept alive by the router).
     * @param topo Cores to split across instances.
     * @param cfg Cluster parameters.
     * @param faults Optional per-instance fault injectors, indexed by
     *        instance; a shorter vector or nullptr entries mean no
     *        faults for those instances. **Not owned**: every
     *        non-null injector must outlive the Router (and any
     *        serve() session), exactly like the Server's injector
     *        parameter.
     * @param model_seed Seed for the per-instance MLP weights.
     *
     * @throws std::invalid_argument when instances is zero or exceeds
     *         the physical core count, when @p faults has more
     *         entries than instances, when an injector's bitFlipRate
     *         is positive without a mutable store, or via
     *         Server/DlrmModel validation.
     */
    Router(const core::ModelConfig& model_cfg,
           std::shared_ptr<const core::EmbeddingStore> store,
           const sched::Topology& topo, const RouterConfig& cfg,
           std::vector<const FaultInjector *> faults = {},
           std::uint64_t model_seed = 42);

    /**
     * Same, but over a *mutable* store handle. Required for any
     * session that corrupts stored rows (FaultConfig::bitFlipRate or
     * scripted BitFlipEvents) or repairs them
     * (IntegrityConfig::repair).
     */
    Router(const core::ModelConfig& model_cfg,
           std::shared_ptr<core::EmbeddingStore> store,
           const sched::Topology& topo, const RouterConfig& cfg,
           std::vector<const FaultInjector *> faults = {},
           std::uint64_t model_seed = 42);

    std::size_t numInstances() const { return _servers.size(); }

    const Server& instance(std::size_t i) const { return *_servers[i]; }

    /** Instance @p i's replica model view (shares the store). */
    const core::DlrmModel& model(std::size_t i) const
    {
        return *_models[i];
    }

    /** Instance @p i's lifecycle facts (state, restarts, ...), which
     *  persist across sessions. */
    const InstanceSlot& lifecycle(std::size_t i) const
    {
        return _lifecycle[i];
    }

    /** The shared table storage every instance reads from. */
    const std::shared_ptr<const core::EmbeddingStore>& store() const
    {
        return _store;
    }

    /**
     * Serves one session: the same contract as Server::serve, but
     * requests are routed across instances by the configured policy.
     * An optional FaultSchedule scripts time-varying fault phases,
     * instance crash/recover events, and stored-row bit flips over
     * the session's virtual clock (not owned; must outlive the call).
     *
     * @throws std::invalid_argument on an empty batch list, a
     *         schedule that fails validate(numInstances()), or a
     *         schedule that corrupts stored rows when the router
     *         holds no mutable store handle.
     */
    RouterStats serve(const core::Tensor& dense,
                      const std::vector<core::SparseBatch>& batches,
                      const std::vector<double>& arrivals_ms,
                      const core::PrefetchSpec& pf =
                          core::PrefetchSpec::paperDefault(),
                      const FaultSchedule *schedule = nullptr);

  private:
    void build(const core::ModelConfig& model_cfg,
               const sched::Topology& topo,
               std::uint64_t model_seed);

    RouterConfig _cfg;
    std::vector<const FaultInjector *> _faults;
    std::shared_ptr<const core::EmbeddingStore> _store;
    /** Non-null only for the mutable-store constructor; aliases
     *  _store. */
    std::shared_ptr<core::EmbeddingStore> _mutableStore;
    core::ModelConfig _modelCfg;   //!< kept for warm-restart rebuilds
    std::uint64_t _modelSeed = 42; //!< ditto
    std::vector<std::unique_ptr<core::DlrmModel>> _models;
    std::vector<std::unique_ptr<Server>> _servers;
    InstanceSet _lifecycle{{}, InstanceSetConfig{}, 0};
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_ROUTER_HPP
