/**
 * @file
 * Multi-tenant serving fleet: weighted-fair admission, per-tenant SLA
 * isolation, and elastic adaptive capacity over real model execution.
 *
 * The paper's at-scale deployment (Sec. 6.5) runs one independent
 * serving instance per physical core; TenantFleet::serve is the one
 * serving loop over such instances. Each instance slot gets a private
 * core group from Topology::partition(), and every request waits in
 * one central queue until the earliest-free core takes it. With a
 * single tenant that is the whole deployment (`dlrmopt router` and
 * `chaos` run exactly that); with one instance too, it is the single
 * server (`dlrmopt serve` and `batch`). With several tenants, it
 * answers the question a
 * shared production cluster faces: tenants — each a Tenant binding of
 * model preset, SLA class, fair-share weight and admission budget
 * (serve/tenant.hpp) — multiplexed onto the same instance slots, under
 * diurnal traffic whose aggregate peak exceeds any static
 * provisioning. Three mechanisms compose:
 *
 *  - **Weighted-fair admission.** All tenants share one BatchQueue in
 *    deficit-round-robin mode: per-tenant sub-queues, weight-
 *    proportional deficit per round, dispatched samples charged
 *    against the winner's deficit, and never a mixed-tenant group
 *    (tenants serve different models). A flooding tenant exhausts its
 *    own deficit and its own admission budget — overflow is shed at
 *    arrival and charged to it — while the other tenants' dispatch
 *    bandwidth and SLA compliance are isolated by construction.
 *
 *  - **Per-tenant SLA isolation.** Every request carries its tenant's
 *    deadline (PendingRequest::slaMs); batch formation, deadline
 *    sheds and compliance accounting all use the owning tenant's SLA
 *    and the owning tenant's service estimate.
 *
 *  - **Elastic adaptive capacity.** A CapacityController forecasts
 *    offered load over fixed virtual-time windows and resizes the Up
 *    set between minInstances and the slot count through the
 *    InstanceSet lifecycle (Up -> Draining -> Down -> WarmRestart ->
 *    Up) with optional partial drains — a scale-down victim keeps a
 *    residual core group until its grace expires past its last
 *    dispatch. Drains are never called off. In parallel, a
 *    per-tenant ServiceModelRecalibrator refits the service estimate
 *    from observed dispatch times, so admission and forecasting track
 *    the scripted ServiceTimeline truth even when it drifts
 *    mid-session.
 *
 * Execution follows the established split: the virtual clock advances
 * on arrivals and the scripted truth while every dispatch really runs
 * as one coalesced forward through the owning (instance, tenant)
 * Server's persistent workspace. One pricing rule holds everywhere:
 * a dispatch costs its service time times the core's straggler
 * factor; a degradation tier changes what executes and shrinks the
 * coalescing cap, never the price. A tenant's precision floor
 * (TenantConfig::dtype) gets its own quantized store, which its
 * replicas and hot tiers serve from. A FaultSchedule can overlay the
 * chaos scenarios (instance crashes, stored-row bit flips — applied
 * to every tenant store they fit in, repaired by per-store background
 * scrubbers and, with verifyBlocks, before any member reads a corrupt
 * block — and fault-injection phases), and the whole session
 * remains a pure function of (configs, seeds, schedule): per-tenant
 * accounting satisfies arrived == served + shed + failed under every
 * scenario.
 *
 * **Versioned serving and live reload.** Every tenant's model is held
 * in a core::VersionedModel; a dispatch pins the version it starts on
 * and executes entirely on that pin (the explicit-model Server path),
 * so a mid-flight swap never mixes versions inside a batch. A session
 * may script ReloadEvents: the embedded ReloadManager loads each new
 * version off the serving threads, shadow-validates it, canaries one
 * instance, rolls the rest out in stages, and commits (publishing the
 * version and retargeting the background scrubber) or rolls back /
 * fails with the old version still serving. Retiring versions are
 * reclaimed only after their last in-flight pin drains on the virtual
 * clock.
 */

#ifndef DLRMOPT_SERVE_FLEET_HPP
#define DLRMOPT_SERVE_FLEET_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/hot_tier.hpp"
#include "core/versioned.hpp"
#include "sched/topology.hpp"
#include "serve/batch_queue.hpp"
#include "serve/capacity.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/reload.hpp"
#include "serve/scrub.hpp"
#include "serve/server.hpp"
#include "serve/tenant.hpp"

namespace dlrmopt::serve
{

/** Fleet-wide serving parameters (per-tenant ones live in
 *  TenantConfig). */
struct FleetConfig
{
    /** Instance slots. Static mode keeps all of them Up; elastic mode
     *  moves the Up set within [capacity.minInstances, instances]. */
    std::size_t instances = 2;

    /** Request coalescing knobs shared by every tenant's dispatches.
     *  Disabled (the default) is a coalescing cap of 1; enable it to
     *  amortize the fixed per-dispatch cost the batch-size-aware
     *  model prices. */
    BatchConfig batching;

    /** Deficit-round-robin quantum (samples per unit weight per
     *  round) of the shared queue. */
    double quantumSamples = 8.0;

    bool admission = true; //!< shed projected deadline misses

    std::size_t maxRetries = 2;
    double backoffBaseMs = 1.0;
    double backoffCapMs = 8.0;

    CapacityConfig capacity;           //!< elastic knobs
    RecalibrationConfig recalibration; //!< per-tenant refits
    ScrubConfig scrub;                 //!< per-store background scrub
    ReloadConfig reload;               //!< staged-rollout knobs

    /** Hot-tier knobs. budgetBytes > 0 gives every (instance, tenant)
     *  replica its own pinned hot tier over the tenant's shared cold
     *  store, sized from the byte budget; 0 (the default) serves
     *  straight from the cold store. */
    core::HotTierConfig hotTier;

    /** Before a member executes, verify every store block its lookups
     *  touch on the pinned version's store, and repair a corrupt block
     *  in place (regenerate its as-built bytes): a silent bit flip
     *  becomes a counted repair instead of a wrong prediction. */
    bool verifyBlocks = false;

    std::uint64_t seed = 42; //!< model-weight seed

    /** @throws std::invalid_argument on zero instances, a backoff cap
     *          below the base, a non-positive quantum, or any nested
     *          config failing its own validate(). */
    void validate() const;
};

/** One tenant's request stream for a fleet session. */
struct TenantWorkload
{
    core::Tensor dense; //!< dense features (tenant's denseDim cols)

    /** Sparse inputs; request r uses batches[r % batches.size()]. */
    std::vector<core::SparseBatch> batches;

    /** Ascending arrival timestamps (ms), e.g. from DiurnalLoadGen. */
    std::vector<double> arrivalsMs;
};

/** Outcome of one fleet session. */
struct FleetStats
{
    ServeStats total; //!< aggregate over all tenants

    std::vector<TenantStats> perTenant;

    std::size_t compliant = 0;    //!< served within the owner's SLA
    std::size_t budgetShed = 0;   //!< admission-budget sheds
    std::size_t deadlineShed = 0; //!< projected-deadline sheds
    /** Queued requests abandoned because every instance was down for
     *  good (counted in total.failed). */
    std::size_t lifecycleShed = 0;

    /// @name Elastic capacity
    /// @{
    std::size_t scaleUps = 0;   //!< instances brought (back) up
    std::size_t scaleDowns = 0; //!< drains started by the controller
    std::size_t crashes = 0;    //!< scripted chaos crashes
    std::size_t restarts = 0;   //!< completed warm restarts

    /** Integral of Up-instance count over the session (instance-ms) —
     *  the provisioning cost an elastic fleet is judged by. A static
     *  N-instance fleet scores N * makespan. */
    double instanceMsUp = 0.0;

    double peakForecastLoad = 0.0; //!< max windowed forecast seen

    /** Virtual time of every controller-initiated drain, in order —
     *  lets tests assert no scale-down landed inside a reload's
     *  canary/rollout window. */
    std::vector<double> scaleDownAtMs;
    /// @}

    /// @name Recalibration
    /// @{
    std::size_t recalibrations = 0; //!< refits across all tenants

    /** Per-tenant final estimate error vs the observation window
     *  (ServiceModelRecalibrator::meanRelativeError). */
    std::vector<double> estimateError;

    /** Per-tenant staleness flag at session end. */
    std::vector<char> estimateStale;
    /// @}

    /// @name Scrubbing and verification (summed over per-tenant stores)
    /// @{
    std::uint64_t blocksScrubbed = 0;
    std::uint64_t scrubCorruptions = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubSweeps = 0;
    /** Corrupt blocks FleetConfig::verifyBlocks repaired before a
     *  member read them. */
    std::uint64_t verifyRepairs = 0;
    /// @}

    /// @name Hot tier (session deltas summed over every replica tier)
    /// @{
    std::uint64_t tierHits = 0;
    std::uint64_t tierMisses = 0;
    std::uint64_t tierPromotions = 0;
    std::uint64_t tierDemotions = 0;
    std::uint64_t tierCorruptions = 0;
    std::uint64_t tierQuarantined = 0;
    std::uint64_t tierRepaired = 0;

    /** Session hit rate over every tier probe, 0 with no tiers. */
    double tierHitRate() const
    {
        const std::uint64_t n = tierHits + tierMisses;
        return n == 0 ? 0.0
                      : static_cast<double>(tierHits) /
                            static_cast<double>(n);
    }
    /// @}

    /// @name Live reload
    /// @{
    std::size_t reloadsStarted = 0;
    std::size_t reloadsCommitted = 0;
    std::size_t reloadsRolledBack = 0;
    std::size_t reloadsFailed = 0;
    std::size_t shadowedRequests = 0; //!< shadow-validation replays
    std::size_t versionSwaps = 0;     //!< instance pin swaps performed
    std::size_t versionsRetired = 0;  //!< drained versions reclaimed

    /** Per-tenant version id serving at session end. */
    std::vector<std::uint64_t> finalVersions;

    /** Audit trail of every finished reload. */
    std::vector<ReloadOutcome> reloadOutcomes;
    /// @}

    double makespanMs = 0.0;

    /** arrived == served + shed + failed, in aggregate and for every
     *  tenant. */
    bool conserved() const;

    /** One-line fleet summary. */
    std::string summary() const;
};

/**
 * Order-sensitive fingerprint of @p n predictions: a mix64 chain over
 * their raw fp32 bit patterns. Two requests fingerprint equal iff
 * their predictions are bitwise identical, which is how the resilience
 * tests assert "zero wrong answers served" against a fault-free run.
 */
std::uint64_t fingerprintPredictions(const float *pred, std::size_t n);

/**
 * Multi-tenant fleet over instance slots from Topology::partition().
 * Each slot hosts one Server (execution engine: private core pool,
 * persistent batched-forward workspace) per tenant over that tenant's
 * own EmbeddingStore; the fleet drives a fresh InstanceSet per
 * session plus fair queueing, capacity and recalibration from a single
 * cluster-level event loop.
 */
class TenantFleet
{
  public:
    /**
     * Builds instances x tenants Servers. Embedding bytes are paid
     * once per tenant (stores are shared across that tenant's
     * replicas).
     *
     * @throws std::invalid_argument on an empty registry, a config
     *         failing validate(), more min instances than slots, or
     *         via Server/DlrmModel validation.
     */
    TenantFleet(const TenantRegistry& reg, const sched::Topology& topo,
                const FleetConfig& cfg);

    std::size_t numTenants() const { return _reg.size(); }
    std::size_t numInstances() const { return _servers.size(); }
    std::size_t coresPerInstance() const { return _coresPerInstance; }

    const TenantRegistry& registry() const { return _reg; }

    /** Tenant @p k's *boot* table storage (version 1; kept for
     *  construction-time tooling — the serving path reads
     *  currentStore()). */
    const core::EmbeddingStore& store(std::size_t k) const
    {
        return *_stores[k];
    }

    /** Tenant @p k's currently committed version's storage. */
    const core::EmbeddingStore& currentStore(std::size_t k) const
    {
        return *_versioned[k]->current()->store;
    }

    /** Tenant @p k's version holder (current + retiring versions). */
    const core::VersionedModel& versioned(std::size_t k) const
    {
        return *_versioned[k];
    }

    /** Instance @p i's hot tier for tenant @p k; null when the fleet
     *  runs without one (hotTier.budgetBytes == 0). */
    const core::HotTierCache *hotTier(std::size_t i,
                                      std::size_t k) const
    {
        return _tiers.empty() ? nullptr : _tiers[i][k].get();
    }

    /**
     * Serves one session over per-tenant request streams (one
     * workload per registered tenant, same order). An optional
     * FaultSchedule overlays chaos: instance crash/recover events,
     * stored-row bit flips, and per-instance fault-injection phases.
     * Optional ReloadEvents script staged live reloads (see the
     * header comment); committed versions persist across sessions.
     *
     * @throws std::invalid_argument when the workload count mismatches
     *         the registry, a tenant with arrivals has no batches, the
     *         schedule fails validate(numInstances(),
     *         coresPerInstance()), a tenant with a quantized floor
     *         meets a reload, scrubbing, block verification or a
     *         store-corrupting schedule, or a reload
     *         event fails ReloadManager validation.
     */
    FleetStats serve(const std::vector<TenantWorkload>& work,
                     const core::PrefetchSpec& pf =
                         core::PrefetchSpec::paperDefault(),
                     const FaultSchedule *schedule = nullptr,
                     const std::vector<ReloadEvent>& reloads = {});

  private:
    /** A fresh replica view of tenant @p k over its shared stores. */
    std::unique_ptr<core::DlrmModel> replica(std::size_t k) const;

    TenantRegistry _reg;
    FleetConfig _cfg;
    std::size_t _coresPerInstance = 0;
    std::vector<std::shared_ptr<core::EmbeddingStore>> _stores;
    /** Per-tenant precision-floor stores (null for an fp32 floor). */
    std::vector<std::shared_ptr<const core::EmbeddingStore>> _quantStores;
    /** [instance][tenant] replica views / execution engines. */
    std::vector<std::vector<std::unique_ptr<core::DlrmModel>>> _models;
    std::vector<std::vector<std::unique_ptr<Server>>> _servers;
    /** [instance][tenant] replicated hot tiers over the tenant's
     *  shared cold store; empty when hotTier.budgetBytes == 0. */
    std::vector<std::vector<std::shared_ptr<core::HotTierCache>>>
        _tiers;
    /** Per-tenant version holders; boot version is 1 over _stores. */
    std::vector<std::unique_ptr<core::VersionedModel>> _versioned;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_FLEET_HPP
