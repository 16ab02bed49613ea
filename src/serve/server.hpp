/**
 * @file
 * Fault-tolerant request server: the real serving loop the paper's
 * Sec. 6.5 evaluation implies but the queue simulator only models.
 *
 * Each request is one inference batch drawn from a Poisson arrival
 * stream. One event loop, driven by a BatchQueue, serves every mode;
 * the modes differ only in per-session rules. The server:
 *
 *  - enforces per-request deadlines with admission control: a request
 *    whose projected completion already blows the SLA is shed on
 *    arrival (load shedding, counted in ServeStats::shed);
 *  - optionally coalesces queued requests into larger dispatches
 *    (ServerConfig::batching + serve/batch_queue.hpp), bounded by the
 *    tightest member deadline, amortizing the per-dispatch fixed cost
 *    captured by the batch-size-aware ServiceModel; with batching off
 *    the coalescing cap is 1 and every request dispatches alone;
 *  - executes every dispatch as *real* DLRM inference through one
 *    persistent core::ForwardWorkspace on an exception-safe
 *    HtThreadPool — one fused forward per dispatch, allocation-free
 *    in the steady state and bitwise-identical to per-request
 *    execution;
 *  - retries transiently failed requests with capped exponential
 *    backoff, giving up after maxRetries (counted in failed);
 *  - degrades gracefully under tail-latency pressure via
 *    DegradationPolicy (drop precision fp32 -> bf16 -> int8, then
 *    shrink batch -> disable prefetch): quantized
 *    tiers run the fused-dequant bags and u8·s8 MLP engine, trading
 *    bounded accuracy for bandwidth before any request is shed;
 *  - tolerates injected faults (serve/fault.hpp): task exceptions,
 *    allocation failures, poisoned embedding indices, and straggler
 *    cores never crash the process — they surface as retries/failures
 *    in the stats.
 *
 * Time accounting is *virtual*: queue waits, deadlines, and reported
 * latencies advance on a deterministic simulated clock derived from
 * the arrival stream and the configured per-batch service time, while
 * the kernels themselves really execute (their measured wall time is
 * reported separately as ServeStats::execTotalMs). This split is what
 * makes serving sessions bit-reproducible under a fixed seed — the
 * property the fault-tolerance tests and the shedding-aware queue
 * simulator comparisons rely on — without giving up real execution.
 */

#ifndef DLRMOPT_SERVE_SERVER_HPP
#define DLRMOPT_SERVE_SERVER_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "sched/ht_thread_pool.hpp"
#include "serve/batch_queue.hpp"
#include "serve/degrade.hpp"
#include "serve/fault.hpp"
#include "serve/serve_stats.hpp"

namespace dlrmopt::serve
{

/** Capped exponential retry backoff: @p base_ms * 2^@p tries, at most
 *  @p cap_ms. */
inline double
retryBackoffMs(double base_ms, double cap_ms, std::uint64_t tries)
{
    return std::min(base_ms * static_cast<double>(1ull << tries), cap_ms);
}

/**
 * Row prefixes of one dense-feature tensor: rows(n) is its first n
 * rows, built on first use and reference-stable for the cache's
 * lifetime, so a dispatch can point at it while a pool task runs.
 */
class DensePrefixes
{
  public:
    explicit DensePrefixes(const core::Tensor& dense) : _dense(&dense) {}

    const core::Tensor& rows(std::size_t n);

  private:
    const core::Tensor *_dense;
    std::map<std::size_t, core::Tensor> _byRows;
};

/** Serving-session parameters. */
struct ServerConfig
{
    double slaMs = 100.0;    //!< per-request deadline

    /** Batch-size-aware tier-0 service estimate driving the virtual
     *  clock; ServiceModel::constant() reproduces the legacy scalar
     *  per-batch behaviour exactly. */
    ServiceModel service = ServiceModel::constant(1.0);

    /**
     * Per-precision service estimates for the quantized degradation
     * tiers. Off by default (dtypeServiceEnabled = false): pricing
     * then uses `service` scaled by the tier's all-in serviceFactor,
     * which already folds in the ladder's assumed precision speedups.
     * When enabled, a quantized tier prices with its own measured
     * model (serviceBf16 / serviceInt8) times only the tier's
     * knobFactor — the precision win comes from the model, so it is
     * never double-counted.
     */
    bool dtypeServiceEnabled = false;
    ServiceModel serviceBf16 = ServiceModel::constant(1.0);
    ServiceModel serviceInt8 = ServiceModel::constant(1.0);

    /** Service model pricing a tier's precision (see above). */
    const ServiceModel&
    serviceModelFor(core::EmbDtype dtype) const
    {
        if (!dtypeServiceEnabled)
            return service;
        switch (dtype) {
          case core::EmbDtype::Bf16:
            return serviceBf16;
          case core::EmbDtype::Int8:
            return serviceInt8;
          default:
            return service;
        }
    }

    /** Virtual-clock multiplier applied on top of the tier's service
     *  model: all-in when dtype pricing is off, knobs-only when the
     *  per-dtype model already carries the precision win. */
    double
    tierServiceFactor(const DegradeState& tier) const
    {
        return dtypeServiceEnabled ? tier.knobFactor
                                   : tier.serviceFactor;
    }

    /**
     * Base serving precision: every dispatch runs at least this
     * reduced a format, and the degradation ladder can only deepen it
     * (fp32 -> bf16 -> int8). Quantized sessions want the matching
     * store attached to the served model
     * (core::DlrmModel::attachQuantizedStore) so the bags really read
     * reduced-precision bytes; without one the forward falls back to
     * fp32 storage gracefully.
     */
    core::EmbDtype dtype = core::EmbDtype::Fp32;

    /** The deeper of the configured precision floor and the tier's. */
    core::EmbDtype
    effectiveDtype(const DegradeState& tier) const
    {
        return static_cast<int>(tier.dtype) > static_cast<int>(dtype)
                   ? tier.dtype
                   : dtype;
    }

    /** Dynamic request coalescing (serve/batch_queue.hpp). Disabled
     *  by default: a coalescing cap of 1, every request dispatching
     *  alone. */
    BatchConfig batching;

    bool admission = true;   //!< shed on projected deadline miss

    std::size_t maxRetries = 2;   //!< retry budget per request
    double backoffBaseMs = 1.0;   //!< first retry delay
    double backoffCapMs = 8.0;    //!< exponential backoff ceiling

    DegradeConfig degrade;   //!< graceful-degradation thresholds

    bool pin = false;        //!< pin pool workers to CPUs
};

/**
 * One serving instance: the execution engine the cluster layers
 * dispatch into (a private core pool and a persistent forward
 * workspace) and a fault-tolerant serving loop over it. The pool is
 * built once per Server and reused across serve() sessions. A
 * cluster's instance lifecycle lives in its InstanceSet
 * (serve/instance_set.hpp), not here.
 */
class Server
{
  public:
    /**
     * @param model Model to serve (not owned; must outlive server).
     * @param topo One serving instance per physical core.
     * @param cfg Session parameters.
     * @param fault Optional fault injector (not owned; may be null).
     *
     * @throws std::invalid_argument on non-positive SLA/service or a
     *         backoff cap below the base.
     */
    Server(const core::DlrmModel& model, const sched::Topology& topo,
           const ServerConfig& cfg,
           const FaultInjector *fault = nullptr);

    /**
     * Serves one session: requests arrive at @p arrivals_ms and
     * request r runs inference on batches[r % batches.size()].
     *
     * @param dense Dense features shared across requests.
     * @param batches Sparse inputs cycled through by the stream.
     * @param arrivals_ms Ascending arrival timestamps (one request
     *        each), e.g. PoissonLoadGen::arrivals().
     * @param pf Prefetch spec used while the degradation tier allows
     *        software prefetching.
     *
     * @throws std::invalid_argument on an empty batch list.
     */
    ServeStats serve(const core::Tensor& dense,
                     const std::vector<core::SparseBatch>& batches,
                     const std::vector<double>& arrivals_ms,
                     const core::PrefetchSpec& pf =
                         core::PrefetchSpec::paperDefault());

    /** Per-core task health of the underlying pool. */
    sched::CoreHealth coreHealth(std::size_t core) const
    {
        return _pool.health(core);
    }

    /** Sum of failed-task counters across this instance's cores. */
    std::uint64_t totalFailed() const { return _pool.totalFailed(); }

    std::size_t numCores() const { return _pool.numCores(); }

    const ServerConfig& config() const { return _cfg; }

    /**
     * Runs one dispatch on @p core through the persistent
     * ForwardWorkspace and returns the measured kernel wall ms; the
     * workspace grows on demand when the group exceeds its current
     * capacity. Throws whatever the pool task threw. This is the one
     * fused execution path: serve() drives it for every dispatch, the
     * fleet calls it from its cluster-level event loop.
     *
     * @throws std::invalid_argument on a zero-sample part.
     */
    double executeBatchedAttempt(
        std::size_t core,
        const std::vector<const core::SparseBatch *>& parts,
        const std::vector<const core::Tensor *>& dense_parts,
        const DegradeState& tier, const core::PrefetchSpec& pf);

    /**
     * executeBatchedAttempt against an explicit model instead of the
     * constructor-bound one. The live-reload fleet passes each
     * dispatch's *pinned* version here, so a version swap mid-flight
     * never mixes versions within a batch: the whole dispatch runs on
     * whichever model it started with. @p model must share the bound
     * model's architecture (workspace geometry is config-derived).
     *
     * A non-null @p fault raises its task fault for attempt
     * (@p req, @p attempt) inside the pool task, before the forward,
     * so the pool's CoreHealth counts it like any task failure — how
     * a lone request attempt meets its injected faults.
     */
    double executeBatchedAttempt(
        std::size_t core,
        const std::vector<const core::SparseBatch *>& parts,
        const std::vector<const core::Tensor *>& dense_parts,
        const DegradeState& tier, const core::PrefetchSpec& pf,
        const core::DlrmModel& model,
        const FaultInjector *fault = nullptr, std::uint64_t req = 0,
        std::uint64_t attempt = 0);

    /** Predictions of the last dispatch. */
    const core::Tensor& lastPredictions() const
    {
        return _batchWs.predictions();
    }

    /**
     * Attaches (or detaches, with null) this instance's hot tier:
     * every execution path probes it before gathering from the cold
     * store. The tier is an instance-local placement optimization —
     * predictions are bitwise-identical with or without it — and it
     * guards itself (HotTierCache::matches) against dispatches pinned
     * to a store it does not front, so attaching is safe under live
     * reload: canary dispatches on the new version simply bypass it
     * until the fleet retargets the tier at commit.
     */
    void attachHotTier(std::shared_ptr<core::HotTierCache> tier)
    {
        _hotTier = std::move(tier);
    }

    /** The attached hot tier (null when serving untiered). */
    const std::shared_ptr<core::HotTierCache>& hotTier() const
    {
        return _hotTier;
    }

    /**
     * Backing-store fingerprint of the persistent batched workspace
     * (core::ForwardWorkspace::bufferFingerprint). Unchanged across
     * sessions means no dispatch reallocated or moved a buffer — the
     * probe the fault tests use to show a failed or repaired dispatch
     * left the workspace's storage alone.
     */
    std::size_t workspaceFingerprint() const
    {
        return _batchWs.bufferFingerprint();
    }

  private:
    const core::DlrmModel& _model;
    ServerConfig _cfg;
    const FaultInjector *_fault;
    sched::HtThreadPool _pool;

    /** Preallocated forward scratch, sized on the first session and
     *  reused for every dispatch thereafter. */
    core::ForwardWorkspace _batchWs;
    std::vector<core::PredictionSpan> _splitScratch;

    /** Instance-local hot tier, probed by every execution path. */
    std::shared_ptr<core::HotTierCache> _hotTier;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_SERVER_HPP
