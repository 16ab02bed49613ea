/**
 * @file
 * One serving instance's execution engine: a private core pool and a
 * persistent core::ForwardWorkspace behind executeBatchedAttempt.
 *
 * Every dispatch runs as *real* DLRM inference: the group's members
 * are coalesced into the workspace on the calling thread and one fused
 * forward runs on the pool, allocation-free in the steady state and
 * bitwise-identical to per-request execution. Quantized dispatches run
 * the fused-dequant bags over the model's attached quantized store,
 * and an attached hot tier is probed before the cold store.
 *
 * The serving event loop — arrivals, admission, coalescing, retry,
 * fault resolution and degradation on a virtual clock — is
 * TenantFleet::serve (serve/fleet.hpp). The single-server deployment
 * is a one-instance, single-tenant fleet.
 */

#ifndef DLRMOPT_SERVE_SERVER_HPP
#define DLRMOPT_SERVE_SERVER_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "sched/ht_thread_pool.hpp"
#include "serve/batch_queue.hpp"
#include "serve/degrade.hpp"
#include "serve/service_model.hpp"
#include "serve/serve_stats.hpp"

namespace dlrmopt::serve
{

/**
 * Execution and session parameters of one Server. Only dtype and pin
 * shape execution. slaMs, service, batching and admission configure
 * nothing but Server::serve, which stays for the real-clock benchmark
 * (perfbench/serving_bench.cpp) that is frozen with BENCHMARK.json;
 * they go with it in the next change to that benchmark.
 */
struct ServerConfig
{
    double slaMs = 100.0;    //!< per-request deadline (serve() only)

    /** Batch-size-aware service estimate driving serve()'s virtual
     *  clock. */
    ServiceModel service = ServiceModel::constant(1.0);

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

    /** serve()'s request coalescing; disabled means a coalescing cap
     *  of 1. */
    BatchConfig batching;

    bool admission = true;   //!< serve(): shed on projected deadline miss

    bool pin = false;        //!< pin pool workers to CPUs
};

/**
 * One serving instance: the execution engine the fleet dispatches
 * into (a private core pool and a persistent forward workspace). The
 * pool is built once per Server and reused for every dispatch. A
 * fleet's instance lifecycle lives in its InstanceSet
 * (serve/instance_set.hpp), not here.
 */
class Server
{
  public:
    /**
     * @param model Model to serve (not owned; must outlive server).
     * @param topo The instance's core group.
     * @param cfg Execution parameters.
     *
     * @throws std::invalid_argument on a non-positive SLA, an invalid
     *         service model or invalid batching knobs.
     */
    Server(const core::DlrmModel& model, const sched::Topology& topo,
           const ServerConfig& cfg);

    /**
     * Serves one session of this Server's config on a fresh
     * one-instance, single-tenant TenantFleet built from the bound
     * model's config (fleet defaults for everything ServerConfig does
     * not set). The virtual-clock statistics do not depend on the
     * model's weights; this Server's pool, workspace and hot tier are
     * not used. Kept only for perfbench/serving_bench.cpp (see
     * ServerConfig); new code builds the fleet itself.
     */
    ServeStats serve(const core::Tensor& dense,
                     const std::vector<core::SparseBatch>& batches,
                     const std::vector<double>& arrivals_ms,
                     const core::PrefetchSpec& pf =
                         core::PrefetchSpec::paperDefault());

    std::size_t numCores() const { return _pool.numCores(); }

    const ServerConfig& config() const { return _cfg; }

    /**
     * Runs one dispatch on @p core through the persistent
     * ForwardWorkspace and returns the measured kernel wall ms; the
     * workspace grows on demand when the group exceeds its current
     * capacity. Throws whatever the pool task threw. This is the one
     * fused execution path.
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
     */
    double executeBatchedAttempt(
        std::size_t core,
        const std::vector<const core::SparseBatch *>& parts,
        const std::vector<const core::Tensor *>& dense_parts,
        const DegradeState& tier, const core::PrefetchSpec& pf,
        const core::DlrmModel& model);

    /** Predictions of the last dispatch. */
    const core::Tensor& lastPredictions() const
    {
        return _batchWs.predictions();
    }

    /**
     * Attaches (or detaches, with null) this instance's hot tier:
     * every dispatch probes it before gathering from the cold store.
     * The tier is an instance-local placement optimization —
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

  private:
    const core::DlrmModel& _model;
    ServerConfig _cfg;
    sched::HtThreadPool _pool;

    /** Forward scratch, grown on demand and reused for every
     *  dispatch thereafter. */
    core::ForwardWorkspace _batchWs;

    /** Instance-local hot tier, probed by every dispatch. */
    std::shared_ptr<core::HotTierCache> _hotTier;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_SERVER_HPP
