/**
 * @file
 * Tenant registry for the multi-tenant serving fleet.
 *
 * The paper's Sec. 6.5 cluster serves one model class per deployment;
 * a real recommendation fleet multiplexes several — ranking, retrieval
 * and ads models with different architectures (Table 2 presets),
 * different SLA targets (Table 1) and very different traffic curves —
 * onto the same cores. A Tenant binds one such workload to:
 *
 *  - a **model preset** (its own ModelConfig, and therefore its own
 *    EmbeddingStore: tenants never share tables);
 *  - an **SLA class** (per-request deadline, defaulting to the model
 *    class's Table 1 target);
 *  - a **fair-share weight** (the tenant's deficit-round-robin weight
 *    in the shared BatchQueue — its guaranteed fraction of dispatch
 *    bandwidth under contention);
 *  - an **admission budget** (max requests the tenant may hold queued;
 *    overflow is shed at arrival and charged to the tenant, so one
 *    tenant's burst cannot consume the whole queue);
 *  - a **service process**: a seed ServiceModel estimate plus the
 *    scripted ServiceTimeline truth its dispatches actually follow
 *    (serve/service_model.hpp), which is what the fleet's in-session
 *    recalibration converges to.
 */

#ifndef DLRMOPT_SERVE_TENANT_HPP
#define DLRMOPT_SERVE_TENANT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model_config.hpp"
#include "serve/degrade.hpp"
#include "serve/serve_stats.hpp"
#include "serve/service_model.hpp"

namespace dlrmopt::serve
{

/** One tenant's binding of model, SLA, share and service process. */
struct TenantConfig
{
    std::string name;

    /** Architecture this tenant serves (typically a Table 2 preset
     *  scaled to fit the host). */
    core::ModelConfig model;

    /** Per-request deadline (ms); 0 = the model class's Table 1
     *  target. */
    double slaMs = 0.0;

    /** Deficit-round-robin weight in the shared queue. */
    double weight = 1.0;

    /** Max requests this tenant may hold queued; arrivals beyond it
     *  are shed on the spot (0 = unlimited). */
    std::size_t admissionBudget = 0;

    /** Seed service-time estimate the fleet prices dispatches with
     *  until recalibration refines it. */
    ServiceModel service = ServiceModel::constant(1.0);

    /** Scripted truth of this tenant's actual service times over the
     *  virtual clock (stationary by default). */
    ServiceTimeline truth{ServiceModel::constant(1.0)};

    /** Per-tenant graceful-degradation thresholds: each tenant walks
     *  its own tier ladder against its own SLA, so one tenant's tail
     *  blow-up shrinks only that tenant's coalescing, precision and
     *  prefetch instead of degrading its neighbours. Disabled by
     *  default (every dispatch runs at tier 0, the pre-existing
     *  fleet behaviour). */
    DegradeConfig degrade;

    double
    effectiveSlaMs() const
    {
        return slaMs > 0.0 ? slaMs : model.slaMs();
    }

    /** @throws std::invalid_argument on an empty name, a non-positive
     *          weight, a negative/non-finite slaMs, or a seed model
     *          failing validate(). */
    void validate() const;
};

/** Per-tenant accounting of one fleet session. */
struct TenantStats
{
    ServeStats stats; //!< arrived/served/shed/failed/latency

    /** Arrivals shed because the tenant's queue budget was full
     *  (subset of stats.shed). */
    std::size_t budgetShed = 0;

    /** Arrivals shed because no projected completion could meet the
     *  deadline (subset of stats.shed). */
    std::size_t deadlineShed = 0;

    /** Served requests whose latency met the tenant's SLA. */
    std::size_t compliant = 0;

    /** Per-request fingerprintPredictions of the served answer,
     *  indexed by request id; 0 = not served. */
    std::vector<std::uint64_t> predFingerprints;

    /** Compliant fraction of served requests (1 when none served). */
    double
    complianceOfServed() const
    {
        return stats.served ? static_cast<double>(compliant) /
                                  static_cast<double>(stats.served)
                            : 1.0;
    }

    /** Compliant fraction of *arrived* requests — the goodput ratio
     *  the SLA-isolation guarantees are stated over (sheds count
     *  against it; 0 when nothing arrived). */
    double
    goodput() const
    {
        return stats.arrived ? static_cast<double>(compliant) /
                                   static_cast<double>(stats.arrived)
                             : 0.0;
    }

    /** arrived == served + shed + failed. */
    bool
    conserved() const
    {
        return stats.arrived ==
               stats.served + stats.shed + stats.failed;
    }
};

/**
 * Ordered collection of tenants; the index returned by add() is the
 * tenant id used in PendingRequest::tenant and every per-tenant stats
 * vector.
 */
class TenantRegistry
{
  public:
    /** Registers a tenant and returns its id (dense, starting at 0).
     *
     * @throws std::invalid_argument when cfg fails validate() or the
     *         name is already registered. */
    std::size_t add(TenantConfig cfg);

    std::size_t size() const { return _tenants.size(); }
    bool empty() const { return _tenants.empty(); }

    const TenantConfig& tenant(std::size_t id) const
    {
        return _tenants.at(id);
    }

    /** Id of the tenant named @p name.
     *  @throws std::out_of_range on an unknown name. */
    std::size_t idOf(const std::string& name) const;

    /** DRR weights in id order (WfqConfig::weights). */
    std::vector<double> weights() const;

  private:
    std::vector<TenantConfig> _tenants;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_TENANT_HPP
