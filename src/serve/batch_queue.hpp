/**
 * @file
 * Deadline-aware request coalescing queue for the serving loop, with
 * optional weighted-fair queueing across tenants.
 *
 * BatchQueue holds pending request attempts in deterministic
 * (readyMs, seq) order and forms dispatch groups under three bounds:
 *
 *  - **capacity**: at most `cap` member requests per dispatch (the
 *    caller shrinks the cap with the degradation tier — under tail
 *    pressure the server coalesces less before it sheds at all);
 *  - **linger**: a follower may join only if it is ready within
 *    maxLingerMs of the head's ready time (or before the core frees
 *    up anyway, which costs nothing to wait for);
 *  - **deadline**: the whole group must finish by the *tightest*
 *    member deadline under the batch-size-aware service estimate
 *    serviceMs(total samples) — a request is never coalesced past its
 *    deadline. Retries are always *admitted* (as with batching off)
 *    but still carry a fresh SLA-derived deadline from their backoff
 *    expiry, so a stale retry bounds its group like any other member
 *    instead of being exempt from the deadline check.
 *
 * In the default single-tenant mode every request shares one queue
 * and the SLA offset passed to nextBatch(). The weighted-fair mode
 * (WfqConfig) adds per-tenant sub-queues arbitrated by deficit round
 * robin: each nonempty tenant accrues weight-proportional deficit per
 * round, the first tenant whose deficit covers its head dispatches,
 * and the dispatched samples are charged against its deficit. A
 * tenant that floods the fleet therefore cannot starve the others —
 * it only burns through its own deficit faster. Groups never mix
 * tenants (different tenants serve different models), and within a
 * tenant formation keeps the exact single-tenant semantics, with each
 * request's own SLA (PendingRequest::slaMs) anchoring its deadline.
 *
 * Formation is greedy in queue order and purely a function of the
 * queue contents and the arguments, so batched sessions stay
 * bit-reproducible on the virtual clock.
 */

#ifndef DLRMOPT_SERVE_BATCH_QUEUE_HPP
#define DLRMOPT_SERVE_BATCH_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "serve/service_model.hpp"

namespace dlrmopt::serve
{

/** Dynamic-batching knobs for the serving loop. */
struct BatchConfig
{
    bool enabled = false;        //!< coalesce queued requests

    std::size_t maxRequests = 8; //!< coalescing cap at tier 0

    /** How long (virtual ms) the head may wait for followers beyond
     *  its ready time. 0 still coalesces whatever is ready by the
     *  time a core frees up. */
    double maxLingerMs = 0.0;

    /** @throws std::invalid_argument on a zero cap or negative /
     *          non-finite linger. */
    void validate() const;
};

/** Weighted-fair queueing knobs for a multi-tenant BatchQueue. */
struct WfqConfig
{
    /** Per-tenant scheduling weights; tenant t may only be queued
     *  when t < weights.size(). Empty disables WFQ (single queue). */
    std::vector<double> weights;

    /** Samples of deficit a unit-weight tenant accrues per DRR round.
     *  Smaller quanta interleave tenants more finely; larger quanta
     *  favour bigger (better-amortized) single-tenant groups. */
    double quantumSamples = 8.0;

    /** @throws std::invalid_argument on a non-positive / non-finite
     *          weight or quantum. */
    void validate() const;
};

/** One queued request attempt awaiting dispatch. */
struct PendingRequest
{
    double readyMs = 0.0;     //!< earliest virtual start
    std::uint64_t seq = 0;    //!< deterministic tie-break
    std::uint64_t req = 0;    //!< request id
    std::uint64_t tries = 0;  //!< attempts already burned
    double arrivalMs = 0.0;   //!< original arrival (deadline anchor)
    std::size_t samples = 0;  //!< batch size of this request
    std::uint32_t tenant = 0; //!< owning tenant (WFQ sub-queue key)

    /** Per-request SLA offset (ms). 0 = use the session-wide SLA
     *  passed to nextBatch(); positive overrides it (per-tenant
     *  SLAs in the multi-tenant fleet). */
    double slaMs = 0.0;
};

/**
 * Deterministic coalescing queue. Not thread-safe; the serving loop
 * owns it and advances it on the virtual clock.
 */
class BatchQueue
{
  public:
    /** Single-tenant queue: every request shares one sub-queue. */
    explicit BatchQueue(const BatchConfig& cfg);

    /** Weighted-fair queue over wfq.weights.size() tenants. */
    BatchQueue(const BatchConfig& cfg, const WfqConfig& wfq);

    /** @throws std::invalid_argument when the request's tenant has no
     *          configured weight (WFQ mode only). */
    void push(const PendingRequest& r);

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    /** Requests currently queued for @p tenant (admission budgets). */
    std::size_t queuedOf(std::uint32_t tenant) const;

    /** Samples currently queued for @p tenant. */
    std::size_t queuedSamplesOf(std::uint32_t tenant) const;

    /** Earliest ready time over every sub-queue head; queue must be
     *  non-empty. */
    double headReadyMs() const;

    /**
     * Pops the next head and every compatible follower into @p out
     * (head first, then queue order). The head is always dispatched —
     * even when it alone cannot meet its deadline, in which case it
     * is returned solo so the caller can shed it; followers only join
     * when every member's deadline stays feasible. In WFQ mode the
     * head tenant is chosen by deficit round robin and followers come
     * only from the same tenant, additionally bounded by the tenant's
     * remaining deficit.
     *
     * @param core_free_ms When the dispatching core frees up.
     * @param cap Max member count this dispatch (tier-shrunk).
     * @param sla_ms Deadline offset for members without their own
     *        PendingRequest::slaMs.
     * @param service Batch-size-aware service estimate.
     * @param straggle Service multiplier of the dispatching core.
     * @param out Reused output buffer (cleared first).
     */
    void nextBatch(double core_free_ms, std::size_t cap, double sla_ms,
                   const ServiceModel& service, double straggle,
                   std::vector<PendingRequest>& out);

    /**
     * Same, with one service estimate per tenant (indexed by tenant
     * id): different tenants serve different models, so the deadline
     * feasibility of a group must be priced with the *owning*
     * tenant's estimate. The single-model overload is equivalent to
     * every tenant sharing one estimate.
     *
     * @throws std::invalid_argument when fewer models than tenants
     *         are supplied.
     */
    void nextBatch(double core_free_ms, std::size_t cap, double sla_ms,
                   const std::vector<ServiceModel>& service_by_tenant,
                   double straggle, std::vector<PendingRequest>& out);

    /**
     * Same, with one coalescing cap per tenant id: per-tenant
     * degradation tiers shrink how much the *pressured* tenant
     * coalesces without touching its neighbours' caps. The cap of
     * the DRR-selected head tenant bounds the group (groups never
     * mix tenants).
     *
     * @throws std::invalid_argument when fewer caps or models than
     *         tenants are supplied, or a cap is zero.
     */
    void nextBatch(double core_free_ms,
                   const std::vector<std::size_t>& cap_by_tenant,
                   double sla_ms,
                   const std::vector<ServiceModel>& service_by_tenant,
                   double straggle, std::vector<PendingRequest>& out);

  private:
    struct EarlierReady
    {
        bool
        operator()(const PendingRequest& a,
                   const PendingRequest& b) const
        {
            if (a.readyMs != b.readyMs)
                return a.readyMs < b.readyMs;
            return a.seq < b.seq;
        }
    };

    using SubQueue = std::set<PendingRequest, EarlierReady>;

    /** Forms one group from sub-queue @p q whose head was already
     *  popped into @p out; @p max_samples bounds the group's total
     *  samples (WFQ deficit), 0 = unbounded. Returns total samples. */
    std::size_t formGroup(SubQueue& q, double core_free_ms,
                          std::size_t cap, double sla_ms,
                          const ServiceModel& service, double straggle,
                          std::size_t max_samples,
                          std::vector<PendingRequest>& out);

    /** Shared selection + formation; @p service points at one model
     *  (per_tenant false) or one per tenant id (per_tenant true), and
     *  @p cap_by_tenant (nullable) overrides @p cap with the head
     *  tenant's own coalescing cap. */
    void nextBatchImpl(double core_free_ms, std::size_t cap,
                       const std::size_t *cap_by_tenant, double sla_ms,
                       const ServiceModel *service, bool per_tenant,
                       double straggle,
                       std::vector<PendingRequest>& out);

    BatchConfig _cfg;
    WfqConfig _wfq;             //!< weights empty in single-tenant mode
    bool _fair = false;
    std::vector<SubQueue> _sub; //!< one per tenant (1 when !_fair)
    std::vector<double> _deficit;
    std::size_t _cursor = 0;    //!< DRR round-robin position
    std::size_t _count = 0;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_BATCH_QUEUE_HPP
