/**
 * @file
 * Graceful-degradation policy for the serving layer.
 *
 * Tracks a sliding-window p95 over served-request latencies and walks
 * a ladder of degradation tiers when the tail approaches the SLA.
 * Precision drops before work does: quantized tiers serve *every*
 * admitted sample at reduced precision (bounded accuracy loss) before
 * any tier starts coalescing less or shedding requests outright:
 *
 *   tier 0  fp32, full batch, prefetching on
 *   tier 1  bf16 embedding bags (half the bag bandwidth; MLPs fp32)
 *   tier 2  int8 embedding bags + u8·s8 MLP engine
 *   tier 3  + coalescing cap shrunk to half
 *   tier 4  + software-prefetch autotuning disabled (fixed kernel, no
 *             tuning overhead or mistuned-prefetch cache pollution)
 *
 * A tier changes only what executes. It carries no price factor: the
 * serving loop prices every dispatch with the service estimate of the
 * samples it really runs, so a tier is cheaper on the virtual clock
 * only through fewer samples per dispatch.
 *
 * Escalation happens when the window p95 exceeds the high-water
 * fraction of the SLA; de-escalation when it stays below the
 * low-water fraction for a full cooldown window (hysteresis, so the
 * policy cannot flap each sample).
 */

#ifndef DLRMOPT_SERVE_DEGRADE_HPP
#define DLRMOPT_SERVE_DEGRADE_HPP

#include <cstddef>
#include <vector>

#include "core/quant.hpp"

namespace dlrmopt::serve
{

/**
 * Fixed-capacity sliding window answering p95 queries over the most
 * recent samples. O(window) per query via nth_element on a scratch
 * copy — windows are small (tens of samples), so this beats
 * maintaining ordered structures.
 */
class WindowedP95
{
  public:
    explicit WindowedP95(std::size_t window = 64);

    void add(double latency_ms);

    std::size_t count() const { return _buf.size(); }
    bool full() const { return _buf.size() == _window; }

    /** p95 (nearest-rank) of the window; 0 when empty. */
    double p95() const;

  private:
    std::size_t _window;
    std::size_t _next = 0; //!< ring cursor
    std::vector<double> _buf;
};

/** What a degradation tier changes about request execution. */
struct DegradeState
{
    int tier = 0;
    double batchFraction = 1.0; //!< fraction of the coalescing cap kept
    bool prefetchEnabled = true;

    /**
     * Inference precision the tier executes at. Quantized tiers run
     * the fused-dequant bags over the model's attached quantized
     * store (graceful fp32 fallback when none is attached) and, for
     * Int8, the u8·s8 packed MLP engine.
     */
    core::EmbDtype dtype = core::EmbDtype::Fp32;
};

/** Degradation thresholds. */
struct DegradeConfig
{
    bool enabled = false;
    std::size_t window = 64;    //!< sliding-window size (samples)
    double highFraction = 0.9;  //!< escalate when p95 > high * SLA
    double lowFraction = 0.5;   //!< de-escalate when p95 < low * SLA
    std::size_t cooldown = 64;  //!< min samples between tier changes
};

/**
 * Sliding-window-driven tier controller. Feed it each served
 * request's latency; read state() before executing the next request.
 */
class DegradationPolicy
{
  public:
    DegradationPolicy(const DegradeConfig& cfg, double sla_ms);

    /** Records a served-request latency and updates the tier. */
    void observe(double latency_ms);

    int tier() const { return _tier; }

    /** Execution knobs for the current tier. */
    DegradeState state() const { return stateForTier(_tier); }

    /** Knobs for an explicit tier in [0, maxTier()]. */
    static DegradeState stateForTier(int tier);

    static int maxTier() { return 4; }

    std::size_t escalations() const { return _escalations; }

  private:
    DegradeConfig _cfg;
    double _slaMs;
    WindowedP95 _win;
    int _tier = 0;
    std::size_t _sinceChange = 0;
    std::size_t _calmStreak = 0;
    std::size_t _escalations = 0;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_DEGRADE_HPP
