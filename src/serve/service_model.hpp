/**
 * @file
 * Batch-size-aware service-time model for the serving layer.
 *
 * The virtual-clock serving loops (Server, TenantFleet, the shedding
 * queue simulator) need a deterministic estimate of how long one dispatch
 * takes. A single scalar per-request number cannot price coalesced
 * batches: real DLRM forwards have a fixed per-dispatch cost (kernel
 * launch, small-batch GEMM inefficiency, stage setup) plus a marginal
 * per-sample cost, which is exactly why coalescing k small requests
 * into one dispatch beats k dispatches. ServiceModel is that affine
 * model: serviceMs(n) = baseMs + perSampleMs * n, calibrated from
 * measured forwards, with constant(ms) reproducing the legacy scalar
 * behaviour bit-for-bit (serviceMs(n) == ms for every n).
 */

#ifndef DLRMOPT_SERVE_SERVICE_MODEL_HPP
#define DLRMOPT_SERVE_SERVICE_MODEL_HPP

#include <cstddef>
#include <vector>

#include "core/dlrm.hpp"

namespace dlrmopt::serve
{

/** Affine batch-size -> service-time model (virtual milliseconds). */
struct ServiceModel
{
    double baseMs = 0.0;      //!< fixed cost per dispatch
    double perSampleMs = 1.0; //!< marginal cost per sample

    /** Estimated service time for one dispatch of @p samples. */
    double
    serviceMs(std::size_t samples) const
    {
        return baseMs + perSampleMs * static_cast<double>(samples);
    }

    /**
     * Batch-size-independent model: serviceMs(n) == ms for every n.
     * Reproduces the legacy scalar `serviceMs` accounting exactly.
     */
    static ServiceModel
    constant(double ms)
    {
        return ServiceModel{ms, 0.0};
    }

    /**
     * Least-squares fit of (batch size, measured ms) pairs. Negative
     * fitted coefficients are clamped to the physical model (a flat
     * fit when the slope comes out negative, a through-origin fit
     * when the intercept does).
     *
     * @throws std::invalid_argument on empty or mismatched inputs.
     */
    static ServiceModel fit(const std::vector<std::size_t>& batch_sizes,
                            const std::vector<double>& measured_ms);

    /** @throws std::invalid_argument unless 0 <= base, 0 <= per,
     *          base + per > 0, and both are finite. */
    void validate() const;
};

/**
 * Piecewise-constant service-time truth over the virtual clock.
 *
 * A single ServiceModel describes a *stationary* service process.
 * Real fleets drift: caches cool overnight, co-located batch jobs
 * steal bandwidth at peak, a microcode update changes per-sample
 * cost. A ServiceTimeline scripts that drift as dated segments —
 * from each segment's startMs onward its model is the *actual*
 * service time — so sessions exercising in-flight ServiceModel
 * recalibration (serve/capacity.hpp) stay bit-reproducible: the
 * controller's stale estimate diverges from this scripted truth, and
 * the recalibrator closes the gap from observed dispatch times.
 */
class ServiceTimeline
{
  public:
    /** A stationary timeline: one model forever (no drift). */
    explicit ServiceTimeline(const ServiceModel& constant_model);

    /**
     * @param segments (startMs, model) pairs; sorted internally. The
     *        earliest segment is clamped to start at 0.
     *
     * @throws std::invalid_argument on an empty list, a negative /
     *         non-finite startMs, or a model failing validate().
     */
    struct Segment
    {
        double startMs = 0.0;
        ServiceModel model;
    };
    explicit ServiceTimeline(std::vector<Segment> segments);

    /** The model in force at virtual time @p now_ms. */
    const ServiceModel& at(double now_ms) const;

    /** True when more than one distinct regime is scripted. */
    bool drifts() const { return _segments.size() > 1; }

    std::size_t numSegments() const { return _segments.size(); }

  private:
    std::vector<Segment> _segments; //!< ascending startMs
};

/**
 * Calibrates a ServiceModel from real forwards: runs the model at
 * each probe batch size (@p batch truncated per probe), takes the
 * fastest of @p reps wall-clock repetitions per size, and fits.
 *
 * @param probe_sizes Batch sizes to measure (clamped to the batch).
 * @param reps Repetitions per size (>= 1; the min is kept).
 *
 * @throws std::invalid_argument on empty probe sizes or zero reps.
 */
ServiceModel calibrateServiceModel(const core::DlrmModel& model,
                                   const core::Tensor& dense,
                                   const core::SparseBatch& batch,
                                   const std::vector<std::size_t>&
                                       probe_sizes,
                                   std::size_t reps = 3);

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_SERVICE_MODEL_HPP
