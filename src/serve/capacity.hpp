/**
 * @file
 * Elastic capacity and in-session service-model recalibration for the
 * multi-tenant fleet.
 *
 * The paper sizes a cluster once, offline, against Table 1's SLA
 * targets. A production fleet cannot: diurnal arrival curves swing
 * offered load severalfold within a session, and the service-time
 * behaviour itself drifts (cache warmth, co-located jobs). Two
 * controllers close those loops on the deterministic virtual clock:
 *
 *  - **CapacityController** — a windowed load forecast (EWMA over
 *    fixed windows of offered service-milliseconds) drives a desired
 *    instance count: scale up immediately when the forecast exceeds
 *    the target utilization of the current Up set, scale down only
 *    after `downLag` consecutive low windows (hysteresis, so a
 *    momentary lull does not flap capacity). The fleet maps the
 *    desired count onto its InstanceSet lifecycle: Up -> Draining
 *    (optionally partial: a smaller core group serves residual
 *    traffic) -> Down, and Down -> WarmRestart -> Up after probation.
 *
 *  - **ServiceModelRecalibrator** — a sliding window of observed
 *    (samples, measured ms) dispatch pairs refit through
 *    ServiceModel::fit() every `intervalMs`. The serving loop's
 *    *estimate* (admission, batch-deadline feasibility, queue-wait
 *    projection) tracks the *actual* service process scripted by a
 *    ServiceTimeline; staleness (mean relative error of the current
 *    estimate over the window above a threshold) is detected and
 *    surfaced. With recalibration disabled and a stationary truth,
 *    accounting is bit-for-bit the legacy static-model behaviour.
 */

#ifndef DLRMOPT_SERVE_CAPACITY_HPP
#define DLRMOPT_SERVE_CAPACITY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/service_model.hpp"

namespace dlrmopt::serve
{

/** Elastic-capacity knobs. */
struct CapacityConfig
{
    bool elastic = false;  //!< off: fixed instance count

    std::size_t minInstances = 1;

    /** Forecast window length (virtual ms). Decisions land on window
     *  boundaries, so capacity moves are deterministic. */
    double windowMs = 50.0;

    /** EWMA smoothing of the per-window offered load (0 = last
     *  window only, 1 would never update; 0.3 keeps ~2 windows of
     *  memory). */
    double forecastDecay = 0.3;

    /** Plan capacity so forecast offered load <= this fraction of
     *  the Up set's core-milliseconds per millisecond. */
    double targetUtilization = 0.7;

    /** Consecutive low windows required before a scale-down (scale-
     *  ups are immediate: under-capacity sheds, over-capacity only
     *  wastes). */
    std::size_t downLag = 3;

    /** Virtual ms a warm-restarted instance spends in probation. */
    double probationMs = 5.0;

    /** Partial drain: a scale-down victim keeps this many cores
     *  serving residual traffic while Draining instead of stopping
     *  cold (0 = all-or-nothing drain). */
    std::size_t partialDrainCores = 0;

    /** Virtual ms a partial drain lingers before the instance stops
     *  accepting work entirely. */
    double drainGraceMs = 20.0;

    /** @throws std::invalid_argument on minInstances == 0, a non-
     *          positive/non-finite window or grace, a utilization or
     *          decay outside (0, 1], or a zero downLag. */
    void validate() const;
};

/**
 * Windowed offered-load forecaster. The fleet reports every arrival's
 * estimated service cost; at each window boundary the controller
 * folds the window into an EWMA forecast and recommends an instance
 * count. Pure virtual-clock arithmetic: no wall time, no randomness.
 */
class CapacityController
{
  public:
    /**
     * @param cfg Knobs (validated here).
     * @param max_instances Instance slots the fleet owns.
     * @param cores_per_instance Serving cores per instance (capacity
     *        of one Up instance is cores * 1 ms/ms).
     *
     * @throws std::invalid_argument when cfg fails validate() or
     *         minInstances exceeds max_instances, or either count is
     *         zero.
     */
    CapacityController(const CapacityConfig& cfg,
                       std::size_t max_instances,
                       std::size_t cores_per_instance);

    /** Accumulates one arrival's estimated service cost (ms) into
     *  the current window. @p now_ms must be nondecreasing. */
    void observeArrival(double now_ms, double service_cost_ms);

    /**
     * Advances window accounting to @p now_ms and returns the
     * currently desired instance count (clamped to [minInstances,
     * maxInstances]). Idempotent between window boundaries.
     */
    std::size_t desiredInstances(double now_ms);

    /** Forecast offered load (service-ms per ms) after the last
     *  closed window. */
    double forecastLoad() const { return _forecast; }

    std::size_t windowsClosed() const { return _windowsClosed; }

    /**
     * Reload-aware hold: while @p hold is set, window boundaries
     * never lower the desired count (scale-ups stay immediate) and
     * the low-streak hysteresis does not accumulate. The fleet
     * asserts this while a ReloadManager canary/rollout is in flight
     * — draining an instance mid-canary would yank the very capacity
     * the rollout's p95 gate is being judged against, turning every
     * reload into a self-inflicted latency regression. Dropped when
     * the rollout commits or rolls back; the lull must then persist
     * for a full downLag streak before any instance drains.
     */
    void holdScaleDowns(bool hold) { _holdScaleDowns = hold; }

    /** True while scale-downs are held (see holdScaleDowns). */
    bool scaleDownsHeld() const { return _holdScaleDowns; }

  private:
    void closeWindowsUpTo(double now_ms);

    CapacityConfig _cfg;
    std::size_t _maxInstances;
    std::size_t _coresPerInstance;

    double _windowEnd;    //!< end of the currently open window
    double _windowLoadMs = 0.0; //!< offered service-ms this window
    double _forecast = 0.0;     //!< EWMA service-ms per ms
    std::size_t _windowsClosed = 0;
    std::size_t _lowStreak = 0; //!< consecutive scale-down windows
    std::size_t _desired;       //!< last recommendation
    bool _holdScaleDowns = false; //!< reload in flight: never shrink
};

/** Recalibration knobs. */
struct RecalibrationConfig
{
    bool enabled = false;

    double intervalMs = 100.0;  //!< refit period on the virtual clock

    std::size_t window = 256;   //!< sliding (samples, ms) window

    /** Observations required before the first refit replaces the
     *  seed model. */
    std::size_t minObservations = 16;

    /** Mean relative error of the current model over the window at
     *  which it is flagged stale. */
    double staleThreshold = 0.25;

    /** @throws std::invalid_argument on a non-positive interval /
     *          threshold, zero window, or minObservations > window. */
    void validate() const;
};

/**
 * Sliding-window least-squares recalibration of the serving loop's
 * ServiceModel estimate from observed dispatch times.
 */
class ServiceModelRecalibrator
{
  public:
    /**
     * @param initial Seed estimate used until enough observations
     *        accumulate (validated).
     * @param cfg Knobs (validated).
     */
    ServiceModelRecalibrator(const ServiceModel& initial,
                             const RecalibrationConfig& cfg);

    /** Records one dispatch: @p samples coalesced samples took
     *  @p measured_ms. Ignored when disabled. */
    void observe(std::size_t samples, double measured_ms);

    /**
     * Refits when enabled, the interval has elapsed since the last
     * refit, and at least minObservations are windowed. Returns true
     * when the estimate was replaced this call.
     */
    bool maybeRecalibrate(double now_ms);

    /** The estimate the serving loop should price dispatches with. */
    const ServiceModel& current() const { return _current; }

    /** Mean relative |estimate - observed| / observed over the
     *  window (0 when empty). */
    double meanRelativeError() const;

    /** True when the current estimate's windowed error exceeds the
     *  stale threshold — i.e. the model no longer describes the
     *  service process and a refit (or alert) is due. */
    bool stale() const;

    std::size_t recalibrations() const { return _recalibrations; }
    std::size_t observations() const { return _observations; }

  private:
    RecalibrationConfig _cfg;
    ServiceModel _current;
    std::vector<std::size_t> _samples; //!< ring buffer
    std::vector<double> _measured;
    std::size_t _head = 0;
    std::size_t _filled = 0;
    std::uint64_t _observations = 0;
    double _lastFitMs;
    std::size_t _recalibrations = 0;

    // fit() scratch, reused across refits.
    std::vector<std::size_t> _fitSamples;
    std::vector<double> _fitMeasured;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_CAPACITY_HPP
