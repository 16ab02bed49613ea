/**
 * @file
 * Time-varying fault schedules: scripted chaos over the virtual clock.
 *
 * A single FaultConfig models a *stationary* failure environment. Real
 * clusters fail in episodes — a crash storm here, a corruption burst
 * there, a core that throttles for a minute and recovers. A
 * FaultSchedule scripts that as
 *
 *  - piecewise FaultConfig *phases*: from each phase's startMs onward
 *    (until a later phase supersedes it) the phase's injector decides
 *    task faults for the targeted instance (or all instances);
 *  - instance *lifecycle events*: scripted crash/recover timestamps
 *    that drive the InstanceSet Up -> Draining -> Down -> WarmRestart
 *    state machine (serve/instance_set.hpp) of the fleet;
 *  - stored-row *bit-flip events*: scripted silent corruption of one
 *    (table, row, bit) site in the shared EmbeddingStore, for the
 *    integrity/quarantine path.
 *
 * Everything keys off the same deterministic virtual clock as the
 * serving loops, so a chaos session replays bit-identically under a
 * fixed seed. chaosScenario() builds the three named timelines the
 * resilience bench and `dlrmopt chaos` replay.
 */

#ifndef DLRMOPT_SERVE_FAULT_SCHEDULE_HPP
#define DLRMOPT_SERVE_FAULT_SCHEDULE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/fault.hpp"

namespace dlrmopt::serve
{

/** One piecewise fault regime, active from startMs until superseded
 *  by a later phase targeting the same scope. */
struct FaultPhase
{
    double startMs = 0.0;
    int instance = -1;   //!< target instance, -1 = every instance
    FaultConfig config;
};

/** A scripted instance crash or recovery. */
struct LifecycleEvent
{
    enum class Kind
    {
        Crash,  //!< instance begins draining, then goes Down
        Recover //!< instance warm-restarts, Up after probation
    };

    double atMs = 0.0;
    std::size_t instance = 0;
    Kind kind = Kind::Crash;
};

/** A scripted silent bit flip of one stored embedding payload bit. */
struct BitFlipEvent
{
    double atMs = 0.0;
    std::size_t table = 0;
    std::size_t row = 0;
    std::size_t bit = 0;
};

/**
 * An immutable scripted fault timeline. Owns one FaultInjector per
 * phase (injectors hold atomic hit counters, so phases are stored
 * behind unique_ptr and the schedule is move-only).
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /**
     * @param phases Fault regimes; sorted internally by startMs.
     * @param lifecycle Crash/recover script; sorted internally.
     * @param bitFlips Corruption script; sorted internally.
     *
     * @throws std::invalid_argument when any phase config fails
     *         FaultConfig::validate() or any timestamp is negative or
     *         non-finite.
     */
    FaultSchedule(std::vector<FaultPhase> phases,
                  std::vector<LifecycleEvent> lifecycle,
                  std::vector<BitFlipEvent> bitFlips);

    FaultSchedule(FaultSchedule&&) = default;
    FaultSchedule& operator=(FaultSchedule&&) = default;

    /**
     * Cross-checks the script against a cluster shape: every event's
     * instance must be < @p instances, each phase's FaultConfig must
     * pass validate(@p cores_per_instance) (a straggler core the
     * instance does not have would silently never straggle; 0 skips
     * that check), and each instance's lifecycle events must
     * alternate Crash/Recover starting with Crash (an instance cannot
     * crash twice without recovering, nor recover without having
     * crashed).
     *
     * @throws std::invalid_argument on any violation.
     */
    void validate(std::size_t instances,
                  std::size_t cores_per_instance = 0) const;

    /**
     * The injector governing @p instance at virtual time @p now_ms:
     * the phase with the latest startMs <= now_ms targeting this
     * instance, an instance-specific phase beating a global one that
     * starts at the same time. Null when no phase applies.
     */
    const FaultInjector *injectorAt(double now_ms, std::size_t instance)
        const;

    /** Lifecycle script, ascending atMs. */
    const std::vector<LifecycleEvent>& lifecycleEvents() const
    {
        return _lifecycle;
    }

    /** Corruption script, ascending atMs. */
    const std::vector<BitFlipEvent>& bitFlipEvents() const
    {
        return _bitFlips;
    }

    std::size_t numPhases() const { return _phases.size(); }

    /** The phase script, ascending startMs, so a caller can build an
     *  extended copy of a timeline. */
    std::vector<FaultPhase> phases() const;

    /** True when replaying this schedule mutates stored embedding
     *  rows (scripted bit-flip events, or any phase with a positive
     *  bitFlipRate) — such schedules need a mutable store handle. */
    bool corruptsStore() const;

    bool
    empty() const
    {
        return _phases.empty() && _lifecycle.empty() && _bitFlips.empty();
    }

    /** Sum of injected faults across every phase injector. */
    std::uint64_t injectedTaskFaults() const;

    /**
     * Builds one of the named chaos timelines over a session of
     * @p session_ms across @p instances instances:
     *
     *  - "crash-storm": a staggered wave of crashes in the first half
     *    of the session, each recovering after a scripted outage;
     *  - "rolling-corruption": a mid-session phase whose bitFlipRate
     *    silently flips stored bits, plus one scripted early flip;
     *  - "flapping-straggler": instance 0 alternates between healthy
     *    and a throwing 8x straggler regime every eighth of the
     *    session.
     *
     * @throws std::invalid_argument on an unknown name or fewer than
     *         2 instances.
     */
    static FaultSchedule chaosScenario(const std::string& name,
                                       std::size_t instances,
                                       double session_ms,
                                       std::uint64_t seed);

    /** The scenario names chaosScenario() accepts. */
    static const std::vector<std::string>& scenarioNames();

  private:
    struct Phase
    {
        double startMs;
        int instance;
        std::unique_ptr<FaultInjector> injector;
    };

    std::vector<Phase> _phases;          //!< ascending startMs
    std::vector<LifecycleEvent> _lifecycle; //!< ascending atMs
    std::vector<BitFlipEvent> _bitFlips; //!< ascending atMs
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_FAULT_SCHEDULE_HPP
