/**
 * @file
 * The lifecycle of a cluster's serving instances on the virtual clock:
 * the state machine the TenantFleet drives.
 *
 *   Up --drain/crash--> Draining --in-flight work done--> Down
 *   Down --recover/scale-up--> WarmRestart --probation--> Up
 *   WarmRestart --crash--> Down
 *
 * Draining exists because a crash or a scale-down is announced while
 * dispatches may still be executing: the slot takes no fresh work but
 * its in-flight work finishes. A partial drain keeps a residual core
 * group open for work already bound to the slot, lingering a grace
 * past its last dispatch. The time each slot spends Up is the fleet's
 * instance-ms cost.
 *
 * The set also holds the only replay of a FaultSchedule's lifecycle
 * events and bit flips: events apply in time order with the lifecycle
 * ticked between them, and the scrubbers reach a flip's time before
 * the flip lands, so a sweep never repairs corruption from its own
 * future. Callers supply what a restart, a scrub advance or a flip
 * does as hooks.
 */

#ifndef DLRMOPT_SERVE_INSTANCE_SET_HPP
#define DLRMOPT_SERVE_INSTANCE_SET_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "serve/fault_schedule.hpp"

namespace dlrmopt::serve
{

enum class InstanceState
{
    Up,
    Draining,
    Down,
    WarmRestart
};

/** Human-readable state name ("Up", "Draining", ...). */
const char *instanceStateName(InstanceState s);

struct InstanceSetConfig
{
    std::size_t partialDrainCores = 0; //!< 0 = all-or-nothing drain
    double drainGraceMs = 0.0; //!< partial-drain linger after last work
    double probationMs = 5.0;  //!< WarmRestart time before Up
};

/** Caller actions; any may be empty. */
struct InstanceHooks
{
    /** Slot i entered WarmRestart at now_ms: rebuild its replica. */
    std::function<void(std::size_t i, double now_ms)> restart;
    /** Advance every scrubber to now_ms: before each flip lands and at
     *  the end of each advance. */
    std::function<void(double now_ms)> scrub;
    /** A scripted bit flip lands. */
    std::function<void(const BitFlipEvent&)> flip;
};

/** One slot's lifecycle facts, on the virtual clock. */
struct InstanceSlot
{
    InstanceState state = InstanceState::Up;
    std::size_t active = 0;      //!< cores taking new dispatches
    std::vector<double> freeAt;  //!< per-core free time
    double drainReadyMs = 0.0;   //!< a Draining slot is Down from here
    double probationEndMs = 0.0; //!< a WarmRestart slot is Up from here
    double upSinceMs = 0.0;
    double upAccumMs = 0.0;      //!< Up time before upSinceMs
    bool scriptedDown = false;   //!< a scripted crash holds it down
    std::uint64_t restarts = 0;  //!< completed warm restarts, lifetime

    std::size_t cores() const { return freeAt.size(); }

    /** Up, or Draining with a residual core group still open. */
    bool dispatchable() const
    {
        return state == InstanceState::Up ||
               (state == InstanceState::Draining && active > 0);
    }
};

/** Lifecycle, per-core free times and chaos replay of N slots. */
class InstanceSet
{
  public:
    /** Slot i has cores[i] cores; the first @p up slots start Up, the
     *  rest Down. */
    InstanceSet(std::vector<std::size_t> cores,
                const InstanceSetConfig& cfg, std::size_t up);

    const InstanceSlot& operator[](std::size_t i) const
    {
        return _slots[i];
    }

    /** Earliest-free active core, lowest index on ties. */
    std::size_t earliestCore(std::size_t i) const;

    /** A Draining slot goes Down no earlier than @p until_ms. */
    void holdDrain(std::size_t i, double until_ms)
    {
        InstanceSlot& s = _slots[i];
        if (s.state == InstanceState::Draining)
            s.drainReadyMs = std::max(s.drainReadyMs, until_ms);
    }

    /** A dispatch holds @p core until @p end_ms; a drain waits for it. */
    void occupy(std::size_t i, std::size_t core, double end_ms)
    {
        _slots[i].freeAt[core] = end_ms;
        holdDrain(i, end_ms);
    }

    /// @name Guarded transitions (std::logic_error from other states)
    /// @{
    /** Up -> Draining; a partial drain's residual group stays open for
     *  the grace past the in-flight work. */
    void beginDrain(std::size_t i, double now_ms);
    /** Draining -> Down, or WarmRestart -> Down (crashed in probation). */
    void markDown(std::size_t i);
    /** Down -> WarmRestart: idles the cores, runs the restart hook. */
    void beginWarmRestart(std::size_t i, double now_ms);
    /** WarmRestart -> Up as of the probation end. */
    void completeWarmRestart(std::size_t i);
    /// @}

    /**
     * Starts a session: free times, deadlines, up time and the session
     * counters restart from 0 and @p schedule (may be null) replays
     * from its start; states carry over. The schedule and what the
     * hooks reference must outlive the session.
     */
    void startSession(const FaultSchedule *schedule, InstanceHooks hooks);

    /**
     * Advances to @p now_ms: ticks due drains and probations, applies
     * each scripted lifecycle event up to @p now_ms after ticking to
     * its time (a crash drains an Up slot and takes a WarmRestart slot
     * Down; a recovery warm-restarts the slot), then lands the flips
     * and advances the scrubbers.
     */
    void advanceTo(double now_ms);

    /** The schedule's active injector for slot i (null when none). */
    const FaultInjector *injectorAt(std::size_t i, double now_ms) const
    {
        return _schedule ? _schedule->injectorAt(now_ms, i) : nullptr;
    }

    /** Next drain deadline, probation end or scripted lifecycle event
     *  (numeric_limits<double>::max() when none). */
    double nextWakeMs() const;

    /** Time slot i spent Up this session, through @p end_ms. */
    double upMs(std::size_t i, double end_ms) const
    {
        const InstanceSlot& s = _slots[i];
        const bool up = s.state == InstanceState::Up;
        return s.upAccumMs +
               (up ? std::max(0.0, end_ms - s.upSinceMs) : 0.0);
    }

    std::size_t sessionCrashes() const { return _crashes; }
    std::size_t sessionRestarts() const { return _restarts; }

  private:
    void require(std::size_t i, InstanceState from,
                 const char *transition) const;
    void tick(double now_ms);

    InstanceSetConfig _cfg;
    std::vector<InstanceSlot> _slots;
    const FaultSchedule *_schedule = nullptr;
    InstanceHooks _hooks;
    std::size_t _lifecycleCursor = 0;
    std::size_t _flipCursor = 0;
    std::size_t _crashes = 0;
    std::size_t _restarts = 0;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_INSTANCE_SET_HPP
