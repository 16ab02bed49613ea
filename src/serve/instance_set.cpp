#include "serve/instance_set.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dlrmopt::serve
{

const char *
instanceStateName(InstanceState s)
{
    static const char *const names[] = {"Up", "Draining", "Down",
                                        "WarmRestart"};
    return names[static_cast<int>(s)];
}

InstanceSet::InstanceSet(std::vector<std::size_t> cores,
                         const InstanceSetConfig& cfg, std::size_t up)
    : _cfg(cfg), _slots(cores.size())
{
    for (std::size_t i = 0; i < _slots.size(); ++i) {
        _slots[i].freeAt.assign(cores[i], 0.0);
        _slots[i].state = i < up ? InstanceState::Up : InstanceState::Down;
        _slots[i].active = i < up ? cores[i] : 0;
    }
}

std::size_t
InstanceSet::earliestCore(std::size_t i) const
{
    const InstanceSlot& s = _slots[i];
    const std::size_t limit =
        s.active > 0 ? std::min(s.active, s.freeAt.size())
                     : s.freeAt.size();
    std::size_t core = 0;
    for (std::size_t c = 1; c < limit; ++c) {
        if (s.freeAt[c] < s.freeAt[core])
            core = c;
    }
    return core;
}

void
InstanceSet::require(std::size_t i, InstanceState from,
                     const char *transition) const
{
    if (_slots[i].state != from) {
        throw std::logic_error(std::string("InstanceSet::") + transition +
                               ": instance is " +
                               instanceStateName(_slots[i].state));
    }
}

void
InstanceSet::beginDrain(std::size_t i, double now_ms)
{
    require(i, InstanceState::Up, "beginDrain");
    InstanceSlot& s = _slots[i];
    s.upAccumMs += std::max(0.0, now_ms - s.upSinceMs);
    s.state = InstanceState::Draining;
    s.active = std::min(_cfg.partialDrainCores, s.freeAt.size());
    double ready = now_ms; // in-flight work finishes first
    for (const double f : s.freeAt)
        ready = std::max(ready, f);
    s.drainReadyMs = ready + (s.active > 0 ? _cfg.drainGraceMs : 0.0);
}

void
InstanceSet::markDown(std::size_t i)
{
    if (_slots[i].state != InstanceState::WarmRestart)
        require(i, InstanceState::Draining, "markDown");
    _slots[i].state = InstanceState::Down;
    _slots[i].active = 0;
}

void
InstanceSet::beginWarmRestart(std::size_t i, double now_ms)
{
    require(i, InstanceState::Down, "beginWarmRestart");
    InstanceSlot& s = _slots[i];
    s.state = InstanceState::WarmRestart;
    s.probationEndMs = now_ms + _cfg.probationMs;
    // No core takes work before the probation ends.
    std::fill(s.freeAt.begin(), s.freeAt.end(), s.probationEndMs);
    if (_hooks.restart)
        _hooks.restart(i, now_ms);
}

void
InstanceSet::completeWarmRestart(std::size_t i)
{
    require(i, InstanceState::WarmRestart, "completeWarmRestart");
    InstanceSlot& s = _slots[i];
    s.state = InstanceState::Up;
    s.active = s.freeAt.size();
    // Up from the end of probation, however late the lazy tick fires.
    s.upSinceMs = s.probationEndMs;
    ++s.restarts;
    ++_restarts;
}

void
InstanceSet::startSession(const FaultSchedule *schedule, InstanceHooks hooks)
{
    for (InstanceSlot& s : _slots) {
        std::fill(s.freeAt.begin(), s.freeAt.end(), 0.0);
        s.drainReadyMs = s.probationEndMs = 0.0;
        s.upSinceMs = s.upAccumMs = 0.0;
    }
    _schedule = schedule;
    _hooks = std::move(hooks);
    _lifecycleCursor = _flipCursor = 0;
    _crashes = _restarts = 0;
}

void
InstanceSet::tick(double now_ms)
{
    for (std::size_t i = 0; i < _slots.size(); ++i) {
        const InstanceSlot& s = _slots[i];
        if (s.state == InstanceState::Draining &&
            now_ms >= s.drainReadyMs)
            markDown(i);
        if (s.state == InstanceState::WarmRestart &&
            now_ms >= s.probationEndMs)
            completeWarmRestart(i);
    }
}

void
InstanceSet::advanceTo(double now_ms)
{
    tick(now_ms);
    const auto scrubTo = [this](double t) {
        if (_hooks.scrub)
            _hooks.scrub(t);
    };
    if (_schedule) {
        const auto& lc = _schedule->lifecycleEvents();
        while (_lifecycleCursor < lc.size() &&
               lc[_lifecycleCursor].atMs <= now_ms) {
            const LifecycleEvent& e = lc[_lifecycleCursor++];
            const std::size_t i = e.instance;
            tick(e.atMs);
            InstanceSlot& s = _slots[i];
            if (e.kind == LifecycleEvent::Kind::Crash) {
                if (s.state == InstanceState::Up) {
                    beginDrain(i, e.atMs);
                    ++_crashes;
                } else if (s.state == InstanceState::WarmRestart) {
                    markDown(i);
                    ++_crashes;
                }
                s.scriptedDown = true;
            } else {
                s.scriptedDown = false;
                if (s.state == InstanceState::Draining)
                    markDown(i); // the outage outlived the drain
                if (s.state == InstanceState::Down)
                    beginWarmRestart(i, e.atMs);
            }
        }
        tick(now_ms);
        const auto& flips = _schedule->bitFlipEvents();
        while (_flipCursor < flips.size() &&
               flips[_flipCursor].atMs <= now_ms) {
            const BitFlipEvent& e = flips[_flipCursor++];
            scrubTo(e.atMs);
            if (_hooks.flip)
                _hooks.flip(e);
        }
    }
    scrubTo(now_ms);
}

double
InstanceSet::nextWakeMs() const
{
    double wake = std::numeric_limits<double>::max();
    for (const InstanceSlot& s : _slots) {
        if (s.state == InstanceState::Draining)
            wake = std::min(wake, s.drainReadyMs);
        if (s.state == InstanceState::WarmRestart)
            wake = std::min(wake, s.probationEndMs);
    }
    if (_schedule &&
        _lifecycleCursor < _schedule->lifecycleEvents().size()) {
        wake = std::min(
            wake, _schedule->lifecycleEvents()[_lifecycleCursor].atMs);
    }
    return wake;
}

} // namespace dlrmopt::serve
