#include "serve/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dlrmopt::serve
{

namespace
{

void
checkTimestamp(double t, const char *what)
{
    if (!(t >= 0.0) || !std::isfinite(t)) {
        throw std::invalid_argument(
            std::string("FaultSchedule: ") + what +
            " timestamps must be finite and >= 0");
    }
}

} // namespace

FaultSchedule::FaultSchedule(std::vector<FaultPhase> phases,
                             std::vector<LifecycleEvent> lifecycle,
                             std::vector<BitFlipEvent> bitFlips)
    : _lifecycle(std::move(lifecycle)), _bitFlips(std::move(bitFlips))
{
    _phases.reserve(phases.size());
    for (const auto& p : phases) {
        checkTimestamp(p.startMs, "phase");
        if (p.instance < -1) {
            throw std::invalid_argument(
                "FaultSchedule: phase instance must be -1 (all) or an "
                "instance id");
        }
        // FaultInjector's ctor runs FaultConfig::validate().
        _phases.push_back(Phase{p.startMs, p.instance,
                                std::make_unique<FaultInjector>(p.config)});
    }
    for (const auto& e : _lifecycle)
        checkTimestamp(e.atMs, "lifecycle");
    for (const auto& e : _bitFlips)
        checkTimestamp(e.atMs, "bit-flip");

    std::stable_sort(_phases.begin(), _phases.end(),
                     [](const Phase& a, const Phase& b) {
                         return a.startMs < b.startMs;
                     });
    std::stable_sort(_lifecycle.begin(), _lifecycle.end(),
                     [](const LifecycleEvent& a, const LifecycleEvent& b) {
                         return a.atMs < b.atMs;
                     });
    std::stable_sort(_bitFlips.begin(), _bitFlips.end(),
                     [](const BitFlipEvent& a, const BitFlipEvent& b) {
                         return a.atMs < b.atMs;
                     });
}

void
FaultSchedule::validate(std::size_t instances) const
{
    for (const auto& p : _phases) {
        if (p.instance >= 0 &&
            static_cast<std::size_t>(p.instance) >= instances) {
            throw std::invalid_argument(
                "FaultSchedule: phase targets instance " +
                std::to_string(p.instance) + " of a " +
                std::to_string(instances) + "-instance cluster");
        }
    }
    // Each instance's lifecycle must alternate Crash, Recover, Crash,
    // ... — a doubly-crashed or spontaneously-recovering script is a
    // bug in the scenario, not a survivable fault.
    std::vector<char> down(instances, 0);
    for (const auto& e : _lifecycle) {
        if (e.instance >= instances) {
            throw std::invalid_argument(
                "FaultSchedule: lifecycle event targets instance " +
                std::to_string(e.instance) + " of a " +
                std::to_string(instances) + "-instance cluster");
        }
        if (e.kind == LifecycleEvent::Kind::Crash) {
            if (down[e.instance]) {
                throw std::invalid_argument(
                    "FaultSchedule: instance " +
                    std::to_string(e.instance) +
                    " crashes twice without recovering");
            }
            down[e.instance] = 1;
        } else {
            if (!down[e.instance]) {
                throw std::invalid_argument(
                    "FaultSchedule: instance " +
                    std::to_string(e.instance) +
                    " recovers without having crashed");
            }
            down[e.instance] = 0;
        }
    }
}

const FaultInjector *
FaultSchedule::injectorAt(double now_ms, std::size_t instance) const
{
    const Phase *best = nullptr;
    for (const auto& p : _phases) {
        if (p.startMs > now_ms)
            break; // ascending startMs
        if (p.instance >= 0 &&
            static_cast<std::size_t>(p.instance) != instance)
            continue;
        // Latest phase wins; an instance-specific phase beats a
        // global one starting at the same time.
        if (!best || p.startMs > best->startMs ||
            (p.startMs == best->startMs &&
             (best->instance < 0 || p.instance >= 0)))
            best = &p;
    }
    return best ? best->injector.get() : nullptr;
}

std::vector<FaultPhase>
FaultSchedule::phases() const
{
    std::vector<FaultPhase> out;
    for (const auto& p : _phases)
        out.push_back({p.startMs, p.instance, p.injector->config()});
    return out;
}

bool
FaultSchedule::corruptsStore() const
{
    if (!_bitFlips.empty())
        return true;
    for (const auto& p : _phases)
        if (p.injector->config().bitFlipRate > 0.0)
            return true;
    return false;
}

std::uint64_t
FaultSchedule::injectedTaskFaults() const
{
    std::uint64_t n = 0;
    for (const auto& p : _phases) {
        n += p.injector->injectedExceptions() +
             p.injector->injectedAllocFailures() +
             p.injector->injectedCorruptions() +
             p.injector->injectedBitFlips();
    }
    return n;
}

const std::vector<std::string>&
FaultSchedule::scenarioNames()
{
    static const std::vector<std::string> names = {
        "crash-storm", "rolling-corruption", "flapping-straggler"};
    return names;
}

FaultSchedule
FaultSchedule::chaosScenario(const std::string& name,
                             std::size_t instances, double session_ms,
                             std::uint64_t seed)
{
    if (instances < 2) {
        throw std::invalid_argument(
            "FaultSchedule::chaosScenario: chaos needs >= 2 instances "
            "(something must survive)");
    }
    if (!(session_ms > 0.0) || !std::isfinite(session_ms)) {
        throw std::invalid_argument(
            "FaultSchedule::chaosScenario: session_ms must be positive");
    }

    std::vector<FaultPhase> phases;
    std::vector<LifecycleEvent> lifecycle;
    std::vector<BitFlipEvent> flips;

    if (name == "crash-storm") {
        // A staggered wave of whole-instance crashes through the first
        // two thirds of the session; outages are serialized so the
        // survivors always form a quorum.
        const std::size_t waves = std::min<std::size_t>(instances, 4);
        for (std::size_t i = 0; i < waves; ++i) {
            const double crash =
                session_ms * (0.10 + 0.15 * static_cast<double>(i));
            const double recover = crash + session_ms * 0.12;
            lifecycle.push_back(
                {crash, i % instances, LifecycleEvent::Kind::Crash});
            lifecycle.push_back(
                {recover, i % instances, LifecycleEvent::Kind::Recover});
        }
    } else if (name == "rolling-corruption") {
        // One scripted early upset plus a mid-session regime where
        // every attempt may silently flip a stored bit; a clean phase
        // closes the corruption window.
        flips.push_back({session_ms * 0.08, 0, 3, 30});
        FaultConfig corrupting;
        corrupting.seed = seed + 11;
        corrupting.bitFlipRate = 0.05;
        phases.push_back({session_ms * 0.30, -1, corrupting});
        FaultConfig clean;
        clean.seed = seed + 12;
        phases.push_back({session_ms * 0.60, -1, clean});
    } else if (name == "flapping-straggler") {
        // Instance 0 flaps: every other eighth of the session it
        // turns into a throwing 8x straggler, then recovers.
        for (int k = 0; k < 8; ++k) {
            FaultConfig c;
            c.seed = seed + 20 + static_cast<std::uint64_t>(k);
            if (k % 2 == 0) {
                c.taskExceptionRate = 0.6;
                c.stragglerCore = 0;
                c.stragglerFactor = 8.0;
            }
            phases.push_back(
                {session_ms * (static_cast<double>(k) / 8.0), 0, c});
        }
    } else {
        throw std::invalid_argument(
            "FaultSchedule::chaosScenario: unknown scenario '" + name +
            "' (expected crash-storm, rolling-corruption, or "
            "flapping-straggler)");
    }

    return FaultSchedule(std::move(phases), std::move(lifecycle),
                         std::move(flips));
}

} // namespace dlrmopt::serve
