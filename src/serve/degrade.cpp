#include "serve/degrade.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlrmopt::serve
{

WindowedP95::WindowedP95(std::size_t window) : _window(window)
{
    if (window == 0)
        throw std::invalid_argument("WindowedP95: window must be >= 1");
    _buf.reserve(window);
}

void
WindowedP95::add(double latency_ms)
{
    if (_buf.size() < _window) {
        _buf.push_back(latency_ms);
        return;
    }
    _buf[_next] = latency_ms;
    _next = (_next + 1) % _window;
}

double
WindowedP95::p95() const
{
    if (_buf.empty())
        return 0.0;
    std::vector<double> scratch = _buf;
    // Nearest-rank p95, matching LatencyStats::percentile.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.95 * static_cast<double>(scratch.size())));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(k),
                     scratch.end());
    return scratch[k];
}

DegradeState
DegradationPolicy::stateForTier(int tier)
{
    DegradeState s;
    s.tier = std::clamp(tier, 0, maxTier());
    // Precision drops before any work is shed.
    if (s.tier >= 1)
        s.dtype = core::EmbDtype::Bf16;
    if (s.tier >= 2)
        s.dtype = core::EmbDtype::Int8;
    if (s.tier >= 3)
        s.batchFraction = 0.5;
    if (s.tier >= 4)
        s.prefetchEnabled = false;
    return s;
}

DegradationPolicy::DegradationPolicy(const DegradeConfig& cfg,
                                     double sla_ms)
    : _cfg(cfg), _slaMs(sla_ms), _win(cfg.window)
{
    if (!(sla_ms > 0.0))
        throw std::invalid_argument(
            "DegradationPolicy: SLA must be positive");
    if (!(cfg.lowFraction < cfg.highFraction))
        throw std::invalid_argument(
            "DegradationPolicy: lowFraction must be < highFraction");
}

void
DegradationPolicy::observe(double latency_ms)
{
    _win.add(latency_ms);
    if (!_cfg.enabled)
        return;
    ++_sinceChange;

    const double p95 = _win.p95();
    if (p95 < _cfg.lowFraction * _slaMs)
        ++_calmStreak;
    else
        _calmStreak = 0;

    // Hysteresis: act only after a full cooldown since the last tier
    // change, and require the window to have real content.
    if (_sinceChange < _cfg.cooldown || _win.count() < _cfg.window / 2)
        return;

    if (p95 > _cfg.highFraction * _slaMs && _tier < maxTier()) {
        ++_tier;
        ++_escalations;
        _sinceChange = 0;
        _calmStreak = 0;
    } else if (_calmStreak >= _cfg.cooldown && _tier > 0) {
        --_tier;
        _sinceChange = 0;
        _calmStreak = 0;
    }
}

} // namespace dlrmopt::serve
