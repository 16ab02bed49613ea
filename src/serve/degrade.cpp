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
    // Precision speedups the ladder assumes when pricing runs off the
    // single base ServiceModel: bf16 bags halve the dominant
    // embedding-bandwidth term, int8 also accelerates the MLPs.
    constexpr double kBf16Speedup = 0.85;
    constexpr double kInt8Speedup = 0.75;

    DegradeState s;
    s.tier = tier;
    switch (tier) {
      case 0:
        break;
      case 1: // precision drops before any work is shed
        s.dtype = core::EmbDtype::Bf16;
        s.knobFactor = 1.0;
        break;
      case 2:
        s.dtype = core::EmbDtype::Int8;
        s.knobFactor = 1.0;
        break;
      case 3:
        s.dtype = core::EmbDtype::Int8;
        s.batchFraction = 0.5;
        s.knobFactor = 0.60;
        break;
      case 4:
        s.dtype = core::EmbDtype::Int8;
        s.batchFraction = 0.5;
        s.prefetchEnabled = false;
        s.knobFactor = 0.55;
        break;
      default: // tier 5 and anything beyond
        s.tier = 5;
        s.dtype = core::EmbDtype::Int8;
        s.batchFraction = 0.5;
        s.prefetchEnabled = false;
        s.knobFactor = 0.50;
        break;
    }
    const double dtype_speedup =
        s.dtype == core::EmbDtype::Bf16   ? kBf16Speedup
        : s.dtype == core::EmbDtype::Int8 ? kInt8Speedup
                                          : 1.0;
    s.serviceFactor = s.knobFactor * dtype_speedup;
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
