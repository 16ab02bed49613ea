#include "serve/service_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/batching.hpp"

namespace dlrmopt::serve
{

ServiceModel
ServiceModel::fit(const std::vector<std::size_t>& batch_sizes,
                  const std::vector<double>& measured_ms)
{
    if (batch_sizes.empty() || batch_sizes.size() != measured_ms.size()) {
        throw std::invalid_argument(
            "ServiceModel::fit: need one measurement per batch size");
    }
    const double n = static_cast<double>(batch_sizes.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
        const double x = static_cast<double>(batch_sizes[i]);
        const double y = measured_ms[i];
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double det = n * sxx - sx * sx;
    double per = 0.0;
    double base = sy / n;
    if (det > 0.0) {
        per = (n * sxy - sx * sy) / det;
        base = (sy - per * sx) / n;
    }
    if (per < 0.0) {
        // Flat-or-noisy data: fall back to the mean as a constant.
        per = 0.0;
        base = sy / n;
    }
    if (base < 0.0) {
        // Pure per-sample cost: refit through the origin.
        base = 0.0;
        per = sxx > 0.0 ? sxy / sxx : 0.0;
    }
    ServiceModel m{base, per};
    m.validate();
    return m;
}

void
ServiceModel::validate() const
{
    if (!std::isfinite(baseMs) || !std::isfinite(perSampleMs) ||
        baseMs < 0.0 || perSampleMs < 0.0 ||
        !(baseMs + perSampleMs > 0.0)) {
        throw std::invalid_argument(
            "ServiceModel: need finite baseMs >= 0, perSampleMs >= 0 "
            "with a positive sum");
    }
}

ServiceTimeline::ServiceTimeline(const ServiceModel& constant_model)
{
    constant_model.validate();
    _segments.push_back({0.0, constant_model});
}

ServiceTimeline::ServiceTimeline(std::vector<Segment> segments)
    : _segments(std::move(segments))
{
    if (_segments.empty()) {
        throw std::invalid_argument(
            "ServiceTimeline: need at least one segment");
    }
    for (const Segment& s : _segments) {
        if (!(s.startMs >= 0.0) || !std::isfinite(s.startMs)) {
            throw std::invalid_argument(
                "ServiceTimeline: startMs must be finite and >= 0");
        }
        s.model.validate();
    }
    std::stable_sort(_segments.begin(), _segments.end(),
                     [](const Segment& a, const Segment& b) {
                         return a.startMs < b.startMs;
                     });
    // Truth must exist from t=0: the first regime covers the gap.
    _segments.front().startMs = 0.0;
}

const ServiceModel&
ServiceTimeline::at(double now_ms) const
{
    std::size_t i = 0;
    while (i + 1 < _segments.size() &&
           _segments[i + 1].startMs <= now_ms)
        ++i;
    return _segments[i].model;
}

ServiceModel
calibrateServiceModel(const core::DlrmModel& model,
                      const core::Tensor& dense,
                      const core::SparseBatch& batch,
                      const std::vector<std::size_t>& probe_sizes,
                      std::size_t reps)
{
    using Clock = std::chrono::steady_clock;
    if (probe_sizes.empty() || reps == 0) {
        throw std::invalid_argument(
            "calibrateServiceModel: need probe sizes and reps >= 1");
    }

    std::size_t max_probe = 1;
    for (std::size_t p : probe_sizes)
        max_probe = std::max(max_probe, std::min(p, batch.batchSize));
    std::size_t max_lookups = 1;
    for (const auto& v : batch.indices) {
        max_lookups = std::max<std::size_t>(
            max_lookups,
            (v.size() + batch.batchSize - 1) / batch.batchSize);
    }

    core::ForwardWorkspace ws;
    ws.reserve(model, max_probe, max_lookups);

    std::vector<std::size_t> sizes;
    std::vector<double> times;
    for (std::size_t p : probe_sizes) {
        const std::size_t n =
            std::max<std::size_t>(1, std::min(p, batch.batchSize));
        const core::SparseBatch probe = batch.truncated(n);
        core::Tensor d(n, dense.cols());
        std::memcpy(d.data(), dense.data(),
                    n * dense.cols() * sizeof(float));
        double best = std::numeric_limits<double>::max();
        for (std::size_t r = 0; r < reps; ++r) {
            const auto t0 = Clock::now();
            ws.forward(model, d, probe);
            best = std::min(
                best, std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count());
        }
        sizes.push_back(n);
        times.push_back(best);
    }
    return ServiceModel::fit(sizes, times);
}

} // namespace dlrmopt::serve
