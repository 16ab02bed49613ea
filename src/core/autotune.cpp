#include "core/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <tuple>

namespace dlrmopt::core
{

namespace
{

using Clock = std::chrono::steady_clock;

double
timeBagMs(const EmbeddingTable& table, const RowIndex *indices,
          const RowIndex *offsets, std::size_t samples,
          const PrefetchSpec& spec, int repeats,
          std::vector<float>& out)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        table.bag(indices, offsets, samples, out.data(), spec);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        best = std::min(best, ms);
    }
    return best;
}

} // namespace

std::vector<PrefetchSpec>
defaultTuneGrid(std::size_t row_lines)
{
    std::vector<PrefetchSpec> grid;
    const int full = static_cast<int>(row_lines);
    for (int dist : {1, 2, 4, 8, 16}) {
        for (int lines : {2, 4, full}) {
            if (lines <= full)
                grid.push_back(PrefetchSpec{dist, lines, 3});
        }
    }
    // Deduplicate (e.g. when full == 2 or 4).
    std::sort(grid.begin(), grid.end(),
              [](const PrefetchSpec& a, const PrefetchSpec& b) {
                  return std::tie(a.distance, a.lines, a.locality) <
                         std::tie(b.distance, b.lines, b.locality);
              });
    grid.erase(std::unique(grid.begin(), grid.end(),
                           [](const PrefetchSpec& a,
                              const PrefetchSpec& b) {
                               return a.distance == b.distance &&
                                      a.lines == b.lines &&
                                      a.locality == b.locality;
                           }),
               grid.end());
    return grid;
}

TuneResult
tunePrefetch(const EmbeddingTable& table, const RowIndex *indices,
             const RowIndex *offsets, std::size_t samples,
             std::vector<PrefetchSpec> candidates, int repeats)
{
    if (candidates.empty()) {
        const std::size_t row_lines =
            (table.dim() * sizeof(float) + 63) / 64;
        candidates = defaultTuneGrid(row_lines);
    }
    // User-supplied candidates must fail loudly, not silently tune a
    // disabled or hint-degraded spec.
    for (const PrefetchSpec& spec : candidates)
        spec.validate();
    repeats = std::max(repeats, 1);

    std::vector<float> out(samples * table.dim());

    TuneResult res;
    // Warm the table's hot rows once so every candidate sees the
    // same cache state, then measure the baseline.
    table.bag(indices, offsets, samples, out.data(), {});
    res.baselineMs = timeBagMs(table, indices, offsets, samples, {},
                               repeats, out);
    res.best = PrefetchSpec{};
    res.bestMs = res.baselineMs;

    for (const PrefetchSpec& spec : candidates) {
        const double ms = timeBagMs(table, indices, offsets, samples,
                                    spec, repeats, out);
        res.measurements.push_back({spec, ms});
        if (ms < res.bestMs) {
            res.bestMs = ms;
            res.best = spec;
        }
    }
    return res;
}

} // namespace dlrmopt::core
