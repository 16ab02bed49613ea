#include "core/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <tuple>

#include "core/tensor.hpp"

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

namespace
{

/** Best-of-repeats time of one packed dense-layer call. */
double
timePackedMs(const float *in, std::size_t batch, const PackedWeights& w,
             const float *bias, float *out, const GemmTile& tile,
             SimdLevel level, int repeats)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        denseLayerForwardPackedLevel(level, in, batch, w, bias, out,
                                     true, tile);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        best = std::min(best, ms);
    }
    return best;
}

/** Best-of-repeats time of one u8·s8 packed dense-layer call. */
double
timePackedInt8Ms(const std::uint8_t *qin, std::size_t batch,
                 const PackedWeightsInt8& w, const float *bias,
                 float *out, const GemmTile& tile, SimdLevel level,
                 int repeats)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        denseLayerForwardPackedInt8Level(level, qin, batch, w, bias,
                                         out, true, tile);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        best = std::min(best, ms);
    }
    return best;
}

} // namespace

std::vector<GemmTile>
defaultGemmTileGrid(std::size_t batch, std::size_t in_dim,
                    SimdLevel level)
{
    const std::size_t max_mr = gemmMaxRows(level);
    std::vector<std::size_t> mrs;
    for (std::size_t mr : {std::size_t(1), std::size_t(2),
                           std::size_t(4), max_mr}) {
        if (mr <= max_mr && mr <= std::max<std::size_t>(batch, 1))
            mrs.push_back(mr);
    }
    std::vector<std::size_t> kcs;
    for (std::size_t kc :
         {std::size_t(64), std::size_t(256), std::size_t(1024),
          in_dim}) {
        if (kc > 0 && kc <= std::max<std::size_t>(in_dim, 1))
            kcs.push_back(std::min(kc, std::max<std::size_t>(in_dim,
                                                             1)));
    }
    if (kcs.empty())
        kcs.push_back(std::max<std::size_t>(in_dim, 1));

    std::vector<GemmTile> grid;
    for (std::size_t mr : mrs)
        for (std::size_t kc : kcs)
            grid.push_back(GemmTile{mr, kc});
    // Make sure the dispatch default is always in the running.
    grid.push_back(defaultGemmTile(batch, in_dim, 0, level));

    std::sort(grid.begin(), grid.end(),
              [](const GemmTile& a, const GemmTile& b) {
                  return std::tie(a.mr, a.kc) < std::tie(b.mr, b.kc);
              });
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    return grid;
}

GemmTuneResult
tuneGemmTile(std::size_t batch, std::size_t in_dim, std::size_t out_dim,
             std::vector<GemmTile> candidates, int repeats,
             std::uint64_t seed, EmbDtype dtype)
{
    if (batch == 0 || out_dim == 0) {
        throw std::invalid_argument(
            "tuneGemmTile: batch and out_dim must be >= 1");
    }
    if (dtype == EmbDtype::Bf16) {
        throw std::invalid_argument(
            "tuneGemmTile: bf16 is an embedding-storage format; the "
            "MLPs run the fp32 engine for it — tune fp32 or int8");
    }
    const SimdLevel level = currentSimdLevel();
    if (candidates.empty()) {
        if (dtype == EmbDtype::Int8) {
            // The int8 driver keeps the full depth in registers (kc
            // is ignored), so candidates differ only in microtile
            // height; oversize mr is clamped by the driver.
            for (std::size_t mr : {std::size_t(1), std::size_t(2),
                                   std::size_t(4), std::size_t(6)}) {
                if (mr <= std::max<std::size_t>(batch, 1) || mr == 1)
                    candidates.push_back(
                        GemmTile{mr, std::max<std::size_t>(in_dim, 1)});
            }
            candidates.push_back(GemmTile{}); // driver default
        } else {
            candidates = defaultGemmTileGrid(batch, in_dim, level);
        }
    }
    repeats = std::max(repeats, 1);

    Tensor in(batch, std::max<std::size_t>(in_dim, 1));
    in.randomize(mix64(seed), 0.5f);
    Tensor weights(out_dim, std::max<std::size_t>(in_dim, 1));
    weights.randomize(mix64(seed + 1), 0.1f);
    std::vector<float> bias(out_dim, 0.01f);
    std::vector<float> out(batch * out_dim);
    const PackedWeights packed(weights.data(), in_dim, out_dim);

    GemmTuneResult res;
    res.batch = batch;
    res.inDim = in_dim;
    res.outDim = out_dim;
    res.level = level;
    res.dtype = dtype;

    // Warm caches once, then time the scalar blocked baseline the
    // packed engine replaced.
    denseLayerForward(in.data(), batch, in_dim, weights.data(),
                      bias.data(), out_dim, out.data(), true);
    {
        double best = 1e300;
        for (int r = 0; r < repeats; ++r) {
            const auto t0 = Clock::now();
            denseLayerForward(in.data(), batch, in_dim, weights.data(),
                              bias.data(), out_dim, out.data(), true);
            best = std::min(
                best, std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count());
        }
        res.baselineMs = best;
    }

    res.bestMs = 1e300;
    if (dtype == EmbDtype::Int8) {
        // Quantize once up front: the cost is per-dispatch in the real
        // forward, identical for every candidate tile.
        const PackedWeightsInt8 qpacked(weights.data(), in_dim,
                                        out_dim);
        std::vector<std::uint8_t> qin(batch *
                                      qpacked.activationStride());
        quantizeActivationsInt8(in.data(), batch, in_dim,
                                qpacked.activationStride(), qin.data());
        for (const GemmTile& tile : candidates) {
            const double ms = timePackedInt8Ms(
                qin.data(), batch, qpacked, bias.data(), out.data(),
                tile, level, repeats);
            res.measurements.push_back({tile, ms});
            if (ms < res.bestMs) {
                res.bestMs = ms;
                res.best = tile;
            }
        }
    } else {
        for (const GemmTile& tile : candidates) {
            const double ms =
                timePackedMs(in.data(), batch, packed, bias.data(),
                             out.data(), tile, level, repeats);
            res.measurements.push_back({tile, ms});
            if (ms < res.bestMs) {
                res.bestMs = ms;
                res.best = tile;
            }
        }
    }

    GemmTileCache::instance().install(batch, in_dim, out_dim, level,
                                      res.best, dtype);
    return res;
}

std::vector<GemmTuneResult>
tuneMlpGemm(const std::vector<std::size_t>& dims,
            std::vector<std::size_t> batches, int repeats,
            std::uint64_t seed, EmbDtype dtype)
{
    if (dims.size() < 2) {
        throw std::invalid_argument(
            "tuneMlpGemm: need at least input + one layer");
    }
    if (batches.empty()) {
        for (int b = 0; b < GemmTileCache::numBuckets; ++b)
            batches.push_back(GemmTileCache::bucketRepresentative(b));
    }
    std::vector<GemmTuneResult> results;
    for (const std::size_t m : batches) {
        for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
            results.push_back(tuneGemmTile(m, dims[l], dims[l + 1], {},
                                           repeats, seed + l, dtype));
        }
    }
    return results;
}

} // namespace dlrmopt::core
