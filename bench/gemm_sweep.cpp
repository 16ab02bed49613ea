/**
 * @file
 * Dense-layer GEMM sweep on real hardware: the packed register-blocked
 * microkernel engine vs the scalar blocked baseline it replaced,
 * over coalesced batch sizes m in {1, 4, 16, 64, 128} x the rm2_1/rm1
 * MLP layer shapes, at every SimdLevel the host supports.
 *
 * The "packed" column runs the tile every production forward runs
 * (GemmTile{}, the fixed blocking rule). The "kc=K" column runs the
 * same engine at full depth (no k-chunking), the one alternative the
 * rule is measured against; "K/rule" is its time over the rule's, so
 * a value above 1 means the rule is faster.
 *
 * Prints a GFLOP/s table with per-point speedups and emits
 * BENCH_gemm.json (machine-readable, one record per measured point)
 * into the working directory. Each point also cross-checks the packed
 * output against denseLayerForwardRef, and the full-depth output
 * against the packed one bitwise, and fails the run on divergence, so
 * the GemmSmoke ctest entry guards correctness as well as harness
 * rot. DLRMOPT_BENCH_QUICK=1 shrinks the grid, not the code paths.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/gemm.hpp"
#include "core/simd.hpp"
#include "core/tensor.hpp"

namespace
{

using namespace dlrmopt;
using Clock = std::chrono::steady_clock;

struct Shape
{
    std::size_t inDim;
    std::size_t outDim;
    const char *origin;
};

struct Point
{
    std::size_t m = 0;
    Shape shape{};
    core::SimdLevel level = core::SimdLevel::Scalar;
    double blockedMs = 0.0;
    double packedMs = 0.0;    //!< the fixed rule, GemmTile{}
    double fullDepthMs = 0.0; //!< GemmTile{0, inDim}: kc = K
    double maxAbsDiff = 0.0;  //!< packed vs denseLayerForwardRef
    bool fullDepthBitwise = true; //!< kc = K output == rule output

    double
    gflops(double ms) const
    {
        const double flops = 2.0 * static_cast<double>(m) *
                             static_cast<double>(shape.inDim) *
                             static_cast<double>(shape.outDim);
        return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
    }

    double
    speedup() const
    {
        return packedMs > 0.0 ? blockedMs / packedMs : 1.0;
    }
};

/** Best-of-reps wall time of @p fn, with enough inner iterations that
 *  one reading is well above clock granularity. */
template <typename Fn>
double
timeMs(Fn&& fn, double flops_per_call, int reps)
{
    const int iters = static_cast<int>(std::clamp(
        2e7 / std::max(flops_per_call, 1.0), 1.0, 20000.0));
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i)
            fn();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count() /
            iters;
        best = std::min(best, ms);
    }
    return best;
}

Point
measurePoint(std::size_t m, const Shape& shape, core::SimdLevel level,
             int reps)
{
    Point p;
    p.m = m;
    p.shape = shape;
    p.level = level;

    core::Tensor in(m, std::max<std::size_t>(shape.inDim, 1));
    in.randomize(mix64(7), 0.5f);
    core::Tensor w(shape.outDim, std::max<std::size_t>(shape.inDim, 1));
    w.randomize(mix64(8), 0.1f);
    std::vector<float> bias(shape.outDim, 0.01f);
    std::vector<float> out(m * shape.outDim);
    std::vector<float> full(m * shape.outDim);
    std::vector<float> ref(m * shape.outDim);
    const core::PackedWeights packed(w.data(), shape.inDim,
                                     shape.outDim);
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(shape.inDim) *
                         static_cast<double>(shape.outDim);

    p.blockedMs = timeMs(
        [&] {
            core::denseLayerForward(in.data(), m, shape.inDim,
                                    w.data(), bias.data(),
                                    shape.outDim, out.data(), true);
        },
        flops, reps);
    // Rule and full depth alternate per repetition, so drift on the
    // host lands on both columns alike.
    p.packedMs = p.fullDepthMs = 1e300;
    for (int r = 0; r < reps; ++r) {
        p.packedMs = std::min(
            p.packedMs,
            timeMs(
                [&] {
                    core::denseLayerForwardPackedLevel(
                        level, in.data(), m, packed, bias.data(),
                        out.data(), true);
                },
                flops, 1));
        p.fullDepthMs = std::min(
            p.fullDepthMs,
            timeMs(
                [&] {
                    core::denseLayerForwardPackedLevel(
                        level, in.data(), m, packed, bias.data(),
                        full.data(), true,
                        core::GemmTile{0, shape.inDim});
                },
                flops, 1));
    }
    p.fullDepthBitwise = full == out;

    core::denseLayerForwardRef(in.data(), m, shape.inDim, w.data(),
                               bias.data(), shape.outDim, ref.data(),
                               true);
    for (std::size_t i = 0; i < out.size(); ++i) {
        p.maxAbsDiff = std::max(
            p.maxAbsDiff,
            static_cast<double>(std::fabs(out[i] - ref[i])));
    }
    return p;
}

void
writeJson(const std::vector<Point>& points, const char *path)
{
    std::ofstream os(path);
    if (!os)
        return;
    os << "[\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"m\": %zu, \"in_dim\": %zu, \"out_dim\": %zu, "
            "\"origin\": \"%s\", \"level\": \"%s\", "
            "\"blocked_ms\": %.6f, \"packed_ms\": %.6f, "
            "\"full_depth_ms\": %.6f, "
            "\"blocked_gflops\": %.3f, \"packed_gflops\": %.3f, "
            "\"full_depth_gflops\": %.3f, "
            "\"speedup\": %.3f, \"max_abs_diff\": %.3g}%s\n",
            p.m, p.shape.inDim, p.shape.outDim, p.shape.origin,
            core::simdLevelName(p.level).c_str(), p.blockedMs,
            p.packedMs, p.fullDepthMs, p.gflops(p.blockedMs),
            p.gflops(p.packedMs), p.gflops(p.fullDepthMs),
            p.speedup(), p.maxAbsDiff,
            i + 1 < points.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    std::printf("\nwrote %s (%zu points)\n", path, points.size());
}

} // namespace

int
main()
{
    bench::printHeader(
        "GEMM sweep", "packed register-blocked engine vs blocked baseline",
        "m x layer-shape x SimdLevel on THIS host; speedup = blocked/packed");

    const bool quick = bench::quickMode();
    const std::vector<std::size_t> ms =
        quick ? std::vector<std::size_t>{1, 16}
              : std::vector<std::size_t>{1, 4, 16, 64, 128};
    std::vector<Shape> shapes = {
        {256, 128, "rm2_1 bottom"},  {128, 64, "rm2_1 top"},
        {2048, 2048, "rm1 bottom"},  {2048, 256, "rm1 bottom"},
        {768, 384, "rm1 top"},
    };
    if (quick)
        shapes = {{256, 128, "rm2_1 bottom"}, {768, 384, "rm1 top"}};
    const int reps = quick ? 2 : 5;

    std::vector<core::SimdLevel> levels{core::SimdLevel::Scalar};
    if (core::detectSimdLevel() >= core::SimdLevel::Avx2)
        levels.push_back(core::SimdLevel::Avx2);
    if (core::detectSimdLevel() >= core::SimdLevel::Avx512)
        levels.push_back(core::SimdLevel::Avx512);

    std::vector<Point> points;
    bool ok = true;
    for (const core::SimdLevel level : levels) {
        std::printf("\n-- %s (packed microtile up to %zu x %zu) --\n",
                    core::simdLevelName(level).c_str(),
                    core::gemmMaxRows(level),
                    core::PackedWeights::panelWidth);
        std::printf("    m   layer shape      origin          "
                    "blocked GF/s  packed GF/s  speedup  kc=K GF/s  "
                    "K/rule\n");
        for (const Shape& shape : shapes) {
            for (const std::size_t m : ms) {
                const Point p = measurePoint(m, shape, level, reps);
                std::printf("  %4zu  %5zu x %-6zu  %-14s  %12.2f  "
                            "%11.2f  %6.2fx  %9.2f  %6.3f\n",
                            p.m, p.shape.inDim, p.shape.outDim,
                            p.shape.origin, p.gflops(p.blockedMs),
                            p.gflops(p.packedMs), p.speedup(),
                            p.gflops(p.fullDepthMs),
                            p.fullDepthMs / p.packedMs);
                if (p.maxAbsDiff > 1e-3) {
                    std::printf("  ^^ FAIL: packed output diverges "
                                "from reference (max abs diff %g)\n",
                                p.maxAbsDiff);
                    ok = false;
                }
                if (!p.fullDepthBitwise) {
                    std::printf("  ^^ FAIL: kc = K output differs "
                                "from the rule's\n");
                    ok = false;
                }
                points.push_back(p);
            }
        }
    }

    writeJson(points, "BENCH_gemm.json");
    return ok ? 0 : 1;
}
