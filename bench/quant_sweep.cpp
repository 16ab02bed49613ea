/**
 * @file
 * Quantized-inference sweep on real hardware, two parts:
 *
 *  1. Embedding-bag bandwidth by storage dtype (fp32 / bf16 / int8)
 *     on a larger-than-LLC table. The bag kernel is memory-bound, so
 *     the figure of merit is *effective* GB/s: fp32-equivalent bytes
 *     delivered per second. Reduced-precision rows move fewer stored
 *     bytes for the same logical data, which is where the speedup
 *     comes from; the table also reports the honest stored-byte GB/s.
 *     The run FAILS (exit 1) unless bf16 reaches >= 1.5x and int8
 *     >= 2x the fp32 effective bandwidth — the ISSUE 8 acceptance
 *     floor — or unless each dtype's bag output matches its bagRef
 *     scalar mirror bitwise.
 *
 *  2. The u8·s8 packed GEMM engine vs the fp32 packed engine over the
 *     model zoo's MLP layer shapes x coalesced batch size m, with a
 *     per-point accuracy cross-check against denseLayerForwardRef.
 *     Each row also names the engine Mlp picks for that layer under
 *     int8 storage (u8·s8 only where the fp32 pack exceeds
 *     Mlp::kInt8MinPackBytes), so the table checks the rule.
 *
 *  3. Whole-model forwards at int8 embedding storage (rm1 and rm2_1,
 *     scaled to 64 MB of fp32 tables, batch 1/8/64): the same int8
 *     bags feeding the fp32 packed MLPs vs the dispatched forward
 *     (DlrmModel::forward at int8, which runs u8·s8 on the layers the
 *     rule picks). Each repetition times both back to back; the table
 *     gives the median and interquartile range over the repetitions.
 *     Per model it also reports what attaching the int8 store costs
 *     (it builds the u8·s8 packs) and the first int8 forward after
 *     it, which no longer builds anything.
 *
 * Emits BENCH_quant.json (one record per measured point) into the
 * working directory. DLRMOPT_BENCH_QUICK=1 shrinks the grid and the
 * bag table, not the code paths.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dlrm.hpp"
#include "core/embedding.hpp"
#include "core/embedding_store.hpp"
#include "core/gemm.hpp"
#include "core/mlp.hpp"
#include "core/quant.hpp"
#include "core/simd.hpp"
#include "core/sparse_input.hpp"
#include "core/tensor.hpp"

namespace
{

using namespace dlrmopt;
using Clock = std::chrono::steady_clock;

/** Best-of-reps wall time of one call to @p fn, in milliseconds. */
template <typename Fn>
double
timeMs(Fn&& fn, int iters, int reps)
{
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

struct BagPoint
{
    core::EmbDtype dtype = core::EmbDtype::Fp32;
    double ms = 0.0;
    double storedBytes = 0.0; //!< bytes actually read+written per call
    double logicalBytes = 0.0; //!< fp32-equivalent bytes per call
    bool bitwise = false;      //!< bag == bagRef scalar mirror

    double storedGBs() const
    {
        return ms > 0.0 ? storedBytes / (ms * 1e6) : 0.0;
    }
    double effectiveGBs() const
    {
        return ms > 0.0 ? logicalBytes / (ms * 1e6) : 0.0;
    }
};

struct GemmPoint
{
    std::size_t m = 0;
    std::size_t inDim = 0;
    std::size_t outDim = 0;
    const char *origin = "";
    double fp32Ms = 0.0;
    double int8Ms = 0.0;
    double maxAbsDiff = 0.0; //!< int8 output vs denseLayerForwardRef
    double refRange = 0.0;
    bool int8Layer = false;  //!< Mlp runs this shape u8·s8 under int8

    double
    gflops(double ms) const
    {
        const double flops = 2.0 * static_cast<double>(m) *
                             static_cast<double>(inDim) *
                             static_cast<double>(outDim);
        return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
    }

    double
    speedup() const
    {
        return int8Ms > 0.0 ? fp32Ms / int8Ms : 1.0;
    }
};

BagPoint
measureBag(core::EmbDtype dtype, std::size_t rows, std::size_t dim,
           std::size_t samples, std::size_t lookups, int reps)
{
    const core::EmbeddingTable table(rows, dim, 42, dtype);

    std::vector<RowIndex> indices;
    std::vector<RowIndex> offsets{0};
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t l = 0; l < lookups; ++l) {
            indices.push_back(static_cast<RowIndex>(
                mix64(s * 7919 + l) % rows));
        }
        offsets.push_back(static_cast<RowIndex>(indices.size()));
    }
    std::vector<float> out(samples * dim);
    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();

    BagPoint p;
    p.dtype = dtype;
    p.ms = timeMs(
        [&] {
            table.bag(indices.data(), offsets.data(), samples,
                      out.data(), pf);
        },
        1, reps);

    std::vector<float> ref(out.size());
    table.bagRef(indices.data(), offsets.data(), samples, ref.data());
    p.bitwise = std::memcmp(out.data(), ref.data(),
                            out.size() * sizeof(float)) == 0;

    const double rowBytes =
        static_cast<double>(table.bytes()) / static_cast<double>(rows);
    const double nlook = static_cast<double>(indices.size());
    const double outBytes =
        static_cast<double>(out.size()) * sizeof(float);
    p.storedBytes = nlook * rowBytes + outBytes;
    p.logicalBytes =
        nlook * static_cast<double>(dim) * sizeof(float) + outBytes;
    return p;
}

GemmPoint
measureGemm(std::size_t m, std::size_t in_dim, std::size_t out_dim,
            const char *origin, int reps)
{
    GemmPoint p;
    p.m = m;
    p.inDim = in_dim;
    p.outDim = out_dim;
    p.origin = origin;

    core::Tensor in(m, in_dim);
    in.randomize(mix64(7), 0.5f);
    core::Tensor w(out_dim, in_dim);
    w.randomize(mix64(8), 0.1f);
    std::vector<float> bias(out_dim, 0.01f);
    std::vector<float> out(m * out_dim);

    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(in_dim) *
                         static_cast<double>(out_dim);
    const int iters = static_cast<int>(
        std::clamp(2e7 / std::max(flops, 1.0), 1.0, 20000.0));

    const core::PackedWeights packed(w.data(), in_dim, out_dim);
    p.int8Layer = packed.bytes() > core::Mlp::kInt8MinPackBytes;
    p.fp32Ms = timeMs(
        [&] {
            core::denseLayerForwardPacked(in.data(), m, packed,
                                          bias.data(), out.data(),
                                          true);
        },
        iters, reps);

    const core::PackedWeightsInt8 qpacked(w.data(), in_dim, out_dim);
    std::vector<std::uint8_t> qin;
    // Steady-state serving re-quantizes each batch but reuses the
    // packed weights; time the whole int8 path including quantization.
    p.int8Ms = timeMs(
        [&] {
            core::denseLayerForwardInt8(in.data(), m, qpacked,
                                        bias.data(), out.data(), true,
                                        qin);
        },
        iters, reps);

    std::vector<float> ref(out.size());
    core::denseLayerForwardRef(in.data(), m, in_dim, w.data(),
                               bias.data(), out_dim, ref.data(), true);
    core::denseLayerForwardInt8(in.data(), m, qpacked, bias.data(),
                                out.data(), true, qin);
    for (std::size_t i = 0; i < out.size(); ++i) {
        p.maxAbsDiff = std::max(
            p.maxAbsDiff,
            static_cast<double>(std::fabs(out[i] - ref[i])));
        p.refRange = std::max(p.refRange,
                              static_cast<double>(std::fabs(ref[i])));
    }
    return p;
}

/** Median and quartiles of a sample (sorted copy, linear interpolation). */
struct Spread
{
    double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
        const double pos = q * static_cast<double>(v.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

struct ForwardPoint
{
    std::string model;
    std::size_t batch = 0;
    Spread fp32Mlp;    //!< ms per forward, int8 bags + fp32 packed MLPs
    Spread dispatched; //!< ms per forward, DlrmModel::forward at int8
};

/** One-off costs of bringing a model up at int8. */
struct SetupPoint
{
    std::string model;
    double attachMs = 0.0;      //!< attachQuantizedStore (pack build)
    std::size_t int8Bytes = 0;  //!< u8·s8 code bytes it built
    std::size_t firstBatch = 0;
    double firstMs = 0.0;       //!< first int8 forward after attach
};

core::SparseBatch
uniformBatch(const core::ModelConfig& cfg, std::size_t batch,
             std::uint64_t seed)
{
    core::SparseBatch b;
    b.batchSize = batch;
    b.indices.resize(cfg.tables);
    b.offsets.resize(cfg.tables);
    for (std::size_t t = 0; t < cfg.tables; ++t) {
        b.offsets[t].push_back(0);
        for (std::size_t s = 0; s < batch; ++s) {
            for (std::size_t l = 0; l < cfg.lookups; ++l) {
                b.indices[t].push_back(static_cast<RowIndex>(
                    mix64(seed + t * 1'000'003 + s * 7919 + l) %
                    cfg.rows));
            }
            b.offsets[t].push_back(
                static_cast<RowIndex>(b.indices[t].size()));
        }
    }
    return b;
}

/**
 * Times DlrmModel forwards at int8 storage: the int8 bags through the
 * fp32 MLPs, and the dispatched forward. Each repetition runs
 * @p iters forwards per side, cycling over a few distinct batches so
 * the bags do not replay one cached set. @p setup receives the attach
 * and first-forward times.
 */
std::vector<ForwardPoint>
measureForwards(const core::ModelConfig& full,
                const std::vector<std::size_t>& batches, int reps,
                SetupPoint& setup)
{
    const core::ModelConfig cfg = full.scaledToFit(64.0 * 1024 * 1024);
    core::DlrmModel model(cfg, 42);
    auto int8Store =
        core::EmbeddingStore::create(cfg, 42, 256, core::EmbDtype::Int8);
    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();
    constexpr std::size_t kBatches = 8;

    setup.model = cfg.name;
    auto t0 = Clock::now();
    model.attachQuantizedStore(std::move(int8Store));
    setup.attachMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    setup.int8Bytes = model.bottomMlp().int8PackedBytes() +
                      model.topMlp().int8PackedBytes();
    {
        setup.firstBatch = batches.front();
        const core::SparseBatch sparse =
            uniformBatch(cfg, setup.firstBatch, 99);
        core::Tensor dense(setup.firstBatch, cfg.denseDim());
        dense.randomize(mix64(99), 1.0f);
        core::DlrmWorkspace ws;
        t0 = Clock::now();
        model.forward(dense, sparse, ws, pf, core::EmbDtype::Int8);
        setup.firstMs =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
    }

    std::vector<ForwardPoint> points;
    for (const std::size_t batch : batches) {
        std::vector<core::SparseBatch> sparse;
        std::vector<core::Tensor> dense;
        for (std::size_t i = 0; i < kBatches; ++i) {
            sparse.push_back(uniformBatch(cfg, batch, 1000 * i + batch));
            dense.emplace_back(batch, cfg.denseDim());
            dense.back().randomize(mix64(17 + i), 1.0f);
        }
        core::DlrmWorkspace ws;
        const auto fp32Mlp = [&](std::size_t i) {
            model.bottomForward(dense[i], ws.bottomOut,
                                core::EmbDtype::Fp32);
            model.embeddingForward(sparse[i], ws.embOut, pf,
                                   core::EmbDtype::Int8);
            model.interactionForward(ws.bottomOut, ws.embOut, batch,
                                     ws.interOut);
            model.topForward(ws.interOut, ws.pred, core::EmbDtype::Fp32);
        };
        const auto dispatched = [&](std::size_t i) {
            model.forward(dense[i], sparse[i], ws, pf,
                          core::EmbDtype::Int8);
        };
        // ~20 ms of work per side per repetition.
        t0 = Clock::now();
        for (std::size_t i = 0; i < kBatches; ++i)
            fp32Mlp(i);
        const double warmMs =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count() /
            kBatches;
        const int iters = static_cast<int>(
            std::clamp(20.0 / std::max(warmMs, 1e-3), 8.0, 2000.0));

        std::vector<double> a, b;
        for (int r = 0; r < reps; ++r) {
            a.push_back(timeMs(
                [&, n = std::size_t{0}]() mutable {
                    fp32Mlp(n++ % kBatches);
                },
                iters, 1));
            b.push_back(timeMs(
                [&, n = std::size_t{0}]() mutable {
                    dispatched(n++ % kBatches);
                },
                iters, 1));
        }
        points.push_back({cfg.name, batch, spreadOf(a), spreadOf(b)});
    }
    return points;
}

void
writeJson(const std::vector<BagPoint>& bags,
          const std::vector<GemmPoint>& gemms,
          const std::vector<ForwardPoint>& forwards, const char *path)
{
    std::ofstream os(path);
    if (!os)
        return;
    os << "[\n";
    const std::size_t total = bags.size() + gemms.size() + forwards.size();
    std::size_t n = 0;
    for (const BagPoint& p : bags) {
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"bag\", \"dtype\": \"%s\", "
            "\"ms\": %.6f, \"stored_gbs\": %.3f, "
            "\"effective_gbs\": %.3f, \"bitwise\": %s}%s\n",
            core::embDtypeName(p.dtype).c_str(), p.ms, p.storedGBs(),
            p.effectiveGBs(), p.bitwise ? "true" : "false",
            ++n < total ? "," : "");
        os << buf;
    }
    for (const GemmPoint& p : gemms) {
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"gemm\", \"m\": %zu, \"in_dim\": %zu, "
            "\"out_dim\": %zu, \"origin\": \"%s\", "
            "\"fp32_gflops\": %.3f, \"int8_gflops\": %.3f, "
            "\"speedup\": %.3f, \"max_abs_diff\": %.3g, "
            "\"int8_layer\": %s}%s\n",
            p.m, p.inDim, p.outDim, p.origin, p.gflops(p.fp32Ms),
            p.gflops(p.int8Ms), p.speedup(), p.maxAbsDiff,
            p.int8Layer ? "true" : "false",
            ++n < total ? "," : "");
        os << buf;
    }
    for (const ForwardPoint& p : forwards) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"forward\", \"model\": \"%s\", "
            "\"batch\": %zu, \"fp32_mlp_ms\": [%.5f, %.5f, %.5f], "
            "\"dispatched_ms\": [%.5f, %.5f, %.5f]}%s\n",
            p.model.c_str(), p.batch, p.fp32Mlp.q1, p.fp32Mlp.median,
            p.fp32Mlp.q3, p.dispatched.q1, p.dispatched.median,
            p.dispatched.q3,
            ++n < total ? "," : "");
        os << buf;
    }
    os << "]\n";
    std::printf("\nwrote %s (%zu points)\n", path, total);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Quantized-inference sweep",
        "bf16/int8 embedding bags and the u8·s8 packed GEMM vs fp32",
        "bag figure of merit: effective GB/s (fp32-equivalent bytes); "
        "run fails unless bf16 >= 1.5x and int8 >= 2x fp32");

    const bool quick = bench::quickMode();
    // Capacity-fit regime, where precision moves the working set
    // across level boundaries: 20k rows x dim 128 is 10 MB at fp32
    // (spills a desktop L2 and its share of a sliced LLC, and at
    // 4 KiB pages overflows the second-level TLB), 5 MB at bf16 and
    // 2.7 MB at int8 (cache- and TLB-resident). This is precisely the
    // table-shard-per-core sizing the paper's SNC partitioning aims
    // for, and where quantized storage pays the most.
    const std::size_t rows = 20'000;
    const std::size_t dim = 128;
    const std::size_t samples = 64;
    const std::size_t lookups = 120;
    const int reps = quick ? 3 : 7;
    const int fwdReps = quick ? 3 : 15;

    bool ok = true;

    std::printf("\n-- embedding bags: %zu rows x dim %zu, %zu samples "
                "x %zu lookups, %s --\n",
                rows, dim, samples, lookups,
                core::simdLevelName(core::currentSimdLevel()).c_str());
    std::printf("  dtype       ms/call   stored GB/s   effective GB/s"
                "   vs fp32   bitwise\n");
    std::vector<BagPoint> bags;
    for (const core::EmbDtype dtype :
         {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
          core::EmbDtype::Int8}) {
        bags.push_back(
            measureBag(dtype, rows, dim, samples, lookups, reps));
        const BagPoint& p = bags.back();
        const double ratio = bags[0].effectiveGBs() > 0.0
                                 ? p.effectiveGBs() /
                                       bags[0].effectiveGBs()
                                 : 0.0;
        std::printf("  %-5s  %10.3f  %12.2f  %15.2f  %7.2fx   %s\n",
                    core::embDtypeName(p.dtype).c_str(), p.ms,
                    p.storedGBs(), p.effectiveGBs(), ratio,
                    p.bitwise ? "yes" : "NO");
        if (!p.bitwise) {
            std::printf("  ^^ FAIL: %s bag diverges bitwise from its "
                        "bagRef scalar mirror\n",
                        core::embDtypeName(p.dtype).c_str());
            ok = false;
        }
    }
    const double fp32Eff = bags[0].effectiveGBs();
    const double bf16Ratio =
        fp32Eff > 0.0 ? bags[1].effectiveGBs() / fp32Eff : 0.0;
    const double int8Ratio =
        fp32Eff > 0.0 ? bags[2].effectiveGBs() / fp32Eff : 0.0;
    if (bf16Ratio < 1.5) {
        std::printf("FAIL: bf16 effective bandwidth %.2fx fp32, "
                    "acceptance floor is 1.5x\n",
                    bf16Ratio);
        ok = false;
    }
    if (int8Ratio < 2.0) {
        std::printf("FAIL: int8 effective bandwidth %.2fx fp32, "
                    "acceptance floor is 2x\n",
                    int8Ratio);
        ok = false;
    }

    std::vector<std::size_t> ms_grid =
        quick ? std::vector<std::size_t>{1, 16}
              : std::vector<std::size_t>{1, 4, 16, 64, 128};
    struct Shape
    {
        std::size_t inDim, outDim;
        const char *origin;
    };
    std::vector<Shape> shapes = {
        {256, 128, "rm2_1 bottom"},
        {128, 64, "rm2_1 top"},
        {2048, 2048, "rm1 bottom"},
        {2048, 256, "rm1 bottom"},
        {768, 384, "rm1 top"},
        {2048, 1024, "rm2_3 bottom"},
        {1024, 512, "rm2_2 bottom"},
    };
    if (quick)
        shapes = {{256, 128, "rm2_1 bottom"}, {768, 384, "rm1 top"}};

    std::printf("\n-- u8·s8 packed GEMM vs fp32 packed engine "
                "(quantize included in the int8 time) --\n");
    std::printf("    m   layer shape      origin          "
                "fp32 GF/s   int8 GF/s  speedup  int8 storage runs\n");
    std::vector<GemmPoint> gemms;
    for (const Shape& s : shapes) {
        for (const std::size_t m : ms_grid) {
            gemms.push_back(
                measureGemm(m, s.inDim, s.outDim, s.origin, reps));
            const GemmPoint& p = gemms.back();
            std::printf("  %4zu  %5zu x %-6zu  %-14s  %9.2f  "
                        "%10.2f  %6.2fx  %s\n",
                        p.m, p.inDim, p.outDim, p.origin,
                        p.gflops(p.fp32Ms), p.gflops(p.int8Ms),
                        p.speedup(), p.int8Layer ? "u8·s8" : "fp32");
            // int8 is an approximation by design; fail only when the
            // error leaves the quantization-noise regime.
            if (p.maxAbsDiff > std::max(1.0, p.refRange) * 0.05) {
                std::printf("  ^^ FAIL: int8 output diverges from the "
                            "fp32 reference (max abs diff %g, "
                            "ref range %g)\n",
                            p.maxAbsDiff, p.refRange);
                ok = false;
            }
        }
    }

    std::printf("\n-- whole-model forward at int8 storage: fp32 MLP vs "
                "dispatched (ms/forward, median [q1, q3] over %d reps) "
                "--\n",
                fwdReps);
    std::printf("  model         batch   fp32 MLP                    "
                "dispatched                  speedup\n");
    std::vector<ForwardPoint> forwards;
    std::vector<SetupPoint> setups;
    for (const core::ModelConfig& m : {core::rm1(), core::rm2_1()}) {
        setups.emplace_back();
        for (const ForwardPoint& p :
             measureForwards(m, {1, 8, 64}, fwdReps, setups.back())) {
            forwards.push_back(p);
            std::printf("  %-12s  %5zu  %8.4f [%8.4f, %8.4f]  "
                        "%8.4f [%8.4f, %8.4f]  %6.2fx\n",
                        p.model.c_str(), p.batch, p.fp32Mlp.median,
                        p.fp32Mlp.q1, p.fp32Mlp.q3, p.dispatched.median,
                        p.dispatched.q1, p.dispatched.q3,
                        p.fp32Mlp.median / p.dispatched.median);
        }
    }
    std::printf("\n-- int8 bring-up: attaching the int8 store builds the "
                "u8·s8 packs --\n");
    for (const SetupPoint& p : setups) {
        std::printf("  %-12s  attach %8.2f ms (%zu u8·s8 code bytes)  "
                    "first int8 forward (batch %zu) %8.3f ms\n",
                    p.model.c_str(), p.attachMs, p.int8Bytes,
                    p.firstBatch, p.firstMs);
    }

    writeJson(bags, gemms, forwards, "BENCH_quant.json");
    return ok ? 0 : 1;
}
