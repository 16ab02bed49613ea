/**
 * @file
 * Hot-tier serving cache bench on real hardware, four parts:
 *
 *  1. Bitwise identity: full DLRM forward with the tier attached vs
 *     detached at fp32 / bf16 / int8 — predictions AND the embedding
 *     stage output must match byte-for-byte (the tier is a placement
 *     optimization, never a numeric one). Any divergence FAILS the
 *     run.
 *
 *  2. Hit rate by hotness class: for each of High / Medium / Low the
 *     tier is warmed from measured batch hotness (AccessAccumulator
 *     replay + one promotion epoch), then real batches are served
 *     through the tiered embedding stage. The run FAILS unless the
 *     hit rate clears the per-class floor (High >= 75%, Medium
 *     >= 35%, Low >= 2% — measured values sit near 90 / 50 / 7%).
 *     Each cell also reports the mean and max wall time of its two
 *     epochs (the warm-up promotion and one closing the served
 *     window), measured inside the tier's exclusive section.
 *
 *  3. Per-request embedding-stage latency at High hotness: real
 *     wall-clock p50/p95 across requests, tier vs cold at the exact
 *     same configuration. The run FAILS unless p95 with the tier is
 *     strictly better than p95 without it.
 *
 *  4. Tiered vs cold embedding-bag sweep per dtype on a skewed
 *     single-table stream: latency and delivered GB/s with the hot
 *     set pinned, next to the cold gather, with a bitwise
 *     cross-check per point.
 *
 * Emits BENCH_cache.json (one record per measured point) into the
 * working directory. DLRMOPT_BENCH_QUICK=1 shrinks batch counts and
 * reps, not the code paths.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/hot_tier.hpp"
#include "core/model_config.hpp"
#include "core/tensor.hpp"
#include "trace/generator.hpp"
#include "trace/stats.hpp"

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

/** Nearest-rank-with-interpolation percentile of @p v (q in [0,1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
attachQuantized(core::DlrmModel& model, const core::ModelConfig& cfg,
                std::uint64_t seed, core::EmbDtype dtype)
{
    if (dtype == core::EmbDtype::Fp32)
        return;
    model.attachQuantizedStore(
        core::EmbeddingStore::create(cfg, seed, 256, dtype));
}

/**
 * Warms @p tier for hotness class @p h the way serving would have:
 * measure real generated batches into the trace-side accumulator,
 * replay the hottest rows into the admission counters, promote.
 * Returns the number of batches observed (the generator's batch ids
 * [0, n) are consumed; serve from @p n onward).
 */
std::size_t
warmTier(core::HotTierCache& tier, const traces::TraceGenerator& gen,
         std::size_t warm_batches)
{
    const auto& store = tier.coldStore();
    traces::AccessAccumulator acc(store->numTables(), store->rows());
    for (std::size_t b = 0; b < warm_batches; ++b)
        acc.observeBatch(gen.batch(b));
    for (const auto& [t, row] : acc.hottest(tier.capacityRows())) {
        tier.recordAccess(
            t, row, static_cast<std::uint32_t>(acc.count(t, row)));
    }
    tier.endEpoch();
    return warm_batches;
}

struct IdentityPoint
{
    core::EmbDtype dtype = core::EmbDtype::Fp32;
    bool predBitwise = false;
    bool embBitwise = false;
    double hitRate = 0.0; //!< tier hit rate while producing this
};

struct ClassPoint
{
    traces::Hotness hotness = traces::Hotness::High;
    core::EmbDtype dtype = core::EmbDtype::Fp32;
    double hitRate = 0.0;
    double floorRate = 0.0;
    std::size_t residentRows = 0;
    std::size_t capacityRows = 0;
    std::uint64_t epochs = 0;
    double epochMeanMs = 0.0; //!< wall time inside the exclusive lock
    double epochMaxMs = 0.0;

    bool pass() const { return hitRate >= floorRate; }
};

struct LatencyPoint
{
    double p50ColdMs = 0.0;
    double p95ColdMs = 0.0;
    double p50TierMs = 0.0;
    double p95TierMs = 0.0;
    double hitRate = 0.0;
    std::size_t requests = 0;

    double
    p95Speedup() const
    {
        return p95TierMs > 0.0 ? p95ColdMs / p95TierMs : 0.0;
    }
};

struct BagRow
{
    core::EmbDtype dtype = core::EmbDtype::Fp32;
    double coldMs = 0.0;
    double tierMs = 0.0;
    double storedBytes = 0.0; //!< bytes read+written per cold call
    double hitRate = 0.0;
    bool bitwise = false;

    double coldGBs() const
    {
        return coldMs > 0.0 ? storedBytes / (coldMs * 1e6) : 0.0;
    }
    double tierGBs() const
    {
        return tierMs > 0.0 ? storedBytes / (tierMs * 1e6) : 0.0;
    }
    double speedup() const
    {
        return tierMs > 0.0 ? coldMs / tierMs : 0.0;
    }
};

/** Part 1: full-forward bitwise identity, tier on vs off. */
IdentityPoint
measureIdentity(core::EmbDtype dtype, const core::ModelConfig& cfg,
                std::uint64_t seed, std::size_t budget_bytes,
                std::size_t batch_size, std::size_t batches)
{
    core::DlrmModel model(cfg, seed);
    attachQuantized(model, cfg, seed, dtype);

    core::HotTierConfig hc;
    hc.budgetBytes = budget_bytes;
    core::HotTierCache tier(model.sharedStoreFor(dtype), hc);

    traces::TraceConfig tc =
        traces::TraceConfig::forModel(cfg, traces::Hotness::High, seed);
    tc.batchSize = batch_size;
    const traces::TraceGenerator gen(tc);
    const std::size_t first = warmTier(tier, gen, 4);

    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();
    core::Tensor dense(batch_size, cfg.denseDim());
    dense.randomize(mix64(seed + 17));

    IdentityPoint p;
    p.dtype = dtype;
    p.predBitwise = true;
    p.embBitwise = true;
    const core::HotTierStats before = tier.stats();
    core::DlrmWorkspace with_tier, without;
    for (std::size_t b = 0; b < batches; ++b) {
        const core::SparseBatch sparse = gen.batch(first + b);
        model.forward(dense, sparse, with_tier, pf, dtype, &tier);
        model.forward(dense, sparse, without, pf, dtype, nullptr);
        if (std::memcmp(with_tier.pred.data(), without.pred.data(),
                        batch_size * sizeof(float)) != 0)
            p.predBitwise = false;
        if (std::memcmp(with_tier.embOut.data(), without.embOut.data(),
                        cfg.tables * batch_size * cfg.dim *
                            sizeof(float)) != 0)
            p.embBitwise = false;
    }
    const core::HotTierStats after = tier.stats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t total = hits + (after.misses - before.misses);
    p.hitRate = total ? static_cast<double>(hits) /
                            static_cast<double>(total)
                      : 0.0;
    return p;
}

/** Part 2: hit rate for one (hotness class, dtype) cell. */
ClassPoint
measureClass(traces::Hotness h, core::EmbDtype dtype,
             const core::ModelConfig& cfg, std::uint64_t seed,
             std::size_t budget_bytes, std::size_t batch_size,
             std::size_t warm_batches, std::size_t measure_batches,
             double floor_rate)
{
    core::DlrmModel model(cfg, seed);
    attachQuantized(model, cfg, seed, dtype);

    core::HotTierConfig hc;
    hc.budgetBytes = budget_bytes;
    // Offline replay already admits by measured count; letting the
    // tier fill to budget matches what a served session converges to
    // (the near-uniform Low class otherwise strands capacity on the
    // one-epoch warmup).
    hc.minAccesses = 1;
    core::HotTierCache tier(model.sharedStoreFor(dtype), hc);

    traces::TraceConfig tc = traces::TraceConfig::forModel(cfg, h, seed);
    tc.batchSize = batch_size;
    const traces::TraceGenerator gen(tc);
    const std::size_t first = warmTier(tier, gen, warm_batches);

    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();
    core::Tensor emb_out(cfg.tables, batch_size * cfg.dim);

    const core::HotTierStats before = tier.stats();
    for (std::size_t b = 0; b < measure_batches; ++b)
        model.embeddingForward(gen.batch(first + b), emb_out, pf,
                               dtype, &tier);
    const core::HotTierStats after = tier.stats();

    ClassPoint p;
    p.hotness = h;
    p.dtype = dtype;
    p.floorRate = floor_rate;
    p.residentRows = after.residentRows;
    p.capacityRows = after.capacityRows;
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t total = hits + (after.misses - before.misses);
    p.hitRate = total ? static_cast<double>(hits) /
                            static_cast<double>(total)
                      : 0.0;

    // Close the served window with the epoch serving would run next,
    // so the epoch cost covers counters from real bags too.
    tier.endEpoch();
    const core::HotTierStats closed = tier.stats();
    p.epochs = closed.epochs;
    p.epochMeanMs = closed.epochMeanMs();
    p.epochMaxMs = static_cast<double>(closed.epochMaxNs) / 1e6;
    return p;
}

/** Part 3: per-request wall-clock embedding latency at High hotness,
 *  tier vs cold over the identical request stream. */
LatencyPoint
measureLatency(const core::ModelConfig& cfg, std::uint64_t seed,
               std::size_t budget_bytes, std::size_t batch_size,
               std::size_t requests, int reps)
{
    core::DlrmModel model(cfg, seed);

    core::HotTierConfig hc;
    hc.budgetBytes = budget_bytes;
    core::HotTierCache tier(model.sharedStoreFor(core::EmbDtype::Fp32),
                            hc);

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        cfg, traces::Hotness::High, seed);
    tc.batchSize = batch_size;
    const traces::TraceGenerator gen(tc);
    const std::size_t first = warmTier(tier, gen, 6);

    std::vector<core::SparseBatch> stream;
    stream.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r)
        stream.push_back(gen.batch(first + r));

    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();
    core::Tensor emb_out(cfg.tables, batch_size * cfg.dim);

    // Per-request best-of-reps (the deterministic stream makes every
    // rep identical work, so min is the noise-free estimate), cold
    // and tiered interleaved so neither side owns a warmer cache.
    std::vector<double> cold(requests, 1e300), tiered(requests, 1e300);
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t r = 0; r < requests; ++r) {
            auto t0 = Clock::now();
            model.embeddingForward(stream[r], emb_out, pf,
                                   core::EmbDtype::Fp32, nullptr);
            cold[r] = std::min(
                cold[r], std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
            t0 = Clock::now();
            model.embeddingForward(stream[r], emb_out, pf,
                                   core::EmbDtype::Fp32, &tier);
            tiered[r] = std::min(
                tiered[r], std::chrono::duration<double, std::milli>(
                               Clock::now() - t0)
                               .count());
        }
    }

    LatencyPoint p;
    p.requests = requests;
    p.p50ColdMs = percentile(cold, 0.50);
    p.p95ColdMs = percentile(cold, 0.95);
    p.p50TierMs = percentile(tiered, 0.50);
    p.p95TierMs = percentile(tiered, 0.95);
    const core::HotTierStats st = tier.stats();
    p.hitRate = st.hitRate();
    return p;
}

/** Part 4: tiered vs cold single-table bag on a skewed stream. */
BagRow
measureBagRow(core::EmbDtype dtype, const core::ModelConfig& cfg,
              std::uint64_t seed, std::size_t hot_rows,
              std::size_t samples, std::size_t lookups, int reps)
{
    const auto store = core::EmbeddingStore::create(cfg, seed, 256, dtype);

    core::HotTierConfig hc;
    // Budget exactly the hot set (single-table sweep: the skewed
    // stream's hot rows all fit, the uniform tail falls through).
    const std::size_t stride =
        (store->table(0).storedRowBytes() + 63) / 64 * 64;
    hc.budgetBytes = hot_rows * stride;
    core::HotTierCache tier(store, hc);

    // Hot rows scattered across the whole table (coprime stride walk)
    // — real hot sets are not index-contiguous. Cold gathers touch
    // hot_rows distinct pages; the tier packs the same rows into a
    // contiguous line-aligned buffer.
    const auto hotRow = [&](std::size_t r) {
        return static_cast<RowIndex>((r * 104'729) % cfg.rows);
    };
    for (std::size_t r = 0; r < hot_rows; ++r) {
        tier.recordAccess(0, hotRow(r),
                          static_cast<std::uint32_t>(hot_rows - r + 2));
    }
    tier.endEpoch();

    // 90% of lookups land in the pinned hot set, 10% gather cold —
    // the High-class shape from Sec. 3.1.
    std::vector<RowIndex> indices;
    std::vector<RowIndex> offsets{0};
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t l = 0; l < lookups; ++l) {
            const std::uint64_t r = mix64(s * 7919 + l);
            indices.push_back(r % 10
                                  ? hotRow(r % hot_rows)
                                  : static_cast<RowIndex>(r % cfg.rows));
        }
        offsets.push_back(static_cast<RowIndex>(indices.size()));
    }
    std::vector<float> out(samples * cfg.dim);
    std::vector<float> ref(out.size());
    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();

    BagRow row;
    row.dtype = dtype;
    row.coldMs = timeMs(
        [&] {
            store->table(0).bag(indices.data(), offsets.data(),
                                samples, ref.data(), pf);
        },
        1, reps);
    row.tierMs = timeMs(
        [&] {
            tier.bag(0, indices.data(), offsets.data(), samples,
                     out.data(), pf);
        },
        1, reps);
    row.bitwise = std::memcmp(out.data(), ref.data(),
                              out.size() * sizeof(float)) == 0;

    const double rowBytes = static_cast<double>(
        store->table(0).storedRowBytes());
    row.storedBytes =
        static_cast<double>(indices.size()) * rowBytes +
        static_cast<double>(out.size()) * sizeof(float);
    const core::HotTierStats st = tier.stats();
    row.hitRate = st.hitRate();
    return row;
}

void
writeJson(const std::vector<IdentityPoint>& ids,
          const std::vector<ClassPoint>& classes,
          const LatencyPoint& lat, const std::vector<BagRow>& bags,
          const char *path)
{
    std::ofstream os(path);
    if (!os)
        return;
    os << "[\n";
    const std::size_t total = ids.size() + classes.size() + 1 +
                              bags.size();
    std::size_t n = 0;
    char buf[384];
    for (const IdentityPoint& p : ids) {
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"identity\", \"dtype\": \"%s\", "
            "\"pred_bitwise\": %s, \"emb_bitwise\": %s, "
            "\"hit_rate\": %.4f}%s\n",
            core::embDtypeName(p.dtype).c_str(),
            p.predBitwise ? "true" : "false",
            p.embBitwise ? "true" : "false", p.hitRate,
            ++n < total ? "," : "");
        os << buf;
    }
    for (const ClassPoint& p : classes) {
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"hit_rate\", \"hotness\": \"%s\", "
            "\"dtype\": \"%s\", \"hit_rate\": %.4f, \"floor\": %.2f, "
            "\"resident_rows\": %zu, \"capacity_rows\": %zu, "
            "\"epochs\": %llu, \"epoch_mean_ms\": %.6f, "
            "\"epoch_max_ms\": %.6f}%s\n",
            traces::hotnessName(p.hotness).c_str(),
            core::embDtypeName(p.dtype).c_str(), p.hitRate,
            p.floorRate, p.residentRows, p.capacityRows,
            static_cast<unsigned long long>(p.epochs), p.epochMeanMs,
            p.epochMaxMs, ++n < total ? "," : "");
        os << buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "  {\"kind\": \"latency\", \"hotness\": \"High\", "
        "\"requests\": %zu, \"p50_cold_ms\": %.6f, "
        "\"p95_cold_ms\": %.6f, \"p50_tier_ms\": %.6f, "
        "\"p95_tier_ms\": %.6f, \"p95_speedup\": %.3f, "
        "\"hit_rate\": %.4f}%s\n",
        lat.requests, lat.p50ColdMs, lat.p95ColdMs, lat.p50TierMs,
        lat.p95TierMs, lat.p95Speedup(), lat.hitRate,
        ++n < total ? "," : "");
    os << buf;
    for (const BagRow& p : bags) {
        std::snprintf(
            buf, sizeof(buf),
            "  {\"kind\": \"bag\", \"dtype\": \"%s\", "
            "\"cold_ms\": %.6f, \"tier_ms\": %.6f, "
            "\"cold_gbs\": %.3f, \"tier_gbs\": %.3f, "
            "\"speedup\": %.3f, \"hit_rate\": %.4f, "
            "\"bitwise\": %s}%s\n",
            core::embDtypeName(p.dtype).c_str(), p.coldMs, p.tierMs,
            p.coldGBs(), p.tierGBs(), p.speedup(), p.hitRate,
            p.bitwise ? "true" : "false", ++n < total ? "," : "");
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
        "Hot-tier serving cache",
        "pinned hot rows over the shared cold store: identity, hit "
        "rate, tail latency",
        "run fails unless predictions are bitwise-identical tier "
        "on/off, per-class hit rates clear their floors, and High-hot "
        "p95 is strictly better with the tier");

    const bool quick = bench::quickMode();
    const std::uint64_t seed = 1;
    const auto cfg =
        core::modelByName("rm2_1").scaledToFit(16.0 * (1u << 20));
    const std::size_t budget = 4u << 20;
    const std::size_t batch_size = 16;
    const int reps = quick ? 3 : 7;

    bool ok = true;

    // -- Part 1: bitwise identity, tier on vs off, every dtype ------
    std::printf("\n-- full forward, tier on vs off (%s, %zu MB "
                "embeddings, %.0f MB tier) --\n",
                cfg.name.c_str(),
                static_cast<std::size_t>(cfg.embeddingBytes()) >> 20,
                static_cast<double>(budget) / (1u << 20));
    std::printf("  dtype   predictions   emb stage   tier hit rate\n");
    std::vector<IdentityPoint> ids;
    for (const core::EmbDtype dtype :
         {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
          core::EmbDtype::Int8}) {
        ids.push_back(measureIdentity(dtype, cfg, seed, budget,
                                      batch_size, quick ? 4 : 12));
        const IdentityPoint& p = ids.back();
        std::printf("  %-5s   %-11s   %-9s   %10.1f%%\n",
                    core::embDtypeName(p.dtype).c_str(),
                    p.predBitwise ? "bitwise" : "DIVERGED",
                    p.embBitwise ? "bitwise" : "DIVERGED",
                    100.0 * p.hitRate);
        if (!p.predBitwise || !p.embBitwise) {
            std::printf("  ^^ FAIL: %s forward is not "
                        "bitwise-identical with the tier attached\n",
                        core::embDtypeName(p.dtype).c_str());
            ok = false;
        }
        if (p.hitRate <= 0.0) {
            std::printf("  ^^ FAIL: tier never hit — identity check "
                        "did not exercise the tiered path\n");
            ok = false;
        }
    }

    // -- Part 2: hit rate by hotness class x dtype ------------------
    const std::size_t warm_n = quick ? 6 : 8;
    const std::size_t measure_n = quick ? 8 : 16;
    struct Floor
    {
        traces::Hotness h;
        double rate;
    };
    const Floor floors[] = {{traces::Hotness::High, 0.75},
                            {traces::Hotness::Medium, 0.35},
                            {traces::Hotness::Low, 0.02}};
    std::printf("\n-- hit rate by hotness class (floors: High 75%% / "
                "Medium 35%% / Low 2%%) --\n");
    std::printf("  class    dtype    hit rate   floor   resident"
                "     epoch mean / max ms\n");
    std::vector<ClassPoint> classes;
    for (const Floor& f : floors) {
        for (const core::EmbDtype dtype :
             {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
              core::EmbDtype::Int8}) {
            classes.push_back(measureClass(
                f.h, dtype, cfg, seed, budget, batch_size, warm_n,
                measure_n, f.rate));
            const ClassPoint& p = classes.back();
            std::printf("  %-8s %-5s   %7.1f%%   %4.0f%%   %zu/%zu"
                        "   %.3f / %.3f\n",
                        traces::hotnessName(p.hotness).c_str(),
                        core::embDtypeName(p.dtype).c_str(),
                        100.0 * p.hitRate, 100.0 * p.floorRate,
                        p.residentRows, p.capacityRows, p.epochMeanMs,
                        p.epochMaxMs);
            if (!p.pass()) {
                std::printf("  ^^ FAIL: %s/%s hit rate %.1f%% is "
                            "under the %.0f%% floor\n",
                            traces::hotnessName(p.hotness).c_str(),
                            core::embDtypeName(p.dtype).c_str(),
                            100.0 * p.hitRate, 100.0 * p.floorRate);
                ok = false;
            }
        }
    }

    // -- Part 3: per-request p50/p95 at High hotness ----------------
    const LatencyPoint lat = measureLatency(
        cfg, seed, budget, batch_size, quick ? 32 : 64, reps);
    std::printf("\n-- embedding-stage latency, High hotness, %zu "
                "requests (tier hit %.1f%%) --\n",
                lat.requests, 100.0 * lat.hitRate);
    std::printf("            p50 ms      p95 ms\n");
    std::printf("  cold   %9.4f   %9.4f\n", lat.p50ColdMs,
                lat.p95ColdMs);
    std::printf("  tier   %9.4f   %9.4f   (p95 %.2fx)\n",
                lat.p50TierMs, lat.p95TierMs, lat.p95Speedup());
    if (!(lat.p95TierMs < lat.p95ColdMs)) {
        std::printf("FAIL: High-hot p95 %.4f ms with the tier is not "
                    "strictly better than %.4f ms without\n",
                    lat.p95TierMs, lat.p95ColdMs);
        ok = false;
    }

    // -- Part 4: tiered vs cold bag sweep per dtype -----------------
    core::ModelConfig bag_cfg = cfg;
    bag_cfg.tables = 1;
    bag_cfg.rows = quick ? 100'000 : 400'000;
    const std::size_t hot_rows = 2048;
    std::printf("\n-- single-table bag, %zu rows, hot set %zu pinned "
                "(90%% of lookups) --\n",
                bag_cfg.rows, hot_rows);
    std::printf("  dtype    cold ms    tier ms   cold GB/s   "
                "tier GB/s   speedup   bitwise\n");
    std::vector<BagRow> bags;
    for (const core::EmbDtype dtype :
         {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
          core::EmbDtype::Int8}) {
        bags.push_back(measureBagRow(dtype, bag_cfg, seed, hot_rows,
                                     64, 120, reps));
        const BagRow& p = bags.back();
        std::printf("  %-5s  %9.4f  %9.4f  %10.2f  %10.2f   "
                    "%6.2fx   %s\n",
                    core::embDtypeName(p.dtype).c_str(), p.coldMs,
                    p.tierMs, p.coldGBs(), p.tierGBs(), p.speedup(),
                    p.bitwise ? "yes" : "NO");
        if (!p.bitwise) {
            std::printf("  ^^ FAIL: %s tiered bag diverges bitwise "
                        "from the cold bag\n",
                        core::embDtypeName(p.dtype).c_str());
            ok = false;
        }
    }

    writeJson(ids, classes, lat, bags, "BENCH_cache.json");
    return ok ? 0 : 1;
}
