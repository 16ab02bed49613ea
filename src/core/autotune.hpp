/**
 * @file
 * Runtime auto-tuning: software-prefetch configuration for the
 * embedding stage, and register-blocking tiles for the packed dense
 * GEMM.
 *
 * Sec. 6.4 of the paper reports that the optimal prefetch amount is
 * platform-dependent (8 lines on SKL/CSL, 2 on ICL/SPR, 4 on Zen3)
 * and the optimal distance workload-dependent (Fig. 10b). tunePrefetch
 * measures the real embedding_bag kernel on the current host over a
 * candidate grid and returns the fastest spec — the deployment-time
 * counterpart of the paper's manual tuning.
 *
 * tuneGemmTile is the dense-stage analogue: the best (mr, kc) blocking
 * of the packed microkernel depends on the coalesced batch size m
 * (m = 1 is GEMV-shaped, batched m re-streams panels) and on the layer
 * shape, so it sweeps a tile grid per (m-bucket, layer-shape) point,
 * times the real kernel, and installs winners into the process-wide
 * GemmTileCache that Mlp forwards consult.
 */

#ifndef DLRMOPT_CORE_AUTOTUNE_HPP
#define DLRMOPT_CORE_AUTOTUNE_HPP

#include <cstdint>
#include <vector>

#include "core/embedding.hpp"
#include "core/gemm.hpp"

namespace dlrmopt::core
{

/** One measured candidate. */
struct TuneMeasurement
{
    PrefetchSpec spec;
    double millis = 0.0; //!< best-of-repeats kernel time
};

/** Outcome of a tuning run. */
struct TuneResult
{
    PrefetchSpec best;     //!< fastest spec ({} if baseline won)
    double baselineMs = 0.0;
    double bestMs = 0.0;
    std::vector<TuneMeasurement> measurements;

    /** Speedup of the winner over no software prefetching. */
    double
    speedup() const
    {
        return bestMs > 0.0 ? baselineMs / bestMs : 1.0;
    }
};

/**
 * Grid of candidate specs to try. The default grid crosses the
 * paper's distance sweep {1,2,4,8,16} with amounts {2,4,full-row}
 * at T0 locality.
 *
 * @param row_lines Cache lines per embedding row (dim / 16).
 */
std::vector<PrefetchSpec> defaultTuneGrid(std::size_t row_lines);

/**
 * Measures embedding_bag over @p candidates (plus the no-prefetch
 * baseline) on real hardware and returns the fastest.
 *
 * @param table Table to drive (should exceed the LLC for meaningful
 *        results).
 * @param indices Flat lookup indices (e.g. from a TraceGenerator).
 * @param offsets samples + 1 offsets.
 * @param samples Pooled-bag count.
 * @param candidates Specs to try; empty = defaultTuneGrid().
 * @param repeats Timed repetitions per candidate (best is kept).
 */
TuneResult tunePrefetch(const EmbeddingTable& table,
                        const RowIndex *indices,
                        const RowIndex *offsets, std::size_t samples,
                        std::vector<PrefetchSpec> candidates = {},
                        int repeats = 3);

/** One measured GEMM tile candidate. */
struct GemmTileMeasurement
{
    GemmTile tile;
    double millis = 0.0; //!< best-of-repeats packed-kernel time
};

/** Outcome of tuning one (batch, layer-shape) point. */
struct GemmTuneResult
{
    std::size_t batch = 0;  //!< coalesced batch size m tuned for
    std::size_t inDim = 0;
    std::size_t outDim = 0;
    SimdLevel level = SimdLevel::Scalar; //!< dispatch level tuned at
    EmbDtype dtype = EmbDtype::Fp32; //!< engine tuned (fp32 or u8·s8)
    GemmTile best;          //!< fastest tile (installed in the cache)
    double bestMs = 0.0;
    double baselineMs = 0.0; //!< scalar blocked denseLayerForward
    std::vector<GemmTileMeasurement> measurements;

    /** Speedup of the winning packed tile over the blocked baseline. */
    double
    speedup() const
    {
        return bestMs > 0.0 ? baselineMs / bestMs : 1.0;
    }
};

/**
 * Candidate (mr, kc) grid for one (batch, depth, level) point:
 * microtile heights up to gemmMaxRows(level) crossed with L1/L2-sized
 * k-chunks and the full depth, clamped to the shape and deduplicated.
 * Always contains defaultGemmTile's choice.
 */
std::vector<GemmTile> defaultGemmTileGrid(std::size_t batch,
                                          std::size_t in_dim,
                                          SimdLevel level);

/**
 * Measures the packed dense-layer kernel over @p candidates (plus the
 * scalar blocked baseline for the speedup column) on real hardware at
 * the current SimdLevel, installs the winner into
 * GemmTileCache::instance() for (bucketOf(batch), shape, level), and
 * returns every measurement.
 *
 * Deterministic pseudo-random weights/activations seeded by @p seed;
 * timing noise only affects which (numerically identical) tile wins.
 *
 * @param candidates Tiles to try; empty = defaultGemmTileGrid().
 * @param repeats Timed repetitions per candidate (best is kept).
 * @param dtype EmbDtype::Int8 tunes the u8·s8 packed engine instead:
 *        activations are pre-quantized once (quantization cost is
 *        per-dispatch, not per-tile) and candidates run through
 *        denseLayerForwardPackedInt8Level. The int8 driver keeps the
 *        full depth in registers, so only the microtile height mr
 *        distinguishes candidates; the default grid reflects that.
 *        baselineMs stays the *fp32* scalar blocked kernel, making
 *        speedup() the measured quantization win.
 *
 * @throws std::invalid_argument on batch/out_dim == 0 or on
 *         dtype == Bf16 (bf16 is an embedding-storage format; the
 *         MLPs run fp32 for it).
 */
GemmTuneResult tuneGemmTile(std::size_t batch, std::size_t in_dim,
                            std::size_t out_dim,
                            std::vector<GemmTile> candidates = {},
                            int repeats = 3, std::uint64_t seed = 1,
                            EmbDtype dtype = EmbDtype::Fp32);

/**
 * Tunes every layer shape of an MLP size list (e.g.
 * ModelConfig::bottomMlp or topMlpDims()) at each coalesced batch
 * size in @p batches (default: one representative per m-bucket),
 * installing all winners. Returns one GemmTuneResult per
 * (batch, layer) point, layers innermost.
 *
 * @param dtype EmbDtype::Int8 tunes the u8·s8 engine's cache slots
 *        instead. Only `dlrmopt gemmtune` calls this; the serving
 *        path runs whatever the cache holds, defaultGemmTile() on a
 *        miss.
 */
std::vector<GemmTuneResult> tuneMlpGemm(
    const std::vector<std::size_t>& dims,
    std::vector<std::size_t> batches = {}, int repeats = 3,
    std::uint64_t seed = 1, EmbDtype dtype = EmbDtype::Fp32);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_AUTOTUNE_HPP
