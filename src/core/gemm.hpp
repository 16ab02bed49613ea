/**
 * @file
 * Dense (fully-connected) layer kernels.
 *
 * The bottom- and top-MLP stages of DLRM are back-to-back dense layers
 * (Sec. 2.1 of the paper). Two implementations coexist:
 *
 *  - denseLayerForward: the portable cache-blocked kernel over the
 *    PyTorch nn.Linear weight layout (out_dim x in_dim, row-major).
 *    Scalar inner loop; kept as the baseline the packed engine is
 *    benchmarked and regression-tested against.
 *
 *  - denseLayerForwardPacked: a register-blocked SIMD microkernel
 *    engine over weights prepacked into k-major panels of
 *    PackedWeights::panelWidth output neurons (the pack layout JIT
 *    GEMM libraries use for DLRM MLPs). The microkernel broadcasts
 *    one activation, loads one panel row, and FMA-accumulates
 *    MR x panelWidth outputs held in registers; bias and ReLU are
 *    fused into the final accumulate store (no separate init or ReLU
 *    pass). Dispatches on SimdLevel: 6x16 on AVX-512, 4x16 (two ymm
 *    per row) on AVX2, and a bitwise scalar mirror.
 *
 * Every output element's value is a single fmaf chain over k in
 * ascending order, finished by "+ bias" and the branchless ReLU
 * "acc > 0 ? acc : 0". That chain is identical in all three ISA
 * variants, for every tile shape (mr/kc), and for every position of a
 * sample inside the batch, so packed results are *bitwise* invariant
 * across SimdLevels, tile choices, and request coalescing — only the
 * kernel vs. the reference differ (by float rounding, tolerance-
 * tested).
 */

#ifndef DLRMOPT_CORE_GEMM_HPP
#define DLRMOPT_CORE_GEMM_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/quant.hpp"
#include "core/simd.hpp"
#include "core/types.hpp"

namespace dlrmopt::core
{

/**
 * Computes one dense layer: out = act(in * W^T + b).
 *
 * Degenerate shapes are well-defined: batch == 0 or out_dim == 0 is a
 * no-op (out is never touched — no bias-init pass runs), and
 * in_dim == 0 reduces to the epilogue (bias, then optional ReLU).
 *
 * @param in Input activations, row-major [batch x in_dim].
 * @param batch Number of samples in the batch.
 * @param in_dim Input feature dimension.
 * @param weights Weight matrix, row-major [out_dim x in_dim].
 * @param bias Bias vector of length out_dim, or nullptr for no bias.
 * @param out_dim Output feature dimension.
 * @param out Output activations, row-major [batch x out_dim].
 * @param relu Apply ReLU when true (hidden layers); identity when
 *             false (final layer before the sigmoid).
 */
void denseLayerForward(const float *in, std::size_t batch,
                       std::size_t in_dim, const float *weights,
                       const float *bias, std::size_t out_dim, float *out,
                       bool relu);

/**
 * Reference (naive triple loop, double accumulator) implementation of
 * denseLayerForward, used by the test suite to validate both the
 * blocked baseline and the packed microkernel engine.
 */
void denseLayerForwardRef(const float *in, std::size_t batch,
                          std::size_t in_dim, const float *weights,
                          const float *bias, std::size_t out_dim,
                          float *out, bool relu);

/**
 * One-time panel-packed copy of a dense layer's weight matrix.
 *
 * The nn.Linear layout [out_dim x in_dim] is repacked into panels of
 * panelWidth consecutive output neurons, k-major within the panel:
 *
 *   panel(p)[k * panelWidth + j] == weights[(p*panelWidth + j)*in_dim + k]
 *
 * so the microkernel streams one contiguous panel row (a full vector
 * of 16 neighboring outputs' weights for one k) per FMA step. The
 * last panel is zero-padded to panelWidth — padded columns accumulate
 * exact zeros and are never stored.
 *
 * The panel width is fixed (not SimdLevel-dependent), so one packed
 * copy serves the AVX-512, AVX2, and scalar kernels alike; packs are
 * built once at model construction and shared read-only by every
 * forward.
 */
class PackedWeights
{
  public:
    /** Output neurons per packed panel (one AVX-512 vector). */
    static constexpr std::size_t panelWidth = 16;

    /** Creates an empty pack (inDim() == outDim() == 0). */
    PackedWeights() = default;

    /**
     * Packs @p weights (row-major [out_dim x in_dim]).
     *
     * @throws std::invalid_argument when weights is null but the
     *         shape is non-empty.
     */
    PackedWeights(const float *weights, std::size_t in_dim,
                  std::size_t out_dim);

    std::size_t inDim() const { return _inDim; }
    std::size_t outDim() const { return _outDim; }
    bool empty() const { return _outDim == 0; }

    /** Number of panels: ceil(outDim / panelWidth). */
    std::size_t
    numPanels() const
    {
        return (_outDim + panelWidth - 1) / panelWidth;
    }

    /** Packed panel @p p: [inDim x panelWidth], k-major, 64B-aligned. */
    const float *
    panel(std::size_t p) const
    {
        return _data.data() + p * _inDim * panelWidth;
    }

    /** Bytes of packed storage (includes tail-panel padding). */
    std::size_t bytes() const { return _data.size() * sizeof(float); }

  private:
    std::size_t _inDim = 0;
    std::size_t _outDim = 0;
    std::vector<float, AlignedAllocator<float>> _data;
};

/**
 * One-time int8-quantized panel-packed copy of a dense layer's weight
 * matrix, for the u8·s8 dot-product microkernel path.
 *
 * Weights are quantized symmetrically per output column:
 * W[j][k] ≈ qw[j][k] * scaleW[j], qw in [-127, 127]. Codes are packed
 * into panels of panelWidth output neurons like PackedWeights, but
 * k-quad-interleaved so one 64-byte panel row holds 16 columns x 4
 * consecutive k codes — one vpdpbusd step on AVX512-VNNI, two
 * maddubs+madd steps on AVX2:
 *
 *   panel(p)[kq * 64 + j * 4 + (k & 3)] == qw[p*16 + j][k],  kq = k/4
 *
 * with the depth zero-padded to a multiple of 4 (paddedK()) and the
 * tail panel zero-padded to panelWidth — zero codes contribute exact
 * zeros.
 *
 * The epilogue constants are precomputed per column:
 *  - colScale()[j] = scaleW[j] (dequant factor for the s32 dot), and
 *  - colWsum()[j] = scaleW[j] * sum_k qw[j][k], which folds the
 *    activation zero-point out of the integer loop: with a sample
 *    row's activations A[k] ≈ qa[k] * sa + amin,
 *
 *      sum_k A[k] W[j][k] ≈ (sa * scaleW[j]) * dot_s32 + amin * colWsum[j]
 *
 *    so the float epilogue is one fma per output on top of bias+ReLU.
 */
class PackedWeightsInt8
{
  public:
    /** Output neurons per packed panel (one AVX-512 epilogue vector). */
    static constexpr std::size_t panelWidth = 16;

    /** Creates an empty pack (inDim() == outDim() == 0). */
    PackedWeightsInt8() = default;

    /**
     * Quantizes and packs @p weights (row-major [out_dim x in_dim]).
     *
     * @throws std::invalid_argument when weights is null but the
     *         shape is non-empty.
     */
    PackedWeightsInt8(const float *weights, std::size_t in_dim,
                      std::size_t out_dim);

    std::size_t inDim() const { return _inDim; }
    std::size_t outDim() const { return _outDim; }
    bool empty() const { return _outDim == 0; }

    /** Depth rounded up to a multiple of 4 (the k-quad granularity). */
    std::size_t paddedK() const { return _paddedK; }

    /** Bytes of one quantized activation row for this layer: paddedK()
     *  codes, then the row's QuantParams (see quantizeActivationsInt8). */
    std::size_t
    activationStride() const
    {
        return activationStrideFor(_inDim);
    }

    /** activationStride() of a pack with depth @p in_dim. */
    static std::size_t
    activationStrideFor(std::size_t in_dim)
    {
        return paddedDepth(in_dim) + sizeof(QuantParams);
    }

    /** @p in_dim rounded up to a multiple of 4 (the k-quad size). */
    static std::size_t
    paddedDepth(std::size_t in_dim)
    {
        return (in_dim + 3) & ~std::size_t{3};
    }

    /** Number of panels: ceil(outDim / panelWidth). */
    std::size_t
    numPanels() const
    {
        return (_outDim + panelWidth - 1) / panelWidth;
    }

    /** Packed panel @p p: [paddedK/4 x 64] s8 codes, 64B-aligned. */
    const std::int8_t *
    panel(std::size_t p) const
    {
        return _data.data() + p * _paddedK * panelWidth;
    }

    /** Per-column weight scale, zero-padded to numPanels * 16. */
    const float *colScale() const { return _colScale.data(); }

    /** Per-column scaleW[j] * sum_k qw[j][k], same padding. */
    const float *colWsum() const { return _colWsum.data(); }

    /** Bytes of packed code storage (incl. padding). */
    std::size_t bytes() const { return _data.size(); }

  private:
    std::size_t _inDim = 0;
    std::size_t _outDim = 0;
    std::size_t _paddedK = 0;
    std::vector<std::int8_t, AlignedAllocator<std::int8_t>> _data;
    std::vector<float> _colScale;
    std::vector<float> _colWsum;
};

/**
 * Register-blocking parameters for one packed dense-layer call.
 * Zero fields take the one fixed blocking rule, the tile every
 * production forward runs:
 *
 *  - mr = min(gemmMaxRows(level), batch);
 *  - kc = in_dim at batch == 1 (GEMV-shaped: every panel row is
 *    consumed once, so there is no k-reuse to block for), and
 *    min(in_dim, 256) otherwise, so the active kc x panelWidth panel
 *    slice stays L1-resident across the m-tiles that re-stream it.
 *
 * bench/gemm_sweep's "kc=K" column is the measurement that keeps this
 * rule (EXPERIMENTS.md, "GEMM blocking rule vs full depth"). Results
 * do not depend on the tile (see the file comment), so a tile is only
 * a speed choice.
 */
struct GemmTile
{
    std::size_t mr = 0; //!< sample rows per microtile (<= gemmMaxRows)
    std::size_t kc = 0; //!< k-chunk length (>= in_dim: full depth)

    bool operator==(const GemmTile&) const = default;
};

/** Largest microtile row count the level's kernel supports
 *  (6 on AVX-512, 4 on AVX2 and scalar). */
std::size_t gemmMaxRows(SimdLevel level);

/**
 * Packed-weight dense layer: out = act(in * W^T + b) through the
 * register-blocked microkernel engine, dispatched on
 * currentSimdLevel() with the fixed blocking rule (GemmTile{}).
 *
 * Same degenerate-shape contract as denseLayerForward. Performs no
 * heap allocation and takes no lock.
 *
 * @param in Input activations, row-major [batch x w.inDim()].
 * @param bias Bias vector of length w.outDim(), or nullptr.
 * @param out Output activations, row-major [batch x w.outDim()].
 */
void denseLayerForwardPacked(const float *in, std::size_t batch,
                             const PackedWeights& w, const float *bias,
                             float *out, bool relu);

/**
 * denseLayerForwardPacked with a forced ISA level and explicit tile
 * (testing / ablation). Levels above the compiled or
 * detected capability degrade like the other forced kernels
 * (AVX-512 -> AVX2 -> scalar). Results are bitwise-identical across
 * levels and tiles by construction.
 */
void denseLayerForwardPackedLevel(SimdLevel level, const float *in,
                                  std::size_t batch,
                                  const PackedWeights& w,
                                  const float *bias, float *out,
                                  bool relu, const GemmTile& tile = {});

/**
 * Quantizes a GEMM activation block to uint8 codes for the u8·s8
 * microkernel, one affine (scale, bias) pair per sample row with
 * qmax = 127 — the cap keeps every maddubs pair product at
 * <= 127*127*2 = 32258, inside s16, so the integer accumulation is
 * exact on every kernel. Each row's codes and pair depend on that row
 * alone, so a sample's output does not depend on which other samples
 * share its batch.
 *
 * Row m lands at @p qout + m * @p lda (the pack's activationStride()):
 * its k codes, zero bytes up to lda - sizeof(QuantParams), then its
 * QuantParams. @p qout must hold batch * lda bytes.
 */
void quantizeActivationsInt8(const float *in, std::size_t batch,
                             std::size_t k, std::size_t lda,
                             std::uint8_t *qout);

/**
 * u8·s8 packed dense layer: out = act(in * W^T + b) where @p qin holds
 * quantized activation rows (from quantizeActivationsInt8, row stride
 * w.activationStride()) and @p w the s8-quantized panels. The
 * microkernel accumulates the integer dot into s32 registers — exact
 * arithmetic — and the fused epilogue dequantizes with the row's own
 * (ascale, amin), adds bias, and applies ReLU in one register pass:
 *
 *   v = fmaf((float)dot, ascale * colScale[j],
 *            fmaf(amin, colWsum[j], bias[j]))
 *
 * The scalar mirror performs the identical chain per element, so
 * results are bitwise invariant across SimdLevels, tiles, batch
 * positions and the other rows of the batch.
 *
 * Same degenerate-shape contract as denseLayerForward. Performs no
 * heap allocation.
 */
void denseLayerForwardPackedInt8(const std::uint8_t *qin,
                                 std::size_t batch,
                                 const PackedWeightsInt8& w,
                                 const float *bias, float *out,
                                 bool relu);

/** denseLayerForwardPackedInt8 with a forced ISA level and explicit
 *  tile (testing / ablation; only tile.mr matters — the
 *  integer kernel always runs the full depth). */
void denseLayerForwardPackedInt8Level(SimdLevel level,
                                      const std::uint8_t *qin,
                                      std::size_t batch,
                                      const PackedWeightsInt8& w,
                                      const float *bias, float *out,
                                      bool relu,
                                      const GemmTile& tile = {});

/**
 * Convenience fp32-in/fp32-out wrapper: quantizes @p in into
 * @p qscratch (resized to batch * w.activationStride()) and runs the
 * packed u8·s8 forward. Allocation-free once qscratch has warmed up.
 */
void denseLayerForwardInt8(const float *in, std::size_t batch,
                           const PackedWeightsInt8& w, const float *bias,
                           float *out, bool relu,
                           std::vector<std::uint8_t>& qscratch);

/** Logistic sigmoid applied elementwise in place. */
void sigmoidInplace(float *data, std::size_t n);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_GEMM_HPP
