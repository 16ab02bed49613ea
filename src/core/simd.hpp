/**
 * @file
 * SIMD feature detection and vectorized accumulate kernels.
 *
 * The paper's embedding stage runs on IPEX's AVX-512 kernels
 * (vec.ld / vec.add / vec.st in Algorithm 1). embedding_bag's inner
 * accumulate is provided here in explicit AVX-512 and AVX2 forms
 * with runtime dispatch, falling back to the portable scalar loop.
 * All variants are bit-identical for fp32 addition (same order).
 */

#ifndef DLRMOPT_CORE_SIMD_HPP
#define DLRMOPT_CORE_SIMD_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace dlrmopt::core
{

/** Instruction set the accumulate kernel dispatches to. */
enum class SimdLevel
{
    Scalar,
    Avx2,
    Avx512,
};

/** Highest level supported by the running CPU. */
SimdLevel detectSimdLevel();

/** True when the running CPU exposes AVX512-VNNI (vpdpbusd); the
 *  u8·s8 GEMM dispatches its VNNI kernel at the AVX-512 level only
 *  then. */
bool cpuHasAvx512Vnni();

/** Human-readable name ("scalar", "AVX2", "AVX-512"). */
std::string simdLevelName(SimdLevel level);

/**
 * fp32 lanes per vector register at @p level (1 / 8 / 16). Used for
 * roofline math in the benches and the GEMM microkernel geometry
 * reporting; independent of what the running CPU supports.
 */
std::size_t simdVectorFloats(SimdLevel level);

/**
 * out[0..n) += row[0..n), dispatched to the best available ISA.
 * @param n Element count (any value; tails handled).
 */
void accumulateRow(float *out, const float *row, std::size_t n);

/** Force a specific implementation (testing / ablation). */
void accumulateRowScalar(float *out, const float *row, std::size_t n);
void accumulateRowAvx2(float *out, const float *row, std::size_t n);
void accumulateRowAvx512(float *out, const float *row, std::size_t n);

/**
 * Fused-dequant accumulate over a bf16-stored row:
 * out[i] += widen(row[i]), where widen is the exact bit-shift
 * conversion (core/quant.hpp) — one pass over the stored bytes, half
 * the memory traffic of the fp32 kernel. The vector forms widen in
 * registers (zero-extend + shift-left 16 + fp32 add); the widened
 * addend is bit-exact in every variant, and the tails run the scalar
 * mirror of the same chain, so all levels are bitwise-identical.
 */
void accumulateRowBf16(float *out, const std::uint16_t *row,
                       std::size_t n);
void accumulateRowBf16Scalar(float *out, const std::uint16_t *row,
                             std::size_t n);
void accumulateRowBf16Avx2(float *out, const std::uint16_t *row,
                           std::size_t n);
void accumulateRowBf16Avx512(float *out, const std::uint16_t *row,
                             std::size_t n);

/**
 * Fused-dequant accumulate over an int8-stored row with per-block
 * affine parameters (value = code * scale + bias):
 *
 *   out[i] = fmaf((float)row[i], scale, out[i]) + bias
 *
 * — a quarter of the fp32 kernel's memory traffic, with the
 * dequantization folded into the accumulate (widen u8 in registers,
 * one fma, one add). The per-element chain is the same in all three
 * variants (vector fmadd <-> scalar fmaf, exact u8->fp32 widening),
 * and tails run the scalar mirror, so all levels are
 * bitwise-identical.
 */
void accumulateRowInt8(float *out, const std::uint8_t *row, float scale,
                       float bias, std::size_t n);
void accumulateRowInt8Scalar(float *out, const std::uint8_t *row,
                             float scale, float bias, std::size_t n);
void accumulateRowInt8Avx2(float *out, const std::uint8_t *row,
                           float scale, float bias, std::size_t n);
void accumulateRowInt8Avx512(float *out, const std::uint8_t *row,
                             float scale, float bias, std::size_t n);

/**
 * Register-blocked whole-sample quantized bags: pool every row of one
 * sample into vector-register accumulators and store the output once,
 * instead of a load-accumulate-store round trip of the output buffer
 * per row. The per-lane arithmetic chain is exactly the per-row
 * kernel's (same widen/fma/add order — a register-held partial equals
 * the stored-and-reloaded one bitwise), so bag() output is unchanged;
 * only the memory traffic shrinks.
 *
 * @param out Output row [dim], stored once at the end.
 * @param base Table payload base (fused rows for int8).
 * @param strideBytes Stored bytes per row (int8: dim + 8).
 * @param dim Embedding dimension.
 * @param indices Flat lookup-index array (pre-validated by caller).
 * @param begin,end This sample's span within @p indices.
 * @param total Total lookups in @p indices (prefetch look-ahead cap).
 * @param pfDist Look-ahead distance in lookups; 0 disables.
 * @param pfLines Cache lines of the future row to prefetch (T0 hint).
 *
 * @return false when the active level or shape has no specialized
 *         kernel (scalar level, dim not a lane multiple, or dim too
 *         large to hold in registers) — the caller falls back to the
 *         per-row path.
 */
bool bagSampleBf16(float *out, const std::uint16_t *base,
                   std::size_t dim, const RowIndex *indices,
                   std::size_t begin, std::size_t end,
                   std::size_t total, std::size_t pfDist, int pfLines);
bool bagSampleInt8(float *out, const std::uint8_t *base,
                   std::size_t strideBytes, std::size_t dim,
                   const RowIndex *indices, std::size_t begin,
                   std::size_t end, std::size_t total,
                   std::size_t pfDist, int pfLines);

/**
 * Pointer-walking mirrors of the whole-sample bags for callers whose
 * rows do not share one base address — the hot tier resolves each
 * lookup to either its pinned copy or the cold row and hands the
 * per-sample pointer list here. Accumulation order is the pointer
 * order and the per-lane chain matches the per-row kernels, so the
 * result is bitwise-identical to per-row accumulation over the same
 * pointers (and hence to the cold bag over the same index stream).
 * Int8 pointers reference fused rows (scale/bias trailer at +dim).
 *
 * @return false when the active level or shape has no specialized
 *         kernel — the caller falls back to the per-row path.
 */
bool bagSamplePtrsF32(float *out, const std::uint8_t *const *rows,
                      std::size_t n, std::size_t dim);
bool bagSamplePtrsBf16(float *out, const std::uint8_t *const *rows,
                       std::size_t n, std::size_t dim);
bool bagSamplePtrsInt8(float *out, const std::uint8_t *const *rows,
                       std::size_t n, std::size_t dim);

/**
 * Logistic-sigmoid variants backing core::sigmoidInplace's dispatch.
 *
 * The scalar form is the exact-libm reference (1 / (1 + expf(-x)));
 * the vector forms use a Cody-Waite range-reduced degree-6 polynomial
 * exp (Cephes coefficients, relative error ~1e-7 vs libm — tolerance-
 * tested against the scalar reference in tests/core/test_simd.cpp).
 *
 * Within one vector variant every element takes the identical
 * arithmetic path regardless of its position or the array length: the
 * AVX-512 tail is a masked vector op, and the AVX2 tail is a scalar
 * mirror built from fmaf/nearbyintf matching the vector lanes
 * bitwise. That position-independence is what keeps a coalesced
 * batched forward bitwise-identical to per-request forwards.
 */
void sigmoidInplaceScalar(float *data, std::size_t n);
void sigmoidInplaceAvx2(float *data, std::size_t n);
void sigmoidInplaceAvx512(float *data, std::size_t n);

/**
 * Overrides dispatch globally (e.g. to benchmark scalar vs vector).
 * Levels above the detected capability are clamped down.
 * @return The level actually selected.
 */
SimdLevel setSimdLevel(SimdLevel level);

/** Currently selected dispatch level. */
SimdLevel currentSimdLevel();

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_SIMD_HPP
