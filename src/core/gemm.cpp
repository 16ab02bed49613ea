#include "core/gemm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DLRMOPT_GEMM_X86 1
#else
#define DLRMOPT_GEMM_X86 0
#endif

namespace dlrmopt::core
{

namespace
{

/** Tile sizes chosen so one (in-tile x out-tile) weight block stays in
 *  L1D alongside the activation rows (blocked baseline kernel).
 *  tileIn is also the packed engine's batched k-chunk (see GemmTile). */
constexpr std::size_t tileIn = 256;
constexpr std::size_t tileOut = 64;

constexpr std::size_t NR = PackedWeights::panelWidth;

/**
 * One microkernel invocation: rows [0, MR) of @p a against one packed
 * panel chunk, producing/updating an MR x NR block of @p c.
 *
 * @param a First sample's activations at the chunk's k offset.
 * @param lda Activation row stride (the layer's in_dim).
 * @param pb Packed panel data at the chunk's k offset (k-major).
 * @param kk Chunk depth (may be 0: epilogue-only call).
 * @param c Output block (row stride @p ldc = out_dim).
 * @param nv Valid columns of the panel (< NR only for the tail).
 * @param bias Panel's bias slice (already offset), or nullptr.
 * @param first True on the first k chunk (start from zero instead of
 *        reloading partial sums from c).
 * @param last True on the final k chunk (apply the fused epilogue:
 *        bias add + branchless ReLU in-register before the store).
 */
using MicroFn = void (*)(const float *a, std::size_t lda,
                         const float *pb, std::size_t kk, float *c,
                         std::size_t ldc, std::size_t nv,
                         const float *bias, bool relu, bool first,
                         bool last);

/**
 * Scalar mirror of the vector microkernels: per output element, the
 * identical fmaf chain over ascending k, then "+ bias" and the
 * branchless "acc > 0 ? acc : 0" ReLU — the same per-lane arithmetic
 * the masked AVX-512/AVX2 paths perform, so all levels are bitwise
 * equal.
 */
template <int MR>
void
microScalar(const float *a, std::size_t lda, const float *pb,
            std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
            const float *bias, bool relu, bool first, bool last)
{
    for (int m = 0; m < MR; ++m) {
        const std::size_t mu = static_cast<std::size_t>(m);
        float *cm = c + mu * ldc;
        for (std::size_t j = 0; j < nv; ++j) {
            float acc = first ? 0.0f : cm[j];
            for (std::size_t k = 0; k < kk; ++k) {
                acc = std::fmaf(a[mu * lda + k], pb[k * NR + j], acc);
            }
            if (last) {
                if (bias)
                    acc += bias[j];
                if (relu)
                    acc = acc > 0.0f ? acc : 0.0f;
            }
            cm[j] = acc;
        }
    }
}

constexpr std::array<MicroFn, 4> kScalarFns = {
    microScalar<1>, microScalar<2>, microScalar<3>, microScalar<4>};

#if DLRMOPT_GEMM_X86 && defined(__AVX2__)

/** Lane mask covering the first @p valid of 8 lanes (AVX2 maskload
 *  form: top bit of each 32-bit lane). */
inline __m256i
avx2Mask(std::size_t valid)
{
    alignas(32) static constexpr std::int32_t table[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(table + (8 - valid)));
}

/** 4x16 AVX2 microkernel: two ymm accumulators per sample row. */
template <int MR>
void
microAvx2(const float *a, std::size_t lda, const float *pb,
          std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
          const float *bias, bool relu, bool first, bool last)
{
    const std::size_t v0 = nv < 8 ? nv : 8;
    const std::size_t v1 = nv > 8 ? nv - 8 : 0;
    const __m256i m0 = avx2Mask(v0);
    const __m256i m1 = avx2Mask(v1);

    __m256 acc[MR][2];
    for (int m = 0; m < MR; ++m) {
        float *cm = c + static_cast<std::size_t>(m) * ldc;
        acc[m][0] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(cm, m0);
        acc[m][1] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(cm + 8, m1);
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const __m256 w0 = _mm256_loadu_ps(pb + k * NR);
        const __m256 w1 = _mm256_loadu_ps(pb + k * NR + 8);
        for (int m = 0; m < MR; ++m) {
            const __m256 av = _mm256_broadcast_ss(
                a + static_cast<std::size_t>(m) * lda + k);
            acc[m][0] = _mm256_fmadd_ps(av, w0, acc[m][0]);
            acc[m][1] = _mm256_fmadd_ps(av, w1, acc[m][1]);
        }
    }
    if (last) {
        if (bias) {
            const __m256 b0 = _mm256_maskload_ps(bias, m0);
            const __m256 b1 = _mm256_maskload_ps(bias + 8, m1);
            for (int m = 0; m < MR; ++m) {
                acc[m][0] = _mm256_add_ps(acc[m][0], b0);
                acc[m][1] = _mm256_add_ps(acc[m][1], b1);
            }
        }
        if (relu) {
            const __m256 z = _mm256_setzero_ps();
            for (int m = 0; m < MR; ++m) {
                acc[m][0] = _mm256_max_ps(acc[m][0], z);
                acc[m][1] = _mm256_max_ps(acc[m][1], z);
            }
        }
    }
    for (int m = 0; m < MR; ++m) {
        float *cm = c + static_cast<std::size_t>(m) * ldc;
        _mm256_maskstore_ps(cm, m0, acc[m][0]);
        _mm256_maskstore_ps(cm + 8, m1, acc[m][1]);
    }
}

constexpr std::array<MicroFn, 4> kAvx2Fns = {
    microAvx2<1>, microAvx2<2>, microAvx2<3>, microAvx2<4>};
#define DLRMOPT_GEMM_HAVE_AVX2 1
#else
#define DLRMOPT_GEMM_HAVE_AVX2 0
#endif

#if DLRMOPT_GEMM_X86 && defined(__AVX512F__)

/** 6x16 AVX-512 microkernel: one zmm accumulator per sample row. */
template <int MR>
void
microAvx512(const float *a, std::size_t lda, const float *pb,
            std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
            const float *bias, bool relu, bool first, bool last)
{
    const __mmask16 mask =
        nv >= NR ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << nv) - 1u);

    __m512 acc[MR];
    for (int m = 0; m < MR; ++m) {
        acc[m] = first
                     ? _mm512_setzero_ps()
                     : _mm512_maskz_loadu_ps(
                           mask, c + static_cast<std::size_t>(m) * ldc);
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const __m512 wv = _mm512_loadu_ps(pb + k * NR);
        for (int m = 0; m < MR; ++m) {
            const __m512 av =
                _mm512_set1_ps(a[static_cast<std::size_t>(m) * lda + k]);
            acc[m] = _mm512_fmadd_ps(av, wv, acc[m]);
        }
    }
    if (last) {
        if (bias) {
            const __m512 bv = _mm512_maskz_loadu_ps(mask, bias);
            for (int m = 0; m < MR; ++m)
                acc[m] = _mm512_add_ps(acc[m], bv);
        }
        if (relu) {
            const __m512 z = _mm512_setzero_ps();
            for (int m = 0; m < MR; ++m)
                acc[m] = _mm512_max_ps(acc[m], z);
        }
    }
    for (int m = 0; m < MR; ++m) {
        _mm512_mask_storeu_ps(c + static_cast<std::size_t>(m) * ldc,
                              mask, acc[m]);
    }
}

constexpr std::array<MicroFn, 6> kAvx512Fns = {
    microAvx512<1>, microAvx512<2>, microAvx512<3>,
    microAvx512<4>, microAvx512<5>, microAvx512<6>};
#define DLRMOPT_GEMM_HAVE_AVX512 1
#else
#define DLRMOPT_GEMM_HAVE_AVX512 0
#endif

/** Per-level kernel family: MR-indexed variants plus the widest MR. */
struct MicroSet
{
    const MicroFn *fns;
    std::size_t maxMr;
};

MicroSet
microSetFor(SimdLevel level)
{
#if DLRMOPT_GEMM_HAVE_AVX512
    if (level == SimdLevel::Avx512)
        return MicroSet{kAvx512Fns.data(), kAvx512Fns.size()};
#endif
#if DLRMOPT_GEMM_HAVE_AVX2
    if (level != SimdLevel::Scalar)
        return MicroSet{kAvx2Fns.data(), kAvx2Fns.size()};
#endif
    (void)level;
    return MicroSet{kScalarFns.data(), kScalarFns.size()};
}

/**
 * One u8·s8 microkernel invocation: rows [0, MR) of quantized
 * activations against one s8 panel, producing an MR x NR block of
 * fp32 output with the dequant+bias+ReLU epilogue fused into the
 * store. Unlike the fp32 MicroFn there is no k-chunking: the s32
 * accumulators live entirely in registers for the full depth (s32
 * overflow would need a depth beyond 2^16 — far past any MLP here),
 * so no partial sums ever round-trip through memory.
 *
 * @param a Quantized activation row 0: @p kq * 4 codes followed by
 *        the row's (scale, bias) trailer (row stride @p lda).
 * @param pb The panel's k-quad-interleaved s8 codes.
 * @param kq Number of k quads (paddedK / 4; may be 0: epilogue only).
 * @param cscale Panel's colScale slice (already offset, padded).
 * @param cwsum Panel's colWsum slice (already offset, padded).
 */
using MicroFnInt8 = void (*)(const std::uint8_t *a, std::size_t lda,
                             const std::int8_t *pb, std::size_t kq,
                             float *c, std::size_t ldc, std::size_t nv,
                             const float *bias, const float *cscale,
                             const float *cwsum, bool relu);

/** The (scale, bias) pair quantizeActivationsInt8 stored after the
 *  codes of one activation row. */
QuantParams
rowParams(const std::uint8_t *row, std::size_t lda)
{
    QuantParams q;
    std::memcpy(&q, row + lda - sizeof(QuantParams), sizeof(q));
    return q;
}

/**
 * Scalar mirror of the u8·s8 kernels: the integer dot is exact
 * (identical in every variant by arithmetic, not by op order), and the
 * float epilogue is the fixed 3-op chain
 *   v = fmaf((float)dot, ascale * cscale[j],
 *            fmaf(amin, cwsum[j], bias[j]))
 * over the row's own (ascale, amin), matching the vector lanes
 * bitwise ((float)dot and cvtepi32_ps both round to nearest).
 */
template <int MR>
void
microScalarInt8(const std::uint8_t *a, std::size_t lda,
                const std::int8_t *pb, std::size_t kq, float *c,
                std::size_t ldc, std::size_t nv, const float *bias,
                const float *cscale, const float *cwsum, bool relu)
{
    for (int m = 0; m < MR; ++m) {
        const std::size_t mu = static_cast<std::size_t>(m);
        const std::uint8_t *am = a + mu * lda;
        const QuantParams q = rowParams(am, lda);
        float *cm = c + mu * ldc;
        for (std::size_t j = 0; j < nv; ++j) {
            std::int32_t acc = 0;
            for (std::size_t k = 0; k < 4 * kq; ++k)
                acc += am[k] * pb[(k / 4) * 4 * NR + j * 4 + (k & 3)];
            const float combined = q.scale * cscale[j];
            const float off =
                std::fmaf(q.bias, cwsum[j], bias ? bias[j] : 0.0f);
            float v =
                std::fmaf(static_cast<float>(acc), combined, off);
            if (relu)
                v = v > 0.0f ? v : 0.0f;
            cm[j] = v;
        }
    }
}

constexpr std::array<MicroFnInt8, 4> kScalarInt8Fns = {
    microScalarInt8<1>, microScalarInt8<2>, microScalarInt8<3>,
    microScalarInt8<4>};

#if DLRMOPT_GEMM_HAVE_AVX2
/**
 * 4x16 AVX2 u8·s8 microkernel: per k quad, maddubs a broadcast
 * activation quad against each half of the 64-byte panel row (8
 * columns x 4 codes), then madd the s16 pair-dots with ones into 8 s32
 * quad-dots per half. Activation codes cap at 127, so a pair-dot is at
 * most 127*127*2 < 2^15 and maddubs never saturates: the s32 sums are
 * the exact integer dot.
 */
template <int MR>
void
microAvx2Int8(const std::uint8_t *a, std::size_t lda,
              const std::int8_t *pb, std::size_t kq, float *c,
              std::size_t ldc, std::size_t nv, const float *bias,
              const float *cscale, const float *cwsum, bool relu)
{
    const std::size_t v0 = nv < 8 ? nv : 8;
    const std::size_t v1 = nv > 8 ? nv - 8 : 0;
    const __m256i m0 = avx2Mask(v0);
    const __m256i m1 = avx2Mask(v1);
    const __m256i ones = _mm256_set1_epi16(1);

    __m256i acc[MR][2];
    for (int m = 0; m < MR; ++m) {
        acc[m][0] = _mm256_setzero_si256();
        acc[m][1] = _mm256_setzero_si256();
    }
    for (std::size_t q = 0; q < kq; ++q) {
        const __m256i w0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pb + q * 4 * NR));
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pb + q * 4 * NR + 32));
        for (int m = 0; m < MR; ++m) {
            std::uint32_t quad;
            std::memcpy(&quad,
                        a + static_cast<std::size_t>(m) * lda + 4 * q,
                        sizeof(quad));
            const __m256i av = _mm256_set1_epi32(static_cast<int>(quad));
            acc[m][0] = _mm256_add_epi32(
                acc[m][0],
                _mm256_madd_epi16(_mm256_maddubs_epi16(av, w0), ones));
            acc[m][1] = _mm256_add_epi32(
                acc[m][1],
                _mm256_madd_epi16(_mm256_maddubs_epi16(av, w1), ones));
        }
    }
    const __m256 cs0 = _mm256_loadu_ps(cscale);
    const __m256 cs1 = _mm256_loadu_ps(cscale + 8);
    const __m256 cw0 = _mm256_loadu_ps(cwsum);
    const __m256 cw1 = _mm256_loadu_ps(cwsum + 8);
    const __m256 b0 =
        bias ? _mm256_maskload_ps(bias, m0) : _mm256_setzero_ps();
    const __m256 b1 =
        bias ? _mm256_maskload_ps(bias + 8, m1) : _mm256_setzero_ps();
    const __m256 z = _mm256_setzero_ps();
    for (int m = 0; m < MR; ++m) {
        const std::size_t mu = static_cast<std::size_t>(m);
        const QuantParams qp = rowParams(a + mu * lda, lda);
        const __m256 vscale = _mm256_set1_ps(qp.scale);
        const __m256 vmin = _mm256_set1_ps(qp.bias);
        float *cm = c + mu * ldc;
        __m256 r0 = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc[m][0]),
                                    _mm256_mul_ps(vscale, cs0),
                                    _mm256_fmadd_ps(vmin, cw0, b0));
        __m256 r1 = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc[m][1]),
                                    _mm256_mul_ps(vscale, cs1),
                                    _mm256_fmadd_ps(vmin, cw1, b1));
        if (relu) {
            r0 = _mm256_max_ps(r0, z);
            r1 = _mm256_max_ps(r1, z);
        }
        _mm256_maskstore_ps(cm, m0, r0);
        _mm256_maskstore_ps(cm + 8, m1, r1);
    }
}

constexpr std::array<MicroFnInt8, 4> kAvx2Int8Fns = {
    microAvx2Int8<1>, microAvx2Int8<2>, microAvx2Int8<3>,
    microAvx2Int8<4>};
#endif

#if DLRMOPT_GEMM_HAVE_AVX512 && defined(__AVX512VNNI__)
#define DLRMOPT_GEMM_HAVE_VNNI 1
/**
 * 6x16 AVX512-VNNI u8·s8 microkernel: one vpdpbusd per (sample row,
 * k quad) sums 4 u8·s8 products straight into the s32 accumulator
 * with no saturation possible, so the integer dot is the *exact* value
 * the AVX2 and scalar kernels accumulate, and the shared float
 * epilogue makes the output bitwise-identical.
 */
template <int MR>
void
microAvx512VnniInt8(const std::uint8_t *a, std::size_t lda,
                    const std::int8_t *pb, std::size_t kq, float *c,
                    std::size_t ldc, std::size_t nv, const float *bias,
                    const float *cscale, const float *cwsum, bool relu)
{
    const __mmask16 mask =
        nv >= NR ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << nv) - 1u);

    __m512i acc[MR];
    for (int m = 0; m < MR; ++m)
        acc[m] = _mm512_setzero_si512();
    for (std::size_t q = 0; q < kq; ++q) {
        const __m512i wv = _mm512_loadu_si512(pb + q * 4 * NR);
        for (int m = 0; m < MR; ++m) {
            std::uint32_t quad;
            std::memcpy(&quad,
                        a + static_cast<std::size_t>(m) * lda + 4 * q,
                        sizeof(quad));
            const __m512i av =
                _mm512_set1_epi32(static_cast<int>(quad));
            acc[m] = _mm512_dpbusd_epi32(acc[m], av, wv);
        }
    }
    const __m512 cs = _mm512_loadu_ps(cscale);
    const __m512 cw = _mm512_loadu_ps(cwsum);
    const __m512 bv =
        bias ? _mm512_maskz_loadu_ps(mask, bias) : _mm512_setzero_ps();
    const __m512 z = _mm512_setzero_ps();
    for (int m = 0; m < MR; ++m) {
        const std::size_t mu = static_cast<std::size_t>(m);
        const QuantParams qp = rowParams(a + mu * lda, lda);
        __m512 r = _mm512_fmadd_ps(
            _mm512_cvtepi32_ps(acc[m]),
            _mm512_mul_ps(_mm512_set1_ps(qp.scale), cs),
            _mm512_fmadd_ps(_mm512_set1_ps(qp.bias), cw, bv));
        if (relu)
            r = _mm512_max_ps(r, z);
        _mm512_mask_storeu_ps(c + mu * ldc, mask, r);
    }
}

constexpr std::array<MicroFnInt8, 6> kAvx512VnniInt8Fns = {
    microAvx512VnniInt8<1>, microAvx512VnniInt8<2>,
    microAvx512VnniInt8<3>, microAvx512VnniInt8<4>,
    microAvx512VnniInt8<5>, microAvx512VnniInt8<6>};
#else
#define DLRMOPT_GEMM_HAVE_VNNI 0
#endif

/** Per-level u8·s8 kernel family. */
struct MicroSetInt8
{
    const MicroFnInt8 *fns;
    std::size_t maxMr;
};

MicroSetInt8
microSetForInt8(SimdLevel level)
{
#if DLRMOPT_GEMM_HAVE_VNNI
    // Compiled in whenever the build targets VNNI, dispatched only
    // when the host exposes it; AVX-512 hosts without VNNI run the
    // AVX2 kernels.
    static const bool vnni = cpuHasAvx512Vnni();
    if (level == SimdLevel::Avx512 && vnni)
        return {kAvx512VnniInt8Fns.data(), kAvx512VnniInt8Fns.size()};
#endif
#if DLRMOPT_GEMM_HAVE_AVX2
    if (level != SimdLevel::Scalar)
        return {kAvx2Int8Fns.data(), kAvx2Int8Fns.size()};
#endif
    (void)level;
    return {kScalarInt8Fns.data(), kScalarInt8Fns.size()};
}

/**
 * u8·s8 driver: panels outer, microtiles inner. No k loop — each
 * microtile runs the full (padded) depth out of registers.
 */
void
runPackedInt8(const std::uint8_t *qa, std::size_t batch,
              const PackedWeightsInt8& w, const float *bias, float *out,
              bool relu, GemmTile tile, const MicroSetInt8& ms)
{
    const std::size_t N = w.outDim();
    if (batch == 0 || N == 0)
        return;
    std::size_t mr = tile.mr == 0 ? ms.maxMr : tile.mr;
    mr = std::min({mr, ms.maxMr, batch});
    const std::size_t lda = w.activationStride();
    const std::size_t kq = w.paddedK() / 4;

    for (std::size_t p = 0; p < w.numPanels(); ++p) {
        const std::size_t n0 = p * NR;
        const std::size_t nv = std::min(NR, N - n0);
        const float *pbias = bias ? bias + n0 : nullptr;
        const float *cs = w.colScale() + n0;
        const float *cw = w.colWsum() + n0;
        for (std::size_t m0 = 0; m0 < batch; m0 += mr) {
            const std::size_t mm = std::min(mr, batch - m0);
            ms.fns[mm - 1](qa + m0 * lda, lda, w.panel(p), kq,
                           out + m0 * N + n0, N, nv, pbias, cs, cw,
                           relu);
        }
    }
}

/**
 * Packed-GEMM driver: panels outer, k-chunks middle (the active
 * kc x NR panel slice stays cache-resident across the m-tiles that
 * reuse it), microtiles inner. Chunked partial sums round-trip
 * through c exactly (a float store/reload is value-preserving), so
 * the per-element result is independent of kc; the fused epilogue
 * runs only on the final chunk.
 */
void
runPacked(const float *in, std::size_t batch, const PackedWeights& w,
          const float *bias, float *out, bool relu, GemmTile tile,
          const MicroSet& ms)
{
    const std::size_t K = w.inDim();
    const std::size_t N = w.outDim();
    if (batch == 0 || N == 0)
        return;
    std::size_t mr = tile.mr == 0 ? ms.maxMr : tile.mr;
    mr = std::min({mr, ms.maxMr, batch});
    // kc = 0 takes the fixed blocking rule documented at GemmTile.
    std::size_t kc = tile.kc;
    if (kc == 0)
        kc = batch == 1 ? K : std::min(K, tileIn);
    kc = std::min(kc, K);

    for (std::size_t p = 0; p < w.numPanels(); ++p) {
        const std::size_t n0 = p * NR;
        const std::size_t nv = std::min(NR, N - n0);
        const float *pb = w.panel(p);
        const float *pbias = bias ? bias + n0 : nullptr;
        if (K == 0) {
            // Degenerate depth: epilogue only (bias + optional ReLU).
            for (std::size_t m0 = 0; m0 < batch; m0 += mr) {
                const std::size_t mm = std::min(mr, batch - m0);
                ms.fns[mm - 1](in, K, pb, 0, out + m0 * N + n0, N,
                               nv, pbias, relu, true, true);
            }
            continue;
        }
        for (std::size_t k0 = 0; k0 < K; k0 += kc) {
            const std::size_t kk = std::min(kc, K - k0);
            const bool first = k0 == 0;
            const bool last = k0 + kk == K;
            for (std::size_t m0 = 0; m0 < batch; m0 += mr) {
                const std::size_t mm = std::min(mr, batch - m0);
                ms.fns[mm - 1](in + m0 * K + k0, K, pb + k0 * NR, kk,
                               out + m0 * N + n0, N, nv, pbias, relu,
                               first, last);
            }
        }
    }
}

} // namespace

PackedWeights::PackedWeights(const float *weights, std::size_t in_dim,
                             std::size_t out_dim)
    : _inDim(in_dim), _outDim(out_dim)
{
    if (weights == nullptr && in_dim * out_dim != 0) {
        throw std::invalid_argument(
            "PackedWeights: null weights for a non-empty shape");
    }
    _data.assign(numPanels() * in_dim * panelWidth, 0.0f);
    for (std::size_t p = 0; p < numPanels(); ++p) {
        const std::size_t n0 = p * panelWidth;
        const std::size_t nv = std::min(panelWidth, out_dim - n0);
        float *dst = _data.data() + p * in_dim * panelWidth;
        for (std::size_t j = 0; j < nv; ++j) {
            const float *src = weights + (n0 + j) * in_dim;
            for (std::size_t k = 0; k < in_dim; ++k)
                dst[k * panelWidth + j] = src[k];
        }
    }
}

PackedWeightsInt8::PackedWeightsInt8(const float *weights,
                                     std::size_t in_dim,
                                     std::size_t out_dim)
    : _inDim(in_dim), _outDim(out_dim),
      _paddedK(paddedDepth(in_dim))
{
    if (weights == nullptr && in_dim * out_dim != 0) {
        throw std::invalid_argument(
            "PackedWeightsInt8: null weights for a non-empty shape");
    }
    _data.assign(numPanels() * _paddedK * panelWidth, 0);
    _colScale.assign(numPanels() * panelWidth, 0.0f);
    _colWsum.assign(numPanels() * panelWidth, 0.0f);
    for (std::size_t p = 0; p < numPanels(); ++p) {
        const std::size_t n0 = p * panelWidth;
        const std::size_t nv = std::min(panelWidth, out_dim - n0);
        std::int8_t *dst = _data.data() + p * _paddedK * panelWidth;
        for (std::size_t j = 0; j < nv; ++j) {
            const float *src = weights + (n0 + j) * in_dim;
            float maxabs = 0.0f;
            for (std::size_t k = 0; k < in_dim; ++k)
                maxabs = std::fmax(maxabs, std::fabs(src[k]));
            const float sw = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
            const float inv = 1.0f / sw;
            std::int32_t colsum = 0;
            for (std::size_t k = 0; k < in_dim; ++k) {
                const float q = std::nearbyintf(src[k] * inv);
                const float cl =
                    std::fmin(std::fmax(q, -127.0f), 127.0f);
                const std::int8_t code =
                    static_cast<std::int8_t>(cl);
                dst[(k / 4) * 4 * panelWidth + j * 4 + (k & 3)] = code;
                colsum += code;
            }
            _colScale[n0 + j] = sw;
            _colWsum[n0 + j] = sw * static_cast<float>(colsum);
        }
    }
}

void
quantizeActivationsInt8(const float *in, std::size_t batch,
                        std::size_t k, std::size_t lda,
                        std::uint8_t *qout)
{
    const std::size_t codes = lda - sizeof(QuantParams);
    for (std::size_t m = 0; m < batch; ++m) {
        const float *src = in + m * k;
        std::uint8_t *dst = qout + m * lda;
        QuantParams p;
        if (k > 0) {
            float lo = src[0], hi = src[0];
            for (std::size_t i = 1; i < k; ++i) {
                lo = std::fmin(lo, src[i]);
                hi = std::fmax(hi, src[i]);
            }
            p.bias = lo;
            p.scale = hi > lo ? (hi - lo) / 127.0f : 1.0f;
            const float inv = 1.0f / p.scale;
            for (std::size_t i = 0; i < k; ++i) {
                const float q = std::nearbyintf((src[i] - lo) * inv);
                const float cl = std::fmin(std::fmax(q, 0.0f), 127.0f);
                dst[i] = static_cast<std::uint8_t>(cl);
            }
        }
        std::fill(dst + k, dst + codes, std::uint8_t{0});
        std::memcpy(dst + codes, &p, sizeof(p));
    }
}

std::size_t
gemmMaxRows(SimdLevel level)
{
    return microSetFor(level).maxMr;
}

void
denseLayerForwardPacked(const float *in, std::size_t batch,
                        const PackedWeights& w, const float *bias,
                        float *out, bool relu)
{
    const SimdLevel level = currentSimdLevel();
    runPacked(in, batch, w, bias, out, relu, {}, microSetFor(level));
}

void
denseLayerForwardPackedLevel(SimdLevel level, const float *in,
                             std::size_t batch, const PackedWeights& w,
                             const float *bias, float *out, bool relu,
                             const GemmTile& tile)
{
    runPacked(in, batch, w, bias, out, relu, tile, microSetFor(level));
}

void
denseLayerForwardPackedInt8(const std::uint8_t *qin, std::size_t batch,
                            const PackedWeightsInt8& w,
                            const float *bias, float *out, bool relu)
{
    const SimdLevel level = currentSimdLevel();
    runPackedInt8(qin, batch, w, bias, out, relu, {},
                  microSetForInt8(level));
}

void
denseLayerForwardPackedInt8Level(SimdLevel level, const std::uint8_t *qin,
                                 std::size_t batch,
                                 const PackedWeightsInt8& w,
                                 const float *bias, float *out,
                                 bool relu, const GemmTile& tile)
{
    runPackedInt8(qin, batch, w, bias, out, relu, tile,
                  microSetForInt8(level));
}

void
denseLayerForwardInt8(const float *in, std::size_t batch,
                      const PackedWeightsInt8& w, const float *bias,
                      float *out, bool relu,
                      std::vector<std::uint8_t>& qscratch)
{
    qscratch.resize(batch * w.activationStride());
    quantizeActivationsInt8(in, batch, w.inDim(), w.activationStride(),
                            qscratch.data());
    denseLayerForwardPackedInt8(qscratch.data(), batch, w, bias, out,
                                relu);
}

void
denseLayerForward(const float *in, std::size_t batch, std::size_t in_dim,
                  const float *weights, const float *bias,
                  std::size_t out_dim, float *out, bool relu)
{
    // Degenerate shapes: nothing to write (and no bias-init pass to
    // run) when the output block is empty.
    if (batch == 0 || out_dim == 0)
        return;

    // Initialize outputs with the bias (or zero).
    for (std::size_t b = 0; b < batch; ++b) {
        float *o = out + b * out_dim;
        if (bias) {
            std::copy(bias, bias + out_dim, o);
        } else {
            std::fill(o, o + out_dim, 0.0f);
        }
    }

    for (std::size_t k0 = 0; k0 < in_dim; k0 += tileIn) {
        const std::size_t k1 = std::min(in_dim, k0 + tileIn);
        for (std::size_t n0 = 0; n0 < out_dim; n0 += tileOut) {
            const std::size_t n1 = std::min(out_dim, n0 + tileOut);
            for (std::size_t b = 0; b < batch; ++b) {
                const float *x = in + b * in_dim;
                float *o = out + b * out_dim;
                for (std::size_t n = n0; n < n1; ++n) {
                    const float *w = weights + n * in_dim;
                    float acc = 0.0f;
                    for (std::size_t k = k0; k < k1; ++k)
                        acc += x[k] * w[k];
                    o[n] += acc;
                }
            }
        }
    }

    if (relu) {
        for (std::size_t i = 0; i < batch * out_dim; ++i)
            out[i] = std::max(out[i], 0.0f);
    }
}

void
denseLayerForwardRef(const float *in, std::size_t batch, std::size_t in_dim,
                     const float *weights, const float *bias,
                     std::size_t out_dim, float *out, bool relu)
{
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t n = 0; n < out_dim; ++n) {
            double acc = bias ? bias[n] : 0.0;
            for (std::size_t k = 0; k < in_dim; ++k)
                acc += static_cast<double>(in[b * in_dim + k]) *
                       weights[n * in_dim + k];
            float v = static_cast<float>(acc);
            out[b * out_dim + n] = relu ? std::max(v, 0.0f) : v;
        }
    }
}

void
sigmoidInplace(float *data, std::size_t n)
{
    switch (currentSimdLevel()) {
      case SimdLevel::Avx512:
        sigmoidInplaceAvx512(data, n);
        return;
      case SimdLevel::Avx2:
        sigmoidInplaceAvx2(data, n);
        return;
      default:
        sigmoidInplaceScalar(data, n);
        return;
    }
}

} // namespace dlrmopt::core
