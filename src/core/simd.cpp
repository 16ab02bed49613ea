#include "core/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DLRMOPT_X86 1
#else
#define DLRMOPT_X86 0
#endif

namespace dlrmopt::core
{

namespace
{

#if DLRMOPT_X86
bool
cpuSupports(const char *feature)
{
    // __builtin_cpu_supports is a GCC/Clang builtin backed by cpuid.
    if (feature[0] == '5') // "512"
        return __builtin_cpu_supports("avx512f");
    return __builtin_cpu_supports("avx2");
}
#endif

std::atomic<SimdLevel> activeLevel{detectSimdLevel()};

} // namespace

SimdLevel
detectSimdLevel()
{
#if DLRMOPT_X86
    if (cpuSupports("512"))
        return SimdLevel::Avx512;
    if (cpuSupports("avx2"))
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

bool
cpuHasAvx512Vnni()
{
#if DLRMOPT_X86
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vnni");
#else
    return false;
#endif
}

std::string
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "AVX2";
      case SimdLevel::Avx512:
        return "AVX-512";
    }
    return "unknown";
}

std::size_t
simdVectorFloats(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Avx512:
        return 16;
      case SimdLevel::Avx2:
        return 8;
      default:
        return 1;
    }
}

void
accumulateRowScalar(float *out, const float *row, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] += row[i];
}

#if DLRMOPT_X86 && defined(__AVX2__)
void
accumulateRowAvx2(float *out, const float *row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_loadu_ps(out + i);
        const __m256 b = _mm256_loadu_ps(row + i);
        _mm256_storeu_ps(out + i, _mm256_add_ps(a, b));
    }
    for (; i < n; ++i)
        out[i] += row[i];
}
#else
void
accumulateRowAvx2(float *out, const float *row, std::size_t n)
{
    accumulateRowScalar(out, row, n);
}
#endif

#if DLRMOPT_X86 && defined(__AVX512F__)
void
accumulateRowAvx512(float *out, const float *row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 a = _mm512_loadu_ps(out + i);
        const __m512 b = _mm512_loadu_ps(row + i);
        _mm512_storeu_ps(out + i, _mm512_add_ps(a, b));
    }
    if (i < n) {
        const __mmask16 mask =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 a = _mm512_maskz_loadu_ps(mask, out + i);
        const __m512 b = _mm512_maskz_loadu_ps(mask, row + i);
        _mm512_mask_storeu_ps(out + i, mask, _mm512_add_ps(a, b));
    }
}
#else
void
accumulateRowAvx512(float *out, const float *row, std::size_t n)
{
    accumulateRowAvx2(out, row, n);
}
#endif

namespace
{

/** One bf16 accumulate element exactly as the vector lanes compute it
 *  (exact widen, IEEE fp32 add) — the tail mirror for both widths. */
inline void
bf16Lane(float *out, const std::uint16_t *row, std::size_t i)
{
    const std::uint32_t u = static_cast<std::uint32_t>(row[i]) << 16;
    float v;
    std::memcpy(&v, &u, sizeof(v));
    out[i] += v;
}

/** One int8 fused-dequant element exactly as the vector lanes compute
 *  it (exact u8 widen, fmadd with scale, add bias). */
inline void
int8Lane(float *out, const std::uint8_t *row, float scale, float bias,
         std::size_t i)
{
    const float q = static_cast<float>(row[i]);
    out[i] = std::fmaf(q, scale, out[i]) + bias;
}

} // namespace

void
accumulateRowBf16Scalar(float *out, const std::uint16_t *row,
                        std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        bf16Lane(out, row, i);
}

void
accumulateRowInt8Scalar(float *out, const std::uint8_t *row, float scale,
                        float bias, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        int8Lane(out, row, scale, bias, i);
}

#if DLRMOPT_X86 && defined(__AVX2__)
void
accumulateRowBf16Avx2(float *out, const std::uint16_t *row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Zero-extend 8 stored u16 patterns and shift them back into
        // the upper halves: the exact fp32 bit patterns, no rounding.
        const __m128i h = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + i));
        const __m256i w =
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
        const __m256 a = _mm256_loadu_ps(out + i);
        _mm256_storeu_ps(out + i,
                         _mm256_add_ps(a, _mm256_castsi256_ps(w)));
    }
    for (; i < n; ++i)
        bf16Lane(out, row, i);
}

void
accumulateRowInt8Avx2(float *out, const std::uint8_t *row, float scale,
                      float bias, std::size_t n)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vbias = _mm256_set1_ps(bias);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // u8 codes widen exactly to fp32 (all values <= 255).
        const __m128i b = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(row + i));
        const __m256 q =
            _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b));
        const __m256 acc = _mm256_loadu_ps(out + i);
        const __m256 t = _mm256_fmadd_ps(q, vscale, acc);
        _mm256_storeu_ps(out + i, _mm256_add_ps(t, vbias));
    }
    for (; i < n; ++i)
        int8Lane(out, row, scale, bias, i);
}
#else
void
accumulateRowBf16Avx2(float *out, const std::uint16_t *row, std::size_t n)
{
    accumulateRowBf16Scalar(out, row, n);
}

void
accumulateRowInt8Avx2(float *out, const std::uint8_t *row, float scale,
                      float bias, std::size_t n)
{
    accumulateRowInt8Scalar(out, row, scale, bias, n);
}
#endif

#if DLRMOPT_X86 && defined(__AVX512F__)
void
accumulateRowBf16Avx512(float *out, const std::uint16_t *row,
                        std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + i));
        const __m512i w =
            _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16);
        const __m512 a = _mm512_loadu_ps(out + i);
        _mm512_storeu_ps(out + i,
                         _mm512_add_ps(a, _mm512_castsi512_ps(w)));
    }
    for (; i < n; ++i)
        bf16Lane(out, row, i);
}

void
accumulateRowInt8Avx512(float *out, const std::uint8_t *row, float scale,
                        float bias, std::size_t n)
{
    const __m512 vscale = _mm512_set1_ps(scale);
    const __m512 vbias = _mm512_set1_ps(bias);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + i));
        const __m512 q =
            _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(b));
        const __m512 acc = _mm512_loadu_ps(out + i);
        const __m512 t = _mm512_fmadd_ps(q, vscale, acc);
        _mm512_storeu_ps(out + i, _mm512_add_ps(t, vbias));
    }
    for (; i < n; ++i)
        int8Lane(out, row, scale, bias, i);
}
#else
void
accumulateRowBf16Avx512(float *out, const std::uint16_t *row,
                        std::size_t n)
{
    accumulateRowBf16Avx2(out, row, n);
}

void
accumulateRowInt8Avx512(float *out, const std::uint8_t *row, float scale,
                        float bias, std::size_t n)
{
    accumulateRowInt8Avx2(out, row, scale, bias, n);
}
#endif

void
accumulateRowBf16(float *out, const std::uint16_t *row, std::size_t n)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
        accumulateRowBf16Avx512(out, row, n);
        return;
      case SimdLevel::Avx2:
        accumulateRowBf16Avx2(out, row, n);
        return;
      default:
        accumulateRowBf16Scalar(out, row, n);
        return;
    }
}

void
accumulateRowInt8(float *out, const std::uint8_t *row, float scale,
                  float bias, std::size_t n)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
        accumulateRowInt8Avx512(out, row, scale, bias, n);
        return;
      case SimdLevel::Avx2:
        accumulateRowInt8Avx2(out, row, scale, bias, n);
        return;
      default:
        accumulateRowInt8Scalar(out, row, scale, bias, n);
        return;
    }
}

namespace
{

/**
 * Prefetch @p lines cache lines of the row @p pfDist lookups ahead at
 * T0. Caller restricts the whole-sample path to locality == 3, so the
 * compile-time-constant hint requirement is satisfied here.
 */
inline void
bagSamplePrefetch(const void *base, std::size_t strideBytes,
                  const RowIndex *indices, std::size_t s,
                  std::size_t total, std::size_t pfDist, int pfLines)
{
    if (pfDist == 0 || s + pfDist >= total)
        return;
    const char *next =
        static_cast<const char *>(base) +
        static_cast<std::size_t>(indices[s + pfDist]) * strideBytes;
    for (int l = 0; l < pfLines; ++l)
        __builtin_prefetch(next + l * 64, 0, 3);
}

#if DLRMOPT_X86 && defined(__AVX512F__)

/**
 * Whole-sample bf16 bag at AVX-512: NB zmm accumulators hold the full
 * dim-wide partial sum across every row of the sample, then store
 * once. Per lane this is exactly accumulateRowBf16Avx512's chain
 * (zero-extend, shift, add in the same order), so the result is
 * bitwise-identical to the per-row path — the accumulator just lives
 * in registers instead of round-tripping through the output buffer.
 */
template <int NB>
void
bagSampleBf16Avx512Body(float *out, const std::uint16_t *base,
                        std::size_t dim, const RowIndex *indices,
                        std::size_t begin, std::size_t end,
                        std::size_t total, std::size_t pfDist,
                        int pfLines)
{
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (std::size_t s = begin; s < end; ++s) {
        bagSamplePrefetch(base, dim * sizeof(std::uint16_t), indices, s,
                          total, pfDist, pfLines);
        const std::uint16_t *row =
            base + static_cast<std::size_t>(indices[s]) * dim;
        for (int b = 0; b < NB; ++b) {
            const __m256i h = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + b * 16));
            const __m512i w =
                _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16);
            acc[b] = _mm512_add_ps(acc[b], _mm512_castsi512_ps(w));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(out + b * 16, acc[b]);
}

/** Whole-sample int8 bag at AVX-512 (see bf16 variant for the idea). */
template <int NB>
void
bagSampleInt8Avx512Body(float *out, const std::uint8_t *base,
                        std::size_t strideBytes, std::size_t dim,
                        const RowIndex *indices, std::size_t begin,
                        std::size_t end, std::size_t total,
                        std::size_t pfDist, int pfLines)
{
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (std::size_t s = begin; s < end; ++s) {
        bagSamplePrefetch(base, strideBytes, indices, s, total, pfDist,
                          pfLines);
        const std::uint8_t *row =
            base + static_cast<std::size_t>(indices[s]) * strideBytes;
        float scale, bias;
        std::memcpy(&scale, row + dim, sizeof(float));
        std::memcpy(&bias, row + dim + sizeof(float), sizeof(float));
        const __m512 vscale = _mm512_set1_ps(scale);
        const __m512 vbias = _mm512_set1_ps(bias);
        for (int b = 0; b < NB; ++b) {
            const __m128i q8 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + b * 16));
            const __m512 q =
                _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(q8));
            const __m512 t = _mm512_fmadd_ps(q, vscale, acc[b]);
            acc[b] = _mm512_add_ps(t, vbias);
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(out + b * 16, acc[b]);
}

bool
bagSampleBf16Avx512(float *out, const std::uint16_t *base,
                    std::size_t dim, const RowIndex *indices,
                    std::size_t begin, std::size_t end,
                    std::size_t total, std::size_t pfDist, int pfLines)
{
    if (dim == 0 || dim % 16 != 0 || dim > 128)
        return false;
    switch (dim / 16) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSampleBf16Avx512Body<NB>(out, base, dim, indices, begin,    \
                                    end, total, pfDist, pfLines);      \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSampleInt8Avx512(float *out, const std::uint8_t *base,
                    std::size_t strideBytes, std::size_t dim,
                    const RowIndex *indices, std::size_t begin,
                    std::size_t end, std::size_t total,
                    std::size_t pfDist, int pfLines)
{
    if (dim == 0 || dim % 16 != 0 || dim > 128)
        return false;
    switch (dim / 16) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSampleInt8Avx512Body<NB>(out, base, strideBytes, dim,       \
                                    indices, begin, end, total,        \
                                    pfDist, pfLines);                  \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}


/**
 * Pointer-walking whole-sample bags: identical register-blocked
 * accumulation to the bagSample* bodies above, but each row arrives
 * as a resolved pointer (hot-tier pinned copy or cold row) instead of
 * base + index * stride. No prefetch here — the resolver issued it
 * while walking the lookups.
 */
template <int NB>
void
bagSamplePtrsF32Avx512Body(float *out, const std::uint8_t *const *rows,
                           std::size_t n)
{
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const float *row = reinterpret_cast<const float *>(rows[s]);
        for (int b = 0; b < NB; ++b) {
            acc[b] = _mm512_add_ps(acc[b],
                                   _mm512_loadu_ps(row + b * 16));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(out + b * 16, acc[b]);
}

template <int NB>
void
bagSamplePtrsBf16Avx512Body(float *out,
                            const std::uint8_t *const *rows,
                            std::size_t n)
{
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint16_t *row =
            reinterpret_cast<const std::uint16_t *>(rows[s]);
        for (int b = 0; b < NB; ++b) {
            const __m256i h = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + b * 16));
            const __m512i w =
                _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16);
            acc[b] = _mm512_add_ps(acc[b], _mm512_castsi512_ps(w));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(out + b * 16, acc[b]);
}

template <int NB>
void
bagSamplePtrsInt8Avx512Body(float *out,
                            const std::uint8_t *const *rows,
                            std::size_t dim, std::size_t n)
{
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint8_t *row = rows[s];
        float scale, bias;
        std::memcpy(&scale, row + dim, sizeof(float));
        std::memcpy(&bias, row + dim + sizeof(float), sizeof(float));
        const __m512 vscale = _mm512_set1_ps(scale);
        const __m512 vbias = _mm512_set1_ps(bias);
        for (int b = 0; b < NB; ++b) {
            const __m128i q8 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + b * 16));
            const __m512 q =
                _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(q8));
            const __m512 t = _mm512_fmadd_ps(q, vscale, acc[b]);
            acc[b] = _mm512_add_ps(t, vbias);
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(out + b * 16, acc[b]);
}

bool
bagSamplePtrsF32Avx512(float *out, const std::uint8_t *const *rows,
                       std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 16 != 0 || dim > 128)
        return false;
    switch (dim / 16) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsF32Avx512Body<NB>(out, rows, n);                  \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSamplePtrsBf16Avx512(float *out, const std::uint8_t *const *rows,
                        std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 16 != 0 || dim > 128)
        return false;
    switch (dim / 16) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsBf16Avx512Body<NB>(out, rows, n);                 \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSamplePtrsInt8Avx512(float *out, const std::uint8_t *const *rows,
                        std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 16 != 0 || dim > 128)
        return false;
    switch (dim / 16) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsInt8Avx512Body<NB>(out, rows, dim, n);            \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

#endif // AVX512F

#if DLRMOPT_X86 && defined(__AVX2__)

/** Whole-sample bf16 bag at AVX2: 8-lane mirror of the zmm variant. */
template <int NB>
void
bagSampleBf16Avx2Body(float *out, const std::uint16_t *base,
                      std::size_t dim, const RowIndex *indices,
                      std::size_t begin, std::size_t end,
                      std::size_t total, std::size_t pfDist,
                      int pfLines)
{
    __m256 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm256_setzero_ps();
    for (std::size_t s = begin; s < end; ++s) {
        bagSamplePrefetch(base, dim * sizeof(std::uint16_t), indices, s,
                          total, pfDist, pfLines);
        const std::uint16_t *row =
            base + static_cast<std::size_t>(indices[s]) * dim;
        for (int b = 0; b < NB; ++b) {
            const __m128i h = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + b * 8));
            const __m256i w =
                _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
            acc[b] = _mm256_add_ps(acc[b], _mm256_castsi256_ps(w));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm256_storeu_ps(out + b * 8, acc[b]);
}

/** Whole-sample int8 bag at AVX2: 8-lane mirror of the zmm variant. */
template <int NB>
void
bagSampleInt8Avx2Body(float *out, const std::uint8_t *base,
                      std::size_t strideBytes, std::size_t dim,
                      const RowIndex *indices, std::size_t begin,
                      std::size_t end, std::size_t total,
                      std::size_t pfDist, int pfLines)
{
    __m256 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm256_setzero_ps();
    for (std::size_t s = begin; s < end; ++s) {
        bagSamplePrefetch(base, strideBytes, indices, s, total, pfDist,
                          pfLines);
        const std::uint8_t *row =
            base + static_cast<std::size_t>(indices[s]) * strideBytes;
        float scale, bias;
        std::memcpy(&scale, row + dim, sizeof(float));
        std::memcpy(&bias, row + dim + sizeof(float), sizeof(float));
        const __m256 vscale = _mm256_set1_ps(scale);
        const __m256 vbias = _mm256_set1_ps(bias);
        for (int b = 0; b < NB; ++b) {
            const __m128i q8 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(row + b * 8));
            const __m256 q =
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(q8));
            const __m256 t = _mm256_fmadd_ps(q, vscale, acc[b]);
            acc[b] = _mm256_add_ps(t, vbias);
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm256_storeu_ps(out + b * 8, acc[b]);
}

bool
bagSampleBf16Avx2(float *out, const std::uint16_t *base,
                  std::size_t dim, const RowIndex *indices,
                  std::size_t begin, std::size_t end, std::size_t total,
                  std::size_t pfDist, int pfLines)
{
    if (dim == 0 || dim % 8 != 0 || dim > 64)
        return false;
    switch (dim / 8) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSampleBf16Avx2Body<NB>(out, base, dim, indices, begin, end, \
                                  total, pfDist, pfLines);             \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSampleInt8Avx2(float *out, const std::uint8_t *base,
                  std::size_t strideBytes, std::size_t dim,
                  const RowIndex *indices, std::size_t begin,
                  std::size_t end, std::size_t total,
                  std::size_t pfDist, int pfLines)
{
    if (dim == 0 || dim % 8 != 0 || dim > 64)
        return false;
    switch (dim / 8) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSampleInt8Avx2Body<NB>(out, base, strideBytes, dim,         \
                                  indices, begin, end, total, pfDist,  \
                                  pfLines);                            \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}


/** Pointer-walking whole-sample bags at AVX2 (see the zmm variants). */
template <int NB>
void
bagSamplePtrsF32Avx2Body(float *out, const std::uint8_t *const *rows,
                         std::size_t n)
{
    __m256 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm256_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const float *row = reinterpret_cast<const float *>(rows[s]);
        for (int b = 0; b < NB; ++b) {
            acc[b] = _mm256_add_ps(acc[b],
                                   _mm256_loadu_ps(row + b * 8));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm256_storeu_ps(out + b * 8, acc[b]);
}

template <int NB>
void
bagSamplePtrsBf16Avx2Body(float *out, const std::uint8_t *const *rows,
                          std::size_t n)
{
    __m256 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm256_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint16_t *row =
            reinterpret_cast<const std::uint16_t *>(rows[s]);
        for (int b = 0; b < NB; ++b) {
            const __m128i h = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + b * 8));
            const __m256i w =
                _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
            acc[b] = _mm256_add_ps(acc[b], _mm256_castsi256_ps(w));
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm256_storeu_ps(out + b * 8, acc[b]);
}

template <int NB>
void
bagSamplePtrsInt8Avx2Body(float *out, const std::uint8_t *const *rows,
                          std::size_t dim, std::size_t n)
{
    __m256 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm256_setzero_ps();
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint8_t *row = rows[s];
        float scale, bias;
        std::memcpy(&scale, row + dim, sizeof(float));
        std::memcpy(&bias, row + dim + sizeof(float), sizeof(float));
        const __m256 vscale = _mm256_set1_ps(scale);
        const __m256 vbias = _mm256_set1_ps(bias);
        for (int b = 0; b < NB; ++b) {
            const __m128i q8 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(row + b * 8));
            const __m256 q =
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(q8));
            const __m256 t = _mm256_fmadd_ps(q, vscale, acc[b]);
            acc[b] = _mm256_add_ps(t, vbias);
        }
    }
    for (int b = 0; b < NB; ++b)
        _mm256_storeu_ps(out + b * 8, acc[b]);
}

bool
bagSamplePtrsF32Avx2(float *out, const std::uint8_t *const *rows,
                     std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 8 != 0 || dim > 64)
        return false;
    switch (dim / 8) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsF32Avx2Body<NB>(out, rows, n);                    \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSamplePtrsBf16Avx2(float *out, const std::uint8_t *const *rows,
                      std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 8 != 0 || dim > 64)
        return false;
    switch (dim / 8) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsBf16Avx2Body<NB>(out, rows, n);                   \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

bool
bagSamplePtrsInt8Avx2(float *out, const std::uint8_t *const *rows,
                      std::size_t n, std::size_t dim)
{
    if (dim == 0 || dim % 8 != 0 || dim > 64)
        return false;
    switch (dim / 8) {
#define DLRMOPT_BAG_CASE(NB)                                           \
      case NB:                                                         \
        bagSamplePtrsInt8Avx2Body<NB>(out, rows, dim, n);              \
        return true;
      DLRMOPT_BAG_CASE(1)
      DLRMOPT_BAG_CASE(2)
      DLRMOPT_BAG_CASE(3)
      DLRMOPT_BAG_CASE(4)
      DLRMOPT_BAG_CASE(5)
      DLRMOPT_BAG_CASE(6)
      DLRMOPT_BAG_CASE(7)
      DLRMOPT_BAG_CASE(8)
#undef DLRMOPT_BAG_CASE
    }
    return false;
}

#endif // AVX2

} // namespace

bool
bagSampleBf16(float *out, const std::uint16_t *base, std::size_t dim,
              const RowIndex *indices, std::size_t begin,
              std::size_t end, std::size_t total, std::size_t pfDist,
              int pfLines)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
#if DLRMOPT_X86 && defined(__AVX512F__)
        return bagSampleBf16Avx512(out, base, dim, indices, begin, end,
                                   total, pfDist, pfLines);
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if DLRMOPT_X86 && defined(__AVX2__)
        return bagSampleBf16Avx2(out, base, dim, indices, begin, end,
                                 total, pfDist, pfLines);
#else
        return false;
#endif
      default:
        return false;
    }
}

bool
bagSampleInt8(float *out, const std::uint8_t *base,
              std::size_t strideBytes, std::size_t dim,
              const RowIndex *indices, std::size_t begin,
              std::size_t end, std::size_t total, std::size_t pfDist,
              int pfLines)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
#if DLRMOPT_X86 && defined(__AVX512F__)
        return bagSampleInt8Avx512(out, base, strideBytes, dim, indices,
                                   begin, end, total, pfDist, pfLines);
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if DLRMOPT_X86 && defined(__AVX2__)
        return bagSampleInt8Avx2(out, base, strideBytes, dim, indices,
                                 begin, end, total, pfDist, pfLines);
#else
        return false;
#endif
      default:
        return false;
    }
}

bool
bagSamplePtrsF32(float *out, const std::uint8_t *const *rows,
                 std::size_t n, std::size_t dim)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
#if DLRMOPT_X86 && defined(__AVX512F__)
        return bagSamplePtrsF32Avx512(out, rows, n, dim);
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if DLRMOPT_X86 && defined(__AVX2__)
        return bagSamplePtrsF32Avx2(out, rows, n, dim);
#else
        return false;
#endif
      default:
        return false;
    }
}

bool
bagSamplePtrsBf16(float *out, const std::uint8_t *const *rows,
                  std::size_t n, std::size_t dim)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
#if DLRMOPT_X86 && defined(__AVX512F__)
        return bagSamplePtrsBf16Avx512(out, rows, n, dim);
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if DLRMOPT_X86 && defined(__AVX2__)
        return bagSamplePtrsBf16Avx2(out, rows, n, dim);
#else
        return false;
#endif
      default:
        return false;
    }
}

bool
bagSamplePtrsInt8(float *out, const std::uint8_t *const *rows,
                  std::size_t n, std::size_t dim)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
#if DLRMOPT_X86 && defined(__AVX512F__)
        return bagSamplePtrsInt8Avx512(out, rows, n, dim);
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if DLRMOPT_X86 && defined(__AVX2__)
        return bagSamplePtrsInt8Avx2(out, rows, n, dim);
#else
        return false;
#endif
      default:
        return false;
    }
}

namespace
{

// Fast-exp sigmoid: 1 / (1 + e^t), t = -x clamped so 2^n stays
// normal/finite, with e^t = 2^n * e^r, n = round(t * log2e), r the
// two-step Cody-Waite remainder, e^r a degree-6 polynomial (Cephes
// expf coefficients). All constants shared by the scalar-mirror lane
// and both vector widths so every path is bitwise-identical per
// element.
constexpr float kSigTMin = -87.0f;
constexpr float kSigTMax = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

/**
 * One sigmoid element exactly as a vector lane computes it: every
 * operation below is the scalar twin of the corresponding vector
 * intrinsic (fmaf <-> fmadd, nearbyintf <-> round-to-nearest-even,
 * IEEE +, *, /), so using this for an AVX2 tail keeps results
 * independent of where an element lands in the array.
 */
inline float
sigmoidLane(float x)
{
    float t = std::fmax(std::fmin(0.0f - x, kSigTMax), kSigTMin);
    const float n = std::nearbyintf(t * kLog2e);
    float r = std::fmaf(-n, kLn2Hi, t);
    r = std::fmaf(-n, kLn2Lo, r);
    float p = kExpP0;
    p = std::fmaf(p, r, kExpP1);
    p = std::fmaf(p, r, kExpP2);
    p = std::fmaf(p, r, kExpP3);
    p = std::fmaf(p, r, kExpP4);
    p = std::fmaf(p, r, kExpP5);
    const float r2 = r * r;
    const float er = std::fmaf(p, r2, r) + 1.0f;
    const std::int32_t bits = (static_cast<std::int32_t>(n) + 127)
                              << 23;
    float scale;
    std::memcpy(&scale, &bits, sizeof(scale));
    const float et = er * scale;
    return 1.0f / (1.0f + et);
}

} // namespace

void
sigmoidInplaceScalar(float *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
}

#if DLRMOPT_X86 && defined(__AVX2__)
void
sigmoidInplaceAvx2(float *data, std::size_t n)
{
    const __m256 vmax = _mm256_set1_ps(kSigTMax);
    const __m256 vmin = _mm256_set1_ps(kSigTMin);
    const __m256 vlog2e = _mm256_set1_ps(kLog2e);
    const __m256 vln2hi = _mm256_set1_ps(kLn2Hi);
    const __m256 vln2lo = _mm256_set1_ps(kLn2Lo);
    const __m256 vone = _mm256_set1_ps(1.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(data + i);
        const __m256 t = _mm256_max_ps(
            _mm256_min_ps(_mm256_sub_ps(_mm256_setzero_ps(), x), vmax),
            vmin);
        const __m256 nv = _mm256_round_ps(
            _mm256_mul_ps(t, vlog2e),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        __m256 r = _mm256_fnmadd_ps(nv, vln2hi, t);
        r = _mm256_fnmadd_ps(nv, vln2lo, r);
        __m256 p = _mm256_set1_ps(kExpP0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
        const __m256 r2 = _mm256_mul_ps(r, r);
        const __m256 er =
            _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), vone);
        const __m256i bits = _mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(nv),
                             _mm256_set1_epi32(127)),
            23);
        const __m256 et =
            _mm256_mul_ps(er, _mm256_castsi256_ps(bits));
        _mm256_storeu_ps(data + i,
                         _mm256_div_ps(vone, _mm256_add_ps(vone, et)));
    }
    for (; i < n; ++i)
        data[i] = sigmoidLane(data[i]);
}
#else
void
sigmoidInplaceAvx2(float *data, std::size_t n)
{
    sigmoidInplaceScalar(data, n);
}
#endif

#if DLRMOPT_X86 && defined(__AVX512F__)
void
sigmoidInplaceAvx512(float *data, std::size_t n)
{
    const __m512 vmax = _mm512_set1_ps(kSigTMax);
    const __m512 vmin = _mm512_set1_ps(kSigTMin);
    const __m512 vlog2e = _mm512_set1_ps(kLog2e);
    const __m512 vln2hi = _mm512_set1_ps(kLn2Hi);
    const __m512 vln2lo = _mm512_set1_ps(kLn2Lo);
    const __m512 vone = _mm512_set1_ps(1.0f);
    for (std::size_t i = 0; i < n; i += 16) {
        const std::size_t rem = n - i;
        const __mmask16 mask =
            rem >= 16 ? static_cast<__mmask16>(0xffff)
                      : static_cast<__mmask16>((1u << rem) - 1u);
        const __m512 x = _mm512_maskz_loadu_ps(mask, data + i);
        const __m512 t = _mm512_max_ps(
            _mm512_min_ps(_mm512_sub_ps(_mm512_setzero_ps(), x), vmax),
            vmin);
        const __m512 nv = _mm512_roundscale_ps(
            _mm512_mul_ps(t, vlog2e),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        __m512 r = _mm512_fnmadd_ps(nv, vln2hi, t);
        r = _mm512_fnmadd_ps(nv, vln2lo, r);
        __m512 p = _mm512_set1_ps(kExpP0);
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP1));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP2));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP3));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP4));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP5));
        const __m512 r2 = _mm512_mul_ps(r, r);
        const __m512 er =
            _mm512_add_ps(_mm512_fmadd_ps(p, r2, r), vone);
        const __m512i bits = _mm512_slli_epi32(
            _mm512_add_epi32(_mm512_cvtps_epi32(nv),
                             _mm512_set1_epi32(127)),
            23);
        const __m512 et =
            _mm512_mul_ps(er, _mm512_castsi512_ps(bits));
        _mm512_mask_storeu_ps(
            data + i, mask,
            _mm512_div_ps(vone, _mm512_add_ps(vone, et)));
    }
}
#else
void
sigmoidInplaceAvx512(float *data, std::size_t n)
{
    sigmoidInplaceAvx2(data, n);
}
#endif

void
accumulateRow(float *out, const float *row, std::size_t n)
{
    switch (activeLevel.load(std::memory_order_relaxed)) {
      case SimdLevel::Avx512:
        accumulateRowAvx512(out, row, n);
        return;
      case SimdLevel::Avx2:
        accumulateRowAvx2(out, row, n);
        return;
      default:
        accumulateRowScalar(out, row, n);
        return;
    }
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    const SimdLevel cap = detectSimdLevel();
    if (static_cast<int>(level) > static_cast<int>(cap))
        level = cap;
    activeLevel.store(level, std::memory_order_relaxed);
    return level;
}

SimdLevel
currentSimdLevel()
{
    return activeLevel.load(std::memory_order_relaxed);
}

} // namespace dlrmopt::core
