/**
 * @file
 * Unit tests for the dense-layer kernels: blocked kernel vs the naive
 * reference, bias/ReLU handling, a parameterized shape sweep, the
 * packed register-blocked microkernel engine (tolerance vs the
 * reference, bitwise invariance across SimdLevels / tiles / batch
 * position, degenerate shapes) and the PackedWeights panel layout.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/gemm.hpp"
#include "core/simd.hpp"
#include "core/tensor.hpp"

namespace
{

using namespace dlrmopt::core;

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<float>(
            dlrmopt::toUnitInterval(dlrmopt::mix64(seed + i)) - 0.5);
    }
    return v;
}

TEST(DenseLayer, MatchesHandComputedTinyCase)
{
    // 1 sample, 2 inputs, 1 output: out = 1*3 + 2*4 + 10 = 21.
    const float in[] = {1.0f, 2.0f};
    const float w[] = {3.0f, 4.0f};
    const float b[] = {10.0f};
    float out[1] = {-1.0f};
    denseLayerForward(in, 1, 2, w, b, 1, out, false);
    EXPECT_FLOAT_EQ(out[0], 21.0f);
}

TEST(DenseLayer, ReluClampsNegatives)
{
    const float in[] = {1.0f};
    const float w[] = {-2.0f};
    float out[1];
    denseLayerForward(in, 1, 1, w, nullptr, 1, out, true);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    denseLayerForward(in, 1, 1, w, nullptr, 1, out, false);
    EXPECT_FLOAT_EQ(out[0], -2.0f);
}

TEST(DenseLayer, NullBiasMeansZeroBias)
{
    const float in[] = {2.0f};
    const float w[] = {3.0f};
    float out[1];
    denseLayerForward(in, 1, 1, w, nullptr, 1, out, false);
    EXPECT_FLOAT_EQ(out[0], 6.0f);
}

/** Shape sweep: blocked kernel must match the reference everywhere,
 *  including shapes that don't divide the tile sizes. */
class DenseLayerShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, bool>>
{
};

TEST_P(DenseLayerShapes, BlockedMatchesReference)
{
    const auto [batch, in_dim, out_dim, relu] = GetParam();
    const auto in = randomVec(batch * in_dim, 1);
    const auto w = randomVec(out_dim * in_dim, 2);
    const auto b = randomVec(out_dim, 3);

    std::vector<float> got(batch * out_dim), want(batch * out_dim);
    denseLayerForward(in.data(), batch, in_dim, w.data(), b.data(),
                      out_dim, got.data(), relu);
    denseLayerForwardRef(in.data(), batch, in_dim, w.data(), b.data(),
                         out_dim, want.data(), relu);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseLayerShapes,
    ::testing::Values(
        std::make_tuple(1, 1, 1, false),
        std::make_tuple(1, 256, 128, true),
        std::make_tuple(64, 256, 128, true),   // rm2_1 bottom layer 0
        std::make_tuple(64, 128, 128, true),
        std::make_tuple(64, 128, 64, true),    // rm2_1 top hidden
        std::make_tuple(64, 64, 1, false),     // final CTR layer
        std::make_tuple(3, 300, 70, true),     // off-tile shapes
        std::make_tuple(7, 257, 65, false),
        std::make_tuple(2, 1000, 3, true)));

TEST(DenseLayer, ZeroBatchNeverTouchesOutput)
{
    // Regression: the old kernel ran its bias-init pass over
    // [batch x out_dim] even for batch == 0 reads/writes of size 0,
    // but the contract is stronger — out must not be dereferenced at
    // all (callers may pass a null or undersized pointer for an empty
    // batch).
    const float w[] = {1.0f, 2.0f};
    const float b[] = {5.0f};
    denseLayerForward(nullptr, 0, 2, w, b, 1, nullptr, true);

    float sentinel = -7.0f;
    denseLayerForward(nullptr, 0, 2, w, b, 1, &sentinel, true);
    EXPECT_FLOAT_EQ(sentinel, -7.0f);
}

TEST(DenseLayer, ZeroOutDimIsANoOp)
{
    const float in[] = {1.0f, 2.0f};
    denseLayerForward(in, 1, 2, nullptr, nullptr, 0, nullptr, true);
}

TEST(DenseLayer, ZeroInDimReducesToBiasEpilogue)
{
    const float b[] = {2.0f, -3.0f};
    float out[4] = {9.0f, 9.0f, 9.0f, 9.0f};
    denseLayerForward(nullptr, 2, 0, nullptr, b, 2, out, true);
    EXPECT_FLOAT_EQ(out[0], 2.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f); // ReLU clamps the negative bias
    EXPECT_FLOAT_EQ(out[2], 2.0f);
    EXPECT_FLOAT_EQ(out[3], 0.0f);

    denseLayerForward(nullptr, 1, 0, nullptr, b, 2, out, false);
    EXPECT_FLOAT_EQ(out[1], -3.0f);
}

/** Restores the global dispatch level on scope exit. */
struct SimdLevelGuard
{
    SimdLevel saved = currentSimdLevel();
    ~SimdLevelGuard() { setSimdLevel(saved); }
};

constexpr SimdLevel kLevels[] = {SimdLevel::Scalar, SimdLevel::Avx2,
                                 SimdLevel::Avx512};

TEST(PackedWeights, PanelLayoutMatchesSpec)
{
    const std::size_t in_dim = 5, out_dim = 21; // 2 panels, 5-wide tail
    const auto w = randomVec(out_dim * in_dim, 17);
    const PackedWeights p(w.data(), in_dim, out_dim);

    EXPECT_EQ(p.inDim(), in_dim);
    EXPECT_EQ(p.outDim(), out_dim);
    EXPECT_EQ(p.numPanels(), 2u);
    EXPECT_EQ(p.bytes(),
              2 * in_dim * PackedWeights::panelWidth * sizeof(float));
    EXPECT_FALSE(p.empty());

    constexpr std::size_t pw = PackedWeights::panelWidth;
    for (std::size_t pi = 0; pi < p.numPanels(); ++pi) {
        for (std::size_t k = 0; k < in_dim; ++k) {
            for (std::size_t j = 0; j < pw; ++j) {
                const std::size_t o = pi * pw + j;
                const float want =
                    o < out_dim ? w[o * in_dim + k] : 0.0f;
                EXPECT_EQ(p.panel(pi)[k * pw + j], want)
                    << "panel " << pi << " k " << k << " j " << j;
            }
        }
    }
}

TEST(PackedWeights, EmptyAndThrowingConstruction)
{
    const PackedWeights empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.numPanels(), 0u);
    EXPECT_EQ(empty.bytes(), 0u);

    EXPECT_THROW(PackedWeights(nullptr, 4, 4), std::invalid_argument);
    // Empty shapes accept a null source.
    const PackedWeights zero_out(nullptr, 4, 0);
    EXPECT_TRUE(zero_out.empty());
}

/** Packed engine vs reference across every dispatch level and odd
 *  shapes: prime dims, tail-only panels, sub-tile out_dim, GEMV. */
class PackedGemmShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, bool>>
{
};

TEST_P(PackedGemmShapes, MatchesReferenceAtEveryLevel)
{
    const auto [batch, in_dim, out_dim, relu] = GetParam();
    const auto in = randomVec(batch * in_dim, 21);
    const auto w = randomVec(out_dim * in_dim, 22);
    const auto b = randomVec(out_dim, 23);
    const PackedWeights packed(w.data(), in_dim, out_dim);

    std::vector<float> want(batch * out_dim);
    denseLayerForwardRef(in.data(), batch, in_dim, w.data(), b.data(),
                         out_dim, want.data(), relu);

    for (const SimdLevel level : kLevels) {
        std::vector<float> got(batch * out_dim, -99.0f);
        denseLayerForwardPackedLevel(level, in.data(), batch, packed,
                                     b.data(), got.data(), relu);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_NEAR(got[i], want[i], 1e-3f)
                << "level " << static_cast<int>(level) << " at " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemmShapes,
    ::testing::Values(
        std::make_tuple(1, 1, 1, false),
        std::make_tuple(1, 256, 128, true),    // GEMV-shaped path
        std::make_tuple(64, 256, 128, true),   // rm2_1 bottom layer 0
        std::make_tuple(64, 64, 1, false),     // final CTR layer
        std::make_tuple(7, 131, 17, true),     // prime dims
        std::make_tuple(5, 33, 9, false),      // tail-only panel
        std::make_tuple(3, 17, 16, true),      // exactly one panel
        std::make_tuple(13, 57, 31, true),     // 16 + 15-wide tail
        std::make_tuple(128, 512, 48, false))); // multi-tile m and n

TEST(PackedGemm, BitwiseIdenticalAcrossLevels)
{
    const std::size_t batch = 23, in_dim = 147, out_dim = 37;
    const auto in = randomVec(batch * in_dim, 31);
    const auto w = randomVec(out_dim * in_dim, 32);
    const auto b = randomVec(out_dim, 33);
    const PackedWeights packed(w.data(), in_dim, out_dim);

    std::vector<float> scalar(batch * out_dim);
    denseLayerForwardPackedLevel(SimdLevel::Scalar, in.data(), batch,
                                 packed, b.data(), scalar.data(), true);
    for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
        std::vector<float> got(batch * out_dim);
        denseLayerForwardPackedLevel(level, in.data(), batch, packed,
                                     b.data(), got.data(), true);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(scalar[i], got[i])
                << "level " << static_cast<int>(level) << " at " << i;
        }
    }
}

TEST(PackedGemm, BitwiseIndependentOfTileChoice)
{
    const std::size_t batch = 11, in_dim = 300, out_dim = 29;
    const auto in = randomVec(batch * in_dim, 41);
    const auto w = randomVec(out_dim * in_dim, 42);
    const auto b = randomVec(out_dim, 43);
    const PackedWeights packed(w.data(), in_dim, out_dim);

    std::vector<float> want(batch * out_dim);
    denseLayerForwardPackedLevel(currentSimdLevel(), in.data(), batch,
                                 packed, b.data(), want.data(), true);
    // k-chunking (kc) forces store/reload roundtrips between chunks,
    // and mr changes which rows share a microtile — neither may change
    // a single bit.
    for (const GemmTile tile :
         {GemmTile{1, 0}, GemmTile{2, 64}, GemmTile{4, 128},
          GemmTile{6, 37}, GemmTile{3, 1}}) {
        std::vector<float> got(batch * out_dim);
        denseLayerForwardPackedLevel(currentSimdLevel(), in.data(),
                                     batch, packed, b.data(),
                                     got.data(), true, tile);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(want[i], got[i]) << "tile {" << tile.mr << ","
                                       << tile.kc << "} at " << i;
        }
    }
}

TEST(PackedGemm, FixedRuleMatchesFullDepthBitwise)
{
    // GemmTile{} (the rule every production forward runs) chunks k at
    // 256 for batched m; full depth is the alternative it is measured
    // against. Depth 700 spans three chunks, including a partial one.
    const std::size_t in_dim = 700, out_dim = 37;
    const auto w = randomVec(out_dim * in_dim, 61);
    const auto b = randomVec(out_dim, 62);
    const PackedWeights packed(w.data(), in_dim, out_dim);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
        const auto in = randomVec(batch * in_dim, 63);
        std::vector<float> served(batch * out_dim);
        denseLayerForwardPacked(in.data(), batch, packed, b.data(),
                                served.data(), true);
        for (const SimdLevel level :
             {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
            std::vector<float> rule(batch * out_dim);
            std::vector<float> full(batch * out_dim);
            denseLayerForwardPackedLevel(level, in.data(), batch, packed,
                                         b.data(), rule.data(), true);
            denseLayerForwardPackedLevel(level, in.data(), batch, packed,
                                         b.data(), full.data(), true,
                                         GemmTile{0, in_dim});
            for (std::size_t i = 0; i < rule.size(); ++i) {
                ASSERT_EQ(served[i], rule[i])
                    << "m " << batch << " level "
                    << static_cast<int>(level) << " at " << i;
                ASSERT_EQ(full[i], rule[i])
                    << "m " << batch << " level "
                    << static_cast<int>(level) << " at " << i;
            }
        }
    }
}

TEST(PackedGemm, BitwiseIndependentOfBatchPosition)
{
    // Row r of a coalesced batch must equal the same sample run alone
    // (the property the serving layer's request coalescing asserts).
    const std::size_t batch = 9, in_dim = 123, out_dim = 21;
    const auto in = randomVec(batch * in_dim, 51);
    const auto w = randomVec(out_dim * in_dim, 52);
    const auto b = randomVec(out_dim, 53);
    const PackedWeights packed(w.data(), in_dim, out_dim);

    std::vector<float> batched(batch * out_dim);
    denseLayerForwardPacked(in.data(), batch, packed, b.data(),
                            batched.data(), true);
    std::vector<float> alone(out_dim);
    for (std::size_t r = 0; r < batch; ++r) {
        denseLayerForwardPacked(in.data() + r * in_dim, 1, packed,
                                b.data(), alone.data(), true);
        for (std::size_t j = 0; j < out_dim; ++j)
            ASSERT_EQ(batched[r * out_dim + j], alone[j])
                << "row " << r << " col " << j;
    }
}

TEST(PackedGemm, RepeatedForwardIsBitReproducible)
{
    SimdLevelGuard guard;
    const std::size_t batch = 6, in_dim = 77, out_dim = 19;
    const auto in = randomVec(batch * in_dim, 61);
    const auto w = randomVec(out_dim * in_dim, 62);
    const auto b = randomVec(out_dim, 63);
    const PackedWeights packed(w.data(), in_dim, out_dim);

    std::vector<float> first(batch * out_dim);
    denseLayerForwardPacked(in.data(), batch, packed, b.data(),
                            first.data(), false);
    for (int rep = 0; rep < 3; ++rep) {
        setSimdLevel(kLevels[rep % 3]); // dispatch must not matter
        std::vector<float> again(batch * out_dim);
        denseLayerForwardPacked(in.data(), batch, packed, b.data(),
                                again.data(), false);
        for (std::size_t i = 0; i < again.size(); ++i)
            ASSERT_EQ(first[i], again[i]) << "rep " << rep << " at " << i;
    }
}

TEST(PackedGemm, DegenerateShapes)
{
    // batch == 0: out never touched.
    const auto w = randomVec(8, 71);
    const PackedWeights packed(w.data(), 4, 2);
    float sentinel = -7.0f;
    denseLayerForwardPacked(nullptr, 0, packed, nullptr, &sentinel,
                            true);
    EXPECT_FLOAT_EQ(sentinel, -7.0f);

    // out_dim == 0: no-op.
    const PackedWeights none(nullptr, 4, 0);
    const float in4[] = {1.0f, 2.0f, 3.0f, 4.0f};
    denseLayerForwardPacked(in4, 1, none, nullptr, nullptr, true);

    // in_dim == 0: epilogue only (bias + ReLU), at every level.
    const PackedWeights kless(nullptr, 0, 2);
    const float b[] = {1.5f, -2.5f};
    for (const SimdLevel level : kLevels) {
        float out[2] = {9.0f, 9.0f};
        denseLayerForwardPackedLevel(level, nullptr, 1, kless, b, out,
                                     true);
        EXPECT_FLOAT_EQ(out[0], 1.5f);
        EXPECT_FLOAT_EQ(out[1], 0.0f);
    }

    // out_dim smaller than one tile with a null bias.
    const std::size_t in_dim = 10, out_dim = 3;
    const auto w2 = randomVec(out_dim * in_dim, 72);
    const auto in2 = randomVec(2 * in_dim, 73);
    const PackedWeights p2(w2.data(), in_dim, out_dim);
    std::vector<float> got(2 * out_dim), want(2 * out_dim);
    denseLayerForwardPacked(in2.data(), 2, p2, nullptr, got.data(),
                            false);
    denseLayerForwardRef(in2.data(), 2, in_dim, w2.data(), nullptr,
                         out_dim, want.data(), false);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-3f);
}

/** The quad-interleaved panel (the layout vpdpbusd consumes) must
 *  hold exactly the codes of a per-column symmetric quantization of
 *  the weights (scale maxabs / 127, round to nearest, clamp to
 *  +-127), with zero codes in the padding. */
TEST(PackedWeightsInt8, VnniPanelHoldsSameCodes)
{
    const std::size_t in_dim = 27, out_dim = 21; // odd depth + tail
    std::vector<float> w(out_dim * in_dim);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = std::sin(static_cast<float>(i) * 0.37f);
    const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);

    // paddedK is a multiple of 4 (k-quad granularity of vpdpbusd).
    EXPECT_EQ(pack.paddedK() % 4, 0u);
    EXPECT_GE(pack.paddedK(), in_dim);

    constexpr std::size_t pw = PackedWeightsInt8::panelWidth;
    for (std::size_t p = 0; p < pack.numPanels(); ++p) {
        const std::int8_t *quad = pack.panel(p);
        for (std::size_t j = 0; j < pw; ++j) {
            const std::size_t n = p * pw + j;
            float maxabs = 0.0f;
            for (std::size_t k = 0; n < out_dim && k < in_dim; ++k)
                maxabs = std::fmax(maxabs, std::fabs(w[n * in_dim + k]));
            const float inv =
                1.0f / (maxabs > 0.0f ? maxabs / 127.0f : 1.0f);
            for (std::size_t k = 0; k < pack.paddedK(); ++k) {
                const int code = quad[(k / 4) * 4 * pw + j * 4 + (k & 3)];
                const int want =
                    n < out_dim && k < in_dim
                        ? static_cast<int>(std::fmin(
                              std::fmax(std::nearbyintf(
                                            w[n * in_dim + k] * inv),
                                        -127.0f),
                              127.0f))
                        : 0;
                EXPECT_EQ(code, want)
                    << "panel " << p << " k " << k << " j " << j;
            }
        }
    }
}

/**
 * The vpdpbusd path must be bitwise-identical to the widening
 * (maddubs) path: both accumulate the exact integer dot, and the
 * float epilogue is shared. The AVX-512 level dispatches VNNI on a
 * VNNI host, the AVX2 level the widening kernels.
 */
TEST(PackedWeightsInt8, VnniBitwiseMatchesWideningPath)
{
    if (detectSimdLevel() != SimdLevel::Avx512 || !cpuHasAvx512Vnni())
        GTEST_SKIP() << "needs AVX512-VNNI";

    for (const auto& [in_dim, out_dim, batch] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{64, 32, 8},
          {27, 21, 5},  // odd depth, tail panel, odd batch
          {13, 1, 1},   // GEMV
          {128, 64, 17}}) {
        std::vector<float> w(out_dim * in_dim), in(batch * in_dim);
        std::vector<float> bias(out_dim);
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = std::cos(static_cast<float>(i) * 0.21f) * 0.4f;
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = std::sin(static_cast<float>(i) * 0.83f);
        for (std::size_t i = 0; i < bias.size(); ++i)
            bias[i] = 0.02f * static_cast<float>(i) - 0.3f;

        const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);
        std::vector<std::uint8_t> qin(batch * pack.activationStride());
        quantizeActivationsInt8(in.data(), batch, in_dim,
                                pack.activationStride(), qin.data());

        std::vector<float> widened(batch * out_dim, -7.0f);
        std::vector<float> vnni(batch * out_dim, 3.0f);
        denseLayerForwardPackedInt8Level(SimdLevel::Avx2, qin.data(),
                                         batch, pack, bias.data(),
                                         widened.data(), true);
        denseLayerForwardPackedInt8Level(SimdLevel::Avx512, qin.data(),
                                         batch, pack, bias.data(),
                                         vnni.data(), true);

        for (std::size_t i = 0; i < widened.size(); ++i)
            ASSERT_EQ(widened[i], vnni[i])
                << "element " << i << " (" << in_dim << "x" << out_dim
                << " batch " << batch << ")";
    }
}

TEST(Sigmoid, MapsToUnitInterval)
{
    float v[] = {-100.0f, -1.0f, 0.0f, 1.0f, 100.0f};
    sigmoidInplace(v, 5);
    EXPECT_NEAR(v[0], 0.0f, 1e-6f);
    EXPECT_NEAR(v[1], 1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
    EXPECT_FLOAT_EQ(v[2], 0.5f);
    EXPECT_NEAR(v[3], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
    EXPECT_NEAR(v[4], 1.0f, 1e-6f);
    // Monotone.
    for (int i = 1; i < 5; ++i)
        EXPECT_GT(v[i], v[i - 1]);
}

} // namespace
