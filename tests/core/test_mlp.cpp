/**
 * @file
 * Unit tests for the Mlp stack.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/gemm.hpp"
#include "core/mlp.hpp"
#include "core/simd.hpp"

namespace
{

using namespace dlrmopt::core;

TEST(Mlp, ShapesFollowDims)
{
    Mlp m({256, 128, 128}, 1);
    EXPECT_EQ(m.inputDim(), 256u);
    EXPECT_EQ(m.outputDim(), 128u);
    EXPECT_EQ(m.numLayers(), 2u);
}

TEST(Mlp, RejectsDegenerateDims)
{
    EXPECT_THROW(Mlp({128}, 1), std::invalid_argument);
    EXPECT_THROW(Mlp({}, 1), std::invalid_argument);
}

TEST(Mlp, FlopsPerSampleIsTwiceWeightCount)
{
    Mlp m({10, 20, 5}, 1);
    EXPECT_DOUBLE_EQ(m.flopsPerSample(), 2.0 * (10 * 20 + 20 * 5));
}

TEST(Mlp, ForwardProducesCorrectShape)
{
    Mlp m({256, 128, 128}, 1);
    Tensor in(64, 256);
    in.randomize(5);
    Tensor out;
    m.forward(in, out);
    EXPECT_EQ(out.rows(), 64u);
    EXPECT_EQ(out.cols(), 128u);
}

TEST(Mlp, ForwardIsDeterministic)
{
    Mlp m({64, 32, 8}, 9);
    Tensor in(4, 64);
    in.randomize(11);
    Tensor out1, out2;
    m.forward(in, out1);
    m.forward(in, out2);
    for (std::size_t i = 0; i < out1.size(); ++i)
        EXPECT_EQ(out1.data()[i], out2.data()[i]);
}

TEST(Mlp, SameSeedSameWeights)
{
    Mlp a({32, 16, 4}, 77);
    Mlp b({32, 16, 4}, 77);
    Tensor in(2, 32);
    in.randomize(3);
    Tensor oa, ob;
    a.forward(in, oa);
    b.forward(in, ob);
    for (std::size_t i = 0; i < oa.size(); ++i)
        EXPECT_EQ(oa.data()[i], ob.data()[i]);
}

TEST(Mlp, DifferentSeedsDifferentOutputs)
{
    Mlp a({32, 16, 4}, 1);
    Mlp b({32, 16, 4}, 2);
    Tensor in(2, 32);
    in.randomize(3);
    Tensor oa, ob;
    a.forward(in, oa);
    b.forward(in, ob);
    int diff = 0;
    for (std::size_t i = 0; i < oa.size(); ++i)
        diff += oa.data()[i] != ob.data()[i];
    EXPECT_GT(diff, 0);
}

TEST(Mlp, SingleLayerMatchesDenseKernel)
{
    Mlp m({8, 3}, 4);
    Tensor in(5, 8);
    in.randomize(21);
    Tensor out;
    m.forward(in, out);
    // The final layer is linear (no ReLU): negative values must
    // survive.
    bool has_negative = false;
    for (std::size_t i = 0; i < out.size(); ++i)
        has_negative |= out.data()[i] < 0.0f;
    EXPECT_TRUE(has_negative);
}

TEST(Mlp, PackedLayersMatchConstructionShapes)
{
    Mlp m({256, 128, 17}, 6);
    ASSERT_EQ(m.numLayers(), 2u);
    EXPECT_EQ(m.packedLayer(0).inDim(), 256u);
    EXPECT_EQ(m.packedLayer(0).outDim(), 128u);
    EXPECT_EQ(m.packedLayer(1).inDim(), 128u);
    EXPECT_EQ(m.packedLayer(1).outDim(), 17u); // tail panel, padded
    EXPECT_EQ(m.packedLayer(1).numPanels(), 2u);
    EXPECT_EQ(m.packedBytes(),
              m.packedLayer(0).bytes() + m.packedLayer(1).bytes());
}

TEST(Mlp, PackedForwardBitwiseIdenticalAcrossSimdLevels)
{
    // The whole stack, not just one layer: every hidden activation is
    // produced by the packed kernel and re-consumed by the next layer,
    // so any cross-level divergence would compound and be caught here.
    const SimdLevel saved = currentSimdLevel();
    Mlp m({96, 64, 32, 1}, 15);
    Tensor in(13, 96);
    in.randomize(8);

    setSimdLevel(SimdLevel::Scalar);
    Tensor want;
    m.forward(in, want);
    for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
        setSimdLevel(level);
        Tensor got;
        m.forward(in, got);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(want.data()[i], got.data()[i])
                << "level " << static_cast<int>(level) << " at " << i;
    }
    setSimdLevel(saved);
}

TEST(Mlp, ScratchForwardStillBitwiseIdentical)
{
    // The zero-alloc overload shares the packed engine; its ping-pong
    // scratch must not change a bit vs. the allocating overload.
    Mlp m({64, 48, 16}, 23);
    Tensor in(9, 64);
    in.randomize(31);
    Tensor want, got, sa, sb;
    m.forward(in, want);
    m.forward(in, got, sa, sb);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(want.data()[i], got.data()[i]);
}

TEST(Mlp, HiddenLayersApplyRelu)
{
    // With ReLU on hidden layers, feeding the negated input can only
    // change the output (check the nonlinearity is actually there).
    Mlp m({16, 16, 1}, 13);
    Tensor in(1, 16), neg(1, 16);
    in.randomize(5);
    for (std::size_t i = 0; i < 16; ++i)
        neg.data()[i] = -in.data()[i];
    Tensor o1, o2;
    m.forward(in, o1);
    m.forward(neg, o2);
    EXPECT_NE(o1.at(0, 0), -o2.at(0, 0)); // a linear map would negate
}

TEST(Mlp, Int8RunsOnlyTheLayersWhoseFp32PackSpills)
{
    // 1040x1024 holds 4.1 MB of fp32 weights, above
    // kInt8MinPackBytes; the two small layers stay on the fp32 engine
    // even under int8, so the int8 forward must equal layer 0 through
    // the u8·s8 kernel followed by the fp32 packed layers, bitwise.
    Mlp m({1040, 1024, 64, 8}, 3);
    ASSERT_TRUE(m.int8Layer(0));
    EXPECT_FALSE(m.int8Layer(1));
    EXPECT_FALSE(m.int8Layer(2));
    EXPECT_EQ(m.maxInt8ActivationStride(),
              PackedWeightsInt8::activationStrideFor(1040));
    EXPECT_EQ(m.int8PackedBytes(), 0u);

    const std::size_t batch = 5;
    Tensor in(batch, 1040);
    in.randomize(41);
    Tensor got;
    m.forward(in, got, true);
    EXPECT_GT(m.int8PackedBytes(), 0u);

    const PackedWeightsInt8 q0(m.layerWeights(0).data(), 1040, 1024);
    std::vector<std::uint8_t> qscratch;
    std::vector<float> h0(batch * 1024), h1(batch * 64),
        want(batch * 8);
    denseLayerForwardInt8(in.data(), batch, q0, m.layerBias(0).data(),
                          h0.data(), true, qscratch);
    denseLayerForwardPacked(h0.data(), batch, m.packedLayer(1),
                            m.layerBias(1).data(), h1.data(), true);
    denseLayerForwardPacked(h1.data(), batch, m.packedLayer(2),
                            m.layerBias(2).data(), want.data(), false);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0);

    Tensor fp32;
    m.forward(in, fp32);
    EXPECT_NE(std::memcmp(got.data(), fp32.data(),
                          fp32.size() * sizeof(float)),
              0);
}

TEST(Mlp, Int8IsTheFp32ForwardWhenNoLayerSpills)
{
    Mlp m({256, 128, 128}, 8);
    for (std::size_t l = 0; l < m.numLayers(); ++l)
        EXPECT_FALSE(m.int8Layer(l));
    EXPECT_EQ(m.maxInt8ActivationStride(), 0u);
    Tensor in(7, 256);
    in.randomize(2);
    Tensor fp32, int8;
    m.forward(in, fp32);
    m.forward(in, int8, true);
    ASSERT_EQ(int8.size(), fp32.size());
    EXPECT_EQ(std::memcmp(int8.data(), fp32.data(),
                          fp32.size() * sizeof(float)),
              0);
    EXPECT_EQ(m.int8PackedBytes(), 0u);
}

} // namespace
