/**
 * @file
 * Unit tests for the dot-product feature interaction.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/interaction.hpp"

namespace
{

using namespace dlrmopt::core;

TEST(Interaction, OutputDimFormula)
{
    EXPECT_EQ(interactionOutputDim(0, 64), 64u);
    EXPECT_EQ(interactionOutputDim(1, 64), 64u + 1u);
    EXPECT_EQ(interactionOutputDim(2, 64), 64u + 3u);
    // rm2_1: 60 tables, dim 128 -> 128 + 60*61/2 = 1958.
    EXPECT_EQ(interactionOutputDim(60, 128), 1958u);
    // rm1: 32 tables, dim 64 -> 64 + 32*33/2 = 592.
    EXPECT_EQ(interactionOutputDim(32, 64), 592u);
}

TEST(Interaction, HandComputedTwoTables)
{
    // dim=2, batch=1, bottom=(1,2), emb0=(3,4), emb1=(5,6).
    const float bottom[] = {1.0f, 2.0f};
    const float e0[] = {3.0f, 4.0f};
    const float e1[] = {5.0f, 6.0f};
    std::vector<const float *> emb = {e0, e1};
    std::vector<float> out(interactionOutputDim(2, 2));
    dotInteraction(bottom, emb, 2, 1, 2, out.data());

    // Passthrough.
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[1], 2.0f);
    // e0 . bottom = 3 + 8 = 11.
    EXPECT_FLOAT_EQ(out[2], 11.0f);
    // e1 . bottom = 5 + 12 = 17.
    EXPECT_FLOAT_EQ(out[3], 17.0f);
    // e1 . e0 = 15 + 24 = 39.
    EXPECT_FLOAT_EQ(out[4], 39.0f);
}

TEST(Interaction, BatchRowsAreIndependent)
{
    // Two samples with identical content must produce identical rows.
    const float bottom[] = {1.0f, 0.0f, 1.0f, 0.0f};
    const float e0[] = {2.0f, 3.0f, 2.0f, 3.0f};
    std::vector<const float *> emb = {e0};
    const std::size_t od = interactionOutputDim(1, 2);
    std::vector<float> out(2 * od);
    dotInteraction(bottom, emb, 1, 2, 2, out.data());
    for (std::size_t k = 0; k < od; ++k)
        EXPECT_FLOAT_EQ(out[k], out[od + k]);
}

TEST(Interaction, ZeroEmbeddingsYieldZeroDots)
{
    const float bottom[] = {1.0f, 2.0f};
    std::vector<float> zeros(2, 0.0f);
    std::vector<const float *> emb = {zeros.data(), zeros.data()};
    std::vector<float> out(interactionOutputDim(2, 2));
    dotInteraction(bottom, emb, 2, 1, 2, out.data());
    EXPECT_FLOAT_EQ(out[2], 0.0f);
    EXPECT_FLOAT_EQ(out[3], 0.0f);
    EXPECT_FLOAT_EQ(out[4], 0.0f);
}

TEST(Interaction, SymmetricInputsProduceSymmetricDots)
{
    // If emb0 == emb1, then e0.bottom == e1.bottom.
    const float bottom[] = {1.0f, 1.0f};
    const float e[] = {4.0f, 5.0f};
    std::vector<const float *> emb = {e, e};
    std::vector<float> out(interactionOutputDim(2, 2));
    dotInteraction(bottom, emb, 2, 1, 2, out.data());
    EXPECT_FLOAT_EQ(out[2], out[3]);
}

} // namespace
