/**
 * @file
 * Tests for the prefetch auto-tuner (structure and determinism of
 * the search, not absolute timings).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/autotune.hpp"

namespace
{

using namespace dlrmopt::core;
using dlrmopt::RowIndex;

TEST(TuneGrid, CoversPaperSweepAndDeduplicates)
{
    const auto grid8 = defaultTuneGrid(8);
    // 5 distances x 3 amounts, all distinct for 8-line rows.
    EXPECT_EQ(grid8.size(), 15u);
    for (const auto& s : grid8) {
        EXPECT_TRUE(s.enabled());
        EXPECT_LE(s.lines, 8);
        EXPECT_EQ(s.locality, 3);
    }

    // With 2-line rows, amounts {2, 4, full} collapse to {2}.
    const auto grid2 = defaultTuneGrid(2);
    EXPECT_EQ(grid2.size(), 5u);
    for (const auto& s : grid2)
        EXPECT_EQ(s.lines, 2);
}

class AutotuneTest : public ::testing::Test
{
  protected:
    AutotuneTest() : table(4096, 64, 11)
    {
        offsets.push_back(0);
        for (std::size_t s = 0; s < 16; ++s) {
            for (std::size_t l = 0; l < 20; ++l) {
                indices.push_back(static_cast<RowIndex>(
                    dlrmopt::mix64(s * 100 + l) % 4096));
            }
            offsets.push_back(static_cast<RowIndex>(indices.size()));
        }
    }

    EmbeddingTable table;
    std::vector<RowIndex> indices;
    std::vector<RowIndex> offsets;
};

TEST_F(AutotuneTest, MeasuresEveryCandidate)
{
    std::vector<PrefetchSpec> cands = {{1, 2, 3}, {4, 4, 3}, {8, 4, 3}};
    const auto res = tunePrefetch(table, indices.data(),
                                  offsets.data(), 16, cands, 1);
    EXPECT_EQ(res.measurements.size(), 3u);
    EXPECT_GT(res.baselineMs, 0.0);
    for (const auto& m : res.measurements)
        EXPECT_GT(m.millis, 0.0);
}

TEST_F(AutotuneTest, BestIsNeverSlowerThanReported)
{
    const auto res = tunePrefetch(table, indices.data(),
                                  offsets.data(), 16, {}, 1);
    EXPECT_LE(res.bestMs, res.baselineMs + 1e-9);
    for (const auto& m : res.measurements)
        EXPECT_LE(res.bestMs, m.millis + 1e-9);
    EXPECT_GE(res.speedup(), 1.0 - 1e-9);
}

TEST_F(AutotuneTest, WinnerIsBaselineOrACandidate)
{
    std::vector<PrefetchSpec> cands = {{4, 4, 3}};
    const auto res = tunePrefetch(table, indices.data(),
                                  offsets.data(), 16, cands, 1);
    const bool is_baseline = !res.best.enabled();
    const bool is_candidate = res.best.distance == 4 &&
                              res.best.lines == 4;
    EXPECT_TRUE(is_baseline || is_candidate);
}

TEST_F(AutotuneTest, TuningDoesNotCorruptResults)
{
    std::vector<float> want(16 * 64), got(16 * 64);
    table.bag(indices.data(), offsets.data(), 16, want.data());
    tunePrefetch(table, indices.data(), offsets.data(), 16, {}, 1);
    table.bag(indices.data(), offsets.data(), 16, got.data(),
              PrefetchSpec{4, 4, 3});
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]);
}

} // namespace
