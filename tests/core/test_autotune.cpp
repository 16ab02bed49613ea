/**
 * @file
 * Tests for the prefetch auto-tuner and the GEMM blocking-tile
 * auto-tuner (structure and determinism of the search, not absolute
 * timings).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/autotune.hpp"
#include "core/simd.hpp"

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

TEST(GemmTune, DefaultGridRespectsShapeAndLevel)
{
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
        const auto grid = defaultGemmTileGrid(64, 256, level);
        ASSERT_FALSE(grid.empty());
        for (const GemmTile& t : grid) {
            EXPECT_GE(t.mr, 1u);
            EXPECT_LE(t.mr, gemmMaxRows(level));
            EXPECT_GE(t.kc, 1u);
            EXPECT_LE(t.kc, 256u);
        }
        // Deduplicated and sorted.
        for (std::size_t i = 1; i < grid.size(); ++i)
            EXPECT_TRUE(std::tie(grid[i - 1].mr, grid[i - 1].kc) <
                        std::tie(grid[i].mr, grid[i].kc));
    }
    // GEMV-shaped point never proposes multi-row microtiles.
    for (const GemmTile& t :
         defaultGemmTileGrid(1, 512, SimdLevel::Avx512))
        EXPECT_EQ(t.mr, 1u);
}

TEST(GemmTune, MeasuresEveryCandidateAndInstallsWinner)
{
    GemmTileCache::instance().clear();
    const std::vector<GemmTile> cands = {{1, 64}, {2, 64}, {4, 32}};
    const auto res = tuneGemmTile(16, 64, 48, cands, 1, 5);

    EXPECT_EQ(res.batch, 16u);
    EXPECT_EQ(res.inDim, 64u);
    EXPECT_EQ(res.outDim, 48u);
    EXPECT_EQ(res.level, currentSimdLevel());
    EXPECT_EQ(res.measurements.size(), cands.size());
    EXPECT_GT(res.baselineMs, 0.0);
    for (const auto& m : res.measurements) {
        EXPECT_GT(m.millis, 0.0);
        EXPECT_LE(res.bestMs, m.millis + 1e-9);
    }
    // The winner is one of the candidates and lands in the cache.
    EXPECT_NE(std::find(cands.begin(), cands.end(), res.best),
              cands.end());
    EXPECT_TRUE(GemmTileCache::instance().contains(16, 64, 48,
                                                   res.level));
    EXPECT_EQ(GemmTileCache::instance().lookup(16, 64, 48, res.level),
              res.best);
    GemmTileCache::instance().clear();
}

TEST(GemmTune, TunedForwardStaysCorrect)
{
    GemmTileCache::instance().clear();
    tuneGemmTile(8, 96, 40, {}, 1, 9);

    // A forward through the freshly installed tile must still match
    // the reference.
    const std::size_t batch = 8, in_dim = 96, out_dim = 40;
    std::vector<float> in(batch * in_dim), w(out_dim * in_dim),
        b(out_dim);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(
            dlrmopt::toUnitInterval(dlrmopt::mix64(i)) - 0.5);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(
            dlrmopt::toUnitInterval(dlrmopt::mix64(i + 7)) - 0.5);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(
            dlrmopt::toUnitInterval(dlrmopt::mix64(i + 13)) - 0.5);

    const PackedWeights packed(w.data(), in_dim, out_dim);
    std::vector<float> got(batch * out_dim), want(batch * out_dim);
    denseLayerForwardPacked(in.data(), batch, packed, b.data(),
                            got.data(), true);
    denseLayerForwardRef(in.data(), batch, in_dim, w.data(), b.data(),
                         out_dim, want.data(), true);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-3f) << "at " << i;
    GemmTileCache::instance().clear();
}

TEST(GemmTune, RejectsDegenerateShapes)
{
    EXPECT_THROW(tuneGemmTile(0, 16, 16), std::invalid_argument);
    EXPECT_THROW(tuneGemmTile(4, 16, 0), std::invalid_argument);
    EXPECT_THROW(tuneMlpGemm({64}), std::invalid_argument);
}

TEST(GemmTune, MlpSweepCoversEveryBucketAndLayer)
{
    GemmTileCache::instance().clear();
    const std::vector<std::size_t> dims = {32, 24, 8};
    const auto results = tuneMlpGemm(dims, {1, 16}, 1, 3);

    // 2 batches x 2 layers, layers innermost.
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].batch, 1u);
    EXPECT_EQ(results[0].inDim, 32u);
    EXPECT_EQ(results[0].outDim, 24u);
    EXPECT_EQ(results[1].inDim, 24u);
    EXPECT_EQ(results[1].outDim, 8u);
    EXPECT_EQ(results[2].batch, 16u);
    EXPECT_EQ(results[3].inDim, 24u);
    for (const auto& r : results) {
        EXPECT_TRUE(GemmTileCache::instance().contains(
            r.batch, r.inDim, r.outDim, r.level));
    }
    EXPECT_EQ(GemmTileCache::instance().size(), 4u);

    // Default batches: one representative per m-bucket, each tuning
    // the single layer.
    GemmTileCache::instance().clear();
    const auto all = tuneMlpGemm({16, 8}, {}, 1, 3);
    EXPECT_EQ(all.size(),
              static_cast<std::size_t>(GemmTileCache::numBuckets));
    GemmTileCache::instance().clear();
}

} // namespace
