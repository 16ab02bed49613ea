/**
 * @file
 * Tests for request coalescing: SparseBatch concatenation semantics
 * (offset rebasing, empty bags, single-request no-op view,
 * heterogeneous inputs), prediction splitting, and the preallocated
 * ForwardWorkspace — including the bitwise identity of a coalesced
 * forward against per-request forwards and the zero-reallocation
 * steady state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/errors.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::core;

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.name = "batching_tiny";
    m.cls = ModelClass::RMC2;
    m.rows = 2048;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

/** Hand-built two-table batch; bag b of sample s holds given rows. */
SparseBatch
makeBatch(const std::vector<std::vector<std::vector<RowIndex>>>& bags)
{
    // bags[t][s] = lookups of sample s in table t.
    SparseBatch b;
    b.batchSize = bags.front().size();
    for (const auto& table : bags) {
        std::vector<RowIndex> idx;
        std::vector<RowIndex> off = {0};
        for (const auto& sample : table) {
            idx.insert(idx.end(), sample.begin(), sample.end());
            off.push_back(static_cast<RowIndex>(idx.size()));
        }
        b.indices.push_back(std::move(idx));
        b.offsets.push_back(std::move(off));
    }
    return b;
}

TEST(ConcatSparseBatches, RebasesOffsetsAcrossParts)
{
    const SparseBatch a = makeBatch({{{1, 2}, {3}}, {{4}, {5, 6}}});
    const SparseBatch b = makeBatch({{{7}}, {{8, 9}}});
    SparseBatch scratch;
    const SparseBatch& c = concatSparseBatches({&a, &b}, scratch);

    ASSERT_EQ(&c, &scratch);
    EXPECT_EQ(c.batchSize, 3u);
    ASSERT_EQ(c.numTables(), 2u);
    EXPECT_TRUE(c.valid(2048));

    const std::vector<RowIndex> idx0 = {1, 2, 3, 7};
    const std::vector<RowIndex> off0 = {0, 2, 3, 4};
    EXPECT_EQ(c.indices[0], idx0);
    EXPECT_EQ(c.offsets[0], off0);
    const std::vector<RowIndex> idx1 = {4, 5, 6, 8, 9};
    const std::vector<RowIndex> off1 = {0, 1, 3, 5};
    EXPECT_EQ(c.indices[1], idx1);
    EXPECT_EQ(c.offsets[1], off1);
}

TEST(ConcatSparseBatches, EmptyBagsSurviveCoalescing)
{
    // Sample 0 of table 0 has no lookups at all; the rebased offsets
    // must keep the empty bag empty rather than stealing from the
    // neighbour request.
    const SparseBatch a = makeBatch({{{}, {3}}, {{4}, {}}});
    const SparseBatch b = makeBatch({{{}}, {{8}}});
    SparseBatch scratch;
    const SparseBatch& c = concatSparseBatches({&a, &b}, scratch);

    EXPECT_EQ(c.batchSize, 3u);
    EXPECT_TRUE(c.valid(2048));
    const std::vector<RowIndex> off0 = {0, 0, 1, 1};
    EXPECT_EQ(c.offsets[0], off0);
    const std::vector<RowIndex> off1 = {0, 1, 1, 2};
    EXPECT_EQ(c.offsets[1], off1);
}

TEST(ConcatSparseBatches, SingleRequestIsANoOpView)
{
    const SparseBatch a = makeBatch({{{1}}, {{2}}});
    SparseBatch scratch;
    scratch.batchSize = 99; // sentinel: must stay untouched
    const SparseBatch& c = concatSparseBatches({&a}, scratch);
    EXPECT_EQ(&c, &a);
    EXPECT_EQ(scratch.batchSize, 99u);
}

TEST(ConcatSparseBatches, RejectsEmptyAndHeterogeneousInputs)
{
    SparseBatch scratch;
    EXPECT_THROW(concatSparseBatches({}, scratch), IndexError);

    const SparseBatch two = makeBatch({{{1}}, {{2}}});
    const SparseBatch one = makeBatch({{{1}}});
    EXPECT_THROW(concatSparseBatches({&two, &one}, scratch),
                 IndexError);
}

TEST(SplitPredictions, ViewsPartitionTheTensorAndRejectMismatch)
{
    Tensor pred(6, 1);
    for (std::size_t i = 0; i < 6; ++i)
        pred.at(i, 0) = static_cast<float>(i);

    std::vector<core::PredictionSpan> spans;
    splitPredictions(pred, {2, 3, 1}, spans);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].data, pred.data());
    EXPECT_EQ(spans[0].batch, 2u);
    EXPECT_EQ(spans[1].data, pred.data() + 2);
    EXPECT_EQ(spans[1].batch, 3u);
    EXPECT_EQ(spans[2].data, pred.data() + 5);
    EXPECT_EQ(spans[2].batch, 1u);

    EXPECT_THROW(splitPredictions(pred, {2, 3}, spans), IndexError);
}

class ForwardWorkspaceTest : public ::testing::Test
{
  protected:
    ForwardWorkspaceTest() : model(tinyModel(), 17)
    {
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            tinyModel(), traces::Hotness::Medium, 7);
        tc.batchSize = 8;
        traces::TraceGenerator gen(tc);
        // Three members with heterogeneous batch sizes.
        parts.push_back(gen.batch(0).truncated(3));
        parts.push_back(gen.batch(1).truncated(8));
        parts.push_back(gen.batch(2).truncated(5));
        for (std::size_t i = 0; i < parts.size(); ++i) {
            Tensor d(parts[i].batchSize, tinyModel().denseDim());
            d.randomize(100 + i);
            dense.push_back(std::move(d));
        }
    }

    std::vector<const SparseBatch *>
    partPtrs() const
    {
        std::vector<const SparseBatch *> p;
        for (const auto& b : parts)
            p.push_back(&b);
        return p;
    }

    std::vector<const Tensor *>
    densePtrs() const
    {
        std::vector<const Tensor *> p;
        for (const auto& d : dense)
            p.push_back(&d);
        return p;
    }

    /** Coalesces parts (with @p d as their dense rows), forwards the
     *  group once at @p dtype, and expects each member's predictions
     *  to equal its own forward through the stock path, bitwise. */
    void
    expectCoalescedMatchesAlone(const DlrmModel& m,
                                const std::vector<Tensor>& d,
                                EmbDtype dtype) const
    {
        ForwardWorkspace ws;
        ws.reserve(m, 16, tinyModel().lookups);
        std::vector<const Tensor *> dp;
        for (const auto& t : d)
            dp.push_back(&t);
        const SparseBatch& merged = ws.coalesce(partPtrs(), dp);
        EXPECT_EQ(merged.batchSize, 16u);
        const Tensor& pred =
            ws.forward(m, ws.stagedDense(), merged, {}, dtype);

        std::vector<std::size_t> sizes;
        for (const auto& b : parts)
            sizes.push_back(b.batchSize);
        std::vector<core::PredictionSpan> spans;
        splitPredictions(pred, sizes, spans);

        DlrmWorkspace ref;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            m.forward(d[i], parts[i], ref, {}, dtype);
            ASSERT_EQ(ref.pred.rows(), spans[i].batch);
            EXPECT_EQ(std::memcmp(spans[i].data, ref.pred.data(),
                                  spans[i].batch * sizeof(float)),
                      0)
                << embDtypeName(dtype) << " member " << i
                << " diverged";
        }
    }

    DlrmModel model;
    std::vector<SparseBatch> parts;
    std::vector<Tensor> dense;
};

TEST_F(ForwardWorkspaceTest, CoalescedForwardIsBitwiseIdentical)
{
    // The contract holds at every dtype: int8 is a storage format for
    // this model's small layers, and no kernel mixes sample rows.
    model.attachQuantizedStore(EmbeddingStore::create(
        tinyModel(), 17, 256, EmbDtype::Bf16));
    model.attachQuantizedStore(EmbeddingStore::create(
        tinyModel(), 17, 256, EmbDtype::Int8));
    for (const EmbDtype dtype :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8})
        expectCoalescedMatchesAlone(model, dense, dtype);
}

TEST_F(ForwardWorkspaceTest, CoalescedForwardIsBitwiseIdenticalThroughU8S8)
{
    // A bottom layer that spills kInt8MinPackBytes runs u8·s8 under
    // int8, which quantizes each sample row's activations with its
    // own scale: a member's bits still do not depend on its group.
    ModelConfig cfg = tinyModel();
    cfg.bottomMlp = {1040, 1024, cfg.dim};
    DlrmModel wide(cfg, 17);
    wide.attachQuantizedStore(
        EmbeddingStore::create(cfg, 17, 256, EmbDtype::Int8));
    ASSERT_TRUE(wide.int8Mlps(EmbDtype::Int8));
    ASSERT_TRUE(wide.bottomMlp().int8Layer(0));
    std::vector<Tensor> wide_dense;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        Tensor d(parts[i].batchSize, cfg.denseDim());
        d.randomize(200 + i);
        wide_dense.push_back(std::move(d));
    }
    expectCoalescedMatchesAlone(wide, wide_dense, EmbDtype::Int8);
}

TEST_F(ForwardWorkspaceTest, SingleMemberForwardMatchesStockPath)
{
    ForwardWorkspace ws;
    ws.reserve(model, 8, tinyModel().lookups);
    const SparseBatch& merged =
        ws.coalesce({&parts[1]}, {&dense[1]});
    EXPECT_EQ(&merged, &parts[1]);
    const Tensor& pred = ws.forward(model, ws.stagedDense(), merged);

    DlrmWorkspace ref;
    model.forward(dense[1], parts[1], ref);
    ASSERT_EQ(pred.rows(), ref.pred.rows());
    EXPECT_EQ(std::memcmp(pred.data(), ref.pred.data(),
                          pred.size() * sizeof(float)),
              0);
}

TEST_F(ForwardWorkspaceTest, SteadyStateReallocatesNothing)
{
    ForwardWorkspace ws;
    ws.reserve(model, 16, tinyModel().lookups);

    // Warm-up at full size, then capture the backing stores.
    ws.forward(model, ws.stagedDense(),
               ws.coalesce(partPtrs(), densePtrs()));
    const std::size_t fp = ws.bufferFingerprint();

    // Every smaller coalescing pattern must reuse the same storage.
    const auto p = partPtrs();
    const auto d = densePtrs();
    for (int rep = 0; rep < 3; ++rep) {
        ws.forward(model, ws.stagedDense(),
                   ws.coalesce({p[0], p[2]}, {d[0], d[2]}));
        EXPECT_EQ(ws.bufferFingerprint(), fp);
        ws.forward(model, ws.stagedDense(),
                   ws.coalesce(p, d));
        EXPECT_EQ(ws.bufferFingerprint(), fp);
    }
}

TEST_F(ForwardWorkspaceTest, ReserveRejectsZeroBatch)
{
    ForwardWorkspace ws;
    EXPECT_THROW(ws.reserve(model, 0, 4), std::invalid_argument);
}

} // namespace
