/**
 * @file
 * Tests for the pinned hot-row tier over the shared cold store: bag
 * output must be bitwise-identical tier on/off at every EmbDtype,
 * counted admission must promote the measured hot set and re-converge
 * after the hot set drifts, a flipped tier bit must be quarantined
 * and repaired with zero wrong outputs (the cold store stays the
 * source of truth one tier down), retargeting must carry the resident
 * set onto a new version's bytes, every epoch must select, lay out
 * and decay exactly what a full scan of every counter would, and the
 * concurrent bag x epoch x scrub x retarget interleaving must stay
 * torn-free (exercised under TSan via the sanitize-threads preset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/errors.hpp"
#include "core/hot_tier.hpp"

namespace
{

using namespace dlrmopt::core;
using dlrmopt::RowIndex;

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.name = "tier_tiny";
    m.cls = ModelClass::RMC2;
    m.rows = 2048;
    m.dim = 32;
    m.tables = 3;
    m.lookups = 6;
    m.bottomMlp = {32, 24, 32};
    m.topMlp = {8, 1};
    return m;
}

/**
 * A skewed index stream: 80% of lookups land in a small hot window
 * starting at @p hot_base (wrapping), the rest spread uniformly.
 */
void
makeBag(const ModelConfig& m, std::size_t samples, std::uint64_t seed,
        std::size_t hot_base, std::size_t hot_rows,
        std::vector<RowIndex>& indices, std::vector<RowIndex>& offsets)
{
    indices.clear();
    offsets.clear();
    for (std::size_t s = 0; s <= samples; ++s)
        offsets.push_back(static_cast<RowIndex>(s * m.lookups));
    for (std::size_t i = 0; i < samples * m.lookups; ++i) {
        const std::uint64_t r = dlrmopt::mix64(seed + i);
        const std::size_t row =
            (r % 5 != 0) ? (hot_base + r % hot_rows) % m.rows
                         : r % m.rows;
        indices.push_back(static_cast<RowIndex>(row));
    }
}

/** Warm the tier's admission counters from the stream and promote. */
void
warmFromStream(HotTierCache& tier, std::size_t table,
               const std::vector<RowIndex>& indices)
{
    for (const RowIndex idx : indices)
        tier.recordAccess(table, idx);
    tier.endEpoch();
}

TEST(HotTierConfig, ValidateRejectsBadKnobs)
{
    HotTierConfig hc;
    hc.decay = 1.0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.decay = -0.1;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.blockRows = 0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.minAccesses = 0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.validate();

    EXPECT_THROW(HotTierCache(nullptr, hc), std::invalid_argument);
}

TEST(HotTier, BudgetSizingAndLineAlignedSlots)
{
    const auto m = tinyModel();
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 7, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 64 * 1024;
        HotTierCache tier(store, hc);
        const std::size_t row_bytes = store->table(0).storedRowBytes();
        const std::size_t stride = tier.slotStride();
        EXPECT_EQ(stride % 64, 0u);
        EXPECT_GE(stride, row_bytes);
        EXPECT_LT(stride, row_bytes + 64);
        EXPECT_EQ(tier.capacityRows(), hc.budgetBytes / stride);
        EXPECT_EQ(tier.dtype(), dt);
        EXPECT_TRUE(tier.matches(*store));
    }
}

TEST(HotTier, ZeroBudgetIsAPassThrough)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 7);
    HotTierCache tier(store, HotTierConfig{});
    EXPECT_EQ(tier.capacityRows(), 0u);

    std::vector<RowIndex> idx, off;
    makeBag(m, 4, 11, 0, 64, idx, off);
    std::vector<float> got(4 * m.dim), want(4 * m.dim);
    tier.bag(0, idx.data(), off.data(), 4, got.data());
    store->table(0).bag(idx.data(), off.data(), 4, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    const auto st = tier.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 4u * m.lookups);
}

TEST(HotTier, BagIsBitwiseIdenticalAtEveryDtype)
{
    const auto m = tinyModel();
    const std::size_t samples = 12;
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 9, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 512 * 64 * 4; // plenty for the hot window
        hc.blockRows = 16;
        hc.minAccesses = 1;
        HotTierCache tier(store, hc);

        std::vector<RowIndex> idx, off;
        makeBag(m, samples, 33, 100, 128, idx, off);
        // Count every table's stream, then promote in ONE epoch — a
        // per-table epoch would decay earlier tables' single-access
        // rows below minAccesses before the last promotion ran.
        for (std::size_t t = 0; t < m.tables; ++t) {
            for (const RowIndex i : idx)
                tier.recordAccess(t, i);
        }
        tier.endEpoch();
        ASSERT_GT(tier.stats().residentRows, 0u);

        std::vector<float> got(samples * m.dim);
        std::vector<float> want(samples * m.dim);
        std::vector<float> ref(samples * m.dim);
        for (std::size_t t = 0; t < m.tables; ++t) {
            tier.bag(t, idx.data(), off.data(), samples, got.data());
            store->table(t).bag(idx.data(), off.data(), samples,
                                want.data());
            store->table(t).bagRef(idx.data(), off.data(), samples,
                                   ref.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "tier vs cold bag, dtype "
                << embDtypeName(dt);
            EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "tier vs scalar reference, dtype "
                << embDtypeName(dt);
        }
        const auto st = tier.stats();
        EXPECT_GT(st.hits, 0u);
        EXPECT_GT(st.hitRate(), 0.5);
    }
}

TEST(HotTier, BagThrowsTheColdPathsIndexError)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 9);
    HotTierConfig hc;
    hc.budgetBytes = 64 * 1024;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx = {0, static_cast<RowIndex>(m.rows)};
    std::vector<RowIndex> off = {0, 2};
    std::vector<float> out(m.dim);
    EXPECT_THROW(tier.bag(0, idx.data(), off.data(), 1, out.data()),
                 IndexError);
    EXPECT_THROW(tier.recordAccess(0, static_cast<RowIndex>(m.rows)),
                 std::invalid_argument);
    EXPECT_THROW(tier.recordAccess(m.tables, 0),
                 std::invalid_argument);
}

TEST(HotTier, PromotesTheCountedHotSetAndDecays)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 2;
    hc.decay = 0.5;
    HotTierCache tier(store, hc);
    const std::size_t cap = tier.capacityRows();
    ASSERT_GT(cap, 8u);

    // Rows 0..cap-1 of table 0 hot, row cap+5 seen once (below
    // minAccesses), everything else untouched.
    for (std::size_t r = 0; r < cap; ++r)
        tier.recordAccess(0, static_cast<RowIndex>(r), 10);
    tier.recordAccess(0, static_cast<RowIndex>(cap + 5), 1);
    tier.endEpoch();

    auto st = tier.stats();
    EXPECT_EQ(st.residentRows, cap);
    EXPECT_EQ(st.promotions, cap);
    EXPECT_EQ(st.epochs, 1u);
    for (std::size_t r = 0; r < cap; ++r)
        EXPECT_TRUE(tier.isResident(0, static_cast<RowIndex>(r)));
    EXPECT_FALSE(
        tier.isResident(0, static_cast<RowIndex>(cap + 5)));
    // Decay halved the counters at the boundary.
    EXPECT_EQ(tier.accessCount(0, 0), 5u);
}

TEST(HotTier, ReconvergesAfterHotSetDrift)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 1;
    hc.decay = 0.25; // forget fast: drift should win in few epochs
    HotTierCache tier(store, hc);
    const std::size_t cap = tier.capacityRows();

    // Epoch 1: hot set A = rows [0, cap) of table 0.
    for (std::size_t r = 0; r < cap; ++r)
        tier.recordAccess(0, static_cast<RowIndex>(r), 100);
    tier.endEpoch();
    ASSERT_TRUE(tier.isResident(0, 0));

    // The session drifts: hot set B = rows [1000, 1000 + cap), served
    // through real bags for several promotion epochs.
    std::vector<RowIndex> idx, off;
    makeBag(m, 16, 77, 1000, cap, idx, off);
    std::vector<float> out(16 * m.dim);
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int rep = 0; rep < 4; ++rep)
            tier.bag(0, idx.data(), off.data(), 16, out.data());
        tier.endEpoch();
    }

    // The tier must now hold (mostly) B, not A.
    std::size_t resident_b = 0;
    for (std::size_t r = 0; r < cap; ++r) {
        if (tier.isResident(
                0, static_cast<RowIndex>((1000 + r) % m.rows)))
            ++resident_b;
    }
    EXPECT_GT(resident_b, cap / 2);
    EXPECT_GT(tier.stats().demotions, 0u);

    // And serve B's stream mostly from the tier, bitwise-identically.
    const auto before = tier.stats();
    std::vector<float> want(16 * m.dim);
    tier.bag(0, idx.data(), off.data(), 16, out.data());
    store->table(0).bag(idx.data(), off.data(), 16, want.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          out.size() * sizeof(float)),
              0);
    const auto after = tier.stats();
    const double rate =
        static_cast<double>(after.hits - before.hits) /
        static_cast<double>(after.hits - before.hits + after.misses -
                            before.misses);
    EXPECT_GT(rate, 0.5);
}

TEST(HotTier, AutomaticEpochsFireFromServedLookups)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 1;
    hc.epochLookups = 200;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 16, 13, 0, 64, idx, off);
    std::vector<float> out(16 * m.dim);
    for (int rep = 0; rep < 8; ++rep)
        tier.bag(0, idx.data(), off.data(), 16, out.data());

    const auto st = tier.stats();
    EXPECT_GE(st.epochs, 2u);
    EXPECT_GT(st.residentRows, 0u);
    EXPECT_GT(st.hits, 0u);
}

TEST(HotTier, FlippedTierBitIsRepairedWithZeroWrongOutputs)
{
    const auto m = tinyModel();
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 3, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 32 * 1024;
        hc.blockRows = 8;
        hc.minAccesses = 1;
        hc.verifyTouched = true;
        HotTierCache tier(store, hc);

        std::vector<RowIndex> idx, off;
        makeBag(m, 8, 21, 40, 64, idx, off);
        tier.recordAccess(0, 40, 100); // pin row 40 for certain
        warmFromStream(tier, 0, idx);
        ASSERT_TRUE(tier.isResident(0, 40));

        // Silently corrupt the *pinned copy* of a row the stream
        // keeps hitting; the cold store stays intact.
        ASSERT_TRUE(tier.flipBit(0, 40, 3));
        EXPECT_FALSE(tier.findCorruptBlocks().empty());

        // verify-touched must catch it before a byte is served: the
        // bag output stays bitwise-identical to the cold path.
        std::vector<float> got(8 * m.dim), want(8 * m.dim);
        tier.bag(0, idx.data(), off.data(), 8, got.data());
        store->table(0).bag(idx.data(), off.data(), 8, want.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "dtype " << embDtypeName(dt);

        const auto st = tier.stats();
        EXPECT_GE(st.corruptionsFound, 1u);
        EXPECT_GE(st.blocksQuarantined, 1u);
        EXPECT_GE(st.blocksRepaired, 1u);
        EXPECT_TRUE(tier.findCorruptBlocks().empty());

        // Repaired, not evicted: the row serves from the tier again.
        const auto before = tier.stats();
        tier.bag(0, idx.data(), off.data(), 8, got.data());
        EXPECT_GT(tier.stats().hits, before.hits);

        // A flip on a non-resident row is a no-op...
        EXPECT_FALSE(tier.flipBit(0, static_cast<RowIndex>(2000), 0));
        // ...and out-of-range coordinates throw.
        EXPECT_THROW(tier.flipBit(m.tables, 0, 0),
                     std::invalid_argument);
    }
}

TEST(HotTier, ScrubTickFindsQuarantinesAndRepairs)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    tier.recordAccess(1, 40, 100); // pin row 40 for certain
    warmFromStream(tier, 1, idx);
    ASSERT_TRUE(tier.flipBit(1, 40, 17));

    // One full round-robin sweep must find and repair the block.
    std::size_t scrubbed = 0;
    for (std::size_t i = 0; i < tier.numBlocks(); ++i)
        scrubbed += tier.scrubTick(1);
    EXPECT_EQ(scrubbed, tier.numBlocks());
    const auto st = tier.stats();
    EXPECT_EQ(st.corruptionsFound, 1u);
    EXPECT_EQ(st.blocksRepaired, 1u);
    EXPECT_TRUE(tier.findCorruptBlocks().empty());

    // Post-repair bags serve the intact bytes from the tier.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    tier.bag(1, idx.data(), off.data(), 8, got.data());
    store->table(1).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
}

TEST(HotTier, QuarantinedBlocksFallThroughUntilRepaired)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);

    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.quarantineBlock(b);
    EXPECT_TRUE(tier.blockQuarantined(0));

    // Every probe falls through: correct bytes, zero hits.
    const auto before = tier.stats();
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    store->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    const auto mid = tier.stats();
    EXPECT_EQ(mid.hits, before.hits);
    EXPECT_GT(mid.misses, before.misses);

    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.repairBlock(b);
    EXPECT_FALSE(tier.blockQuarantined(0));
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    EXPECT_GT(tier.stats().hits, mid.hits);
}

TEST(HotTier, RetargetServesTheNewVersionsBytes)
{
    const auto m = tinyModel();
    const auto v1 = EmbeddingStore::create(m, 100);
    const auto v2 = EmbeddingStore::create(m, 200); // same shape,
                                                    // different bytes
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.minAccesses = 1;
    HotTierCache tier(v1, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 55, 10, 64, idx, off);
    warmFromStream(tier, 0, idx);
    const std::size_t resident = tier.stats().residentRows;
    ASSERT_GT(resident, 0u);

    ASSERT_TRUE(tier.retarget(v2));
    EXPECT_TRUE(tier.matches(*v2));
    EXPECT_FALSE(tier.matches(*v1));
    // The resident set carried over...
    EXPECT_EQ(tier.stats().residentRows, resident);
    // ...and serves version 2's bytes from the first dispatch.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    const auto before = tier.stats();
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    v2->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    EXPECT_GT(tier.stats().hits, before.hits);

    // Geometry / dtype mismatches refuse and leave the tier as-is.
    auto wide = m;
    wide.dim = 64;
    EXPECT_FALSE(tier.retarget(EmbeddingStore::create(wide, 1)));
    EXPECT_FALSE(tier.retarget(
        EmbeddingStore::create(m, 1, 256, EmbDtype::Bf16)));
    EXPECT_TRUE(tier.matches(*v2));
    EXPECT_THROW(tier.retarget(nullptr), std::invalid_argument);
}

TEST(HotTier, ResetDropsResidencyAndCounters)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);
    ASSERT_GT(tier.stats().residentRows, 0u);

    tier.reset();
    const auto st = tier.stats();
    EXPECT_EQ(st.residentRows, 0u);
    EXPECT_EQ(tier.accessCount(0, 40), 0u);
    EXPECT_FALSE(tier.isResident(0, 40));

    // All-miss pass-through, still bitwise-correct.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    const auto before = tier.stats();
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    store->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    EXPECT_EQ(tier.stats().hits, before.hits);
}

TEST(HotTier, FullForwardIsBitwiseIdenticalTierOnOff)
{
    const auto m = tinyModel();
    DlrmModel model(m, 77);
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        if (dt != EmbDtype::Fp32) {
            model.attachQuantizedStore(
                EmbeddingStore::create(m, 77, 256, dt));
        }
        const auto& store = model.sharedStoreFor(dt);
        HotTierConfig hc;
        hc.budgetBytes = 64 * 1024;
        hc.minAccesses = 1;
        HotTierCache tier(store, hc);

        const std::size_t batch = 6;
        SparseBatch sb;
        sb.batchSize = batch;
        sb.indices.resize(m.tables);
        sb.offsets.resize(m.tables);
        std::vector<RowIndex> idx, off;
        for (std::size_t t = 0; t < m.tables; ++t) {
            makeBag(m, batch, 900 + t, 64, 96, idx, off);
            sb.indices[t] = idx;
            sb.offsets[t] = off;
            warmFromStream(tier, t, idx);
        }
        Tensor dense(batch, m.denseDim());
        dense.randomize(5);

        DlrmWorkspace with_tier, without;
        const auto pf = PrefetchSpec::paperDefault();
        model.forward(dense, sb, with_tier, pf, dt, &tier);
        model.forward(dense, sb, without, pf, dt, nullptr);
        EXPECT_EQ(std::memcmp(with_tier.pred.data(),
                              without.pred.data(),
                              batch * sizeof(float)),
                  0)
            << "dtype " << embDtypeName(dt);
        EXPECT_GT(tier.stats().hits, 0u);

        // A tier built over a *different* store must be ignored by
        // the guard, not probed: predictions still match.
        const auto other = EmbeddingStore::create(m, 123, 256, dt);
        HotTierCache stale(other, hc);
        DlrmWorkspace guarded;
        model.forward(dense, sb, guarded, pf, dt, &stale);
        EXPECT_EQ(std::memcmp(guarded.pred.data(),
                              without.pred.data(),
                              batch * sizeof(float)),
                  0);
        EXPECT_EQ(stale.stats().hits + stale.stats().misses, 0u);
    }
}

/**
 * Scalar reference for the tier's admission state: one counter per
 * row and the pinned rows in slot order. Its epoch is the full scan
 * over every table x row counter the tier used to run, so any row the
 * tier's tracked-row list misses shows up as a different selection or
 * a counter that failed to decay.
 */
struct FullScanReference
{
    struct Pin
    {
        std::uint32_t table;
        std::uint32_t row;
    };

    std::size_t tables, rows, capacity, epochLookups;
    std::uint32_t minAccesses;
    double decay;
    std::vector<std::uint32_t> count; //!< [table*rows + row]
    std::vector<Pin> slots;           //!< slot order
    std::uint64_t promotions = 0, demotions = 0, epochs = 0;
    std::uint64_t sinceEpoch = 0;

    FullScanReference(std::size_t t, std::size_t r, std::size_t cap,
                      const HotTierConfig& hc)
        : tables(t), rows(r), capacity(cap),
          epochLookups(hc.epochLookups), minAccesses(hc.minAccesses),
          decay(hc.decay), count(t * r, 0)
    {
    }

    /** A single-threaded bag: +1 per lookup up to the first
     *  out-of-range index (which throws before any epoch runs), then
     *  the lookup-count epoch trigger. Returns false when it threw. */
    bool
    bag(std::size_t table, const std::vector<RowIndex>& indices)
    {
        for (const RowIndex i : indices) {
            if (static_cast<std::size_t>(i) >= rows)
                return false;
            ++count[table * rows + static_cast<std::size_t>(i)];
        }
        const std::uint64_t prev = sinceEpoch;
        sinceEpoch += indices.size();
        if (epochLookups != 0 && prev < epochLookups &&
            sinceEpoch >= epochLookups)
            epoch();
        return true;
    }

    void
    epoch()
    {
        struct Cand
        {
            std::uint32_t count, table, row;
        };
        std::vector<Cand> cand;
        for (std::size_t i = 0; i < count.size(); ++i) {
            if (count[i] >= minAccesses)
                cand.push_back({count[i],
                                static_cast<std::uint32_t>(i / rows),
                                static_cast<std::uint32_t>(i % rows)});
        }
        auto hotter = [](const Cand& a, const Cand& b) {
            if (a.count != b.count)
                return a.count > b.count;
            if (a.table != b.table)
                return a.table < b.table;
            return a.row < b.row;
        };
        if (cand.size() > capacity) {
            std::nth_element(cand.begin(),
                             cand.begin() +
                                 static_cast<std::ptrdiff_t>(capacity),
                             cand.end(), hotter);
            cand.resize(capacity);
        }
        std::sort(cand.begin(), cand.end(), hotter);
        std::size_t survivors = 0;
        for (const Cand& c : cand) {
            for (const Pin& p : slots)
                survivors += p.table == c.table && p.row == c.row;
        }
        promotions += cand.size() - survivors;
        demotions += slots.size() - survivors;
        slots.clear();
        for (const Cand& c : cand)
            slots.push_back({c.table, c.row});
        for (std::uint32_t& c : count)
            c = static_cast<std::uint32_t>(static_cast<double>(c) *
                                           decay);
        ++epochs;
        sinceEpoch = 0;
    }

    void
    reset()
    {
        slots.clear();
        std::fill(count.begin(), count.end(), 0u);
        sinceEpoch = 0;
    }
};

/** Asserts @p tier's resident set, slot order, stats and every
 *  counter equal @p ref's. */
void
expectMatchesReference(const HotTierCache& tier,
                       const FullScanReference& ref,
                       const std::string& where)
{
    const HotTierStats st = tier.stats();
    ASSERT_EQ(st.epochs, ref.epochs) << where;
    ASSERT_EQ(st.residentRows, ref.slots.size()) << where;
    EXPECT_EQ(st.promotions, ref.promotions) << where;
    EXPECT_EQ(st.demotions, ref.demotions) << where;
    for (std::size_t j = 0; j < ref.slots.size(); ++j) {
        ASSERT_EQ(tier.slotOf(ref.slots[j].table, ref.slots[j].row),
                  static_cast<std::int32_t>(j))
            << where << ": slot " << j;
    }
    for (std::size_t t = 0; t < ref.tables; ++t) {
        for (std::size_t r = 0; r < ref.rows; ++r) {
            const auto row = static_cast<RowIndex>(r);
            ASSERT_EQ(tier.accessCount(t, row),
                      ref.count[t * ref.rows + r])
                << where << ": counter (" << t << ", " << r << ")";
        }
    }
}

TEST(HotTier, EpochMatchesFullScanReference)
{
    // Seeded random configs drive the tier and the full-scan
    // reference through the same interleaving of bags (some throwing
    // on a bad index), recordAccess, epochs (explicit and
    // lookup-triggered), reset and retarget.
    struct Rng
    {
        std::uint64_t s;
        std::size_t
        below(std::size_t n)
        {
            return static_cast<std::size_t>(dlrmopt::mix64(s++) % n);
        }
    };
    constexpr std::size_t configs = 240;
    for (std::size_t cfg = 0; cfg < configs; ++cfg) {
        Rng rng{0x5eed0000 + cfg * 7919};
        ModelConfig m = tinyModel();
        m.tables = 1 + rng.below(3);
        m.rows = 40 + rng.below(400);
        m.dim = 8;
        const EmbDtype dt = static_cast<EmbDtype>(rng.below(3));
        const auto v1 = EmbeddingStore::create(m, 11 + cfg, 16, dt);
        const auto v2 = EmbeddingStore::create(m, 12 + cfg, 16, dt);

        HotTierConfig hc;
        hc.minAccesses = static_cast<std::uint32_t>(1 + rng.below(4));
        hc.decay = std::vector<double>{0.0, 0.5, 0.9}[rng.below(3)];
        hc.blockRows = 1 + rng.below(16);
        hc.epochLookups = rng.below(2) ? 0 : 20 + rng.below(200);
        // Capacity from a couple of rows (far below the candidate
        // count) to more rows than the bags ever touch.
        const std::size_t stride =
            HotTierCache(v1, hc).slotStride(); // budget 0: probe only
        const std::size_t cap =
            rng.below(2) ? 1 + rng.below(8) : 16 + rng.below(400);
        hc.budgetBytes = cap * stride;
        HotTierCache tier(v1, hc);
        ASSERT_EQ(tier.capacityRows(),
                  std::min(cap, m.tables * m.rows));
        FullScanReference ref(m.tables, m.rows, tier.capacityRows(),
                              hc);
        // A small hot window per config, so counts tie often.
        const std::size_t hot = 1 + rng.below(24);
        bool on_v2 = false;

        const std::string where = "config " + std::to_string(cfg);
        for (std::size_t op = 0; op < 40; ++op) {
            const std::size_t kind = rng.below(20);
            const std::uint64_t epochs_before = ref.epochs;
            const std::size_t t = rng.below(m.tables);
            if (kind < 11) {
                const std::size_t samples = 1 + rng.below(4);
                std::vector<RowIndex> idx, off{0};
                for (std::size_t s = 0; s < samples; ++s) {
                    const std::size_t n = rng.below(6);
                    for (std::size_t l = 0; l < n; ++l) {
                        idx.push_back(static_cast<RowIndex>(
                            rng.below(4) ? rng.below(hot)
                                         : rng.below(m.rows)));
                    }
                    off.push_back(static_cast<RowIndex>(idx.size()));
                }
                if (kind == 0 && !idx.empty())
                    idx[rng.below(idx.size())] =
                        static_cast<RowIndex>(m.rows);
                std::vector<float> got(samples * m.dim),
                    want(samples * m.dim);
                if (!ref.bag(t, idx)) {
                    EXPECT_THROW(tier.bag(t, idx.data(), off.data(),
                                          samples, got.data()),
                                 IndexError);
                    continue;
                }
                tier.bag(t, idx.data(), off.data(), samples,
                         got.data());
                (on_v2 ? v2 : v1)
                    ->table(t)
                    .bag(idx.data(), off.data(), samples, want.data());
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << where;
            } else if (kind < 15) {
                const auto row = static_cast<RowIndex>(
                    rng.below(2) ? rng.below(hot) : rng.below(m.rows));
                std::uint32_t& c =
                    ref.count[t * m.rows + static_cast<std::size_t>(row)];
                // kind 14 wraps the counter to exactly zero, so the
                // row's next bump tracks it a second time: the epoch
                // must visit the duplicate entry once.
                const std::uint32_t n =
                    kind == 14 ? 0u - c
                               : static_cast<std::uint32_t>(rng.below(6));
                tier.recordAccess(t, row, n);
                c += n;
            } else if (kind < 18) {
                tier.endEpoch();
                ref.epoch();
            } else if (kind == 18) {
                tier.reset();
                ref.reset();
            } else {
                on_v2 = !on_v2;
                ASSERT_TRUE(tier.retarget(on_v2 ? v2 : v1));
            }
            if (kind >= 15 || ref.epochs != epochs_before ||
                tier.stats().epochs != ref.epochs) {
                expectMatchesReference(tier, ref,
                                       where + ", op " +
                                           std::to_string(op));
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
        tier.endEpoch();
        ref.epoch();
        expectMatchesReference(tier, ref, where + ", final epoch");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Concurrency: serving bags race promotion/demotion epochs, the
 * scrubber, bit flips, and a retarget. Run under
 * -DCMAKE_CXX_FLAGS=-fsanitize=thread (the sanitize-threads preset)
 * this is the data-race probe for the shared/exclusive lock protocol;
 * un-sanitized it still asserts the outputs stay bitwise-correct
 * through every interleaving.
 */
TEST(HotTier, ConcurrentBagsEpochsScrubAndRetargetStayCoherent)
{
    const auto m = tinyModel();
    const auto v1 = EmbeddingStore::create(m, 100);
    const auto v2 = EmbeddingStore::create(m, 100); // same bytes:
    // retargeting mid-serve must not change any output, so the race
    // check can assert bitwise equality throughout.
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(v1, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);
    std::vector<float> want(8 * m.dim);
    v1->table(0).bag(idx.data(), off.data(), 8, want.data());

    std::atomic<bool> stop{false};
    std::atomic<int> wrong{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            std::vector<float> out(8 * m.dim);
            std::vector<RowIndex> fresh_idx, fresh_off;
            for (int i = 0; i < 300; ++i) {
                tier.bag(0, idx.data(), off.data(), 8, out.data());
                if (std::memcmp(out.data(), want.data(),
                                out.size() * sizeof(float)) != 0)
                    wrong.fetch_add(1);
                tier.recordAccess(0, static_cast<RowIndex>(
                                         (w * 331 + i) % m.rows));
                // Rows the tier has never seen, through both entry
                // points, while epochs run: each must join the
                // tracked-row list, or the final epoch below misses
                // it.
                tier.recordAccess(1 + w % 2,
                                  static_cast<RowIndex>(
                                      (w * 977 + i * 13) % m.rows),
                                  1 + static_cast<std::uint32_t>(i % 3));
                makeBag(m, 2, 5000 + w * 1000 + i, 1024, 900,
                        fresh_idx, fresh_off);
                tier.bag(2 - w % 2, fresh_idx.data(), fresh_off.data(),
                         2, out.data());
            }
        });
    }
    std::thread churner([&] {
        for (int i = 0; i < 40 && !stop.load(); ++i) {
            tier.scrubTick(2);
            if (i % 10 == 7)
                tier.endEpoch();
            if (i == 20)
                tier.retarget(v2);
            std::this_thread::yield();
        }
    });
    for (auto& t : workers)
        t.join();
    stop.store(true);
    churner.join();

    EXPECT_EQ(wrong.load(), 0);
    // Whatever the interleaving, the tier must end internally
    // consistent: full scrub leaves zero corrupt blocks and a fresh
    // bag is still bitwise-identical.
    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.scrubTick(1);
    EXPECT_TRUE(tier.findCorruptBlocks().empty());
    std::vector<float> out(8 * m.dim);
    tier.bag(0, idx.data(), off.data(), 8, out.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          out.size() * sizeof(float)),
              0);

    // Quiesced: a final epoch must select, in slot order, exactly
    // what a full scan of the counters read just before it selects,
    // and decay every counter. A row the racing bags or recordAccess
    // calls bumped off zero but never tracked would be missing.
    FullScanReference ref(m.tables, m.rows, tier.capacityRows(), hc);
    for (std::size_t t = 0; t < m.tables; ++t) {
        for (std::size_t r = 0; r < m.rows; ++r)
            ref.count[t * m.rows + r] =
                tier.accessCount(t, static_cast<RowIndex>(r));
    }
    const HotTierStats before = tier.stats();
    ref.promotions = before.promotions;
    ref.demotions = before.demotions;
    ref.epochs = before.epochs;
    ref.slots.resize(before.residentRows);
    std::size_t pinned = 0;
    for (std::size_t t = 0; t < m.tables; ++t) {
        for (std::size_t r = 0; r < m.rows; ++r) {
            const std::int32_t j =
                tier.slotOf(t, static_cast<RowIndex>(r));
            if (j < 0)
                continue;
            ASSERT_LT(static_cast<std::size_t>(j), ref.slots.size());
            ref.slots[static_cast<std::size_t>(j)] = {
                static_cast<std::uint32_t>(t),
                static_cast<std::uint32_t>(r)};
            ++pinned;
        }
    }
    ASSERT_EQ(pinned, before.residentRows);
    tier.endEpoch();
    ref.epoch();
    expectMatchesReference(tier, ref, "after the concurrent run");
}

} // namespace
