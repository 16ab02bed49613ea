/**
 * @file
 * Tests for background checksum scrubbing: the round-robin sweep over
 * every (table, block) pair, bounded detection latency for a silent
 * flip in a *cold* block no request would touch, backlog catch-up on
 * sparse virtual-clock ticks, verify-only mode over a const store,
 * and the fleet integration (scrub counters in FleetStats, a scripted
 * flip repaired in the background).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/embedding_store.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "serve/scrub.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;

core::ModelConfig
smallModel()
{
    core::ModelConfig m;
    m.name = "scrub_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 1024;
    m.dim = 16;
    m.tables = 2;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

TEST(ScrubConfig, ValidateRejectsBadKnobs)
{
    ScrubConfig c;
    c.intervalMs = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.blocksPerTick = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.validate();
}

TEST(Scrubber, RepairRequiresAMutableStore)
{
    std::shared_ptr<const core::EmbeddingStore> ro =
        core::EmbeddingStore::create(smallModel(), 7, 128);
    ScrubConfig cfg;
    cfg.enabled = true;
    cfg.repair = true;
    EXPECT_THROW(EmbeddingScrubber(ro, cfg), std::invalid_argument);
    cfg.repair = false;
    EmbeddingScrubber ok(ro, cfg);
    EXPECT_EQ(ok.blocksPerSweep(),
              ro->numTables() * ro->numBlocks());
}

TEST(Scrubber, OneSweepFindsAndRepairsAColdFlip)
{
    // Flip a bit in the *last* block of the last table — a block the
    // on-demand integrity path would only reach by request luck. One
    // full sweep must find and repair it regardless.
    auto store = core::EmbeddingStore::createMutable(smallModel(), 7,
                                                     128);
    const std::size_t t = store->numTables() - 1;
    const std::size_t b = store->numBlocks() - 1;
    store->flipBit(t, (b + 1) * store->blockRows() - 1, 3);
    ASSERT_FALSE(store->verifyBlock(t, b));

    ScrubConfig cfg;
    cfg.enabled = true;
    cfg.intervalMs = 1.0;
    cfg.blocksPerTick = 2;
    EmbeddingScrubber s(store, cfg);

    // Worst-case detection latency is one sweep period.
    const double sweep_ms =
        cfg.intervalMs *
        static_cast<double>(
            (s.blocksPerSweep() + cfg.blocksPerTick - 1) /
            cfg.blocksPerTick);
    s.advanceTo(sweep_ms + 1.0);
    EXPECT_EQ(s.corruptionsFound(), 1u);
    EXPECT_EQ(s.blocksRepaired(), 1u);
    EXPECT_GE(s.sweepsCompleted(), 1u);
    EXPECT_TRUE(store->verifyBlock(t, b));
    EXPECT_TRUE(store->findCorruptBlocks().empty());
}

TEST(Scrubber, QuantizedStoresScrubJustLikeFp32)
{
    // The checksum sweep covers reduced-precision stores too: a
    // payload flip in a bf16 store and a *metadata* flip (a scale
    // bit past the code payload) in an int8 store are both found and
    // repaired within one sweep.
    for (const core::EmbDtype dtype :
         {core::EmbDtype::Bf16, core::EmbDtype::Int8}) {
        auto store = core::EmbeddingStore::createMutable(
            smallModel(), 7, 128, dtype);
        ASSERT_EQ(store->dtype(), dtype);
        const std::size_t dim = store->table(0).dim();
        const std::size_t bit = dtype == core::EmbDtype::Int8
                                    ? dim * 8 + 5 // scale mantissa
                                    : 3;
        store->flipBit(1, store->blockRows() + 7, bit);
        ASSERT_FALSE(store->verifyBlock(1, 1));

        ScrubConfig cfg;
        cfg.enabled = true;
        cfg.intervalMs = 1.0;
        cfg.blocksPerTick = 2;
        EmbeddingScrubber s(store, cfg);
        const double sweep_ms =
            cfg.intervalMs *
            static_cast<double>(
                (s.blocksPerSweep() + cfg.blocksPerTick - 1) /
                cfg.blocksPerTick);
        s.advanceTo(sweep_ms + 1.0);
        EXPECT_EQ(s.corruptionsFound(), 1u)
            << core::embDtypeName(dtype);
        EXPECT_EQ(s.blocksRepaired(), 1u)
            << core::embDtypeName(dtype);
        EXPECT_TRUE(store->findCorruptBlocks().empty())
            << core::embDtypeName(dtype);
    }
}

TEST(Scrubber, VerifyOnlyCountsButNeverRepairs)
{
    auto store = core::EmbeddingStore::createMutable(smallModel(), 7,
                                                     128);
    store->flipBit(0, 0, 0);

    ScrubConfig cfg;
    cfg.enabled = true;
    cfg.intervalMs = 1.0;
    cfg.blocksPerTick = 4;
    cfg.repair = false;
    EmbeddingScrubber s(
        std::shared_ptr<const core::EmbeddingStore>(store), cfg);
    s.advanceTo(1e4);
    EXPECT_GE(s.corruptionsFound(), 1u); // re-found every sweep
    EXPECT_EQ(s.blocksRepaired(), 0u);
    EXPECT_FALSE(store->verifyBlock(0, 0));
}

TEST(Scrubber, BacklogTicksRunOnSparseAdvances)
{
    // Coverage must depend on virtual time only, not on how often the
    // caller happens to call advanceTo.
    auto s1_store = core::EmbeddingStore::createMutable(smallModel(), 7);
    auto s2_store = core::EmbeddingStore::createMutable(smallModel(), 7);
    ScrubConfig cfg;
    cfg.enabled = true;
    cfg.intervalMs = 2.0;
    cfg.blocksPerTick = 1;
    EmbeddingScrubber fine(s1_store, cfg);
    EmbeddingScrubber coarse(s2_store, cfg);

    for (int t = 1; t <= 100; ++t)
        fine.advanceTo(static_cast<double>(t));
    coarse.advanceTo(100.0);
    EXPECT_EQ(fine.blocksScrubbed(), coarse.blocksScrubbed());
    EXPECT_EQ(fine.sweepsCompleted(), coarse.sweepsCompleted());
}

TEST(Scrubber, DisabledIsANoOp)
{
    auto store = core::EmbeddingStore::createMutable(smallModel(), 7);
    ScrubConfig cfg; // enabled = false
    EmbeddingScrubber s(store, cfg);
    EXPECT_EQ(s.advanceTo(1e6), 0u);
    EXPECT_EQ(s.blocksScrubbed(), 0u);
}

TEST(FleetScrub, BackgroundScrubRepairsAScriptedFlipMidSession)
{
    // A scripted early bit flip lands in a block; with scrubbing on,
    // a single-tenant fleet session must report it found and repaired.
    traces::TraceConfig tc = traces::TraceConfig::forModel(
        smallModel(), traces::Hotness::Medium, 5);
    tc.batchSize = 8;
    traces::TraceGenerator gen(tc);
    std::vector<TenantWorkload> work(1);
    for (std::size_t b = 0; b < 16; ++b)
        work[0].batches.push_back(gen.batch(b));
    work[0].dense.reshape(8, smallModel().denseDim());
    work[0].dense.randomize(3);
    work[0].arrivalsMs = PoissonLoadGen(2.0, 9).arrivals(150);

    TenantConfig t;
    t.name = "scrubbed";
    t.model = smallModel();
    t.slaMs = 50.0;
    TenantRegistry reg;
    reg.add(t);
    FleetConfig cfg;
    cfg.instances = 2;
    cfg.scrub.enabled = true;
    cfg.scrub.intervalMs = 0.5;
    cfg.scrub.blocksPerTick = 2;
    TenantFleet fleet(reg, sched::Topology::synthetic(4, 2), cfg);

    const FaultSchedule schedule({}, {},
                                 {BitFlipEvent{5.0, 0, 100, 7}});
    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &schedule);

    EXPECT_GT(fs.blocksScrubbed, 0u);
    EXPECT_EQ(fs.scrubCorruptions, 1u);
    EXPECT_EQ(fs.scrubRepairs, 1u);
    EXPECT_TRUE(fleet.currentStore(0).findCorruptBlocks().empty());
    EXPECT_TRUE(fs.conserved());
}

/** Retargeting mid-sweep restarts the cursor on the new store's
 *  geometry and subsequent ticks verify the *new* version's blocks. */
TEST(ScrubRetarget, SweepMovesToTheNewStore)
{
    const core::ModelConfig cfg = smallModel();
    auto v1 = core::EmbeddingStore::createMutable(cfg, 7, 128);
    auto v2 = core::EmbeddingStore::createMutable(cfg, 8, 64);

    ScrubConfig sc;
    sc.enabled = true;
    sc.intervalMs = 1.0;
    sc.blocksPerTick = 2;
    EmbeddingScrubber scrub(v1, sc);

    scrub.advanceTo(3.0);
    const std::uint64_t before = scrub.blocksScrubbed();
    EXPECT_GT(before, 0u);

    // v2 carries a silent flip; v1's copy of the same row is clean.
    v2->flipBit(1, 5, 3);
    scrub.retarget(v2);
    EXPECT_EQ(scrub.blocksPerSweep(),
              v2->numTables() * v2->numBlocks());
    EXPECT_DOUBLE_EQ(scrub.sweepProgress(), 0.0);

    // One full sweep over v2 finds and repairs the flip; counters
    // carried over from the v1 era keep accumulating.
    scrub.advanceTo(3.0 + static_cast<double>(scrub.blocksPerSweep()));
    EXPECT_GT(scrub.blocksScrubbed(), before);
    EXPECT_EQ(scrub.corruptionsFound(), 1u);
    EXPECT_EQ(scrub.blocksRepaired(), 1u);
    EXPECT_TRUE(v2->findCorruptBlocks().empty());
    EXPECT_TRUE(v1->findCorruptBlocks().empty());

    EXPECT_THROW(scrub.retarget(nullptr), std::invalid_argument);
}

/**
 * Scrub-during-swap race regression: one thread drives scrub ticks
 * while another retargets the scrubber across versions, repeatedly.
 * Run under TSan (sanitize-threads preset) this proves ticks never
 * race the swap; the assertions prove ticks always land on whichever
 * store is current (no torn cursor/geometry mix).
 */
TEST(ScrubRetarget, ConcurrentAdvanceAndRetargetIsClean)
{
    const core::ModelConfig cfg = smallModel();
    auto v1 = core::EmbeddingStore::createMutable(cfg, 7, 128);
    auto v2 = core::EmbeddingStore::createMutable(cfg, 8, 64);

    ScrubConfig sc;
    sc.enabled = true;
    sc.intervalMs = 0.25;
    sc.blocksPerTick = 1;
    EmbeddingScrubber scrub(v1, sc);

    std::thread ticker([&] {
        for (int i = 1; i <= 400; ++i)
            scrub.advanceTo(static_cast<double>(i) * 0.25);
    });
    for (int swap = 0; swap < 50; ++swap)
        scrub.retarget(swap % 2 == 0 ? v2 : v1);
    ticker.join();

    EXPECT_GT(scrub.blocksScrubbed(), 0u);
    EXPECT_EQ(scrub.corruptionsFound(), 0u);
    // A post-join tick still works on the final target.
    scrub.retarget(v2);
    scrub.advanceTo(200.0);
    EXPECT_LE(scrub.sweepProgress(), 1.0);
}

} // namespace
