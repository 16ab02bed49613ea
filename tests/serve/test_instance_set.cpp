/**
 * @file
 * InstanceSet: per-slot core clocks, partial drains, the up-time
 * integral, session carry-over and the scripted-chaos replay (events
 * in time order, crash during probation, scrubbers advanced before
 * each flip lands).
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/embedding_store.hpp"
#include "serve/instance_set.hpp"
#include "serve/scrub.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;
using Kind = LifecycleEvent::Kind;

InstanceSetConfig
timing(std::size_t partial, double grace, double probation)
{
    InstanceSetConfig c;
    c.partialDrainCores = partial;
    c.drainGraceMs = grace;
    c.probationMs = probation;
    return c;
}

TEST(InstanceSetTest, StartsTheFirstSlotsUpAndTheRestDown)
{
    InstanceSet set({2, 3, 2}, InstanceSetConfig{}, 2);
    EXPECT_EQ(set[1].cores(), 3u);
    EXPECT_EQ(set[1].state, InstanceState::Up);
    EXPECT_TRUE(set[1].dispatchable());
    EXPECT_EQ(set[2].state, InstanceState::Down);
    EXPECT_FALSE(set[2].dispatchable());
}

TEST(InstanceSetTest, EarliestCoreIsLowestIndexAmongActiveCores)
{
    InstanceSet set({3}, timing(1, 0.0, 5.0), 1);
    set.startSession(nullptr, {});
    set.occupy(0, 0, 5.0);
    set.occupy(0, 1, 2.0);
    set.occupy(0, 2, 2.0);
    EXPECT_EQ(set.earliestCore(0), 1u);

    // A partial drain narrows dispatch to the residual group.
    set.beginDrain(0, 1.0);
    EXPECT_TRUE(set[0].dispatchable());
    EXPECT_EQ(set.earliestCore(0), 0u);
}

TEST(InstanceSetTest, PartialDrainLingersPastItsLastDispatch)
{
    InstanceSet set({2}, timing(1, 3.0, 5.0), 1);
    set.startSession(nullptr, {});
    set.occupy(0, 1, 4.0);
    set.beginDrain(0, 1.0);
    // In-flight work ends at 4, then the grace.
    EXPECT_DOUBLE_EQ(set.nextWakeMs(), 7.0);
    set.occupy(0, 0, 6.0);
    EXPECT_DOUBLE_EQ(set.nextWakeMs(), 7.0);
    set.holdDrain(0, 9.0);
    EXPECT_DOUBLE_EQ(set.nextWakeMs(), 9.0);

    set.advanceTo(8.9);
    EXPECT_EQ(set[0].state, InstanceState::Draining);
    set.advanceTo(9.0);
    EXPECT_EQ(set[0].state, InstanceState::Down);
    EXPECT_FALSE(set[0].dispatchable());
    EXPECT_DOUBLE_EQ(set.nextWakeMs(),
                     std::numeric_limits<double>::max());
}

TEST(InstanceSetTest, ReplayRestartsACrashedSlotAfterProbation)
{
    const FaultSchedule script(
        {}, {{10.0, 0, Kind::Crash}, {20.0, 0, Kind::Recover}}, {});
    InstanceSet set({2, 2}, timing(0, 0.0, 5.0), 2);
    std::vector<double> restarted;
    InstanceHooks hooks;
    hooks.restart = [&](std::size_t i, double t) {
        EXPECT_EQ(i, 0u);
        restarted.push_back(t);
    };
    set.startSession(&script, std::move(hooks));

    set.advanceTo(12.0);
    EXPECT_EQ(set[0].state, InstanceState::Down);
    EXPECT_TRUE(set[0].scriptedDown);
    EXPECT_DOUBLE_EQ(set.nextWakeMs(), 20.0);

    set.advanceTo(30.0);
    EXPECT_EQ(set[0].state, InstanceState::Up);
    EXPECT_FALSE(set[0].scriptedDown);
    EXPECT_EQ(restarted, std::vector<double>{20.0});
    // The restarted slot's cores take no work before the probation
    // ends.
    EXPECT_DOUBLE_EQ(set[0].freeAt[1], 25.0);
    EXPECT_EQ(set.sessionCrashes(), 1u);
    EXPECT_EQ(set.sessionRestarts(), 1u);
    // Up for [0, 10) and again from the probation end at 25.
    EXPECT_DOUBLE_EQ(set.upMs(0, 30.0), 15.0);
    EXPECT_DOUBLE_EQ(set.upMs(1, 30.0), 30.0);
}

TEST(InstanceSetTest, CrashDuringProbationTakesTheSlotDown)
{
    const FaultSchedule script({},
                               {{10.0, 0, Kind::Crash},
                                {20.0, 0, Kind::Recover},
                                {22.0, 0, Kind::Crash},
                                {80.0, 0, Kind::Recover}},
                               {});
    InstanceSet set({2, 2}, timing(0, 0.0, 5.0), 2);
    set.startSession(&script, {});

    set.advanceTo(50.0);
    EXPECT_EQ(set[0].state, InstanceState::Down);
    EXPECT_EQ(set.sessionCrashes(), 2u);
    EXPECT_EQ(set.sessionRestarts(), 0u);
    EXPECT_DOUBLE_EQ(set.nextWakeMs(), 80.0);

    set.advanceTo(90.0);
    EXPECT_EQ(set[0].state, InstanceState::Up);
    EXPECT_EQ(set[0].restarts, 1u);
    EXPECT_DOUBLE_EQ(set.upMs(0, 90.0), 10.0 + 5.0);
}

TEST(InstanceSetTest, ScrubbersReachEachFlipBeforeItLands)
{
    core::ModelConfig m;
    m.rows = 1024;
    m.dim = 8;
    m.tables = 2;
    m.lookups = 2;
    m.bottomMlp = {8, 8};
    m.topMlp = {4, 1};
    auto store = core::EmbeddingStore::createMutable(m, 3);
    ScrubConfig sc;
    sc.enabled = true;
    sc.intervalMs = 1.0;
    sc.blocksPerTick = 1;
    EmbeddingScrubber scrubber(store, sc);

    const FaultSchedule script({}, {}, {{5.5, 1, 7, 3}});
    InstanceSet set({1, 1}, InstanceSetConfig{}, 2);
    std::uint64_t scrubbed_at_flip = 0;
    InstanceHooks hooks;
    hooks.scrub = [&](double t) { scrubber.advanceTo(t); };
    hooks.flip = [&](const BitFlipEvent& e) {
        scrubbed_at_flip = scrubber.blocksScrubbed();
        store->flipBit(e.table, e.row, e.bit);
    };
    set.startSession(&script, std::move(hooks));

    // One jump across the flip: ticks 1..5 run before it lands, the
    // rest after, so a later sweep finds and repairs it.
    const double end =
        10.0 + 2.0 * static_cast<double>(scrubber.blocksPerSweep());
    set.advanceTo(end);
    EXPECT_EQ(scrubbed_at_flip, 5u);
    EXPECT_EQ(scrubber.corruptionsFound(), 1u);
    EXPECT_EQ(scrubber.blocksRepaired(), 1u);
    EXPECT_TRUE(store->findCorruptBlocks().empty());
}

TEST(InstanceSetTest, SessionsKeepStatesAndResetClocks)
{
    const FaultSchedule crash({}, {{3.0, 1, Kind::Crash}}, {});
    InstanceSet set({2, 2}, InstanceSetConfig{}, 2);
    set.startSession(&crash, {});
    set.occupy(0, 0, 8.0);
    set.advanceTo(10.0);
    EXPECT_EQ(set[1].state, InstanceState::Down);
    EXPECT_DOUBLE_EQ(set.upMs(1, 10.0), 3.0);

    set.startSession(nullptr, {});
    EXPECT_EQ(set[1].state, InstanceState::Down);
    EXPECT_EQ(set.sessionCrashes(), 0u);
    EXPECT_DOUBLE_EQ(set[0].freeAt[0], 0.0);
    EXPECT_DOUBLE_EQ(set.upMs(0, 4.0), 4.0);
    EXPECT_DOUBLE_EQ(set.upMs(1, 4.0), 0.0);
}

TEST(InstanceSetTest, InjectorFollowsTheSchedule)
{
    FaultConfig throwing;
    throwing.taskExceptionRate = 1.0;
    const FaultSchedule script({{5.0, 0, throwing}}, {}, {});
    InstanceSet set({1, 1}, InstanceSetConfig{}, 2);
    EXPECT_EQ(set.injectorAt(0, 6.0), nullptr); // no session yet
    set.startSession(&script, {});
    EXPECT_EQ(set.injectorAt(0, 1.0), nullptr);
    const FaultInjector *phase = set.injectorAt(0, 6.0);
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->config().taskExceptionRate, 1.0);
    EXPECT_EQ(set.injectorAt(1, 6.0), nullptr);
}

} // namespace
