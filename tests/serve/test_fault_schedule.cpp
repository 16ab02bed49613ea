/**
 * @file
 * Tests for scripted fault timelines: phase resolution over the
 * virtual clock, lifecycle-script validation, corruption detection
 * hints, and the named chaos scenarios.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "serve/fault_schedule.hpp"

namespace
{

using namespace dlrmopt::serve;
using Kind = LifecycleEvent::Kind;

FaultConfig
throwingConfig(std::uint64_t seed, double rate)
{
    FaultConfig c;
    c.seed = seed;
    c.taskExceptionRate = rate;
    return c;
}

TEST(FaultSchedule, EmptyScheduleHasNoEffect)
{
    const FaultSchedule s;
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.corruptsStore());
    EXPECT_EQ(s.injectorAt(0.0, 0), nullptr);
    EXPECT_EQ(s.injectorAt(1e9, 5), nullptr);
    EXPECT_NO_THROW(s.validate(1));
}

TEST(FaultSchedule, LatestApplicablePhaseWins)
{
    std::vector<FaultPhase> phases;
    phases.push_back({10.0, -1, throwingConfig(1, 0.1)});
    phases.push_back({20.0, -1, throwingConfig(2, 0.2)});
    const FaultSchedule s(std::move(phases), {}, {});

    EXPECT_EQ(s.injectorAt(9.9, 0), nullptr);
    const FaultInjector *p1 = s.injectorAt(10.0, 0);
    ASSERT_NE(p1, nullptr);
    EXPECT_DOUBLE_EQ(p1->config().taskExceptionRate, 0.1);
    const FaultInjector *p2 = s.injectorAt(25.0, 0);
    ASSERT_NE(p2, nullptr);
    EXPECT_DOUBLE_EQ(p2->config().taskExceptionRate, 0.2);
}

TEST(FaultSchedule, InstancePhaseBeatsGlobalAndScopesToTarget)
{
    std::vector<FaultPhase> phases;
    phases.push_back({10.0, -1, throwingConfig(1, 0.1)});
    phases.push_back({10.0, 1, throwingConfig(2, 0.9)});
    const FaultSchedule s(std::move(phases), {}, {});

    const FaultInjector *other = s.injectorAt(15.0, 0);
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(other->config().taskExceptionRate, 0.1);
    const FaultInjector *target = s.injectorAt(15.0, 1);
    ASSERT_NE(target, nullptr);
    EXPECT_DOUBLE_EQ(target->config().taskExceptionRate, 0.9);
}

TEST(FaultSchedule, SortsEventsAndRejectsBadTimestamps)
{
    // Deliberately unsorted scripts come back ascending.
    std::vector<LifecycleEvent> lc = {
        {30.0, 0, Kind::Recover},
        {10.0, 0, Kind::Crash},
    };
    std::vector<BitFlipEvent> flips = {
        {20.0, 1, 2, 3},
        {5.0, 0, 0, 0},
    };
    const FaultSchedule s({}, std::move(lc), std::move(flips));
    ASSERT_EQ(s.lifecycleEvents().size(), 2u);
    EXPECT_EQ(s.lifecycleEvents()[0].kind, Kind::Crash);
    EXPECT_DOUBLE_EQ(s.lifecycleEvents()[0].atMs, 10.0);
    ASSERT_EQ(s.bitFlipEvents().size(), 2u);
    EXPECT_DOUBLE_EQ(s.bitFlipEvents()[0].atMs, 5.0);
    EXPECT_TRUE(s.corruptsStore());

    EXPECT_THROW(
        FaultSchedule({}, {{-1.0, 0, Kind::Crash}}, {}),
        std::invalid_argument);
    EXPECT_THROW(
        FaultSchedule(
            {}, {},
            {{std::numeric_limits<double>::quiet_NaN(), 0, 0, 0}}),
        std::invalid_argument);
    std::vector<FaultPhase> bad_phase;
    bad_phase.push_back({0.0, -2, FaultConfig{}});
    EXPECT_THROW(FaultSchedule(std::move(bad_phase), {}, {}),
                 std::invalid_argument);
    // Phase configs are validated through FaultInjector's ctor.
    std::vector<FaultPhase> bad_cfg;
    bad_cfg.push_back({0.0, -1, throwingConfig(1, 1.5)});
    EXPECT_THROW(FaultSchedule(std::move(bad_cfg), {}, {}),
                 std::invalid_argument);
}

TEST(FaultSchedule, ValidateChecksInstanceRangeAndAlternation)
{
    {
        const FaultSchedule s({}, {{1.0, 3, Kind::Crash}}, {});
        EXPECT_THROW(s.validate(2), std::invalid_argument);
        EXPECT_NO_THROW(s.validate(4));
    }
    {
        std::vector<FaultPhase> phases;
        phases.push_back({0.0, 2, FaultConfig{}});
        const FaultSchedule s(std::move(phases), {}, {});
        EXPECT_THROW(s.validate(2), std::invalid_argument);
        EXPECT_NO_THROW(s.validate(3));
    }
    {
        // Crash twice without recovering.
        const FaultSchedule s(
            {}, {{1.0, 0, Kind::Crash}, {2.0, 0, Kind::Crash}}, {});
        EXPECT_THROW(s.validate(2), std::invalid_argument);
    }
    {
        // Recover without having crashed.
        const FaultSchedule s({}, {{1.0, 0, Kind::Recover}}, {});
        EXPECT_THROW(s.validate(2), std::invalid_argument);
    }
    {
        const FaultSchedule s(
            {},
            {{1.0, 0, Kind::Crash},
             {2.0, 0, Kind::Recover},
             {3.0, 0, Kind::Crash}},
            {});
        EXPECT_NO_THROW(s.validate(1));
    }
}

TEST(FaultSchedule, ValidateRangeChecksEveryPhaseStragglerCore)
{
    // A straggler core the instance does not have would silently
    // never straggle: the cluster shape rejects it.
    FaultConfig slow;
    slow.stragglerCore = 7;
    slow.stragglerFactor = 3.0;
    std::vector<FaultPhase> phases;
    phases.push_back({0.0, -1, FaultConfig{}});
    phases.push_back({5.0, 0, slow});
    const FaultSchedule s(std::move(phases), {}, {});
    EXPECT_THROW(s.validate(1, 2), std::invalid_argument);
    EXPECT_NO_THROW(s.validate(1, 8));
    // 0 cores per instance skips the range check.
    EXPECT_NO_THROW(s.validate(1));
}

TEST(FaultSchedule, CorruptsStoreDetectsBitFlipPhases)
{
    FaultConfig flip;
    flip.bitFlipRate = 0.5;
    std::vector<FaultPhase> phases;
    phases.push_back({0.0, -1, flip});
    const FaultSchedule s(std::move(phases), {}, {});
    EXPECT_TRUE(s.corruptsStore());

    std::vector<FaultPhase> clean;
    clean.push_back({0.0, -1, FaultConfig{}});
    const FaultSchedule t(std::move(clean), {}, {});
    EXPECT_FALSE(t.corruptsStore());
}

TEST(FaultSchedule, ChaosScenariosAreWellFormed)
{
    for (const auto& name : FaultSchedule::scenarioNames()) {
        const auto s =
            FaultSchedule::chaosScenario(name, 2, 100.0, 7);
        EXPECT_FALSE(s.empty()) << name;
        EXPECT_NO_THROW(s.validate(2)) << name;
        // Everything the scenario scripts happens inside the session.
        for (const auto& e : s.lifecycleEvents())
            EXPECT_LT(e.atMs, 100.0 * 1.5) << name;
        for (const auto& e : s.bitFlipEvents())
            EXPECT_LT(e.atMs, 100.0) << name;
    }
    EXPECT_TRUE(FaultSchedule::chaosScenario("rolling-corruption", 2,
                                             100.0, 7)
                    .corruptsStore());
    EXPECT_FALSE(
        FaultSchedule::chaosScenario("crash-storm", 2, 100.0, 7)
            .corruptsStore());

    EXPECT_THROW(FaultSchedule::chaosScenario("nope", 2, 100.0, 7),
                 std::invalid_argument);
    EXPECT_THROW(
        FaultSchedule::chaosScenario("crash-storm", 1, 100.0, 7),
        std::invalid_argument);
    EXPECT_THROW(
        FaultSchedule::chaosScenario("crash-storm", 2, 0.0, 7),
        std::invalid_argument);
}

TEST(FaultSchedule, MoveOnlySemanticsPreserveState)
{
    auto s = FaultSchedule::chaosScenario("crash-storm", 3, 100.0, 1);
    const std::size_t events = s.lifecycleEvents().size();
    FaultSchedule moved = std::move(s);
    EXPECT_EQ(moved.lifecycleEvents().size(), events);
    EXPECT_NO_THROW(moved.validate(3));
}

} // namespace
