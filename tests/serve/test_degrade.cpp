/**
 * @file
 * Tests for the sliding-window p95 tracker and the graceful
 * degradation tier controller.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/degrade.hpp"
#include "serve/latency_stats.hpp"

namespace
{

using namespace dlrmopt::serve;

TEST(WindowedP95, MatchesLatencyStatsOnPartialWindow)
{
    WindowedP95 win(100);
    LatencyStats ref;
    for (int i = 0; i < 40; ++i) {
        const double v = (i * 37) % 23 + 0.5;
        win.add(v);
        ref.add(v);
    }
    EXPECT_FALSE(win.full());
    EXPECT_DOUBLE_EQ(win.p95(), ref.p95());
}

TEST(WindowedP95, OldSamplesFallOutOfTheWindow)
{
    WindowedP95 win(10);
    for (int i = 0; i < 10; ++i)
        win.add(1000.0); // ancient spike
    for (int i = 0; i < 10; ++i)
        win.add(1.0); // calm recent history
    EXPECT_TRUE(win.full());
    EXPECT_DOUBLE_EQ(win.p95(), 1.0);
}

TEST(WindowedP95, EmptyAndDegenerate)
{
    WindowedP95 win(4);
    EXPECT_DOUBLE_EQ(win.p95(), 0.0);
    EXPECT_THROW(WindowedP95(0), std::invalid_argument);
}

DegradeConfig
fastConfig()
{
    DegradeConfig c;
    c.enabled = true;
    c.window = 16;
    c.cooldown = 16;
    return c;
}

TEST(DegradationPolicy, EscalatesUnderSustainedTailPressure)
{
    DegradationPolicy p(fastConfig(), 100.0);
    EXPECT_EQ(p.tier(), 0);
    for (int i = 0; i < 64 && p.tier() == 0; ++i)
        p.observe(95.0); // p95 above 0.9 * SLA
    EXPECT_EQ(p.tier(), 1);
    EXPECT_GE(p.escalations(), 1u);

    // Keep the pressure on: walks the ladder but never past maxTier.
    for (int i = 0; i < 500; ++i)
        p.observe(95.0);
    EXPECT_EQ(p.tier(), DegradationPolicy::maxTier());
}

TEST(DegradationPolicy, RecoversAfterCalmCooldown)
{
    DegradationPolicy p(fastConfig(), 100.0);
    for (int i = 0; i < 64 && p.tier() == 0; ++i)
        p.observe(95.0);
    ASSERT_GE(p.tier(), 1);
    const int peak = p.tier();

    for (int i = 0; i < 500; ++i)
        p.observe(10.0); // far below 0.5 * SLA
    EXPECT_LT(p.tier(), peak);
    EXPECT_EQ(p.tier(), 0);
}

TEST(DegradationPolicy, DisabledPolicyNeverMoves)
{
    DegradeConfig c = fastConfig();
    c.enabled = false;
    DegradationPolicy p(c, 100.0);
    for (int i = 0; i < 500; ++i)
        p.observe(99.0);
    EXPECT_EQ(p.tier(), 0);
    EXPECT_EQ(p.escalations(), 0u);
}

TEST(DegradationPolicy, HysteresisPreventsFlapping)
{
    // Latencies oscillating around the high-water mark must not cause
    // a tier change per sample: cooldown bounds the change rate.
    DegradationPolicy p(fastConfig(), 100.0);
    std::size_t changes = 0;
    int last = p.tier();
    for (int i = 0; i < 320; ++i) {
        p.observe(i % 2 ? 96.0 : 85.0);
        if (p.tier() != last) {
            ++changes;
            last = p.tier();
        }
    }
    EXPECT_LE(changes, 320u / 16u);
}

TEST(DegradationPolicy, TierStatesFormTheDocumentedLadder)
{
    using dlrmopt::core::EmbDtype;

    EXPECT_EQ(DegradationPolicy::maxTier(), 4);

    const auto t0 = DegradationPolicy::stateForTier(0);
    EXPECT_EQ(t0.dtype, EmbDtype::Fp32);
    EXPECT_DOUBLE_EQ(t0.batchFraction, 1.0);
    EXPECT_TRUE(t0.prefetchEnabled);

    // Precision drops before any work is shed: tiers 1-2 serve every
    // admitted sample at full coalescing.
    const auto t1 = DegradationPolicy::stateForTier(1);
    EXPECT_EQ(t1.dtype, EmbDtype::Bf16);
    EXPECT_DOUBLE_EQ(t1.batchFraction, 1.0);
    EXPECT_TRUE(t1.prefetchEnabled);

    const auto t2 = DegradationPolicy::stateForTier(2);
    EXPECT_EQ(t2.dtype, EmbDtype::Int8);
    EXPECT_DOUBLE_EQ(t2.batchFraction, 1.0);
    EXPECT_TRUE(t2.prefetchEnabled);

    // Only after precision is exhausted does coalescing shrink.
    const auto t3 = DegradationPolicy::stateForTier(3);
    EXPECT_EQ(t3.dtype, EmbDtype::Int8);
    EXPECT_DOUBLE_EQ(t3.batchFraction, 0.5);
    EXPECT_TRUE(t3.prefetchEnabled);

    const auto t4 = DegradationPolicy::stateForTier(4);
    EXPECT_EQ(t4.dtype, EmbDtype::Int8);
    EXPECT_DOUBLE_EQ(t4.batchFraction, 0.5);
    EXPECT_FALSE(t4.prefetchEnabled);

    // Beyond the ladder clamps to the deepest tier, below it to 0.
    EXPECT_EQ(DegradationPolicy::stateForTier(7).tier, 4);
    EXPECT_FALSE(DegradationPolicy::stateForTier(7).prefetchEnabled);
    EXPECT_EQ(DegradationPolicy::stateForTier(-1).tier, 0);

    EXPECT_THROW(DegradationPolicy(fastConfig(), 0.0),
                 std::invalid_argument);
}

} // namespace
