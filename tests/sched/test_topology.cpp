/**
 * @file
 * Tests for CPU topology discovery and synthetic layouts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sched/topology.hpp"

namespace
{

using namespace dlrmopt::sched;

TEST(Topology, SyntheticLayout)
{
    const Topology t = Topology::synthetic(4, 2);
    EXPECT_EQ(t.numPhysicalCores(), 4u);
    EXPECT_EQ(t.numLogicalCpus(), 8u);
    EXPECT_TRUE(t.smtAvailable());
    EXPECT_EQ(t.siblings(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(t.siblings(3), (std::vector<int>{6, 7}));
}

TEST(Topology, SyntheticWithoutSmt)
{
    const Topology t = Topology::synthetic(6, 1);
    EXPECT_EQ(t.numPhysicalCores(), 6u);
    EXPECT_EQ(t.numLogicalCpus(), 6u);
    EXPECT_FALSE(t.smtAvailable());
}

TEST(Topology, DetectReturnsSomething)
{
    const Topology t = Topology::detect();
    EXPECT_GE(t.numPhysicalCores(), 1u);
    EXPECT_GE(t.numLogicalCpus(), t.numPhysicalCores());
    // Every logical CPU id appears exactly once.
    std::vector<int> all;
    for (std::size_t c = 0; c < t.numPhysicalCores(); ++c) {
        for (int cpu : t.siblings(c))
            all.push_back(cpu);
    }
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) ==
                all.end());
}

TEST(Topology, PartitionCoversAllCoresDisjointly)
{
    const Topology t = Topology::synthetic(6, 2);
    const auto groups = t.partition(3);
    ASSERT_EQ(groups.size(), 3u);

    // Every logical CPU of the parent appears in exactly one group.
    std::vector<int> all;
    for (const Topology& g : groups) {
        EXPECT_EQ(g.numPhysicalCores(), 2u);
        EXPECT_TRUE(g.smtAvailable());
        for (std::size_t c = 0; c < g.numPhysicalCores(); ++c) {
            for (int cpu : g.siblings(c))
                all.push_back(cpu);
        }
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), t.numLogicalCpus());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], static_cast<int>(i));
}

TEST(Topology, PartitionSplitsUnevenCountsNearEvenly)
{
    // 7 cores over 3 groups: sizes 3, 2, 2 (leading groups take the
    // remainder), never 5, 1, 1.
    const Topology t = Topology::synthetic(7, 1);
    const auto groups = t.partition(3);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].numPhysicalCores(), 3u);
    EXPECT_EQ(groups[1].numPhysicalCores(), 2u);
    EXPECT_EQ(groups[2].numPhysicalCores(), 2u);

    // n == cores degenerates to one core per group.
    for (const Topology& g : t.partition(7))
        EXPECT_EQ(g.numPhysicalCores(), 1u);
}

TEST(Topology, PartitionRejectsImpossibleGroupCounts)
{
    const Topology t = Topology::synthetic(4, 2);
    EXPECT_THROW(t.partition(0), std::invalid_argument);
    EXPECT_THROW(t.partition(5), std::invalid_argument);
}

TEST(Topology, PinToCurrentCpuSucceedsOrFailsGracefully)
{
    // Pinning to CPU 0 should normally work; a restricted sandbox may
    // refuse, which must be reported as false, not crash.
    const bool ok = pinThreadToCpu(0);
    (void)ok;
    // Invalid ids must fail cleanly.
    EXPECT_FALSE(pinThreadToCpu(-1));
    EXPECT_FALSE(pinThreadToCpu(1 << 20));
}

} // namespace
