/**
 * @file
 * Cluster-resilience acceptance tests on a single-tenant TenantFleet:
 * a scripted chaos session — instance crash mid-session plus silent
 * embedding corruption — must serve zero wrong predictions with block
 * verification on (asserted bitwise against a fault-free run), serve
 * wrong ones with it off, warm-restart the crashed instance within the
 * session and stay bit-reproducible under a fixed seed; FleetStats
 * accounting invariants must hold through every chaos scenario.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/instance_set.hpp"
#include "serve/loadgen.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;
using Kind = LifecycleEvent::Kind;

core::ModelConfig
smallModel()
{
    core::ModelConfig m;
    m.name = "resilience_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 4096;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

class ResilienceTest : public ::testing::Test
{
  protected:
    ResilienceTest()
    {
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            smallModel(), traces::Hotness::Medium, 5);
        tc.batchSize = 8;
        traces::TraceGenerator gen(tc);
        work.resize(1);
        for (std::size_t b = 0; b < 16; ++b)
            work[0].batches.push_back(gen.batch(b));
        work[0].dense.reshape(8, smallModel().denseDim());
        work[0].dense.randomize(3);
    }

    /** A row the request stream is guaranteed to look up. */
    std::size_t
    hotRow() const
    {
        return static_cast<std::size_t>(
            work[0].batches.front().indices[0][0]);
    }

    /** One tenant at @p sla_ms whose dispatches cost @p service. */
    static TenantRegistry
    registry(double sla_ms = 50.0,
             ServiceModel service = ServiceModel::constant(1.0))
    {
        TenantConfig t;
        t.name = "single";
        t.model = smallModel();
        t.slaMs = sla_ms;
        t.service = service;
        t.truth = ServiceTimeline(service);
        TenantRegistry reg;
        reg.add(t);
        return reg;
    }

    static FleetConfig
    baseConfig()
    {
        FleetConfig cfg;
        cfg.instances = 2;
        cfg.maxRetries = 2;
        cfg.capacity.probationMs = 5.0;
        cfg.seed = 11;
        return cfg;
    }

    /** Serves the fixture's stream over @p arrivals on @p fleet. */
    FleetStats
    serve(TenantFleet& fleet, std::vector<double> arrivals,
          const FaultSchedule *script = nullptr)
    {
        work[0].arrivalsMs = std::move(arrivals);
        return fleet.serve(work, core::PrefetchSpec::paperDefault(),
                           script);
    }

    /** Crash instance 0 mid-session, recover it, and silently flip a
     *  bit of a row the stream actually reads. */
    FaultSchedule
    chaosScript() const
    {
        std::vector<LifecycleEvent> lc = {
            {30.0, 0, Kind::Crash},
            {60.0, 0, Kind::Recover},
        };
        std::vector<BitFlipEvent> flips = {{10.0, 0, hotRow(), 30}};
        return FaultSchedule({}, std::move(lc), std::move(flips));
    }

    /** Served requests of @p got whose prediction differs bitwise from
     *  @p ref's; @p compared counts the requests both served. */
    static std::size_t
    wrongAnswers(const FleetStats& got, const FleetStats& ref,
                 std::size_t *compared = nullptr)
    {
        const auto& g = got.perTenant[0].predFingerprints;
        const auto& r = ref.perTenant[0].predFingerprints;
        std::size_t wrong = 0, both = 0;
        for (std::size_t i = 0; i < g.size(); ++i) {
            if (g[i] == 0 || r[i] == 0)
                continue; // not served in one of the runs
            ++both;
            wrong += g[i] != r[i];
        }
        if (compared)
            *compared = both;
        return wrong;
    }

    std::vector<TenantWorkload> work;
    sched::Topology topo = sched::Topology::synthetic(4, 2);
};

TEST_F(ResilienceTest, ChaosSessionServesZeroWrongPredictions)
{
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(150);

    // Fault-free reference: what every prediction should be.
    TenantFleet ref_fleet(registry(), topo, baseConfig());
    const FleetStats ref = serve(ref_fleet, arrivals);
    ASSERT_EQ(ref.total.served, 150u);

    // Chaos run: crash + corruption, block verification on.
    FleetConfig cfg = baseConfig();
    cfg.verifyBlocks = true;
    TenantFleet fleet(registry(), topo, cfg);
    const auto script = chaosScript();
    const FleetStats fs = serve(fleet, arrivals, &script);

    // The crash happened, the instance warm-restarted in-session, and
    // its outage shows in the provisioned instance-ms.
    EXPECT_EQ(fs.crashes, 1u);
    EXPECT_EQ(fs.restarts, 1u);
    EXPECT_LT(fs.instanceMsUp, 2.0 * fs.makespanMs);
    EXPECT_TRUE(fs.conserved());

    // The corruption was caught and repaired, never served.
    EXPECT_GE(fs.verifyRepairs, 1u);
    EXPECT_TRUE(fleet.currentStore(0).findCorruptBlocks().empty());

    // Acceptance: zero wrong predictions served — every served
    // request's prediction is bitwise-identical to the fault-free run.
    ASSERT_EQ(fs.perTenant[0].predFingerprints.size(), 150u);
    std::size_t compared = 0;
    EXPECT_EQ(wrongAnswers(fs, ref, &compared), 0u);
    EXPECT_GT(compared, 100u);
}

TEST_F(ResilienceTest, CorruptionWithoutIntegrityServesWrongAnswers)
{
    // The control experiment: same corruption, verification off —
    // wrong predictions ARE served, which is exactly what block
    // verification exists to prevent.
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(100);

    TenantFleet ref_fleet(registry(), topo, baseConfig());
    const FleetStats ref = serve(ref_fleet, arrivals);

    TenantFleet fleet(registry(), topo, baseConfig());
    const FaultSchedule script({}, {}, {{0.0, 0, hotRow(), 30}});
    const FleetStats fs = serve(fleet, arrivals, &script);

    EXPECT_FALSE(fleet.currentStore(0).findCorruptBlocks().empty());
    EXPECT_EQ(fs.verifyRepairs, 0u);
    EXPECT_GT(wrongAnswers(fs, ref), 0u);
}

TEST_F(ResilienceTest, WarmRestartedInstanceServesAgainInSession)
{
    // One instance, crashed before the first arrival: every request
    // served is therefore proof of post-restart serving.
    FleetConfig cfg = baseConfig();
    cfg.instances = 1;
    TenantFleet fleet(registry(), topo, cfg);
    const FaultSchedule script(
        {}, {{0.0, 0, Kind::Crash}, {20.0, 0, Kind::Recover}}, {});
    const FleetStats fs =
        serve(fleet, PoissonLoadGen(1.0, 3).arrivals(100), &script);

    EXPECT_EQ(fs.crashes, 1u);
    EXPECT_EQ(fs.restarts, 1u);
    EXPECT_EQ(fs.total.served, 100u);
    EXPECT_EQ(fs.total.failed, 0u);
    // Up from the end of probation (20 + 5 ms) to the last dispatch.
    EXPECT_NEAR(fs.instanceMsUp, fs.makespanMs - 25.0, 1e-9);
}

TEST_F(ResilienceTest, CrashDuringProbationTakesTheInstanceDown)
{
    // Instance 0 warm-restarts at 20 ms and crashes again at 22 ms,
    // inside its 5 ms probation; it recovers at 80 ms, so its second
    // probation ends at 85 ms. Every request arrives inside that
    // outage, so the one instance serves them all after it.
    std::vector<double> arrivals;
    for (std::size_t r = 0; r < 100; ++r)
        arrivals.push_back(22.5 + 0.6 * static_cast<double>(r));
    FleetConfig cfg = baseConfig();
    cfg.instances = 1;
    TenantFleet fleet(registry(500.0), topo, cfg);
    const FaultSchedule script({},
                               {{10.0, 0, Kind::Crash},
                                {20.0, 0, Kind::Recover},
                                {22.0, 0, Kind::Crash},
                                {80.0, 0, Kind::Recover}},
                               {});
    const FleetStats fs = serve(fleet, arrivals, &script);

    EXPECT_EQ(fs.crashes, 2u);
    EXPECT_EQ(fs.total.served, 100u);
    // Up only before the first crash and from 85 ms on.
    EXPECT_NEAR(fs.instanceMsUp, 10.0 + fs.makespanMs - 85.0, 1e-9);
}

TEST_F(ResilienceTest, FaultySessionIsBitReproducible)
{
    // Acceptance: the whole chaos session — crash, restart, bit flip,
    // verification repair — replays bit-identically under a fixed
    // seed.
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(120);
    FleetConfig cfg = baseConfig();
    cfg.verifyBlocks = true;

    const auto run = [&]() {
        TenantFleet fleet(registry(), topo, cfg);
        const auto script = chaosScript();
        return serve(fleet, arrivals, &script);
    };
    const FleetStats a = run();
    const FleetStats b = run();

    EXPECT_EQ(a.total.served, b.total.served);
    EXPECT_EQ(a.total.shed, b.total.shed);
    EXPECT_EQ(a.total.failed, b.total.failed);
    EXPECT_EQ(a.total.retried, b.total.retried);
    EXPECT_EQ(a.compliant, b.compliant);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.verifyRepairs, b.verifyRepairs);
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.instanceMsUp, b.instanceMsUp);
    EXPECT_EQ(a.total.latency.samples(), b.total.latency.samples());
    EXPECT_EQ(a.perTenant[0].predFingerprints,
              b.perTenant[0].predFingerprints);
}

TEST_F(ResilienceTest, StatsInvariantsHoldUnderEveryChaosScenario)
{
    const auto arrivals = PoissonLoadGen(0.5, 13).arrivals(250);
    const double session_ms = arrivals.back();

    for (const auto& name : FaultSchedule::scenarioNames()) {
        FleetConfig cfg = baseConfig();
        cfg.verifyBlocks = true;
        TenantFleet fleet(registry(15.0, ServiceModel{0.8, 0.04}), topo,
                          cfg);
        const auto script =
            FaultSchedule::chaosScenario(name, 2, session_ms, 7);
        const FleetStats fs = serve(fleet, arrivals, &script);

        // Every request reaches exactly one terminal outcome, and the
        // one tenant's tallies are the fleet's.
        EXPECT_TRUE(fs.conserved()) << name;
        EXPECT_EQ(fs.total.arrived, 250u) << name;
        const TenantStats& t = fs.perTenant[0];
        EXPECT_EQ(t.stats.served, fs.total.served) << name;
        EXPECT_EQ(t.stats.shed, fs.total.shed) << name;
        EXPECT_EQ(t.stats.failed, fs.total.failed) << name;
        EXPECT_EQ(t.compliant, fs.compliant) << name;
        EXPECT_LE(fs.compliant, fs.total.served) << name;
        EXPECT_EQ(fs.budgetShed + fs.deadlineShed, fs.total.shed)
            << name;
        EXPECT_LE(fs.lifecycleShed, fs.total.failed) << name;

        // Exactly the served requests carry a fingerprint.
        std::size_t fingerprinted = 0;
        for (const std::uint64_t fp : t.predFingerprints)
            fingerprinted += fp != 0;
        EXPECT_EQ(fingerprinted, fs.total.served) << name;
        EXPECT_LE(fs.instanceMsUp, 2.0 * fs.makespanMs + 1e-9) << name;
        EXPECT_FALSE(fs.summary().empty()) << name;
    }
}

TEST_F(ResilienceTest, ServeValidatesScheduleAgainstCluster)
{
    TenantFleet fleet(registry(), topo, baseConfig());
    // Schedule targets instance 5 of a 2-instance cluster.
    const FaultSchedule bad({}, {{1.0, 5, Kind::Crash}}, {});
    EXPECT_THROW(serve(fleet, PoissonLoadGen(1.0, 3).arrivals(10), &bad),
                 std::invalid_argument);
}

TEST_F(ResilienceTest, LifecycleTransitionsAreGuarded)
{
    // Direct state-machine checks on one slot (the fleet drives these
    // transitions from scripted events and capacity moves).
    InstanceSet set({2}, InstanceSetConfig{}, 1);
    EXPECT_EQ(set[0].state, InstanceState::Up);
    EXPECT_THROW(set.markDown(0), std::logic_error);
    EXPECT_THROW(set.beginWarmRestart(0, 0.0), std::logic_error);
    EXPECT_THROW(set.completeWarmRestart(0), std::logic_error);
    set.beginDrain(0, 0.0);
    EXPECT_EQ(set[0].state, InstanceState::Draining);
    EXPECT_THROW(set.beginDrain(0, 0.0), std::logic_error);
    set.markDown(0);
    EXPECT_EQ(set[0].state, InstanceState::Down);
    set.beginWarmRestart(0, 1.0);
    EXPECT_EQ(set[0].state, InstanceState::WarmRestart);
    set.completeWarmRestart(0);
    EXPECT_EQ(set[0].state, InstanceState::Up);
    EXPECT_EQ(set[0].restarts, 1u);
    EXPECT_STREQ(instanceStateName(InstanceState::Draining),
                 "Draining");
}

} // namespace
