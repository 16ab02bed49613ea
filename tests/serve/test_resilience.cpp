/**
 * @file
 * Cluster-resilience acceptance tests (ISSUE 4): a scripted chaos
 * session — instance crash mid-session plus silent embedding
 * corruption — must serve zero wrong predictions (asserted bitwise
 * against a fault-free run), warm-restart the crashed instance within
 * the session, stay bit-reproducible under a fixed seed, and show
 * breakers + hedging strictly improving SLA compliance; RouterStats
 * accounting invariants must hold through all of it.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/embedding_store.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/instance_set.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
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
        for (std::size_t b = 0; b < 16; ++b)
            batches.push_back(gen.batch(b));
        dense.reshape(8, smallModel().denseDim());
        dense.randomize(3);
    }

    /** A row the request stream is guaranteed to look up. */
    std::size_t
    hotRow() const
    {
        return static_cast<std::size_t>(batches.front().indices[0][0]);
    }

    RouterConfig
    baseConfig() const
    {
        RouterConfig cfg;
        cfg.instances = 2;
        cfg.policy = RoutePolicy::RoundRobin;
        cfg.server.slaMs = 50.0;
        cfg.server.service = ServiceModel::constant(1.0);
        cfg.server.maxRetries = 2;
        cfg.recordPredictions = true;
        cfg.probationMs = 5.0;
        return cfg;
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

    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

TEST_F(ResilienceTest, ChaosSessionServesZeroWrongPredictions)
{
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(150);

    // Fault-free reference: what every prediction should be.
    auto ref_store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router ref_router(smallModel(), ref_store,
                      sched::Topology::synthetic(4, 2), baseConfig());
    const auto ref = ref_router.serve(dense, batches, arrivals);
    ASSERT_EQ(ref.total.served, 150u);

    // Chaos run: crash + corruption, integrity verification on.
    RouterConfig cfg = baseConfig();
    cfg.integrity.enabled = true;
    cfg.integrity.repair = true;
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg);
    const auto script = chaosScript();
    const auto rs = router.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &script);

    // The crash happened and the instance warm-restarted in-session.
    EXPECT_EQ(rs.crashes, 1u);
    EXPECT_EQ(rs.restarts, 1u);
    EXPECT_EQ(router.lifecycle(0).state, InstanceState::Up);
    EXPECT_EQ(router.lifecycle(0).restarts, 1u);
    ASSERT_EQ(rs.availability.size(), 2u);
    EXPECT_LT(rs.availability[0], 1.0);
    EXPECT_DOUBLE_EQ(rs.availability[1], 1.0);
    EXPECT_GT(rs.perInstance[0].served, 0u);

    // The corruption was caught and repaired, never served.
    EXPECT_GE(rs.corruptionsDetected, 1u);
    EXPECT_GE(rs.blocksRepaired, 1u);
    EXPECT_EQ(rs.integrityDegraded, 0u);
    EXPECT_TRUE(store->findCorruptBlocks().empty());

    // Acceptance: zero wrong predictions served — every served
    // request's prediction is bitwise-identical to the fault-free run.
    ASSERT_EQ(rs.predFingerprints.size(), 150u);
    std::size_t compared = 0;
    for (std::size_t r = 0; r < 150; ++r) {
        if (rs.predFingerprints[r] == 0 ||
            ref.predFingerprints[r] == 0)
            continue; // not served in one of the runs
        EXPECT_EQ(rs.predFingerprints[r], ref.predFingerprints[r])
            << "request " << r << " served a wrong prediction";
        ++compared;
    }
    EXPECT_GT(compared, 100u);
}

TEST_F(ResilienceTest, CorruptionWithoutIntegrityServesWrongAnswers)
{
    // The control experiment: same corruption, integrity checks off —
    // wrong predictions ARE served, which is exactly what the
    // integrity layer exists to prevent.
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(100);

    auto ref_store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router ref_router(smallModel(), ref_store,
                      sched::Topology::synthetic(4, 2), baseConfig());
    const auto ref = ref_router.serve(dense, batches, arrivals);

    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), baseConfig());
    std::vector<BitFlipEvent> flips = {{0.0, 0, hotRow(), 30}};
    const FaultSchedule script({}, {}, std::move(flips));
    const auto rs = router.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &script);

    EXPECT_FALSE(store->findCorruptBlocks().empty());
    std::size_t wrong = 0;
    for (std::size_t r = 0; r < 100; ++r) {
        if (rs.predFingerprints[r] != 0 &&
            ref.predFingerprints[r] != 0 &&
            rs.predFingerprints[r] != ref.predFingerprints[r])
            ++wrong;
    }
    EXPECT_GT(wrong, 0u);
}

TEST_F(ResilienceTest, IntegrityWithoutRepairDegradesInsteadOfServing)
{
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(60);
    RouterConfig cfg = baseConfig();
    cfg.integrity.enabled = true;
    cfg.integrity.repair = false;
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg);
    std::vector<BitFlipEvent> flips = {{0.0, 0, hotRow(), 30}};
    const FaultSchedule script({}, {}, std::move(flips));
    const auto rs = router.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &script);

    // Touching requests are degraded (counted failures), the block
    // stays corrupt (no repair), and nothing wrong is served.
    EXPECT_GT(rs.integrityDegraded, 0u);
    EXPECT_EQ(rs.integrityDegraded,
              rs.total.failed); // no other fault source
    EXPECT_FALSE(store->findCorruptBlocks().empty());
    EXPECT_EQ(rs.total.served + rs.total.shed + rs.total.failed, 60u);
}

TEST_F(ResilienceTest, WarmRestartedInstanceServesAgainInSession)
{
    // Crash instance 0 before the first arrival: every request it
    // serves is therefore proof of post-restart serving.
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(100);
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), baseConfig());
    std::vector<LifecycleEvent> lc = {
        {0.0, 0, Kind::Crash},
        {20.0, 0, Kind::Recover},
    };
    const FaultSchedule script({}, std::move(lc), {});
    const auto rs = router.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &script);

    EXPECT_EQ(rs.restarts, 1u);
    EXPECT_GT(rs.perInstance[0].served, 0u);
    EXPECT_EQ(router.lifecycle(0).state, InstanceState::Up);
    // While down, the cluster kept serving on the survivor.
    EXPECT_EQ(rs.total.served, 100u);
    EXPECT_EQ(rs.total.failed, 0u);
}

TEST_F(ResilienceTest, CrashDuringProbationTakesTheInstanceDown)
{
    // Instance 0 warm-restarts at 20 ms and crashes again at 22 ms,
    // inside its 5 ms probation; it recovers at 80 ms, so its second
    // probation ends at 85 ms. Every request arrives inside that
    // outage, so none of them may land on instance 0.
    std::vector<double> arrivals;
    for (std::size_t r = 0; r < 100; ++r)
        arrivals.push_back(22.5 + 0.6 * static_cast<double>(r));
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), baseConfig());
    std::vector<LifecycleEvent> lc = {
        {10.0, 0, Kind::Crash},
        {20.0, 0, Kind::Recover},
        {22.0, 0, Kind::Crash},
        {80.0, 0, Kind::Recover},
    };
    const FaultSchedule script({}, std::move(lc), {});
    const auto rs = router.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &script);

    EXPECT_EQ(rs.crashes, 2u);
    EXPECT_EQ(rs.perInstance[0].served, 0u);
    EXPECT_EQ(rs.perInstance[0].arrived, 0u);
    EXPECT_EQ(rs.total.served, 100u);
    // Up only before the first crash.
    EXPECT_NEAR(rs.availability[0] * rs.makespanMs, 10.0, 1e-9);
}

TEST_F(ResilienceTest, FaultySessionIsBitReproducible)
{
    // Acceptance: the whole chaos session — crash, restart, bit flip,
    // integrity repair — replays bit-identically under a fixed seed.
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(120);
    RouterConfig cfg = baseConfig();
    cfg.integrity.enabled = true;
    cfg.integrity.repair = true;

    const auto run = [&]() {
        auto store =
            core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        const auto script = chaosScript();
        return router.serve(dense, batches, arrivals,
                            core::PrefetchSpec::paperDefault(),
                            &script);
    };
    const auto a = run();
    const auto b = run();

    EXPECT_EQ(a.total.served, b.total.served);
    EXPECT_EQ(a.total.shed, b.total.shed);
    EXPECT_EQ(a.total.failed, b.total.failed);
    EXPECT_EQ(a.total.retried, b.total.retried);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.compliant, b.compliant);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.breakerTrips, b.breakerTrips);
    EXPECT_EQ(a.hedges, b.hedges);
    EXPECT_EQ(a.corruptionsDetected, b.corruptionsDetected);
    EXPECT_EQ(a.blocksRepaired, b.blocksRepaired);
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    ASSERT_EQ(a.predFingerprints.size(), b.predFingerprints.size());
    for (std::size_t r = 0; r < a.predFingerprints.size(); ++r)
        ASSERT_EQ(a.predFingerprints[r], b.predFingerprints[r]);
    for (std::size_t i = 0; i < a.perInstance.size(); ++i) {
        EXPECT_EQ(a.perInstance[i].served, b.perInstance[i].served);
        EXPECT_EQ(a.availability[i], b.availability[i]);
    }
}

TEST_F(ResilienceTest, BreakersAndHedgingImproveSlaCompliance)
{
    // Acceptance: under the flapping-straggler timeline, breakers +
    // hedging must serve strictly more SLA-compliant requests than
    // the same cluster with them disabled, over the same arrivals.
    const auto arrivals = PoissonLoadGen(0.35, 13).arrivals(400);
    const double session_ms = arrivals.back();

    const auto run = [&](bool resilient) {
        RouterConfig cfg = baseConfig();
        cfg.recordPredictions = false;
        cfg.server.slaMs = 12.0;
        cfg.server.service = ServiceModel{0.8, 0.04};
        if (resilient) {
            cfg.breaker.enabled = true;
            cfg.hedging = true;
        }
        auto store =
            core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        const auto script = FaultSchedule::chaosScenario(
            "flapping-straggler", 2, session_ms, 7);
        return router.serve(dense, batches, arrivals,
                            core::PrefetchSpec::paperDefault(),
                            &script);
    };

    const auto baseline = run(false);
    const auto resilient = run(true);
    EXPECT_GT(resilient.compliant, baseline.compliant);
    EXPECT_GT(resilient.breakerTrips + resilient.hedges, 0u);
    EXPECT_EQ(baseline.breakerTrips, 0u);
    EXPECT_EQ(baseline.hedges, 0u);
}

TEST_F(ResilienceTest, StatsInvariantsHoldUnderEveryChaosScenario)
{
    const auto arrivals = PoissonLoadGen(0.5, 13).arrivals(250);
    const double session_ms = arrivals.back();

    for (const auto& name : FaultSchedule::scenarioNames()) {
        RouterConfig cfg = baseConfig();
        cfg.recordPredictions = false;
        cfg.server.slaMs = 15.0;
        cfg.server.service = ServiceModel{0.8, 0.04};
        cfg.breaker.enabled = true;
        cfg.hedging = true;
        cfg.integrity.enabled = true;
        cfg.integrity.repair = true;

        auto store =
            core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        const auto script = FaultSchedule::chaosScenario(
            name, 2, session_ms, 7);
        const auto rs = router.serve(dense, batches, arrivals,
                                     core::PrefetchSpec::paperDefault(),
                                     &script);

        // Every request reaches exactly one terminal outcome.
        EXPECT_EQ(rs.total.served + rs.total.shed + rs.total.failed,
                  rs.total.arrived)
            << name;
        EXPECT_EQ(rs.total.arrived, 250u) << name;
        EXPECT_LE(rs.compliant, rs.total.served) << name;
        EXPECT_LE(rs.clusterShed, rs.total.shed) << name;
        EXPECT_LE(rs.lifecycleShed, rs.total.shed) << name;

        // Per-instance tallies fold up into the cluster totals;
        // lifecycle sheds and no-instance failures are cluster-level
        // and deliberately unattributed.
        std::size_t served = 0, shed = 0, failed = 0;
        std::uint64_t pool_failed = 0;
        for (std::size_t i = 0; i < rs.perInstance.size(); ++i) {
            served += rs.perInstance[i].served;
            shed += rs.perInstance[i].shed;
            failed += rs.perInstance[i].failed;
            pool_failed += router.instance(i).totalFailed();
            EXPECT_GE(rs.availability[i], 0.0) << name;
            EXPECT_LE(rs.availability[i], 1.0) << name;
        }
        EXPECT_EQ(served, rs.total.served) << name;
        EXPECT_EQ(shed + rs.lifecycleShed, rs.total.shed) << name;
        EXPECT_LE(failed, rs.total.failed) << name;
        // Every failover was provoked by at least one failed attempt
        // on the instance it abandoned.
        EXPECT_LE(rs.failovers, static_cast<std::size_t>(pool_failed))
            << name;
        EXPECT_LE(rs.blocksRepaired, rs.corruptionsDetected) << name;
        EXPECT_FALSE(rs.summary().empty()) << name;
    }
}

TEST_F(ResilienceTest, ServeValidatesScheduleAgainstCluster)
{
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    RouterConfig cfg = baseConfig();
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg);
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(10);

    // Schedule targets instance 5 of a 2-instance cluster.
    const FaultSchedule bad({}, {{1.0, 5, Kind::Crash}}, {});
    EXPECT_THROW(router.serve(dense, batches, arrivals,
                              core::PrefetchSpec::paperDefault(),
                              &bad),
                 std::invalid_argument);

    // A corrupting schedule demands a mutable store handle.
    std::shared_ptr<const core::EmbeddingStore> const_store =
        core::EmbeddingStore::create(smallModel(), 11);
    Router immutable(smallModel(), const_store,
                     sched::Topology::synthetic(4, 2), cfg);
    const FaultSchedule corrupting({}, {}, {{1.0, 0, 0, 0}});
    EXPECT_THROW(immutable.serve(dense, batches, arrivals,
                                 core::PrefetchSpec::paperDefault(),
                                 &corrupting),
                 std::invalid_argument);
}

TEST_F(ResilienceTest, LifecycleTransitionsAreGuarded)
{
    // Direct state-machine checks on one slot (the router drives
    // these transitions from scripted events).
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

TEST_F(ResilienceTest, TripRecencyPenaltySteersTrafficOffAFlapper)
{
    // Instance 0 throws everything for its first 25 ms, then heals.
    // The breaker trips on it either way; the trip-recency and
    // half-open penalties decide how eagerly health-aware routing
    // sends traffic back once it closes again.
    const auto arrivals = PoissonLoadGen(0.4, 13).arrivals(300);
    const auto run = [&](double penalty_ms) {
        RouterConfig cfg = baseConfig();
        cfg.recordPredictions = false;
        cfg.policy = RoutePolicy::HealthAware;
        cfg.breaker.enabled = true;
        cfg.halfOpenPenaltyMs = penalty_ms;
        cfg.tripRecencyPenaltyMs = penalty_ms;
        cfg.tripRecencyWindowMs = 1e6; // no decay within the session
        auto store =
            core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        FaultConfig throwing;
        throwing.taskExceptionRate = 1.0;
        throwing.seed = 3;
        const FaultSchedule script(
            {{0.0, 0, throwing}, {25.0, 0, FaultConfig{}}}, {}, {});
        return router.serve(dense, batches, arrivals,
                            core::PrefetchSpec::paperDefault(),
                            &script);
    };

    const auto shy = run(500.0);
    const auto eager = run(0.0);
    EXPECT_LT(shy.perInstance[0].served,
              eager.perInstance[0].served);
    EXPECT_GT(eager.perInstance[0].served, 0u);
    for (const auto *rs : {&shy, &eager}) {
        EXPECT_EQ(rs->total.arrived,
                  rs->total.served + rs->total.shed +
                      rs->total.failed);
    }
}

TEST_F(ResilienceTest, PartialDrainServesPinnedRetriesInPlace)
{
    // A global fault phase keeps a steady stream of pinned retries in
    // flight when instance 0 crashes. With a residual core configured
    // the drain serves them in place instead of re-routing; without
    // one, the partial-drain counter must stay zero.
    const auto arrivals = PoissonLoadGen(0.5, 13).arrivals(300);
    const auto run = [&](std::size_t residual) {
        RouterConfig cfg = baseConfig();
        cfg.recordPredictions = false;
        cfg.partialDrainCores = residual;
        auto store =
            core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        FaultConfig flaky;
        flaky.taskExceptionRate = 0.4;
        flaky.seed = 5;
        const FaultSchedule script(
            {{0.0, -1, flaky}},
            {{40.0, 0, Kind::Crash}, {90.0, 0, Kind::Recover}}, {});
        return router.serve(dense, batches, arrivals,
                            core::PrefetchSpec::paperDefault(),
                            &script);
    };

    const auto full = run(0);
    const auto partial = run(1);
    EXPECT_EQ(full.partialDrainServed, 0u);
    EXPECT_GT(partial.partialDrainServed, 0u);
    for (const auto *rs : {&full, &partial}) {
        EXPECT_EQ(rs->crashes, 1u);
        EXPECT_EQ(rs->total.arrived,
                  rs->total.served + rs->total.shed +
                      rs->total.failed);
    }
}

TEST_F(ResilienceTest, RejectsBadRoutingAndScrubKnobs)
{
    auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
    RouterConfig cfg = baseConfig();
    cfg.halfOpenPenaltyMs = -1.0;
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg),
                 std::invalid_argument);
    cfg = baseConfig();
    cfg.tripRecencyWindowMs = 0.0;
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg),
                 std::invalid_argument);

    // A repairing scrubber needs a mutable store handle.
    std::shared_ptr<const core::EmbeddingStore> ro =
        core::EmbeddingStore::create(smallModel(), 11);
    cfg = baseConfig();
    cfg.scrub.enabled = true;
    cfg.scrub.repair = true;
    EXPECT_THROW(Router(smallModel(), ro,
                        sched::Topology::synthetic(4, 2), cfg),
                 std::invalid_argument);
    cfg.scrub.repair = false;
    EXPECT_NO_THROW(Router(smallModel(), ro,
                           sched::Topology::synthetic(4, 2), cfg));
}

} // namespace
