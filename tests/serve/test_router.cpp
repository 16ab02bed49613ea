/**
 * @file
 * Tests for the multi-instance Router: replica instances sharing one
 * EmbeddingStore, deterministic power-of-two-choices sessions,
 * health-aware routing around a straggling instance, cross-instance
 * failover, and cluster-level shedding.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/embedding_store.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;

core::ModelConfig
smallModel()
{
    core::ModelConfig m;
    m.name = "router_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 4096;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

class RouterTest : public ::testing::Test
{
  protected:
    RouterTest() : store(core::EmbeddingStore::create(smallModel(), 11))
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

    std::shared_ptr<const core::EmbeddingStore> store;
    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

TEST_F(RouterTest, PolicyNamesRoundTrip)
{
    EXPECT_EQ(parseRoutePolicy("rr"), RoutePolicy::RoundRobin);
    EXPECT_EQ(parseRoutePolicy("po2"), RoutePolicy::PowerOfTwo);
    EXPECT_EQ(parseRoutePolicy("health-aware"),
              RoutePolicy::HealthAware);
    EXPECT_STREQ(routePolicyName(RoutePolicy::PowerOfTwo), "po2");
    EXPECT_THROW(parseRoutePolicy("random"), std::invalid_argument);
}

TEST_F(RouterTest, ReplicaInstancesShareOneStore)
{
    // Acceptance criterion: N replica Servers over one EmbeddingStore
    // add zero embedding bytes beyond the single copy.
    RouterConfig cfg;
    cfg.instances = 3;
    Router router(smallModel(), store,
                  sched::Topology::synthetic(6, 2), cfg);

    // One reference here, one in the router, one per replica model.
    EXPECT_EQ(store.use_count(), 3 + 2);
    for (std::size_t i = 0; i < router.numInstances(); ++i) {
        EXPECT_EQ(router.model(i).embeddingBytes(), store->bytes());
        EXPECT_EQ(router.model(i).store().get(), store.get());
        for (std::size_t t = 0; t < smallModel().tables; ++t) {
            EXPECT_EQ(router.model(i).table(t).data(),
                      store->table(t).data());
        }
    }
}

TEST_F(RouterTest, ServesACleanStreamOnEveryPolicy)
{
    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(100);
    for (RoutePolicy p : {RoutePolicy::RoundRobin,
                          RoutePolicy::PowerOfTwo,
                          RoutePolicy::HealthAware}) {
        RouterConfig cfg;
        cfg.instances = 2;
        cfg.policy = p;
        cfg.server.slaMs = 50.0;
        cfg.server.service = ServiceModel::constant(1.0);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg);
        const auto rs = router.serve(dense, batches, arrivals);

        EXPECT_EQ(rs.total.arrived, 100u) << routePolicyName(p);
        EXPECT_EQ(rs.total.served, 100u) << routePolicyName(p);
        EXPECT_EQ(rs.total.shed, 0u);
        EXPECT_EQ(rs.total.failed, 0u);
        EXPECT_EQ(rs.failovers, 0u);
        EXPECT_EQ(rs.compliant, 100u);
        EXPECT_GT(rs.makespanMs, 0.0);
        EXPECT_FALSE(rs.summary().empty());

        // Work actually spread across both instances.
        ASSERT_EQ(rs.perInstance.size(), 2u);
        EXPECT_GT(rs.perInstance[0].served, 0u);
        EXPECT_GT(rs.perInstance[1].served, 0u);
        EXPECT_EQ(rs.perInstance[0].served + rs.perInstance[1].served,
                  100u);
    }
}

TEST_F(RouterTest, Po2SessionIsDeterministicUnderFixedSeed)
{
    // Acceptance criterion: a power-of-two-choices session over >= 2
    // instances with injected faults is bit-reproducible.
    FaultConfig fc;
    fc.seed = 77;
    fc.taskExceptionRate = 0.05;
    fc.stragglerCore = 0;
    fc.stragglerFactor = 2.0;

    RouterConfig cfg;
    cfg.instances = 2;
    cfg.policy = RoutePolicy::PowerOfTwo;
    cfg.seed = 9;
    cfg.server.slaMs = 25.0;
    cfg.server.service = ServiceModel::constant(1.0);
    cfg.server.maxRetries = 2;

    const auto arrivals = PoissonLoadGen(1.5, 9).arrivals(300);

    const FaultInjector inj1(fc);
    Router r1(smallModel(), store, sched::Topology::synthetic(4, 2),
              cfg, {&inj1, &inj1});
    const auto a = r1.serve(dense, batches, arrivals);

    const FaultInjector inj2(fc);
    Router r2(smallModel(), store, sched::Topology::synthetic(4, 2),
              cfg, {&inj2, &inj2});
    const auto b = r2.serve(dense, batches, arrivals);

    EXPECT_EQ(a.total.arrived, b.total.arrived);
    EXPECT_EQ(a.total.served, b.total.served);
    EXPECT_EQ(a.total.shed, b.total.shed);
    EXPECT_EQ(a.total.failed, b.total.failed);
    EXPECT_EQ(a.total.retried, b.total.retried);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.clusterShed, b.clusterShed);
    EXPECT_EQ(a.compliant, b.compliant);
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.total.latency.samples(), b.total.latency.samples());
    for (std::size_t i = 0; i < a.perInstance.size(); ++i) {
        EXPECT_EQ(a.perInstance[i].served, b.perInstance[i].served);
        EXPECT_EQ(a.perInstance[i].latency.samples(),
                  b.perInstance[i].latency.samples());
    }

    EXPECT_EQ(a.total.served + a.total.shed + a.total.failed, 300u);
    EXPECT_GT(a.total.retried, 0u);
}

TEST_F(RouterTest, HealthAwareBeatsRoundRobinAroundAStraggler)
{
    // Acceptance criterion: with one instance straggling 10x, the
    // health-aware policy must serve strictly more SLA-compliant
    // requests than round-robin over the same arrival stream.
    // Round-robin keeps sending every other request to the straggler,
    // where admission control sheds it on arrival (10 ms service
    // against a 6 ms SLA); the health score learns from those sheds
    // and steers traffic to the healthy instance.
    FaultConfig fc;
    fc.seed = 5;
    fc.stragglerCore = 0; // instance-local core id
    fc.stragglerFactor = 10.0;
    const FaultInjector straggler(fc);

    RouterConfig cfg;
    cfg.instances = 2;
    cfg.server.slaMs = 6.0;
    cfg.server.service = ServiceModel::constant(1.0);

    const auto arrivals = PoissonLoadGen(1.2, 7).arrivals(300);

    cfg.policy = RoutePolicy::RoundRobin;
    Router rr(smallModel(), store, sched::Topology::synthetic(2, 2),
              cfg, {nullptr, &straggler});
    const auto rr_stats = rr.serve(dense, batches, arrivals);

    cfg.policy = RoutePolicy::HealthAware;
    Router health(smallModel(), store,
                  sched::Topology::synthetic(2, 2), cfg,
                  {nullptr, &straggler});
    const auto h_stats = health.serve(dense, batches, arrivals);

    // Round-robin loses roughly half the stream to the straggler.
    EXPECT_GT(rr_stats.total.shed, 100u);
    EXPECT_GT(h_stats.compliant, rr_stats.compliant);
    EXPECT_GT(h_stats.total.served, rr_stats.total.served);
    // The healthy instance carries nearly everything under the
    // health-aware policy.
    EXPECT_GT(h_stats.perInstance[0].served,
              h_stats.perInstance[1].served);
}

TEST_F(RouterTest, FailoverRedispatchesAfterRetryExhaustion)
{
    // Instance 0 fails every attempt; requests routed there must burn
    // their retry budget, then fail over to instance 1 and succeed.
    FaultConfig fc;
    fc.seed = 3;
    fc.taskExceptionRate = 1.0;
    const FaultInjector broken(fc);

    RouterConfig cfg;
    cfg.instances = 2;
    cfg.policy = RoutePolicy::RoundRobin;
    cfg.server.slaMs = 50.0;
    cfg.server.service = ServiceModel::constant(1.0);
    cfg.server.maxRetries = 1;
    cfg.maxFailovers = 1;

    const auto arrivals = PoissonLoadGen(3.0, 3).arrivals(60);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg,
                  {&broken, nullptr});
    const auto rs = router.serve(dense, batches, arrivals);

    EXPECT_EQ(rs.total.served, 60u);
    EXPECT_EQ(rs.total.failed, 0u);
    EXPECT_GT(rs.failovers, 0u);
    EXPECT_GT(rs.total.retried, 0u);
    // Instance 1 ends up serving everything.
    EXPECT_EQ(rs.perInstance[1].served, 60u);
    EXPECT_EQ(rs.perInstance[0].served, 0u);

    // Same session without failover: those requests are lost.
    RouterConfig no_fo = cfg;
    no_fo.maxFailovers = 0;
    Router rigid(smallModel(), store,
                 sched::Topology::synthetic(4, 2), no_fo,
                 {&broken, nullptr});
    const auto rs2 = rigid.serve(dense, batches, arrivals);
    EXPECT_GT(rs2.total.failed, 0u);
    EXPECT_EQ(rs2.failovers, 0u);
    EXPECT_EQ(rs2.total.served + rs2.total.failed, 60u);
}

TEST_F(RouterTest, ClusterShedsWhenNoInstanceCanMeetTheSla)
{
    // Service time alone exceeds the SLA: every request is shed on
    // arrival, and every shed is a cluster-level shed because no
    // instance could have met the deadline either.
    RouterConfig cfg;
    cfg.instances = 2;
    cfg.server.slaMs = 0.5;
    cfg.server.service = ServiceModel::constant(1.0);

    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(40);
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg);
    const auto rs = router.serve(dense, batches, arrivals);

    EXPECT_EQ(rs.total.served, 0u);
    EXPECT_EQ(rs.total.shed, 40u);
    EXPECT_EQ(rs.clusterShed, 40u);
}

TEST_F(RouterTest, RejectsBadConfigsAndInputs)
{
    RouterConfig cfg;
    cfg.instances = 0;
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg),
                 std::invalid_argument);

    cfg.instances = 5; // more instances than physical cores
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg),
                 std::invalid_argument);

    cfg.instances = 2;
    Router router(smallModel(), store,
                  sched::Topology::synthetic(4, 2), cfg);
    EXPECT_THROW(router.serve(dense, {}, {0.0}),
                 std::invalid_argument);
    // A zero-sample request is malformed input, not a retryable
    // attempt failure.
    core::SparseBatch none;
    none.indices.assign(smallModel().tables, {});
    none.offsets.assign(smallModel().tables, {0});
    EXPECT_THROW(router.serve(dense, {none}, {0.0}),
                 std::invalid_argument);

    // More injectors than instances: the extras could never fire, so
    // the config is almost certainly a mistake. (Injectors are NOT
    // owned by the router; these outlive it on the stack.)
    const FaultInjector a{FaultConfig{}}, b{FaultConfig{}},
        c{FaultConfig{}};
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg,
                        {&a, &b, &c}),
                 std::invalid_argument);
    EXPECT_NO_THROW(Router(smallModel(), store,
                           sched::Topology::synthetic(4, 2), cfg,
                           {&a, &b}));
    EXPECT_NO_THROW(Router(smallModel(), store,
                           sched::Topology::synthetic(4, 2), cfg,
                           {&a})); // shorter is fine: no faults on 1

    // Store-mutating features demand the mutable-store constructor.
    FaultConfig flip;
    flip.bitFlipRate = 0.5;
    const FaultInjector flipper(flip);
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), cfg,
                        {&flipper}),
                 std::invalid_argument);
    RouterConfig repair = cfg;
    repair.integrity.enabled = true;
    repair.integrity.repair = true;
    EXPECT_THROW(Router(smallModel(), store,
                        sched::Topology::synthetic(4, 2), repair),
                 std::invalid_argument);
    auto mut = core::EmbeddingStore::createMutable(smallModel(), 11);
    EXPECT_NO_THROW(Router(smallModel(), mut,
                           sched::Topology::synthetic(4, 2), repair,
                           {&flipper}));
}

} // namespace
