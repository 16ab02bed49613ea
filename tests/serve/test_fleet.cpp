/**
 * @file
 * Acceptance tests for the multi-tenant fleet (ISSUE 6): weighted-fair
 * admission isolating a light tenant from a flooding one, per-tenant
 * admission budgets charging the flooder, elastic capacity spending
 * strictly fewer instance-ms than static provisioning on a bursty
 * stream, conservation invariants (arrived == served + shed + failed,
 * per tenant and aggregate) under clean, overloaded and chaos
 * sessions, and bit-reproducibility under a fixed seed.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/embedding_store.hpp"
#include "sched/topology.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;
using Kind = LifecycleEvent::Kind;

core::ModelConfig
tenantModel(const char *name, std::size_t rows)
{
    core::ModelConfig m;
    m.name = name;
    m.cls = core::ModelClass::RMC2;
    m.rows = rows;
    m.dim = 16;
    m.tables = 2;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

/** Evenly spaced arrivals: n requests, one every gap_ms from t0. */
std::vector<double>
evenArrivals(std::size_t n, double gap_ms, double t0 = 0.0)
{
    std::vector<double> a;
    a.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        a.push_back(t0 + static_cast<double>(i) * gap_ms);
    return a;
}

class FleetTest : public ::testing::Test
{
  protected:
    TenantConfig
    makeTenant(const char *name, std::size_t rows, double sla_ms,
               double weight) const
    {
        TenantConfig t;
        t.name = name;
        t.model = tenantModel(name, rows);
        t.slaMs = sla_ms;
        t.weight = weight;
        t.service = ServiceModel::constant(1.0);
        t.truth = ServiceTimeline(ServiceModel::constant(1.0));
        return t;
    }

    TenantWorkload
    makeWork(const core::ModelConfig& m, std::uint64_t seed,
             std::vector<double> arrivals) const
    {
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            m, traces::Hotness::Medium, seed);
        tc.batchSize = 4;
        traces::TraceGenerator gen(tc);
        TenantWorkload w;
        for (std::size_t b = 0; b < 8; ++b)
            w.batches.push_back(gen.batch(b));
        w.dense.reshape(4, m.denseDim());
        w.dense.randomize(seed);
        w.arrivalsMs = std::move(arrivals);
        return w;
    }

    FleetConfig
    baseConfig() const
    {
        FleetConfig cfg;
        cfg.instances = 2;
        cfg.batching.enabled = true;
        cfg.batching.maxRequests = 4;
        cfg.batching.maxLingerMs = 0.2;
        return cfg;
    }

    sched::Topology topo = sched::Topology::synthetic(4, 2);
};

TEST_F(FleetTest, ServesTwoCleanStreamsWithConservation)
{
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 4096, 20.0, 1.0));
    reg.add(makeTenant("retrieval", 2048, 30.0, 1.0));
    TenantFleet fleet(reg, topo, baseConfig());
    EXPECT_EQ(fleet.numTenants(), 2u);
    EXPECT_EQ(fleet.numInstances(), 2u);
    EXPECT_EQ(fleet.coresPerInstance(), 2u);

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(30, 1.0)));
    work.push_back(makeWork(reg.tenant(1).model, 6,
                            evenArrivals(30, 1.0)));
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.total.arrived, 60u);
    ASSERT_EQ(fs.perTenant.size(), 2u);
    for (const TenantStats& t : fs.perTenant) {
        EXPECT_EQ(t.stats.arrived, 30u);
        EXPECT_GT(t.stats.served, 0u);
        EXPECT_GT(t.compliant, 0u);
    }
    EXPECT_GT(fs.makespanMs, 0.0);
    EXPECT_GT(fs.total.dispatches, 0u);
    EXPECT_FALSE(fs.summary().empty());
}

TEST_F(FleetTest, SessionIsDeterministicUnderFixedSeed)
{
    TenantRegistry reg;
    reg.add(makeTenant("a", 4096, 15.0, 1.0));
    reg.add(makeTenant("b", 2048, 25.0, 2.0));

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(40, 0.4)));
    work.push_back(makeWork(reg.tenant(1).model, 6,
                            evenArrivals(40, 0.6)));

    TenantFleet f1(reg, topo, baseConfig());
    TenantFleet f2(reg, topo, baseConfig());
    const FleetStats s1 = f1.serve(work);
    const FleetStats s2 = f2.serve(work);

    EXPECT_EQ(s1.total.served, s2.total.served);
    EXPECT_EQ(s1.total.shed, s2.total.shed);
    EXPECT_EQ(s1.total.failed, s2.total.failed);
    EXPECT_EQ(s1.compliant, s2.compliant);
    EXPECT_EQ(s1.total.dispatches, s2.total.dispatches);
    EXPECT_DOUBLE_EQ(s1.makespanMs, s2.makespanMs);
    EXPECT_DOUBLE_EQ(s1.total.latency.p95(), s2.total.latency.p95());
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(s1.perTenant[k].stats.served,
                  s2.perTenant[k].stats.served);
        EXPECT_EQ(s1.perTenant[k].compliant,
                  s2.perTenant[k].compliant);
    }
}

TEST_F(FleetTest, WfqIsolatesALightTenantFromAFloodingOne)
{
    // Victim: one request every 2 ms — well within its fair share of
    // 2 instances x 2 cores at ~1 ms/dispatch. Flooder: 10x the
    // victim's rate, more than the whole fleet can absorb. The
    // victim's goodput must not fall below its isolated-run floor:
    // the flood burns its own deficit and its own budget, never the
    // victim's dispatch bandwidth.
    const double horizon = 60.0;
    TenantConfig victim = makeTenant("victim", 4096, 10.0, 1.0);
    TenantConfig flood = makeTenant("flood", 2048, 10.0, 1.0);
    // An affine service law makes coalescing cost real time (a
    // 4-request group of 4-sample batches runs 4.5 ms), so the fleet
    // tops out near 3.6 req/ms and the flood is a ~3x overload.
    for (TenantConfig *t : {&victim, &flood}) {
        t->service = ServiceModel{0.5, 0.25};
        t->truth = ServiceTimeline(ServiceModel{0.5, 0.25});
    }

    // Isolated floor: the victim alone on an identical fleet.
    double isolated_goodput = 0.0;
    {
        TenantRegistry reg;
        reg.add(victim);
        TenantFleet fleet(reg, topo, baseConfig());
        std::vector<TenantWorkload> work;
        work.push_back(makeWork(victim.model, 5,
                                evenArrivals(30, horizon / 30.0)));
        const FleetStats fs = fleet.serve(work);
        ASSERT_TRUE(fs.conserved());
        isolated_goodput = fs.perTenant[0].goodput();
        ASSERT_GT(isolated_goodput, 0.9);
    }

    TenantRegistry reg;
    const std::size_t vid = reg.add(victim);
    const std::size_t fid = reg.add(flood);
    TenantFleet fleet(reg, topo, baseConfig());
    std::vector<TenantWorkload> work;
    work.push_back(makeWork(victim.model, 5,
                            evenArrivals(30, horizon / 30.0)));
    work.push_back(makeWork(flood.model, 6,
                            evenArrivals(600, horizon / 600.0)));
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    // SLA isolation: the victim keeps its isolated-run goodput (small
    // tolerance for group-formation boundary effects).
    EXPECT_GE(fs.perTenant[vid].goodput(), isolated_goodput - 0.05);
    // The flood pays for the overload itself.
    EXPECT_GT(fs.perTenant[fid].stats.shed, 0u);
    EXPECT_LT(fs.perTenant[fid].goodput(),
              fs.perTenant[vid].goodput());
}

TEST_F(FleetTest, AdmissionBudgetChargesTheFlooderAtArrival)
{
    TenantConfig victim = makeTenant("victim", 4096, 10.0, 1.0);
    TenantConfig flood = makeTenant("flood", 2048, 10.0, 1.0);
    flood.admissionBudget = 4;
    for (TenantConfig *t : {&victim, &flood}) {
        t->service = ServiceModel{0.5, 0.25};
        t->truth = ServiceTimeline(ServiceModel{0.5, 0.25});
    }

    TenantRegistry reg;
    reg.add(victim);
    const std::size_t fid = reg.add(flood);
    TenantFleet fleet(reg, topo, baseConfig());
    std::vector<TenantWorkload> work;
    work.push_back(makeWork(victim.model, 5, evenArrivals(20, 2.0)));
    work.push_back(makeWork(flood.model, 6, evenArrivals(200, 0.2)));
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    EXPECT_GT(fs.budgetShed, 0u);
    EXPECT_GT(fs.perTenant[fid].budgetShed, 0u);
    EXPECT_EQ(fs.perTenant[0].budgetShed, 0u);
    // Budget sheds are part of the tenant's shed count (conservation
    // is checked over them too).
    EXPECT_GE(fs.perTenant[fid].stats.shed,
              fs.perTenant[fid].budgetShed);
}

TEST_F(FleetTest, ElasticSpendsFewerInstanceMsThanStaticOnABurst)
{
    // A 25 ms burst followed by a long sparse tail. Static keeps
    // every instance up for the whole session; elastic rides the
    // burst up and the lull down, so it must spend strictly fewer
    // instance-ms while conserving every request.
    TenantRegistry reg;
    reg.add(makeTenant("diurnal", 4096, 20.0, 1.0));
    std::vector<double> arrivals = evenArrivals(50, 0.5);
    for (std::size_t i = 0; i < 10; ++i)
        arrivals.push_back(50.0 + static_cast<double>(i) * 20.0);

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, arrivals));

    FleetConfig scfg = baseConfig();
    scfg.instances = 3;
    TenantFleet sfleet(reg, sched::Topology::synthetic(6, 2), scfg);
    const FleetStats sstat = sfleet.serve(work);
    ASSERT_TRUE(sstat.conserved());
    EXPECT_NEAR(sstat.instanceMsUp, 3.0 * sstat.makespanMs, 1e-6);

    FleetConfig ecfg = scfg;
    ecfg.capacity.elastic = true;
    ecfg.capacity.minInstances = 1;
    ecfg.capacity.windowMs = 5.0;
    ecfg.capacity.downLag = 2;
    ecfg.capacity.probationMs = 1.0;
    TenantFleet efleet(reg, sched::Topology::synthetic(6, 2), ecfg);
    const FleetStats estat = efleet.serve(work);

    EXPECT_TRUE(estat.conserved());
    EXPECT_LT(estat.instanceMsUp, sstat.instanceMsUp);
    EXPECT_GT(estat.scaleUps, 0u);
    EXPECT_GT(estat.scaleDowns, 0u);
    EXPECT_GT(estat.peakForecastLoad, 0.0);
    // Elasticity trades provisioning for at most a modest goodput
    // dip on this stream (the bench asserts the strict comparison on
    // a full diurnal replay).
    EXPECT_GE(estat.perTenant[0].goodput(),
              sstat.perTenant[0].goodput() - 0.15);
}

TEST_F(FleetTest, DegradationTiersAreScopedPerTenant)
{
    // Both tenants run the *same* degradation knobs, but only the
    // flooding tenant builds latency pressure against its tight SLA.
    // Its policy must escalate — shrinking its own coalescing cap —
    // while the calm neighbour's policy, fed only its own latencies,
    // stays at tier 0 on the very same instances.
    TenantRegistry reg;
    TenantConfig pressured = makeTenant("pressured", 4096, 8.0, 1.0);
    pressured.degrade.enabled = true;
    pressured.degrade.window = 16;
    pressured.degrade.cooldown = 16;
    TenantConfig calm = makeTenant("calm", 2048, 60.0, 1.0);
    calm.degrade = pressured.degrade;
    reg.add(pressured);
    reg.add(calm);

    FleetConfig cfg = baseConfig();
    cfg.admission = false; // let the backlog produce real latencies

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(200, 0.05)));
    work.push_back(makeWork(reg.tenant(1).model, 6,
                            evenArrivals(20, 3.0)));

    TenantFleet fleet(reg, topo, cfg);
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    ASSERT_EQ(fs.perTenant.size(), 2u);
    EXPECT_GT(fs.perTenant[0].stats.degradeEscalations, 0u);
    EXPECT_GT(fs.perTenant[0].stats.finalTier, 0);
    EXPECT_EQ(fs.perTenant[1].stats.degradeEscalations, 0u);
    EXPECT_EQ(fs.perTenant[1].stats.finalTier, 0);
}

TEST_F(FleetTest, ChaosSessionConservesAndRecovers)
{
    TenantRegistry reg;
    reg.add(makeTenant("a", 4096, 20.0, 1.0));
    reg.add(makeTenant("b", 2048, 20.0, 1.0));

    FleetConfig cfg = baseConfig();
    cfg.scrub.enabled = true;
    cfg.scrub.intervalMs = 0.5;
    cfg.scrub.blocksPerTick = 4;
    cfg.capacity.probationMs = 2.0;
    TenantFleet fleet(reg, topo, cfg);

    // Crash instance 0 mid-burst, recover it, and flip a stored bit
    // in a row both tenants hold (a host-level memory fault).
    FaultSchedule schedule(
        {}, {{10.0, 0, Kind::Crash}, {25.0, 0, Kind::Recover}},
        {BitFlipEvent{5.0, 0, 100, 3}});

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(60, 0.8)));
    work.push_back(makeWork(reg.tenant(1).model, 6,
                            evenArrivals(60, 0.8)));
    const FleetStats fs = fleet.serve(work,
                                      core::PrefetchSpec::paperDefault(),
                                      &schedule);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.crashes, 1u);
    EXPECT_GE(fs.restarts, 1u);
    EXPECT_GT(fs.blocksScrubbed, 0u);
    // The flip landed in both tenants' stores; the scrubbers repair
    // both copies in the background.
    EXPECT_GE(fs.scrubCorruptions, 2u);
    EXPECT_GE(fs.scrubRepairs, 2u);
    for (std::size_t k = 0; k < fleet.numTenants(); ++k)
        EXPECT_TRUE(fleet.store(k).findCorruptBlocks().empty());
}

TEST_F(FleetTest, PhaseBitFlipRateCorruptsTheServingStore)
{
    // A phase-only schedule: no scripted flip, just a regime in which
    // every attempt may silently flip a stored bit. The scrubber must
    // find what the phase corrupted.
    TenantRegistry reg;
    reg.add(makeTenant("flipped", 4096, 20.0, 1.0));
    FleetConfig cfg = baseConfig();
    cfg.scrub.enabled = true;
    cfg.scrub.intervalMs = 0.5;
    cfg.scrub.blocksPerTick = 8;
    TenantFleet fleet(reg, topo, cfg);

    FaultConfig flipping;
    flipping.seed = 3;
    flipping.bitFlipRate = 0.5;
    const FaultSchedule schedule({{0.0, -1, flipping}}, {}, {});
    ASSERT_TRUE(schedule.corruptsStore());

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(60, 0.8)));
    const FleetStats fs = fleet.serve(work,
                                      core::PrefetchSpec::paperDefault(),
                                      &schedule);

    EXPECT_TRUE(fs.conserved());
    EXPECT_GT(fs.scrubCorruptions, 0u);
    EXPECT_GT(fs.scrubRepairs, 0u);
}

TEST_F(FleetTest, LosingEveryInstanceForGoodAbandonsTheQueueLoudly)
{
    TenantRegistry reg;
    reg.add(makeTenant("stranded", 4096, 20.0, 1.0));
    TenantFleet fleet(reg, topo, baseConfig());

    FaultSchedule schedule(
        {}, {{2.0, 0, Kind::Crash}, {2.0, 1, Kind::Crash}}, {});
    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(30, 0.5)));
    const FleetStats fs = fleet.serve(work,
                                      core::PrefetchSpec::paperDefault(),
                                      &schedule);

    EXPECT_TRUE(fs.conserved());
    EXPECT_GT(fs.lifecycleShed, 0u);
    EXPECT_GT(fs.total.failed, 0u);
    EXPECT_EQ(fs.crashes, 2u);
    EXPECT_EQ(fs.restarts, 0u);
}

TEST_F(FleetTest, NoDispatchStartsInsideTheProbationWindow)
{
    // One instance crashes at 10 ms and recovers at 80 ms with a 5 ms
    // probation. The request queued while it was down starts at 85 ms,
    // when the slot is Up again, not at the 80 ms restart.
    TenantRegistry reg;
    reg.add(makeTenant("restarted", 4096, 200.0, 1.0));
    FleetConfig cfg = baseConfig();
    cfg.instances = 1;
    cfg.capacity.probationMs = 5.0;
    TenantFleet fleet(reg, sched::Topology::synthetic(2, 2), cfg);

    FaultSchedule schedule(
        {}, {{10.0, 0, Kind::Crash}, {80.0, 0, Kind::Recover}}, {});
    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, {0.0, 50.0}));
    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &schedule);

    ASSERT_EQ(fs.total.served, 2u);
    EXPECT_EQ(fs.restarts, 1u);
    // Served at start + 1 ms of service.
    EXPECT_DOUBLE_EQ(fs.total.latency.samples()[1], 85.0 + 1.0 - 50.0);
}

TEST_F(FleetTest, RecalibrationTracksAScriptedServiceDrift)
{
    // The seed estimate says 0.5 ms flat; the scripted truth doubles
    // its slope mid-session. With recalibration on, the fleet's final
    // estimate error must be small and not stale.
    TenantConfig t = makeTenant("drifty", 4096, 30.0, 1.0);
    t.service = ServiceModel::constant(0.5);
    t.truth = ServiceTimeline(std::vector<ServiceTimeline::Segment>{
        {0.0, ServiceModel{0.5, 0.05}},
        {25.0, ServiceModel{1.0, 0.1}},
    });
    TenantRegistry reg;
    reg.add(t);

    FleetConfig cfg = baseConfig();
    cfg.recalibration.enabled = true;
    cfg.recalibration.intervalMs = 5.0;
    cfg.recalibration.window = 32;
    cfg.recalibration.minObservations = 8;
    TenantFleet fleet(reg, topo, cfg);

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(80, 0.8)));
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    EXPECT_GT(fs.recalibrations, 0u);
    ASSERT_EQ(fs.estimateError.size(), 1u);
    EXPECT_LT(fs.estimateError[0], 0.25);
    EXPECT_EQ(fs.estimateStale[0], 0);
}

TEST_F(FleetTest, RejectsBadShapesAndInputs)
{
    TenantRegistry reg;
    reg.add(makeTenant("only", 4096, 20.0, 1.0));

    EXPECT_THROW(TenantFleet(TenantRegistry{}, topo, baseConfig()),
                 std::invalid_argument);

    FleetConfig bad = baseConfig();
    bad.capacity.minInstances = 5; // > instances
    EXPECT_THROW(TenantFleet(reg, topo, bad), std::invalid_argument);

    TenantFleet fleet(reg, topo, baseConfig());
    EXPECT_THROW(fleet.serve({}), std::invalid_argument);

    TenantWorkload no_batches;
    no_batches.arrivalsMs = {0.0};
    EXPECT_THROW(fleet.serve({no_batches}), std::invalid_argument);

    // A zero-sample request is malformed input, not a retryable
    // dispatch failure.
    TenantWorkload zero =
        makeWork(reg.tenant(0).model, 5, evenArrivals(3, 1.0));
    zero.batches[1].batchSize = 0;
    zero.batches[1].indices.assign(reg.tenant(0).model.tables, {});
    zero.batches[1].offsets.assign(reg.tenant(0).model.tables, {0});
    EXPECT_THROW(fleet.serve({zero}), std::invalid_argument);
}


TEST_F(FleetTest, HotTierReplicasServeRepeatedLookups)
{
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 4096, 20.0, 1.0));
    reg.add(makeTenant("retrieval", 2048, 30.0, 1.0));

    FleetConfig cfg = baseConfig();
    cfg.hotTier.budgetBytes = 256 * 1024;
    cfg.hotTier.minAccesses = 1;
    cfg.hotTier.epochLookups = 200;
    TenantFleet fleet(reg, topo, cfg);

    // Every (instance, tenant) replica got its own tier over that
    // tenant's shared cold store.
    for (std::size_t i = 0; i < fleet.numInstances(); ++i) {
        for (std::size_t k = 0; k < fleet.numTenants(); ++k) {
            const core::HotTierCache *t = fleet.hotTier(i, k);
            ASSERT_NE(t, nullptr);
            EXPECT_TRUE(t->matches(fleet.currentStore(k)));
            EXPECT_GT(t->capacityRows(), 0u);
        }
    }

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5,
                            evenArrivals(40, 0.5)));
    work.push_back(makeWork(reg.tenant(1).model, 6,
                            evenArrivals(40, 0.5)));
    const FleetStats fs = fleet.serve(work);

    EXPECT_TRUE(fs.conserved());
    // The request streams cycle 8 batches, so served lookups repeat;
    // online epochs must promote them and later dispatches must hit.
    EXPECT_GT(fs.tierHits + fs.tierMisses, 0u);
    EXPECT_GT(fs.tierPromotions, 0u);
    EXPECT_GT(fs.tierHits, 0u);
    EXPECT_GT(fs.tierHitRate(), 0.0);

    // Without a budget there are no tiers at all.
    TenantFleet bare(reg, topo, baseConfig());
    EXPECT_EQ(bare.hotTier(0, 0), nullptr);
}

TEST_F(FleetTest, PrecisionFloorQuantizesEveryDispatch)
{
    // A quantized floor serves every dispatch from the tenant's own
    // quantized store, through replica hot tiers fronting that store,
    // and each answer is bitwise the standalone model's forward at
    // that precision over an equal store. bf16 coalesces; int8 runs
    // one request per dispatch, because the u8·s8 MLP quantizes its
    // activations over the whole dispatch, so int8 bits depend on
    // the group a request rides in.
    for (const core::EmbDtype dtype :
         {core::EmbDtype::Bf16, core::EmbDtype::Int8}) {
        const bool coalesce = dtype == core::EmbDtype::Bf16;
        TenantConfig t = makeTenant("floored", 4096, 50.0, 1.0);
        t.dtype = dtype;
        TenantRegistry reg;
        reg.add(t);
        FleetConfig cfg = baseConfig();
        cfg.batching.enabled = coalesce;
        cfg.seed = 9;
        cfg.hotTier.budgetBytes = 16 * 1024;
        cfg.hotTier.minAccesses = 1;
        cfg.hotTier.epochLookups = 200;
        TenantFleet fleet(reg, topo, cfg);
        const core::EmbeddingStore& served =
            fleet.versioned(0).current()->model->storeFor(dtype);
        EXPECT_EQ(served.dtype(), dtype);
        for (std::size_t i = 0; i < fleet.numInstances(); ++i)
            EXPECT_TRUE(fleet.hotTier(i, 0)->matches(served));

        const TenantWorkload work =
            makeWork(t.model, 5, evenArrivals(40, 0.1));
        const FleetStats fs = fleet.serve({work});
        ASSERT_EQ(fs.total.served, 40u) << core::embDtypeName(dtype);
        EXPECT_EQ(fs.total.quantDispatches, fs.total.dispatches);
        if (coalesce) {
            EXPECT_LT(fs.total.dispatches, fs.total.served);
        }
        EXPECT_GT(fs.tierHits, 0u);

        core::DlrmModel ref(t.model, cfg.seed);
        ref.attachQuantizedStore(
            core::EmbeddingStore::create(t.model, cfg.seed, 256, dtype));
        const auto& fps = fs.perTenant[0].predFingerprints;
        for (std::size_t r = 0; r < fps.size(); ++r) {
            core::DlrmWorkspace ws;
            ref.forward(work.dense, work.batches[r % work.batches.size()],
                        ws, core::PrefetchSpec::paperDefault(), dtype);
            EXPECT_EQ(fps[r], fingerprintPredictions(ws.pred.data(),
                                                     ws.pred.size()))
                << core::embDtypeName(dtype) << " request " << r;
        }
    }
}

TEST_F(FleetTest, PrecisionFloorRejectsWhatOnlyAnFp32StoreSupports)
{
    // Reload, scrubbing, block verification and stored-bit flips act
    // on a version's fp32 store, which a quantized floor never reads:
    // the fleet refuses them instead of silently serving around them.
    TenantConfig t = makeTenant("floored", 4096, 50.0, 1.0);
    t.dtype = core::EmbDtype::Bf16;
    TenantRegistry reg;
    reg.add(t);
    std::vector<TenantWorkload> work;
    work.push_back(makeWork(t.model, 5, evenArrivals(8, 0.5)));

    TenantFleet fleet(reg, topo, baseConfig());
    std::vector<ReloadEvent> reload(1);
    reload[0].atMs = 1.0;
    reload[0].newVersion = 2;
    reload[0].weightSeed = 3;
    EXPECT_THROW(fleet.serve(work, core::PrefetchSpec::paperDefault(),
                             nullptr, reload),
                 std::invalid_argument);
    const FaultSchedule flips({}, {}, {BitFlipEvent{1.0, 0, 7, 3}});
    EXPECT_THROW(fleet.serve(work, core::PrefetchSpec::paperDefault(),
                             &flips),
                 std::invalid_argument);
    for (const bool verify : {false, true}) {
        FleetConfig cfg = baseConfig();
        cfg.verifyBlocks = verify;
        cfg.scrub.enabled = !verify;
        TenantFleet guarded(reg, topo, cfg);
        EXPECT_THROW(guarded.serve(work), std::invalid_argument)
            << "verify " << verify;
    }
    // Without any of them the floored tenant serves.
    EXPECT_EQ(fleet.serve(work).total.served, 8u);
}

TEST_F(FleetTest, ElasticScaleDownsHoldDuringACanaryRollout)
{
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 2048, 50.0, 1.0));

    FleetConfig cfg = baseConfig();
    cfg.instances = 3;
    cfg.capacity.elastic = true;
    cfg.capacity.minInstances = 1;
    cfg.capacity.windowMs = 10.0;
    cfg.capacity.downLag = 2;
    cfg.capacity.forecastDecay = 0.0;
    cfg.reload.loadMs = 2.0;
    cfg.reload.shadowRequests = 2;
    cfg.reload.shadowDriftBudget = 1.0;
    cfg.reload.canaryWindowMs = 60.0;
    cfg.reload.stageHoldMs = 5.0;
    TenantFleet fleet(reg, topo, cfg);

    // A burst that scales the fleet up, then a lull that begins just
    // after the push lands — exactly the window where banked
    // hysteresis credit would otherwise drain the canary mid-rollout.
    std::vector<double> arrivals = evenArrivals(160, 0.25);
    for (double t = 48.0; t <= 160.0; t += 8.0)
        arrivals.push_back(t);
    std::vector<TenantWorkload> work;
    work.push_back(
        makeWork(reg.tenant(0).model, 5, std::move(arrivals)));

    std::vector<ReloadEvent> reloads(1);
    reloads[0].atMs = 45.0;
    reloads[0].tenant = 0;
    reloads[0].newVersion = 2;
    reloads[0].weightSeed = 99;

    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), nullptr, reloads);

    EXPECT_TRUE(fs.conserved());
    ASSERT_EQ(fs.reloadsStarted, 1u);
    ASSERT_EQ(fs.reloadsCommitted, 1u);
    ASSERT_EQ(fs.reloadOutcomes.size(), 1u);
    const ReloadOutcome& ro = fs.reloadOutcomes[0];

    // No controller-initiated drain may land inside the reload's
    // canary/rollout window: a drained instance could be the canary
    // (or mid-swap), churning the pin set the stages are walking.
    for (const double t : fs.scaleDownAtMs) {
        EXPECT_TRUE(t < ro.startedMs || t > ro.finishedMs)
            << "scale-down at " << t << " inside reload ["
            << ro.startedMs << ", " << ro.finishedMs << "]";
    }
    // The lull outlives the rollout, so the shrink the hold deferred
    // does eventually happen — the hold delays, never cancels.
    EXPECT_GT(fs.scaleDowns, 0u);
}

} // namespace
