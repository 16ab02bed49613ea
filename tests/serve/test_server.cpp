/**
 * @file
 * Tests for the single-server deployment — one tenant on a
 * one-instance TenantFleet — and the Server execution engine under
 * it: admission control, deadline compliance, retry with backoff,
 * graceful degradation, and bit-reproducible behaviour under seeded
 * fault injection.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/embedding_store.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;

core::ModelConfig
smallModel()
{
    core::ModelConfig m;
    m.name = "serve_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 4096;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

class ServerTest : public ::testing::Test
{
  protected:
    ServerTest() : model(smallModel(), 11)
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

    /** The served tenant: SLA @p sla_ms, priced by @p service. */
    static TenantConfig
    tenant(double sla_ms, const ServiceModel& service)
    {
        TenantConfig t;
        t.name = "server";
        t.model = smallModel();
        t.slaMs = sla_ms;
        t.service = service;
        t.truth = ServiceTimeline(service);
        return t;
    }

    /** One session of @p t alone on a one-instance fleet over a 2-core
     *  group, under @p faults (may be null) from t=0. */
    FleetStats
    serveAlone(const TenantConfig& t, FleetConfig cfg,
               const std::vector<double>& arrivals,
               const FaultSchedule *faults = nullptr)
    {
        TenantRegistry reg;
        reg.add(t);
        cfg.instances = 1;
        TenantFleet fleet(reg, sched::Topology::synthetic(2, 2), cfg);
        return fleet.serve({{dense, batches, arrivals}},
                           core::PrefetchSpec::paperDefault(), faults);
    }

    static FaultSchedule
    phase(const FaultConfig& fc)
    {
        return FaultSchedule({{0.0, 0, fc}}, {}, {});
    }

    core::DlrmModel model;
    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

TEST_F(ServerTest, ServesACleanStreamCompletely)
{
    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(100);
    const auto st = serveAlone(tenant(50.0, ServiceModel::constant(1.0)),
                               FleetConfig{}, arrivals)
                        .total;

    EXPECT_EQ(st.arrived, 100u);
    EXPECT_EQ(st.served, 100u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retried, 0u);
    EXPECT_EQ(st.latency.count(), 100u);
    EXPECT_LE(st.latency.p95(), 50.0);
    EXPECT_GT(st.execTotalMs, 0.0);
    EXPECT_FALSE(st.summary().empty());
}

TEST_F(ServerTest, ServeRunsTheSessionOnASingleTenantFleet)
{
    // Server::serve is a thin adapter: its statistics are those of
    // the same session on a one-instance, single-tenant fleet.
    ServerConfig cfg;
    cfg.slaMs = 20.0;
    cfg.service = ServiceModel{0.5, 0.05};
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    cfg.batching.maxLingerMs = 0.5;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);
    const auto arrivals = PoissonLoadGen(0.1, 3).arrivals(200);
    const ServeStats st = srv.serve(dense, batches, arrivals);

    FleetConfig fc;
    fc.batching = cfg.batching;
    const ServeStats want =
        serveAlone(tenant(cfg.slaMs, cfg.service), fc, arrivals).total;
    EXPECT_EQ(st.served, want.served);
    EXPECT_EQ(st.shed, want.shed);
    EXPECT_EQ(st.dispatches, want.dispatches);
    EXPECT_EQ(st.latency.samples(), want.latency.samples());
    EXPECT_GT(st.shed, 0u);
    EXPECT_LT(st.dispatches, st.served);
}

TEST_F(ServerTest, AdmissionControlShedsOverloadAndProtectsTheTail)
{
    // rho = service / (mean arrival * cores) = 1 / (0.2 * 2) = 2.5:
    // hopeless overload. Admission control must shed, and the p95 of
    // what it *does* serve must stay within the SLA.
    const TenantConfig t = tenant(10.0, ServiceModel::constant(1.0));
    const auto arrivals = PoissonLoadGen(0.2, 3).arrivals(300);
    const auto st = serveAlone(t, FleetConfig{}, arrivals).total;

    EXPECT_GT(st.shed, 0u);
    EXPECT_EQ(st.served + st.shed, 300u);
    EXPECT_LE(st.latency.p95(), t.slaMs);

    // Same overload without admission control: everything is served
    // but the tail blows through the SLA.
    FleetConfig open;
    open.admission = false;
    const auto st2 = serveAlone(t, open, arrivals).total;
    EXPECT_EQ(st2.served, 300u);
    EXPECT_EQ(st2.shed, 0u);
    EXPECT_GT(st2.latency.p95(), t.slaMs);
}

TEST_F(ServerTest, InjectedFaultsAreRetriedNotFatal)
{
    FaultConfig fc;
    fc.seed = 21;
    fc.taskExceptionRate = 0.10;
    fc.corruptIndexRate = 0.05;
    fc.allocFailureRate = 0.02;
    const FaultSchedule faults = phase(fc);

    FleetConfig cfg;
    cfg.maxRetries = 4;
    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(200);
    const auto st = serveAlone(tenant(50.0, ServiceModel::constant(1.0)),
                               cfg, arrivals, &faults)
                        .total;

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served + st.shed + st.failed, 200u);
    EXPECT_GT(st.retried, 0u);
    // ~17% per-attempt fault rate with 4 retries: nearly everything
    // eventually lands.
    EXPECT_GT(st.served, 190u);
    const FaultInjector *inj = faults.injectorAt(0.0, 0);
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->injectedExceptions(), 0u);
    EXPECT_GT(inj->injectedCorruptions(), 0u);
}

TEST_F(ServerTest, SeededFaultRunIsExactlyReproducible)
{
    // Acceptance criterion: 5% task exceptions plus one straggler
    // core, two runs with the same seed -> zero crashes, identical
    // shed/retry/failed counters, identical served latencies, and a
    // served p95 within the SLA.
    FaultConfig fc;
    fc.seed = 77;
    fc.taskExceptionRate = 0.05;
    fc.stragglerCore = 0;
    fc.stragglerFactor = 3.0;

    FleetConfig cfg;
    cfg.maxRetries = 3;
    cfg.backoffBaseMs = 1.0;
    cfg.backoffCapMs = 4.0;
    const TenantConfig t = tenant(25.0, ServiceModel::constant(1.0));
    const auto arrivals = PoissonLoadGen(1.5, 9).arrivals(400);

    const FaultSchedule f1 = phase(fc);
    const auto a = serveAlone(t, cfg, arrivals, &f1).total;
    const FaultSchedule f2 = phase(fc);
    const auto b = serveAlone(t, cfg, arrivals, &f2).total;

    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.latency.samples(), b.latency.samples());

    EXPECT_EQ(a.served + a.shed + a.failed, 400u);
    EXPECT_GT(a.retried, 0u);
    EXPECT_LE(a.latency.p95(), t.slaMs);
}

TEST_F(ServerTest, DegradationEngagesUnderPressureWithoutRepricing)
{
    // Sustained overload (rho ~ 1.7) with admission off so nothing is
    // shed: latencies climb without bound, the windowed p95 crosses
    // the high-water mark, and the tiers engage. A tier changes what
    // executes (precision, prefetch, coalescing cap), never the price
    // of a dispatch: unbatched, the degraded session's virtual clock
    // matches the rigid one's exactly.
    TenantConfig t = tenant(60.0, ServiceModel::constant(1.0));
    t.degrade.enabled = true;
    t.degrade.window = 32;
    t.degrade.cooldown = 32;
    FleetConfig cfg;
    cfg.admission = false;

    const auto arrivals = PoissonLoadGen(0.3, 3).arrivals(400);
    const auto st = serveAlone(t, cfg, arrivals).total;
    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.finalTier, 0);
    EXPECT_GT(st.quantDispatches, 0u);

    t.degrade.enabled = false;
    const auto st2 = serveAlone(t, cfg, arrivals).total;
    EXPECT_EQ(st2.degradeEscalations, 0u);
    EXPECT_EQ(st2.quantDispatches, 0u);

    EXPECT_EQ(st.latency.samples(), st2.latency.samples());
    EXPECT_DOUBLE_EQ(st.makespanMs, st2.makespanMs);
}

TEST_F(ServerTest, BatchingCoalescesWithoutChangingOutcomes)
{
    // Affine service model: coalescing amortizes the 0.5ms dispatch
    // cost, so the batched session must serve everything the
    // unbatched one does with strictly fewer dispatches.
    const TenantConfig t = tenant(50.0, ServiceModel{0.5, 0.05});
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(200);
    const auto base = serveAlone(t, FleetConfig{}, arrivals).total;

    FleetConfig bcfg;
    bcfg.batching.enabled = true;
    bcfg.batching.maxRequests = 8;
    bcfg.batching.maxLingerMs = 1.0;
    const auto st = serveAlone(t, bcfg, arrivals).total;

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served, 200u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_LT(st.dispatches, base.dispatches);
    EXPECT_GT(st.dispatches, 0u);
    EXPECT_LE(st.latency.p95(), t.slaMs);
    EXPECT_GT(st.execTotalMs, 0.0);
}

TEST_F(ServerTest, BatchingServesMoreUnderOverload)
{
    // Heavy overload with a large per-dispatch cost: the unbatched
    // session sheds aggressively; coalescing amortizes the base cost
    // and must push substantially more requests through within the
    // same SLA.
    const TenantConfig t = tenant(20.0, ServiceModel{1.0, 0.02});
    const auto arrivals = PoissonLoadGen(0.25, 5).arrivals(400);
    const auto base = serveAlone(t, FleetConfig{}, arrivals).total;

    FleetConfig bcfg;
    bcfg.batching.enabled = true;
    bcfg.batching.maxRequests = 8;
    bcfg.batching.maxLingerMs = 2.0;
    const auto st = serveAlone(t, bcfg, arrivals).total;

    EXPECT_GT(base.shed, 0u);
    EXPECT_GT(st.served, base.served);
    EXPECT_LE(st.latency.p95(), t.slaMs);
    // The acceptance bar: >= 1.3x sustained throughput at an equal
    // or better served tail.
    const double base_rate =
        static_cast<double>(base.served) / base.makespanMs;
    const double batched_rate =
        static_cast<double>(st.served) / st.makespanMs;
    EXPECT_GE(batched_rate, 1.3 * base_rate);
    EXPECT_LE(st.latency.p95(), base.latency.p95() + 1e-9);
}

TEST_F(ServerTest, BatchedFaultsAreIsolatedPerMember)
{
    // Faults hit individual members of a coalesced dispatch: the
    // sibling requests in the same batch must still be served, and
    // the afflicted members retried, exactly as in the unbatched
    // path.
    FaultConfig fc;
    fc.seed = 33;
    fc.taskExceptionRate = 0.10;
    fc.corruptIndexRate = 0.05;
    const FaultSchedule faults = phase(fc);

    FleetConfig cfg;
    cfg.maxRetries = 4;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 6;
    cfg.batching.maxLingerMs = 1.0;
    const auto arrivals = PoissonLoadGen(1.5, 3).arrivals(200);
    const auto st = serveAlone(tenant(50.0, ServiceModel{0.5, 0.05}),
                               cfg, arrivals, &faults)
                        .total;

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served + st.shed + st.failed, 200u);
    EXPECT_GT(st.retried, 0u);
    EXPECT_GT(st.served, 190u);
    EXPECT_GT(faults.injectorAt(0.0, 0)->injectedExceptions(), 0u);
}

TEST_F(ServerTest, SeededBatchedRunIsExactlyReproducible)
{
    FaultConfig fc;
    fc.seed = 55;
    fc.taskExceptionRate = 0.05;
    fc.stragglerCore = 0;
    fc.stragglerFactor = 2.0;

    FleetConfig cfg;
    cfg.maxRetries = 3;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 8;
    cfg.batching.maxLingerMs = 1.0;
    const TenantConfig t = tenant(30.0, ServiceModel{0.5, 0.05});
    const auto arrivals = PoissonLoadGen(1.0, 9).arrivals(300);

    const FaultSchedule f1 = phase(fc);
    const auto a = serveAlone(t, cfg, arrivals, &f1).total;
    const FaultSchedule f2 = phase(fc);
    const auto b = serveAlone(t, cfg, arrivals, &f2).total;

    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.latency.samples(), b.latency.samples());
    EXPECT_EQ(a.served + a.shed + a.failed, 300u);
}

TEST_F(ServerTest, DegradationShrinksTheCoalescingCap)
{
    // Under sustained overload the tiers engage; tiered runs shrink
    // the coalescing cap (batchFraction), so the deepest tier's
    // dispatches carry fewer members than tier 0 would allow. The
    // end-to-end signal: the degraded batched run still completes and
    // records escalations.
    TenantConfig t = tenant(40.0, ServiceModel{1.0, 0.15});
    t.degrade.enabled = true;
    t.degrade.window = 32;
    t.degrade.cooldown = 32;
    FleetConfig cfg;
    cfg.admission = false;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 8;
    cfg.batching.maxLingerMs = 1.0;

    const auto arrivals = PoissonLoadGen(0.2, 3).arrivals(400);
    const auto st = serveAlone(t, cfg, arrivals).total;

    EXPECT_EQ(st.served, 400u);
    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.finalTier, 0);
}

TEST_F(ServerTest, QuantizedTierFallsBackGracefullyWithoutStores)
{
    // A degradation tier asking for a precision that was never
    // provisioned must still serve (embedding bags fall back to the
    // fp32 store; the int8 MLP engine is always available).
    TenantConfig t = tenant(12.0, ServiceModel::constant(1.0));
    t.degrade.enabled = true;
    t.degrade.window = 16;
    t.degrade.cooldown = 16;
    FleetConfig cfg;
    cfg.admission = false;

    const auto arrivals = PoissonLoadGen(0.4, 3).arrivals(200);
    const auto st = serveAlone(t, cfg, arrivals).total;

    EXPECT_EQ(st.served, 200u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_GT(st.quantDispatches, 0u);
}

TEST_F(ServerTest, RejectsBadConfigsAndInputs)
{
    ServerConfig cfg;
    cfg.slaMs = 0.0;
    EXPECT_THROW(Server(model, sched::Topology::synthetic(1, 1), cfg),
                 std::invalid_argument);
    cfg = {};
    cfg.service = ServiceModel::constant(-1.0);
    EXPECT_THROW(Server(model, sched::Topology::synthetic(1, 1), cfg),
                 std::invalid_argument);
    cfg = {};
    cfg.batching.maxRequests = 0;
    EXPECT_THROW(Server(model, sched::Topology::synthetic(1, 1), cfg),
                 std::invalid_argument);

    // A session with arrivals but no batches to serve them.
    TenantRegistry reg;
    reg.add(tenant(20.0, ServiceModel::constant(1.0)));
    FleetConfig one;
    one.instances = 1;
    TenantFleet fleet(reg, sched::Topology::synthetic(1, 1), one);
    EXPECT_THROW(fleet.serve({{dense, {}, {0.0}}}),
                 std::invalid_argument);
}

/** A structurally valid request carrying no samples. */
core::SparseBatch
zeroSampleBatch()
{
    core::SparseBatch z;
    z.batchSize = 0;
    z.indices.assign(smallModel().tables, {});
    z.offsets.assign(smallModel().tables, {0});
    return z;
}

TEST_F(ServerTest, ServeRejectsAZeroSampleRequest)
{
    const core::SparseBatch z = zeroSampleBatch();
    ASSERT_TRUE(z.valid(smallModel().rows));
    batches = {batches[0], z};
    for (const bool batching : {false, true}) {
        FleetConfig cfg;
        cfg.batching.enabled = batching;
        EXPECT_THROW(serveAlone(tenant(20.0, ServiceModel::constant(1.0)),
                                cfg, {0.0, 0.5}),
                     std::invalid_argument)
            << "batching " << batching;
    }
}

TEST_F(ServerTest, ExecuteBatchedAttemptRejectsAZeroSamplePart)
{
    const core::SparseBatch z = zeroSampleBatch();
    ASSERT_TRUE(z.valid(smallModel().rows));
    Server srv(model, sched::Topology::synthetic(2, 2), ServerConfig{});
    const core::Tensor none(0, smallModel().denseDim());
    EXPECT_THROW(srv.executeBatchedAttempt(
                     0, {&z}, {&none}, DegradationPolicy::stateForTier(0),
                     core::PrefetchSpec{}),
                 std::invalid_argument);
    // Nor may a zero-sample member hide inside a coalesced group.
    EXPECT_THROW(srv.executeBatchedAttempt(
                     0, {&batches[0], &z}, {&dense, &none},
                     DegradationPolicy::stateForTier(0),
                     core::PrefetchSpec{}),
                 std::invalid_argument);
}

TEST_F(ServerTest, BitFlipQuarantineRestoresBitwiseServing)
{
    TenantRegistry reg;
    reg.add(tenant(80.0, ServiceModel::constant(1.0)));
    FleetConfig cfg;
    cfg.instances = 1;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    cfg.verifyBlocks = true;
    TenantFleet fleet(reg, sched::Topology::synthetic(2, 2), cfg);

    // Pristine baseline through the batched gather path.
    const std::vector<TenantWorkload> work{
        {dense, batches, std::vector<double>(12, 0.0)}};
    const FleetStats base = fleet.serve(work);
    ASSERT_EQ(base.total.served, 12u);
    EXPECT_EQ(base.verifyRepairs, 0u);

    // A DRAM upset flips one bit of a row the stream reads: the
    // block's checksum stops verifying, nothing else announces the
    // corruption. Verification repairs the block before any member
    // reads it, so the identical session serves bit-identical
    // predictions again — zero wrong answers survive the upset.
    const FaultSchedule upset(
        {}, {},
        {{0.0, 0,
          static_cast<std::size_t>(batches.front().indices[0][0]), 30}});
    const FleetStats st = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &upset);
    EXPECT_EQ(st.total.served, 12u);
    EXPECT_EQ(st.verifyRepairs, 1u);
    EXPECT_EQ(st.perTenant[0].predFingerprints,
              base.perTenant[0].predFingerprints);
    EXPECT_TRUE(fleet.currentStore(0).findCorruptBlocks().empty());
}

} // namespace
