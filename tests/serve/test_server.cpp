/**
 * @file
 * Tests for the fault-tolerant request server: admission control,
 * deadline compliance, retry with backoff, graceful degradation, and
 * bit-reproducible behaviour under seeded fault injection.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/embedding_store.hpp"
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

    core::DlrmModel model;
    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

TEST_F(ServerTest, ServesACleanStreamCompletely)
{
    ServerConfig cfg;
    cfg.slaMs = 50.0;
    cfg.service = ServiceModel::constant(1.0);
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);

    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(100);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.arrived, 100u);
    EXPECT_EQ(st.served, 100u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retried, 0u);
    EXPECT_EQ(st.latency.count(), 100u);
    EXPECT_LE(st.latency.p95(), cfg.slaMs);
    EXPECT_GT(st.execTotalMs, 0.0);
    EXPECT_FALSE(st.summary().empty());
}

TEST_F(ServerTest, AdmissionControlShedsOverloadAndProtectsTheTail)
{
    // rho = service / (mean arrival * cores) = 1 / (0.2 * 2) = 2.5:
    // hopeless overload. Admission control must shed, and the p95 of
    // what it *does* serve must stay within the SLA.
    ServerConfig cfg;
    cfg.slaMs = 10.0;
    cfg.service = ServiceModel::constant(1.0);
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);

    const auto arrivals = PoissonLoadGen(0.2, 3).arrivals(300);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_GT(st.shed, 0u);
    EXPECT_EQ(st.served + st.shed, 300u);
    EXPECT_LE(st.latency.p95(), cfg.slaMs);

    // Same overload without admission control: everything is served
    // but the tail blows through the SLA.
    ServerConfig open = cfg;
    open.admission = false;
    Server srv2(model, sched::Topology::synthetic(2, 2), open);
    const auto st2 = srv2.serve(dense, batches, arrivals);
    EXPECT_EQ(st2.served, 300u);
    EXPECT_EQ(st2.shed, 0u);
    EXPECT_GT(st2.latency.p95(), cfg.slaMs);
}

TEST_F(ServerTest, InjectedFaultsAreRetriedNotFatal)
{
    FaultConfig fc;
    fc.seed = 21;
    fc.taskExceptionRate = 0.10;
    fc.corruptIndexRate = 0.05;
    fc.allocFailureRate = 0.02;
    const FaultInjector inj(fc);

    ServerConfig cfg;
    cfg.slaMs = 50.0;
    cfg.service = ServiceModel::constant(1.0);
    cfg.maxRetries = 4;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg, &inj);

    const auto arrivals = PoissonLoadGen(2.0, 3).arrivals(200);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served + st.shed + st.failed, 200u);
    EXPECT_GT(st.retried, 0u);
    // ~17% per-attempt fault rate with 4 retries: nearly everything
    // eventually lands.
    EXPECT_GT(st.served, 190u);
    // The pool recorded the injected failures without dying.
    EXPECT_GT(srv.coreHealth(0).failed + srv.coreHealth(1).failed, 0u);
    EXPECT_GT(inj.injectedExceptions(), 0u);
    EXPECT_GT(inj.injectedCorruptions(), 0u);
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

    ServerConfig cfg;
    cfg.slaMs = 25.0;
    cfg.service = ServiceModel::constant(1.0);
    cfg.maxRetries = 3;
    cfg.backoffBaseMs = 1.0;
    cfg.backoffCapMs = 4.0;

    const auto arrivals = PoissonLoadGen(1.5, 9).arrivals(400);

    const FaultInjector inj1(fc);
    Server srv1(model, sched::Topology::synthetic(2, 2), cfg, &inj1);
    const auto a = srv1.serve(dense, batches, arrivals);

    const FaultInjector inj2(fc);
    Server srv2(model, sched::Topology::synthetic(2, 2), cfg, &inj2);
    const auto b = srv2.serve(dense, batches, arrivals);

    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.latency.samples(), b.latency.samples());

    EXPECT_EQ(a.served + a.shed + a.failed, 400u);
    EXPECT_GT(a.retried, 0u);
    EXPECT_LE(a.latency.p95(), cfg.slaMs);
}

TEST_F(ServerTest, DegradationEngagesUnderPressureAndHelps)
{
    // Sustained overload (rho ~ 1.7) with admission off so nothing is
    // shed: latencies climb without bound, the windowed p95 crosses
    // the high-water mark, and the tiers engage. Tier 1's smaller
    // batches then let the queue drain.
    ServerConfig cfg;
    cfg.slaMs = 60.0;
    cfg.service = ServiceModel::constant(1.0);
    cfg.admission = false;
    cfg.degrade.enabled = true;
    cfg.degrade.window = 32;
    cfg.degrade.cooldown = 32;

    const auto arrivals = PoissonLoadGen(0.3, 3).arrivals(400);

    Server degraded(model, sched::Topology::synthetic(2, 2), cfg);
    const auto st = degraded.serve(dense, batches, arrivals);
    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.finalTier, 0);

    ServerConfig rigid = cfg;
    rigid.degrade.enabled = false;
    Server fixed(model, sched::Topology::synthetic(2, 2), rigid);
    const auto st2 = fixed.serve(dense, batches, arrivals);
    EXPECT_EQ(st2.degradeEscalations, 0u);

    // Shrunken batches drain the queue faster: the degraded run's
    // tail must beat the rigid one's.
    EXPECT_LT(st.latency.p95(), st2.latency.p95());
}

TEST_F(ServerTest, BatchingCoalescesWithoutChangingOutcomes)
{
    // Affine service model: coalescing amortizes the 0.5ms dispatch
    // cost, so the batched session must serve everything the
    // unbatched one does with strictly fewer dispatches.
    ServerConfig cfg;
    cfg.slaMs = 50.0;
    cfg.service = ServiceModel{0.5, 0.05};
    const auto arrivals = PoissonLoadGen(1.0, 3).arrivals(200);

    Server flat(model, sched::Topology::synthetic(2, 2), cfg);
    const auto base = flat.serve(dense, batches, arrivals);

    ServerConfig bcfg = cfg;
    bcfg.batching.enabled = true;
    bcfg.batching.maxRequests = 8;
    bcfg.batching.maxLingerMs = 1.0;
    Server coalescing(model, sched::Topology::synthetic(2, 2), bcfg);
    const auto st = coalescing.serve(dense, batches, arrivals);

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served, 200u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_LT(st.dispatches, base.dispatches);
    EXPECT_GT(st.dispatches, 0u);
    EXPECT_LE(st.latency.p95(), cfg.slaMs);
    EXPECT_GT(st.execTotalMs, 0.0);
}

TEST_F(ServerTest, BatchingServesMoreUnderOverload)
{
    // Heavy overload with a large per-dispatch cost: the unbatched
    // server sheds aggressively; coalescing amortizes the base cost
    // and must push substantially more requests through within the
    // same SLA.
    ServerConfig cfg;
    cfg.slaMs = 20.0;
    cfg.service = ServiceModel{1.0, 0.02};
    const auto arrivals = PoissonLoadGen(0.25, 5).arrivals(400);

    Server flat(model, sched::Topology::synthetic(2, 2), cfg);
    const auto base = flat.serve(dense, batches, arrivals);

    ServerConfig bcfg = cfg;
    bcfg.batching.enabled = true;
    bcfg.batching.maxRequests = 8;
    bcfg.batching.maxLingerMs = 2.0;
    Server coalescing(model, sched::Topology::synthetic(2, 2), bcfg);
    const auto st = coalescing.serve(dense, batches, arrivals);

    EXPECT_GT(base.shed, 0u);
    EXPECT_GT(st.served, base.served);
    EXPECT_LE(st.latency.p95(), cfg.slaMs);
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
    const FaultInjector inj(fc);

    ServerConfig cfg;
    cfg.slaMs = 50.0;
    cfg.service = ServiceModel{0.5, 0.05};
    cfg.maxRetries = 4;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 6;
    cfg.batching.maxLingerMs = 1.0;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg, &inj);

    const auto arrivals = PoissonLoadGen(1.5, 3).arrivals(200);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.arrived, 200u);
    EXPECT_EQ(st.served + st.shed + st.failed, 200u);
    EXPECT_GT(st.retried, 0u);
    EXPECT_GT(st.served, 190u);
    EXPECT_GT(inj.injectedExceptions(), 0u);
}

TEST_F(ServerTest, SeededBatchedRunIsExactlyReproducible)
{
    FaultConfig fc;
    fc.seed = 55;
    fc.taskExceptionRate = 0.05;
    fc.stragglerCore = 0;
    fc.stragglerFactor = 2.0;

    ServerConfig cfg;
    cfg.slaMs = 30.0;
    cfg.service = ServiceModel{0.5, 0.05};
    cfg.maxRetries = 3;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 8;
    cfg.batching.maxLingerMs = 1.0;

    const auto arrivals = PoissonLoadGen(1.0, 9).arrivals(300);

    const FaultInjector inj1(fc);
    Server srv1(model, sched::Topology::synthetic(2, 2), cfg, &inj1);
    const auto a = srv1.serve(dense, batches, arrivals);

    const FaultInjector inj2(fc);
    Server srv2(model, sched::Topology::synthetic(2, 2), cfg, &inj2);
    const auto b = srv2.serve(dense, batches, arrivals);

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
    ServerConfig cfg;
    cfg.slaMs = 40.0;
    cfg.service = ServiceModel{1.0, 0.15};
    cfg.admission = false;
    cfg.degrade.enabled = true;
    cfg.degrade.window = 32;
    cfg.degrade.cooldown = 32;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 8;
    cfg.batching.maxLingerMs = 1.0;

    const auto arrivals = PoissonLoadGen(0.2, 3).arrivals(400);
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.served, 400u);
    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.finalTier, 0);
}

TEST_F(ServerTest, QuantizedTiersEngageBeforeShedding)
{
    // Overload a server whose quantized tiers are genuinely cheaper
    // (dtype-aware pricing): the ladder must drop precision first —
    // serving every admitted sample at bf16/int8 — and only shed what
    // even int8 capacity cannot absorb. The rigid control run (no
    // degradation) at the same load sheds strictly more.
    core::DlrmModel m(smallModel(), 11);
    m.attachQuantizedStore(core::EmbeddingStore::create(
        smallModel(), 11, 256, core::EmbDtype::Bf16));
    m.attachQuantizedStore(core::EmbeddingStore::create(
        smallModel(), 11, 256, core::EmbDtype::Int8));

    ServerConfig cfg;
    cfg.slaMs = 12.0;
    cfg.service = ServiceModel::constant(1.0);
    cfg.dtypeServiceEnabled = true;
    cfg.serviceBf16 = ServiceModel::constant(0.8);
    cfg.serviceInt8 = ServiceModel::constant(0.5);
    cfg.degrade.enabled = true;
    cfg.degrade.window = 16;
    cfg.degrade.cooldown = 16;

    // rho ~ 1.25 at fp32 on 2 cores: overloaded at full precision,
    // comfortably under capacity at int8 (rho ~ 0.63).
    const auto arrivals = PoissonLoadGen(0.4, 3).arrivals(400);
    Server degraded(m, sched::Topology::synthetic(2, 2), cfg);
    const auto st = degraded.serve(dense, batches, arrivals);

    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.quantDispatches, 0u);
    EXPECT_GT(st.finalTier, 0);
    // Quantized dispatches serve full batches: degradation reached
    // the precision tiers, not just the old shrink-work knobs.
    EXPECT_EQ(st.served + st.shed + st.failed, 400u);

    ServerConfig rigid = cfg;
    rigid.degrade.enabled = false;
    Server fixed(m, sched::Topology::synthetic(2, 2), rigid);
    const auto rst = fixed.serve(dense, batches, arrivals);

    EXPECT_EQ(rst.quantDispatches, 0u);
    // Dropping precision buys real admission headroom.
    EXPECT_LT(st.shed, rst.shed);
    EXPECT_GT(st.served, rst.served);
}

TEST_F(ServerTest, QuantizedTierFallsBackGracefullyWithoutStores)
{
    // A degradation tier asking for a precision that was never
    // provisioned must still serve (embedding bags fall back to the
    // fp32 store; the int8 MLP engine is always available).
    ServerConfig cfg;
    cfg.slaMs = 12.0;
    cfg.service = ServiceModel::constant(1.0);
    cfg.admission = false;
    cfg.degrade.enabled = true;
    cfg.degrade.window = 16;
    cfg.degrade.cooldown = 16;

    const auto arrivals = PoissonLoadGen(0.4, 3).arrivals(200);
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);
    const auto st = srv.serve(dense, batches, arrivals);

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
    cfg.backoffBaseMs = 4.0;
    cfg.backoffCapMs = 1.0;
    EXPECT_THROW(Server(model, sched::Topology::synthetic(1, 1), cfg),
                 std::invalid_argument);
    cfg = {};
    cfg.batching.maxRequests = 0;
    EXPECT_THROW(Server(model, sched::Topology::synthetic(1, 1), cfg),
                 std::invalid_argument);

    cfg = {};
    Server srv(model, sched::Topology::synthetic(1, 1), cfg);
    EXPECT_THROW(srv.serve(dense, {}, {0.0}), std::invalid_argument);
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
    for (const bool batching : {false, true}) {
        ServerConfig cfg;
        cfg.batching.enabled = batching;
        Server srv(model, sched::Topology::synthetic(2, 2), cfg);
        EXPECT_THROW(srv.serve(dense, {batches[0], z}, {0.0, 0.5}),
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
    auto mut = core::EmbeddingStore::createMutable(smallModel(), 11);
    const core::DlrmModel m(smallModel(), mut, 11);

    ServerConfig cfg;
    cfg.slaMs = 80.0;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    Server srv(m, sched::Topology::synthetic(2, 2), cfg);

    // Pristine baseline through the batched gather path.
    const std::vector<double> arrivals(12, 0.0);
    const auto base = srv.serve(dense, batches, arrivals);
    ASSERT_EQ(base.served, 12u);
    const core::Tensor& p0 = srv.lastPredictions();
    const std::vector<float> want(p0.data(), p0.data() + p0.size());
    const std::size_t ws_fp = srv.workspaceFingerprint();

    // A DRAM upset flips one stored row bit: the block's checksum
    // stops verifying, nothing else announces the corruption.
    FaultConfig fc;
    fc.seed = 5;
    fc.bitFlipRate = 1.0;
    const FaultInjector flipper(fc);
    ASSERT_TRUE(flipper.maybeFlipStoredBit(*mut, 0, 0));
    const auto bad = mut->findCorruptBlocks();
    ASSERT_EQ(bad.size(), 1u);

    // Quarantine + repair (what FleetConfig::verifyBlocks does), then
    // the identical session must serve bit-identical predictions
    // again — zero wrong answers survive the upset.
    mut->repairBlock(bad[0].table, bad[0].block);
    EXPECT_TRUE(mut->findCorruptBlocks().empty());

    const auto st = srv.serve(dense, batches, arrivals);
    EXPECT_EQ(st.served, 12u);
    const core::Tensor& p1 = srv.lastPredictions();
    ASSERT_EQ(p1.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i], p1.data()[i]) << "prediction " << i;
    EXPECT_EQ(srv.workspaceFingerprint(), ws_fp);
}

} // namespace
