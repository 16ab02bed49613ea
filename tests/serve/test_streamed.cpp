/**
 * @file
 * Tests for the stage-pipelined streaming dispatch
 * (ServerConfig::streamed):
 * per-stage service pricing (StageServiceModel), real gather/compute
 * overlap on disjoint cores, steady-state makespan tracking the
 * bottleneck stage, fault containment mid-pipeline, degradation
 * collapse to sequential dispatch, and buffer-fingerprint stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/embedding_store.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/service_model.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;

core::ModelConfig
smallModel()
{
    core::ModelConfig m;
    m.name = "streamed_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 4096;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

class StreamedTest : public ::testing::Test
{
  protected:
    StreamedTest() : model(smallModel(), 11)
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

    /** Streamed baseline config: batching on, generous SLA. */
    ServerConfig
    streamedConfig() const
    {
        ServerConfig cfg;
        cfg.slaMs = 80.0;
        cfg.service = ServiceModel::constant(1.0);
        cfg.batching.enabled = true;
        cfg.batching.maxRequests = 4;
        cfg.streamed = true;
        return cfg;
    }

    core::DlrmModel model;
    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

// ---------------------------------------------------------------------------
// StageServiceModel: per-stage pricing of the pipelined dispatch.
// ---------------------------------------------------------------------------

TEST(StageServiceModelTest, SplitPreservesTheTotal)
{
    const ServiceModel total{2.0, 0.5};
    const StageServiceModel s = StageServiceModel::split(total, 0.25);
    EXPECT_DOUBLE_EQ(s.gather.baseMs, 0.5);
    EXPECT_DOUBLE_EQ(s.gather.perSampleMs, 0.125);
    EXPECT_DOUBLE_EQ(s.compute.baseMs, 1.5);
    EXPECT_DOUBLE_EQ(s.compute.perSampleMs, 0.375);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}}) {
        EXPECT_DOUBLE_EQ(s.sequentialMs(n), total.serviceMs(n));
        EXPECT_DOUBLE_EQ(s.gatherMs(n) + s.computeMs(n),
                         total.serviceMs(n));
    }
}

TEST(StageServiceModelTest, PipelinedCostIsTheSlowerStage)
{
    const StageServiceModel s =
        StageServiceModel::split(ServiceModel::constant(4.0), 0.75);
    EXPECT_DOUBLE_EQ(s.gatherMs(9), 3.0);
    EXPECT_DOUBLE_EQ(s.computeMs(9), 1.0);
    EXPECT_DOUBLE_EQ(s.pipelinedMs(9), 3.0);
    EXPECT_DOUBLE_EQ(s.sequentialMs(9), 4.0);

    const StageServiceModel t =
        StageServiceModel::split(ServiceModel::constant(4.0), 0.25);
    EXPECT_DOUBLE_EQ(t.pipelinedMs(9), 3.0); // compute-bound now
}

TEST(StageServiceModelTest, SplitRejectsDegenerateFractions)
{
    const ServiceModel total{1.0, 0.1};
    EXPECT_THROW(StageServiceModel::split(total, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(StageServiceModel::split(total, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(StageServiceModel::split(total, -0.5),
                 std::invalid_argument);
    EXPECT_THROW(StageServiceModel::split(total, std::nan("")),
                 std::invalid_argument);
    EXPECT_NO_THROW(StageServiceModel::split(total, 0.5).validate());
}

// ---------------------------------------------------------------------------
// Construction contracts.
// ---------------------------------------------------------------------------

TEST_F(StreamedTest, StreamedRequiresBatchingAndAValidFraction)
{
    ServerConfig cfg;
    cfg.streamed = true; // batching left disabled
    EXPECT_THROW(Server(model, sched::Topology::synthetic(2, 2), cfg),
                 std::invalid_argument);

    cfg.batching.enabled = true;
    cfg.gatherFraction = 1.0;
    EXPECT_THROW(Server(model, sched::Topology::synthetic(2, 2), cfg),
                 std::invalid_argument);

    cfg.gatherFraction = 0.5;
    EXPECT_NO_THROW(Server(model, sched::Topology::synthetic(2, 2), cfg));
}

// ---------------------------------------------------------------------------
// Clean streams: everything served, stages really overlap.
// ---------------------------------------------------------------------------

TEST_F(StreamedTest, ServesACleanStreamWithRealOverlap)
{
    Server srv(model, sched::Topology::synthetic(2, 2), streamedConfig());

    // Everything queued at once: the pipeline stays full throughout.
    const std::vector<double> arrivals(64, 0.0);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.arrived, 64u);
    EXPECT_EQ(st.served, 64u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retried, 0u);
    EXPECT_EQ(st.latency.count(), 64u);
    EXPECT_GT(st.dispatches, 1u);
    EXPECT_GT(st.execTotalMs, 0.0);

    // The streamed win in one inequality: both lanes were busy for
    // longer than the session took, so gather and compute overlapped.
    EXPECT_GT(st.gatherBusyMs, 0.0);
    EXPECT_GT(st.computeBusyMs, 0.0);
    EXPECT_LT(st.makespanMs, st.gatherBusyMs + st.computeBusyMs);
    EXPECT_GT(st.serverUtilization, 0.0);
    EXPECT_LE(st.serverUtilization, 1.0 + 1e-12);
}

TEST_F(StreamedTest, SteadyStateMakespanTracksTheBottleneckStage)
{
    // With every dispatch the same size, the recurrence collapses to
    // a closed form: the first dispatch fills the pipeline (g + c),
    // every later one costs only the slower stage. Checked for a
    // compute-bound and a gather-bound split.
    const std::size_t d = 16;
    const std::vector<double> arrivals(d, 0.0);
    for (const double f : {0.25, 0.75}) {
        ServerConfig cfg = streamedConfig();
        cfg.admission = false;
        cfg.batching.maxRequests = 1; // one request per dispatch
        cfg.gatherFraction = f;
        Server srv(model, sched::Topology::synthetic(2, 2), cfg);

        const auto st = srv.serve(dense, batches, arrivals);
        const double g = f, c = 1.0 - f;

        ASSERT_EQ(st.served, d) << "fraction " << f;
        ASSERT_EQ(st.dispatches, d);
        EXPECT_NEAR(st.makespanMs,
                    g + c + static_cast<double>(d - 1) * std::max(g, c),
                    1e-9)
            << "fraction " << f;
        EXPECT_NEAR(st.gatherBusyMs, static_cast<double>(d) * g, 1e-9);
        EXPECT_NEAR(st.computeBusyMs, static_cast<double>(d) * c, 1e-9);

        // The acceptance bound the serving bench also asserts: the
        // steady-state per-dispatch cost stays within 1.15x of the
        // bottleneck stage (here it is exactly the bottleneck).
        const double steady = (st.makespanMs - (g + c)) /
                              static_cast<double>(d - 1);
        EXPECT_NEAR(steady, std::max(g, c), 1e-9);
        EXPECT_LE(steady, 1.15 * std::max(g, c));

        // The same stream through a collapsed (single-core) pipeline
        // pays both stages per dispatch: overlap is the entire win.
        Server solo(model, sched::Topology::synthetic(1, 2), cfg);
        const auto sq = solo.serve(dense, batches, arrivals);
        EXPECT_EQ(sq.served, d);
        EXPECT_NEAR(sq.makespanMs, static_cast<double>(d) * (g + c),
                    1e-9);
        EXPECT_LT(st.makespanMs, sq.makespanMs);
    }
}

TEST_F(StreamedTest, SingleCoreCollapsesToSequentialDispatch)
{
    ServerConfig cfg = streamedConfig();
    cfg.admission = false;
    cfg.batching.maxRequests = 1;
    Server srv(model, sched::Topology::synthetic(1, 2), cfg);

    const std::vector<double> arrivals(8, 0.0);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.served, 8u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_NEAR(st.makespanMs, 8.0, 1e-9); // g + c back to back, x8
    // One lane, saturated from t=0: utilization accounting must not
    // divide by phantom second lane.
    EXPECT_NEAR(st.serverUtilization, 1.0, 1e-9);
}

TEST_F(StreamedTest, StreamedPredictionsMatchBatchedBitwise)
{
    // The same request stream, streamed and unstreamed, must leave
    // bitwise-identical predictions for the final dispatch at every
    // serving precision (both resolve to the same coalesced groups on
    // the same virtual clock, and the pipelined compute stage runs
    // the fused forward's kernels at the dispatch's dtype — the u8·s8
    // engine included).
    core::DlrmModel m(smallModel(), 11);
    m.attachQuantizedStore(core::EmbeddingStore::create(
        smallModel(), 11, 256, core::EmbDtype::Bf16));
    m.attachQuantizedStore(core::EmbeddingStore::create(
        smallModel(), 11, 256, core::EmbDtype::Int8));
    const std::vector<double> arrivals(12, 0.0);

    for (const core::EmbDtype dtype :
         {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
          core::EmbDtype::Int8}) {
        SCOPED_TRACE(static_cast<int>(dtype));
        ServerConfig cfg = streamedConfig();
        cfg.dtype = dtype;

        Server streamed(m, sched::Topology::synthetic(2, 2), cfg);
        const auto ss = streamed.serve(dense, batches, arrivals);
        ASSERT_EQ(ss.served, 12u);
        const core::Tensor& sp = streamed.lastPredictions();
        const std::vector<float> want(sp.data(), sp.data() + sp.size());

        ServerConfig plain = cfg;
        plain.streamed = false;
        Server batched(m, sched::Topology::synthetic(2, 2), plain);
        const auto bs = batched.serve(dense, batches, arrivals);
        ASSERT_EQ(bs.served, 12u);
        const core::Tensor& bp = batched.lastPredictions();

        ASSERT_EQ(bp.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(want[i], bp.data()[i]) << "prediction " << i;
    }
}

// ---------------------------------------------------------------------------
// Faults mid-pipeline: containment, conservation, reproducibility.
// ---------------------------------------------------------------------------

TEST_F(StreamedTest, PoisonedMemberMidPipelineFailsAlone)
{
    FaultConfig fc;
    fc.seed = 33;
    fc.corruptIndexRate = 0.08;
    fc.taskExceptionRate = 0.05;
    const FaultInjector inj(fc);

    ServerConfig cfg = streamedConfig();
    cfg.slaMs = 60.0;
    cfg.maxRetries = 3;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg, &inj);

    const auto arrivals = PoissonLoadGen(1.0, 7).arrivals(160);
    const auto st = srv.serve(dense, batches, arrivals);
    const std::size_t ws_fp = srv.workspaceFingerprint();

    // Faults really hit, yet every request is accounted for exactly
    // once and the overwhelming majority still gets served: a
    // poisoned member is quarantined before staging, so it never
    // takes its batch siblings (or the sibling rotation set) down.
    EXPECT_GT(inj.injectedCorruptions() + inj.injectedExceptions(), 0u);
    EXPECT_GT(st.retried, 0u);
    EXPECT_EQ(st.served + st.shed + st.failed, 160u);
    EXPECT_GT(st.served, st.failed);
    EXPECT_EQ(st.latency.count(), st.served);

    // Bit-reproducible: the identical session replays to identical
    // counters and never reallocates a workspace buffer.
    const auto st2 = srv.serve(dense, batches, arrivals);
    EXPECT_EQ(st2.served, st.served);
    EXPECT_EQ(st2.shed, st.shed);
    EXPECT_EQ(st2.failed, st.failed);
    EXPECT_EQ(st2.retried, st.retried);
    EXPECT_EQ(st2.dispatches, st.dispatches);
    EXPECT_DOUBLE_EQ(st2.makespanMs, st.makespanMs);
    EXPECT_DOUBLE_EQ(st2.latency.p95(), st.latency.p95());
    EXPECT_EQ(srv.workspaceFingerprint(), ws_fp);
}

TEST_F(StreamedTest, InFlightStageFailureDrainsWithoutCorruption)
{
    // A hot exception rate with no retry budget: dispatches keep
    // failing members while their siblings' stage (the other rotation
    // set) is in flight. The pipeline must drain every dispatch and
    // the workspace must stay put.
    FaultConfig fc;
    fc.seed = 9;
    fc.taskExceptionRate = 0.30;
    const FaultInjector inj(fc);

    ServerConfig cfg = streamedConfig();
    cfg.maxRetries = 0;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg, &inj);

    const std::vector<double> arrivals(96, 0.0);
    const auto st = srv.serve(dense, batches, arrivals);
    const std::size_t ws_fp = srv.workspaceFingerprint();

    EXPECT_GT(st.failed, 0u);
    EXPECT_GT(st.served, 0u);
    EXPECT_EQ(st.served + st.shed + st.failed, 96u);

    // A follow-up session on the same server still accounts for
    // everything: no poisoned state leaked across sessions.
    const auto again = srv.serve(dense, batches, arrivals);
    EXPECT_EQ(again.served + again.shed + again.failed, 96u);
    EXPECT_EQ(srv.workspaceFingerprint(), ws_fp);
}

TEST_F(StreamedTest, OverloadShedsAndProtectsTheTail)
{
    // Hopeless overload: admission control must shed, and what the
    // pipelined path *does* serve must stay within the SLA (the
    // deadline of an in-flight stage is priced at admission).
    ServerConfig cfg = streamedConfig();
    cfg.slaMs = 10.0;
    cfg.batching.maxRequests = 2;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);

    const auto arrivals = PoissonLoadGen(0.2, 3).arrivals(300);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_GT(st.shed, 0u);
    EXPECT_EQ(st.served + st.shed, 300u);
    EXPECT_LE(st.latency.p95(), cfg.slaMs);
}

TEST_F(StreamedTest, TierCollapseDrainsThePipelineAndGoesSequential)
{
    // Sustained latency pressure with degradation enabled: the tier
    // controller must escalate (eventually to the sequential scheme,
    // which drains the in-flight stage before dispatching), and the
    // session must still account for every request.
    ServerConfig cfg = streamedConfig();
    cfg.slaMs = 6.0;
    cfg.service = ServiceModel::constant(2.0);
    cfg.admission = false; // let the backlog build real latency
    cfg.degrade.enabled = true;
    cfg.degrade.window = 8;
    cfg.degrade.cooldown = 8;
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);

    const std::vector<double> arrivals(120, 0.0);
    const auto st = srv.serve(dense, batches, arrivals);

    EXPECT_EQ(st.served, 120u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_GT(st.degradeEscalations, 0u);
    EXPECT_GT(st.finalTier, 0);
}

// ---------------------------------------------------------------------------
// Bit-flip quarantine: store integrity around the overlapped gather.
// ---------------------------------------------------------------------------

TEST_F(StreamedTest, BitFlipQuarantineRestoresBitwiseServing)
{
    auto mut = core::EmbeddingStore::createMutable(smallModel(), 11);
    const core::DlrmModel m(smallModel(), mut, 11);

    ServerConfig cfg = streamedConfig();
    Server srv(m, sched::Topology::synthetic(2, 2), cfg);

    // Pristine baseline through the overlapped gather path.
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

    // Quarantine + repair (the Router integrity sweep's job), then
    // the identical streamed session must serve bit-identical
    // predictions again — zero wrong answers survive the upset.
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

// ---------------------------------------------------------------------------
// Concurrent handoff stress: the TSan target for the double-buffered
// gather/compute overlap (real pool, real kernels, many rotations).
// ---------------------------------------------------------------------------

TEST_F(StreamedTest, ConcurrentHandoffStressIsRaceFree)
{
    ServerConfig cfg = streamedConfig();
    cfg.batching.maxRequests = 2; // more dispatches = more handoffs
    Server srv(model, sched::Topology::synthetic(2, 2), cfg);

    const std::vector<double> arrivals(48, 0.0);
    for (int round = 0; round < 3; ++round) {
        const auto st = srv.serve(dense, batches, arrivals);
        ASSERT_EQ(st.served, 48u) << "round " << round;
        ASSERT_EQ(st.failed, 0u);
    }
}

} // namespace
