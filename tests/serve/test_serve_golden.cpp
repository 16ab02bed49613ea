/**
 * @file
 * Golden session digests for the serving loops.
 *
 * Every Server mode (batching off, batched, streamed) is replayed
 * across degradation off/on, faults off/on (task exceptions, corrupt
 * indices, a straggler core) and the three serving precisions, and
 * every Router policy is replayed under each scripted chaos scenario
 * with prediction recording on. Each session folds into one 64-bit
 * digest over its exact counters, its served-latency sequence, its
 * makespan and per-lane busy times (rounded to 1e-6 ms), and — for
 * the Router — whether each request's recorded prediction fingerprint
 * equals that of a fresh DlrmModel::forward over the same request.
 * (The raw prediction bits depend on how the compiler contracts
 * floating-point expressions, which differs between the optimized
 * and sanitized builds; agreement with the reference forward does
 * not.) The expected digests are constants: any change to admission,
 * coalescing, pricing, fault resolution, retry, degradation or the
 * served bits shows up here as a mismatch, with the session's
 * counters printed alongside so the drift can be located.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
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
    m.name = "golden_small";
    m.cls = core::ModelClass::RMC2;
    m.rows = 4096;
    m.dim = 16;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

/** FNV-1a over 64-bit words: order-sensitive, platform-independent. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            _h ^= (v >> (8 * b)) & 0xffu;
            _h *= 0x100000001b3ull;
        }
    }

    /** Milliseconds rounded to 1e-6 ms. */
    void
    addMs(double ms)
    {
        add(static_cast<std::uint64_t>(std::llround(ms * 1e6)));
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
digestOf(const ServeStats& st)
{
    Digest d;
    for (const std::size_t c :
         {st.arrived, st.served, st.shed, st.failed, st.retried,
          st.dispatches, st.quantDispatches, st.degradeEscalations}) {
        d.add(c);
    }
    d.add(static_cast<std::uint64_t>(st.finalTier));
    for (const double l : st.latency.samples())
        d.addMs(l);
    d.addMs(st.makespanMs);
    d.addMs(st.gatherBusyMs);
    d.addMs(st.computeBusyMs);
    return d.value();
}

/** The Router's per-request prediction fingerprint: a mix64 chain
 *  over the raw fp32 bit patterns (RouterStats::predFingerprints). */
std::uint64_t
fingerprint(const core::Tensor& pred)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < pred.size(); ++i) {
        std::uint32_t u;
        std::memcpy(&u, pred.data() + i, sizeof(u));
        h = mix64(h ^ u);
    }
    return h;
}

std::string
describe(const ServeStats& st)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "arrived %zu served %zu shed %zu failed %zu retried "
                  "%zu dispatches %zu quant %zu escalations %zu tier %d "
                  "makespan %.6f gather %.6f compute %.6f",
                  st.arrived, st.served, st.shed, st.failed, st.retried,
                  st.dispatches, st.quantDispatches,
                  st.degradeEscalations, st.finalTier, st.makespanMs,
                  st.gatherBusyMs, st.computeBusyMs);
    return buf;
}

enum class Mode
{
    Off,
    Batched,
    Streamed
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Off:
        return "off";
      case Mode::Batched:
        return "batched";
      case Mode::Streamed:
        return "streamed";
    }
    return "?";
}

const char *
dtypeName(core::EmbDtype d)
{
    switch (d) {
      case core::EmbDtype::Fp32:
        return "fp32";
      case core::EmbDtype::Bf16:
        return "bf16";
      case core::EmbDtype::Int8:
        return "int8";
    }
    return "?";
}

struct ServerCase
{
    Mode mode;
    bool degrade;
    bool faults;
    core::EmbDtype dtype;
    std::size_t cores;
    std::uint64_t digest;
};

class ServeGolden : public ::testing::Test
{
  protected:
    ServeGolden() : model(smallModel(), 11)
    {
        model.attachQuantizedStore(core::EmbeddingStore::create(
            smallModel(), 11, 256, core::EmbDtype::Bf16));
        model.attachQuantizedStore(core::EmbeddingStore::create(
            smallModel(), 11, 256, core::EmbDtype::Int8));
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            smallModel(), traces::Hotness::Medium, 5);
        tc.batchSize = 8;
        traces::TraceGenerator gen(tc);
        for (std::size_t b = 0; b < 16; ++b)
            batches.push_back(gen.batch(b));
        dense.reshape(8, smallModel().denseDim());
        dense.randomize(3);
    }

    /** One Server session of the matrix; returns its digest and
     *  describes its counters into @p what. */
    std::uint64_t
    serverSession(Mode mode, bool degrade, bool faults,
                  core::EmbDtype dtype, std::size_t cores,
                  std::string& what)
    {
        ServerConfig cfg;
        cfg.slaMs = 10.0;
        cfg.service = ServiceModel{0.6, 0.05};
        cfg.dtypeServiceEnabled = true;
        cfg.serviceBf16 = ServiceModel{0.5, 0.04};
        cfg.serviceInt8 = ServiceModel{0.4, 0.03};
        cfg.dtype = dtype;
        cfg.batching.enabled = mode != Mode::Off;
        cfg.batching.maxRequests = 4;
        cfg.batching.maxLingerMs = 0.5;
        cfg.streamed = mode == Mode::Streamed;
        cfg.gatherFraction = 0.6;
        cfg.maxRetries = 2;
        if (degrade) {
            // Let latency build so the ladder walks every tier:
            // precision, batch shrink, prefetch off, sequential.
            cfg.admission = false;
            cfg.degrade.enabled = true;
            cfg.degrade.window = 8;
            cfg.degrade.cooldown = 8;
        }

        FaultConfig fc;
        fc.seed = 19;
        fc.taskExceptionRate = 0.06;
        fc.corruptIndexRate = 0.05;
        fc.stragglerCore = static_cast<int>(cores) - 1;
        fc.stragglerFactor = 2.5;
        const FaultInjector inj(fc);

        Server srv(model, sched::Topology::synthetic(cores, 2), cfg,
                   faults ? &inj : nullptr);
        const auto arrivals =
            PoissonLoadGen(degrade ? 0.15 : 0.3, 17).arrivals(160);
        const ServeStats st = srv.serve(dense, batches, arrivals);
        what = describe(st);
        return digestOf(st);
    }

    void
    checkServer(const std::vector<ServerCase>& cases)
    {
        for (const ServerCase& c : cases) {
            std::string what;
            const std::uint64_t got = serverSession(
                c.mode, c.degrade, c.faults, c.dtype, c.cores, what);
            EXPECT_EQ(hex(got), hex(c.digest))
                << modeName(c.mode) << " degrade=" << c.degrade
                << " faults=" << c.faults << " " << dtypeName(c.dtype)
                << " cores=" << c.cores << ": " << what;
        }
    }

    /** One Router chaos session under the named scripted scenario —
     *  or, for an empty name, under static task faults and poisoned
     *  indices on instance 0 — returning its digest and describing
     *  its counters into @p what. */
    std::uint64_t
    routerSession(RoutePolicy policy, const std::string& scenario,
                  std::string& what)
    {
        RouterConfig cfg;
        cfg.instances = 2;
        cfg.policy = policy;
        cfg.server.slaMs = 15.0;
        cfg.server.service = ServiceModel{0.8, 0.04};
        cfg.server.maxRetries = 2;
        cfg.recordPredictions = true;
        cfg.probationMs = 5.0;
        cfg.breaker.enabled = true;
        cfg.hedging = true;
        cfg.integrity.enabled = true;
        cfg.integrity.repair = true;

        FaultConfig fc;
        fc.seed = 23;
        fc.taskExceptionRate = 0.2;
        fc.corruptIndexRate = 0.1;
        const FaultInjector inj(fc);

        const auto arrivals = PoissonLoadGen(0.5, 13).arrivals(150);
        auto store = core::EmbeddingStore::createMutable(smallModel(), 11);
        Router router(smallModel(), store,
                      sched::Topology::synthetic(4, 2), cfg,
                      scenario.empty()
                          ? std::vector<const FaultInjector *>{&inj}
                          : std::vector<const FaultInjector *>{});
        const auto script = scenario.empty()
            ? FaultSchedule()
            : FaultSchedule::chaosScenario(scenario, 2, arrivals.back(),
                                           7);
        const RouterStats rs = router.serve(
            dense, batches, arrivals, core::PrefetchSpec::paperDefault(),
            &script);

        Digest d;
        d.add(digestOf(rs.total));
        for (const std::size_t c :
             {rs.failovers, rs.clusterShed, rs.compliant, rs.breakerTrips,
              rs.hedges, rs.crashes, rs.restarts, rs.corruptionsDetected,
              rs.blocksRepaired}) {
            d.add(c);
        }
        d.addMs(rs.makespanMs);

        // Reference predictions: a pristine replica (same store seed,
        // the Router's default model seed) running the plain forward.
        const core::DlrmModel ref(
            smallModel(), core::EmbeddingStore::create(smallModel(), 11),
            42);
        std::vector<std::uint64_t> want;
        for (const auto& b : batches) {
            core::DlrmWorkspace ws;
            ref.forward(dense, b, ws);
            want.push_back(fingerprint(ws.pred));
        }
        // 0 = nothing recorded (never served), 1 = bitwise-correct,
        // 2 = a wrong answer was served.
        std::size_t wrong = 0;
        for (std::size_t r = 0; r < rs.predFingerprints.size(); ++r) {
            const std::uint64_t fp = rs.predFingerprints[r];
            const int verdict =
                fp == 0 ? 0 : fp == want[r % want.size()] ? 1 : 2;
            wrong += verdict == 2;
            d.add(static_cast<std::uint64_t>(verdict));
        }

        char buf[220];
        std::snprintf(buf, sizeof(buf),
                      " | failovers %zu compliant %zu trips %zu hedges "
                      "%zu crashes %zu restarts %zu corrupt %zu wrong "
                      "%zu",
                      rs.failovers, rs.compliant, rs.breakerTrips,
                      rs.hedges, rs.crashes, rs.restarts,
                      rs.corruptionsDetected, wrong);
        what = describe(rs.total) + buf;
        return d.value();
    }

    core::DlrmModel model;
    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

} // namespace

using F = core::EmbDtype;

TEST_F(ServeGolden, ServerBatchingOff)
{
    checkServer({
        {Mode::Off, false, false, F::Fp32, 2, 0xe6cef740b099cd13ull},
        {Mode::Off, false, false, F::Bf16, 2, 0x21e41596bf047eeaull},
        {Mode::Off, false, false, F::Int8, 2, 0x37c0eb3f4c52c5d5ull},
        {Mode::Off, false, true, F::Fp32, 2, 0xce4786f2081f92c0ull},
        {Mode::Off, false, true, F::Bf16, 2, 0x3f236976e4c15cdcull},
        {Mode::Off, false, true, F::Int8, 2, 0xa3d69c3ec407293eull},
        {Mode::Off, true, false, F::Fp32, 2, 0x4d32096304d485ecull},
        {Mode::Off, true, false, F::Bf16, 2, 0x959815073da6ee79ull},
        {Mode::Off, true, false, F::Int8, 2, 0x44bc1bacff4f9a3eull},
        {Mode::Off, true, true, F::Fp32, 2, 0x6e76a2f5bd054ea5ull},
        {Mode::Off, true, true, F::Bf16, 2, 0xc1ba566d54d5ebdeull},
        {Mode::Off, true, true, F::Int8, 2, 0x0af0cbec4d7cc09full},
    });
}

TEST_F(ServeGolden, ServerBatched)
{
    checkServer({
        {Mode::Batched, false, false, F::Fp32, 2, 0xea05ed2c77479fb4ull},
        {Mode::Batched, false, false, F::Bf16, 2, 0x83e98b34e2532f3aull},
        {Mode::Batched, false, false, F::Int8, 2, 0x8d22bafbf16b92b3ull},
        {Mode::Batched, false, true, F::Fp32, 2, 0x937051a66c1d137eull},
        {Mode::Batched, false, true, F::Bf16, 2, 0xae63a7ee6c70e0b1ull},
        {Mode::Batched, false, true, F::Int8, 2, 0xcc37345e585e1785ull},
        {Mode::Batched, true, false, F::Fp32, 2, 0xcfb0f4c36e5a3980ull},
        {Mode::Batched, true, false, F::Bf16, 2, 0x07b3f167fd0ffa57ull},
        {Mode::Batched, true, false, F::Int8, 2, 0x977e722cf85c7bdcull},
        {Mode::Batched, true, true, F::Fp32, 2, 0xcad9295c430275fdull},
        {Mode::Batched, true, true, F::Bf16, 2, 0xad8beaf81ff1a986ull},
        {Mode::Batched, true, true, F::Int8, 2, 0x5da2caec1b6b19d1ull},
    });
}

TEST_F(ServeGolden, ServerStreamed)
{
    checkServer({
        {Mode::Streamed, false, false, F::Fp32, 2, 0x1414488144b76ef5ull},
        {Mode::Streamed, false, false, F::Bf16, 2, 0x0746e386cfadfc34ull},
        {Mode::Streamed, false, false, F::Int8, 2, 0x0746e386cfadfc34ull},
        {Mode::Streamed, false, true, F::Fp32, 2, 0x631cfb9106a43552ull},
        {Mode::Streamed, false, true, F::Bf16, 2, 0xad3c5ce576419760ull},
        {Mode::Streamed, false, true, F::Int8, 2, 0xad3c5ce576419760ull},
        {Mode::Streamed, true, false, F::Fp32, 2, 0x112918c94f326a05ull},
        {Mode::Streamed, true, false, F::Bf16, 2, 0x72d60ddf06fe07ecull},
        {Mode::Streamed, true, false, F::Int8, 2, 0x72d60ddf06fe07ecull},
        {Mode::Streamed, true, true, F::Fp32, 2, 0x54c0f808be1231e3ull},
        {Mode::Streamed, true, true, F::Bf16, 2, 0xb473c87efed8d2e9ull},
        {Mode::Streamed, true, true, F::Int8, 2, 0xb473c87efed8d2e9ull},
    });
}

TEST_F(ServeGolden, ServerStreamedSingleCore)
{
    // One core: the streamed loop never overlaps and dispatches
    // sequentially on its only lane.
    checkServer({
        {Mode::Streamed, false, false, F::Fp32, 1, 0x7e9ead8d7a8d8240ull},
        {Mode::Streamed, false, true, F::Fp32, 1, 0x8714888b878de1e4ull},
        {Mode::Streamed, true, true, F::Int8, 1, 0x146fb3e183ba7386ull},
    });
}

TEST_F(ServeGolden, RouterChaos)
{
    struct RouterCase
    {
        RoutePolicy policy;
        const char *scenario;
        std::uint64_t digest;
    };
    const std::vector<RouterCase> cases = {
        {RoutePolicy::RoundRobin, "crash-storm", 0x16714672e94303dcull},
        {RoutePolicy::RoundRobin, "rolling-corruption", 0x838153a094527afdull},
        {RoutePolicy::RoundRobin, "flapping-straggler", 0x9c20820109fa7b33ull},
        {RoutePolicy::PowerOfTwo, "crash-storm", 0xbc2e925773092d13ull},
        {RoutePolicy::PowerOfTwo, "rolling-corruption", 0x2078bb58a6d36eb6ull},
        {RoutePolicy::PowerOfTwo, "flapping-straggler", 0xc333376c34159a30ull},
        {RoutePolicy::HealthAware, "crash-storm", 0x23628f2f95a6635eull},
        {RoutePolicy::HealthAware, "rolling-corruption", 0x739897a84d4449b5ull},
        {RoutePolicy::HealthAware, "flapping-straggler", 0xacc21fb9b833d49aull},
        {RoutePolicy::RoundRobin, "", 0x49ca2b69dbccf435ull},
        {RoutePolicy::HealthAware, "", 0x92defb510d2ab207ull},
    };
    for (const RouterCase& c : cases) {
        std::string what;
        const std::uint64_t got =
            routerSession(c.policy, c.scenario, what);
        EXPECT_EQ(hex(got), hex(c.digest))
            << routePolicyName(c.policy) << " "
            << (*c.scenario ? c.scenario : "static-faults") << ": "
            << what;
    }
}
