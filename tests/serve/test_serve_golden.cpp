/**
 * @file
 * Golden session digests for the serving loops.
 *
 * The single-server deployment — one tenant on a one-instance
 * TenantFleet — is replayed batching off and batched, across
 * degradation off/on, faults off/on (task exceptions, corrupt
 * indices, a straggler core) and the three precision floors. Each
 * session folds into one 64-bit digest over its exact counters, its
 * served-latency sequence and its makespan (rounded to 1e-6 ms). The
 * expected digests are constants: any change to admission,
 * coalescing, pricing, fault resolution, retry, degradation or the
 * served bits shows up here as a mismatch, with the session's
 * counters printed alongside so the drift can be located.
 *
 * The cluster loop is pinned the same way. Single-tenant TenantFleet
 * sessions under every scripted chaos scenario (block verification on
 * and off, also with a partial drain and background scrubbing) fold in
 * the lifecycle, verification and scrub counters, the instance-ms
 * integral and whether each request's prediction fingerprint equals
 * that of a fresh DlrmModel::forward over the same request. (The raw
 * prediction bits depend on how the compiler contracts floating-point
 * expressions, which differs between the optimized and sanitized
 * builds; agreement with the reference forward does not.) Two-tenant
 * sessions — static and elastic capacity under every chaos scenario,
 * a hot tier under corruption and an elastic session with a
 * committing live reload — fold in every per-tenant, lifecycle,
 * capacity, scrub, tier and reload counter, the instance-ms integral
 * and the latency sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
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
    // Two retired per-lane busy times, always 0 outside the removed
    // streamed mode; kept as constants so the recorded digests hold.
    d.addMs(0.0);
    d.addMs(0.0);
    return d.value();
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
                  0.0, 0.0);
    return buf;
}

enum class Mode
{
    Off,
    Batched
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Off:
        return "off";
      case Mode::Batched:
        return "batched";
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
    ServeGolden()
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

    /** One session of the single-server matrix — one tenant on a
     *  one-instance fleet; returns its digest and describes its
     *  counters into @p what. */
    std::uint64_t
    serverSession(Mode mode, bool degrade, bool faults,
                  core::EmbDtype dtype, std::size_t cores,
                  std::string& what)
    {
        TenantConfig t;
        t.name = "server";
        t.model = smallModel();
        t.slaMs = 10.0;
        t.service = ServiceModel{0.6, 0.05};
        t.truth = ServiceTimeline(t.service);
        t.dtype = dtype;
        FleetConfig cfg;
        cfg.instances = 1;
        cfg.batching.enabled = mode != Mode::Off;
        cfg.batching.maxRequests = 4;
        cfg.batching.maxLingerMs = 0.5;
        cfg.maxRetries = 2;
        cfg.seed = 11;
        if (degrade) {
            // Let latency build so the ladder walks every tier:
            // precision, coalescing cap shrink, prefetch off.
            cfg.admission = false;
            t.degrade.enabled = true;
            t.degrade.window = 8;
            t.degrade.cooldown = 8;
        }
        TenantRegistry reg;
        reg.add(t);

        FaultConfig fc;
        fc.seed = 19;
        fc.taskExceptionRate = 0.06;
        fc.corruptIndexRate = 0.05;
        fc.stragglerCore = static_cast<int>(cores) - 1;
        fc.stragglerFactor = 2.5;
        const FaultSchedule script = faults
            ? FaultSchedule({{0.0, 0, fc}}, {}, {})
            : FaultSchedule();

        TenantFleet fleet(reg, sched::Topology::synthetic(cores, 2), cfg);
        const std::vector<TenantWorkload> work{
            {dense, batches,
             PoissonLoadGen(degrade ? 0.15 : 0.3, 17).arrivals(160)}};
        const FleetStats fs = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), &script);
        what = describe(fs.total);
        return digestOf(fs.total);
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

    /** One single-tenant TenantFleet session (batching off, block
     *  verification as given) on 2 instances of 2 cores under the
     *  named scripted scenario (rolling-corruption also flips a row
     *  the stream reads at t=0) — or, for an empty name, under task
     *  faults and poisoned indices on instance 0 — returning its
     *  digest and describing its counters into @p what. */
    std::uint64_t
    singleTenantSession(const std::string& scenario, bool verify,
                        bool drain_and_scrub, std::string& what)
    {
        TenantConfig t;
        t.name = "single";
        t.model = smallModel();
        t.slaMs = 15.0;
        t.service = ServiceModel{0.8, 0.04};
        t.truth = ServiceTimeline(t.service);
        TenantRegistry reg;
        reg.add(t);

        FleetConfig cfg;
        cfg.instances = 2;
        cfg.maxRetries = 2;
        cfg.capacity.probationMs = 5.0;
        cfg.verifyBlocks = verify;
        cfg.seed = 11;
        if (drain_and_scrub) {
            cfg.capacity.partialDrainCores = 1;
            cfg.scrub.enabled = true;
            cfg.scrub.intervalMs = 1.0;
            cfg.scrub.blocksPerTick = 2;
        }
        TenantFleet fleet(reg, sched::Topology::synthetic(4, 2), cfg);

        const std::vector<TenantWorkload> work{
            {dense, batches, PoissonLoadGen(0.5, 13).arrivals(150)}};
        FaultConfig fc;
        fc.seed = 23;
        fc.taskExceptionRate = 0.2;
        fc.corruptIndexRate = 0.1;
        FaultSchedule script({{0.0, 0, fc}}, {}, {});
        if (!scenario.empty()) {
            script = FaultSchedule::chaosScenario(
                scenario, 2, work[0].arrivalsMs.back(), 7);
        }
        if (scenario == "rolling-corruption") {
            // Also upset, at t=0, a row the stream reads: the random
            // flips mostly land on rows nobody looks up.
            auto flips = script.bitFlipEvents();
            flips.push_back({0.0, 0,
                             static_cast<std::size_t>(
                                 batches.front().indices[0][0]),
                             30});
            script = FaultSchedule(script.phases(),
                                   script.lifecycleEvents(),
                                   std::move(flips));
        }
        const FleetStats fs = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), &script);

        Digest d;
        d.add(digestOf(fs.total));
        for (const std::size_t c :
             {fs.compliant, fs.deadlineShed, fs.lifecycleShed,
              fs.crashes, fs.restarts}) {
            d.add(c);
        }
        for (const std::uint64_t c :
             {fs.verifyRepairs, fs.blocksScrubbed, fs.scrubCorruptions,
              fs.scrubRepairs, fs.scrubSweeps}) {
            d.add(c);
        }
        d.addMs(fs.instanceMsUp);

        // Reference predictions: a pristine replica (same store and
        // weight seed) running the plain forward.
        const core::DlrmModel ref(
            smallModel(), core::EmbeddingStore::create(smallModel(), 11),
            11);
        std::vector<std::uint64_t> want;
        for (const auto& b : batches) {
            core::DlrmWorkspace ws;
            ref.forward(dense, b, ws);
            want.push_back(fingerprintPredictions(ws.pred.data(),
                                                ws.pred.size()));
        }
        // 0 = never served, 1 = bitwise-correct, 2 = a wrong answer.
        std::size_t wrong = 0;
        const auto& fps = fs.perTenant[0].predFingerprints;
        for (std::size_t r = 0; r < fps.size(); ++r) {
            const int verdict = fps[r] == 0 ? 0
                : fps[r] == want[r % want.size()] ? 1
                                                  : 2;
            wrong += verdict == 2;
            d.add(static_cast<std::uint64_t>(verdict));
        }

        char buf[220];
        std::snprintf(buf, sizeof(buf),
                      " | compliant %zu crashes %zu restarts %zu "
                      "verify-repaired %llu scrubbed %llu wrong %zu",
                      fs.compliant, fs.crashes, fs.restarts,
                      static_cast<unsigned long long>(fs.verifyRepairs),
                      static_cast<unsigned long long>(fs.blocksScrubbed),
                      wrong);
        what = describe(fs.total) + buf;
        return d.value();
    }

    /** One two-tenant TenantFleet session on 2 instances of 2 cores,
     *  returning its digest and describing its counters into
     *  @p what. */
    std::uint64_t
    fleetSession(const FleetConfig& cfg, const std::string& scenario,
                 const std::vector<ReloadEvent>& reloads,
                 std::string& what)
    {
        const auto tenantModel = [](const char *name,
                                    std::size_t rows) {
            core::ModelConfig m = smallModel();
            m.name = name;
            m.rows = rows;
            m.tables = 2;
            return m;
        };
        const auto makeTenant = [&](const char *name, std::size_t rows,
                                    double sla_ms, double weight) {
            TenantConfig t;
            t.name = name;
            t.model = tenantModel(name, rows);
            t.slaMs = sla_ms;
            t.weight = weight;
            t.service = ServiceModel{1.0, 0.12};
            t.truth = ServiceTimeline(ServiceModel{1.0, 0.12});
            return t;
        };
        TenantRegistry reg;
        reg.add(makeTenant("ranking", 4096, 12.0, 2.0));
        reg.add(makeTenant("retrieval", 2048, 20.0, 1.0));

        // Two bursts that overload one instance, each followed by a
        // lull an elastic fleet scales down through.
        const auto stream = [](std::uint64_t seed) {
            std::vector<double> a;
            double t0 = 0.0;
            for (std::uint64_t phase = 0; phase < 2; ++phase) {
                for (const double t :
                     PoissonLoadGen(0.12, seed + 2 * phase).arrivals(100))
                    a.push_back(t0 + t);
                t0 = a.back() + 1.0;
                for (const double t :
                     PoissonLoadGen(4.0, seed + 2 * phase + 1).arrivals(12))
                    a.push_back(t0 + t);
                t0 = a.back() + 1.0;
            }
            return a;
        };
        std::vector<TenantWorkload> work;
        for (std::size_t k = 0; k < 2; ++k) {
            traces::TraceConfig tc = traces::TraceConfig::forModel(
                reg.tenant(k).model, traces::Hotness::Medium, 5 + k);
            tc.batchSize = 4;
            traces::TraceGenerator gen(tc);
            TenantWorkload w;
            for (std::size_t b = 0; b < 8; ++b)
                w.batches.push_back(gen.batch(b));
            w.dense.reshape(4, reg.tenant(k).model.denseDim());
            w.dense.randomize(5 + k);
            w.arrivalsMs = stream(31 + 2 * k);
            work.push_back(std::move(w));
        }

        TenantFleet fleet(reg, sched::Topology::synthetic(4, 2), cfg);
        const double session = std::max(work[0].arrivalsMs.back(),
                                        work[1].arrivalsMs.back());
        const auto script = scenario.empty()
            ? FaultSchedule()
            : FaultSchedule::chaosScenario(scenario, 2, session, 7);
        const FleetStats fs = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), &script, reloads);

        Digest d;
        d.add(digestOf(fs.total));
        for (const TenantStats& t : fs.perTenant) {
            d.add(digestOf(t.stats));
            for (const std::size_t c :
                 {t.budgetShed, t.deadlineShed, t.compliant})
                d.add(c);
        }
        for (const std::size_t c :
             {fs.compliant, fs.budgetShed, fs.deadlineShed,
              fs.lifecycleShed, fs.scaleUps, fs.scaleDowns, fs.crashes,
              fs.restarts, fs.recalibrations, fs.reloadsStarted,
              fs.reloadsCommitted, fs.reloadsRolledBack, fs.reloadsFailed,
              fs.shadowedRequests, fs.versionSwaps, fs.versionsRetired}) {
            d.add(c);
        }
        for (const double t : fs.scaleDownAtMs)
            d.addMs(t);
        for (const std::uint64_t c :
             {fs.blocksScrubbed, fs.scrubCorruptions, fs.scrubRepairs,
              fs.scrubSweeps, fs.tierHits, fs.tierMisses,
              fs.tierPromotions, fs.tierDemotions, fs.tierCorruptions,
              fs.tierQuarantined, fs.tierRepaired}) {
            d.add(c);
        }
        for (const std::uint64_t v : fs.finalVersions)
            d.add(v);
        d.addMs(fs.instanceMsUp);
        d.addMs(fs.makespanMs);

        char buf[400];
        std::snprintf(
            buf, sizeof(buf),
            " | ups %zu downs %zu crashes %zu restarts %zu lifecycle-shed "
            "%zu instance-ms %.6f scrubbed %llu tier-hits %llu reloads "
            "%zu/%zu",
            fs.scaleUps, fs.scaleDowns, fs.crashes, fs.restarts,
            fs.lifecycleShed, fs.instanceMsUp,
            static_cast<unsigned long long>(fs.blocksScrubbed),
            static_cast<unsigned long long>(fs.tierHits),
            fs.reloadsCommitted, fs.reloadsStarted);
        what = describe(fs.total) + buf;
        return d.value();
    }

    std::vector<core::SparseBatch> batches;
    core::Tensor dense;
};

} // namespace

using F = core::EmbDtype;

TEST_F(ServeGolden, ServerBatchingOff)
{
    checkServer({
        {Mode::Off, false, false, F::Fp32, 2, 0xe6cef740b099cd13ull},
        {Mode::Off, false, false, F::Bf16, 2, 0x90d45f95b5f46267ull},
        {Mode::Off, false, false, F::Int8, 2, 0x90d45f95b5f46267ull},
        {Mode::Off, false, true, F::Fp32, 2, 0xce4786f2081f92c0ull},
        {Mode::Off, false, true, F::Bf16, 2, 0x4c987e3b766f92bcull},
        {Mode::Off, false, true, F::Int8, 2, 0x4c987e3b766f92bcull},
        {Mode::Off, true, false, F::Fp32, 2, 0x357f366e4acf9a6eull},
        {Mode::Off, true, false, F::Bf16, 2, 0xed1abacbcc482829ull},
        {Mode::Off, true, false, F::Int8, 2, 0xed1abacbcc482829ull},
        {Mode::Off, true, true, F::Fp32, 2, 0x764108f06e923ca4ull},
        {Mode::Off, true, true, F::Bf16, 2, 0x34deebe799391374ull},
        {Mode::Off, true, true, F::Int8, 2, 0x34deebe799391374ull},
    });
}

TEST_F(ServeGolden, ServerBatched)
{
    checkServer({
        {Mode::Batched, false, false, F::Fp32, 2, 0xea05ed2c77479fb4ull},
        {Mode::Batched, false, false, F::Bf16, 2, 0xf9a874c0d74fbeb5ull},
        {Mode::Batched, false, false, F::Int8, 2, 0xf9a874c0d74fbeb5ull},
        {Mode::Batched, false, true, F::Fp32, 2, 0x937051a66c1d137eull},
        {Mode::Batched, false, true, F::Bf16, 2, 0x103f3dd1bc380d1bull},
        {Mode::Batched, false, true, F::Int8, 2, 0x103f3dd1bc380d1bull},
        {Mode::Batched, true, false, F::Fp32, 2, 0x9d727d17244587b9ull},
        {Mode::Batched, true, false, F::Bf16, 2, 0xa2ead185677cd378ull},
        {Mode::Batched, true, false, F::Int8, 2, 0xa2ead185677cd378ull},
        {Mode::Batched, true, true, F::Fp32, 2, 0x4d9ba3d8e972d1e3ull},
        {Mode::Batched, true, true, F::Bf16, 2, 0xdaa67933923b97eeull},
        {Mode::Batched, true, true, F::Int8, 2, 0xdaa67933923b97eeull},
    });
}

TEST_F(ServeGolden, SingleTenantFleetChaos)
{
    struct Case
    {
        const char *scenario;
        bool verify;
        bool drainAndScrub;
        std::uint64_t digest;
    };
    const std::vector<Case> cases = {
        {"crash-storm", true, false, 0x4c5fe995141d2a92ull},
        {"rolling-corruption", true, false, 0x9936ac5aa6fbf1f5ull},
        {"flapping-straggler", true, false, 0x71debddb7d2f8e5bull},
        {"", true, false, 0x506e826370dfda7cull},
        {"rolling-corruption", false, false, 0xc8a775387ac29724ull},
        {"crash-storm", true, true, 0x7dfcd8ce4aab5c4full},
        {"rolling-corruption", true, true, 0x7922eacf3f8c494cull},
    };
    for (const Case& c : cases) {
        std::string what;
        const std::uint64_t got = singleTenantSession(
            c.scenario, c.verify, c.drainAndScrub, what);
        EXPECT_EQ(hex(got), hex(c.digest))
            << (*c.scenario ? c.scenario : "static-faults")
            << " verify=" << c.verify
            << " drain+scrub=" << c.drainAndScrub << ": " << what;
    }
}

namespace
{

FleetConfig
staticFleet()
{
    FleetConfig cfg;
    cfg.instances = 2;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    cfg.batching.maxLingerMs = 0.3;
    cfg.maxRetries = 2;
    cfg.capacity.probationMs = 3.0;
    return cfg;
}

FleetConfig
elasticFleet()
{
    FleetConfig cfg = staticFleet();
    cfg.capacity.elastic = true;
    cfg.capacity.minInstances = 1;
    cfg.capacity.windowMs = 5.0;
    cfg.capacity.downLag = 2;
    cfg.capacity.forecastDecay = 0.2;
    cfg.capacity.partialDrainCores = 1;
    cfg.capacity.drainGraceMs = 4.0;
    return cfg;
}

} // namespace

TEST_F(ServeGolden, FleetSessions)
{
    FleetConfig scrubbed = staticFleet();
    scrubbed.scrub.enabled = true;
    scrubbed.scrub.intervalMs = 1.0;
    scrubbed.scrub.blocksPerTick = 2;

    FleetConfig tiered = scrubbed;
    tiered.hotTier.budgetBytes = 64 * 1024;
    tiered.hotTier.minAccesses = 1;
    tiered.hotTier.epochLookups = 200;

    FleetConfig reloading = elasticFleet();
    reloading.reload.loadMs = 2.0;
    reloading.reload.shadowRequests = 2;
    reloading.reload.shadowDriftBudget = 1.0;
    reloading.reload.canaryWindowMs = 10.0;
    reloading.reload.canaryMinSamples = 2;
    reloading.reload.stageHoldMs = 3.0;
    std::vector<ReloadEvent> push(1);
    push[0].atMs = 12.0;
    push[0].tenant = 0;
    push[0].newVersion = 2;
    push[0].weightSeed = 99;

    struct FleetCase
    {
        const char *name;
        FleetConfig cfg;
        const char *scenario;
        std::vector<ReloadEvent> reloads;
        std::uint64_t digest;
    };
    const std::vector<FleetCase> cases = {
        {"static", staticFleet(), "", {}, 0xf3aa1ee5a90a4b74ull},
        {"static", staticFleet(), "crash-storm", {}, 0x2538030e581d1d4cull},
        {"static+scrub", scrubbed, "rolling-corruption", {}, 0x4c359ab68dda5db5ull},
        {"static", staticFleet(), "flapping-straggler", {}, 0x74d094d54ea327c9ull},
        {"elastic", elasticFleet(), "", {}, 0xa5c9b0fd343fe5c6ull},
        {"elastic", elasticFleet(), "crash-storm", {}, 0x76dbda5c9d01f339ull},
        {"static+tier", tiered, "rolling-corruption", {}, 0x24ef786ec8b8e9e4ull},
        {"elastic+reload", reloading, "", push, 0x747758ed23cca963ull},
    };
    for (const FleetCase& c : cases) {
        std::string what;
        const std::uint64_t got =
            fleetSession(c.cfg, c.scenario, c.reloads, what);
        EXPECT_EQ(hex(got), hex(c.digest))
            << c.name << " " << (*c.scenario ? c.scenario : "no-faults")
            << ": " << what;
    }
}
