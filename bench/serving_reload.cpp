/**
 * @file
 * Live-reload bench: pushes a retrained model version through the
 * multi-tenant fleet's staged canary rollout while the fleet serves a
 * Poisson stream, and replays the same push under persistence and
 * cluster chaos (torn snapshot write, canary-window corruption, a
 * replica crash mid-rollout). Every scenario replays the *same*
 * arrivals and virtual clock as the reload-free reference session, so
 * the latency and availability deltas are attributable to the reload
 * machinery alone.
 *
 * Acceptance claims (ISSUE 9) — the bench exits nonzero when any
 * fails:
 *  - zero wrong predictions: after every session the serving version
 *    reproduces its reference build's canonical probe predictions
 *    bitwise (the committed v2 after a clean push; the untouched v1
 *    after a failed one);
 *  - no availability collapse: every session conserves requests and
 *    serves at least 90% of the reference session's count;
 *  - bounded tail during the swap: session p95 stays within 1.5x of
 *    the reload-free reference p95.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/snapshot.hpp"
#include "core/versioned.hpp"
#include "sched/topology.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using Kind = serve::LifecycleEvent::Kind;

core::ModelConfig
tenantModel(const char *name)
{
    core::ModelConfig m;
    m.name = name;
    m.cls = core::ModelClass::RMC2;
    m.rows = bench::quickMode() ? 2048 : 8192;
    m.dim = 32;
    m.tables = 4;
    m.lookups = 8;
    m.bottomMlp = {48, 32, 32};
    m.topMlp = {16, 1};
    return m;
}

serve::TenantConfig
makeTenant(const char *name, const core::ModelConfig& m)
{
    serve::TenantConfig t;
    t.name = name;
    t.model = m;
    t.slaMs = 12.0;
    t.weight = 1.0;
    t.service = serve::ServiceModel{0.8, 0.04};
    t.truth = serve::ServiceTimeline(serve::ServiceModel{0.8, 0.04});
    return t;
}

serve::TenantWorkload
makeWork(const core::ModelConfig& m, std::uint64_t seed,
         std::vector<double> arrivals)
{
    traces::TraceConfig tc =
        traces::TraceConfig::forModel(m, traces::Hotness::Medium, seed);
    tc.batchSize = 4;
    traces::TraceGenerator gen(tc);
    serve::TenantWorkload w;
    for (std::size_t b = 0; b < 16; ++b)
        w.batches.push_back(gen.batch(b));
    w.dense.reshape(tc.batchSize, m.denseDim());
    w.dense.randomize(seed);
    w.arrivalsMs = std::move(arrivals);
    return w;
}

serve::FleetConfig
fleetConfig()
{
    serve::FleetConfig cfg;
    cfg.instances = 3;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    cfg.batching.maxLingerMs = 0.2;
    cfg.reload.loadMs = 5.0;
    cfg.reload.shadowRequests = 8;
    cfg.reload.shadowDriftBudget = 1.0; // a retrain moves predictions
    cfg.reload.canaryWindowMs = 30.0;
    cfg.reload.stageHoldMs = 5.0;
    return cfg;
}

/** True when two probe-prediction vectors match bitwise. */
bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    if (a.size() != b.size() || a.empty())
        return false;
    return std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

struct Claim
{
    bool ok = true;
    void
    check(bool cond, const char *what)
    {
        if (!cond) {
            std::printf("  CLAIM FAILED: %s\n", what);
            ok = false;
        }
    }
};

} // namespace

int
main()
{
    bench::printHeader(
        "RELOAD", "Zero-downtime versioned live reload under chaos",
        "real execution; snapshot pushes + scripted faults on the "
        "virtual clock");

    const std::uint64_t seed = 42; // fleet boot weight seed
    const auto model_a = tenantModel("ranking");
    const auto model_b = tenantModel("retrieval");
    const auto topo = sched::Topology::synthetic(6, 2);

    const std::size_t requests = bench::quickMode() ? 300 : 1000;
    const auto arrivals =
        serve::PoissonLoadGen(2.0, 13).arrivals(requests);
    const double push_at = arrivals.back() * 0.3;

    // Reference builds: v1 mirrors the fleet's boot version (same
    // config + seed); v2 is the "retrained" push. Their canonical
    // probe predictions are the bitwise ground truth each session's
    // serving version must reproduce.
    const auto v1 = core::ModelVersion::build(model_a, 1, seed);
    const auto v2 = core::ModelVersion::build(model_a, 2, 99);
    const std::vector<float> ref_v1 =
        core::ModelSnapshot::probePredictions(*v1->model);
    const std::vector<float> ref_v2 =
        core::ModelSnapshot::probePredictions(*v2->model);

    // Crash-consistent snapshot of v2 (and the torn-write variant
    // that never publishes its file).
    const std::string snap = "/tmp/dlrmopt_bench_reload_v2.snap";
    const std::string torn = "/tmp/dlrmopt_bench_reload_torn.snap";
    std::remove(snap.c_str());
    std::remove(torn.c_str());
    if (!core::ModelSnapshot::save(snap, *v2->model, 2, 99)) {
        std::printf("snapshot save failed\n");
        return 1;
    }
    const core::SnapshotInfo info = core::ModelSnapshot::verifyFile(snap);
    std::printf("snapshot: v%llu seed %llu, %zu bytes, %zu tables x "
                "%zu blocks, %zu probe rows — verified\n",
                static_cast<unsigned long long>(info.modelVersion),
                static_cast<unsigned long long>(info.weightSeed),
                info.fileBytes, info.cfg.tables, info.blocksPerTable,
                info.probeCount);

    serve::FaultConfig torn_cfg;
    torn_cfg.snapshotTornWriteRate = 1.0;
    const serve::FaultInjector torn_inj(torn_cfg);
    const core::SnapshotFaults torn_faults = torn_inj.snapshotFaults(2);
    if (core::ModelSnapshot::save(torn, *v2->model, 2, 99,
                                  &torn_faults)) {
        std::printf("torn-write save unexpectedly succeeded\n");
        return 1;
    }

    auto runSession = [&](const std::vector<serve::ReloadEvent>& pushes,
                          const serve::FaultSchedule *chaos) {
        serve::TenantRegistry reg;
        reg.add(makeTenant("ranking", model_a));
        reg.add(makeTenant("retrieval", model_b));
        serve::TenantFleet fleet(reg, topo, fleetConfig());
        std::vector<serve::TenantWorkload> work;
        work.push_back(makeWork(model_a, 5, arrivals));
        work.push_back(makeWork(model_b, 6, arrivals));
        const serve::FleetStats fs = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), chaos, pushes);
        const std::vector<float> serving =
            core::ModelSnapshot::probePredictions(
                *fleet.versioned(0).current()->model);
        return std::make_pair(fs, serving);
    };

    Claim claim;
    std::printf("\n%zu requests/tenant, 2 tenants, 3 instances, push "
                "at %.0f ms\n\n",
                requests, push_at);
    std::printf("%-18s %9s %7s %6s %8s %8s %7s %6s %s\n", "scenario",
                "p95 ms", "served", "fail", "outcome", "version",
                "swaps", "preds", "");

    // ---- reference: no reload ------------------------------------
    const auto [ref_fs, ref_serving] = runSession({}, nullptr);
    claim.check(ref_fs.conserved(), "reference conserves requests");
    claim.check(bitwiseEqual(ref_serving, ref_v1),
                "boot version reproduces the v1 reference probe");
    const double ref_p95 = ref_fs.total.latency.p95();
    const double p95_bound = 1.5 * ref_p95;
    std::printf("%-18s %9.2f %7zu %6zu %8s %8llu %7s %6s\n",
                "steady-state", ref_p95, ref_fs.total.served,
                ref_fs.total.failed, "-", 1ull, "-", "v1==v1");

    auto report = [&](const char *name, const serve::FleetStats& fs,
                      const std::vector<float>& serving,
                      const std::vector<float>& want,
                      const char *want_name) {
        const bool preds_ok = bitwiseEqual(serving, want);
        std::printf("%-18s %9.2f %7zu %6zu %8s %8llu %7zu %6s\n", name,
                    fs.total.latency.p95(), fs.total.served,
                    fs.total.failed,
                    fs.reloadOutcomes.empty()
                        ? "-"
                        : serve::reloadStateName(
                              fs.reloadOutcomes.back().finalState),
                    static_cast<unsigned long long>(
                        fs.finalVersions[0]),
                    fs.versionSwaps, preds_ok ? want_name : "WRONG");
        claim.check(fs.conserved(), "session conserves requests");
        claim.check(preds_ok,
                    "serving version reproduces its reference probe "
                    "bitwise (zero wrong predictions)");
        claim.check(fs.total.served * 10 >= ref_fs.total.served * 9,
                    "availability holds (served >= 90% of reference)");
        claim.check(fs.total.latency.p95() <= p95_bound,
                    "p95 bounded during the swap (<= 1.5x reference)");
        claim.check(fs.finalVersions[1] == 1,
                    "the other tenant's version is untouched");
    };

    // ---- clean snapshot push: canary -> rollout -> commit --------
    {
        std::vector<serve::ReloadEvent> pushes(1);
        pushes[0].atMs = push_at;
        pushes[0].newVersion = 2;
        pushes[0].snapshotPath = snap;
        const auto [fs, serving] = runSession(pushes, nullptr);
        report("clean-push", fs, serving, ref_v2, "v2==v2");
        claim.check(fs.reloadsCommitted == 1, "clean push commits");
        claim.check(fs.finalVersions[0] == 2,
                    "clean push publishes version 2");
        claim.check(fs.versionsRetired >= 1,
                    "the old version retires after draining");
    }

    // ---- torn write: the push never finds a published file -------
    {
        std::vector<serve::ReloadEvent> pushes(1);
        pushes[0].atMs = push_at;
        pushes[0].newVersion = 2;
        pushes[0].snapshotPath = torn;
        const auto [fs, serving] = runSession(pushes, nullptr);
        report("torn-write", fs, serving, ref_v1, "v1==v1");
        claim.check(fs.reloadsFailed == 1, "torn push fails cleanly");
        claim.check(fs.finalVersions[0] == 1,
                    "version 1 keeps serving after a torn push");
    }

    // ---- corruption inside the canary window: rollback -----------
    // The scripted upset lands on the *incoming* version mid-canary;
    // the integrity gate catches it before rollout. (The shared
    // current store also takes the flip, so the bitwise-prediction
    // claim is asserted by the scenarios above, not this one.)
    {
        std::vector<serve::ReloadEvent> pushes(1);
        pushes[0].atMs = push_at;
        pushes[0].newVersion = 2;
        pushes[0].weightSeed = 99;
        serve::FaultSchedule chaos(
            {}, {},
            {serve::BitFlipEvent{push_at + 10.0, 0, 50, 7}});
        serve::TenantRegistry reg;
        reg.add(makeTenant("ranking", model_a));
        reg.add(makeTenant("retrieval", model_b));
        serve::TenantFleet fleet(reg, topo, fleetConfig());
        std::vector<serve::TenantWorkload> work;
        work.push_back(makeWork(model_a, 5, arrivals));
        work.push_back(makeWork(model_b, 6, arrivals));
        const serve::FleetStats fs = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), &chaos, pushes);
        std::printf("%-18s %9.2f %7zu %6zu %8s %8llu %7zu %6s\n",
                    "canary-corrupt", fs.total.latency.p95(),
                    fs.total.served, fs.total.failed,
                    serve::reloadStateName(
                        fs.reloadOutcomes.back().finalState),
                    static_cast<unsigned long long>(
                        fs.finalVersions[0]),
                    fs.versionSwaps, "-");
        claim.check(fs.conserved(), "rollback session conserves");
        claim.check(fs.reloadsRolledBack == 1,
                    "canary corruption rolls the push back");
        claim.check(fs.finalVersions[0] == 1,
                    "version 1 keeps serving after rollback");
        claim.check(fs.total.latency.p95() <= p95_bound,
                    "p95 bounded through the rollback");
    }

    // ---- replica crash mid-rollout: commit still lands -----------
    {
        std::vector<serve::ReloadEvent> pushes(1);
        pushes[0].atMs = push_at;
        pushes[0].newVersion = 2;
        pushes[0].snapshotPath = snap;
        serve::FaultSchedule chaos(
            {},
            {serve::LifecycleEvent{push_at + 38.0, 1, Kind::Crash},
             serve::LifecycleEvent{push_at + 80.0, 1, Kind::Recover}},
            {});
        const auto [fs, serving] = runSession(pushes, &chaos);
        report("crash-in-rollout", fs, serving, ref_v2, "v2==v2");
        claim.check(fs.reloadsCommitted == 1,
                    "commit lands despite the mid-rollout crash");
        claim.check(fs.crashes == 1, "the scripted crash happened");
    }

    std::remove(snap.c_str());
    std::remove(torn.c_str());

    std::printf("\npreds = serving version's canonical probe "
                "predictions vs the reference build, bitwise. All "
                "scenarios replay the same arrivals.\n");
    std::printf("reload acceptance: %s\n",
                claim.ok ? "ALL CLAIMS HOLD" : "CLAIM(S) FAILED");
    return claim.ok ? 0 : 1;
}
