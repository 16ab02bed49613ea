/**
 * @file
 * Cluster-resilience bench: replays the scripted chaos timelines
 * (crash storm, rolling corruption, flapping straggler) against a
 * single-tenant TenantFleet — one central queue dispatching each
 * request to the earliest-free core of its instances — once with
 * block verification off and once with it on, over the *same* Poisson
 * arrival stream and virtual clock.
 *
 * The rolling-corruption timeline additionally flips, at t=0, a bit of
 * a row the trace actually looks up (the scenario's own flips mostly
 * land on rows nobody reads): with verification off the fleet serves
 * wrong predictions from it; with it on, the block is repaired before
 * its first read.
 *
 * Exits 1 when a verify-on row serves any prediction that differs
 * bitwise from the fault-free run, or is less SLA-compliant than its
 * verify-off row. EXPERIMENTS.md records the ablation that replaced
 * the Router's routing policies, circuit breakers, hedged placement
 * and failover with this fleet.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "sched/topology.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;

serve::FleetStats
runScenario(const core::ModelConfig& model_cfg,
            const std::string& scenario, bool verify,
            const core::Tensor& dense,
            const std::vector<core::SparseBatch>& batches,
            const std::vector<double>& arrivals,
            const sched::Topology& topo, std::size_t instances,
            std::uint64_t seed)
{
    const serve::ServiceModel law{0.8, 0.04};
    serve::TenantConfig tc;
    tc.name = model_cfg.name;
    tc.model = model_cfg;
    tc.slaMs = 12.0;
    tc.service = law;
    tc.truth = serve::ServiceTimeline(law);
    serve::TenantRegistry reg;
    reg.add(tc);

    serve::FleetConfig cfg;
    cfg.instances = instances;
    cfg.maxRetries = 2;
    cfg.capacity.probationMs = 5.0;
    cfg.verifyBlocks = verify;
    cfg.seed = seed;
    // A fresh fleet (and so a fresh store) per run: chaos schedules
    // flip stored bits, which must not leak across configurations.
    serve::TenantFleet fleet(reg, topo, cfg);

    const std::vector<serve::TenantWorkload> work{
        {dense, batches, arrivals}};

    serve::FaultSchedule schedule;
    if (!scenario.empty()) {
        schedule = serve::FaultSchedule::chaosScenario(
            scenario, instances, arrivals.back(), seed);
    }
    if (scenario == "rolling-corruption") {
        auto flips = schedule.bitFlipEvents();
        flips.push_back({0.0, 0,
                         static_cast<std::size_t>(
                             batches.front().indices[0][0]),
                         30});
        schedule = serve::FaultSchedule(schedule.phases(),
                                        schedule.lifecycleEvents(),
                                        std::move(flips));
    }
    return fleet.serve(work, core::PrefetchSpec::paperDefault(),
                       &schedule);
}

/** Served requests whose prediction bits differ from the fault-free
 *  reference: wrong answers a client actually received. */
std::size_t
wrongPredictions(const serve::FleetStats& got,
                 const serve::FleetStats& ref)
{
    const auto& g = got.perTenant[0].predFingerprints;
    const auto& r = ref.perTenant[0].predFingerprints;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < g.size() && i < r.size(); ++i) {
        if (g[i] != 0 && r[i] != 0 && g[i] != r[i])
            ++wrong;
    }
    return wrong;
}

double
compliancePct(const serve::FleetStats& st)
{
    return st.total.arrived > 0
        ? 100.0 * static_cast<double>(st.compliant) /
              static_cast<double>(st.total.arrived)
        : 0.0;
}

} // namespace

int
main()
{
    using bench::quickMode;

    bench::printHeader(
        "RESILIENCE", "Chaos replay: SLA compliance and wrong answers "
        "with and without block verification",
        "real execution; scripted crash/corruption/straggler "
        "timelines on the virtual clock");

    const auto model_cfg =
        core::modelByName("rm1").scaledToFit(quickMode() ? 2.0e6
                                                         : 16.0e6);
    const std::uint64_t seed = 7;

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        model_cfg, traces::Hotness::Medium, seed);
    tc.batchSize = 8;
    traces::TraceGenerator gen(tc);
    std::vector<core::SparseBatch> batches;
    for (std::size_t b = 0; b < 16; ++b)
        batches.push_back(gen.batch(b));
    core::Tensor dense(tc.batchSize, model_cfg.denseDim());
    dense.randomize(11);

    // ~80% utilization when healthy: light enough that a fault-free
    // session is near-fully compliant, heavy enough that losing an
    // instance (or flapping one) builds real backlog.
    const std::size_t cores = 4;
    const std::size_t instances = 2;
    const std::size_t requests = quickMode() ? 400 : 1000;
    const auto topo = sched::Topology::synthetic(cores, 2);
    const auto arrivals =
        serve::PoissonLoadGen(0.35, 13).arrivals(requests);

    std::printf("single-tenant fleet: %zu instance(s) on %zu core(s), "
                "%zu requests, SLA 12 ms, batching off\n\n",
                instances, cores, requests);
    // Fault-free reference fingerprints: what every request's
    // prediction *should* be (replicas are bitwise-identical).
    const serve::FleetStats ref = runScenario(
        model_cfg, "", false, dense, batches, arrivals, topo, instances,
        seed);

    std::printf("%-20s %-10s %9s %7s %7s %6s %8s %8s %6s\n", "scenario",
                "config", "complnt", "served", "shed", "fail",
                "restarts", "repaired", "wrong");

    std::size_t verify_wrong = 0;
    bool never_worse = true;
    for (const auto& scenario :
         serve::FaultSchedule::scenarioNames()) {
        std::size_t off_compliant = 0;
        for (const bool verify : {false, true}) {
            const serve::FleetStats st = runScenario(
                model_cfg, scenario, verify, dense, batches, arrivals,
                topo, instances, seed);
            const std::size_t wrong = wrongPredictions(st, ref);
            std::printf("%-20s %-10s %8.1f%% %7zu %7zu %6zu %8zu "
                        "%8llu %6zu\n",
                        scenario.c_str(),
                        verify ? "verify on" : "verify off",
                        compliancePct(st), st.total.served,
                        st.total.shed, st.total.failed, st.restarts,
                        static_cast<unsigned long long>(
                            st.verifyRepairs),
                        wrong);
            if (!verify) {
                off_compliant = st.compliant;
            } else {
                verify_wrong += wrong;
                if (st.compliant < off_compliant)
                    never_worse = false;
            }
        }
        std::printf("\n");
    }

    std::printf("complnt = served within SLA / arrived; wrong = "
                "served predictions differing bitwise from the "
                "fault-free run; both rows of a scenario replay the "
                "same arrivals and fault timeline.\n");
    std::printf("wrong predictions served with verification on: %zu "
                "(must be 0)\n", verify_wrong);
    std::printf("verification %s compliance on any scenario\n",
                never_worse ? "never costs" : "COSTS");
    return verify_wrong == 0 && never_worse ? 0 : 1;
}
