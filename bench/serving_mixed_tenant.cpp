/**
 * @file
 * Day-in-the-life mixed-tenant replay (ISSUE 6 acceptance bench):
 * three Table 2 model classes share one fleet under diurnal,
 * phase-skewed traffic whose aggregate peak is >= 2x what the
 * mean-provisioned static fleet can serve. Every configuration
 * replays the *identical* per-tenant arrival streams on the virtual
 * clock, so the deltas are attributable to the mechanism under test:
 *
 *  - **Fair-share floors.** Each tenant first runs alone on its
 *    weight-proportional slice of the instance slots. That goodput is
 *    the isolation floor weighted-fair queueing must defend: in the
 *    shared fleet no tenant may fall below what its fair share alone
 *    would have delivered (no cross-tenant starvation).
 *  - **Static vs elastic.** The same mixed traffic then hits (a) a
 *    static fleet provisioned for the day-average load, (b) a static
 *    fleet provisioned for the aggregate peak, and (c) the elastic
 *    fleet, which forecasts offered load and moves the Up set between
 *    the two. Elastic must beat static-mean on aggregate SLA
 *    compliance outright, while spending fewer instance-ms than
 *    static-peak.
 *  - **Chaos overlay.** Finally the elastic configuration replays the
 *    scripted chaos scenarios; per-tenant accounting must conserve
 *    (arrived == served + shed + failed) under every one.
 *
 * Any violated claim flips the exit code to 1, so the ctest smoke run
 * (`tenant-smoke` preset) enforces the acceptance criteria, not just
 * harness liveness.
 */

#include <algorithm>
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

/** One tenant's full bench description: fleet binding + traffic. */
struct TenantSpec
{
    serve::TenantConfig cfg;
    double meanInterarrivalMs = 1.0;
    double phase = 0.0; //!< fraction of a day its peak is shifted by
};

serve::TenantWorkload
makeWork(const core::ModelConfig& m, std::uint64_t seed,
         std::vector<double> arrivals)
{
    traces::TraceConfig tc = traces::TraceConfig::forModel(
        m, traces::Hotness::Medium, seed);
    tc.batchSize = 4;
    traces::TraceGenerator gen(tc);
    serve::TenantWorkload w;
    for (std::size_t b = 0; b < 8; ++b)
        w.batches.push_back(gen.batch(b));
    w.dense.reshape(4, m.denseDim());
    w.dense.randomize(seed);
    w.arrivalsMs = std::move(arrivals);
    return w;
}

serve::FleetConfig
fleetConfig(std::size_t instances)
{
    serve::FleetConfig cfg;
    cfg.instances = instances;
    cfg.batching.enabled = true;
    cfg.batching.maxRequests = 4;
    cfg.batching.maxLingerMs = 0.2;
    cfg.recalibration.enabled = true;
    cfg.recalibration.intervalMs = 10.0;
    cfg.recalibration.window = 128;
    cfg.recalibration.minObservations = 16;
    cfg.scrub.enabled = true;
    cfg.scrub.repair = true;
    return cfg;
}

/** Runs one fleet session over 2-cores-per-instance slots. */
serve::FleetStats
run(const std::vector<TenantSpec>& specs,
    const std::vector<serve::TenantWorkload>& work,
    serve::FleetConfig cfg,
    const serve::FaultSchedule *schedule = nullptr)
{
    serve::TenantRegistry reg;
    for (const TenantSpec& s : specs)
        reg.add(s.cfg);
    const auto topo = sched::Topology::synthetic(2 * cfg.instances, 2);
    serve::TenantFleet fleet(reg, topo, cfg);
    return fleet.serve(work, core::PrefetchSpec::paperDefault(),
                       schedule);
}

void
printTenantRows(const std::vector<TenantSpec>& specs,
                const serve::FleetStats& fs)
{
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const serve::TenantStats& t = fs.perTenant[k];
        std::printf("    %-10s %7zu %7zu %6zu %6zu %6zu %9zu "
                    "%8.1f%% %8.1f%%\n",
                    specs[k].cfg.name.c_str(), t.stats.arrived,
                    t.stats.served, t.budgetShed, t.deadlineShed,
                    t.stats.failed, t.compliant, 100.0 * t.goodput(),
                    100.0 * t.complianceOfServed());
    }
}

} // namespace

int
main()
{
    using bench::quickMode;

    bench::printHeader(
        "MIXED-TENANT", "Day-in-the-life replay: weighted-fair "
        "admission + elastic capacity under diurnal overload",
        "real execution; identical per-tenant arrival streams across "
        "every configuration");

    // One simulated "day" on the virtual clock. Diurnal skew: ranking
    // and ads peak close together in the morning (a sharp aggregate
    // crest), retrieval runs nearly anti-phase in the evening — so
    // the day has both a >2x overload peak and a real trough for the
    // capacity controller to scale down into.
    const double day_ms = quickMode() ? 60.0 : 240.0;
    const double model_bytes = quickMode() ? 1.0e6 : 4.0e6;
    const std::uint64_t seed = 7;

    const serve::ServiceModel law{0.5, 0.1};
    std::vector<TenantSpec> specs(3);
    specs[0].cfg.name = "ranking";
    specs[0].cfg.model =
        core::modelByName("rm1").scaledToFit(model_bytes);
    specs[0].cfg.slaMs = 10.0;
    specs[0].cfg.weight = 2.0;
    specs[0].cfg.admissionBudget = 24;
    specs[0].cfg.service = law;
    // Mid-day the ranking tenant's service law drifts (co-located
    // jobs steal bandwidth at peak); the seed estimate starts wrong
    // from that point on and in-session recalibration must close it.
    specs[0].cfg.truth = serve::ServiceTimeline(
        std::vector<serve::ServiceTimeline::Segment>{
            {0.0, law}, {0.5 * day_ms, {0.7, 0.13}}});
    specs[0].meanInterarrivalMs = 0.16;
    specs[0].phase = 0.0;

    specs[1].cfg.name = "retrieval";
    specs[1].cfg.model =
        core::modelByName("rm2_1").scaledToFit(model_bytes);
    specs[1].cfg.slaMs = 15.0;
    specs[1].cfg.weight = 1.0;
    specs[1].cfg.admissionBudget = 16;
    specs[1].cfg.service = law;
    specs[1].cfg.truth = serve::ServiceTimeline(law);
    specs[1].meanInterarrivalMs = 0.65;
    specs[1].phase = 0.55;

    specs[2].cfg.name = "ads";
    specs[2].cfg.model =
        core::modelByName("rm2_3").scaledToFit(model_bytes);
    specs[2].cfg.slaMs = 12.0;
    specs[2].cfg.weight = 1.0;
    specs[2].cfg.admissionBudget = 16;
    specs[2].cfg.service = law;
    specs[2].cfg.truth = serve::ServiceTimeline(law);
    specs[2].meanInterarrivalMs = 0.24;
    specs[2].phase = 0.10;

    const double amplitude = 0.9;
    std::vector<serve::DiurnalLoadGen> gens;
    std::vector<serve::TenantWorkload> work;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        gens.emplace_back(specs[k].meanInterarrivalMs, amplitude,
                          day_ms, specs[k].phase, seed + k);
        work.push_back(makeWork(specs[k].cfg.model, seed + 10 * k,
                                gens.back().arrivalsUntil(day_ms)));
    }

    // Provisioning points. The static-mean fleet is sized for the
    // day-average aggregate load; the slot count is sized for the
    // aggregate peak. Overload factor = peak offered service-ms per
    // ms over the static-mean fleet's core-ms per ms; the acceptance
    // scenario requires >= 2x.
    const std::size_t slots = 4, static_mean = 2, cores = 2;
    double peak_rate = 0.0, mean_rate = 0.0;
    for (double t = 0.0; t < day_ms; t += day_ms / 512.0) {
        double r = 0.0;
        for (const auto& g : gens)
            r += g.rateAt(t);
        peak_rate = std::max(peak_rate, r);
        mean_rate += r / 512.0;
    }
    // One request is a 4-sample batch; amortized service cost per
    // request at full coalescing (4 requests per dispatch).
    const double per_request_ms = law.serviceMs(16) / 4.0;
    const double overload =
        peak_rate * per_request_ms /
        static_cast<double>(static_mean * cores);

    std::size_t total_requests = 0;
    for (const auto& w : work)
        total_requests += w.arrivalsMs.size();
    std::printf("day %.0f ms, %zu requests, offered load mean %.1f "
                "peak %.1f req/ms, amplitude %.1f\n",
                day_ms, total_requests, mean_rate, peak_rate,
                amplitude);
    std::printf("static-mean %zu / slots %zu instances x %zu cores "
                "-> peak overload %.2fx the static-mean fleet\n\n",
                static_mean, slots, cores, overload);

    int violations = 0;
    const auto check = [&](bool ok, const char *claim) {
        std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim);
        if (!ok)
            ++violations;
    };

    // --- Fair-share isolation floors -----------------------------
    // Tenant k alone on floor(slots * w_k / sum w) instances: the
    // bandwidth WFQ guarantees it under full contention.
    double weight_sum = 0.0;
    for (const TenantSpec& s : specs)
        weight_sum += s.cfg.weight;
    std::printf("isolated fair-share floors (tenant alone on its "
                "share of the slots):\n");
    std::vector<double> floor_goodput(specs.size(), 0.0);
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const auto share = static_cast<std::size_t>(
            static_cast<double>(slots) * specs[k].cfg.weight /
            weight_sum);
        std::vector<TenantSpec> solo{specs[k]};
        std::vector<serve::TenantWorkload> solo_work{work[k]};
        const auto fs = run(solo, solo_work, fleetConfig(share));
        floor_goodput[k] = fs.perTenant[0].goodput();
        std::printf("    %-10s %zu instance(s): goodput %5.1f%% "
                    "(%zu/%zu compliant)\n",
                    specs[k].cfg.name.c_str(), share,
                    100.0 * floor_goodput[k], fs.perTenant[0].compliant,
                    fs.perTenant[0].stats.arrived);
        if (!fs.conserved())
            ++violations;
    }

    // --- Mixed runs on the identical streams ---------------------
    const char *hdr = "    %-10s %7s %7s %6s %6s %6s %9s %9s %9s\n";
    serve::FleetConfig cfg_mean = fleetConfig(static_mean);
    serve::FleetConfig cfg_peak = fleetConfig(slots);
    serve::FleetConfig cfg_elastic = fleetConfig(slots);
    cfg_elastic.capacity.elastic = true;
    cfg_elastic.capacity.minInstances = static_mean;
    cfg_elastic.capacity.windowMs = day_ms / 24.0;
    cfg_elastic.capacity.forecastDecay = 0.3;
    cfg_elastic.capacity.targetUtilization = 0.8;
    cfg_elastic.capacity.downLag = 2;
    cfg_elastic.capacity.probationMs = 2.0;
    cfg_elastic.capacity.partialDrainCores = 1;
    cfg_elastic.capacity.drainGraceMs = 4.0;

    struct MixedRun
    {
        const char *name;
        serve::FleetConfig cfg;
        serve::FleetStats fs;
    };
    std::vector<MixedRun> runs;
    runs.push_back({"static-mean", cfg_mean, {}});
    runs.push_back({"static-peak", cfg_peak, {}});
    runs.push_back({"elastic", cfg_elastic, {}});
    for (MixedRun& r : runs) {
        r.fs = run(specs, work, r.cfg);
        std::printf("\n%s (%zu slots%s): %s\n", r.name,
                    r.cfg.instances,
                    r.cfg.capacity.elastic ? ", elastic" : "",
                    r.fs.summary().c_str());
        std::printf(hdr, "tenant", "arrived", "served", "bshed",
                    "dshed", "fail", "compliant", "goodput",
                    "of-served");
        printTenantRows(specs, r.fs);
        std::printf("    instance-ms %.0f (static-peak would be "
                    "%.0f), scale ups %zu downs %zu, refits %zu\n",
                    r.fs.instanceMsUp,
                    static_cast<double>(slots) * r.fs.makespanMs,
                    r.fs.scaleUps, r.fs.scaleDowns,
                    r.fs.recalibrations);
        if (!r.fs.conserved())
            ++violations;
    }
    const serve::FleetStats& fs_mean = runs[0].fs;
    const serve::FleetStats& fs_peak = runs[1].fs;
    const serve::FleetStats& fs_el = runs[2].fs;

    std::printf("\nacceptance claims:\n");
    check(overload >= 2.0, "aggregate peak >= 2x the static-mean "
                           "fleet's capacity (genuine overload)");
    for (std::size_t k = 0; k < specs.size(); ++k) {
        char claim[128];
        std::snprintf(claim, sizeof(claim),
                      "%s: shared-fleet goodput %.1f%% >= isolated "
                      "fair-share floor %.1f%% (no starvation)",
                      specs[k].cfg.name.c_str(),
                      100.0 * fs_el.perTenant[k].goodput(),
                      100.0 * floor_goodput[k]);
        check(fs_el.perTenant[k].goodput() >=
                  floor_goodput[k] - 0.02,
              claim);
    }
    {
        char claim[128];
        std::snprintf(claim, sizeof(claim),
                      "elastic compliant %zu > static-mean %zu on "
                      "the identical stream",
                      fs_el.compliant, fs_mean.compliant);
        check(fs_el.compliant > fs_mean.compliant, claim);
        std::snprintf(claim, sizeof(claim),
                      "elastic instance-ms %.0f < static-peak %.0f",
                      fs_el.instanceMsUp, fs_peak.instanceMsUp);
        check(fs_el.instanceMsUp < fs_peak.instanceMsUp, claim);
    }
    check(fs_el.recalibrations > 0 &&
              fs_el.estimateError[0] < 0.25,
          "recalibration tracked the scripted mid-day service drift");

    // --- Chaos overlay: conservation under every scenario --------
    std::printf("\nchaos replays (elastic config, same streams):\n");
    for (const std::string& scenario :
         serve::FaultSchedule::scenarioNames()) {
        const auto schedule = serve::FaultSchedule::chaosScenario(
            scenario, slots, day_ms, seed);
        const auto fs = run(specs, work, cfg_elastic, &schedule);
        char claim[160];
        std::snprintf(
            claim, sizeof(claim),
            "%-20s conserved per tenant and aggregate (%zu served, "
            "%zu shed, %zu failed, %zu crashes)",
            scenario.c_str(), fs.total.served, fs.total.shed,
            fs.total.failed, fs.crashes);
        check(fs.conserved(), claim);
    }

    std::printf("\n%s\n", violations == 0
                              ? "all acceptance claims hold"
                              : "ACCEPTANCE VIOLATIONS — see FAIL "
                                "rows above");
    return violations == 0 ? 0 : 1;
}
