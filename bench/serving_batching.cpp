/**
 * @file
 * Deadline-aware dynamic batching bench: sweeps arrival rate x
 * coalescing policy over the real-execution serving loop and reports
 * sustained throughput and latency percentiles against the unbatched
 * baseline.
 *
 * The service model is affine (base + per-sample), so each coalesced
 * dispatch amortizes the fixed cost across its members; the paper's
 * at-scale serving argument (Sec. 6.5) is exactly this trade — batch
 * enough to keep cores efficient, never so much that a member blows
 * its SLA. The headline row is the overloaded regime: at the most
 * overloaded arrival rate the best coalescing policy must serve
 * >= 1.3x the unbatched throughput at an equal-or-better p95, or the
 * bench exits 1. Throughput and latencies are on the virtual clock
 * priced by the service model (modeled, not measured). Emits
 * BENCH_serving.json (one record per measured point) into the working
 * directory.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dlrm.hpp"
#include "sched/topology.hpp"
#include "serve/loadgen.hpp"
#include "serve/fleet.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;

struct Policy
{
    const char *name;
    bool enabled;
    std::size_t maxRequests;
    double lingerMs;
};

struct Record
{
    std::string name;
    double arrivalMs = 0.0;
    std::size_t served = 0;
    std::size_t shed = 0;
    double modeledReqPerSec = 0.0; //!< served / virtual makespan
    double p50 = 0.0;
    double p95 = 0.0;
    double makespanMs = 0.0;
};

void
writeJson(const std::vector<Record>& recs, const char *path)
{
    std::ofstream os(path);
    if (!os)
        return;
    os << "[\n";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record& r = recs[i];
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"name\": \"%s\", \"arrival_ms\": %.3f, "
            "\"served\": %zu, \"shed\": %zu, "
            "\"modeled_req_per_sec\": %.2f, "
            "\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
            "\"makespan_ms\": %.4f}%s\n",
            r.name.c_str(), r.arrivalMs, r.served, r.shed,
            r.modeledReqPerSec, r.p50, r.p95, r.makespanMs,
            i + 1 < recs.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    std::printf("\nwrote %s (%zu records)\n", path, recs.size());
}

} // namespace

int
main()
{
    using bench::quickMode;

    bench::printHeader(
        "BATCH", "Deadline-aware dynamic request batching",
        "real execution; virtual-clock serving; affine service model");

    const auto model_cfg =
        core::modelByName("rm1").scaledToFit(quickMode() ? 2.0e6
                                                         : 16.0e6);

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        model_cfg, traces::Hotness::Medium, 7);
    tc.batchSize = 8;
    traces::TraceGenerator gen(tc);
    serve::TenantWorkload work;
    for (std::size_t b = 0; b < 16; ++b)
        work.batches.push_back(gen.batch(b));
    work.dense = core::Tensor(tc.batchSize, model_cfg.denseDim());
    work.dense.randomize(11);

    // The single-server deployment: one tenant on a one-instance
    // fleet over a 2-core group.
    serve::TenantConfig tenant;
    tenant.name = "rm1";
    tenant.model = model_cfg;
    tenant.slaMs = 25.0;
    tenant.service = serve::ServiceModel{0.8, 0.04};
    tenant.truth = serve::ServiceTimeline(tenant.service);
    serve::TenantRegistry reg;
    reg.add(tenant);
    const auto topo = sched::Topology::synthetic(2, 2);

    const std::size_t requests = quickMode() ? 150 : 600;
    const std::vector<double> interarrivals =
        quickMode() ? std::vector<double>{0.6, 0.3}
                    : std::vector<double>{1.2, 0.6, 0.3, 0.2};

    const Policy policies[] = {
        {"unbatched", false, 1, 0.0},
        {"batch 4 @ 0ms", true, 4, 0.0},
        {"batch 8 @ 0ms", true, 8, 0.0},
        {"batch 8 @ 1ms", true, 8, 1.0},
    };

    std::vector<Record> records;
    std::printf("%-8s %-16s %9s %8s %8s %8s %7s %6s\n", "arr(ms)",
                "policy", "vreq/s", "p50", "p95", "p99", "shed%",
                "vs.un");
    // The gate's inputs at the most overloaded (last) arrival rate.
    double unbatched_rate = 0.0, unbatched_p95 = 0.0;
    double best_rate = 0.0, best_p95 = 0.0;
    const char *best = "none";
    for (const double arr : interarrivals) {
        work.arrivalsMs = serve::PoissonLoadGen(arr, 13).arrivals(requests);
        best_rate = 0.0;
        for (const Policy& p : policies) {
            serve::FleetConfig cfg;
            cfg.instances = 1;
            cfg.batching.enabled = p.enabled;
            cfg.batching.maxRequests = p.maxRequests;
            cfg.batching.maxLingerMs = p.lingerMs;
            cfg.seed = 7;
            serve::TenantFleet fleet(reg, topo, cfg);
            const serve::ServeStats st = fleet.serve({work}).total;
            const double rate =
                st.makespanMs > 0.0
                    ? 1000.0 * static_cast<double>(st.served) /
                          st.makespanMs
                    : 0.0;
            if (!p.enabled) {
                unbatched_rate = rate;
                unbatched_p95 = st.latency.p95();
            } else if (rate > best_rate) {
                best_rate = rate;
                best_p95 = st.latency.p95();
                best = p.name;
            }
            std::printf(
                "%-8.2f %-16s %9.1f %8.2f %8.2f %8.2f %6.1f%% %5.2fx\n",
                arr, p.name, rate, st.latency.percentile(50.0),
                st.latency.p95(), st.latency.p99(),
                st.arrived ? 100.0 * static_cast<double>(st.shed) /
                                 static_cast<double>(st.arrived)
                           : 0.0,
                unbatched_rate > 0.0 ? rate / unbatched_rate : 0.0);
            records.push_back(Record{p.name, arr, st.served, st.shed,
                                     rate, st.latency.percentile(50.0),
                                     st.latency.p95(),
                                     st.makespanMs});
        }
        std::printf("\n");
    }
    std::printf("vreq/s = served / virtual makespan (modeled by the "
                "service model, not measured); vs.un = speedup over the "
                "unbatched policy at the same arrival rate.\n");

    writeJson(records, "BENCH_serving.json");

    const double gain = unbatched_rate > 0.0 ? best_rate / unbatched_rate
                                             : 0.0;
    const bool pass = gain >= 1.3 && best_p95 <= unbatched_p95;
    std::printf("gate at %.2f ms: %s serves %.2fx the unbatched modeled "
                "throughput (need >= 1.30x), p95 %.2f vs %.2f ms (need "
                "<=): %s\n",
                interarrivals.back(), best, gain, best_p95, unbatched_p95,
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
