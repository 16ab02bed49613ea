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
 * its SLA. The headline row is the overloaded regime, where
 * coalescing must deliver >= 1.3x served throughput at an
 * equal-or-better p95. Emits BENCH_serving.json (one record per
 * measured point) into the working directory.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dlrm.hpp"
#include "sched/topology.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
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
    double reqPerSec = 0.0;
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
            "\"served\": %zu, \"shed\": %zu, \"req_per_sec\": %.2f, "
            "\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
            "\"makespan_ms\": %.4f}%s\n",
            r.name.c_str(), r.arrivalMs, r.served, r.shed,
            r.reqPerSec, r.p50, r.p95, r.makespanMs,
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
    core::DlrmModel model(model_cfg, 7);

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        model_cfg, traces::Hotness::Medium, 7);
    tc.batchSize = 8;
    traces::TraceGenerator gen(tc);
    std::vector<core::SparseBatch> batches;
    for (std::size_t b = 0; b < 16; ++b)
        batches.push_back(gen.batch(b));
    core::Tensor dense(tc.batchSize, model_cfg.denseDim());
    dense.randomize(11);

    serve::ServerConfig base_cfg;
    base_cfg.slaMs = 25.0;
    base_cfg.service = serve::ServiceModel{0.8, 0.04};
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
                "policy", "req/s", "p50", "p95", "p99", "shed%",
                "vs.un");
    for (const double arr : interarrivals) {
        const auto arrivals =
            serve::PoissonLoadGen(arr, 13).arrivals(requests);
        double unbatched_rate = 0.0;
        for (const Policy& p : policies) {
            serve::ServerConfig cfg = base_cfg;
            cfg.batching.enabled = p.enabled;
            cfg.batching.maxRequests = p.maxRequests;
            cfg.batching.maxLingerMs = p.lingerMs;
            serve::Server srv(model, topo, cfg);
            const auto st = srv.serve(dense, batches, arrivals);
            const double rate =
                st.makespanMs > 0.0
                    ? 1000.0 * static_cast<double>(st.served) /
                          st.makespanMs
                    : 0.0;
            if (!p.enabled)
                unbatched_rate = rate;
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
    std::printf("throughput = served / virtual makespan; vs.un = "
                "speedup over the unbatched policy at the same "
                "arrival rate.\n");

    writeJson(records, "BENCH_serving.json");
    return 0;
}
