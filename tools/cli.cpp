#include "cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <stdexcept>

#include "core/autotune.hpp"
#include "core/simd.hpp"
#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/errors.hpp"
#include "core/hot_tier.hpp"
#include "core/quant.hpp"
#include "core/snapshot.hpp"
#include "core/versioned.hpp"
#include "platform/report.hpp"
#include "sched/topology.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/stats.hpp"

namespace dlrmopt::cli
{

std::string
ParsedArgs::get(const std::string& key, const std::string& fallback) const
{
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
}

long
ParsedArgs::getInt(const std::string& key, long fallback) const
{
    const auto it = options.find(key);
    if (it == options.end())
        return fallback;
    try {
        std::size_t pos = 0;
        const long v = std::stol(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key +
                                    " wants an integer, got '" +
                                    it->second + "'");
    }
}

double
ParsedArgs::getDouble(const std::string& key, double fallback) const
{
    const auto it = options.find(key);
    if (it == options.end())
        return fallback;
    try {
        std::size_t pos = 0;
        const double v = std::stod(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key +
                                    " wants a number, got '" +
                                    it->second + "'");
    }
}

ParsedArgs
parseArgs(int argc, const char *const *argv)
{
    ParsedArgs out;
    int i = 1;
    if (i < argc && argv[i][0] != '-')
        out.command = argv[i++];
    for (; i < argc; ++i) {
        const std::string tok = argv[i];
        if (tok.rfind("--", 0) == 0) {
            const std::string key = tok.substr(2);
            if (key.empty())
                throw std::invalid_argument("empty option name");
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                out.options[key] = argv[++i];
            } else {
                out.options[key] = "1";
            }
        } else {
            out.positional.push_back(tok);
        }
    }
    return out;
}

traces::Hotness
parseHotness(const std::string& v)
{
    if (v == "low")
        return traces::Hotness::Low;
    if (v == "medium")
        return traces::Hotness::Medium;
    if (v == "high")
        return traces::Hotness::High;
    if (v == "random")
        return traces::Hotness::Random;
    if (v == "one-item")
        return traces::Hotness::OneItem;
    throw std::invalid_argument("unknown hotness '" + v + "'");
}

core::Scheme
parseScheme(const std::string& v)
{
    if (v == "baseline")
        return core::Scheme::Baseline;
    if (v == "hwpf-off")
        return core::Scheme::HwPfOff;
    if (v == "swpf")
        return core::Scheme::SwPf;
    if (v == "dpht")
        return core::Scheme::DpHt;
    if (v == "mpht")
        return core::Scheme::MpHt;
    if (v == "integrated")
        return core::Scheme::Integrated;
    throw std::invalid_argument("unknown scheme '" + v + "'");
}

platform::EvalConfig
buildEvalConfig(const ParsedArgs& args)
{
    platform::EvalConfig cfg;
    cfg.cpu = platform::cpuByName(args.get("cpu", "CSL"));
    cfg.model = core::modelByName(args.get("model", "rm2_1"));
    cfg.hotness = parseHotness(args.get("hotness", "low"));
    cfg.scheme = parseScheme(args.get("scheme", "baseline"));
    cfg.cores =
        static_cast<std::size_t>(args.getInt("cores", 1));
    cfg.numBatches =
        static_cast<std::size_t>(args.getInt("batches", 0));
    cfg.maxSimTables =
        static_cast<std::size_t>(args.getInt("sim-tables", 24));
    cfg.pfDistance = static_cast<int>(args.getInt("pf-distance", 4));
    cfg.pfAmount = static_cast<int>(args.getInt("pf-amount", -1));
    const std::string hint = args.get("pf-hint", "T0");
    if (hint != "T0" && hint != "T1" && hint != "T2")
        throw std::invalid_argument("--pf-hint wants T0|T1|T2, got '" +
                                    hint + "'");
    cfg.pfLocality = hint == "T0" ? 3 : hint == "T1" ? 2 : 1;
    cfg.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    if (cfg.cores == 0 || cfg.cores > cfg.cpu.totalCores())
        throw std::invalid_argument("--cores must be 1.." +
                                    std::to_string(
                                        cfg.cpu.totalCores()));
    if (cfg.pfDistance < 0 || (cfg.pfAmount < 0 && cfg.pfAmount != -1)) {
        throw std::invalid_argument(
            "--pf-distance/--pf-amount must be >= 0 (-1 amount = "
            "platform default)");
    }
    core::PrefetchSpec{cfg.pfDistance,
                       cfg.pfAmount >= 0 ? cfg.pfAmount : 0,
                       cfg.pfLocality}
        .validate();
    return cfg;
}

namespace
{

/**
 * Parses the shared --dtype option (default fp32). parseEmbDtype
 * rejects unknown words; a quantized precision is served from its own
 * reduced-precision store (TenantConfig::dtype in serve and batch).
 */
core::EmbDtype
parseDtypeOption(const ParsedArgs& args)
{
    return core::parseEmbDtype(args.get("dtype", "fp32"));
}

/**
 * The hot tier the shared --cache-budget option asks for (budgetBytes
 * 0 when the option is absent or zero): each fleet replica pins one
 * over the store its serving precision reads.
 */
core::HotTierConfig
hotTierConfig(const ParsedArgs& args)
{
    core::HotTierConfig hc;
    const double budget = args.getDouble("cache-budget", 0.0);
    if (!(budget > 0.0))
        return hc;
    hc.budgetBytes = static_cast<std::size_t>(budget);
    hc.epochLookups = static_cast<std::size_t>(
        args.getInt("cache-epoch-lookups", 20'000));
    hc.minAccesses = static_cast<std::uint32_t>(
        args.getInt("cache-min-accesses", 2));
    hc.validate();
    return hc;
}

/** One-line tier report ("hit 93.2% | resident 4096/4096 rows ..."). */
std::string
tierSummary(const core::HotTierCache& tier)
{
    const core::HotTierStats s = tier.stats();
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "hit %.1f%% | resident %zu/%zu rows (%.1f%% of budget) | "
        "promoted %llu demoted %llu epochs %llu",
        100.0 * s.hitRate(), s.residentRows, s.capacityRows,
        100.0 * s.occupancy(),
        static_cast<unsigned long long>(s.promotions),
        static_cast<unsigned long long>(s.demotions),
        static_cast<unsigned long long>(s.epochs));
    return buf;
}

void
printResultText(std::ostream& out, const platform::EvalConfig& cfg,
                const platform::EvalResult& r)
{
    out << cfg.cpu.name << " / " << cfg.model.name << " / "
        << traces::hotnessName(cfg.hotness) << " / "
        << core::schemeName(cfg.scheme) << " / " << cfg.cores
        << " core(s)\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "batch %.3f ms (bottom %.3f, emb %.3f, inter %.3f, "
                  "top %.3f)\n",
                  r.batchMs, r.stages.bottom, r.stages.emb,
                  r.stages.inter, r.stages.top);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "L1D hit %.3f, load latency %.1f cy, DRAM util "
                  "%.2f, %.1f GB/s\n",
                  r.sim.vtuneL1HitRate(), r.embTiming.avgLoadLatency,
                  r.embTiming.dramUtilization,
                  r.embTiming.achievedGBs);
    out << buf;
}

void
emit(std::ostream& out, const std::string& format,
     const platform::EvalConfig& cfg, const platform::EvalResult& r,
     bool first_row)
{
    if (format == "json") {
        out << platform::toJson(cfg, r) << "\n";
    } else if (format == "csv") {
        if (first_row)
            out << platform::csvHeader();
        platform::writeCsvRow(out, cfg, r);
    } else {
        printResultText(out, cfg, r);
    }
}

int
cmdModels(std::ostream& out)
{
    for (const auto& m : core::allModels()) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "%-7s %5zu tables x %8zu rows x dim %3zu, %3zu "
                      "lookups, %.1f GB, SLA %.0f ms\n",
                      m.name.c_str(), m.tables, m.rows, m.dim,
                      m.lookups, m.embeddingBytes() / (1u << 30),
                      m.slaMs());
        out << buf;
    }
    return 0;
}

int
cmdPlatforms(std::ostream& out)
{
    for (const auto& c : platform::allCpus()) {
        char buf[220];
        std::snprintf(
            buf, sizeof(buf),
            "%-5s %2zu cores x %zu sockets @ %.2f GHz, LLC %5.1f MB, "
            "%3.0f GB/s/socket, ROB %3zu, pf amount %d\n",
            c.name.c_str(), c.cores, c.sockets, c.freqGHz,
            c.l3.sizeBytes / (1024.0 * 1024.0), c.dramBandwidthGBs,
            c.robSize, c.bestPfAmount);
        out << buf;
    }
    return 0;
}

int
cmdEvaluate(const ParsedArgs& args, std::ostream& out)
{
    const auto cfg = buildEvalConfig(args);
    const auto res = platform::evaluate(cfg);
    emit(out, args.get("format", "text"), cfg, res, true);
    return 0;
}

int
cmdSweep(const ParsedArgs& args, std::ostream& out, std::ostream& err)
{
    const std::string axis = args.get("vary", "scheme");
    auto cfg = buildEvalConfig(args);
    const std::string format = args.get("format", "csv");

    bool first = true;
    auto point = [&](platform::EvalConfig c) {
        emit(out, format, c, platform::evaluate(c), first);
        first = false;
    };

    if (axis == "scheme") {
        for (auto s : core::allSchemes) {
            cfg.scheme = s;
            point(cfg);
        }
    } else if (axis == "hotness") {
        for (auto h : {traces::Hotness::High, traces::Hotness::Medium,
                       traces::Hotness::Low}) {
            cfg.hotness = h;
            point(cfg);
        }
    } else if (axis == "cores") {
        for (std::size_t c : {std::size_t(1), std::size_t(2),
                              std::size_t(4), std::size_t(8),
                              std::size_t(16), std::size_t(24)}) {
            if (c > cfg.cpu.totalCores())
                break;
            cfg.cores = c;
            cfg.numBatches = 0;
            point(cfg);
        }
    } else if (axis == "distance") {
        for (int d : {1, 2, 4, 8, 16}) {
            cfg.pfDistance = d;
            point(cfg);
        }
    } else if (axis == "amount") {
        for (int a : {1, 2, 4, 8}) {
            cfg.pfAmount = a;
            point(cfg);
        }
    } else {
        err << "unknown sweep axis '" << axis
            << "' (scheme|hotness|cores|distance|amount)\n";
        return 2;
    }
    return 0;
}

int
cmdTrace(const ParsedArgs& args, std::ostream& out, std::ostream& err)
{
    const std::string sub =
        args.positional.empty() ? "" : args.positional.front();
    if (sub == "gen") {
        traces::TraceConfig tc;
        tc.rows = static_cast<std::size_t>(
            args.getInt("rows", 100'000));
        tc.tables =
            static_cast<std::size_t>(args.getInt("tables", 8));
        tc.lookups =
            static_cast<std::size_t>(args.getInt("lookups", 32));
        tc.batchSize = static_cast<std::size_t>(
            args.getInt("batch-size", 64));
        tc.numBatches = static_cast<std::size_t>(
            args.getInt("batches", 16));
        tc.hotness = parseHotness(args.get("hotness", "medium"));
        tc.seed =
            static_cast<std::uint64_t>(args.getInt("seed", 1));
        const std::string path = args.get("out", "trace.bin");

        traces::TraceGenerator gen(tc);
        std::vector<core::SparseBatch> batches;
        for (std::size_t b = 0; b < tc.numBatches; ++b)
            batches.push_back(gen.batch(b));
        traces::saveTrace(path, batches);
        out << "wrote " << batches.size() << " batches ("
            << tc.tables << " tables x " << tc.batchSize << " x "
            << tc.lookups << " lookups) to " << path << "\n";
        return 0;
    }
    if (sub == "info") {
        if (args.positional.size() < 2) {
            err << "trace info <file>\n";
            return 2;
        }
        const auto batches = traces::loadTrace(args.positional[1]);
        out << batches.size() << " batches\n";
        if (batches.empty())
            return 0;
        out << batches.front().numTables() << " tables, batch size "
            << batches.front().batchSize << "\n";
        std::vector<RowIndex> stream;
        for (const auto& b : batches) {
            stream.insert(stream.end(), b.indices[0].begin(),
                          b.indices[0].end());
        }
        const auto st = traces::computeAccessStats(stream);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "table 0: %llu accesses, %.1f%% unique, "
                      "top-1024 rows carry %.1f%%\n",
                      static_cast<unsigned long long>(
                          st.totalAccesses),
                      100.0 * st.uniqueFraction(),
                      100.0 * st.topKShare(1024));
        out << buf;
        return 0;
    }
    err << "trace gen|info [options]\n";
    return 2;
}

int
cmdTune(const ParsedArgs& args, std::ostream& out)
{
    const std::size_t rows = static_cast<std::size_t>(
        args.getInt("rows", 262'144));
    const std::size_t dim =
        static_cast<std::size_t>(args.getInt("dim", 128));
    const std::size_t samples =
        static_cast<std::size_t>(args.getInt("samples", 64));
    const std::size_t lookups =
        static_cast<std::size_t>(args.getInt("lookups", 64));

    out << "building " << rows << " x " << dim
        << " table and tuning on this host...\n";
    core::EmbeddingTable table(rows, dim, 7);
    std::vector<RowIndex> indices;
    std::vector<RowIndex> offsets = {0};
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t l = 0; l < lookups; ++l) {
            indices.push_back(static_cast<RowIndex>(
                mix64(s * 7919 + l) % rows));
        }
        offsets.push_back(static_cast<RowIndex>(indices.size()));
    }
    const auto res = core::tunePrefetch(
        table, indices.data(), offsets.data(), samples, {},
        static_cast<int>(args.getInt("repeats", 3)));

    char buf[160];
    for (const auto& m : res.measurements) {
        std::snprintf(buf, sizeof(buf),
                      "  distance %2d, %d lines: %8.3f ms\n",
                      m.spec.distance, m.spec.lines, m.millis);
        out << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "baseline %.3f ms; best %s (distance %d, %d lines) "
                  "%.3f ms -> %.2fx\n",
                  res.baselineMs,
                  res.best.enabled() ? "spec" : "baseline",
                  res.best.distance, res.best.lines, res.bestMs,
                  res.speedup());
    out << buf;
    return 0;
}

int
cmdGemmTune(const ParsedArgs& args, std::ostream& out)
{
    // Sweeps register-blocking tiles for every MLP layer shape of the
    // chosen model across the coalesced-batch buckets, installs the
    // winners in the process-wide GemmTileCache, and reports each
    // point's speedup over the scalar blocked baseline kernel.
    const auto model = core::modelByName(args.get("model", "rm2_1"));
    const int repeats =
        static_cast<int>(args.getInt("repeats", 3));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    if (repeats < 1)
        throw std::invalid_argument("--repeats must be >= 1");
    const core::EmbDtype dtype = parseDtypeOption(args);
    if (dtype == core::EmbDtype::Bf16) {
        throw std::invalid_argument(
            "--dtype bf16: bf16 is an embedding-storage format; the "
            "MLPs run the fp32 GEMM engine for it — tune fp32 or "
            "int8");
    }

    std::vector<std::size_t> batches;
    if (args.has("m")) {
        const long m = args.getInt("m", 0);
        if (m < 1)
            throw std::invalid_argument("--m must be >= 1");
        batches.push_back(static_cast<std::size_t>(m));
    } else if (args.has("quick")) {
        batches = {1, 16};
    }

    const auto level = core::currentSimdLevel();
    out << model.name << " MLP tile autotune ("
        << core::embDtypeName(dtype) << ") @ "
        << core::simdLevelName(level) << " (panel width "
        << core::PackedWeights::panelWidth << ", max microtile rows "
        << core::gemmMaxRows(level) << ")\n";
    out << "    m   layer shape        best tile      packed ms  "
           "blocked ms  speedup\n";

    double prod = 1.0;
    std::size_t points = 0;
    for (const bool bottom : {true, false}) {
        const auto dims =
            bottom ? model.bottomMlp : model.topMlpDims();
        const auto results =
            core::tuneMlpGemm(dims, batches, repeats, seed, dtype);
        for (const auto& r : results) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "  %4zu  %6zu x %-6zu  mr %zu kc %-6zu "
                          "%9.4f  %10.4f  %6.2fx\n",
                          r.batch, r.inDim, r.outDim, r.best.mr,
                          r.best.kc, r.bestMs, r.baselineMs,
                          r.speedup());
            out << buf;
            prod *= r.speedup();
            ++points;
        }
    }
    if (points > 0) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "%zu tile(s) installed; geomean speedup over "
                      "scalar blocked baseline %.2fx\n",
                      core::GemmTileCache::instance().size(),
                      std::pow(prod, 1.0 / static_cast<double>(points)));
        out << buf;
    }
    return 0;
}

/** The one tenant a single-tenant fleet serves: @p model at --sla,
 *  with the virtual clock priced by the same --service-ms model
 *  admission estimates with. */
serve::TenantConfig
tenantOf(const core::ModelConfig& model, const ParsedArgs& args)
{
    serve::TenantConfig tc;
    tc.name = model.name;
    tc.model = model;
    tc.slaMs = args.getDouble("sla", 25.0);
    tc.service = serve::ServiceModel::constant(
        args.getDouble("service-ms", 1.0));
    tc.truth = serve::ServiceTimeline(tc.service);
    return tc;
}

/** tenantOf() as the registry `router` and `chaos` serve. */
serve::TenantRegistry
singleTenant(const core::ModelConfig& model, const ParsedArgs& args)
{
    serve::TenantRegistry reg;
    reg.add(tenantOf(model, args));
    return reg;
}

/** A one-instance fleet over @p topo serving @p tenant alone: the
 *  single-server deployment `serve` and `batch` run. */
serve::TenantFleet
singleServer(const serve::TenantConfig& tenant,
             const serve::FleetConfig& cfg, const sched::Topology& topo)
{
    serve::TenantRegistry reg;
    reg.add(tenant);
    return serve::TenantFleet(reg, topo, cfg);
}

/** The Poisson stream `serve` and `batch` replay: @p requests
 *  requests every @p arrival_ms on average, cycling through 16
 *  --batch-size batches of --hotness. */
serve::TenantWorkload
singleWorkload(const core::ModelConfig& model, const ParsedArgs& args,
               std::uint64_t seed, std::size_t requests,
               double arrival_ms)
{
    traces::TraceConfig tc = traces::TraceConfig::forModel(
        model, parseHotness(args.get("hotness", "medium")), seed);
    tc.batchSize = static_cast<std::size_t>(
        args.getInt("batch-size", 16));
    traces::TraceGenerator gen(tc);
    serve::TenantWorkload w;
    for (std::size_t b = 0; b < 16; ++b)
        w.batches.push_back(gen.batch(b));
    w.dense = core::Tensor(tc.batchSize, model.denseDim());
    w.dense.randomize(seed + 1);
    w.arrivalsMs =
        serve::PoissonLoadGen(arrival_ms, seed).arrivals(requests);
    return w;
}

/** A batching-off single-tenant fleet of @p instances slots. */
serve::FleetConfig
clusterConfig(const ParsedArgs& args, std::size_t instances,
              std::uint64_t seed)
{
    serve::FleetConfig cfg;
    cfg.instances = instances;
    cfg.admission = !args.has("no-admission");
    cfg.maxRetries =
        static_cast<std::size_t>(args.getInt("retries", 2));
    cfg.seed = seed;
    return cfg;
}

int
cmdServe(const ParsedArgs& args, std::ostream& out)
{
    // A scaled-down Table 2 model that really executes on this host,
    // served alone on a one-instance fleet.
    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 64.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    serve::TenantConfig tenant = tenantOf(cfg_model, args);
    tenant.dtype = parseDtypeOption(args);

    // The fault flags are one fault phase on the instance from t=0.
    serve::FaultConfig fc;
    fc.seed = seed;
    fc.taskExceptionRate =
        args.getDouble("fault-exception-rate", 0.0);
    fc.allocFailureRate = args.getDouble("fault-alloc-rate", 0.0);
    fc.corruptIndexRate = args.getDouble("fault-corrupt-rate", 0.0);
    fc.stragglerCore =
        static_cast<int>(args.getInt("fault-straggler-core", -1));
    fc.stragglerFactor =
        args.getDouble("fault-straggler-factor", 1.0);
    const serve::FaultSchedule faults({{0.0, 0, fc}}, {}, {});

    const std::size_t cores =
        static_cast<std::size_t>(args.getInt("cores", 2));
    const std::size_t requests =
        static_cast<std::size_t>(args.getInt("requests", 200));
    const double arrival_ms = args.getDouble("arrival-ms", 2.0);
    if (cores == 0)
        throw std::invalid_argument("--cores must be >= 1");
    if (requests == 0)
        throw std::invalid_argument("--requests must be >= 1");

    const auto work = singleWorkload(cfg_model, args, seed, requests,
                                     arrival_ms);
    const auto topo = sched::Topology::synthetic(cores, 2);
    serve::FleetConfig fcfg = clusterConfig(args, 1, seed);
    fcfg.hotTier = hotTierConfig(args);

    serve::TenantFleet baseline = singleServer(tenant, fcfg, topo);
    out << cfg_model.name << " scaled to "
        << static_cast<std::size_t>(cfg_model.embeddingBytes()) /
               (1u << 20)
        << " MB embeddings, " << cores << " core(s), SLA "
        << tenant.slaMs << " ms, mean interarrival " << arrival_ms
        << " ms, precision " << core::embDtypeName(tenant.dtype)
        << "\n";
    if (const auto *tier = baseline.hotTier(0, 0))
        out << "hot tier: " << tier->capacityRows() << " row budget\n";

    const auto pf = core::PrefetchSpec::paperDefault();
    out << "baseline    "
        << baseline.serve({work}, pf, &faults).total.summary() << "\n";
    tenant.degrade.enabled = true;
    serve::TenantFleet degraded = singleServer(tenant, fcfg, topo);
    out << "degradation "
        << degraded.serve({work}, pf, &faults).total.summary() << "\n";
    if (const auto *tier = degraded.hotTier(0, 0))
        out << "hot tier    " << tierSummary(*tier) << "\n";
    return 0;
}

/** ParsedArgs ignores unknown options, so a removed flag fails
 *  loudly instead of quietly printing a different table. */
void
rejectRemoved(const ParsedArgs& args,
              std::initializer_list<const char *> flags,
              const char *with)
{
    for (const char *gone : flags) {
        if (args.has(gone)) {
            throw std::invalid_argument(std::string("--") + gone +
                                        " was removed with " + with);
        }
    }
}

int
cmdRouter(const ParsedArgs& args, std::ostream& out)
{
    // Same scaled-down real-execution setup as `serve`, but served by
    // a single-tenant fleet: one shared EmbeddingStore, N replica
    // instances over disjoint core groups fed from one queue, the
    // same Poisson stream for every row so the comparison is apples
    // to apples.
    rejectRemoved(args, {"policy", "failovers"},
                  "the Router's routing policies and failover");
    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 64.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    const std::size_t cores =
        static_cast<std::size_t>(args.getInt("cores", 4));
    const std::size_t instances =
        static_cast<std::size_t>(args.getInt("instances", 2));
    const std::size_t requests =
        static_cast<std::size_t>(args.getInt("requests", 400));
    const double arrival_ms = args.getDouble("arrival-ms", 1.0);
    if (cores == 0)
        throw std::invalid_argument("--cores must be >= 1");
    if (instances == 0 || instances > cores) {
        throw std::invalid_argument("--instances must be 1..cores");
    }
    if (requests == 0)
        throw std::invalid_argument("--requests must be >= 1");

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        cfg_model, parseHotness(args.get("hotness", "medium")), seed);
    tc.batchSize = static_cast<std::size_t>(
        args.getInt("batch-size", 16));
    traces::TraceGenerator gen(tc);
    std::vector<core::SparseBatch> batches;
    for (std::size_t b = 0; b < 16; ++b)
        batches.push_back(gen.batch(b));

    core::Tensor dense(tc.batchSize, cfg_model.denseDim());
    dense.randomize(seed + 1);
    const std::vector<serve::TenantWorkload> work{
        {dense, batches,
         serve::PoissonLoadGen(arrival_ms, seed).arrivals(requests)}};
    const auto topo = sched::Topology::synthetic(cores, 2);
    const auto reg = singleTenant(cfg_model, args);

    // Optional straggler instance: a fault phase from t=0 slowing
    // local core 0 of the afflicted instance.
    const int straggler_inst =
        static_cast<int>(args.getInt("straggler-instance", -1));
    std::vector<serve::FaultPhase> phases;
    if (straggler_inst >= 0 &&
        straggler_inst < static_cast<int>(instances)) {
        serve::FaultConfig fc;
        fc.seed = seed;
        fc.stragglerCore = 0;
        fc.stragglerFactor = args.getDouble("straggler-factor", 4.0);
        phases.push_back({0.0, straggler_inst, fc});
    }
    const serve::FaultSchedule straggler(std::move(phases), {}, {});

    out << cfg_model.name << " scaled to "
        << static_cast<std::size_t>(cfg_model.embeddingBytes()) /
               (1u << 20)
        << " MB embeddings (one shared store), " << cores
        << " core(s), SLA " << reg.tenant(0).slaMs << " ms, mean "
        << "interarrival " << arrival_ms << " ms, " << requests
        << " requests\n";
    if (!straggler.empty()) {
        out << "straggler: instance " << straggler_inst << " x"
            << args.getDouble("straggler-factor", 4.0) << "\n";
    }

    const auto report = [&](std::size_t n,
                            const serve::FaultSchedule *schedule) {
        serve::TenantFleet fleet(reg, topo,
                                 clusterConfig(args, n, seed));
        const serve::FleetStats st = fleet.serve(
            work, core::PrefetchSpec::paperDefault(), schedule);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%zu instance%s %8.1f req/s | ",
                      n, n == 1 ? " " : "s",
                      st.makespanMs > 0.0
                          ? 1000.0 * static_cast<double>(
                                st.total.served) / st.makespanMs
                          : 0.0);
        out << buf << st.summary() << "\n";
    };
    report(1, nullptr);
    report(instances, &straggler);
    return 0;
}

int
cmdBatch(const ParsedArgs& args, std::ostream& out)
{
    // Unbatched vs. deadline-aware coalescing over the *same*
    // arrival stream, service model, and virtual clock, so the only
    // variable is the batching policy.
    rejectRemoved(args, {"streamed", "gather-fraction"},
                  "the streamed serving mode");
    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 64.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    const std::size_t cores =
        static_cast<std::size_t>(args.getInt("cores", 2));
    const std::size_t requests =
        static_cast<std::size_t>(args.getInt("requests", 400));
    const double arrival_ms = args.getDouble("arrival-ms", 0.6);
    if (cores == 0)
        throw std::invalid_argument("--cores must be >= 1");
    if (requests == 0)
        throw std::invalid_argument("--requests must be >= 1");

    const auto work = singleWorkload(cfg_model, args, seed, requests,
                                     arrival_ms);
    serve::TenantConfig tenant = tenantOf(cfg_model, args);
    tenant.dtype = parseDtypeOption(args);
    if (args.has("calibrate")) {
        // Fit {base, per-sample} from real kernel timings on this
        // host instead of assuming a flat per-request cost.
        const core::DlrmModel probe(cfg_model, seed);
        tenant.service = serve::calibrateServiceModel(
            probe, work.dense, work.batches.front(),
            {1, 4, 16, work.dense.rows()});
    } else {
        tenant.service.baseMs = args.getDouble("service-base-ms", 0.5);
        tenant.service.perSampleMs =
            args.getDouble("service-per-sample-ms", 0.05);
    }
    tenant.truth = serve::ServiceTimeline(tenant.service);

    const auto topo = sched::Topology::synthetic(cores, 2);
    serve::FleetConfig fcfg = clusterConfig(args, 1, seed);
    fcfg.hotTier = hotTierConfig(args);
    serve::TenantFleet unbatched = singleServer(tenant, fcfg, topo);

    char mb[96];
    std::snprintf(mb, sizeof(mb),
                  "service = %.4f + %.4f*samples ms",
                  tenant.service.baseMs, tenant.service.perSampleMs);
    out << cfg_model.name << " scaled to "
        << static_cast<std::size_t>(cfg_model.embeddingBytes()) /
               (1u << 20)
        << " MB embeddings, " << cores << " core(s), SLA "
        << tenant.slaMs << " ms, mean interarrival " << arrival_ms
        << " ms, precision " << core::embDtypeName(tenant.dtype) << ", "
        << mb << "\n";
    if (const auto *tier = unbatched.hotTier(0, 0))
        out << "hot tier: " << tier->capacityRows() << " row budget\n";

    const auto report = [&](const std::string& label,
                            serve::TenantFleet& fleet) {
        const serve::ServeStats st =
            fleet.serve({work}).total;
        char buf[192];
        std::snprintf(
            buf, sizeof(buf),
            "%7.1f req/s | p50 %6.2f p95 %6.2f p99 %6.2f ms | ",
            st.makespanMs > 0.0
                ? 1000.0 * static_cast<double>(st.served) /
                      st.makespanMs
                : 0.0,
            st.latency.percentile(50.0), st.latency.p95(),
            st.latency.p99());
        out << label << buf << st.summary() << "\n";
    };

    report("unbatched       ", unbatched);
    fcfg.batching.enabled = true;
    fcfg.batching.maxRequests = static_cast<std::size_t>(
        args.getInt("max-requests", 8));
    std::string tier_line;
    for (const double linger :
         {0.0, args.getDouble("linger-ms", 1.0)}) {
        fcfg.batching.maxLingerMs = linger;
        serve::TenantFleet batched = singleServer(tenant, fcfg, topo);
        char label[48];
        std::snprintf(label, sizeof(label),
                      "batch %zu @ %.1fms ",
                      fcfg.batching.maxRequests, linger);
        report(label, batched);
        if (const auto *tier = batched.hotTier(0, 0))
            tier_line = tierSummary(*tier);
    }
    if (!tier_line.empty())
        out << "hot tier        " << tier_line << "\n";
    return 0;
}

int
cmdCache(const ParsedArgs& args, std::ostream& out)
{
    // Hot-tier inspection: builds a scaled Table-2 model, sizes a
    // pinned hot tier from --cache-budget over the chosen precision's
    // store, and for each hotness class (a) measures the class's row
    // popularity from real generated batches into the trace-side
    // AccessAccumulator, (b) replays those counts into the tier's
    // admission counters and runs a promotion epoch, then (c) serves
    // batches through the tiered embedding stage and reports the
    // class's hit rate next to occupancy and promotion/demotion
    // totals. The per-class loop doubles as a drift demo: each class
    // rotates the hot set and the epoch re-converges the tier.
    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 16.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const core::EmbDtype dtype = parseDtypeOption(args);

    core::DlrmModel model(cfg_model, seed);
    if (dtype != core::EmbDtype::Fp32) {
        model.attachQuantizedStore(
            core::EmbeddingStore::create(cfg_model, seed, 256, dtype));
    }
    const auto& store = model.sharedStoreFor(dtype);

    core::HotTierConfig hc;
    hc.budgetBytes = static_cast<std::size_t>(
        args.getDouble("cache-budget", 4.0 * (1u << 20)));
    hc.minAccesses = static_cast<std::uint32_t>(
        args.getInt("cache-min-accesses", 2));
    hc.validate();
    core::HotTierCache tier(store, hc);

    const std::size_t batch_size = static_cast<std::size_t>(
        args.getInt("batch-size", 16));
    const std::size_t warm_n =
        static_cast<std::size_t>(args.getInt("warm-batches", 8));
    const std::size_t measure_n =
        static_cast<std::size_t>(args.getInt("batches", 16));
    if (measure_n == 0)
        throw std::invalid_argument("--batches must be >= 1");

    char buf[224];
    std::snprintf(
        buf, sizeof(buf),
        "%s scaled to %zu MB embeddings (%s), tier budget %.1f MB = "
        "%zu rows (%zu-byte slots, %zu blocks)\n",
        cfg_model.name.c_str(),
        static_cast<std::size_t>(store->bytes() / (1u << 20)),
        core::embDtypeName(dtype).c_str(),
        static_cast<double>(hc.budgetBytes) / (1u << 20),
        tier.capacityRows(), tier.slotStride(), tier.numBlocks());
    out << buf;

    core::Tensor emb_out(cfg_model.tables,
                         batch_size * cfg_model.dim);
    const core::PrefetchSpec pf = core::PrefetchSpec::paperDefault();

    out << "class    hit rate   resident        promoted  demoted\n";
    for (const auto h :
         {traces::Hotness::High, traces::Hotness::Medium,
          traces::Hotness::Low}) {
        traces::TraceConfig tc =
            traces::TraceConfig::forModel(cfg_model, h, seed);
        tc.batchSize = batch_size;
        traces::TraceGenerator gen(tc);

        // (a) + (b): measured hotness feeds admission, one epoch
        // promotes — the offline mirror of the serving path's online
        // counters.
        traces::AccessAccumulator acc(store->numTables(),
                                      store->rows());
        for (std::size_t b = 0; b < warm_n; ++b)
            acc.observeBatch(gen.batch(b));
        for (const auto& [t, row] : acc.hottest(tier.capacityRows())) {
            tier.recordAccess(t, row,
                              static_cast<std::uint32_t>(
                                  acc.count(t, row)));
        }
        tier.endEpoch();

        // (c): serve through the tiered embedding stage.
        const core::HotTierStats before = tier.stats();
        for (std::size_t b = 0; b < measure_n; ++b) {
            model.embeddingForward(gen.batch(warm_n + b), emb_out, pf,
                                   dtype, &tier);
        }
        const core::HotTierStats after = tier.stats();
        const std::uint64_t hits = after.hits - before.hits;
        const std::uint64_t misses = after.misses - before.misses;
        std::snprintf(
            buf, sizeof(buf),
            "%-8s %7.1f%%   %6zu/%zu    %8llu %8llu\n",
            traces::hotnessName(h).c_str(),
            hits + misses
                ? 100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses)
                : 0.0,
            after.residentRows, after.capacityRows,
            static_cast<unsigned long long>(after.promotions),
            static_cast<unsigned long long>(after.demotions));
        out << buf;
    }
    out << "total: " << tierSummary(tier) << "\n";
    return 0;
}

int
cmdChaos(const ParsedArgs& args, std::ostream& out)
{
    // Replays scripted fault timelines (instance crashes, corruption
    // bursts, flapping stragglers) against a single-tenant fleet,
    // twice per scenario over the same arrival stream: with block
    // verification off and on. Each run builds a fresh fleet, and so
    // a fresh store, so corruption never leaks across runs.
    rejectRemoved(args, {"policy", "failovers"},
                  "the Router's routing policies and failover");
    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 64.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    const std::size_t cores =
        static_cast<std::size_t>(args.getInt("cores", 4));
    const std::size_t instances =
        static_cast<std::size_t>(args.getInt("instances", 2));
    const std::size_t requests =
        static_cast<std::size_t>(args.getInt("requests", 400));
    const double arrival_ms = args.getDouble("arrival-ms", 1.0);
    if (cores == 0)
        throw std::invalid_argument("--cores must be >= 1");
    if (instances < 2 || instances > cores) {
        throw std::invalid_argument("--instances must be 2..cores");
    }
    if (requests == 0)
        throw std::invalid_argument("--requests must be >= 1");

    std::vector<std::string> scenarios;
    const std::string which = args.get("scenario", "all");
    if (which == "all") {
        scenarios = serve::FaultSchedule::scenarioNames();
    } else {
        scenarios.push_back(which);
    }

    traces::TraceConfig tc = traces::TraceConfig::forModel(
        cfg_model, parseHotness(args.get("hotness", "medium")), seed);
    tc.batchSize = static_cast<std::size_t>(
        args.getInt("batch-size", 16));
    traces::TraceGenerator gen(tc);
    std::vector<core::SparseBatch> batches;
    for (std::size_t b = 0; b < 16; ++b)
        batches.push_back(gen.batch(b));

    core::Tensor dense(tc.batchSize, cfg_model.denseDim());
    dense.randomize(seed + 1);
    const std::vector<serve::TenantWorkload> work{
        {dense, batches,
         serve::PoissonLoadGen(arrival_ms, seed).arrivals(requests)}};
    const double session_ms = work[0].arrivalsMs.back();
    const auto topo = sched::Topology::synthetic(cores, 2);
    const auto reg = singleTenant(cfg_model, args);
    serve::FleetConfig fcfg = clusterConfig(args, instances, seed);
    fcfg.capacity.probationMs = args.getDouble("probation-ms", 5.0);

    out << cfg_model.name << " chaos replay: " << instances
        << " instance(s) on " << cores << " core(s), SLA "
        << reg.tenant(0).slaMs << " ms, " << requests
        << " requests over " << static_cast<long>(session_ms)
        << " virtual ms\n";

    for (const auto& name : scenarios) {
        out << "-- " << name << " --\n";
        const auto schedule = serve::FaultSchedule::chaosScenario(
            name, instances, session_ms, seed);
        for (const bool verify : {false, true}) {
            fcfg.verifyBlocks = verify;
            serve::TenantFleet fleet(reg, topo, fcfg);
            const serve::FleetStats st = fleet.serve(
                work, core::PrefetchSpec::paperDefault(), &schedule);
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s %5.1f%% compliant | ",
                          verify ? "verify on " : "verify off",
                          100.0 * static_cast<double>(st.compliant) /
                              static_cast<double>(st.total.arrived));
            out << buf << st.summary() << "\n";
        }
    }
    return 0;
}

int
cmdTenants(const ParsedArgs& args, std::ostream& out)
{
    // One multi-tenant fleet session: each tenant binds a Table-2
    // preset to its own SLA, fair-share weight and admission budget,
    // with diurnal phase-skewed arrivals so the tenants peak at
    // different times of the simulated day. Optionally elastic
    // (windowed load forecast moves the Up set) and/or overlaid with
    // a scripted chaos scenario.
    const std::size_t n_tenants =
        static_cast<std::size_t>(args.getInt("tenants", 3));
    if (n_tenants < 2 || n_tenants > 4)
        throw std::invalid_argument("--tenants must be 2..4");
    const double max_bytes =
        args.getDouble("max-bytes", 4.0 * (1u << 20));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double day_ms = args.getDouble("day-ms", 60.0);
    const double arrival_ms = args.getDouble("arrival-ms", 0.3);
    const double amplitude = args.getDouble("amplitude", 0.8);
    const double sla_ms = args.getDouble("sla", 12.0);
    const std::size_t budget =
        static_cast<std::size_t>(args.getInt("budget", 16));
    const std::size_t cores =
        static_cast<std::size_t>(args.getInt("cores", 8));
    const std::size_t instances =
        static_cast<std::size_t>(args.getInt("instances", 4));
    if (instances == 0 || cores < instances)
        throw std::invalid_argument("--instances must be 1..cores");
    if (day_ms <= 0.0)
        throw std::invalid_argument("--day-ms must be > 0");

    const serve::ServiceModel law{
        args.getDouble("service-base-ms", 0.5),
        args.getDouble("service-per-sample-ms", 0.1)};
    const char *presets[] = {"rm1", "rm2_1", "rm2_3", "rm2_2"};

    // Optional comma-separated per-tenant weights, e.g. 2,1,1.
    std::vector<double> weights(n_tenants, 1.0);
    if (args.has("weights")) {
        const std::string w = args.get("weights");
        std::size_t pos = 0, k = 0;
        while (k < n_tenants && pos <= w.size()) {
            const std::size_t comma = std::min(w.find(',', pos),
                                               w.size());
            weights[k++] = std::stod(w.substr(pos, comma - pos));
            pos = comma + 1;
        }
        if (k != n_tenants)
            throw std::invalid_argument(
                "--weights wants one value per tenant");
    }

    serve::TenantRegistry reg;
    std::vector<serve::TenantWorkload> work;
    for (std::size_t k = 0; k < n_tenants; ++k) {
        serve::TenantConfig tc;
        tc.name = presets[k];
        tc.model = core::modelByName(presets[k]).scaledToFit(max_bytes);
        tc.slaMs = sla_ms;
        tc.weight = weights[k];
        tc.admissionBudget = budget;
        tc.service = law;
        tc.truth = serve::ServiceTimeline(law);
        reg.add(tc);

        traces::TraceConfig gen_cfg = traces::TraceConfig::forModel(
            tc.model, parseHotness(args.get("hotness", "medium")),
            seed + k);
        gen_cfg.batchSize = static_cast<std::size_t>(
            args.getInt("batch-size", 4));
        traces::TraceGenerator gen(gen_cfg);
        serve::TenantWorkload w;
        for (std::size_t b = 0; b < 8; ++b)
            w.batches.push_back(gen.batch(b));
        w.dense.reshape(gen_cfg.batchSize, tc.model.denseDim());
        w.dense.randomize(seed + 10 * k);
        w.arrivalsMs =
            serve::DiurnalLoadGen(
                arrival_ms, amplitude, day_ms,
                static_cast<double>(k) /
                    static_cast<double>(n_tenants),
                seed + k)
                .arrivalsUntil(day_ms);
        work.push_back(std::move(w));
    }

    serve::FleetConfig fcfg;
    fcfg.instances = instances;
    fcfg.batching.enabled = true;
    fcfg.batching.maxRequests = static_cast<std::size_t>(
        args.getInt("max-requests", 4));
    fcfg.batching.maxLingerMs = args.getDouble("linger-ms", 0.2);
    fcfg.admission = !args.has("no-admission");
    fcfg.seed = seed;
    fcfg.recalibration.enabled = true;
    fcfg.recalibration.intervalMs = 10.0;
    fcfg.scrub.enabled = true;
    if (args.has("elastic")) {
        fcfg.capacity.elastic = true;
        fcfg.capacity.minInstances = static_cast<std::size_t>(
            args.getInt("min-instances", 1));
        fcfg.capacity.windowMs = day_ms / 24.0;
        fcfg.capacity.downLag = 2;
        fcfg.capacity.probationMs = 2.0;
        fcfg.capacity.partialDrainCores = 1;
        fcfg.capacity.drainGraceMs = 4.0;
    }

    const auto topo = sched::Topology::synthetic(cores, 2);
    serve::TenantFleet fleet(reg, topo, fcfg);

    std::size_t total = 0;
    for (const auto& w : work)
        total += w.arrivalsMs.size();
    out << n_tenants << " tenant(s) on " << instances
        << " instance(s) x " << cores / instances << " core(s)"
        << (fcfg.capacity.elastic ? ", elastic" : "") << ", " << total
        << " requests over " << static_cast<long>(day_ms)
        << " virtual ms\n";

    serve::FleetStats fs;
    const std::string scenario = args.get("scenario");
    if (scenario.empty()) {
        fs = fleet.serve(work);
    } else {
        const auto schedule = serve::FaultSchedule::chaosScenario(
            scenario, instances, day_ms, seed);
        fs = fleet.serve(work, core::PrefetchSpec::paperDefault(),
                         &schedule);
    }

    out << fs.summary() << "\n";
    for (std::size_t k = 0; k < n_tenants; ++k) {
        const serve::TenantStats& t = fs.perTenant[k];
        char buf[192];
        std::snprintf(
            buf, sizeof(buf),
            "  %-8s w%.1f | arrived %5zu served %5zu shed %4zu "
            "(budget %zu deadline %zu) failed %zu | goodput %5.1f%%",
            reg.tenant(k).name.c_str(), reg.tenant(k).weight,
            t.stats.arrived, t.stats.served, t.stats.shed,
            t.budgetShed, t.deadlineShed, t.stats.failed,
            100.0 * t.goodput());
        out << buf << "\n";
    }
    out << (fs.conserved() ? "accounting conserved"
                           : "ACCOUNTING VIOLATION")
        << " (arrived == served + shed + failed per tenant)\n";
    return fs.conserved() ? 0 : 1;
}

/** Folds a checksum list into one FNV-1a digest for compact display. */
std::uint64_t
foldChecksums(const std::vector<std::uint64_t>& sums, std::size_t begin,
              std::size_t count)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = begin; i < begin + count; ++i) {
        const std::uint64_t v = sums[i];
        for (std::size_t b = 0; b < 8; ++b)
            h = (h ^ ((v >> (8 * b)) & 0xffu)) * 1099511628211ull;
    }
    return h;
}

void
printSnapshotInfo(std::ostream& out, const core::SnapshotInfo& info)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s v%llu (seed %llu): %zu tables x %zu rows x %zu "
                  "dim, %s, block-rows %zu, %zu bytes\n",
                  info.cfg.name.c_str(),
                  static_cast<unsigned long long>(info.modelVersion),
                  static_cast<unsigned long long>(info.weightSeed),
                  info.cfg.tables, info.cfg.rows, info.cfg.dim,
                  core::embDtypeName(info.dtype).c_str(),
                  info.blockRows, info.fileBytes);
    out << buf;
    // Per-table block-checksum digests: enough to diff two snapshots
    // by eye without dumping every block.
    for (std::size_t t = 0; t < info.cfg.tables; ++t) {
        if (t == 8 && info.cfg.tables > 9) {
            out << "  ... (" << info.cfg.tables - t
                << " more tables)\n";
            break;
        }
        std::snprintf(
            buf, sizeof(buf), "  table %2zu: %zu blocks, digest %016llx\n",
            t, info.blocksPerTable,
            static_cast<unsigned long long>(foldChecksums(
                info.blockChecksums, t * info.blocksPerTable,
                info.blocksPerTable)));
        out << buf;
    }
    out << "  probe rows: " << info.probeCount
        << " (golden predictions at " << core::embDtypeName(info.dtype)
        << ")\n";
}

int
cmdSnapshot(const ParsedArgs& args, std::ostream& out)
{
    // Crash-consistent snapshot tooling over core::ModelSnapshot:
    //   save      build a versioned model and persist it atomically
    //   verify    parse + checksum-verify a file (no materialization)
    //   load      materialize and check the golden probe bitwise
    //   roundtrip save -> load -> re-save, compare the files bytewise
    const std::string op =
        args.positional.empty() ? "" : args.positional[0];
    const std::string path = args.get("file", "");
    if (path.empty())
        throw std::invalid_argument("snapshot wants --file PATH");

    if (op == "verify") {
        printSnapshotInfo(out, core::ModelSnapshot::verifyFile(path));
        out << "verify OK (footer, section and per-block checksums)\n";
        return 0;
    }
    if (op == "load") {
        const core::LoadedSnapshot ls = core::ModelSnapshot::load(path);
        printSnapshotInfo(out, ls.info);
        const std::vector<float> got =
            core::ModelSnapshot::probePredictions(*ls.model);
        const bool bitwise =
            got.size() == ls.probePredictions.size() &&
            std::memcmp(got.data(), ls.probePredictions.data(),
                        got.size() * sizeof(float)) == 0;
        out << "golden probe: "
            << (bitwise ? "reproduced bitwise" : "MISMATCH") << "\n";
        return bitwise ? 0 : 1;
    }
    if (op != "save" && op != "roundtrip") {
        throw std::invalid_argument(
            "snapshot wants save|verify|load|roundtrip");
    }

    const auto base = core::modelByName(args.get("model", "rm2_1"));
    const double max_bytes =
        args.getDouble("max-bytes", 64.0 * (1u << 20));
    const auto cfg_model = base.scaledToFit(max_bytes);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    const std::uint64_t version =
        static_cast<std::uint64_t>(args.getInt("version", 1));
    const core::EmbDtype dtype = parseDtypeOption(args);
    const std::size_t block_rows =
        static_cast<std::size_t>(args.getInt("block-rows", 256));

    const auto v = core::ModelVersion::build(cfg_model, version, seed,
                                             dtype, block_rows);
    if (!core::ModelSnapshot::save(path, *v->model, version, seed))
        throw core::IoError("snapshot save failed: " + path);
    printSnapshotInfo(out, core::ModelSnapshot::verifyFile(path));
    if (op == "save") {
        out << "saved " << path << " (temp-file + fsync + atomic "
            << "rename)\n";
        return 0;
    }

    // roundtrip: a loaded snapshot re-saved must be byte-identical —
    // payload bytes, checksums and golden probe all survive the trip.
    const core::LoadedSnapshot ls = core::ModelSnapshot::load(
        path, &cfg_model);
    const std::string again = path + ".roundtrip";
    if (!core::ModelSnapshot::save(again, *ls.model,
                                   ls.info.modelVersion,
                                   ls.info.weightSeed))
        throw core::IoError("roundtrip re-save failed: " + again);
    std::ifstream a(path, std::ios::binary);
    std::ifstream b(again, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    std::remove(again.c_str());
    const bool identical = !bytes_a.empty() && bytes_a == bytes_b;
    out << "roundtrip: save -> load -> re-save "
        << (identical ? "byte-identical" : "DIVERGED") << " ("
        << bytes_a.size() << " bytes)\n";
    return identical ? 0 : 1;
}

} // namespace

std::string
usage()
{
    return "dlrmopt <command> [options]\n"
           "\n"
           "commands:\n"
           "  models                      list Table-2 model presets\n"
           "  platforms                   list CPU platform presets\n"
           "  evaluate [options]          evaluate one configuration\n"
           "  sweep --vary <axis>         sweep "
           "scheme|hotness|cores|distance|amount\n"
           "  trace gen|info [options]    generate / inspect traces\n"
           "  tune [options]              auto-tune prefetching on "
           "this host\n"
           "  gemmtune [options]          auto-tune GEMM blocking "
           "tiles on this host\n"
           "  serve [options]             fault-tolerant serving "
           "session (real execution)\n"
           "  router [options]            one vs N instances "
           "serving from one queue and store\n"
           "  batch [options]             unbatched vs deadline-aware "
           "request coalescing\n"
           "  cache [options]             hot-tier hit rates by "
           "hotness class\n"
           "  chaos [options]             replay scripted fault "
           "timelines, block verification off/on\n"
           "  tenants [options]           multi-tenant fleet with "
           "weighted-fair queueing\n"
           "  snapshot save|verify|load|roundtrip --file PATH\n"
           "                              crash-consistent model "
           "snapshots\n"
           "\n"
           "common options:\n"
           "  --cpu SKL|CSL|ICL|SPR|Zen3   (default CSL)\n"
           "  --model rm1|rm2_1|rm2_2|rm2_3 (default rm2_1)\n"
           "  --hotness low|medium|high|random|one-item\n"
           "  --scheme "
           "baseline|hwpf-off|swpf|dpht|mpht|integrated\n"
           "  --cores N --batches N --sim-tables N --seed N\n"
           "  --pf-distance N --pf-amount N --pf-hint T0|T1|T2\n"
           "  --format text|csv|json\n"
           "\n"
           "gemmtune options:\n"
           "  --model NAME --repeats N --seed N\n"
           "  --m N (tune one coalesced batch size; default: one "
           "per m-bucket)\n"
           "  --quick (m in {1,16} only)\n"
           "  --dtype fp32|int8 (fp32 packed engine or the u8·s8 "
           "quantized engine)\n"
           "\n"
           "serve options:\n"
           "  --arrival-ms X --requests N --sla X --service-ms X\n"
           "  --cores N --retries N --no-admission --batch-size N\n"
           "  --max-bytes X (embedding scale-down budget)\n"
           "  --dtype fp32|bf16|int8 (serving precision floor; "
           "quantized store attached)\n"
           "  --fault-exception-rate P --fault-alloc-rate P\n"
           "  --fault-corrupt-rate P --fault-straggler-core N\n"
           "  --fault-straggler-factor X\n"
           "\n"
           "router options (plus the serve options above):\n"
           "  --instances N --straggler-instance N "
           "--straggler-factor X\n"
           "\n"
           "batch options (plus the serve options above):\n"
           "  --max-requests N --linger-ms X --calibrate\n"
           "  --service-base-ms X --service-per-sample-ms X\n"
           "\n"
           "hot-tier options (serve, batch, cache):\n"
           "  --cache-budget BYTES (pinned hot-tier byte budget; 0 = "
           "off,\n"
           "                        cache defaults to 4 MiB)\n"
           "  --cache-epoch-lookups N --cache-min-accesses N\n"
           "  cache additionally takes --warm-batches N --batches N "
           "--batch-size N\n"
           "\n"
           "chaos options (plus --instances and the serve options "
           "above):\n"
           "  --scenario all|crash-storm|rolling-corruption|"
           "flapping-straggler\n"
           "  --probation-ms X\n"
           "\n"
           "tenants options:\n"
           "  --tenants N --instances N --weights A,B,...\n"
           "  --day-ms X --arrival-ms X --amplitude A --sla X\n"
           "  --budget N (per-tenant admission budget)\n"
           "  --elastic --min-instances N\n"
           "  --scenario crash-storm|rolling-corruption|"
           "flapping-straggler\n"
           "\n"
           "snapshot options:\n"
           "  --file PATH (required)\n"
           "  --model NAME --max-bytes X --seed N --version V\n"
           "  --dtype fp32|bf16|int8 --block-rows N (save/roundtrip)\n"
           "  verify/load print the header and per-table block-"
           "checksum digests;\n"
           "  load additionally recomputes the golden probe "
           "(bitwise); roundtrip\n"
           "  re-saves a loaded snapshot and compares the files "
           "bytewise\n";
}

int
run(const ParsedArgs& args, std::ostream& out, std::ostream& err)
{
    try {
        if (args.command == "models")
            return cmdModels(out);
        if (args.command == "platforms")
            return cmdPlatforms(out);
        if (args.command == "evaluate")
            return cmdEvaluate(args, out);
        if (args.command == "sweep")
            return cmdSweep(args, out, err);
        if (args.command == "trace")
            return cmdTrace(args, out, err);
        if (args.command == "tune")
            return cmdTune(args, out);
        if (args.command == "gemmtune")
            return cmdGemmTune(args, out);
        if (args.command == "serve")
            return cmdServe(args, out);
        if (args.command == "router")
            return cmdRouter(args, out);
        if (args.command == "batch")
            return cmdBatch(args, out);
        if (args.command == "cache")
            return cmdCache(args, out);
        if (args.command == "chaos")
            return cmdChaos(args, out);
        if (args.command == "tenants")
            return cmdTenants(args, out);
        if (args.command == "snapshot")
            return cmdSnapshot(args, out);
        err << usage();
        return args.command.empty() ? 2 : 1;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace dlrmopt::cli
