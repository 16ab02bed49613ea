/**
 * @file
 * Tests for the CLI: argument parsing, config construction, command
 * dispatch, and output formats (run against small configurations).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "cli.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::cli;

ParsedArgs
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v = {"dlrmopt"};
    v.insert(v.end(), argv.begin(), argv.end());
    return parseArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliParse, CommandOptionsAndPositionals)
{
    const auto a = parse({"trace", "info", "file.bin", "--format",
                          "json", "--flag"});
    EXPECT_EQ(a.command, "trace");
    ASSERT_EQ(a.positional.size(), 2u);
    EXPECT_EQ(a.positional[0], "info");
    EXPECT_EQ(a.positional[1], "file.bin");
    EXPECT_EQ(a.get("format"), "json");
    EXPECT_EQ(a.get("flag"), "1"); // bare flag
    EXPECT_EQ(a.get("missing", "dflt"), "dflt");
}

TEST(CliParse, IntAndDoubleValidation)
{
    const auto a = parse({"evaluate", "--cores", "8", "--x", "abc"});
    EXPECT_EQ(a.getInt("cores", 1), 8);
    EXPECT_EQ(a.getInt("absent", 7), 7);
    EXPECT_THROW(a.getInt("x", 0), std::invalid_argument);
    EXPECT_THROW(a.getDouble("x", 0.0), std::invalid_argument);
}

TEST(CliParse, HotnessAndSchemeWords)
{
    EXPECT_EQ(parseHotness("low"), traces::Hotness::Low);
    EXPECT_EQ(parseHotness("one-item"), traces::Hotness::OneItem);
    EXPECT_THROW(parseHotness("warm"), std::invalid_argument);
    EXPECT_EQ(parseScheme("integrated"), core::Scheme::Integrated);
    EXPECT_EQ(parseScheme("hwpf-off"), core::Scheme::HwPfOff);
    EXPECT_THROW(parseScheme("turbo"), std::invalid_argument);
}

TEST(CliParse, BuildEvalConfig)
{
    const auto a = parse({"evaluate", "--cpu", "SPR", "--model",
                          "rm1", "--hotness", "high", "--scheme",
                          "swpf", "--cores", "4", "--pf-amount", "2",
                          "--pf-hint", "T1"});
    const auto cfg = buildEvalConfig(a);
    EXPECT_EQ(cfg.cpu.name, "SPR");
    EXPECT_EQ(cfg.model.name, "rm1");
    EXPECT_EQ(cfg.hotness, traces::Hotness::High);
    EXPECT_EQ(cfg.scheme, core::Scheme::SwPf);
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.pfAmount, 2);
    EXPECT_EQ(cfg.pfLocality, 2);
}

TEST(CliParse, RejectsBadCoreCounts)
{
    EXPECT_THROW(
        buildEvalConfig(parse({"evaluate", "--cores", "9999"})),
        std::invalid_argument);
}

TEST(CliRun, ListsModelsAndPlatforms)
{
    std::ostringstream out, err;
    EXPECT_EQ(run(parse({"models"}), out, err), 0);
    EXPECT_NE(out.str().find("rm2_3"), std::string::npos);
    out.str("");
    EXPECT_EQ(run(parse({"platforms"}), out, err), 0);
    EXPECT_NE(out.str().find("Zen3"), std::string::npos);
}

TEST(CliRun, UnknownCommandPrintsUsage)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"frobnicate"}), out, err), 0);
    EXPECT_NE(err.str().find("commands:"), std::string::npos);
}

TEST(CliRun, EvaluateJsonOnTinyModel)
{
    // rm1 with few sim batches stays fast enough for a unit test.
    std::ostringstream out, err;
    const int rc = run(parse({"evaluate", "--model", "rm1",
                              "--hotness", "high", "--scheme",
                              "baseline", "--cores", "1",
                              "--batches", "1", "--sim-tables", "4",
                              "--format", "json"}),
                       out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("\"batch_ms\":"), std::string::npos);
}

TEST(CliRun, TraceGenAndInfoRoundTrip)
{
    const std::string path = "/tmp/dlrmopt_cli_trace_test.bin";
    std::ostringstream out, err;
    int rc = run(parse({"trace", "gen", "--rows", "5000", "--tables",
                        "2", "--lookups", "4", "--batch-size", "8",
                        "--batches", "3", "--out", path.c_str()}),
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();

    out.str("");
    rc = run(parse({"trace", "info", path.c_str()}), out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("3 batches"), std::string::npos);
    EXPECT_NE(out.str().find("2 tables"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, GemmTunePrintsTileTableAndSpeedup)
{
    // One small coalesced batch size keeps the real-kernel sweep
    // unit-test fast while still exercising grid construction, the
    // baseline comparison, and cache installation for every layer of
    // both MLPs.
    std::ostringstream out, err;
    const int rc = run(parse({"gemmtune", "--model", "rm2_1", "--m",
                              "4", "--repeats", "1"}),
                       out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("tile autotune"), std::string::npos);
    EXPECT_NE(s.find("best tile"), std::string::npos);
    EXPECT_NE(s.find("speedup"), std::string::npos);
    EXPECT_NE(s.find("installed"), std::string::npos);
    // rm2_1 layer shapes appear (bottom 256->128, top final ->1).
    EXPECT_NE(s.find("256"), std::string::npos);
}

TEST(CliRun, GemmTuneRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"gemmtune", "--m", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"gemmtune", "--repeats", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"gemmtune", "--model", "nope"}), out, err),
              0);
}

TEST(CliRun, GemmTuneInt8DtypeTunesTheQuantizedEngine)
{
    std::ostringstream out, err;
    const int rc = run(parse({"gemmtune", "--model", "rm2_1", "--m",
                              "4", "--repeats", "1", "--dtype",
                              "int8"}),
                       out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("tile autotune (int8)"), std::string::npos);
    EXPECT_NE(s.find("speedup"), std::string::npos);
    EXPECT_NE(s.find("installed"), std::string::npos);
}

TEST(CliRun, GemmTuneRejectsNonGemmDtypes)
{
    // bf16 is storage-only (the MLPs run fp32 for it); unknown words
    // are rejected by the shared dtype parser.
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"gemmtune", "--dtype", "bf16"}), out, err),
              0);
    EXPECT_NE(err.str().find("bf16"), std::string::npos);
    std::ostringstream o2, e2;
    EXPECT_NE(run(parse({"gemmtune", "--dtype", "fp64"}), o2, e2), 0);
}

TEST(CliRun, ServeRunsBaselineAndDegradedSessions)
{
    // Tiny scaled model + short stream so the real-execution serving
    // session stays unit-test fast. Faults are injected to prove the
    // session survives them end to end.
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "60",
                   "--arrival-ms", "2.0", "--sla", "25", "--cores",
                   "2", "--retries", "3", "--fault-exception-rate",
                   "0.05", "--fault-straggler-core", "0",
                   "--fault-straggler-factor", "2.0", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("baseline"), std::string::npos);
    EXPECT_NE(s.find("degradation"), std::string::npos);
    EXPECT_NE(s.find("arrived 60"), std::string::npos);
    EXPECT_NE(s.find("p95"), std::string::npos);
}

TEST(CliRun, ServeRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"serve", "--requests", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"serve", "--fault-exception-rate", "2.0"}),
                  out, err),
              0);
    EXPECT_NE(run(parse({"serve", "--dtype", "fp64"}), out, err), 0);
    // A straggler core the instance does not have.
    std::ostringstream o2, e2;
    EXPECT_EQ(run(parse({"serve", "--model", "rm1", "--max-bytes",
                         "2000000", "--requests", "4", "--cores", "2",
                         "--fault-straggler-core", "7"}),
                  o2, e2),
              1);
    EXPECT_NE(e2.str().find("stragglerCore 7 out of range"),
              std::string::npos)
        << e2.str();
}

TEST(CliRun, ServeQuantizedPrecisionFloorCountsEveryDispatch)
{
    // --dtype int8 attaches a quantized store and floors every
    // dispatch at int8, so no row may report zero quantized
    // dispatches.
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "40",
                   "--arrival-ms", "2.0", "--sla", "25", "--cores",
                   "2", "--dtype", "int8", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("precision int8"), std::string::npos);
    EXPECT_NE(s.find("quantized"), std::string::npos);
    EXPECT_EQ(s.find(" 0 quantized"), std::string::npos);
}

TEST(CliRun, RouterComparesOneInstanceAgainstTheCluster)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"router", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "60",
                   "--arrival-ms", "2.0", "--sla", "25", "--cores",
                   "2", "--instances", "2", "--straggler-instance",
                   "1", "--straggler-factor", "4.0", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("one shared store"), std::string::npos);
    EXPECT_NE(s.find("1 instance "), std::string::npos);
    EXPECT_NE(s.find("2 instances"), std::string::npos);
    EXPECT_NE(s.find("straggler: instance 1"), std::string::npos);
    EXPECT_NE(s.find("req/s"), std::string::npos);
    EXPECT_NE(s.find("arrived 60"), std::string::npos);
}

TEST(CliRun, RouterRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"router", "--instances", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"router", "--cores", "2", "--instances",
                         "4"}),
                  out, err),
              0);
    // The routing policies and cross-instance failover are gone.
    for (const char *gone : {"--policy", "--failovers"}) {
        std::ostringstream o, e;
        EXPECT_EQ(run(parse({"router", gone, "1"}), o, e), 1) << gone;
        EXPECT_NE(e.str().find("error: "), std::string::npos) << gone;
        EXPECT_NE(e.str().find("was removed"), std::string::npos)
            << gone;
        EXPECT_TRUE(o.str().empty()) << gone;
    }
}

TEST(CliRun, BatchComparesUnbatchedAgainstCoalescing)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"batch", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "80",
                   "--arrival-ms", "1.0", "--sla", "25", "--cores",
                   "2", "--max-requests", "4", "--linger-ms", "1.0",
                   "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("unbatched"), std::string::npos);
    EXPECT_NE(s.find("batch 4 @ 0.0ms"), std::string::npos);
    EXPECT_NE(s.find("batch 4 @ 1.0ms"), std::string::npos);
    EXPECT_NE(s.find("served/dispatch"), std::string::npos);
    EXPECT_NE(s.find("req/s"), std::string::npos);
}

TEST(CliRun, BatchRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"batch", "--requests", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"batch", "--max-requests", "0"}), out, err),
              0);
    EXPECT_NE(run(parse({"batch", "--dtype", "int4"}), out, err), 0);
}

TEST(CliRun, BatchQuantizedPrecisionFloorRunsEveryRow)
{
    // --dtype bf16 floors the unbatched and coalesced rows alike:
    // every dispatch in every row counts as quantized.
    std::ostringstream out, err;
    const int rc =
        run(parse({"batch", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "60",
                   "--arrival-ms", "1.0", "--sla", "25", "--cores",
                   "2", "--max-requests", "4", "--linger-ms", "1.0",
                   "--dtype", "bf16", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("precision bf16"), std::string::npos);
    EXPECT_NE(s.find("unbatched"), std::string::npos);
    EXPECT_NE(s.find("batch 4 @ 1.0ms"), std::string::npos);
    EXPECT_NE(s.find("quantized"), std::string::npos);
    EXPECT_EQ(s.find(" 0 quantized"), std::string::npos);
}

TEST(CliRun, BatchRejectsTheRemovedStreamedFlags)
{
    // The streamed serving mode is gone; its flags must fail rather
    // than be ignored and print a different table.
    const auto expectRejected = [](const ParsedArgs& args,
                                   const std::string& flag) {
        std::ostringstream out, err;
        EXPECT_EQ(run(args, out, err), 1) << flag;
        EXPECT_EQ(err.str().rfind("error: " + flag, 0), 0u) << err.str();
        EXPECT_TRUE(out.str().empty()) << flag;
    };
    expectRejected(parse({"batch", "--streamed"}), "--streamed");
    expectRejected(parse({"batch", "--gather-fraction", "0.4"}),
                   "--gather-fraction");
}

TEST(CliRun, SweepRejectsUnknownAxis)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"sweep", "--vary", "moonphase"}), out, err),
              0);
}

TEST(CliRun, ChaosReplaysVerifyOffAndOnPerScenario)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"chaos", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "60",
                   "--arrival-ms", "1.0", "--sla", "25", "--cores",
                   "2", "--instances", "2", "--scenario",
                   "crash-storm", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("chaos replay"), std::string::npos);
    EXPECT_NE(s.find("crash-storm"), std::string::npos);
    EXPECT_NE(s.find("verify off"), std::string::npos);
    EXPECT_NE(s.find("verify on"), std::string::npos);
    EXPECT_NE(s.find("compliant"), std::string::npos);
}

TEST(CliRun, ChaosRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"chaos", "--scenario", "meteor-strike"}),
                  out, err),
              0);
    EXPECT_NE(run(parse({"chaos", "--cores", "2", "--instances",
                         "3"}),
                  out, err),
              0);
    EXPECT_NE(run(parse({"chaos", "--requests", "0"}), out, err), 0);
    for (const char *gone : {"--policy", "--failovers"}) {
        std::ostringstream o, e;
        EXPECT_EQ(run(parse({"chaos", gone, "rr"}), o, e), 1) << gone;
        EXPECT_NE(e.str().find("was removed"), std::string::npos)
            << gone;
    }
    // Usage advertises the new subcommand.
    std::ostringstream uout, uerr;
    run(parse({"frobnicate"}), uout, uerr);
    EXPECT_NE(uerr.str().find("chaos"), std::string::npos);
}

TEST(CliRun, TenantsRunsAWeightedElasticFleetSession)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"tenants", "--tenants", "2", "--max-bytes",
                   "1000000", "--day-ms", "30", "--arrival-ms", "0.5",
                   "--cores", "4", "--instances", "2", "--weights",
                   "2,1", "--elastic", "--min-instances", "1",
                   "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("2 tenant(s)"), std::string::npos);
    EXPECT_NE(s.find("elastic"), std::string::npos);
    EXPECT_NE(s.find("w2.0"), std::string::npos);
    EXPECT_NE(s.find("accounting conserved"), std::string::npos);
}

TEST(CliRun, TenantsReplaysAChaosScenarioConserved)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"tenants", "--tenants", "2", "--max-bytes",
                   "1000000", "--day-ms", "30", "--arrival-ms", "0.5",
                   "--cores", "4", "--instances", "2", "--scenario",
                   "crash-storm", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("accounting conserved"),
              std::string::npos);
}

TEST(CliRun, TenantsRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"tenants", "--tenants", "9"}), out, err), 0);
    EXPECT_NE(run(parse({"tenants", "--cores", "2", "--instances",
                         "4"}),
                  out, err),
              0);
    EXPECT_NE(run(parse({"tenants", "--tenants", "3", "--weights",
                         "1,2"}),
                  out, err),
              0);
    EXPECT_NE(run(parse({"tenants", "--day-ms", "0"}), out, err), 0);
    EXPECT_NE(run(parse({"tenants", "--scenario", "meteor-strike"}),
                  out, err),
              0);
    // Usage advertises the new subcommand.
    std::ostringstream uout, uerr;
    run(parse({"frobnicate"}), uout, uerr);
    EXPECT_NE(uerr.str().find("tenants"), std::string::npos);
}

TEST(CliRun, SnapshotSaveVerifyLoadRoundtrip)
{
    const std::string path = "/tmp/dlrmopt_cli_snapshot_test.snap";
    std::remove(path.c_str());

    std::ostringstream out, err;
    int rc = run(parse({"snapshot", "save", "--file", path.c_str(),
                        "--model", "rm1", "--max-bytes", "500000",
                        "--version", "7", "--seed", "9"}),
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("v7 (seed 9)"), std::string::npos);
    EXPECT_NE(out.str().find("atomic"), std::string::npos);
    EXPECT_NE(out.str().find("digest"), std::string::npos);

    out.str("");
    rc = run(parse({"snapshot", "verify", "--file", path.c_str()}),
             out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("verify OK"), std::string::npos);
    EXPECT_NE(out.str().find("fp32"), std::string::npos);

    out.str("");
    rc = run(parse({"snapshot", "load", "--file", path.c_str()}),
             out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("reproduced bitwise"), std::string::npos);

    std::remove(path.c_str());
}

TEST(CliRun, SnapshotQuantizedRoundtripIsByteIdentical)
{
    const std::string path = "/tmp/dlrmopt_cli_snapshot_rt.snap";
    std::remove(path.c_str());
    std::ostringstream out, err;
    const int rc =
        run(parse({"snapshot", "roundtrip", "--file", path.c_str(),
                   "--model", "rm1", "--max-bytes", "500000",
                   "--dtype", "int8", "--version", "2"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("int8"), std::string::npos);
    EXPECT_NE(out.str().find("byte-identical"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, SnapshotRejectsBadInvocations)
{
    std::ostringstream out, err;
    // No --file.
    EXPECT_NE(run(parse({"snapshot", "save"}), out, err), 0);
    // Unknown operation.
    EXPECT_NE(run(parse({"snapshot", "frobnicate", "--file",
                         "/tmp/x.snap"}),
                  out, err),
              0);
    // Verify of a file that does not exist reports an IoError.
    EXPECT_NE(run(parse({"snapshot", "verify", "--file",
                         "/tmp/dlrmopt_cli_no_such.snap"}),
                  out, err),
              0);
    EXPECT_NE(err.str().find("error:"), std::string::npos);
    // Usage advertises the subcommand.
    std::ostringstream uout, uerr;
    run(parse({""}), uout, uerr);
    EXPECT_NE(uerr.str().find("snapshot save|verify|load|roundtrip"),
              std::string::npos);
}


TEST(CliRun, CacheReportsPerClassHitRatesAndTotals)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"cache", "--model", "rm1", "--max-bytes",
                   "2000000", "--cache-budget", "262144",
                   "--batch-size", "4", "--warm-batches", "4",
                   "--batches", "6", "--seed", "3"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("tier budget"), std::string::npos);
    EXPECT_NE(s.find("class"), std::string::npos);
    EXPECT_NE(s.find("High"), std::string::npos);
    EXPECT_NE(s.find("Medium"), std::string::npos);
    EXPECT_NE(s.find("Low"), std::string::npos);
    EXPECT_NE(s.find("total: hit "), std::string::npos);
    EXPECT_NE(s.find("resident"), std::string::npos);
}

TEST(CliRun, CacheRunsAtEveryStoragePrecision)
{
    for (const char *dt : {"fp32", "bf16", "int8"}) {
        std::ostringstream out, err;
        const int rc = run(parse({"cache", "--model", "rm1",
                                  "--max-bytes", "2000000",
                                  "--cache-budget", "131072",
                                  "--batch-size", "4",
                                  "--warm-batches", "2", "--batches",
                                  "4", "--dtype", dt}),
                           out, err);
        EXPECT_EQ(rc, 0) << dt << ": " << err.str();
        EXPECT_NE(out.str().find(dt), std::string::npos) << dt;
    }
}

TEST(CliRun, CacheRejectsBadOptions)
{
    std::ostringstream out, err;
    EXPECT_NE(run(parse({"cache", "--batches", "0"}), out, err), 0);
    EXPECT_NE(
        run(parse({"cache", "--cache-min-accesses", "0"}), out, err),
        0);
    EXPECT_NE(run(parse({"cache", "--dtype", "fp64"}), out, err), 0);
}

TEST(CliRun, ServeAttachesAHotTierFromCacheBudget)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "40",
                   "--arrival-ms", "2.0", "--sla", "25", "--cores",
                   "2", "--cache-budget", "262144",
                   "--cache-epoch-lookups", "200",
                   "--cache-min-accesses", "1", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("hot tier"), std::string::npos);
    EXPECT_NE(s.find("hit "), std::string::npos);
    EXPECT_NE(s.find("promoted"), std::string::npos);

    // Without the option the session reports no tier at all.
    std::ostringstream bare, err2;
    ASSERT_EQ(run(parse({"serve", "--model", "rm1", "--max-bytes",
                         "2000000", "--batch-size", "4", "--requests",
                         "20", "--arrival-ms", "2.0", "--cores", "2",
                         "--seed", "5"}),
                  bare, err2),
              0)
        << err2.str();
    EXPECT_EQ(bare.str().find("hot tier"), std::string::npos);
}

TEST(CliRun, BatchAttachesAHotTierFromCacheBudget)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"batch", "--model", "rm1", "--max-bytes",
                   "2000000", "--batch-size", "4", "--requests", "40",
                   "--arrival-ms", "1.0", "--sla", "25", "--cores",
                   "2", "--max-requests", "4", "--linger-ms", "1.0",
                   "--cache-budget", "262144",
                   "--cache-epoch-lookups", "200",
                   "--cache-min-accesses", "1", "--seed", "5"}),
            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    const std::string s = out.str();
    EXPECT_NE(s.find("hot tier"), std::string::npos);
    EXPECT_NE(s.find("hit "), std::string::npos);
}

} // namespace
