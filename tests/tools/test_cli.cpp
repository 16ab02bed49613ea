/**
 * @file
 * Tests for the CLI: argument parsing, config construction, command
 * dispatch, and output formats (run against small configurations).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

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

/**
 * Runs `cmd opt -1` for each count option in @p opts and expects a
 * typed error naming the option, raised while the options are parsed
 * (a wrapped count must never reach a trace, topology or fleet).
 */
void
expectNegativeCountsRejected(const char *cmd,
                             std::initializer_list<const char *> opts)
{
    for (const char *opt : opts) {
        std::ostringstream out, err;
        EXPECT_EQ(run(parse({cmd, opt, "-1"}), out, err), 1)
            << cmd << " " << opt;
        EXPECT_NE(err.str().find(std::string("error: ") + opt +
                                 " must be >= 0"),
                  std::string::npos)
            << cmd << " " << opt << ": " << err.str();
    }
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

TEST(CliRun, TileTunerSubcommandIsGone)
{
    // The GEMM runs one fixed blocking rule; the tuner subcommand
    // falls through to the usage error like any unknown command.
    std::ostringstream out, err;
    EXPECT_EQ(run(parse({"gemmtune", "--m", "4"}), out, err), 1);
    EXPECT_NE(err.str().find("commands:"), std::string::npos);
    EXPECT_TRUE(out.str().empty());
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

TEST(CliRun, ModelAndTraceCountOptionsRejectNegatives)
{
    expectNegativeCountsRejected("evaluate",
                                 {"--batches", "--sim-tables"});
    for (const char *opt : {"--rows", "--tables", "--lookups",
                            "--batch-size", "--batches"}) {
        std::ostringstream out, err;
        EXPECT_EQ(run(parse({"trace", "gen", opt, "-1"}), out, err), 1)
            << opt;
        EXPECT_NE(err.str().find(std::string(opt) + " must be >= 0"),
                  std::string::npos)
            << opt << ": " << err.str();
    }
    expectNegativeCountsRejected(
        "tune", {"--rows", "--dim", "--samples", "--lookups"});
}

TEST(CliRun, ServeRunsBaselineAndDegradedSessions)
{
    // Tiny scaled model + short stream so the real-execution serving
    // session stays unit-test fast. Faults are injected to prove the
    // session survives them end to end.
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--batch-size", "4",
                   "--requests", "60",
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
    for (const std::vector<std::string>& bad :
         {std::vector<std::string>{"--cache-budget", "-5"},
          {"--cache-epoch-lookups", "-1"},
          {"--cache-min-accesses", "-1"}}) {
        std::ostringstream o, e;
        EXPECT_EQ(run(parse({"serve", "--model", "rm1", "--requests", "4",
                             "--cache-budget", "262144",
                             bad[0].c_str(), bad[1].c_str()}),
                      o, e),
                  1)
            << bad[0] << " " << bad[1];
        EXPECT_NE(e.str().find(bad[0]), std::string::npos) << e.str();
    }
    // A straggler core the instance does not have.
    std::ostringstream o2, e2;
    EXPECT_EQ(run(parse({"serve", "--model", "rm1", "--requests", "4",
                         "--cores", "2",
                         "--fault-straggler-core", "7"}),
                  o2, e2),
              1);
    EXPECT_NE(e2.str().find("stragglerCore 7 out of range"),
              std::string::npos)
        << e2.str();
    expectNegativeCountsRejected(
        "serve", {"--cores", "--requests", "--retries", "--batch-size"});
}

TEST(CliRun, ServeQuantizedPrecisionFloorCountsEveryDispatch)
{
    // --dtype int8 attaches a quantized store and floors every
    // dispatch at int8, so no row may report zero quantized
    // dispatches.
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--batch-size", "4",
                   "--requests", "40",
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
        run(parse({"router", "--model", "rm1", "--batch-size", "4",
                   "--requests", "60",
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
    expectNegativeCountsRejected("router",
                                 {"--cores", "--instances", "--requests",
                                  "--retries", "--batch-size"});
    // A straggler instance the fleet does not have (2 by default).
    for (const char *bad : {"2", "99", "-2"}) {
        std::ostringstream o, e;
        EXPECT_EQ(run(parse({"router", "--straggler-instance", bad}), o,
                      e),
                  1)
            << bad;
        EXPECT_NE(e.str().find("error: --straggler-instance"),
                  std::string::npos)
            << bad << ": " << e.str();
    }
}

TEST(CliRun, MaxBytesIsRangeChecked)
{
    // Every value here is rejected while the options are parsed, so
    // no model is built. "1000" is below rm1's 64 MiB floor
    // (4 tables x 65,536 rows), which scaledToFit would silently
    // exceed.
    const std::string file = testing::TempDir() + "no-such-dir/m.snap";
    const std::vector<std::vector<std::string>> cmds = {
        {"serve"},   {"router"},   {"batch"},
        {"cache"},   {"chaos"},    {"tenants"},
        {"snapshot", "save", "--file", file}};
    for (const auto& cmd : cmds) {
        for (const char *bad : {"-1", "0", "nan", "inf", "1000"}) {
            std::vector<const char *> argv = {"dlrmopt"};
            for (const std::string& a : cmd)
                argv.push_back(a.c_str());
            for (const char *a : {"--model", "rm1", "--max-bytes", bad})
                argv.push_back(a);
            std::ostringstream out, err;
            EXPECT_EQ(run(parseArgs(static_cast<int>(argv.size()),
                                    argv.data()),
                          out, err),
                      1)
                << cmd[0] << " " << bad;
            EXPECT_NE(err.str().find(std::string("error: --max-bytes ") +
                                     bad),
                      std::string::npos)
                << cmd[0] << " " << bad << ": " << err.str();
        }
    }
    // The floor itself is a budget the model honours: the command
    // gets past --max-bytes and stops at the next bad option.
    std::ostringstream out, err;
    EXPECT_EQ(run(parse({"serve", "--model", "rm1", "--max-bytes",
                         "67108864", "--requests", "0"}),
                  out, err),
              1);
    EXPECT_NE(err.str().find("--requests"), std::string::npos)
        << err.str();
}

TEST(CliRun, MaxBytesAboveThisHostsMemoryIsRejected)
{
    // rm2_3 unscaled holds 1e6 rows x 128 x 4 B x 170 tables of
    // embeddings. --cores 0 stops the command right after parsing if
    // the memory check ever lets the budget through.
    const double rm2_3_bytes = 1e6 * 128 * 4 * 170;
    const double ram = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                       static_cast<double>(sysconf(_SC_PAGESIZE));
    if (ram <= 0.0 || ram >= rm2_3_bytes)
        GTEST_SKIP() << "host memory holds the unscaled rm2_3";
    std::ostringstream out, err;
    EXPECT_EQ(run(parse({"serve", "--model", "rm2_3", "--max-bytes",
                         "1e30", "--cores", "0"}),
                  out, err),
              1);
    EXPECT_NE(err.str().find("physical memory"), std::string::npos)
        << err.str();
}

TEST(CliRun, BatchComparesUnbatchedAgainstCoalescing)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"batch", "--model", "rm1", "--batch-size", "4",
                   "--requests", "80",
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
    expectNegativeCountsRejected("batch",
                                 {"--cores", "--requests", "--retries",
                                  "--batch-size", "--max-requests"});
}

TEST(CliRun, BatchQuantizedPrecisionFloorRunsEveryRow)
{
    // --dtype bf16 floors the unbatched and coalesced rows alike:
    // every dispatch in every row counts as quantized.
    std::ostringstream out, err;
    const int rc =
        run(parse({"batch", "--model", "rm1", "--batch-size", "4",
                   "--requests", "60",
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
        run(parse({"chaos", "--model", "rm1", "--batch-size", "4",
                   "--requests", "60",
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
    expectNegativeCountsRejected("chaos",
                                 {"--cores", "--instances", "--requests",
                                  "--retries", "--batch-size"});
    // Usage advertises the new subcommand.
    std::ostringstream uout, uerr;
    run(parse({"frobnicate"}), uout, uerr);
    EXPECT_NE(uerr.str().find("chaos"), std::string::npos);
}

TEST(CliRun, TenantsRunsAWeightedElasticFleetSession)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"tenants", "--tenants", "2", "--day-ms", "30",
                   "--arrival-ms", "0.5",
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
        run(parse({"tenants", "--tenants", "2", "--day-ms", "30",
                   "--arrival-ms", "0.5",
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
    expectNegativeCountsRejected("tenants",
                                 {"--tenants", "--cores", "--instances",
                                  "--budget", "--batch-size",
                                  "--max-requests"});
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
                        "--model", "rm1", "--version", "7", "--seed", "9"}),
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
                   "--model", "rm1", "--dtype", "int8", "--version", "2"}),
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
        run(parse({"cache", "--model", "rm1", "--cache-budget", "262144",
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
    EXPECT_NE(s.find("| epoch mean "), std::string::npos);
}

TEST(CliRun, CacheRunsAtEveryStoragePrecision)
{
    for (const char *dt : {"fp32", "bf16", "int8"}) {
        std::ostringstream out, err;
        const int rc = run(parse({"cache", "--model", "rm1",
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
    // Negative sizes and counts used to wrap to huge unsigned values
    // (a whole-table tier, loop counts near 2^64, a minAccesses no
    // row reaches); each must be refused before any model is built.
    for (const std::vector<std::string>& bad :
         {std::vector<std::string>{"--cache-budget", "-5"},
          {"--cache-budget", "nan"},
          {"--cache-budget", "1e30"},
          {"--cache-min-accesses", "-1"},
          {"--cache-min-accesses", "4294967296"},
          {"--batches", "-1"},
          {"--warm-batches", "-1"},
          {"--batch-size", "-1"}}) {
        std::ostringstream o, e;
        EXPECT_EQ(run(parse({"cache", bad[0].c_str(), bad[1].c_str()}),
                      o, e),
                  1)
            << bad[0] << " " << bad[1];
        EXPECT_NE(e.str().find(bad[0]), std::string::npos) << e.str();
    }
}

TEST(CliRun, ServeAttachesAHotTierFromCacheBudget)
{
    std::ostringstream out, err;
    const int rc =
        run(parse({"serve", "--model", "rm1", "--batch-size", "4",
                   "--requests", "40",
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
    ASSERT_EQ(run(parse({"serve", "--model", "rm1", "--batch-size", "4",
                         "--requests",
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
        run(parse({"batch", "--model", "rm1", "--batch-size", "4",
                   "--requests", "40",
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
