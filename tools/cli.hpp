/**
 * @file
 * Command-line interface for the dlrmopt library: argument parsing
 * and command dispatch, kept separate from main() so the parser is
 * unit-testable.
 *
 * Subcommands:
 *   models                      list Table-2 model presets
 *   platforms                   list Sec. 6.4 CPU presets
 *   evaluate [options]          one simulated-platform evaluation
 *   sweep --vary <axis> [...]   CSV sweep over one axis
 *   trace gen|info [...]        generate / inspect binary traces
 *   tune [options]              real-host prefetch auto-tune
 *   serve [options]             fault-tolerant serving session with
 *                               admission control, retries, optional
 *                               fault injection and degradation
 *                               (--dtype sets the precision floor)
 *   router [options]            one vs N instances serving from one
 *                               queue over one shared embedding store
 *   batch [options]             unbatched vs deadline-aware request
 *                               coalescing on the batched forward
 *                               path (real execution; --dtype sets
 *                               the precision floor)
 *   chaos [options]             scripted fault timelines replayed
 *                               with block verification off and on
 *   tenants [options]           multi-tenant fleet session: weighted-
 *                               fair queueing, per-tenant SLAs and
 *                               budgets, optional elastic capacity
 */

#ifndef DLRMOPT_TOOLS_CLI_HPP
#define DLRMOPT_TOOLS_CLI_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "platform/evaluator.hpp"

namespace dlrmopt::cli
{

/** Parsed command line: subcommand, positionals, --key value pairs. */
struct ParsedArgs
{
    std::string command;
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    bool has(const std::string& key) const
    {
        return options.count(key) != 0;
    }

    /** Option value with a default. */
    std::string get(const std::string& key,
                    const std::string& fallback = "") const;

    /** Integer option; throws std::invalid_argument on bad input. */
    long getInt(const std::string& key, long fallback) const;

    /** Double option; throws std::invalid_argument on bad input. */
    double getDouble(const std::string& key, double fallback) const;

    /** Non-negative integer option (a count); throws
     *  std::invalid_argument on bad or negative input. */
    std::size_t getCount(const std::string& key,
                         std::size_t fallback) const;

    /** Non-negative byte size (any finite number, truncated); throws
     *  std::invalid_argument on a negative, non-finite or
     *  unrepresentable value. */
    std::size_t getBytes(const std::string& key, double fallback) const;
};

/**
 * Parses argv into a ParsedArgs. Flags are "--key value"; a flag at
 * the end of the line or followed by another flag gets value "1".
 *
 * @throws std::invalid_argument on malformed input (e.g. empty key).
 */
ParsedArgs parseArgs(int argc, const char *const *argv);

/** Maps a CLI hotness word (low/medium/high/random/one-item). */
traces::Hotness parseHotness(const std::string& v);

/** Maps a CLI scheme word (baseline/hwpf-off/swpf/dpht/mpht/integrated). */
core::Scheme parseScheme(const std::string& v);

/** Builds an EvalConfig from parsed options (shared by evaluate/sweep). */
platform::EvalConfig buildEvalConfig(const ParsedArgs& args);

/**
 * Runs the CLI. Returns the process exit code. Output goes to
 * @p out; diagnostics to @p err.
 */
int run(const ParsedArgs& args, std::ostream& out, std::ostream& err);

/** Usage text. */
std::string usage();

} // namespace dlrmopt::cli

#endif // DLRMOPT_TOOLS_CLI_HPP
