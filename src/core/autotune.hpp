/**
 * @file
 * Runtime auto-tuning of the software-prefetch configuration for the
 * embedding stage.
 *
 * Sec. 6.4 of the paper reports that the optimal prefetch amount is
 * platform-dependent (8 lines on SKL/CSL, 2 on ICL/SPR, 4 on Zen3)
 * and the optimal distance workload-dependent (Fig. 10b). tunePrefetch
 * measures the real embedding_bag kernel on the current host over a
 * candidate grid and returns the fastest spec — the deployment-time
 * counterpart of the paper's manual tuning.
 */

#ifndef DLRMOPT_CORE_AUTOTUNE_HPP
#define DLRMOPT_CORE_AUTOTUNE_HPP

#include <vector>

#include "core/embedding.hpp"

namespace dlrmopt::core
{

/** One measured candidate. */
struct TuneMeasurement
{
    PrefetchSpec spec;
    double millis = 0.0; //!< best-of-repeats kernel time
};

/** Outcome of a tuning run. */
struct TuneResult
{
    PrefetchSpec best;     //!< fastest spec ({} if baseline won)
    double baselineMs = 0.0;
    double bestMs = 0.0;
    std::vector<TuneMeasurement> measurements;

    /** Speedup of the winner over no software prefetching. */
    double
    speedup() const
    {
        return bestMs > 0.0 ? baselineMs / bestMs : 1.0;
    }
};

/**
 * Grid of candidate specs to try. The default grid crosses the
 * paper's distance sweep {1,2,4,8,16} with amounts {2,4,full-row}
 * at T0 locality.
 *
 * @param row_lines Cache lines per embedding row (dim / 16).
 */
std::vector<PrefetchSpec> defaultTuneGrid(std::size_t row_lines);

/**
 * Measures embedding_bag over @p candidates (plus the no-prefetch
 * baseline) on real hardware and returns the fastest.
 *
 * @param table Table to drive (should exceed the LLC for meaningful
 *        results).
 * @param indices Flat lookup indices (e.g. from a TraceGenerator).
 * @param offsets samples + 1 offsets.
 * @param samples Pooled-bag count.
 * @param candidates Specs to try; empty = defaultTuneGrid().
 * @param repeats Timed repetitions per candidate (best is kept).
 */
TuneResult tunePrefetch(const EmbeddingTable& table,
                        const RowIndex *indices,
                        const RowIndex *offsets, std::size_t samples,
                        std::vector<PrefetchSpec> candidates = {},
                        int repeats = 3);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_AUTOTUNE_HPP
