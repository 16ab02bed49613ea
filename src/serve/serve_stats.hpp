/**
 * @file
 * Common result record for serving sessions, shared by the real
 * request server (serve/server.hpp) and the shedding-aware queueing
 * simulator (serve/queue_sim.hpp) so simulated and real serving paths
 * report comparable numbers.
 */

#ifndef DLRMOPT_SERVE_SERVE_STATS_HPP
#define DLRMOPT_SERVE_SERVE_STATS_HPP

#include <cstddef>
#include <string>

#include "serve/latency_stats.hpp"

namespace dlrmopt::serve
{

/**
 * Outcome counters and latency distribution of one serving session.
 *
 * Latency samples cover *served* requests only; shed and failed
 * requests never produce a latency.
 */
struct ServeStats
{
    std::size_t arrived = 0; //!< requests offered by the load gen
    std::size_t served = 0;  //!< completed within the session
    std::size_t shed = 0;    //!< rejected on arrival by admission ctl
    std::size_t failed = 0;  //!< gave up after exhausting retries
    std::size_t retried = 0; //!< individual retry attempts issued

    LatencyStats latency; //!< end-to-end latency of served requests

    /** Dispatches executed on the virtual clock. Without batching
     *  every attempt is one dispatch; with coalescing enabled,
     *  served / dispatches is the mean coalesced batch size. */
    std::size_t dispatches = 0;

    /** Virtual end time of the last completed dispatch. served /
     *  makespanMs compares sustained throughput across policies over
     *  the same arrival stream. */
    double makespanMs = 0.0;

    double serverUtilization = 0.0; //!< busy time / total capacity

    /** Real kernel wall-clock spent on inference (0 in pure sim). */
    double execTotalMs = 0.0;

    std::size_t degradeEscalations = 0; //!< tier upshifts observed
    int finalTier = 0;                  //!< degradation tier at end

    /** Dispatches executed at reduced precision (bf16/int8 tiers).
     *  quantDispatches > 0 with shed == 0 is the signature of the
     *  quantize-before-shed ladder doing its job. */
    std::size_t quantDispatches = 0;

    /** Fraction of arrived requests rejected on arrival. */
    double
    shedRate() const
    {
        return arrived
            ? static_cast<double>(shed) / static_cast<double>(arrived)
            : 0.0;
    }

    /** One-line human-readable summary (served/shed/.../percentiles). */
    std::string summary() const;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_SERVE_STATS_HPP
