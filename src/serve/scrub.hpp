/**
 * @file
 * Background checksum scrubbing over the shared EmbeddingStore.
 *
 * The on-demand integrity path (FleetConfig::verifyBlocks) verifies
 * only the blocks a request's lookups touch, so a bit flip in a cold
 * block sits undetected until an unlucky request lands on it — by
 * which time a long-tail of requests may already have raced past it.
 * An EmbeddingScrubber closes that gap the way production memory
 * scrubbers do: on a periodic idle tick of the virtual clock it
 * verifies the next few blocks of a round-robin sweep over every
 * (table, block) pair, repairing (regenerating the as-built bytes)
 * what it finds. Detection latency for *any* flipped bit is bounded
 * by one sweep period instead of by request luck.
 *
 * Like every resilience component here, the scrubber is deterministic
 * on the virtual clock: scrub ticks land at scripted times, the sweep
 * order is fixed, and the coverage counters are bit-reproducible.
 */

#ifndef DLRMOPT_SERVE_SCRUB_HPP
#define DLRMOPT_SERVE_SCRUB_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/embedding_store.hpp"
#include "core/hot_tier.hpp"

namespace dlrmopt::serve
{

/** Background-scrub knobs. */
struct ScrubConfig
{
    bool enabled = false;

    /** Virtual ms between scrub ticks. */
    double intervalMs = 10.0;

    /** Blocks verified per tick. With numBlocks() * numTables() total
     *  blocks, one full sweep takes ceil(total / blocksPerTick) ticks
     *  — the worst-case detection latency for a silent flip. */
    std::size_t blocksPerTick = 4;

    /** Regenerate a corrupt block's as-built bytes on detection;
     *  false only counts (verify-only scrub over a const store). */
    bool repair = true;

    /** @throws std::invalid_argument on a non-positive interval or
     *          zero blocksPerTick. */
    void validate() const;
};

/**
 * Round-robin block scrubber over one EmbeddingStore.
 */
class EmbeddingScrubber
{
  public:
    /**
     * Verify-only scrubber: detects and counts, never repairs.
     *
     * @throws std::invalid_argument when cfg fails validate(), the
     *         store is null, or cfg.repair is set (a const store
     *         cannot be repaired).
     */
    EmbeddingScrubber(std::shared_ptr<const core::EmbeddingStore> store,
                      const ScrubConfig& cfg);

    /**
     * Repairing scrubber over a mutable store handle.
     *
     * @throws std::invalid_argument when cfg fails validate() or the
     *         store is null.
     */
    EmbeddingScrubber(std::shared_ptr<core::EmbeddingStore> store,
                      const ScrubConfig& cfg);

    /**
     * Advances the scrubber to @p now_ms, running every tick whose
     * scheduled time has passed (ticks are never skipped: a long gap
     * between calls runs the backlog, keeping coverage independent of
     * caller cadence). Returns the number of blocks verified by this
     * call. No-op when disabled.
     */
    std::size_t advanceTo(double now_ms);

    /**
     * Repoints the sweep at a different store — the live-reload
     * commit path: after a version swap, scrub ticks must verify the
     * instance's *current* version's blocks, not keep sweeping a
     * retiring store whose refcount is only waiting on in-flight
     * work. The sweep cursor restarts (block geometry may differ);
     * tick schedule and counters carry over (coverage counters span
     * versions, like a machine-lifetime scrubber's do). Thread-safe
     * against a concurrent advanceTo.
     *
     * @throws std::invalid_argument on a null store.
     */
    void retarget(std::shared_ptr<core::EmbeddingStore> store);

    /**
     * Extends the sweep to a hot tier (borrowed; appends — a fleet
     * attaches every replica's tier over this store): each tick
     * additionally verifies cfg.blocksPerTick of each attached tier's
     * checksum blocks through HotTierCache::scrubTick, which
     * quarantines and repairs (re-copies from the cold store) what it
     * finds. Store blocks are scrubbed first within a tick, so a flip
     * that hit both copies is repaired cold-first and the tier repair
     * picks up clean bytes. Tier coverage counters live in
     * HotTierStats, store coverage in this scrubber's counters. A
     * null tier is ignored.
     */
    void attachHotTier(core::HotTierCache *tier);

    /// @name Coverage counters
    /// @{

    std::uint64_t blocksScrubbed() const;
    std::uint64_t corruptionsFound() const;
    std::uint64_t blocksRepaired() const;

    /** Completed full sweeps over every (table, block) pair. */
    std::uint64_t sweepsCompleted() const;

    /** Fraction of the current sweep already verified, in [0, 1). */
    double sweepProgress() const;

    /// @}

    /** Total (table, block) pairs in one sweep. */
    std::size_t blocksPerSweep() const;

  private:
    void scrubOne();

    mutable std::mutex _mu;
    ScrubConfig _cfg;
    std::shared_ptr<const core::EmbeddingStore> _store;
    std::shared_ptr<core::EmbeddingStore> _mutableStore; //!< aliases
    std::vector<core::HotTierCache *> _tiers; //!< borrowed
    std::size_t _totalBlocks;
    std::size_t _cursor = 0;   //!< next block index in the sweep
    double _nextTickMs;
    std::uint64_t _blocksScrubbed = 0;
    std::uint64_t _corruptions = 0;
    std::uint64_t _repaired = 0;
    std::uint64_t _sweeps = 0;
};

} // namespace dlrmopt::serve

#endif // DLRMOPT_SERVE_SCRUB_HPP
