/**
 * @file
 * Software-managed hot tier over the shared cold EmbeddingStore.
 *
 * The paper's access streams are heavily skewed (Sec. 3: 3/24/60%
 * unique fractions with small power-law hot sets), yet the flat bag
 * path pays the full DRAM gather cost for every row. A HotTierCache
 * pins verbatim copies of the hottest rows in one contiguous,
 * 64B-aligned buffer sized from a byte budget — the CPU analog of the
 * hot/cold near-memory split in UPMEM-DLRM — so the dominant fraction
 * of lookups lands in a few MB of LLC-resident memory instead of a
 * multi-GB scatter, and needs no software prefetch (the tier IS the
 * prefetch).
 *
 * Three properties the serving layer depends on:
 *
 *  - **Bitwise identity.** Rows are copied verbatim at the store's
 *    dtype (fp32 floats, bf16 patterns, fused int8 rows) and
 *    accumulated by the exact per-row kernels the cold bag dispatches
 *    to, in the same stream order — predictions are bit-for-bit
 *    identical with the tier on or off, at every EmbDtype and
 *    SimdLevel. The tier is purely a placement optimization.
 *
 *  - **Counted admission, epoch'd promotion.** Every served lookup
 *    bumps a per-row access counter (relaxed atomics — the fast path
 *    takes a shared lock only). On an epoch boundary (a lookup-count
 *    trigger, or an explicit call) the top rows by count are promoted
 *    and stale residents demoted, with counters decayed so the tier
 *    tracks hot-set drift mid-session instead of fossilizing the
 *    first hour's hot set. An epoch walks only the rows whose counter
 *    is nonzero (a tracked-row list the lookups append to), so its
 *    cost follows the rows the window touched, not tables x rows.
 *
 *  - **Tiered integrity.** The tier is one more DRAM-resident copy,
 *    so it checksums like the cold store: per-block FNV-1a sums over
 *    the pinned slots, verify/scrub/repair/quarantine. A corrupt tier
 *    block is quarantined (probes fall through to the intact cold
 *    row — still the right bytes) and repaired by re-copying from the
 *    cold store; zero wrong predictions, same guarantee as cold-store
 *    corruption.
 */

#ifndef DLRMOPT_CORE_HOT_TIER_HPP
#define DLRMOPT_CORE_HOT_TIER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/embedding_store.hpp"

namespace dlrmopt::core
{

/** Hot-tier sizing, admission, and integrity knobs. */
struct HotTierConfig
{
    /**
     * Byte budget for the pinned slot buffer. Capacity in rows is
     * budgetBytes / slot stride (the stored row size rounded up to a
     * 64 B line). 0 disables the tier: bags pass straight through to
     * the cold store.
     */
    std::size_t budgetBytes = 0;

    /**
     * Served lookups between automatic promotion/demotion epochs.
     * 0 means epochs run only when endEpoch() is called explicitly.
     */
    std::size_t epochLookups = 0;

    /**
     * Multiplicative access-counter decay applied at each epoch
     * boundary, in [0, 1): 0 forgets everything each epoch, values
     * near 1 remember long histories (and adapt slowly to drift).
     */
    double decay = 0.5;

    /** Minimum accesses in the current epoch window for a row to be
     *  considered for promotion (keeps one-hit wonders out). */
    std::uint32_t minAccesses = 2;

    /** Pinned slots per tier checksum block (mirrors the cold store's
     *  blockRows; the last block may be short). */
    std::size_t blockRows = 64;

    /**
     * Verify the tier blocks a bag's resident lookups touch before
     * accumulating — the tier-side mirror of the fleet's
     * FleetConfig::verifyBlocks path. A corrupt block is
     * quarantined and repaired from the cold store before any byte of
     * it is served, so even an unscrubbed flip causes zero wrong
     * predictions (at a per-bag verification cost).
     */
    bool verifyTouched = false;

    /** @throws std::invalid_argument on decay outside [0, 1), zero
     *          blockRows, or zero minAccesses. */
    void validate() const;
};

/** Counter snapshot (cumulative since construction). */
struct HotTierStats
{
    std::uint64_t hits = 0;        //!< lookups served from the tier
    std::uint64_t misses = 0;      //!< lookups that fell through
    std::uint64_t promotions = 0;  //!< rows newly pinned at an epoch
    std::uint64_t demotions = 0;   //!< rows evicted at an epoch
    std::uint64_t epochs = 0;      //!< promotion/demotion passes run
    std::uint64_t epochNs = 0;     //!< wall time inside every epoch's
                                   //!< exclusive section, summed
    std::uint64_t epochMaxNs = 0;  //!< longest single epoch

    std::uint64_t blocksScrubbed = 0;
    std::uint64_t corruptionsFound = 0;
    std::uint64_t blocksRepaired = 0;
    std::uint64_t blocksQuarantined = 0;

    std::size_t residentRows = 0;  //!< currently pinned rows
    std::size_t capacityRows = 0;  //!< budget in rows
    std::size_t residentBytes = 0; //!< pinned payload bytes

    double
    hitRate() const
    {
        const std::uint64_t n = hits + misses;
        return n == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(n);
    }

    /** Mean wall time of one epoch in milliseconds (0 before the
     *  first epoch). */
    double
    epochMeanMs() const
    {
        return epochs == 0 ? 0.0
                           : static_cast<double>(epochNs) / 1e6 /
                                 static_cast<double>(epochs);
    }

    double
    occupancy() const
    {
        return capacityRows == 0
                   ? 0.0
                   : static_cast<double>(residentRows) /
                         static_cast<double>(capacityRows);
    }
};

/**
 * Per-instance replicated hot tier over one shared EmbeddingStore.
 *
 * Thread model: bag(), recordAccess() and the read-only queries take
 * a shared lock (any number of serving threads probe concurrently;
 * counters are relaxed atomics). A lookup that finds a row's counter
 * at zero queues the row for the tracked-row list; each bag() appends
 * its queue once, under a small list mutex, still inside its shared
 * section. Epoch rebuilds, scrubbing, repair, retargeting, reset and
 * fault injection take the exclusive lock — promotion/demotion is a
 * stop-the-world swap, never a torn read, and no append can race the
 * epoch's rewrite of the list.
 *
 * An epoch makes one fused pass over the tracked rows, collecting
 * candidates and decaying their counters, then rewrites every slot
 * in hotness order (slot j holds the j-th hottest row) and
 * re-checksums every block.
 */
class HotTierCache
{
  public:
    /**
     * Builds an (initially empty) tier over @p cold. All tables of
     * the store share one slot buffer; rows from any table compete
     * for the same budget by access count.
     *
     * @throws std::invalid_argument when cfg fails validate() or the
     *         store is null.
     */
    HotTierCache(std::shared_ptr<const EmbeddingStore> cold,
                 const HotTierConfig& cfg);

    const HotTierConfig& config() const { return _cfg; }

    /** The cold store this tier currently fronts. */
    const std::shared_ptr<const EmbeddingStore>& coldStore() const
    {
        return _cold;
    }

    EmbDtype dtype() const { return _dtype; }

    /** Budget in pinned rows (budgetBytes / slotStride()). */
    std::size_t capacityRows() const { return _capacity; }

    /** Bytes one pinned slot occupies: storedRowBytes() rounded up to
     *  a 64 B cache line, so every slot starts line-aligned. */
    std::size_t slotStride() const { return _stride; }

    /**
     * True when this tier fronts exactly @p store — the guard every
     * execution path checks before probing. A dispatch pinned to a
     * different model version (canary, mid-rollout) fails the match
     * and gathers from its own store; the tier serves only the
     * version it was built (or last retargeted) against.
     */
    bool
    matches(const EmbeddingStore& store) const
    {
        return &store == _cold.get();
    }

    /**
     * Tiered embedding_bag over table @p table: bitwise-identical
     * output to coldStore()->table(table).bag(...), serving resident
     * rows from the pinned buffer. Every lookup bumps the row's
     * access counter. Software prefetch is issued only for lookups
     * that will fall through to the cold store — resident rows need
     * none (the prefetch-free fast path). May trigger an automatic
     * epoch when cfg.epochLookups is set.
     *
     * @throws IndexError exactly as the cold bag would.
     */
    void bag(std::size_t table, const RowIndex *indices,
             const RowIndex *offsets, std::size_t samples, float *out,
             const PrefetchSpec& pf = {});

    /**
     * Feeds @p n accesses of (table, row) into the admission counters
     * without serving — offline warmup from a trace before the first
     * epoch, or replaying hotness stats into a fresh tier.
     *
     * @throws std::invalid_argument on an out-of-range table/row.
     */
    void recordAccess(std::size_t table, RowIndex row,
                      std::uint32_t n = 1);

    /** True when (table, row) is currently pinned. */
    bool isResident(std::size_t table, RowIndex row) const
    {
        return slotOf(table, row) >= 0;
    }

    /** Slot pinning (table, row), or -1 when it is not resident (or
     *  out of range). The last epoch put its j-th hottest row in slot
     *  j. */
    std::int32_t slotOf(std::size_t table, RowIndex row) const;

    /** Current admission-counter value of (table, row). */
    std::uint32_t accessCount(std::size_t table, RowIndex row) const;

    /**
     * Runs one promotion/demotion epoch now: pins the top
     * capacityRows() rows by access count (those with at least
     * cfg.minAccesses), evicts the rest, copies bytes verbatim from
     * the cold store, rebuilds tier checksums, clears quarantines,
     * and decays every counter by cfg.decay (floor(count * decay)).
     * Costs O(rows with a nonzero counter + resident rows), not
     * O(tables x rows).
     */
    void endEpoch();

    /// @name Tier integrity (mirrors the cold store's block API)
    /// @{

    /** Checksum blocks covering the slot buffer
     *  (ceil(capacityRows / cfg.blockRows)). */
    std::size_t numBlocks() const { return _numBlocks; }

    /** Tier block holding pinned slot @p slot. */
    std::size_t blockOfSlot(std::size_t slot) const
    {
        return slot / _cfg.blockRows;
    }

    /** True when block @p b's pinned bytes match its checksum. */
    bool verifyBlock(std::size_t b) const;

    /** Every tier block whose bytes no longer checksum. */
    std::vector<std::size_t> findCorruptBlocks() const;

    /**
     * Silently flips one stored-payload bit of the *pinned copy* of
     * (table, row) — the cold store is untouched, which is exactly
     * the hazard the tier adds. Returns false (no flip) when the row
     * is not resident.
     *
     * @throws std::invalid_argument on out-of-range table/row/bit.
     */
    bool flipBit(std::size_t table, RowIndex row, std::size_t bit);

    /** Marks block @p b quarantined: probes into it fall through to
     *  the cold store until it is repaired. */
    void quarantineBlock(std::size_t b);

    /** True when block @p b is quarantined. */
    bool blockQuarantined(std::size_t b) const;

    /**
     * Re-copies every pinned row of block @p b from the cold store,
     * recomputes its checksum, and lifts its quarantine. Unlike
     * cold-store repair (which regenerates from the build seed), tier
     * repair always has a source of truth one tier down.
     */
    void repairBlock(std::size_t b);

    /**
     * Verifies the next @p maxBlocks tier blocks of a round-robin
     * sweep (the scrubber's tick). A corrupt block is quarantined,
     * repaired from the cold store, and counted. Returns blocks
     * verified.
     */
    std::size_t scrubTick(std::size_t maxBlocks);

    /// @}

    /**
     * Re-pins the tier against a different store — the live-reload
     * commit / warm-restart path. The resident set and admission
     * counters carry over; every pinned row is re-copied verbatim
     * from @p cold and checksums rebuilt, so the tier serves the
     * *new* version's bytes from the first post-swap dispatch.
     *
     * Returns false (tier untouched) when @p cold's geometry or
     * dtype mismatches the tier's — e.g. a reload that changes
     * precision. The tier then keeps pointing at the old store, so
     * matches() fails against the new one and every dispatch falls
     * through to the cold path until a compatible retarget.
     *
     * @throws std::invalid_argument on a null store.
     */
    bool retarget(std::shared_ptr<const EmbeddingStore> cold);

    /** Drops every pinned row and zeroes the admission counters (a
     *  cold restart of the tier). Cumulative stats are kept. */
    void reset();

    HotTierStats stats() const;

  private:
    /** Row's flat index into _slotOf / _meta. */
    std::size_t
    flat(std::size_t table, std::size_t row) const
    {
        return table * _rows + row;
    }

    std::uint64_t computeBlockSum(std::size_t b) const;
    void repairBlockLocked(std::size_t b);
    void setBlockPtrsLocked(std::size_t b, bool present);
    void trackRows(std::size_t table, const std::size_t *rows,
                   std::size_t n);
    void runEpochLocked();
    void maybeEndEpoch(std::size_t lookups);

    HotTierConfig _cfg;
    std::shared_ptr<const EmbeddingStore> _cold;
    std::size_t _tables;
    std::size_t _rows;
    EmbDtype _dtype;
    std::size_t _rowBytes;  //!< stored bytes per row (payload)
    std::size_t _stride;    //!< slot bytes (row rounded to 64 B)
    std::size_t _capacity;  //!< slots in the buffer
    std::size_t _numBlocks; //!< checksum blocks over the buffer

    mutable std::shared_mutex _mu;

    /** One contiguous, 64B-aligned pinned buffer for every slot. */
    std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> _slots;

    struct SlotRef
    {
        std::uint32_t table;
        std::uint32_t row;
    };
    std::vector<SlotRef> _slotRef;      //!< [slot] -> pinned row
    std::size_t _resident = 0;          //!< occupied slot count
    std::vector<std::int32_t> _slotOf;  //!< [table*rows] -> slot or -1

    /**
     * Per-row probe metadata in one 16-byte record: the pinned-bytes
     * pointer (null when the row is not resident *or* its block is
     * quarantined — the quarantine test is folded into the pointer at
     * every transition, all of which hold the exclusive lock) next to
     * the admission counter, deliberately on the same cache line so a
     * bag lookup's probe and counter bump touch one line, not two
     * scattered arrays. The spare tail word holds the stamp of the
     * last epoch that visited the row, which drops duplicate entries
     * of the tracked-row list (only the epoch touches it).
     */
    struct RowMeta
    {
        const std::uint8_t *ptr = nullptr;
        std::atomic<std::uint32_t> count{0};
        std::uint32_t stamp = 0;
    };
    static_assert(sizeof(RowMeta) == 16, "RowMeta must stay 16 bytes");
    std::unique_ptr<RowMeta[]> _meta; //!< [table*rows]

    /**
     * Flat indices of every row whose counter is nonzero, possibly
     * twice: two bags racing on a row's first lookup may both append
     * it.
     * Appends hold the shared lock plus _trackMu; the epoch and
     * reset() rewrite it under the exclusive lock.
     */
    std::vector<std::size_t> _tracked;
    std::mutex _trackMu;
    std::uint32_t _stamp = 0; //!< last epoch stamp handed out
    std::vector<std::uint64_t> _blockSums;
    std::vector<unsigned char> _blockBad; //!< quarantine flags
    std::size_t _scrubCursor = 0;

    std::atomic<std::uint64_t> _sinceEpoch{0};

    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    std::uint64_t _promotions = 0; //!< guarded by _mu (exclusive)
    std::uint64_t _demotions = 0;
    std::uint64_t _epochs = 0;
    std::uint64_t _epochNs = 0;
    std::uint64_t _epochMaxNs = 0;
    std::uint64_t _scrubbed = 0;
    std::uint64_t _corruptions = 0;
    std::uint64_t _repaired = 0;
    std::uint64_t _quarantined = 0;
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_HOT_TIER_HPP
