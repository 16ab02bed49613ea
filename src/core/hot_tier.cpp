#include "core/hot_tier.hpp"

#include "core/errors.hpp"
#include "core/simd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace dlrmopt::core
{

namespace
{

constexpr std::uint64_t fnvPrime = 1099511628211ULL;

/**
 * FNV-1a 64 fold over 8-byte words with a byte tail, resumable across
 * spans (slot payloads chain into one per-block sum). XOR then an odd
 * multiply is a bijection on 64 bits, so any change confined to one
 * word always changes the sum. Tier sums are never persisted or
 * compared with the cold store's byte-wise sums.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= len;
         i += sizeof(std::uint64_t)) {
        std::uint64_t w;
        std::memcpy(&w, p + i, sizeof(w));
        h ^= w;
        h *= fnvPrime;
    }
    for (; i < len; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

constexpr std::uint64_t fnvOffsetBasis = 14695981039346656037ULL;

} // namespace

void
HotTierConfig::validate() const
{
    if (!(decay >= 0.0) || decay >= 1.0 || !std::isfinite(decay)) {
        throw std::invalid_argument(
            "HotTierConfig: decay must be in [0, 1), got " +
            std::to_string(decay));
    }
    if (blockRows == 0) {
        throw std::invalid_argument(
            "HotTierConfig: blockRows must be >= 1");
    }
    if (minAccesses == 0) {
        throw std::invalid_argument(
            "HotTierConfig: minAccesses must be >= 1 (0 would admit "
            "rows that were never seen)");
    }
}

HotTierCache::HotTierCache(std::shared_ptr<const EmbeddingStore> cold,
                           const HotTierConfig& cfg)
    : _cfg(cfg), _cold(std::move(cold))
{
    _cfg.validate();
    if (!_cold) {
        throw std::invalid_argument(
            "HotTierCache: cold store must not be null");
    }
    _tables = _cold->numTables();
    _rows = _cold->rows();
    _dtype = _cold->dtype();
    _rowBytes = _cold->table(0).storedRowBytes();
    _stride = (_rowBytes + cachelineBytes - 1) / cachelineBytes *
              cachelineBytes;
    _capacity = std::min(_cfg.budgetBytes / _stride, _tables * _rows);
    _numBlocks = (_capacity + _cfg.blockRows - 1) / _cfg.blockRows;

    _slots.resize(_capacity * _stride);
    _slotRef.resize(_capacity, SlotRef{0, 0});
    _slotOf.assign(_tables * _rows, -1);
    _blockSums.assign(_numBlocks, fnvOffsetBasis);
    _blockBad.assign(_numBlocks, 0);
    _meta = std::make_unique<RowMeta[]>(_tables * _rows);
}

void
HotTierCache::bag(std::size_t table, const RowIndex *indices,
                  const RowIndex *offsets, std::size_t samples,
                  float *out, const PrefetchSpec& pf)
{
    // The cold store is resolved under _mu: retarget() swaps it under
    // the exclusive lock, and the old store may be freed once it has.
    const std::size_t total = static_cast<std::size_t>(offsets[samples]);
    if (_capacity == 0) {
        // Disabled tier: pure pass-through (whole-sample quantized
        // kernels included), no admission accounting.
        {
            std::shared_lock<std::shared_mutex> lk(_mu);
            _cold->table(table).bag(indices, offsets, samples, out, pf);
        }
        _misses.fetch_add(total, std::memory_order_relaxed);
        return;
    }

    if (_cfg.verifyTouched) {
        // Verify the tier blocks this bag's resident lookups touch
        // before serving a byte of them (the tier-side mirror of the
        // fleet's verifyBlocks path). Corrupt blocks are
        // quarantined and repaired from the cold store, then the scan
        // re-runs — bounded by the block count, in practice one retry.
        for (;;) {
            std::vector<std::size_t> bad;
            {
                std::shared_lock<std::shared_mutex> lk(_mu);
                const std::int32_t *slot_of =
                    _slotOf.data() + table * _rows;
                std::vector<std::size_t> touched;
                for (std::size_t s = 0; s < total; ++s) {
                    if (static_cast<std::uint64_t>(indices[s]) >=
                        static_cast<std::uint64_t>(_rows))
                        continue; // the main loop throws on it
                    const std::int32_t slot =
                        slot_of[static_cast<std::size_t>(indices[s])];
                    if (slot >= 0)
                        touched.push_back(
                            blockOfSlot(static_cast<std::size_t>(slot)));
                }
                std::sort(touched.begin(), touched.end());
                touched.erase(
                    std::unique(touched.begin(), touched.end()),
                    touched.end());
                for (std::size_t b : touched) {
                    if (!_blockBad[b] &&
                        computeBlockSum(b) != _blockSums[b])
                        bad.push_back(b);
                }
            }
            if (bad.empty())
                break;
            std::unique_lock<std::shared_mutex> lk(_mu);
            for (std::size_t b : bad) {
                if (computeBlockSum(b) == _blockSums[b])
                    continue; // repaired by a concurrent pass
                ++_corruptions;
                if (!_blockBad[b]) {
                    _blockBad[b] = 1;
                    ++_quarantined;
                }
                repairBlockLocked(b);
            }
        }
    }

    // The first out-of-range lookup, found up front so the walk below
    // needs no range check and no throw: it stops there, leaving the
    // counters of the lookups before it bumped exactly as an in-walk
    // throw would, and the throw follows once they are tracked.
    const std::size_t first = static_cast<std::size_t>(offsets[0]);
    std::size_t bad = total;
    std::uint64_t max_index = 0;
    for (std::size_t s = first; s < total; ++s)
        max_index = std::max(max_index,
                             static_cast<std::uint64_t>(indices[s]));
    if (max_index >= static_cast<std::uint64_t>(_rows)) {
        bad = first;
        while (static_cast<std::uint64_t>(indices[bad]) <
               static_cast<std::uint64_t>(_rows))
            ++bad;
    }

    std::uint64_t local_hits = 0, local_misses = 0;
    {
        std::shared_lock<std::shared_mutex> lk(_mu);
        const EmbeddingTable& tbl = _cold->table(table);
        RowMeta *meta = _meta.get() + table * _rows;
        const bool do_pf = pf.enabled();
        // Same byte-constant look-ahead scaling as the cold bag
        // (embedding.cpp): quantized rows are shorter, so the
        // distance stretches to keep the prefetch ahead in bytes.
        const std::size_t pf_dist = do_pf
            ? static_cast<std::size_t>(pf.distance) *
                  (32 / embDtypeBits(_dtype))
            : 0;

        std::vector<const std::uint8_t *> row_ptrs;
        // Rows this bag lifts off a zero counter, appended to the
        // tracked-row list once per bag. A plain buffer with room for
        // every lookup keeps the walk free of calls: a push_back's
        // reallocation path made the compiler spill the walk's
        // registers, which cost about 10% of a bag.
        const auto fresh =
            std::make_unique_for_overwrite<std::size_t[]>(total);
        std::size_t fresh_n = 0;
        for (std::size_t i = 0; i < samples; ++i) {
            float *out_ptr = out + i * tbl.dim();
            const std::size_t begin =
                static_cast<std::size_t>(offsets[i]);
            const std::size_t stop =
                static_cast<std::size_t>(offsets[i + 1]);
            const std::size_t end = std::min(stop, bad);
            const std::size_t n = end - begin;
            row_ptrs.resize(n);
            // Phase 1: resolve every lookup to pinned-or-cold bytes.
            // The resolution walk doubles as look-ahead — cold rows
            // get their prefetch issued here, well before phase 2
            // gathers them.
            for (std::size_t s = begin; s < end; ++s) {
                const std::size_t idx =
                    static_cast<std::size_t>(indices[s]);
                RowMeta& m = meta[idx];
                // Plain relaxed load+store, not fetch_add: a lock'd
                // RMW per lookup costs more than the probe it feeds.
                // Concurrent bags may lose increments, which only
                // perturbs a heuristic — admission needs row *ranks*,
                // not exact counts.
                const std::uint32_t c =
                    m.count.load(std::memory_order_relaxed);
                if (c == 0)
                    fresh[fresh_n++] = idx;
                m.count.store(c + 1, std::memory_order_relaxed);
                // One load, one branch: the pointer already folds in
                // the resident and block-clean tests, and shares the
                // counter's cache line. A pinned row is contiguous,
                // line-aligned, almost certainly cache-resident — no
                // prefetch needed.
                const std::uint8_t *row = m.ptr;
                if (row != nullptr) {
                    ++local_hits;
                } else {
                    row = static_cast<const std::uint8_t *>(
                        tbl.rowBytes(indices[s]));
                    ++local_misses;
                }
                if (do_pf && s + pf_dist < total) {
                    // Look ahead exactly like the cold bag, but only
                    // pull lines for rows that will actually gather
                    // cold — a resident future row costs nothing.
                    const RowIndex ni = indices[s + pf_dist];
                    if (static_cast<std::uint64_t>(ni) <
                            static_cast<std::uint64_t>(_rows) &&
                        meta[static_cast<std::size_t>(ni)].ptr ==
                            nullptr)
                        prefetchRowBytes(tbl.rowBytes(ni), pf.lines,
                                         _rowBytes, pf.locality);
                }
                row_ptrs[s - begin] = row;
            }
            if (bad < stop)
                break; // the bad lookup's sample is never pooled
            // Phase 2: register-blocked walk over the resolved
            // pointers — pool in registers, store out once. The
            // per-lane chain matches the per-row kernels, so hitting
            // this path never changes an output bit.
            bool pooled = false;
            switch (_dtype) {
              case EmbDtype::Bf16:
                pooled = bagSamplePtrsBf16(out_ptr, row_ptrs.data(), n,
                                           tbl.dim());
                break;
              case EmbDtype::Int8:
                pooled = bagSamplePtrsInt8(out_ptr, row_ptrs.data(), n,
                                           tbl.dim());
                break;
              default:
                pooled = bagSamplePtrsF32(out_ptr, row_ptrs.data(), n,
                                          tbl.dim());
                break;
            }
            if (pooled)
                continue;
            // No specialized kernel for this level/shape: per-row
            // fused-dequant accumulate, the exact chain the cold bag's
            // fallback dispatches to, over verbatim row bytes.
            std::memset(out_ptr, 0, tbl.dim() * sizeof(float));
            for (std::size_t s = 0; s < n; ++s) {
                const std::uint8_t *row = row_ptrs[s];
                switch (_dtype) {
                  case EmbDtype::Bf16:
                    accumulateRowBf16(
                        out_ptr,
                        reinterpret_cast<const std::uint16_t *>(row),
                        tbl.dim());
                    break;
                  case EmbDtype::Int8: {
                    float scale, bias;
                    std::memcpy(&scale, row + tbl.dim(),
                                sizeof(float));
                    std::memcpy(&bias, row + tbl.dim() + sizeof(float),
                                sizeof(float));
                    accumulateRowInt8(out_ptr, row, scale, bias,
                                      tbl.dim());
                    break;
                  }
                  default:
                    accumulateRow(
                        out_ptr,
                        reinterpret_cast<const float *>(row),
                        tbl.dim());
                    break;
                }
            }
        }
        trackRows(table, fresh.get(), fresh_n);
    }
    if (bad < total) {
        throw IndexError("embedding_bag: index " +
                         std::to_string(indices[bad]) +
                         " out of range [0, " + std::to_string(_rows) +
                         ") at lookup " + std::to_string(bad));
    }
    _hits.fetch_add(local_hits, std::memory_order_relaxed);
    _misses.fetch_add(local_misses, std::memory_order_relaxed);
    maybeEndEpoch(total);
}

void
HotTierCache::recordAccess(std::size_t table, RowIndex row,
                           std::uint32_t n)
{
    if (table >= _tables ||
        static_cast<std::uint64_t>(row) >=
            static_cast<std::uint64_t>(_rows)) {
        throw std::invalid_argument(
            "HotTierCache::recordAccess: (" + std::to_string(table) +
            ", " + std::to_string(row) + ") out of range");
    }
    // Shared, so the append below cannot race an epoch's rewrite of
    // the tracked-row list.
    std::shared_lock<std::shared_mutex> lk(_mu);
    const auto r = static_cast<std::size_t>(row);
    if (_meta[flat(table, r)].count.fetch_add(
            n, std::memory_order_relaxed) == 0 &&
        n != 0)
        trackRows(table, &r, 1);
}

void
HotTierCache::trackRows(std::size_t table, const std::size_t *rows,
                        std::size_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> g(_trackMu);
    for (std::size_t k = 0; k < n; ++k)
        _tracked.push_back(flat(table, rows[k]));
}

std::int32_t
HotTierCache::slotOf(std::size_t table, RowIndex row) const
{
    if (table >= _tables ||
        static_cast<std::uint64_t>(row) >=
            static_cast<std::uint64_t>(_rows))
        return -1;
    std::shared_lock<std::shared_mutex> lk(_mu);
    return _slotOf[flat(table, static_cast<std::size_t>(row))];
}

std::uint32_t
HotTierCache::accessCount(std::size_t table, RowIndex row) const
{
    if (table >= _tables ||
        static_cast<std::uint64_t>(row) >=
            static_cast<std::uint64_t>(_rows))
        return 0;
    return _meta[flat(table, static_cast<std::size_t>(row))]
        .count.load(std::memory_order_relaxed);
}

void
HotTierCache::maybeEndEpoch(std::size_t lookups)
{
    if (_cfg.epochLookups == 0 || _capacity == 0)
        return;
    const std::uint64_t prev =
        _sinceEpoch.fetch_add(lookups, std::memory_order_relaxed);
    // Only the call that crosses the threshold triggers the epoch, so
    // concurrent bags do not pile up back-to-back rebuilds.
    if (prev < _cfg.epochLookups &&
        prev + lookups >= _cfg.epochLookups)
        endEpoch();
}

void
HotTierCache::endEpoch()
{
    std::unique_lock<std::shared_mutex> lk(_mu);
    const auto t0 = std::chrono::steady_clock::now();
    runEpochLocked();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    _epochNs += ns;
    _epochMaxNs = std::max(_epochMaxNs, ns);
}

void
HotTierCache::runEpochLocked()
{
    struct Cand
    {
        std::uint32_t count;
        std::uint32_t table;
        std::uint32_t row;
    };
    if (++_stamp == 0) {
        // The stamp wrapped: clear every row's so none aliases it.
        for (std::size_t i = 0; i < _tables * _rows; ++i)
            _meta[i].stamp = 0;
        _stamp = 1;
    }
    // One fused pass over the tracked rows (every row with a nonzero
    // counter): read each counter once, collect it as a candidate on
    // its pre-decay value, store the decayed value, and keep the row
    // tracked only while that value is nonzero. Untracked counters
    // are zero, below any minAccesses, and decay to zero, so the pass
    // leaves every counter exactly where a full scan would.
    std::vector<Cand> cand;
    std::size_t kept = 0;
    for (const std::size_t i : _tracked) {
        RowMeta& m = _meta[i];
        if (m.stamp == _stamp)
            continue; // a duplicate entry, already visited
        m.stamp = _stamp;
        const std::uint32_t c = m.count.load(std::memory_order_relaxed);
        if (c >= _cfg.minAccesses)
            cand.push_back({c, static_cast<std::uint32_t>(i / _rows),
                            static_cast<std::uint32_t>(i % _rows)});
        const auto d = static_cast<std::uint32_t>(
            static_cast<double>(c) * _cfg.decay);
        m.count.store(d, std::memory_order_relaxed);
        if (d != 0)
            _tracked[kept++] = i;
    }
    _tracked.resize(kept);
    // Strict-weak order with a (table, row) tie-break: the selected
    // set is a pure function of the counters, never of scan order.
    auto hotter = [](const Cand& a, const Cand& b) {
        if (a.count != b.count)
            return a.count > b.count;
        if (a.table != b.table)
            return a.table < b.table;
        return a.row < b.row;
    };
    if (cand.size() > _capacity) {
        std::nth_element(cand.begin(),
                         cand.begin() +
                             static_cast<std::ptrdiff_t>(_capacity),
                         cand.end(), hotter);
        cand.resize(_capacity);
    }
    std::sort(cand.begin(), cand.end(), hotter);

    std::size_t survivors = 0;
    for (const Cand& c : cand) {
        if (_slotOf[flat(c.table, c.row)] >= 0)
            ++survivors;
    }
    _promotions += cand.size() - survivors;
    _demotions += _resident - survivors;

    for (std::size_t j = 0; j < _resident; ++j) {
        const std::size_t f =
            flat(_slotRef[j].table, _slotRef[j].row);
        _slotOf[f] = -1;
        _meta[f].ptr = nullptr;
    }
    for (std::size_t j = 0; j < cand.size(); ++j) {
        const Cand& c = cand[j];
        std::uint8_t *dst = _slots.data() + j * _stride;
        std::memcpy(dst,
                    _cold->table(c.table).rowBytes(
                        static_cast<RowIndex>(c.row)),
                    _rowBytes);
        if (_stride > _rowBytes)
            std::memset(dst + _rowBytes, 0, _stride - _rowBytes);
        _slotRef[j] = SlotRef{c.table, c.row};
        _slotOf[flat(c.table, c.row)] =
            static_cast<std::int32_t>(j);
        _meta[flat(c.table, c.row)].ptr = dst;
    }
    _resident = cand.size();
    for (std::size_t b = 0; b < _numBlocks; ++b) {
        _blockSums[b] = computeBlockSum(b);
        _blockBad[b] = 0;
    }
    ++_epochs;
    _sinceEpoch.store(0, std::memory_order_relaxed);
}

std::uint64_t
HotTierCache::computeBlockSum(std::size_t b) const
{
    const std::size_t first = b * _cfg.blockRows;
    const std::size_t last =
        std::min(first + _cfg.blockRows, _resident);
    std::uint64_t h = fnvOffsetBasis;
    for (std::size_t j = first; j < last; ++j)
        h = fnv1a(_slots.data() + j * _stride, _rowBytes, h);
    return h;
}

bool
HotTierCache::verifyBlock(std::size_t b) const
{
    std::shared_lock<std::shared_mutex> lk(_mu);
    return computeBlockSum(b) == _blockSums[b];
}

std::vector<std::size_t>
HotTierCache::findCorruptBlocks() const
{
    std::shared_lock<std::shared_mutex> lk(_mu);
    std::vector<std::size_t> bad;
    for (std::size_t b = 0; b < _numBlocks; ++b) {
        if (computeBlockSum(b) != _blockSums[b])
            bad.push_back(b);
    }
    return bad;
}

bool
HotTierCache::flipBit(std::size_t table, RowIndex row, std::size_t bit)
{
    if (table >= _tables ||
        static_cast<std::uint64_t>(row) >=
            static_cast<std::uint64_t>(_rows)) {
        throw std::invalid_argument(
            "HotTierCache::flipBit: (" + std::to_string(table) + ", " +
            std::to_string(row) + ") out of range");
    }
    if (bit >= _rowBytes * 8) {
        throw std::invalid_argument(
            "HotTierCache::flipBit: bit " + std::to_string(bit) +
            " out of range [0, " + std::to_string(_rowBytes * 8) + ")");
    }
    std::unique_lock<std::shared_mutex> lk(_mu);
    const std::int32_t slot =
        _slotOf[flat(table, static_cast<std::size_t>(row))];
    if (slot < 0)
        return false;
    _slots[static_cast<std::size_t>(slot) * _stride + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    return true;
}

void
HotTierCache::quarantineBlock(std::size_t b)
{
    if (b >= _numBlocks) {
        throw std::invalid_argument(
            "HotTierCache::quarantineBlock: block " +
            std::to_string(b) + " out of range");
    }
    std::unique_lock<std::shared_mutex> lk(_mu);
    if (!_blockBad[b]) {
        _blockBad[b] = 1;
        ++_quarantined;
        setBlockPtrsLocked(b, false);
    }
}

bool
HotTierCache::blockQuarantined(std::size_t b) const
{
    std::shared_lock<std::shared_mutex> lk(_mu);
    return b < _numBlocks && _blockBad[b] != 0;
}

void
HotTierCache::repairBlock(std::size_t b)
{
    if (b >= _numBlocks) {
        throw std::invalid_argument(
            "HotTierCache::repairBlock: block " + std::to_string(b) +
            " out of range");
    }
    std::unique_lock<std::shared_mutex> lk(_mu);
    repairBlockLocked(b);
}

void
HotTierCache::repairBlockLocked(std::size_t b)
{
    const std::size_t first = b * _cfg.blockRows;
    const std::size_t last =
        std::min(first + _cfg.blockRows, _resident);
    for (std::size_t j = first; j < last; ++j) {
        std::memcpy(_slots.data() + j * _stride,
                    _cold->table(_slotRef[j].table)
                        .rowBytes(static_cast<RowIndex>(
                            _slotRef[j].row)),
                    _rowBytes);
    }
    _blockSums[b] = computeBlockSum(b);
    _blockBad[b] = 0;
    setBlockPtrsLocked(b, true);
    ++_repaired;
}

void
HotTierCache::setBlockPtrsLocked(std::size_t b, bool present)
{
    const std::size_t first = b * _cfg.blockRows;
    const std::size_t last =
        std::min(first + _cfg.blockRows, _resident);
    for (std::size_t j = first; j < last; ++j) {
        _meta[flat(_slotRef[j].table, _slotRef[j].row)].ptr =
            present ? _slots.data() + j * _stride : nullptr;
    }
}

std::size_t
HotTierCache::scrubTick(std::size_t maxBlocks)
{
    std::unique_lock<std::shared_mutex> lk(_mu);
    if (_numBlocks == 0)
        return 0;
    std::size_t verified = 0;
    for (std::size_t i = 0; i < maxBlocks; ++i) {
        const std::size_t b = _scrubCursor;
        ++_scrubbed;
        ++verified;
        if (computeBlockSum(b) != _blockSums[b]) {
            ++_corruptions;
            if (!_blockBad[b]) {
                _blockBad[b] = 1;
                ++_quarantined;
            }
            repairBlockLocked(b);
        }
        _scrubCursor = (_scrubCursor + 1) % _numBlocks;
    }
    return verified;
}

bool
HotTierCache::retarget(std::shared_ptr<const EmbeddingStore> cold)
{
    if (!cold) {
        throw std::invalid_argument(
            "HotTierCache::retarget: store must not be null");
    }
    if (cold->numTables() != _tables || cold->rows() != _rows ||
        cold->dtype() != _dtype ||
        cold->table(0).storedRowBytes() != _rowBytes) {
        // A precision- or geometry-changing reload: leave the tier on
        // the old store, where matches() fails and dispatches bypass.
        return false;
    }
    std::unique_lock<std::shared_mutex> lk(_mu);
    _cold = std::move(cold);
    // Re-pin: same resident set and counters (the hot set does not
    // change because the version did), fresh verbatim bytes from the
    // new store, fresh checksums.
    for (std::size_t j = 0; j < _resident; ++j) {
        std::memcpy(_slots.data() + j * _stride,
                    _cold->table(_slotRef[j].table)
                        .rowBytes(static_cast<RowIndex>(
                            _slotRef[j].row)),
                    _rowBytes);
        // Re-enable rows a pre-swap quarantine had disabled: every
        // block is clean after the re-copy.
        _meta[flat(_slotRef[j].table, _slotRef[j].row)].ptr =
            _slots.data() + j * _stride;
    }
    for (std::size_t b = 0; b < _numBlocks; ++b) {
        _blockSums[b] = computeBlockSum(b);
        _blockBad[b] = 0;
    }
    return true;
}

void
HotTierCache::reset()
{
    std::unique_lock<std::shared_mutex> lk(_mu);
    for (std::size_t j = 0; j < _resident; ++j) {
        const std::size_t f =
            flat(_slotRef[j].table, _slotRef[j].row);
        _slotOf[f] = -1;
        _meta[f].ptr = nullptr;
    }
    _resident = 0;
    for (std::size_t b = 0; b < _numBlocks; ++b) {
        _blockSums[b] = fnvOffsetBasis;
        _blockBad[b] = 0;
    }
    // Only tracked rows can hold a nonzero counter.
    for (const std::size_t i : _tracked)
        _meta[i].count.store(0, std::memory_order_relaxed);
    _tracked.clear();
    _sinceEpoch.store(0, std::memory_order_relaxed);
}

HotTierStats
HotTierCache::stats() const
{
    std::shared_lock<std::shared_mutex> lk(_mu);
    HotTierStats s;
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.promotions = _promotions;
    s.demotions = _demotions;
    s.epochs = _epochs;
    s.epochNs = _epochNs;
    s.epochMaxNs = _epochMaxNs;
    s.blocksScrubbed = _scrubbed;
    s.corruptionsFound = _corruptions;
    s.blocksRepaired = _repaired;
    s.blocksQuarantined = _quarantined;
    s.residentRows = _resident;
    s.capacityRows = _capacity;
    s.residentBytes = _resident * _rowBytes;
    return s;
}

} // namespace dlrmopt::core
