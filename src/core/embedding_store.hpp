/**
 * @file
 * Shared embedding-table storage with block-level integrity checksums.
 *
 * Embedding tables dominate DLRM capacity (Table 2: up to ~100 GB),
 * so multi-instance serving cannot afford one private copy per
 * instance. An EmbeddingStore owns the full table set once; any
 * number of DlrmModel views — full replicas or table-subset shards —
 * reference it through a shared_ptr without copying a byte. The store
 * is immutable on the serving read path, which is what makes
 * concurrent lock-free reads from every serving instance safe; the
 * only mutations are the integrity operations (flipBit to model a
 * silent bit upset, repairBlock to restore as-built bytes), which the
 * resilience layer performs on the single virtual-clock thread,
 * never concurrently with kernel execution.
 *
 * At that capacity a handful of flipped DRAM bits per day is the
 * expected case, not a tail event, so each table is checksummed in
 * blocks of blockRows() rows at build time. A block can be verified
 * on demand and — because table contents are a pure counter hash of
 * (table seed, row) — repaired in O(block) by regenerating exactly
 * the as-built bytes.
 */

#ifndef DLRMOPT_CORE_EMBEDDING_STORE_HPP
#define DLRMOPT_CORE_EMBEDDING_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/embedding.hpp"
#include "core/model_config.hpp"

namespace dlrmopt::core
{

/** Identifies one checksummed block: rows [block * blockRows, ...) of
 *  table @c table. */
struct BlockRef
{
    std::size_t table = 0;
    std::size_t block = 0;

    friend bool
    operator==(const BlockRef& a, const BlockRef& b)
    {
        return a.table == b.table && a.block == b.block;
    }
};

/**
 * The single owned copy of a model's embedding tables.
 *
 * Construction allocates rows * dim * 4 bytes per table; everything
 * downstream (DlrmModel replicas/shards, Server instances, the
 * fleet) only holds references.
 */
class EmbeddingStore
{
  public:
    /**
     * Builds all cfg.tables tables with deterministic pseudo-random
     * contents. Table t is seeded with mix64(seed + 100 + t) — the
     * exact derivation DlrmModel used when it owned its tables, so
     * store-backed models are bitwise-identical to the old layout.
     * Per-block checksums are computed over the freshly built bytes.
     *
     * @param cfg Architecture description (rows/dim/tables).
     * @param seed Seed for reproducible table contents.
     * @param blockRows Rows per checksum block (clamped to cfg.rows).
     * @param dtype Storage precision of every table in this store.
     *
     * @throws std::invalid_argument when cfg.tables or blockRows is 0.
     */
    explicit EmbeddingStore(const ModelConfig& cfg,
                            std::uint64_t seed = 42,
                            std::size_t blockRows = 256,
                            EmbDtype dtype = EmbDtype::Fp32);

    /**
     * Adopts snapshot-loaded tables instead of generating contents.
     * Every per-block checksum is rebuilt from the adopted bytes (a
     * snapshot loader cross-checks them against the file's recorded
     * checksums separately). @p tableSeeds must carry each table's
     * original build seed so repairBlock() can still regenerate
     * as-built bytes after corruption.
     *
     * @throws std::invalid_argument on an empty table set, a seed
     *         count mismatching the table count, a zero blockRows, or
     *         a table whose geometry/dtype differs from cfg/@p dtype.
     */
    EmbeddingStore(const ModelConfig& cfg, EmbDtype dtype,
                   std::size_t blockRows,
                   std::vector<std::unique_ptr<EmbeddingTable>> tables,
                   std::vector<std::uint64_t> tableSeeds);

    /** Convenience: heap-allocates a store ready for sharing. */
    static std::shared_ptr<const EmbeddingStore>
    create(const ModelConfig& cfg, std::uint64_t seed = 42,
           std::size_t blockRows = 256, EmbDtype dtype = EmbDtype::Fp32)
    {
        return std::make_shared<const EmbeddingStore>(cfg, seed, blockRows,
                                                      dtype);
    }

    /**
     * Heap-allocates a store the caller may also mutate through the
     * integrity API (flipBit / repairBlock). The chaos harness holds
     * this handle; serving components still see it as const.
     */
    static std::shared_ptr<EmbeddingStore>
    createMutable(const ModelConfig& cfg, std::uint64_t seed = 42,
                  std::size_t blockRows = 256,
                  EmbDtype dtype = EmbDtype::Fp32)
    {
        return std::make_shared<EmbeddingStore>(cfg, seed, blockRows,
                                                dtype);
    }

    std::size_t numTables() const { return _tables.size(); }
    std::size_t rows() const { return _rows; }
    std::size_t dim() const { return _dim; }
    EmbDtype dtype() const { return _dtype; }

    const EmbeddingTable& table(std::size_t t) const
    {
        return *_tables[t];
    }

    /** Build seed of table @p t (what repairBlock regenerates from;
     *  recorded in snapshots so loaded stores stay repairable). */
    std::uint64_t tableSeed(std::size_t t) const
    {
        return _tableSeeds[t];
    }

    /** Total bytes held across all tables (the one real copy). */
    std::size_t
    bytes() const
    {
        std::size_t n = 0;
        for (const auto& t : _tables)
            n += t->bytes();
        return n;
    }

    /// @name Block-level integrity
    /// @{

    /** Rows per checksum block (last block of a table may be short). */
    std::size_t blockRows() const { return _blockRows; }

    /** Number of checksum blocks per table. */
    std::size_t
    numBlocks() const
    {
        return (_rows + _blockRows - 1) / _blockRows;
    }

    /** Block index covering row @p row. */
    std::size_t blockOfRow(std::size_t row) const
    {
        return row / _blockRows;
    }

    /** The checksum recorded at build time for (table, block). */
    std::uint64_t
    storedChecksum(std::size_t t, std::size_t b) const
    {
        return _checksums[t * numBlocks() + b];
    }

    /** Recomputes the checksum of (table, block) from current bytes. */
    std::uint64_t computeChecksum(std::size_t t, std::size_t b) const;

    /**
     * The FNV-1a fold computeChecksum() runs, exposed over a raw
     * stored-payload span so snapshot verification can checksum file
     * bytes without materializing tables. @p count is the element
     * count at @p dtype: floats for fp32, 16-bit patterns for bf16,
     * stored bytes (codes + fused scale/bias) for int8.
     */
    static std::uint64_t payloadChecksum(EmbDtype dtype,
                                         const void *data,
                                         std::size_t count);

    /** True when the current bytes of (table, block) still match the
     *  build-time checksum. */
    bool
    verifyBlock(std::size_t t, std::size_t b) const
    {
        return computeChecksum(t, b) == storedChecksum(t, b);
    }

    /** Full sweep: every block whose bytes no longer checksum. */
    std::vector<BlockRef> findCorruptBlocks() const;

    /**
     * Silently flips one payload bit of (table t, row, bit) — the
     * store-level corruption a FaultInjector bit-flip fault performs.
     * Deliberately does NOT touch the stored checksum: detection is
     * the serving layer's job.
     *
     * @throws std::invalid_argument on out-of-range table/row/bit.
     */
    void flipBit(std::size_t t, std::size_t row, std::size_t bit);

    /**
     * Regenerates every row of (table, block) from the table's build
     * seed, restoring the exact as-built bytes (the stored checksum
     * verifies again afterwards). O(blockRows * dim).
     *
     * @throws std::invalid_argument on out-of-range table/block.
     */
    void repairBlock(std::size_t t, std::size_t b);

    /// @}

  private:
    /** Recomputes every stored per-block checksum from current bytes
     *  (construction, and adoption of snapshot-loaded tables). */
    void rebuildChecksums();

    std::size_t _rows;
    std::size_t _dim;
    EmbDtype _dtype;
    std::size_t _blockRows;
    std::vector<std::unique_ptr<EmbeddingTable>> _tables;
    std::vector<std::uint64_t> _tableSeeds;
    std::vector<std::uint64_t> _checksums; ///< [table][block], row-major.
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_EMBEDDING_STORE_HPP
