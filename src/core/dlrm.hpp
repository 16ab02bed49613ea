/**
 * @file
 * The full DLRM inference model: bottom MLP, embedding tables,
 * feature interaction, and top MLP (Fig. 2 of the paper).
 *
 * Model parameters are split by weight class: the capacity-dominant
 * embedding tables live in a shared, immutable EmbeddingStore, and
 * DlrmModel is a cheap *view* over it — either a full replica
 * (referencing every table) or a table-subset shard. N serving
 * instances over one store therefore cost N small MLPs and zero extra
 * embedding bytes, which is what makes multi-instance serving fit on
 * one host.
 */

#ifndef DLRMOPT_CORE_DLRM_HPP
#define DLRMOPT_CORE_DLRM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/embedding.hpp"
#include "core/embedding_store.hpp"
#include "core/hot_tier.hpp"
#include "core/mlp.hpp"
#include "core/model_config.hpp"
#include "core/sparse_input.hpp"
#include "core/tensor.hpp"

namespace dlrmopt::core
{

/**
 * Scratch buffers for one in-flight inference batch. Reused across
 * batches to keep the steady-state allocation-free.
 */
struct DlrmWorkspace
{
    Tensor bottomOut; //!< [batch x dim]
    Tensor embOut;    //!< [tables x (batch * dim)]
    Tensor interOut;  //!< [batch x topInputDim]
    Tensor pred;      //!< [batch x 1]
};

/**
 * A DLRM view: private MLP weights plus a shared reference to the
 * embedding store.
 *
 * A *full view* references every table and supports the complete
 * forward pass. A *shard view* references a contiguous table subset
 * [firstTable, firstTable + numLocalTables); its embeddingForward
 * produces the partial [numLocalTables x (batch * dim)] block, and
 * mergeShardEmbeddings() reassembles the full tensor before the
 * interaction stage.
 */
class DlrmModel
{
  public:
    /**
     * Builds a standalone model with deterministic pseudo-random
     * parameters, allocating a private store (the pre-refactor
     * behaviour; bitwise-identical contents).
     *
     * @param cfg Architecture description (see Table 2 presets).
     * @param seed Seed for reproducible weights/table contents.
     */
    explicit DlrmModel(const ModelConfig& cfg, std::uint64_t seed = 42);

    /**
     * Builds a full replica view over an existing store: fresh MLP
     * weights (seed-derived, so equal seeds give bitwise-equal
     * replicas), zero embedding bytes allocated.
     *
     * @throws std::invalid_argument when the store geometry does not
     *         match cfg (tables/rows/dim).
     */
    DlrmModel(const ModelConfig& cfg,
              std::shared_ptr<const EmbeddingStore> store,
              std::uint64_t seed = 42);

    /**
     * Builds a shard view over tables
     * [first_table, first_table + num_tables).
     *
     * @throws std::invalid_argument on an empty or out-of-range table
     *         span, or on store/cfg geometry mismatch.
     */
    DlrmModel(const ModelConfig& cfg,
              std::shared_ptr<const EmbeddingStore> store,
              std::size_t first_table, std::size_t num_tables,
              std::uint64_t seed = 42);

    /**
     * Rebuilds a full view from explicit MLPs (a snapshot's weights)
     * over an already-loaded store: no seed-derived initialization
     * runs, so the model is bitwise-identical to the one the MLPs
     * were saved from.
     *
     * @throws std::invalid_argument on store/cfg geometry mismatch or
     *         MLPs whose size lists mismatch cfg.
     */
    DlrmModel(const ModelConfig& cfg,
              std::shared_ptr<const EmbeddingStore> store, Mlp bottom,
              Mlp top);

    const ModelConfig& config() const { return _cfg; }

    /** The shared table storage backing this view. */
    const std::shared_ptr<const EmbeddingStore>& store() const
    {
        return _store;
    }

    /**
     * Attaches a reduced-precision copy of the embedding store for
     * quantized forwards: a bf16 or int8 store with the same
     * rows/dim/tables geometry as the primary. Once attached,
     * forward(..., dtype) and embeddingForward(..., dtype) route the
     * lookup stage through it (serving's degradation tiers switch
     * dtype per request without touching the model otherwise). Must
     * be called before the model is shared across threads — stores
     * are immutable on the read path, attachment is not. Attaching
     * an int8 store also builds both MLPs' u8·s8 packs (see
     * int8Mlps()), so no int8 request pays for them; a model whose
     * primary store is int8 builds them at construction.
     *
     * @throws std::invalid_argument when the store is null, is fp32
     *         (attach only quantized copies; the primary already
     *         serves fp32), or its geometry mismatches the primary.
     */
    void attachQuantizedStore(
        std::shared_ptr<const EmbeddingStore> store);

    /**
     * Store serving @p dtype: the attached quantized copy when one
     * matches, else the primary store (graceful fallback — a
     * degradation tier asking for a precision that was never
     * provisioned runs at the primary's precision instead).
     */
    const EmbeddingStore& storeFor(EmbDtype dtype) const
    {
        if (dtype == EmbDtype::Bf16 && _bf16Store)
            return *_bf16Store;
        if (dtype == EmbDtype::Int8 && _int8Store)
            return *_int8Store;
        return *_store;
    }

    /** storeFor() as a shareable handle (what a HotTierCache is built
     *  over — the tier must front the exact store the bags run on). */
    const std::shared_ptr<const EmbeddingStore>&
    sharedStoreFor(EmbDtype dtype) const
    {
        if (dtype == EmbDtype::Bf16 && _bf16Store)
            return _bf16Store;
        if (dtype == EmbDtype::Int8 && _int8Store)
            return _int8Store;
        return _store;
    }

    /**
     * True when a forward at @p dtype runs the MLP layers for which
     * Mlp::int8Layer() holds through the u8·s8 engine: the request
     * asks for int8 and an int8 store serves its bags. Every other
     * layer, and every layer otherwise, runs the fp32 packed engine;
     * int8 is an embedding-storage format for them, like bf16.
     */
    bool
    int8Mlps(EmbDtype dtype) const
    {
        return dtype == EmbDtype::Int8 &&
               storeFor(dtype).dtype() == EmbDtype::Int8;
    }

    /** True when a quantized store is attached for @p dtype. */
    bool
    hasQuantizedStore(EmbDtype dtype) const
    {
        return (dtype == EmbDtype::Bf16 && _bf16Store != nullptr) ||
               (dtype == EmbDtype::Int8 && _int8Store != nullptr);
    }

    /** Table by *global* table id (same id space as the store). */
    const EmbeddingTable& table(std::size_t t) const
    {
        return _store->table(t);
    }

    /** True when this view references every table of the model. */
    bool
    isFullView() const
    {
        return _firstTable == 0 && _numTables == _cfg.tables;
    }

    /** First global table id referenced by this view. */
    std::size_t firstTable() const { return _firstTable; }

    /** Number of tables this view references. */
    std::size_t numLocalTables() const { return _numTables; }

    /**
     * Runs the bottom MLP: dense [batch x denseDim] -> [batch x dim].
     * @p dtype picks the engine of each layer (int8Mlps()): only
     * layers whose fp32 weights spill L2 ever run u8·s8, and only
     * under int8 storage. bf16 is purely an embedding-storage format
     * — the MLPs have no bf16 kernel, so a bf16 tier pairs bf16 bags
     * with fp32 GEMMs.
     */
    void bottomForward(const Tensor& dense, Tensor& out,
                       EmbDtype dtype = EmbDtype::Fp32) const;

    /**
     * Runs the embedding lookup stage over this view's tables.
     *
     * @param sparse Lookup indices/offsets for the *full* batch (all
     *               cfg.tables tables); a shard view reads only its
     *               own tables' streams.
     * @param emb_out Output reshaped to
     *                [numLocalTables() x (batch * dim)]; row i holds
     *                the pooled block of global table firstTable()+i.
     *                For a full view this is the usual
     *                [tables x (batch * dim)] layout.
     * @param pf Software-prefetch configuration for embedding_bag.
     * @param dtype Selects the store (storeFor(dtype)) the bags run
     *        over; the fused-dequant kernels match its precision.
     * @param tier Optional hot tier: when non-null AND it fronts
     *        exactly storeFor(dtype) (tier->matches()), bags probe
     *        the tier before gathering cold — bitwise-identical
     *        output either way. A tier built over a different store
     *        (a reload canary's old version, a mismatched dtype) is
     *        silently bypassed, never wrongly served.
     */
    void embeddingForward(const SparseBatch& sparse, Tensor& emb_out,
                          const PrefetchSpec& pf = {},
                          EmbDtype dtype = EmbDtype::Fp32,
                          HotTierCache *tier = nullptr) const;

    /**
     * Runs feature interaction given both stage outputs. Requires the
     * *full* [tables x (batch * dim)] embedding tensor (merge shard
     * blocks first).
     */
    void interactionForward(const Tensor& bottom_out, const Tensor& emb_out,
                            std::size_t batch, Tensor& out) const;

    /**
     * interactionForward() with a caller-owned pointer table:
     * bitwise-identical, but allocation-free once @p emb_scratch has
     * capacity for cfg.tables entries.
     */
    void interactionForward(const Tensor& bottom_out, const Tensor& emb_out,
                            std::size_t batch, Tensor& out,
                            std::vector<const float *>& emb_scratch) const;

    /** Runs the top MLP and sigmoid, producing CTR predictions.
     *  @p dtype routes the MLP like bottomForward. */
    void topForward(const Tensor& inter_out, Tensor& pred,
                    EmbDtype dtype = EmbDtype::Fp32) const;

    /**
     * Full end-to-end forward pass (sequential stage order).
     *
     * @param dense Dense features [batch x denseDim].
     * @param sparse Sparse lookups for the same batch.
     * @param ws Scratch workspace (reused across calls).
     * @param pf Software-prefetch configuration.
     * @param dtype Inference precision: Fp32 is the exact baseline;
     *        Bf16 runs bf16 fused-dequant bags (fp32 MLPs); Int8 runs
     *        int8 bags, and the u8·s8 engine on the MLP layers whose
     *        fp32 weights spill L2 (int8Mlps()). Quantized dtypes are
     *        accuracy-budget approximations of fp32, each bitwise
     *        deterministic in its own right.
     * @param tier Optional hot tier for the embedding stage (see
     *        embeddingForward); predictions are bitwise-identical
     *        with or without it.
     *
     * @throws std::logic_error on a shard view — the interaction
     *         stage needs every table's block; run embeddingForward
     *         per shard and mergeShardEmbeddings() instead.
     */
    void forward(const Tensor& dense, const SparseBatch& sparse,
                 DlrmWorkspace& ws, const PrefetchSpec& pf = {},
                 EmbDtype dtype = EmbDtype::Fp32,
                 HotTierCache *tier = nullptr) const;

    const Mlp& bottomMlp() const { return _bottom; }
    const Mlp& topMlp() const { return _top; }

    /**
     * Bytes of embedding storage *referenced* by this view (the full
     * store for a replica, the subset for a shard). Views share the
     * store: constructing more of them allocates nothing.
     */
    std::size_t
    embeddingBytes() const
    {
        std::size_t n = 0;
        for (std::size_t t = 0; t < _numTables; ++t)
            n += _store->table(_firstTable + t).bytes();
        return n;
    }

    /**
     * Bytes of panel-packed MLP weights this view owns (built once at
     * construction; the dense layers' forward always runs through the
     * packed microkernel engine). Per-replica — unlike the embedding
     * store, MLP weights are private to each view — but negligible
     * next to embeddingBytes().
     */
    std::size_t
    packedMlpBytes() const
    {
        return _bottom.packedBytes() + _top.packedBytes();
    }

  private:
    /** Builds both MLPs' u8·s8 packs (Mlp::prepareInt8). */
    void prepareInt8Mlps() const;

    ModelConfig _cfg;
    Mlp _bottom;
    Mlp _top;
    std::shared_ptr<const EmbeddingStore> _store;
    std::shared_ptr<const EmbeddingStore> _bf16Store;
    std::shared_ptr<const EmbeddingStore> _int8Store;
    std::size_t _firstTable = 0;
    std::size_t _numTables = 0;
};

/**
 * Reassembles per-shard partial embedding outputs into the full
 * [tables x (batch * dim)] tensor a full view's interactionForward
 * expects.
 *
 * @param shards Shard views that together cover every table of the
 *        model exactly once (any order).
 * @param parts parts[i] is shards[i]'s embeddingForward output.
 * @param batch Batch size the blocks were produced with.
 * @param out Reshaped to [tables x (batch * dim)] and filled.
 *
 * @throws std::invalid_argument on size mismatch between shards and
 *         parts, a part with the wrong shape, or a table covered
 *         zero or multiple times.
 */
void mergeShardEmbeddings(const std::vector<const DlrmModel *>& shards,
                          const std::vector<const Tensor *>& parts,
                          std::size_t batch, Tensor& out);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_DLRM_HPP
