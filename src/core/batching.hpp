/**
 * @file
 * Request coalescing for batched inference: concatenation of
 * per-request SparseBatches into one larger batch, per-request views
 * of the coalesced prediction tensor, and a fully preallocated
 * ForwardWorkspace whose steady-state batched forward performs zero
 * heap allocations.
 *
 * Every kernel on the forward path (packed register-blocked GEMM,
 * embedding_bag, dot interaction, sigmoid) processes samples
 * independently, so a coalesced forward is bitwise-identical to
 * running each member request alone — batching is purely a throughput
 * lever: it amortizes per-dispatch fixed costs (small-batch GEMM
 * inefficiency, stage setup) across requests, which is what the
 * serving layer's deadline-aware BatchQueue exploits. The packed GEMM
 * keeps that guarantee by construction (each output element's fmaf
 * chain is independent of the sample's position, the SimdLevel, and
 * the blocking tile), and its batch-shape-aware tile dispatch
 * (GemmTileCache keyed on the coalesced m) is what the coalesced
 * shapes are tuned for; weights are prepacked at model construction,
 * so the steady-state batched forward still performs zero heap
 * allocations.
 */

#ifndef DLRMOPT_CORE_BATCHING_HPP
#define DLRMOPT_CORE_BATCHING_HPP

#include <array>
#include <cstddef>
#include <vector>

#include "core/dlrm.hpp"
#include "core/sparse_input.hpp"
#include "core/tensor.hpp"

namespace dlrmopt::core
{

/**
 * Concatenates per-request sparse batches into one coalesced batch.
 *
 * Sample order is parts[0]'s samples, then parts[1]'s, and so on, so
 * rows [start_i, start_i + parts[i]->batchSize) of any per-sample
 * output tensor belong to request i (see splitPredictions).
 *
 * The single-request case is a no-op view: the function returns a
 * reference to *parts[0] without touching @p scratch, so coalescing
 * degenerates gracefully when the queue holds one request. Otherwise
 * @p scratch is filled (reusing its vectors' capacity — steady-state
 * concatenation of same-shaped requests allocates nothing) and a
 * reference to it is returned.
 *
 * @param parts Non-empty list of requests to coalesce.
 * @param scratch Reusable concatenation buffer.
 *
 * @throws IndexError when @p parts is empty or the requests disagree
 *         on the number of embedding tables (heterogeneous bag
 *         counts cannot share one embeddingForward call).
 */
const SparseBatch&
concatSparseBatches(const std::vector<const SparseBatch *>& parts,
                    SparseBatch& scratch);

/** One request's slice of a coalesced per-sample output tensor. */
struct PredictionSpan
{
    const float *data = nullptr; //!< first prediction of the request
    std::size_t batch = 0;       //!< samples belonging to the request
};

/**
 * Splits a coalesced per-sample prediction tensor back into
 * per-request views (no copies: spans point into @p pred and stay
 * valid until it is next written).
 *
 * @param pred Coalesced predictions, [sum(batch_sizes) x 1].
 * @param batch_sizes Member batch sizes in concatenation order.
 * @param out Reused output vector, resized to batch_sizes.size().
 *
 * @throws IndexError when pred's row count does not equal the sum of
 *         @p batch_sizes.
 */
void splitPredictions(const Tensor& pred,
                      const std::vector<std::size_t>& batch_sizes,
                      std::vector<PredictionSpan>& out);

/**
 * One rotating buffer set of the stage-pipelined forward: everything
 * the gather stage (sparse concat + dense staging + embedding bag)
 * writes for one dispatch, plus the compute stage's private scratch
 * and outputs for the same dispatch.
 *
 * The streaming pipeline keeps two of these. While the compute stage
 * (bottom MLP -> interaction -> top MLP -> sigmoid) consumes set k,
 * the gather stage for dispatch k+1 fills the sibling set — the two
 * touch disjoint storage, which is what makes the overlap race-free.
 */
struct StageBuffers
{
    // --- gather-stage outputs (handed off to the compute stage) ---
    SparseBatch concat;      //!< coalesced sparse lookups
    Tensor dense;            //!< staged dense rows [batch x denseDim]
    Tensor embOut;           //!< pooled embeddings [tables x batch*dim]
    std::size_t batch = 0;   //!< coalesced batch size staged here

    // --- compute-stage scratch and outputs ---
    Tensor bottomOut;        //!< [batch x dim]
    Tensor interOut;         //!< row-major [batch x topInputDim]
    Tensor interOutT;        //!< feature-major [topInputDim x batch]
    Tensor pred;             //!< [batch x 1]
    Tensor mlpA;             //!< MLP ping-pong scratch
    Tensor mlpB;
    std::vector<const float *> embPtrs; //!< interaction pointer table
    std::vector<std::uint8_t> qact;     //!< int8 activation staging
};

/**
 * Preallocated scratch state for the batched forward path, organized
 * as two rotating StageBuffers sets.
 *
 * reserve() sizes every buffer of both sets — stage tensors, MLP
 * ping-pong scratch, the interaction pointer table, the dense staging
 * tensor, and the sparse concatenation buffer — for a maximum
 * coalesced batch, after which forward(), coalesce(), and the
 * stageGather()/stageCompute() pipeline perform no heap allocations
 * for any batch up to that size. bufferFingerprint() exposes the
 * backing-store addresses of both sets so tests can assert the steady
 * state really reuses storage.
 *
 * Two usage modes:
 *
 *  - Sequential (forward() / coalesce()): the pre-pipeline behaviour,
 *    operating on set 0 with the row-major interaction + m-major top
 *    MLP. Bitwise-identical to DlrmModel::forward.
 *
 *  - Pipelined (stageGather() / stageCompute()): stageGather stages
 *    dispatch k+1's sparse/dense inputs and runs the memory-bound
 *    embedding bag into the next rotation set while stageCompute runs
 *    the compute-bound half of dispatch k on the sibling set — the
 *    interaction writes feature-major and the top-MLP first layer
 *    consumes it through the n-major packed engine, so the handoff
 *    needs no repack. Predictions are bitwise-identical to the
 *    sequential path (the n-major kernels run the same per-element
 *    fmaf chains). The two calls touch disjoint sets and may run
 *    concurrently on different cores.
 */
class ForwardWorkspace
{
  public:
    ForwardWorkspace() = default;

    /**
     * Preallocates for coalesced batches of up to @p max_batch
     * samples with up to @p max_lookups lookups per sample per table.
     *
     * @throws std::invalid_argument on a zero max_batch.
     */
    void reserve(const DlrmModel& model, std::size_t max_batch,
                 std::size_t max_lookups);

    std::size_t maxBatch() const { return _maxBatch; }

    /**
     * Full forward pass into set 0's buffers; returns the prediction
     * tensor [batch x 1] (owned by the workspace, valid until the
     * next call). Zero heap allocations for batches within the
     * reserved capacity; bitwise-identical to DlrmModel::forward with
     * a fresh DlrmWorkspace.
     *
     * @param dense Dense features [sparse.batchSize x denseDim].
     * @param dtype Inference precision (see DlrmModel::forward):
     *        Bf16 swaps in the bf16 fused-dequant bags, Int8 the int8
     *        bags plus the u8·s8 MLP engine staged through the set's
     *        qact buffer.
     * @param tier Optional hot tier for the embedding stage (see
     *        DlrmModel::embeddingForward); bitwise-identical output
     *        with or without it.
     */
    const Tensor& forward(const DlrmModel& model, const Tensor& dense,
                          const SparseBatch& sparse,
                          const PrefetchSpec& pf = {},
                          EmbDtype dtype = EmbDtype::Fp32,
                          HotTierCache *tier = nullptr);

    /**
     * Coalesces member requests (sparse inputs plus their dense
     * feature blocks) into set 0's staging buffers.
     *
     * @param parts Member sparse batches.
     * @param dense_parts dense_parts[i] is member i's dense features,
     *        [parts[i]->batchSize x denseDim].
     * @retval Coalesced sparse batch (a view of *parts[0] for a
     *         single member). stagedDense() holds the matching dense
     *         rows.
     */
    const SparseBatch&
    coalesce(const std::vector<const SparseBatch *>& parts,
             const std::vector<const Tensor *>& dense_parts);

    /** Dense rows staged by the last coalesce(). */
    const Tensor& stagedDense() const { return _sets[0].dense; }

    /** Predictions of the last forward() / stageCompute(). */
    const Tensor& predictions() const
    {
        return _sets[_lastCompute].pred;
    }

    /** Predictions held by rotation set @p set. */
    const Tensor& predictions(std::size_t set) const
    {
        return _sets[set].pred;
    }

    /**
     * Pipeline gather stage: coalesces the members into the next
     * rotation set and runs the memory-bound embedding bag there.
     * Returns the set index staged (pass it to stageCompute). Safe to
     * run concurrently with a stageCompute on the other set; the
     * caller serializes successive gathers.
     *
     * @param dtype Precision of the embedding bags (the stage this
     *        lane exists to overlap is exactly the bandwidth-bound
     *        one quantization accelerates). Pooled bag outputs are
     *        fp32 at every precision, so the handoff is unchanged;
     *        pass the same dtype to stageCompute.
     * @param tier Optional hot tier for the staged bags (see
     *        DlrmModel::embeddingForward).
     */
    std::size_t stageGather(const DlrmModel& model,
                            const std::vector<const SparseBatch *>& parts,
                            const std::vector<const Tensor *>& dense_parts,
                            const PrefetchSpec& pf = {},
                            EmbDtype dtype = EmbDtype::Fp32,
                            HotTierCache *tier = nullptr);

    /**
     * Pipeline compute stage over rotation set @p set: bottom MLP,
     * feature-major interaction, top MLP through the n-major packed
     * engine, sigmoid. At EmbDtype::Int8 the MLPs run the u8·s8
     * engine over the row-major interaction, exactly as forward()
     * does. Returns the set's prediction tensor [batch x 1];
     * bitwise-identical to forward() on the same inputs and dtype.
     */
    const Tensor& stageCompute(const DlrmModel& model, std::size_t set,
                               EmbDtype dtype = EmbDtype::Fp32);

    /**
     * Resets the rotation so the next stageGather uses set 0
     * (deterministic pipeline starts in tests/benches).
     */
    void resetRotation() { _gatherNext = 0; }

    /** Number of rotating buffer sets (double buffering). */
    static constexpr std::size_t numSets = 2;

    /**
     * Hash of every backing-store address across both rotation sets.
     * Unchanged across calls means no buffer was reallocated — the
     * workspace-reuse assertion behind the zero-allocation claim, and
     * the corruption probe the pipeline fault tests lean on (a failed
     * in-flight stage must leave the sibling set's storage alone).
     */
    std::size_t bufferFingerprint() const;

  private:
    /** Coalesce @p parts into set @p s; returns the merged view. */
    const SparseBatch&
    coalesceInto(std::size_t s,
                 const std::vector<const SparseBatch *>& parts,
                 const std::vector<const Tensor *>& dense_parts);

    std::array<StageBuffers, numSets> _sets;
    std::size_t _gatherNext = 0;  //!< set the next stageGather fills
    std::size_t _lastCompute = 0; //!< set holding the latest pred
    std::size_t _maxBatch = 0;
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_BATCHING_HPP
