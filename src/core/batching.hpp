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
 * the blocking tile), and its fixed blocking rule picks the tile
 * from the coalesced m (full depth at m = 1, L1-sized k-chunks
 * above). The fp32 weights are prepacked at model
 * construction and the u8·s8 packs of the int8 layers when an int8
 * store reaches the model (DlrmModel::attachQuantizedStore), never
 * inside a dispatch, so the steady-state batched forward performs
 * zero heap allocations at every dtype. The u8·s8 layers keep the
 * guarantee too: they quantize each sample row with its own scale.
 */

#ifndef DLRMOPT_CORE_BATCHING_HPP
#define DLRMOPT_CORE_BATCHING_HPP

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
 * Preallocated scratch state for the batched forward path.
 *
 * reserve() sizes every buffer — stage tensors, MLP ping-pong
 * scratch, the interaction pointer table, the dense staging tensor,
 * and the sparse concatenation buffer — for a maximum coalesced batch,
 * after which forward() and coalesce() perform no heap allocations for
 * any batch up to that size. bufferFingerprint() exposes the
 * backing-store addresses so tests can assert the steady state really
 * reuses storage. forward() is bitwise-identical to DlrmModel::forward.
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
     * Full forward pass into the workspace's buffers; returns the
     * prediction tensor [batch x 1] (owned by the workspace, valid
     * until the next call). Zero heap allocations for batches within
     * the reserved capacity; bitwise-identical to DlrmModel::forward
     * with a fresh DlrmWorkspace.
     *
     * @param dense Dense features [sparse.batchSize x denseDim].
     * @param dtype Inference precision (see DlrmModel::forward):
     *        Bf16 swaps in the bf16 fused-dequant bags, Int8 the int8
     *        bags, with the MLP layers that spill L2 running the u8·s8
     *        engine staged through the workspace's qact buffer
     *        (DlrmModel::int8Mlps).
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
     * feature blocks) into the workspace's staging buffers.
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
    const Tensor& stagedDense() const { return _dense; }

    /** Predictions of the last forward(). */
    const Tensor& predictions() const { return _pred; }

    /**
     * Hash of every backing-store address. Unchanged across calls
     * means no buffer was reallocated — the workspace-reuse assertion
     * behind the zero-allocation claim.
     */
    std::size_t bufferFingerprint() const;

  private:
    SparseBatch _concat;     //!< coalesced sparse lookups
    Tensor _dense;           //!< staged dense rows [batch x denseDim]
    Tensor _embOut;          //!< pooled embeddings [tables x batch*dim]
    Tensor _bottomOut;       //!< [batch x dim]
    Tensor _interOut;        //!< row-major [batch x topInputDim]
    Tensor _pred;            //!< [batch x 1]
    Tensor _mlpA;            //!< MLP ping-pong scratch
    Tensor _mlpB;
    std::vector<const float *> _embPtrs; //!< interaction pointer table
    std::vector<std::uint8_t> _qact;     //!< int8 activation staging
    std::size_t _maxBatch = 0;
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_BATCHING_HPP
