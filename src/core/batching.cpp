#include "core/batching.hpp"

#include <cassert>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/errors.hpp"
#include "core/gemm.hpp"

namespace dlrmopt::core
{

namespace
{

/** Combines one address into a running fingerprint hash. */
void
hashPtr(std::size_t& h, const void *p)
{
    h ^= std::hash<const void *>{}(p) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
}

} // namespace

const SparseBatch&
concatSparseBatches(const std::vector<const SparseBatch *>& parts,
                    SparseBatch& scratch)
{
    if (parts.empty())
        throw IndexError("concatSparseBatches: empty part list");
    const std::size_t tables = parts.front()->numTables();
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i]->numTables() != tables) {
            throw IndexError(
                "concatSparseBatches: part " + std::to_string(i) +
                " has " + std::to_string(parts[i]->numTables()) +
                " tables, expected " + std::to_string(tables));
        }
        if (parts[i]->offsets.size() != tables) {
            throw IndexError(
                "concatSparseBatches: part " + std::to_string(i) +
                " has mismatched offsets/indices table counts");
        }
    }
    if (parts.size() == 1)
        return *parts.front();

    std::size_t total = 0;
    for (const SparseBatch *p : parts)
        total += p->batchSize;

    scratch.batchSize = total;
    scratch.indices.resize(tables);
    scratch.offsets.resize(tables);
    for (std::size_t t = 0; t < tables; ++t) {
        auto& idx = scratch.indices[t];
        auto& off = scratch.offsets[t];
        idx.clear();
        off.clear();
        off.push_back(0);
        RowIndex base = 0;
        for (const SparseBatch *p : parts) {
            const auto& pidx = p->indices[t];
            const auto& poff = p->offsets[t];
            assert(poff.size() == p->batchSize + 1);
            idx.insert(idx.end(), pidx.begin(), pidx.end());
            for (std::size_t i = 1; i < poff.size(); ++i)
                off.push_back(base + poff[i]);
            base += poff.back();
        }
    }
    return scratch;
}

void
splitPredictions(const Tensor& pred,
                 const std::vector<std::size_t>& batch_sizes,
                 std::vector<PredictionSpan>& out)
{
    std::size_t total = 0;
    for (std::size_t b : batch_sizes)
        total += b;
    if (pred.rows() != total) {
        throw IndexError(
            "splitPredictions: prediction tensor has " +
            std::to_string(pred.rows()) + " rows, member batches sum to " +
            std::to_string(total));
    }
    out.resize(batch_sizes.size());
    std::size_t start = 0;
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
        out[i].data = pred.row(start);
        out[i].batch = batch_sizes[i];
        start += batch_sizes[i];
    }
}

void
ForwardWorkspace::reserve(const DlrmModel& model, std::size_t max_batch,
                          std::size_t max_lookups)
{
    if (max_batch == 0) {
        throw std::invalid_argument(
            "ForwardWorkspace::reserve: max_batch must be positive");
    }
    const ModelConfig& cfg = model.config();
    _maxBatch = max_batch;

    // Widest activation either MLP ever stages through the ping-pong
    // scratch (hidden layers only; the final layer writes the output
    // tensor directly).
    std::size_t widest = 1;
    for (const Mlp *mlp : {&model.bottomMlp(), &model.topMlp()}) {
        const auto& dims = mlp->dims();
        for (std::size_t l = 1; l + 1 < dims.size(); ++l)
            widest = std::max(widest, dims[l]);
    }

    _dense.reshape(max_batch, cfg.denseDim());
    _embOut.reshape(cfg.tables, max_batch * cfg.dim);
    _bottomOut.reshape(max_batch, cfg.dim);
    _interOut.reshape(max_batch, cfg.topInputDim());
    _pred.reshape(max_batch, 1);
    _mlpA.reshape(max_batch, widest);
    _mlpB.reshape(max_batch, widest);
    // Int8 activation staging: the widest int8 layer input across
    // both MLPs (the row stride is per-layer; the buffer is resized
    // down per call without reallocating). Empty when no layer runs
    // the u8·s8 engine.
    const std::size_t max_stride =
        std::max(model.bottomMlp().maxInt8ActivationStride(),
                 model.topMlp().maxInt8ActivationStride());
    _qact.reserve(max_batch * max_stride);
    _embPtrs.reserve(cfg.tables);
    _concat.indices.resize(cfg.tables);
    _concat.offsets.resize(cfg.tables);
    for (std::size_t t = 0; t < cfg.tables; ++t) {
        _concat.indices[t].reserve(max_batch * max_lookups);
        _concat.offsets[t].reserve(max_batch + 1);
    }
}

const Tensor&
ForwardWorkspace::forward(const DlrmModel& model, const Tensor& dense,
                          const SparseBatch& sparse,
                          const PrefetchSpec& pf, EmbDtype dtype,
                          HotTierCache *tier)
{
    assert(sparse.batchSize <= _maxBatch);
    const bool int8 = model.int8Mlps(dtype);
    model.bottomMlp().forward(dense, _bottomOut, _mlpA, _mlpB, _qact,
                              int8);
    model.embeddingForward(sparse, _embOut, pf, dtype, tier);
    model.interactionForward(_bottomOut, _embOut, sparse.batchSize,
                             _interOut, _embPtrs);
    model.topMlp().forward(_interOut, _pred, _mlpA, _mlpB, _qact, int8);
    sigmoidInplace(_pred.data(), _pred.size());
    return _pred;
}

const SparseBatch&
ForwardWorkspace::coalesce(const std::vector<const SparseBatch *>& parts,
                           const std::vector<const Tensor *>& dense_parts)
{
    if (parts.size() != dense_parts.size()) {
        throw IndexError(
            "ForwardWorkspace::coalesce: need one dense block per "
            "sparse part");
    }
    const SparseBatch& merged = concatSparseBatches(parts, _concat);

    const std::size_t dense_dim =
        dense_parts.empty() ? 0 : dense_parts.front()->cols();
    _dense.reshape(merged.batchSize, dense_dim);
    std::size_t row = 0;
    for (const Tensor *d : dense_parts) {
        std::memcpy(_dense.row(row), d->data(), d->size() * sizeof(float));
        row += d->rows();
    }
    return merged;
}

std::size_t
ForwardWorkspace::bufferFingerprint() const
{
    std::size_t h = 0;
    hashPtr(h, _bottomOut.data());
    hashPtr(h, _embOut.data());
    hashPtr(h, _interOut.data());
    hashPtr(h, _pred.data());
    hashPtr(h, _mlpA.data());
    hashPtr(h, _mlpB.data());
    hashPtr(h, _qact.data());
    hashPtr(h, _dense.data());
    hashPtr(h, _embPtrs.data());
    for (const auto& v : _concat.indices)
        hashPtr(h, v.data());
    for (const auto& v : _concat.offsets)
        hashPtr(h, v.data());
    return h;
}

} // namespace dlrmopt::core
