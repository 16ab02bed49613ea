#include "core/dlrm.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/gemm.hpp"
#include "core/interaction.hpp"

namespace dlrmopt::core
{

namespace
{

/** Shared constructor checks for every view kind. */
void
checkViewArgs(const ModelConfig& cfg, const EmbeddingStore *store,
              std::size_t first_table, std::size_t num_tables)
{
    if (cfg.bottomMlp.back() != cfg.dim) {
        throw std::invalid_argument(
            "bottom-MLP output width must equal the embedding dim");
    }
    if (store == nullptr)
        throw std::invalid_argument("DlrmModel: null embedding store");
    if (store->numTables() != cfg.tables || store->rows() != cfg.rows ||
        store->dim() != cfg.dim) {
        throw std::invalid_argument(
            "DlrmModel: store geometry does not match the model "
            "config");
    }
    if (num_tables == 0) {
        throw std::invalid_argument(
            "DlrmModel: a view needs at least one table");
    }
    if (first_table >= cfg.tables ||
        num_tables > cfg.tables - first_table) {
        throw std::invalid_argument(
            "DlrmModel: table span [" + std::to_string(first_table) +
            ", " + std::to_string(first_table + num_tables) +
            ") exceeds the model's " + std::to_string(cfg.tables) +
            " tables");
    }
}

} // namespace

DlrmModel::DlrmModel(const ModelConfig& cfg, std::uint64_t seed)
    : DlrmModel(cfg, EmbeddingStore::create(cfg, seed), seed)
{
}

DlrmModel::DlrmModel(const ModelConfig& cfg,
                     std::shared_ptr<const EmbeddingStore> store,
                     std::uint64_t seed)
    : DlrmModel(cfg, std::move(store), 0, cfg.tables, seed)
{
}

DlrmModel::DlrmModel(const ModelConfig& cfg,
                     std::shared_ptr<const EmbeddingStore> store,
                     std::size_t first_table, std::size_t num_tables,
                     std::uint64_t seed)
    : _cfg(cfg),
      _bottom(cfg.bottomMlp, mix64(seed)),
      _top(cfg.topMlpDims(), mix64(seed + 1)),
      _store(std::move(store)),
      _firstTable(first_table),
      _numTables(num_tables)
{
    checkViewArgs(_cfg, _store.get(), first_table, num_tables);
    if (_store->dtype() == EmbDtype::Int8)
        prepareInt8Mlps();
}

DlrmModel::DlrmModel(const ModelConfig& cfg,
                     std::shared_ptr<const EmbeddingStore> store,
                     Mlp bottom, Mlp top)
    : _cfg(cfg), _bottom(std::move(bottom)), _top(std::move(top)),
      _store(std::move(store)), _firstTable(0), _numTables(cfg.tables)
{
    checkViewArgs(_cfg, _store.get(), 0, cfg.tables);
    if (_bottom.dims() != cfg.bottomMlp ||
        _top.dims() != cfg.topMlpDims()) {
        throw std::invalid_argument(
            "DlrmModel: adopted MLP size lists do not match the model "
            "config");
    }
    if (_store->dtype() == EmbDtype::Int8)
        prepareInt8Mlps();
}

void
DlrmModel::prepareInt8Mlps() const
{
    _bottom.prepareInt8();
    _top.prepareInt8();
}

void
DlrmModel::attachQuantizedStore(
    std::shared_ptr<const EmbeddingStore> store)
{
    if (store == nullptr) {
        throw std::invalid_argument(
            "attachQuantizedStore: null store");
    }
    if (store->dtype() == EmbDtype::Fp32) {
        throw std::invalid_argument(
            "attachQuantizedStore: the primary store already serves "
            "fp32; attach only bf16/int8 copies");
    }
    if (store->numTables() != _cfg.tables ||
        store->rows() != _cfg.rows || store->dim() != _cfg.dim) {
        throw std::invalid_argument(
            "attachQuantizedStore: store geometry does not match the "
            "model config");
    }
    if (store->dtype() == EmbDtype::Bf16) {
        _bf16Store = std::move(store);
    } else {
        _int8Store = std::move(store);
        prepareInt8Mlps();
    }
}

void
DlrmModel::bottomForward(const Tensor& dense, Tensor& out,
                         EmbDtype dtype) const
{
    _bottom.forward(dense, out, int8Mlps(dtype));
}

void
DlrmModel::embeddingForward(const SparseBatch& sparse, Tensor& emb_out,
                            const PrefetchSpec& pf, EmbDtype dtype,
                            HotTierCache *tier) const
{
    assert(sparse.numTables() == _cfg.tables);
    const EmbeddingStore& store = storeFor(dtype);
    // The tier serves only the store it fronts: a dispatch pinned to
    // a different version (canary, mid-rollout) or a dtype the tier
    // was not built at gathers cold instead of being served stale or
    // differently-quantized bytes.
    const bool tiered = tier != nullptr && tier->matches(store);
    const std::size_t batch = sparse.batchSize;
    emb_out.reshape(_numTables, batch * _cfg.dim);
    for (std::size_t t = 0; t < _numTables; ++t) {
        const std::size_t g = _firstTable + t;
        if (tiered) {
            tier->bag(g, sparse.indices[g].data(),
                      sparse.offsets[g].data(), batch, emb_out.row(t),
                      pf);
        } else {
            store.table(g).bag(sparse.indices[g].data(),
                               sparse.offsets[g].data(), batch,
                               emb_out.row(t), pf);
        }
    }
}

void
DlrmModel::interactionForward(const Tensor& bottom_out,
                              const Tensor& emb_out, std::size_t batch,
                              Tensor& out) const
{
    std::vector<const float *> emb;
    interactionForward(bottom_out, emb_out, batch, out, emb);
}

void
DlrmModel::interactionForward(const Tensor& bottom_out,
                              const Tensor& emb_out, std::size_t batch,
                              Tensor& out,
                              std::vector<const float *>& emb_scratch) const
{
    emb_scratch.resize(_cfg.tables);
    for (std::size_t t = 0; t < _cfg.tables; ++t)
        emb_scratch[t] = emb_out.row(t);
    out.reshape(batch, _cfg.topInputDim());
    dotInteraction(bottom_out.data(), emb_scratch, _cfg.tables, batch,
                   _cfg.dim, out.data());
}

void
DlrmModel::topForward(const Tensor& inter_out, Tensor& pred,
                      EmbDtype dtype) const
{
    _top.forward(inter_out, pred, int8Mlps(dtype));
    sigmoidInplace(pred.data(), pred.size());
}

void
DlrmModel::forward(const Tensor& dense, const SparseBatch& sparse,
                   DlrmWorkspace& ws, const PrefetchSpec& pf,
                   EmbDtype dtype, HotTierCache *tier) const
{
    if (!isFullView()) {
        throw std::logic_error(
            "DlrmModel::forward: shard views cannot run the full pass; "
            "merge shard embedding blocks with mergeShardEmbeddings()");
    }
    bottomForward(dense, ws.bottomOut, dtype);
    embeddingForward(sparse, ws.embOut, pf, dtype, tier);
    interactionForward(ws.bottomOut, ws.embOut, sparse.batchSize,
                       ws.interOut);
    topForward(ws.interOut, ws.pred, dtype);
}

void
mergeShardEmbeddings(const std::vector<const DlrmModel *>& shards,
                     const std::vector<const Tensor *>& parts,
                     std::size_t batch, Tensor& out)
{
    if (shards.empty() || shards.size() != parts.size()) {
        throw std::invalid_argument(
            "mergeShardEmbeddings: need one part per shard");
    }
    const ModelConfig& cfg = shards.front()->config();
    const std::size_t block = batch * cfg.dim;
    std::vector<bool> covered(cfg.tables, false);
    out.reshape(cfg.tables, block);
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const DlrmModel& shard = *shards[s];
        const Tensor& part = *parts[s];
        if (part.rows() != shard.numLocalTables() ||
            part.cols() != block) {
            throw std::invalid_argument(
                "mergeShardEmbeddings: part " + std::to_string(s) +
                " has the wrong shape");
        }
        for (std::size_t t = 0; t < shard.numLocalTables(); ++t) {
            const std::size_t g = shard.firstTable() + t;
            if (covered[g]) {
                throw std::invalid_argument(
                    "mergeShardEmbeddings: table " + std::to_string(g) +
                    " covered twice");
            }
            covered[g] = true;
            std::memcpy(out.row(g), part.row(t),
                        block * sizeof(float));
        }
    }
    for (std::size_t g = 0; g < cfg.tables; ++g) {
        if (!covered[g]) {
            throw std::invalid_argument(
                "mergeShardEmbeddings: table " + std::to_string(g) +
                " not covered by any shard");
        }
    }
}

} // namespace dlrmopt::core
