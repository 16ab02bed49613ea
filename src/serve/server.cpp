#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace dlrmopt::serve
{

Server::Server(const core::DlrmModel& model,
               const sched::Topology& topo, const ServerConfig& cfg)
    : _model(model), _cfg(cfg), _pool(topo, cfg.pin)
{
    if (!(cfg.slaMs > 0.0) || !std::isfinite(cfg.slaMs))
        throw std::invalid_argument("Server: SLA must be positive");
    cfg.service.validate();
    cfg.batching.validate();
}

double
Server::executeBatchedAttempt(
    std::size_t core,
    const std::vector<const core::SparseBatch *>& parts,
    const std::vector<const core::Tensor *>& dense_parts,
    const DegradeState& tier, const core::PrefetchSpec& pf)
{
    return executeBatchedAttempt(core, parts, dense_parts, tier, pf,
                                 _model);
}

double
Server::executeBatchedAttempt(
    std::size_t core,
    const std::vector<const core::SparseBatch *>& parts,
    const std::vector<const core::Tensor *>& dense_parts,
    const DegradeState& tier, const core::PrefetchSpec& pf,
    const core::DlrmModel& model)
{
    using Clock = std::chrono::steady_clock;
    const core::PrefetchSpec eff_pf =
        tier.prefetchEnabled ? pf : core::PrefetchSpec{};
    const core::EmbDtype dtype = _cfg.effectiveDtype(tier);

    // Grow the persistent workspace when this group exceeds its
    // current capacity; steady-state dispatches stay allocation-free.
    std::size_t total = 0;
    std::size_t max_lookups = 1;
    for (const core::SparseBatch *p : parts) {
        if (p->batchSize == 0) {
            throw std::invalid_argument(
                "Server::executeBatchedAttempt: zero-sample request");
        }
        total += p->batchSize;
        for (const auto& v : p->indices) {
            max_lookups = std::max<std::size_t>(
                max_lookups,
                (v.size() + p->batchSize - 1) / p->batchSize);
        }
    }
    if (_batchWs.maxBatch() < total)
        _batchWs.reserve(model, total, max_lookups);

    // Coalesce on the serving thread (pure data movement into the
    // persistent workspace), run the fused forward on the pool.
    const core::SparseBatch& merged =
        _batchWs.coalesce(parts, dense_parts);
    const core::Tensor& dense = _batchWs.stagedDense();

    const auto t0 = Clock::now();
    auto f = _pool.submit(core, [this, &model, &dense, &merged, eff_pf,
                                 dtype] {
        _batchWs.forward(model, dense, merged, eff_pf, dtype,
                         _hotTier.get());
    });
    f.wait();
    f.get();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace dlrmopt::serve
