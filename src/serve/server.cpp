#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dlrmopt::serve
{

const core::Tensor&
DensePrefixes::rows(std::size_t n)
{
    auto it = _byRows.find(n);
    if (it == _byRows.end()) {
        core::Tensor t(n, _dense->cols());
        std::memcpy(t.data(), _dense->data(),
                    n * _dense->cols() * sizeof(float));
        it = _byRows.emplace(n, std::move(t)).first;
    }
    return it->second;
}

Server::Server(const core::DlrmModel& model,
               const sched::Topology& topo, const ServerConfig& cfg,
               const FaultInjector *fault)
    : _model(model), _cfg(cfg), _fault(fault), _pool(topo, cfg.pin)
{
    if (!(cfg.slaMs > 0.0) || !std::isfinite(cfg.slaMs))
        throw std::invalid_argument("Server: SLA must be positive");
    cfg.service.validate();
    if (cfg.dtypeServiceEnabled) {
        cfg.serviceBf16.validate();
        cfg.serviceInt8.validate();
    }
    cfg.batching.validate();
    if (cfg.backoffBaseMs < 0.0 ||
        cfg.backoffCapMs < cfg.backoffBaseMs) {
        throw std::invalid_argument(
            "Server: backoff cap must be >= base >= 0");
    }
    // The Server knows its core count, so it can range-check the one
    // FaultConfig knob validate() alone cannot.
    if (fault)
        fault->config().validate(_pool.numCores());
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
    const core::DlrmModel& model, const FaultInjector *fault,
    std::uint64_t req, std::uint64_t attempt)
{
    using Clock = std::chrono::steady_clock;
    const core::PrefetchSpec eff_pf =
        tier.prefetchEnabled ? pf : core::PrefetchSpec{};
    const core::EmbDtype dtype = _cfg.effectiveDtype(tier);

    // Grow the persistent workspace when this group exceeds its
    // current capacity (direct fleet callers skip serve()'s upfront
    // sizing); steady-state dispatches stay allocation-free.
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
                                 dtype, fault, req, attempt] {
        if (fault)
            fault->maybeThrow(req, attempt);
        _batchWs.forward(model, dense, merged, eff_pf, dtype,
                         _hotTier.get());
    });
    f.wait();
    f.get();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

ServeStats
Server::serve(const core::Tensor& dense,
              const std::vector<core::SparseBatch>& batches,
              const std::vector<double>& arrivals_ms,
              const core::PrefetchSpec& pf)
{
    if (batches.empty())
        throw std::invalid_argument("Server: need at least one batch");

    const std::size_t cores = _pool.numCores();
    const std::size_t rows = _model.config().rows;

    // The two modes differ only in these per-session rules:
    //  - batching off is a coalescing cap of 1; the tier's
    //    batchFraction truncates each request instead of shrinking
    //    the cap, and its price carries tierServiceFactor;
    //  - batched sessions price a group at the tier's precision with
    //    no tier factor.
    const bool batching = _cfg.batching.enabled;
    const std::size_t max_requests =
        batching ? _cfg.batching.maxRequests : 1;

    DegradationPolicy policy(_cfg.degrade, _cfg.slaMs);

    // Size the persistent workspace for the largest possible
    // dispatch; every later reshape stays within capacity.
    std::size_t max_req_batch = 1;
    std::size_t max_lookups = 1;
    for (const auto& b : batches) {
        if (b.batchSize == 0)
            throw std::invalid_argument("Server: zero-sample request");
        max_req_batch = std::max(max_req_batch, b.batchSize);
        for (const auto& v : b.indices) {
            max_lookups = std::max<std::size_t>(
                max_lookups,
                (v.size() + b.batchSize - 1) / b.batchSize);
        }
    }
    const std::size_t max_dispatch = max_req_batch * max_requests;
    if (_batchWs.maxBatch() < max_dispatch)
        _batchWs.reserve(_model, max_dispatch, max_lookups);

    DensePrefixes dense_rows(dense);

    BatchQueue queue(_cfg.batching);
    std::uint64_t seq = 0;
    for (std::size_t r = 0; r < arrivals_ms.size(); ++r) {
        const auto& b = batches[r % batches.size()];
        queue.push(PendingRequest{arrivals_ms[r], seq++, r, 0,
                                  arrivals_ms[r], b.batchSize});
    }

    ServeStats st;
    st.arrived = arrivals_ms.size();
    std::vector<double> free_at(cores, 0.0);
    double busy = 0.0;
    double makespan = 0.0;

    // Reused per-dispatch scratch (cleared, never shrunk).
    std::vector<PendingRequest> members;
    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense_parts;
    std::vector<std::size_t> member_sizes;
    std::vector<char> member_ok;
    std::vector<core::SparseBatch> owned;

    while (!queue.empty()) {
        const DegradeState tier = policy.state();
        const core::EmbDtype dtype = _cfg.effectiveDtype(tier);

        // Dispatch on the earliest-free core (lowest index on ties).
        std::size_t core = 0;
        for (std::size_t c = 1; c < cores; ++c) {
            if (free_at[c] < free_at[core])
                core = c;
        }
        const double straggle =
            _fault ? _fault->serviceFactor(core) : 1.0;

        // Degradation shrinks how much we coalesce before anything
        // is shed: less batching trims the service estimate, which
        // keeps marginal requests admissible. Quantized tiers price
        // with their own service model when dtype pricing is enabled.
        const std::size_t cap = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::floor(
                   tier.batchFraction *
                   static_cast<double>(max_requests))));
        const ServiceModel& tier_service = _cfg.serviceModelFor(dtype);
        queue.nextBatch(free_at[core], cap, _cfg.slaMs, tier_service,
                        straggle, members);

        // Samples each member really runs: batching off truncates a
        // request to the tier's batchFraction.
        const double keep = batching ? 1.0 : tier.batchFraction;
        const auto samplesOf = [keep](const PendingRequest& m) {
            return std::max<std::size_t>(
                1, static_cast<std::size_t>(std::floor(
                       keep * static_cast<double>(m.samples))));
        };
        double latest_ready = members.front().readyMs;
        std::size_t total_samples = 0;
        for (const auto& m : members) {
            latest_ready = std::max(latest_ready, m.readyMs);
            total_samples += samplesOf(m);
        }

        const double factor =
            batching ? 1.0 : _cfg.tierServiceFactor(tier);
        const double service_ms =
            tier_service.serviceMs(total_samples) * factor * straggle;
        const double end =
            std::max(free_at[core], latest_ready) + service_ms;

        // Admission control: a solo head on its first try whose
        // projected completion misses the deadline is shed (multi-
        // member groups are deadline-feasible by construction, and
        // retries are always admitted).
        const PendingRequest& head = members.front();
        const bool lone = members.size() == 1;
        if (_cfg.admission && lone && head.tries == 0 &&
            end > head.arrivalMs + _cfg.slaMs) {
            ++st.shed;
            continue;
        }

        // Fault resolution. A lone request runs exactly as submitted:
        // its injected task fault fires inside the pool task (so the
        // pool's CoreHealth counts it) and a poisoned index fails the
        // kernel's bounds check. A coalesced group resolves faults
        // per member first, so one poisoned request fails alone
        // instead of taking its batch siblings down with it.
        parts.clear();
        dense_parts.clear();
        member_sizes.clear();
        member_ok.assign(members.size(), 1);
        owned.clear();
        owned.reserve(2 * members.size()); // pointers stay stable
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& m = members[i];
            if (_fault && !lone) {
                try {
                    _fault->maybeThrow(m.req, m.tries);
                } catch (...) {
                    member_ok[i] = 0;
                    continue;
                }
            }
            const std::size_t n = samplesOf(m);
            const core::SparseBatch *sparse =
                &batches[m.req % batches.size()];
            if (n < sparse->batchSize) {
                owned.push_back(sparse->truncated(n));
                sparse = &owned.back();
            }
            if (_fault) {
                owned.push_back(
                    _fault->maybeCorrupt(*sparse, rows, m.req, m.tries));
                sparse = &owned.back();
                if (!lone && !sparse->valid(rows)) {
                    member_ok[i] = 0;
                    continue;
                }
            }
            parts.push_back(sparse);
            dense_parts.push_back(&dense_rows.rows(n));
            member_sizes.push_back(n);
        }

        // The dispatch burns its core whether or not members fail.
        ++st.dispatches;
        if (dtype != core::EmbDtype::Fp32)
            ++st.quantDispatches;
        free_at[core] = end;
        busy += service_ms;
        makespan = std::max(makespan, end);

        // One fused forward; members whose pre-dispatch resolution
        // and execution succeeded are served at end, the rest retry
        // after backoff or fail.
        bool exec_ok = true;
        if (!parts.empty()) {
            try {
                st.execTotalMs += executeBatchedAttempt(
                    core, parts, dense_parts, tier, pf, _model,
                    lone ? _fault : nullptr, head.req, head.tries);
                core::splitPredictions(_batchWs.predictions(),
                                       member_sizes, _splitScratch);
            } catch (...) {
                exec_ok = false;
            }
        }
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& m = members[i];
            if (member_ok[i] && exec_ok) {
                ++st.served;
                const double latency = end - m.arrivalMs;
                st.latency.add(latency);
                policy.observe(latency);
            } else if (m.tries < _cfg.maxRetries) {
                ++st.retried;
                const double backoff = retryBackoffMs(
                    _cfg.backoffBaseMs, _cfg.backoffCapMs, m.tries);
                queue.push(PendingRequest{end + backoff, seq++, m.req,
                                          m.tries + 1, m.arrivalMs,
                                          m.samples});
            } else {
                ++st.failed;
            }
        }
    }

    st.makespanMs = makespan;
    if (makespan > 0.0) {
        st.serverUtilization =
            busy / (makespan * static_cast<double>(cores));
    }
    st.degradeEscalations = policy.escalations();
    st.finalTier = policy.tier();
    return st;
}

} // namespace dlrmopt::serve
