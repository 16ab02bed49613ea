#include "serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "serve/degrade.hpp"

namespace dlrmopt::serve
{

namespace
{

/** One scheduled attempt in the cluster-level virtual-time loop. */
struct RAttempt
{
    double readyMs;          //!< earliest virtual start
    std::uint64_t seq;       //!< deterministic tie-break
    std::uint64_t req;       //!< request id
    std::uint64_t tries;     //!< attempts burned on current instance
    std::uint64_t failovers; //!< instances already given up on
    int instance;            //!< pinned instance (retries), -1 = route
    int exclude;             //!< instance to avoid when routing, -1 = none
    double arrivalMs;        //!< original arrival (latency baseline)
};

struct RAttemptLater
{
    bool
    operator()(const RAttempt& a, const RAttempt& b) const
    {
        if (a.readyMs != b.readyMs)
            return a.readyMs > b.readyMs;
        return a.seq > b.seq;
    }
};

/** Counter-based uniform [0,1) draw for power-of-two sampling. */
double
drawUnit(std::uint64_t seed, std::uint64_t kind, std::uint64_t req,
         std::uint64_t failovers)
{
    using dlrmopt::mix64;
    return dlrmopt::toUnitInterval(
        mix64(seed ^ mix64(kind + mix64(req + mix64(failovers)))));
}

/**
 * Order-sensitive fingerprint of a prediction tensor: a mix64 chain
 * over the raw fp32 bit patterns. Two attempts fingerprint equal iff
 * their predictions are bitwise identical, which is how the
 * resilience tests assert "zero wrong answers served" against a
 * fault-free baseline.
 */
std::uint64_t
fingerprintPredictions(const core::Tensor& pred)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    const float *p = pred.data();
    const std::size_t n = pred.rows() * pred.cols();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t u;
        std::memcpy(&u, p + i, sizeof(u));
        h = dlrmopt::mix64(h ^ u);
    }
    return h;
}

} // namespace

const char *
routePolicyName(RoutePolicy p)
{
    switch (p) {
      case RoutePolicy::RoundRobin:
        return "rr";
      case RoutePolicy::PowerOfTwo:
        return "po2";
      case RoutePolicy::HealthAware:
        return "health";
    }
    return "?";
}

RoutePolicy
parseRoutePolicy(const std::string& name)
{
    if (name == "rr" || name == "round-robin")
        return RoutePolicy::RoundRobin;
    if (name == "po2" || name == "power-of-two")
        return RoutePolicy::PowerOfTwo;
    if (name == "health" || name == "health-aware")
        return RoutePolicy::HealthAware;
    throw std::invalid_argument("unknown routing policy '" + name +
                                "' (rr|po2|health)");
}

std::string
RouterStats::summary() const
{
    char buf[560];
    const double pct = total.served
        ? 100.0 * static_cast<double>(compliant) /
            static_cast<double>(total.served)
        : 0.0;
    int len = std::snprintf(
        buf, sizeof(buf),
        "arrived %zu served %zu shed %zu (cluster %zu) failed %zu "
        "retried %zu failovers %zu (shed %.1f%%) | p50 %.3f p95 %.3f "
        "p99 %.3f ms | compliant %zu (%.1f%% of served)",
        total.arrived, total.served, total.shed, clusterShed,
        total.failed, total.retried, failovers,
        100.0 * total.shedRate(), total.latency.percentile(50.0),
        total.latency.p95(), total.latency.p99(), compliant, pct);
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        (breakerTrips || hedges || crashes || restarts ||
         corruptionsDetected || integrityDegraded)) {
        const int more = std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | trips %zu hedges %zu crashes %zu restarts %zu "
            "corrupt %zu repaired %zu degraded %zu",
            breakerTrips, hedges, crashes, restarts,
            corruptionsDetected, blocksRepaired, integrityDegraded);
        if (more > 0)
            len += more;
    }
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        blocksScrubbed) {
        std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | scrubbed %llu found %llu repaired %llu sweeps %llu",
            static_cast<unsigned long long>(blocksScrubbed),
            static_cast<unsigned long long>(scrubCorruptions),
            static_cast<unsigned long long>(scrubRepairs),
            static_cast<unsigned long long>(scrubSweeps));
    }
    return buf;
}

Router::Router(const core::ModelConfig& model_cfg,
               std::shared_ptr<const core::EmbeddingStore> store,
               const sched::Topology& topo, const RouterConfig& cfg,
               std::vector<const FaultInjector *> faults,
               std::uint64_t model_seed)
    : _cfg(cfg), _faults(std::move(faults)), _store(std::move(store))
{
    build(model_cfg, topo, model_seed);
}

Router::Router(const core::ModelConfig& model_cfg,
               std::shared_ptr<core::EmbeddingStore> store,
               const sched::Topology& topo, const RouterConfig& cfg,
               std::vector<const FaultInjector *> faults,
               std::uint64_t model_seed)
    : _cfg(cfg), _faults(std::move(faults)), _store(store),
      _mutableStore(std::move(store))
{
    build(model_cfg, topo, model_seed);
}

void
Router::build(const core::ModelConfig& model_cfg,
              const sched::Topology& topo, std::uint64_t model_seed)
{
    const RouterConfig& cfg = _cfg;
    if (cfg.instances == 0) {
        throw std::invalid_argument(
            "Router: need at least one instance");
    }
    if (_faults.size() > cfg.instances) {
        throw std::invalid_argument(
            "Router: " + std::to_string(_faults.size()) +
            " fault injectors for " + std::to_string(cfg.instances) +
            " instances — extra entries would be silently ignored");
    }
    cfg.breaker.validate();
    if (!(cfg.probationMs >= 0.0) || !std::isfinite(cfg.probationMs)) {
        throw std::invalid_argument(
            "Router: probationMs must be finite and >= 0");
    }
    if (!(cfg.halfOpenPenaltyMs >= 0.0) ||
        !std::isfinite(cfg.halfOpenPenaltyMs) ||
        !(cfg.tripRecencyPenaltyMs >= 0.0) ||
        !std::isfinite(cfg.tripRecencyPenaltyMs) ||
        !(cfg.tripRecencyWindowMs > 0.0) ||
        !std::isfinite(cfg.tripRecencyWindowMs)) {
        throw std::invalid_argument(
            "Router: breaker score penalties must be finite and >= 0 "
            "with a positive recency window");
    }
    if (cfg.scrub.enabled) {
        cfg.scrub.validate();
        if (cfg.scrub.repair && !_mutableStore) {
            throw std::invalid_argument(
                "Router: ScrubConfig::repair needs a mutable store "
                "handle (use the mutable-store constructor or disable "
                "repair)");
        }
    }
    for (const FaultInjector *f : _faults) {
        if (f && f->config().bitFlipRate > 0.0 && !_mutableStore) {
            throw std::invalid_argument(
                "Router: an injector has bitFlipRate > 0 but the "
                "router holds no mutable store handle");
        }
    }
    if (_cfg.integrity.enabled && _cfg.integrity.repair &&
        !_mutableStore) {
        throw std::invalid_argument(
            "Router: IntegrityConfig::repair needs a mutable store "
            "handle (use the mutable-store constructor or disable "
            "repair)");
    }

    _modelCfg = model_cfg;
    _modelSeed = model_seed;
    const auto groups = topo.partition(cfg.instances);
    _faults.resize(cfg.instances, nullptr);
    _models.reserve(cfg.instances);
    _servers.reserve(cfg.instances);
    std::vector<std::size_t> cores;
    for (std::size_t i = 0; i < cfg.instances; ++i) {
        // Full-replica view: private MLP weights, shared tables.
        _models.push_back(std::make_unique<core::DlrmModel>(
            model_cfg, _store, model_seed));
        _servers.push_back(std::make_unique<Server>(
            *_models.back(), groups[i], cfg.server, _faults[i]));
        cores.push_back(_servers.back()->numCores());
    }
    // A crashed instance drains all-or-nothing onto a residual group
    // with no grace: the group closes once its pinned work is done.
    _lifecycle = InstanceSet(
        std::move(cores),
        InstanceSetConfig{cfg.partialDrainCores, 0.0, cfg.probationMs},
        cfg.instances);
}

RouterStats
Router::serve(const core::Tensor& dense,
              const std::vector<core::SparseBatch>& batches,
              const std::vector<double>& arrivals_ms,
              const core::PrefetchSpec& pf,
              const FaultSchedule *schedule)
{
    if (batches.empty())
        throw std::invalid_argument("Router: need at least one batch");
    for (const auto& b : batches) {
        if (b.batchSize == 0)
            throw std::invalid_argument("Router: zero-sample request");
    }

    const std::size_t n = _servers.size();
    if (schedule) {
        schedule->validate(n);
        if (schedule->corruptsStore() && !_mutableStore) {
            throw std::invalid_argument(
                "Router: the fault schedule corrupts stored rows but "
                "the router holds no mutable store handle");
        }
    }

    const std::size_t rows = _models.front()->config().rows;
    const double sla = _cfg.server.slaMs;
    const bool use_breakers = _cfg.breaker.enabled;
    // Instances run at full capability; graceful degradation remains
    // an instance-local feature of Server::serve sessions.
    const DegradeState tier = DegradationPolicy::stateForTier(0);

    RouterStats rs;
    rs.total.arrived = arrivals_ms.size();
    rs.perInstance.resize(n);
    rs.availability.assign(n, 1.0);
    if (_cfg.recordPredictions)
        rs.predFingerprints.assign(arrivals_ms.size(), 0);

    // Per-instance routing state, all advanced on the virtual clock.
    std::vector<WindowedP95> wins;
    std::vector<std::uint64_t> sheds(n, 0);
    std::vector<double> busy(n, 0.0);
    std::vector<CircuitBreaker> breakers;
    std::size_t total_cores = 0;
    for (std::size_t i = 0; i < n; ++i) {
        wins.emplace_back(_cfg.healthWindow);
        breakers.emplace_back(_cfg.breaker);
        total_cores += _servers[i]->numCores();
    }

    // Background checksum scrubbing: deterministic round-robin sweep
    // on the virtual clock, interleaved with scripted bit flips in
    // exact time order by the lifecycle replay.
    std::unique_ptr<EmbeddingScrubber> scrubber;
    if (_cfg.scrub.enabled) {
        if (_mutableStore) {
            scrubber = std::make_unique<EmbeddingScrubber>(
                _mutableStore, _cfg.scrub);
        } else {
            scrubber = std::make_unique<EmbeddingScrubber>(
                _store, _cfg.scrub);
        }
    }

    // Scripted events apply lazily: the event loop pops attempts in
    // nondecreasing readyMs order, so folding in every scripted event
    // with atMs <= the current attempt's readyMs keeps the whole
    // session a pure function of (script, seeds).
    InstanceHooks hooks;
    hooks.restart = [&](std::size_t i, double) {
        // O(weights) rebuild: fresh MLP weights from the same seed
        // over the same shared store — the restarted replica is
        // bitwise-identical to its pre-crash self, so predictions are
        // unaffected.
        *_models[i] = core::DlrmModel(_modelCfg, _store, _modelSeed);
        // The rebuilt instance starts with a clean bill of health:
        // stale pre-crash failures say nothing about the fresh
        // weights. (Nothing consults the breaker until it is Up.)
        if (use_breakers)
            breakers[i].reset();
    };
    hooks.flip = [&](const BitFlipEvent& e) {
        _mutableStore->flipBit(e.table, e.row, e.bit);
    };
    hooks.scrub = [&](double t) {
        if (scrubber)
            scrubber->advanceTo(t);
    };
    InstanceSet& life = _lifecycle;
    life.startSession(schedule, std::move(hooks));

    /** Can new work be routed to instance @p i at @p now? */
    const auto availableFor = [&](std::size_t i, double now) -> bool {
        if (life[i].state != InstanceState::Up)
            return false;
        if (use_breakers && !breakers[i].admits(now))
            return false;
        return true;
    };

    const auto projectedWait = [&](std::size_t i,
                                   double ready) -> double {
        return std::max(0.0, life[i].freeAt[life.earliestCore(i)] - ready);
    };
    const auto samplesOf = [&](std::uint64_t req) -> std::size_t {
        return batches[req % batches.size()].batchSize;
    };
    const auto serviceOn = [&](std::size_t i, std::size_t core,
                               std::size_t samples,
                               double now) -> double {
        const FaultInjector *f = life.injectorAt(i, now, _faults[i]);
        const double straggle = f ? f->serviceFactor(core) : 1.0;
        return _cfg.server.service.serviceMs(samples) *
               tier.serviceFactor * straggle;
    };
    /** Projected completion of @p req on instance @p i at @p now. */
    const auto projectedEnd = [&](std::size_t i, double ready,
                                  std::size_t samples) -> double {
        const std::size_t core = life.earliestCore(i);
        return std::max(life[i].freeAt[core], ready) +
               serviceOn(i, core, samples, ready);
    };
    // Health score = projected *completion* on this instance: queue
    // wait plus the batch-size-aware (and straggler-aware) service
    // estimate for this request, plus tail-latency and failure/shed
    // penalties. Using the per-request estimate instead of a constant
    // lets the score separate instances whose queues look equal but
    // whose effective service rates differ.
    const auto healthScore = [&](std::size_t i, double ready,
                                 std::size_t samples) {
        double penalty =
            _cfg.failurePenaltyMs *
            static_cast<double>(_servers[i]->totalFailed() + sheds[i]);
        // Breaker-aware scoring: admits() is a binary gate, but the
        // score should also *bias* away from an instance on breaker
        // probation (half-open) or one whose breaker tripped moments
        // ago — recent proof of sickness outlasts the reclosing.
        if (use_breakers) {
            if (breakers[i].state(ready) ==
                CircuitBreaker::State::HalfOpen)
                penalty += _cfg.halfOpenPenaltyMs;
            const double trip = breakers[i].lastTripMs();
            if (trip >= 0.0 &&
                ready - trip < _cfg.tripRecencyWindowMs) {
                penalty += _cfg.tripRecencyPenaltyMs *
                           (1.0 - (ready - trip) /
                                      _cfg.tripRecencyWindowMs);
            }
        }
        return projectedWait(i, ready) +
               serviceOn(i, life.earliestCore(i), samples, ready) +
               wins[i].p95() + penalty;
    };

    std::uint64_t rr = 0;
    std::vector<std::size_t> cand; // po2 candidate scratch
    /** Routes an attempt over the available instances; returns n when
     *  no instance can take new work. */
    const auto route = [&](const RAttempt& a) -> std::size_t {
        cand.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (static_cast<int>(i) != a.exclude &&
                availableFor(i, a.readyMs))
                cand.push_back(i);
        }
        if (cand.empty()) {
            // The only remaining option may be the excluded instance
            // itself (e.g. every other instance is down).
            if (a.exclude >= 0 &&
                availableFor(static_cast<std::size_t>(a.exclude),
                             a.readyMs))
                return static_cast<std::size_t>(a.exclude);
            return n;
        }
        if (cand.size() == 1)
            return cand.front();
        switch (_cfg.policy) {
          case RoutePolicy::RoundRobin: {
            // Cycle the global counter until it lands on a candidate;
            // with every instance available this reduces to the
            // classic exclude-skipping round robin.
            for (std::size_t k = 0; k < 2 * n; ++k) {
                const std::size_t i = rr++ % n;
                if (std::find(cand.begin(), cand.end(), i) !=
                    cand.end())
                    return i;
            }
            return cand.front();
          }
          case RoutePolicy::PowerOfTwo: {
            // Two seed-derived candidates drawn over the available
            // set (ascending order, so with every instance available
            // the mapping matches the classic exclude-skip draw),
            // least-queued wins, lower index on ties.
            const auto pick = [&](std::uint64_t kind) -> std::size_t {
                std::size_t i = static_cast<std::size_t>(
                    drawUnit(_cfg.seed, kind, a.req, a.failovers) *
                    static_cast<double>(cand.size()));
                i = std::min(i, cand.size() - 1);
                return cand[i];
            };
            const std::size_t c1 = pick(1);
            const std::size_t c2 = pick(2);
            const double w1 = projectedWait(c1, a.readyMs);
            const double w2 = projectedWait(c2, a.readyMs);
            if (w1 != w2)
                return w1 < w2 ? c1 : c2;
            return std::min(c1, c2);
          }
          case RoutePolicy::HealthAware: {
            std::size_t best = n; // sentinel
            double best_score = std::numeric_limits<double>::max();
            for (const std::size_t i : cand) {
                const double s =
                    healthScore(i, a.readyMs, samplesOf(a.req));
                if (s < best_score) {
                    best_score = s;
                    best = i;
                }
            }
            return best;
          }
        }
        return cand.front();
    };

    // Dense inputs per batch size, reference-stable while tasks run.
    DensePrefixes dense_rows(dense);

    // Distinct (table, block) pairs touched by a sparse batch;
    // scratch reused across attempts. Out-of-range (poisoned)
    // indices are skipped — they fail in the kernel's bounds check,
    // not here.
    std::vector<core::BlockRef> touched;
    const auto touchedBlocks = [&](const core::SparseBatch& sparse) {
        touched.clear();
        const std::size_t tables = _store->numTables();
        for (std::size_t t = 0;
             t < std::min(tables, sparse.indices.size()); ++t) {
            for (const auto idx : sparse.indices[t]) {
                if (static_cast<std::uint64_t>(idx) <
                    static_cast<std::uint64_t>(rows)) {
                    touched.push_back(
                        {t, _store->blockOfRow(
                                static_cast<std::size_t>(idx))});
                }
            }
        }
        std::sort(touched.begin(), touched.end(),
                  [](const core::BlockRef& a, const core::BlockRef& b) {
                      return a.table != b.table ? a.table < b.table
                                                : a.block < b.block;
                  });
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
    };

    // One-request dispatch, reused across attempts.
    std::vector<const core::SparseBatch *> part(1);
    std::vector<const core::Tensor *> dense_part(1);

    std::priority_queue<RAttempt, std::vector<RAttempt>, RAttemptLater>
        events;
    std::uint64_t seq = 0;
    for (std::size_t r = 0; r < arrivals_ms.size(); ++r) {
        events.push(RAttempt{arrivals_ms[r], seq++, r, 0, 0, -1, -1,
                             arrivals_ms[r]});
    }

    double makespan = 0.0;

    while (!events.empty()) {
        RAttempt a = events.top();
        events.pop();

        life.advanceTo(a.readyMs);

        // Resolve the instance. A retry pinned to an instance that
        // has since left rotation (crashed or draining) is re-bound
        // by the routing policy — the request outlives its instance —
        // unless the instance is partially draining, in which case
        // its residual core group keeps serving pinned work.
        std::size_t inst;
        bool partial_drain = false;
        if (a.instance >= 0) {
            inst = static_cast<std::size_t>(a.instance);
            partial_drain = life[inst].state == InstanceState::Draining &&
                            life[inst].dispatchable();
            if (!life[inst].dispatchable()) {
                a.exclude = a.instance;
                a.instance = -1;
            }
        }
        if (a.instance < 0) {
            inst = route(a);
            if (inst >= n) {
                // No instance can take new work right now.
                if (a.tries == 0 && a.failovers == 0) {
                    ++rs.total.shed;
                    ++rs.lifecycleShed;
                    ++rs.clusterShed;
                } else {
                    ++rs.total.failed;
                }
                continue;
            }
            // Hedge: if the chosen instance's projected completion
            // already busts this request's deadline, redirect to the
            // best available instance that still fits instead of
            // queueing behind a dying one.
            if (_cfg.hedging && a.tries == 0) {
                const std::size_t samples = samplesOf(a.req);
                const double deadline = a.arrivalMs + sla;
                if (projectedEnd(inst, a.readyMs, samples) > deadline) {
                    std::size_t best = n;
                    double best_end =
                        std::numeric_limits<double>::max();
                    for (std::size_t j = 0; j < n; ++j) {
                        if (j == inst || !availableFor(j, a.readyMs))
                            continue;
                        const double e =
                            projectedEnd(j, a.readyMs, samples);
                        if (e <= deadline && e < best_end) {
                            best_end = e;
                            best = j;
                        }
                    }
                    if (best < n) {
                        inst = best;
                        ++rs.hedges;
                    }
                }
            }
        }
        if (use_breakers)
            breakers[inst].beginProbe(a.readyMs);

        ServeStats& pis = rs.perInstance[inst];
        if (a.tries == 0)
            ++pis.arrived;

        const std::size_t core = life.earliestCore(inst);
        const double start = std::max(life[inst].freeAt[core], a.readyMs);
        const double wait = start - a.readyMs;
        const FaultInjector *fault =
            life.injectorAt(inst, a.readyMs, _faults[inst]);
        const double service =
            serviceOn(inst, core, samplesOf(a.req), a.readyMs);

        // Admission control at the routed instance. Retries and
        // failovers are always admitted — their work is already paid
        // for. A shed where no *available* instance could have met
        // the deadline is additionally a cluster-level shed.
        if (_cfg.server.admission && a.tries == 0 &&
            a.failovers == 0 && wait + service > sla) {
            ++rs.total.shed;
            ++pis.shed;
            ++sheds[inst];
            bool any_fits = false;
            for (std::size_t j = 0; j < n && !any_fits; ++j) {
                if (!availableFor(j, a.readyMs))
                    continue;
                any_fits = projectedWait(j, a.readyMs) +
                               serviceOn(j, life.earliestCore(j),
                                         samplesOf(a.req),
                                         a.readyMs) <=
                           sla;
            }
            if (!any_fits)
                ++rs.clusterShed;
            continue;
        }

        // Time-varying silent corruption: an active bit-flip fault
        // upsets a stored row *before* this attempt reads the store.
        if (fault && _mutableStore)
            fault->maybeFlipStoredBit(*_mutableStore, a.req, a.tries);

        // Real execution on the instance's private pool.
        const core::SparseBatch& base =
            batches[a.req % batches.size()];
        core::SparseBatch sparse = fault
            ? fault->maybeCorrupt(base, rows, a.req, a.tries)
            : base;

        // Embedding integrity: verify every store block this
        // attempt's lookups touch before executing. A corrupt block
        // is repaired in place (regenerated to the exact as-built
        // bytes) or, with repair off, the request is degraded — a
        // counted failure instead of a silent wrong answer.
        bool degraded = false;
        if (_cfg.integrity.enabled) {
            touchedBlocks(sparse);
            for (const auto& blk : touched) {
                if (_store->verifyBlock(blk.table, blk.block))
                    continue;
                ++rs.corruptionsDetected;
                if (_cfg.integrity.repair && _mutableStore) {
                    _mutableStore->repairBlock(blk.table, blk.block);
                    ++rs.blocksRepaired;
                } else {
                    degraded = true;
                }
            }
        }
        if (degraded) {
            // Corruption is deterministic, not transient: without
            // repair a retry anywhere re-reads the same corrupt
            // block, so the request fails now, loudly.
            ++rs.integrityDegraded;
            ++rs.total.failed;
            ++pis.failed;
            continue;
        }

        bool ok = true;
        try {
            part[0] = &sparse;
            dense_part[0] = &dense_rows.rows(sparse.batchSize);
            rs.total.execTotalMs += _servers[inst]->executeBatchedAttempt(
                core, part, dense_part, tier, pf, *_models[inst], fault,
                a.req, a.tries);
            if (_cfg.recordPredictions) {
                rs.predFingerprints[a.req] = fingerprintPredictions(
                    _servers[inst]->lastPredictions());
            }
        } catch (...) {
            ok = false;
        }

        const double end = start + service;
        life.occupy(inst, core, end);
        busy[inst] += service;
        makespan = std::max(makespan, end);

        if (use_breakers && breakers[inst].record(ok, end))
            ++rs.breakerTrips;

        if (ok) {
            ++rs.total.served;
            ++pis.served;
            if (partial_drain)
                ++rs.partialDrainServed;
            const double latency = end - a.arrivalMs;
            rs.total.latency.add(latency);
            pis.latency.add(latency);
            wins[inst].add(latency);
            if (latency <= sla)
                ++rs.compliant;
        } else if (a.tries < _cfg.server.maxRetries) {
            ++rs.total.retried;
            ++pis.retried;
            const double backoff =
                retryBackoffMs(_cfg.server.backoffBaseMs,
                               _cfg.server.backoffCapMs, a.tries);
            // Keep a partially-draining instance open long enough for
            // the retry it is about to receive.
            if (life[inst].dispatchable())
                life.holdDrain(inst, end + backoff);
            events.push(RAttempt{end + backoff, seq++, a.req,
                                 a.tries + 1, a.failovers,
                                 static_cast<int>(inst), a.exclude,
                                 a.arrivalMs});
        } else if (a.failovers < _cfg.maxFailovers && n > 1) {
            // Retry budget exhausted here: hand the request to a
            // different replica with a fresh budget, once.
            ++rs.failovers;
            events.push(RAttempt{end + _cfg.server.backoffBaseMs,
                                 seq++, a.req, 0, a.failovers + 1, -1,
                                 static_cast<int>(inst), a.arrivalMs});
        } else {
            ++rs.total.failed;
            ++pis.failed;
        }
    }

    // Fold any scripted events up to the end of the session, so
    // availability accounts for outages no attempt happened to
    // observe; instances still out of rotation stay unavailable
    // through the end.
    life.advanceTo(makespan);
    rs.crashes = life.sessionCrashes();
    rs.restarts = life.sessionRestarts();
    if (scrubber) {
        rs.blocksScrubbed = scrubber->blocksScrubbed();
        rs.scrubCorruptions = scrubber->corruptionsFound();
        rs.scrubRepairs = scrubber->blocksRepaired();
        rs.scrubSweeps = scrubber->sweepsCompleted();
    }
    rs.makespanMs = makespan;
    if (makespan > 0.0) {
        double busy_total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            busy_total += busy[i];
            rs.perInstance[i].serverUtilization =
                busy[i] /
                (makespan * static_cast<double>(life[i].cores()));
            rs.availability[i] = life.upMs(i, makespan) / makespan;
        }
        rs.total.serverUtilization =
            busy_total /
            (makespan * static_cast<double>(total_cores));
    }
    return rs;
}

} // namespace dlrmopt::serve
