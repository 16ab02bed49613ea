#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <queue>
#include <stdexcept>

#include "serve/degrade.hpp"
#include "serve/instance_set.hpp"

namespace dlrmopt::serve
{

namespace
{

/** One scheduled arrival in the fleet's virtual-time loop. */
struct FArrival
{
    double tMs;
    std::uint64_t seq; //!< deterministic tie-break
    std::uint32_t tenant;
    std::uint64_t req;
};

struct FArrivalLater
{
    bool
    operator()(const FArrival& a, const FArrival& b) const
    {
        if (a.tMs != b.tMs)
            return a.tMs > b.tMs;
        return a.seq > b.seq;
    }
};

/**
 * Verifies every block of @p store that @p sparse's lookups touch and
 * repairs each corrupt one in place; returns the repairs. @p touched
 * is scratch. Out-of-range (poisoned) indices are skipped: they fail
 * in the kernel's bounds check, not here.
 */
std::uint64_t
repairTouchedBlocks(core::EmbeddingStore& store,
                    const core::SparseBatch& sparse,
                    std::vector<core::BlockRef>& touched)
{
    touched.clear();
    for (std::size_t t = 0;
         t < std::min(store.numTables(), sparse.indices.size()); ++t) {
        for (const auto idx : sparse.indices[t]) {
            if (static_cast<std::uint64_t>(idx) < store.rows()) {
                touched.push_back(
                    {t, store.blockOfRow(static_cast<std::size_t>(idx))});
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
    std::uint64_t repaired = 0;
    for (const auto& blk : touched) {
        if (!store.verifyBlock(blk.table, blk.block)) {
            store.repairBlock(blk.table, blk.block);
            ++repaired;
        }
    }
    return repaired;
}

} // namespace

std::uint64_t
fingerprintPredictions(const float *pred, std::size_t n)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t u;
        std::memcpy(&u, pred + i, sizeof(u));
        h = dlrmopt::mix64(h ^ u);
    }
    return h;
}

void
FleetConfig::validate() const
{
    if (instances == 0) {
        throw std::invalid_argument(
            "FleetConfig: need at least one instance slot");
    }
    if (!(quantumSamples > 0.0) || !std::isfinite(quantumSamples)) {
        throw std::invalid_argument(
            "FleetConfig: quantumSamples must be positive and finite");
    }
    if (!(backoffBaseMs >= 0.0) || !(backoffCapMs >= backoffBaseMs)) {
        throw std::invalid_argument(
            "FleetConfig: need 0 <= backoffBaseMs <= backoffCapMs");
    }
    batching.validate();
    capacity.validate();
    recalibration.validate();
    reload.validate();
    hotTier.validate();
    if (scrub.enabled)
        scrub.validate();
    if (capacity.minInstances > instances) {
        throw std::invalid_argument(
            "FleetConfig: capacity.minInstances exceeds the slot "
            "count");
    }
}

bool
FleetStats::conserved() const
{
    if (total.arrived != total.served + total.shed + total.failed)
        return false;
    for (const TenantStats& t : perTenant) {
        if (!t.conserved())
            return false;
    }
    return true;
}

std::string
FleetStats::summary() const
{
    char buf[512];
    const double pct = total.served
        ? 100.0 * static_cast<double>(compliant) /
            static_cast<double>(total.served)
        : 0.0;
    int len = std::snprintf(
        buf, sizeof(buf),
        "tenants %zu | arrived %zu served %zu shed %zu (budget %zu "
        "deadline %zu) failed %zu | compliant %zu (%.1f%%) | p95 %.3f "
        "ms | up %zu down %zu crashes %zu restarts %zu | %.0f "
        "instance-ms",
        perTenant.size(), total.arrived, total.served, total.shed,
        budgetShed, deadlineShed, total.failed, compliant, pct,
        total.latency.p95(), scaleUps, scaleDowns, crashes, restarts,
        instanceMsUp);
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        (recalibrations || blocksScrubbed)) {
        const int n = std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | refits %zu scrubbed %llu repaired %llu",
            recalibrations,
            static_cast<unsigned long long>(blocksScrubbed),
            static_cast<unsigned long long>(scrubRepairs));
        if (n > 0)
            len += n;
    }
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        verifyRepairs) {
        const int n = std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | verify repaired %llu",
            static_cast<unsigned long long>(verifyRepairs));
        if (n > 0)
            len += n;
    }
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        reloadsStarted) {
        const int n = std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | reloads %zu (committed %zu rolled-back %zu failed "
            "%zu) swaps %zu retired %zu",
            reloadsStarted, reloadsCommitted, reloadsRolledBack,
            reloadsFailed, versionSwaps, versionsRetired);
        if (n > 0)
            len += n;
    }
    if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf) &&
        tierHits + tierMisses > 0) {
        std::snprintf(
            buf + len, sizeof(buf) - static_cast<std::size_t>(len),
            " | tier hit %.1f%% promoted %llu demoted %llu",
            100.0 * tierHitRate(),
            static_cast<unsigned long long>(tierPromotions),
            static_cast<unsigned long long>(tierDemotions));
    }
    return buf;
}

TenantFleet::TenantFleet(const TenantRegistry& reg,
                         const sched::Topology& topo,
                         const FleetConfig& cfg)
    : _reg(reg), _cfg(cfg)
{
    _cfg.validate();
    if (_reg.empty()) {
        throw std::invalid_argument(
            "TenantFleet: need at least one tenant");
    }

    const auto groups = topo.partition(_cfg.instances);
    const std::size_t n_t = _reg.size();

    _stores.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k) {
        _stores.push_back(core::EmbeddingStore::createMutable(
            _reg.tenant(k).model, _cfg.seed + k));
    }

    _models.resize(_cfg.instances);
    _servers.resize(_cfg.instances);
    for (std::size_t i = 0; i < _cfg.instances; ++i) {
        _models[i].reserve(n_t);
        _servers[i].reserve(n_t);
        for (std::size_t k = 0; k < n_t; ++k) {
            const TenantConfig& tc = _reg.tenant(k);
            _models[i].push_back(std::make_unique<core::DlrmModel>(
                tc.model, _stores[k], _cfg.seed));
            ServerConfig sc;
            sc.slaMs = tc.effectiveSlaMs();
            sc.service = tc.service;
            sc.batching = _cfg.batching;
            sc.admission = _cfg.admission;
            sc.maxRetries = _cfg.maxRetries;
            sc.backoffBaseMs = _cfg.backoffBaseMs;
            sc.backoffCapMs = _cfg.backoffCapMs;
            _servers[i].push_back(std::make_unique<Server>(
                *_models[i].back(), groups[i], sc));
        }
    }
    _coresPerInstance = _servers.front().front()->numCores();

    // Replicated hot tiers: one per (instance, tenant) replica, each
    // pinned over that tenant's shared cold store — replicas learn
    // their own hot sets (they serve the same stream here, but the
    // layering matches a real fleet, where they would not).
    if (_cfg.hotTier.budgetBytes > 0) {
        _tiers.resize(_cfg.instances);
        for (std::size_t i = 0; i < _cfg.instances; ++i) {
            _tiers[i].reserve(n_t);
            for (std::size_t k = 0; k < n_t; ++k) {
                auto tier = std::make_shared<core::HotTierCache>(
                    _stores[k], _cfg.hotTier);
                _servers[i][k]->attachHotTier(tier);
                _tiers[i].push_back(std::move(tier));
            }
        }
    }

    // Boot version 1 per tenant: one shared full view over the
    // tenant's store, bitwise-equal to every replica's private view
    // (same cfg, store, seed), wrapped in the version holder the
    // dispatch path pins from.
    _versioned.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k) {
        const TenantConfig& tc = _reg.tenant(k);
        auto view = std::make_shared<const core::DlrmModel>(
            tc.model, _stores[k], _cfg.seed);
        _versioned.push_back(std::make_unique<core::VersionedModel>(
            core::ModelVersion::adopt(tc.model, 1, _cfg.seed,
                                      _stores[k], std::move(view))));
    }
}

FleetStats
TenantFleet::serve(const std::vector<TenantWorkload>& work,
                   const core::PrefetchSpec& pf,
                   const FaultSchedule *schedule,
                   const std::vector<ReloadEvent>& reloads)
{
    const std::size_t n_t = _reg.size();
    const std::size_t n_i = _servers.size();
    if (work.size() != n_t) {
        throw std::invalid_argument(
            "TenantFleet: need exactly one workload per tenant");
    }
    for (std::size_t k = 0; k < n_t; ++k) {
        if (!work[k].arrivalsMs.empty() && work[k].batches.empty()) {
            throw std::invalid_argument(
                "TenantFleet: tenant " + _reg.tenant(k).name +
                " has arrivals but no batches");
        }
        for (const auto& b : work[k].batches) {
            if (b.batchSize == 0) {
                throw std::invalid_argument(
                    "TenantFleet: tenant " + _reg.tenant(k).name +
                    " has a zero-sample request");
            }
        }
    }
    if (schedule)
        schedule->validate(n_i);

    FleetStats fs;
    fs.perTenant.resize(n_t);
    for (std::size_t k = 0; k < n_t; ++k) {
        fs.perTenant[k].stats.arrived = work[k].arrivalsMs.size();
        fs.perTenant[k].predFingerprints.assign(
            work[k].arrivalsMs.size(), 0);
        fs.total.arrived += work[k].arrivalsMs.size();
    }

    // ---- Per-tenant machinery -----------------------------------
    std::vector<ServiceModelRecalibrator> recal;
    recal.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k)
        recal.emplace_back(_reg.tenant(k).service, _cfg.recalibration);
    std::vector<ServiceModel> estimates(n_t);

    std::vector<std::unique_ptr<EmbeddingScrubber>> scrubbers;
    if (_cfg.scrub.enabled) {
        scrubbers.reserve(n_t);
        for (std::size_t k = 0; k < n_t; ++k) {
            scrubbers.push_back(std::make_unique<EmbeddingScrubber>(
                _versioned[k]->current()->store, _cfg.scrub));
        }
    }

    // ---- Versioned live reload ----------------------------------
    std::vector<core::VersionedModel *> holders;
    holders.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k)
        holders.push_back(_versioned[k].get());
    ReloadManager reload(_cfg.reload, reloads, holders, n_i);
    for (std::size_t k = 0; k < n_t; ++k) {
        if (_cfg.scrub.enabled)
            reload.attachScrubber(k, scrubbers[k].get());
        if (!work[k].batches.empty())
            reload.attachShadow(k, &work[k].dense, &work[k].batches);
    }
    if (schedule)
        reload.attachFaults(schedule);

    // Hot tiers: wire every replica tier for commit-time retargeting
    // and into its tenant's scrub sweep, and snapshot cumulative
    // counters so the session reports deltas (tiers outlive serve()
    // calls — a warm tier carries its hot set into the next session).
    std::vector<core::HotTierStats> tier_base;
    for (const auto& row : _tiers) {
        for (const auto& t : row)
            tier_base.push_back(t->stats());
    }
    if (!_tiers.empty()) {
        for (std::size_t i = 0; i < n_i; ++i) {
            for (std::size_t k = 0; k < n_t; ++k) {
                reload.attachHotTier(i, k, _tiers[i][k].get());
                if (_cfg.scrub.enabled)
                    scrubbers[k]->attachHotTier(_tiers[i][k].get());
            }
        }
    }

    // In-flight version pins, keyed by virtual completion time: a
    // dispatch's pin is released only when the clock passes its end,
    // so retiring versions outlive every batch that started on them.
    using Pin =
        std::pair<double, std::shared_ptr<const core::ModelVersion>>;
    const auto pinLater = [](const Pin& a, const Pin& b) {
        return a.first > b.first;
    };
    std::priority_queue<Pin, std::vector<Pin>, decltype(pinLater)>
        inflight(pinLater);

    WfqConfig wfq;
    wfq.weights = _reg.weights();
    wfq.quantumSamples = _cfg.quantumSamples;
    BatchQueue queue(_cfg.batching, wfq);

    // ---- Elastic capacity / lifecycle ---------------------------
    CapacityController ctrl(_cfg.capacity, n_i, _coresPerInstance);
    InstanceSet life(
        std::vector<std::size_t>(n_i, _coresPerInstance),
        InstanceSetConfig{_cfg.capacity.partialDrainCores,
                          _cfg.capacity.drainGraceMs,
                          _cfg.capacity.probationMs},
        _cfg.capacity.elastic ? _cfg.capacity.minInstances : n_i);

    InstanceHooks hooks;
    hooks.restart = [&](std::size_t i, double) {
        // O(weights) per tenant: fresh MLP views over the untouched
        // shared stores — the restarted replicas are bitwise-
        // identical to their pre-crash selves.
        for (std::size_t k = 0; k < n_t; ++k) {
            *_models[i][k] = core::DlrmModel(_reg.tenant(k).model,
                                             _stores[k], _cfg.seed);
        }
        // Re-pin the replica's hot tiers against the committed
        // version of record: the hot set survives the restart, its
        // bytes re-copied (and checksums rebuilt) from the store the
        // replica will actually serve.
        if (!_tiers.empty()) {
            for (std::size_t k = 0; k < n_t; ++k)
                _tiers[i][k]->retarget(_versioned[k]->current()->store);
        }
        // The replica comes back on the committed version of record;
        // an active rollout re-reconciles it at commit/rollback.
        reload.notifyRestart(i);
    };
    hooks.flip = [&](const BitFlipEvent& e) {
        // A host-level memory fault hits whichever colocated tenant
        // stores the (table, row, bit) coordinate fits in — the
        // *currently serving* version's bytes, plus any incoming
        // version still mid-rollout (whose integrity gates must be
        // able to catch it).
        for (std::size_t k = 0; k < n_t; ++k) {
            core::EmbeddingStore& st =
                *_versioned[k]->current()->store;
            if (e.table < st.numTables() && e.row < st.rows() &&
                e.bit < st.dim() * 32) {
                st.flipBit(e.table, e.row, e.bit);
            }
        }
        // The same fault hits any replica's pinned copy of the row —
        // the tier's own checksums must catch it independently.
        for (const auto& row_tiers : _tiers) {
            for (const auto& t : row_tiers) {
                if (e.table < t->coldStore()->numTables() &&
                    e.row < t->coldStore()->rows() &&
                    e.bit <
                        t->coldStore()->table(0).storedRowBytes() * 8) {
                    t->flipBit(e.table,
                               static_cast<dlrmopt::RowIndex>(e.row),
                               e.bit);
                }
            }
        }
        reload.applyBitFlip(e.table, e.row, e.bit);
    };
    hooks.scrub = [&](double t) {
        for (auto& sc : scrubbers)
            sc->advanceTo(t);
    };
    life.startSession(schedule, std::move(hooks));

    /** Slot a scale-up can warm-restart: Down and not held down by a
     *  scripted crash (n_i when none). */
    const auto restartable = [&]() -> std::size_t {
        for (std::size_t i = 0; i < n_i; ++i) {
            if (life[i].state == InstanceState::Down &&
                !life[i].scriptedDown)
                return i;
        }
        return n_i;
    };

    const auto reconcile = [&](double now) {
        if (!_cfg.capacity.elastic)
            return;
        // Reload-aware capacity: while a canary/rollout is in flight,
        // freeze the controller's scale-down hysteresis — a lull
        // spanning the rollout must not bank credit and drain the
        // canary (or an instance mid-swap) the moment a window closes.
        ctrl.holdScaleDowns(reload.active());
        const std::size_t desired = ctrl.desiredInstances(now);
        fs.peakForecastLoad =
            std::max(fs.peakForecastLoad, ctrl.forecastLoad());

        std::size_t live = 0;
        for (std::size_t i = 0; i < n_i; ++i) {
            const InstanceState st = life[i].state;
            if (st == InstanceState::Up ||
                st == InstanceState::WarmRestart ||
                (st == InstanceState::Draining && !life[i].scriptedDown))
                ++live;
        }
        // Scale up by warm-restarting Down slots, lowest index first.
        // An elastic drain in progress counts as live and is never
        // called off: it runs to Down first.
        for (std::size_t pick = restartable(); live < desired && pick < n_i;
             pick = restartable()) {
            life.beginWarmRestart(pick, now);
            ++fs.scaleUps;
            ++live;
        }
        // Scale down: drain the highest-index Up instances. Never
        // while a reload is in flight — the highest-index Up instance
        // may be the canary, and draining any instance mid-rollout
        // churns the pin set the stage machinery is swapping.
        std::size_t up = 0;
        for (std::size_t i = 0; i < n_i; ++i)
            up += life[i].state == InstanceState::Up ? 1 : 0;
        for (std::size_t i = n_i; i-- > 0 && up > desired &&
                                  !reload.active();) {
            if (life[i].state != InstanceState::Up)
                continue;
            life.beginDrain(i, now);
            ++fs.scaleDowns;
            fs.scaleDownAtMs.push_back(now);
            --up;
        }
    };

    // ---- Scripted chaos -----------------------------------------
    std::vector<char> up_flags(n_i, 0);
    const auto advanceReload = [&](double now) {
        for (std::size_t i = 0; i < n_i; ++i)
            up_flags[i] = life[i].state == InstanceState::Up ? 1 : 0;
        reload.advanceTo(now, up_flags);
        // Release the pins of every dispatch the clock has passed,
        // then reclaim any retiring version whose pins have drained.
        while (!inflight.empty() && inflight.top().first <= now)
            inflight.pop();
        for (std::size_t k = 0; k < n_t; ++k)
            fs.versionsRetired += _versioned[k]->retireDrained();
    };

    const auto applyUpTo = [&](double now) {
        life.advanceTo(now);
        reconcile(now);
        advanceReload(now);
    };

    // Earliest-free (instance, core) over the dispatchable set;
    // returns {n_i, 0} when none. Lowest indices win ties.
    struct Slot
    {
        std::size_t inst;
        std::size_t core;
        double freeMs;
    };
    const auto bestSlot = [&]() -> Slot {
        Slot s{n_i, 0, std::numeric_limits<double>::max()};
        for (std::size_t i = 0; i < n_i; ++i) {
            if (!life[i].dispatchable())
                continue;
            const std::size_t c = life.earliestCore(i);
            if (life[i].freeAt[c] < s.freeMs)
                s = Slot{i, c, life[i].freeAt[c]};
        }
        return s;
    };

    // ---- Arrival stream -----------------------------------------
    std::priority_queue<FArrival, std::vector<FArrival>, FArrivalLater>
        arrivals;
    {
        std::uint64_t seq = 0;
        for (std::size_t k = 0; k < n_t; ++k) {
            for (std::size_t r = 0; r < work[k].arrivalsMs.size(); ++r) {
                arrivals.push(FArrival{work[k].arrivalsMs[r], seq++,
                                       static_cast<std::uint32_t>(k),
                                       r});
            }
        }
    }

    std::uint64_t pseq = 0;
    const auto admitArrival = [&](const FArrival& e) {
        const TenantConfig& tc = _reg.tenant(e.tenant);
        const std::size_t samples =
            work[e.tenant]
                .batches[e.req % work[e.tenant].batches.size()]
                .batchSize;
        ctrl.observeArrival(
            e.tMs, recal[e.tenant].current().serviceMs(samples));
        TenantStats& ts = fs.perTenant[e.tenant];
        if (tc.admissionBudget != 0 &&
            queue.queuedOf(e.tenant) >= tc.admissionBudget) {
            ++ts.stats.shed;
            ++ts.budgetShed;
            ++fs.total.shed;
            ++fs.budgetShed;
            return;
        }
        queue.push(PendingRequest{e.tMs, pseq++, e.req, 0, e.tMs,
                                  samples, e.tenant,
                                  tc.effectiveSlaMs()});
    };

    // Per-tenant dense inputs per member size, reference-stable.
    std::vector<DensePrefixes> dense_rows;
    dense_rows.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k)
        dense_rows.emplace_back(work[k].dense);

    // Per-tenant degradation: each tenant walks its own tier ladder
    // against its own SLA, so one tenant's tail blow-up shrinks only
    // that tenant's coalescing cap, precision and prefetch. Tenants with
    // degrade disabled (the default) stay pinned at tier 0.
    std::vector<DegradationPolicy> degrade;
    degrade.reserve(n_t);
    for (std::size_t k = 0; k < n_t; ++k) {
        degrade.emplace_back(_reg.tenant(k).degrade,
                             _reg.tenant(k).effectiveSlaMs());
    }
    std::vector<std::size_t> caps(n_t, _cfg.batching.maxRequests);

    const double linger = _cfg.batching.maxLingerMs;
    const double inf = std::numeric_limits<double>::max();

    // Reused per-dispatch scratch.
    std::vector<PendingRequest> members;
    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense_parts;
    std::vector<std::size_t> member_sizes;
    std::vector<char> member_ok;
    std::vector<core::SparseBatch> corrupted;
    std::vector<core::BlockRef> touched;

    double makespan = 0.0;
    double busy_ms = 0.0;

    while (!arrivals.empty() || !queue.empty()) {
        const double next_evt =
            arrivals.empty() ? inf : arrivals.top().tMs;

        if (queue.empty()) {
            const FArrival e = arrivals.top();
            arrivals.pop();
            applyUpTo(e.tMs);
            admitArrival(e);
            continue;
        }

        Slot slot = bestSlot();
        if (slot.inst >= n_i) {
            // Nothing can take work. Sleep until something will:
            // a drain completing (frees the slot for a restart), a
            // probation ending, or the next scripted lifecycle event.
            const double wake = life.nextWakeMs();
            if (_cfg.capacity.elastic) {
                // Emergency scale-up: queued work with zero serving
                // capacity is the strongest possible load signal —
                // restart a healthy Down slot right now instead of
                // waiting for the forecast to notice.
                const std::size_t pick = restartable();
                if (pick < n_i) {
                    life.beginWarmRestart(pick, queue.headReadyMs());
                    ++fs.scaleUps;
                    continue;
                }
            }
            if (wake == inf && arrivals.empty()) {
                // Every instance is chaos-down for good: abandon the
                // queue, loudly, conserving per-tenant accounting.
                while (!queue.empty()) {
                    queue.nextBatch(inf, 1, 0.0,
                                    ServiceModel::constant(1.0), 1.0,
                                    members);
                    for (const PendingRequest& m : members) {
                        TenantStats& ts = fs.perTenant[m.tenant];
                        ++ts.stats.failed;
                        ++fs.total.failed;
                        ++fs.lifecycleShed;
                    }
                }
                continue;
            }
            const double t = std::min(wake, next_evt);
            applyUpTo(t);
            if (next_evt <= wake) {
                const FArrival e = arrivals.top();
                arrivals.pop();
                admitArrival(e);
            }
            continue;
        }

        const double head_ready = queue.headReadyMs();
        const double td = std::max(slot.freeMs, head_ready);
        const double hold = std::max(td, head_ready + linger);
        if (next_evt <= hold) {
            const FArrival e = arrivals.top();
            arrivals.pop();
            applyUpTo(e.tMs);
            admitArrival(e);
            continue;
        }

        // Commit to dispatching at td — but applying lazy events up
        // to td may change the fleet (a crash, a scale move, a
        // probation ending on an idler core). Re-resolve and retry
        // the loop when the slot moved.
        applyUpTo(td);
        const Slot again = bestSlot();
        if (again.inst != slot.inst || again.core != slot.core ||
            again.freeMs != slot.freeMs)
            continue;

        const std::size_t inst = slot.inst;
        const std::size_t core = slot.core;
        const FaultInjector *finj = life.injectorAt(inst, td);
        const double straggle =
            finj ? finj->serviceFactor(core) : 1.0;

        for (std::size_t k = 0; k < n_t; ++k) {
            estimates[k] = recal[k].current();
            caps[k] = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::floor(
                       degrade[k].state().batchFraction *
                       static_cast<double>(
                           _cfg.batching.maxRequests))));
        }
        queue.nextBatch(life[inst].freeAt[core], caps, 0.0, estimates,
                        straggle, members);
        if (members.empty())
            continue;

        const std::uint32_t ten = members.front().tenant;
        const DegradeState tier = degrade[ten].state();
        const TenantConfig& tc = _reg.tenant(ten);
        TenantStats& ts = fs.perTenant[ten];
        const double sla = tc.effectiveSlaMs();

        double latest_ready = members.front().readyMs;
        std::size_t total_samples = 0;
        for (const PendingRequest& m : members) {
            latest_ready = std::max(latest_ready, m.readyMs);
            total_samples += m.samples;
        }
        const double start = std::max(life[inst].freeAt[core], latest_ready);

        // The *estimate* prices admission; the scripted *truth*
        // advances the clock. Their gap is exactly what in-session
        // recalibration exists to close.
        const double est_service =
            estimates[ten].serviceMs(total_samples) * straggle;
        const ServiceModel& truth = tc.truth.at(start);
        const double true_service =
            truth.serviceMs(total_samples) * straggle;

        if (_cfg.admission && members.size() == 1 &&
            members.front().tries == 0 &&
            start + est_service >
                members.front().arrivalMs + sla) {
            ++ts.stats.shed;
            ++ts.deadlineShed;
            ++fs.total.shed;
            ++fs.deadlineShed;
            continue;
        }

        // Pin the version this dispatch executes on. The pin is
        // copied once, the whole coalesced batch runs on its model,
        // and the pin is released only when the virtual clock passes
        // the dispatch's end — a reload swapping this slot mid-flight
        // never mixes versions inside the batch.
        std::shared_ptr<const core::ModelVersion> pin =
            reload.pinned(inst, ten);
        const std::uint64_t pin_fp = pin->fingerprint;

        // Per-member fault resolution before the fused forward (one
        // poisoned member fails alone, exactly like Server's batched
        // path).
        const std::size_t rows_k = tc.model.rows;
        const auto& batches_k = work[ten].batches;
        parts.clear();
        dense_parts.clear();
        member_sizes.clear();
        member_ok.assign(members.size(), 1);
        corrupted.clear();
        if (finj)
            corrupted.reserve(members.size());
        for (std::size_t m = 0; m < members.size(); ++m) {
            const PendingRequest& r = members[m];
            const core::SparseBatch *sparse =
                &batches_k[r.req % batches_k.size()];
            if (finj) {
                // Time-varying silent corruption: an active bit-flip
                // phase upsets a row of the pinned version's store
                // before this member reads it.
                finj->maybeFlipStoredBit(*pin->store, r.req, r.tries);
                try {
                    finj->maybeThrow(r.req, r.tries);
                } catch (...) {
                    member_ok[m] = 0;
                    continue;
                }
                corrupted.push_back(finj->maybeCorrupt(
                    *sparse, rows_k, r.req, r.tries));
                sparse = &corrupted.back();
                if (!sparse->valid(rows_k)) {
                    member_ok[m] = 0;
                    continue;
                }
            }
            if (_cfg.verifyBlocks) {
                fs.verifyRepairs +=
                    repairTouchedBlocks(*pin->store, *sparse, touched);
            }
            parts.push_back(sparse);
            dense_parts.push_back(&dense_rows[ten].rows(r.samples));
            member_sizes.push_back(r.samples);
        }

        bool exec_ok = true;
        if (!parts.empty()) {
            try {
                fs.total.execTotalMs +=
                    _servers[inst][ten]->executeBatchedAttempt(
                        core, parts, dense_parts, tier, pf,
                        *pin->model);
            } catch (...) {
                exec_ok = false;
            }
        }
        if (pin->fingerprint != pin_fp) {
            throw std::logic_error(
                "TenantFleet: version identity changed under an "
                "in-flight batch");
        }

        ++fs.total.dispatches;
        ++ts.stats.dispatches;
        if (tier.dtype != core::EmbDtype::Fp32) {
            ++fs.total.quantDispatches;
            ++ts.stats.quantDispatches;
        }
        const double end = start + true_service;
        inflight.emplace(end, std::move(pin));
        life.occupy(inst, core, end);
        busy_ms += true_service;
        makespan = std::max(makespan, end);

        // Feed recalibration the measured (un-straggled) dispatch
        // time — the estimate chases the scripted truth.
        recal[ten].observe(total_samples,
                           truth.serviceMs(total_samples));
        if (recal[ten].maybeRecalibrate(end))
            ++fs.recalibrations;

        const core::Tensor& pred =
            _servers[inst][ten]->lastPredictions();
        std::size_t pred_row = 0; // executed members' rows, in order
        for (std::size_t m = 0; m < members.size(); ++m) {
            const PendingRequest& r = members[m];
            const bool ok = member_ok[m] && exec_ok;
            if (ok) {
                ts.predFingerprints[r.req] = fingerprintPredictions(
                    pred.data() + pred_row * pred.cols(),
                    r.samples * pred.cols());
                ++fs.total.served;
                ++ts.stats.served;
                const double latency = end - r.arrivalMs;
                fs.total.latency.add(latency);
                ts.stats.latency.add(latency);
                degrade[ten].observe(latency);
                reload.observeLatency(inst, ten, latency);
                if (latency <= sla) {
                    ++fs.compliant;
                    ++ts.compliant;
                }
            } else if (r.tries < _cfg.maxRetries) {
                ++fs.total.retried;
                ++ts.stats.retried;
                const double backoff = retryBackoffMs(
                    _cfg.backoffBaseMs, _cfg.backoffCapMs, r.tries);
                queue.push(PendingRequest{end + backoff, pseq++, r.req,
                                          r.tries + 1, r.arrivalMs,
                                          r.samples, ten, sla});
            } else {
                ++fs.total.failed;
                ++ts.stats.failed;
            }
            if (member_ok[m])
                pred_row += r.samples;
        }
    }

    // Fold remaining scripted events / ticks into the final state so
    // availability-style accounting covers the whole session.
    applyUpTo(makespan);

    // Let a rollout whose canary window or stage holds extend past
    // the last dispatch run to completion — the fleet stays up after
    // the request stream ends, so time keeps passing for the reload
    // machinery (bounded: each pass crosses at least one stage).
    {
        const double grace = std::max(
            {_cfg.reload.loadMs, _cfg.reload.canaryWindowMs,
             _cfg.reload.stageHoldMs, 1.0});
        double t = makespan;
        for (int g = 0; g < 10000 && reload.active(); ++g) {
            t += grace;
            applyUpTo(t);
        }
    }
    for (std::size_t i = 0; i < n_i; ++i)
        fs.instanceMsUp += life.upMs(i, makespan);
    fs.crashes = life.sessionCrashes();
    fs.restarts = life.sessionRestarts();
    for (const auto& s : scrubbers) {
        fs.blocksScrubbed += s->blocksScrubbed();
        fs.scrubCorruptions += s->corruptionsFound();
        fs.scrubRepairs += s->blocksRepaired();
        fs.scrubSweeps += s->sweepsCompleted();
    }
    {
        std::size_t ti = 0;
        for (const auto& row_tiers : _tiers) {
            for (const auto& t : row_tiers) {
                const core::HotTierStats s = t->stats();
                const core::HotTierStats& b = tier_base[ti++];
                fs.tierHits += s.hits - b.hits;
                fs.tierMisses += s.misses - b.misses;
                fs.tierPromotions += s.promotions - b.promotions;
                fs.tierDemotions += s.demotions - b.demotions;
                fs.tierCorruptions +=
                    s.corruptionsFound - b.corruptionsFound;
                fs.tierQuarantined +=
                    s.blocksQuarantined - b.blocksQuarantined;
                fs.tierRepaired += s.blocksRepaired - b.blocksRepaired;
            }
        }
    }
    fs.estimateError.resize(n_t);
    fs.estimateStale.resize(n_t);
    for (std::size_t k = 0; k < n_t; ++k) {
        fs.estimateError[k] = recal[k].meanRelativeError();
        fs.estimateStale[k] = recal[k].stale() ? 1 : 0;
        fs.perTenant[k].stats.makespanMs = makespan;
        fs.perTenant[k].stats.degradeEscalations =
            degrade[k].escalations();
        fs.perTenant[k].stats.finalTier = degrade[k].tier();
    }
    fs.reloadsStarted = reload.started();
    fs.reloadsCommitted = reload.committed();
    fs.reloadsRolledBack = reload.rolledBack();
    fs.reloadsFailed = reload.failed();
    fs.shadowedRequests = reload.shadowedRequests();
    fs.versionSwaps = reload.instanceSwaps();
    fs.reloadOutcomes = reload.outcomes();
    fs.finalVersions.resize(n_t);
    for (std::size_t k = 0; k < n_t; ++k)
        fs.finalVersions[k] = _versioned[k]->currentVersion();
    fs.makespanMs = makespan;
    fs.total.makespanMs = makespan;
    if (fs.instanceMsUp > 0.0) {
        fs.total.serverUtilization =
            busy_ms /
            (fs.instanceMsUp * static_cast<double>(_coresPerInstance));
    }
    return fs;
}

} // namespace dlrmopt::serve
