/**
 * @file
 * Real-clock, open-loop serving benchmark over the repository's
 * serving stack.
 *
 * One run serves one workload on the wall clock:
 *
 *  - a generator thread, pinned to the first core, replays a Poisson
 *    arrival stream and pushes each request into a mutex-guarded
 *    serve::BatchQueue the moment it is due;
 *  - every other core hosts one serving instance: a serve::Server over
 *    one group of Topology::partition() with pinned workers, plus a
 *    dispatcher thread pinned to the same core that pulls a coalesced
 *    group and calls Server::executeBatchedAttempt.
 *
 * Latency runs from a request's due time to its predictions being
 * ready, so queue wait and generator stalls both count. Everything is
 * measured from outside, by timing calls into public functions.
 *
 * Usage: perfbench_serve --workload NAME --seed N --seconds S
 *        --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a traced replay of the nominal step. The last stdout line
 * is one JSON object; README.md in this directory describes the rest.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/gemm.hpp"
#include "core/hot_tier.hpp"
#include "core/model_config.hpp"
#include "core/simd.hpp"
#include "core/types.hpp"
#include "sched/topology.hpp"
#include "serve/batch_queue.hpp"
#include "serve/latency_stats.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/service_model.hpp"
#include "trace/generator.hpp"

namespace
{

namespace core = dlrmopt::core;
namespace sched = dlrmopt::sched;
namespace serve = dlrmopt::serve;
namespace traces = dlrmopt::traces;

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
        .count();
}

/** Seed of the model weights and table contents: the model is part of
 *  the system under test, so it does not vary with --seed. */
constexpr std::uint64_t kModelSeed = 42;

/** Distinct request inputs per trace phase; requests draw from them. */
constexpr std::size_t kPoolSize = 256;

/** Setups per end-to-end run; setup_s reports their median. */
constexpr int kSetupRepeats = 3;

/** Rounds per end-to-end run. Each round replays the nominal and high
 *  steps and a saturation window, so a burst of noise from other
 *  tenants of the host lands in one round, and the medians across
 *  rounds step over it. */
constexpr int kRounds = 5;

/** Fewest requests per step: 1000 put at least 10 beyond p99. */
constexpr std::size_t kMinStepRequests = 1000;

/** A step whose generator ran later than this at p99 is invalid. */
constexpr double kLagBoundMs = 25.0;

/** Arrivals the modeled virtual-clock replay prices. */
constexpr std::size_t kVirtualRequests = 1500;

/**
 * Step rates as fractions of a workload's reference rate: the nominal
 * step, the high step, and a probe step past capacity. The nominal and
 * high steps run in every round; the probes above them run once.
 */
const std::vector<double> kLadder = {0.6, 0.9, 4.0};
constexpr std::size_t kNominal = 0;
constexpr std::size_t kHigh = 1;

/**
 * One workload: the model, its inputs, how requests coalesce, and its
 * reference rate. Rates and the SLA are constants measured once on the
 * reference host (4-core Xeon, AVX-512, 105 MiB L3); nothing here is
 * re-derived at run time. Reference rates sit at 35-50% of the capacity
 * of a quiet host and SLAs at 10-25x the unloaded p50, so the nominal
 * and high steps still pass while other tenants load the host.
 */
struct Workload
{
    std::string name;
    core::ModelConfig model;
    traces::Hotness hotness = traces::Hotness::Low;
    core::EmbDtype dtype = core::EmbDtype::Fp32;
    std::size_t samples = 0;  //!< samples per request
    std::size_t coalesce = 1; //!< max requests per dispatch
    bool tier = false;        //!< per-instance HotTierCache attached
    std::size_t tierBudgetBytes = 0;
    std::size_t epochLookups = 0;
    double refRps = 0.0;         //!< reference rate (requests/s)
    double slaMs = 0.0;          //!< p99 latency limit
    serve::ServiceModel modeled; //!< fixed model for the modeled metrics
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> w(3);

    // RMC2 gathers: rm2_1 at dim 128, 120 lookups, 1M-row tables,
    // scaled to 4 tables = 2 GB of fp32 (~19x the LLC), Low hotness.
    w[0].name = "emb_cold";
    w[0].model = core::rm2_1().scaledToFit(2.0 * 1024 * 1024 * 1024);
    w[0].hotness = traces::Hotness::Low;
    w[0].samples = core::paperBatchSize;
    w[0].coalesce = 1;
    w[0].refRps = 430.0;
    w[0].slaMs = 60.0;
    w[0].modeled = serve::ServiceModel{0.2, 0.058};

    // Compute-bound GEMMs: rm1 with its 2048-2048-256-64 bottom MLP,
    // tables scaled to 64 MB so they sit in the LLC; 8-sample requests
    // coalesce up to 8 per dispatch.
    w[1].name = "mlp_dense";
    w[1].model = core::rm1().scaledToFit(64.0 * 1024 * 1024);
    w[1].hotness = traces::Hotness::Low;
    w[1].samples = 8;
    w[1].coalesce = 8;
    w[1].refRps = 700.0;
    w[1].slaMs = 80.0;
    w[1].modeled = serve::ServiceModel{2.3, 0.214};

    // Hot-tier reads beside writes: the emb_cold tables served at bf16
    // through a per-instance tier, High hotness, with the hot set
    // moving halfway through every step.
    w[2].name = "tier_drift";
    w[2].model = w[0].model;
    w[2].hotness = traces::Hotness::High;
    w[2].dtype = core::EmbDtype::Bf16;
    w[2].samples = core::paperBatchSize;
    w[2].coalesce = 1;
    w[2].tier = true;
    w[2].tierBudgetBytes = 8u << 20;
    w[2].epochLookups = 2'000'000;
    w[2].refRps = 1000.0;
    w[2].slaMs = 100.0;
    w[2].modeled = serve::ServiceModel{0.1, 0.024};
    return w;
}

/** Every pinThreadToCpu call of the run, and how many failed. */
std::atomic<int> gPinCalls{0};
std::atomic<int> gPinFailures{0};

void
pinSelf(int cpu)
{
    gPinCalls.fetch_add(1);
    if (!sched::pinThreadToCpu(cpu))
        gPinFailures.fetch_add(1);
}

/** Order-sensitive digest of a prediction block's bit patterns. */
std::uint64_t
fingerprint(const float *p, std::size_t n)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, p + i, sizeof bits);
        h = dlrmopt::mix64(h ^ bits);
    }
    return h;
}

/** Request inputs: kPoolSize per trace phase (two for tier_drift,
 *  whose second phase comes from a different trace seed). */
struct Inputs
{
    std::vector<core::SparseBatch> sparse;
    std::vector<core::Tensor> dense;
    std::size_t phases = 1;
};

Inputs
makeInputs(const Workload& w, std::uint64_t seed)
{
    Inputs in;
    in.phases = w.tier ? 2 : 1;
    const std::size_t dense_dim = w.model.denseDim();
    for (std::size_t ph = 0; ph < in.phases; ++ph) {
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            w.model, w.hotness, dlrmopt::mix64(seed * 2 + ph + 1));
        tc.batchSize = w.samples;
        const traces::TraceGenerator gen(tc);
        for (std::size_t i = 0; i < kPoolSize; ++i) {
            in.sparse.push_back(gen.batch(i));
            core::Tensor d(w.samples, dense_dim);
            const std::uint64_t base =
                dlrmopt::mix64(seed ^ (0xd15ea5e0ull + ph * kPoolSize + i));
            for (std::size_t k = 0; k < d.size(); ++k) {
                d.data()[k] = static_cast<float>(
                    dlrmopt::mix64(base + k) >> 40) / 16777216.0f;
            }
            in.dense.push_back(std::move(d));
        }
    }
    return in;
}

/** One serving instance: a replica view, its tier, its Server, and the
 *  scratch its traced dispatches run through. */
struct Instance
{
    int cpu = -1;
    std::unique_ptr<core::DlrmModel> model;
    std::shared_ptr<core::HotTierCache> tier;
    std::unique_ptr<serve::Server> server;

    core::SparseBatch concat;
    core::Tensor dense, bottom, emb, inter, pred, mlpA, mlpB;
    std::vector<const float *> embPtrs;
};

struct Fleet
{
    int generatorCpu = -1;
    std::shared_ptr<const core::EmbeddingStore> store;
    std::shared_ptr<const core::EmbeddingStore> quant;
    std::vector<Instance> inst;
};

const core::PrefetchSpec kPrefetch = core::PrefetchSpec::paperDefault();

serve::ServerConfig
serverConfig(const Workload& w, bool pin)
{
    serve::ServerConfig sc;
    sc.slaMs = w.slaMs;
    sc.service = w.modeled;
    sc.dtype = w.dtype;
    sc.batching.enabled = w.coalesce > 1;
    sc.batching.maxRequests = w.coalesce;
    sc.admission = false;
    sc.pin = pin;
    return sc;
}

/** Everything up to the first timed request: stores, replica views,
 *  tier warm-up, Servers, workspace growth and warm-up dispatches. */
std::unique_ptr<Fleet>
setupFleet(const Workload& w, const Inputs& in,
           const std::vector<sched::Topology>& groups)
{
    auto f = std::make_unique<Fleet>();
    f->generatorCpu = groups[0].siblings(0).front();
    f->store = core::EmbeddingStore::create(w.model, kModelSeed);
    if (w.dtype != core::EmbDtype::Fp32) {
        f->quant =
            core::EmbeddingStore::create(w.model, kModelSeed, 256, w.dtype);
    }
    f->inst.resize(groups.size() - 1);
    for (std::size_t i = 0; i < f->inst.size(); ++i) {
        Instance& s = f->inst[i];
        s.cpu = groups[i + 1].siblings(0).front();
        s.model = std::make_unique<core::DlrmModel>(w.model, f->store,
                                                    kModelSeed);
        if (f->quant)
            s.model->attachQuantizedStore(f->quant);
        if (w.tier) {
            core::HotTierConfig hc;
            hc.budgetBytes = w.tierBudgetBytes;
            hc.epochLookups = w.epochLookups;
            s.tier = std::make_shared<core::HotTierCache>(
                s.model->sharedStoreFor(w.dtype), hc);
            for (std::size_t r = 0; r < kPoolSize / 8; ++r) {
                const core::SparseBatch& b = in.sparse[r];
                for (std::size_t t = 0; t < b.numTables(); ++t) {
                    for (dlrmopt::RowIndex idx : b.indices[t])
                        s.tier->recordAccess(t, idx);
                }
            }
            s.tier->endEpoch();
        }
        s.server = std::make_unique<serve::Server>(
            *s.model, groups[i + 1], serverConfig(w, true));
        s.server->attachHotTier(s.tier);
        // Warm-up: every coalesced group size once, so the workspace
        // has grown to its final capacity before timing starts.
        for (std::size_t g = 1; g <= w.coalesce; ++g) {
            std::vector<const core::SparseBatch *> parts;
            std::vector<const core::Tensor *> dense;
            for (std::size_t k = 0; k < g; ++k) {
                parts.push_back(&in.sparse[k]);
                dense.push_back(&in.dense[k]);
            }
            s.server->executeBatchedAttempt(0, parts, dense,
                                            serve::DegradeState{},
                                            kPrefetch);
        }
    }
    return f;
}

/** What happened to one request of a step. */
struct RequestRec
{
    double dueMs = 0.0;
    double popMs = 0.0;
    double doneMs = 0.0;
    double lagMs = 0.0;
    std::uint64_t fp = 0;
    std::uint32_t input = 0;
    bool done = false;
    bool failed = false;
};

/** One dispatch; the stage spans are filled on traced dispatches. */
struct DispatchRec
{
    double startMs = 0.0;
    double endMs = 0.0;
    double execMs = 0.0; //!< executeBatchedAttempt's returned exec time
    std::size_t requests = 0;
    std::size_t samples = 0;
    double bottomMs = 0.0;
    double bagMs = 0.0;
    double tableMaxMs = 0.0;
    double interMs = 0.0;
    double topMs = 0.0;
    double sigmoidMs = 0.0;
};

core::HotTierStats
sumTierStats(const Fleet& f)
{
    core::HotTierStats sum;
    for (const Instance& s : f.inst) {
        if (!s.tier)
            continue;
        const core::HotTierStats st = s.tier->stats();
        sum.hits += st.hits;
        sum.misses += st.misses;
        sum.promotions += st.promotions;
        sum.demotions += st.demotions;
        sum.epochs += st.epochs;
        sum.residentRows += st.residentRows;
        sum.capacityRows += st.capacityRows;
    }
    return sum;
}

core::HotTierStats
tierDelta(const core::HotTierStats& a, const core::HotTierStats& b)
{
    core::HotTierStats d = b;
    d.hits -= a.hits;
    d.misses -= a.misses;
    d.promotions -= a.promotions;
    d.demotions -= a.demotions;
    d.epochs -= a.epochs;
    return d;
}

struct StepResult
{
    double rateRps = 0.0;
    std::vector<double> arrivalsMs; //!< relative to the step start
    std::vector<RequestRec> req;
    std::vector<std::vector<DispatchRec>> disp; //!< per instance
    std::vector<std::size_t> backlog; //!< outstanding at each push
    double startMs = 0.0;
    double endMs = 0.0;
    /** Summed tier counters at the step's start, when its second half
     *  (the moved hot set) began, and at its end. */
    core::HotTierStats tierStart, tierMid, tierEnd;
};

/**
 * Runs the dispatch as the sequence of public stage calls the batched
 * forward makes, timing each one. Predictions land in s.pred.
 */
void
tracedDispatch(Instance& s, const Workload& w,
               const std::vector<const core::SparseBatch *>& parts,
               const std::vector<const core::Tensor *>& dense_parts,
               DispatchRec& d)
{
    const core::DlrmModel& m = *s.model;
    const core::SparseBatch& merged =
        core::concatSparseBatches(parts, s.concat);
    const std::size_t batch = merged.batchSize;
    s.dense.reshape(batch, w.model.denseDim());
    std::size_t row = 0;
    for (const core::Tensor *p : dense_parts) {
        std::memcpy(s.dense.row(row), p->data(), p->size() * sizeof(float));
        row += p->rows();
    }
    double t = nowMs();
    m.bottomMlp().forward(s.dense, s.bottom, s.mlpA, s.mlpB);
    double u = nowMs();
    d.bottomMs = u - t;

    const core::EmbeddingStore& store = m.storeFor(w.dtype);
    s.emb.reshape(w.model.tables, batch * w.model.dim);
    for (std::size_t tb = 0; tb < w.model.tables; ++tb) {
        t = nowMs();
        if (s.tier) {
            s.tier->bag(tb, merged.indices[tb].data(),
                        merged.offsets[tb].data(), batch, s.emb.row(tb),
                        kPrefetch);
        } else {
            store.table(tb).bag(merged.indices[tb].data(),
                                merged.offsets[tb].data(), batch,
                                s.emb.row(tb), kPrefetch);
        }
        u = nowMs();
        d.bagMs += u - t;
        d.tableMaxMs = std::max(d.tableMaxMs, u - t);
    }

    t = u;
    m.interactionForward(s.bottom, s.emb, batch, s.inter, s.embPtrs);
    u = nowMs();
    d.interMs = u - t;

    t = u;
    m.topMlp().forward(s.inter, s.pred, s.mlpA, s.mlpB);
    u = nowMs();
    d.topMs = u - t;

    t = u;
    core::sigmoidInplace(s.pred.data(), s.pred.size());
    d.sigmoidMs = nowMs() - t;
}

/**
 * One open-loop step at @p rate_rps: @p n Poisson arrivals replayed on
 * the wall clock against every instance. Returns once every request
 * has been served or failed.
 */
StepResult
runStep(Fleet& f, const Workload& w, const Inputs& in, double rate_rps,
        std::size_t n, std::uint64_t seed, bool traced)
{
    StepResult r;
    r.rateRps = rate_rps;
    r.arrivalsMs = serve::PoissonLoadGen(1000.0 / rate_rps, seed).arrivals(n);
    r.req.resize(n);
    r.backlog.resize(n);
    r.disp.resize(f.inst.size());
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t id = dlrmopt::mix64(seed ^ (i + 0x1234567ull)) % kPoolSize;
        if (in.phases > 1 && i >= n / 2)
            id += kPoolSize;
        r.req[i].input = static_cast<std::uint32_t>(id);
    }

    std::mutex mu;
    std::condition_variable cv;
    serve::BatchQueue queue(serve::BatchConfig{true, w.coalesce, 0.0});
    bool gen_done = false; // guarded by mu
    std::atomic<std::size_t> completed{0};
    r.tierStart = sumTierStats(f);
    r.tierMid = r.tierStart;
    // The mid-step tier snapshot waits out any running epoch, so it is
    // taken off the generator's thread.
    std::promise<void> half;
    std::thread snapshot;
    if (in.phases > 1) {
        snapshot = std::thread([&f, &r, done = half.get_future()] {
            done.wait();
            r.tierMid = sumTierStats(f);
        });
    }

    auto dispatcher = [&](std::size_t k) {
        Instance& s = f.inst[k];
        pinSelf(s.cpu);
        std::vector<serve::PendingRequest> group;
        std::vector<const core::SparseBatch *> parts;
        std::vector<const core::Tensor *> dense;
        std::vector<DispatchRec>& out = r.disp[k];
        out.reserve(n);
        for (;;) {
            double pop = 0.0;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return !queue.empty() || gen_done; });
                if (queue.empty())
                    break;
                pop = nowMs();
                queue.nextBatch(pop, w.coalesce, w.slaMs, w.modeled, 1.0,
                                group);
                if (!queue.empty())
                    cv.notify_one();
            }
            parts.clear();
            dense.clear();
            for (const serve::PendingRequest& p : group) {
                const std::uint32_t id = r.req[p.req].input;
                parts.push_back(&in.sparse[id]);
                dense.push_back(&in.dense[id]);
            }
            DispatchRec d;
            d.requests = group.size();
            d.samples = group.size() * w.samples;
            bool ok = true;
            d.startMs = nowMs();
            try {
                if (traced) {
                    tracedDispatch(s, w, parts, dense, d);
                } else {
                    d.execMs = s.server->executeBatchedAttempt(
                        0, parts, dense, serve::DegradeState{}, kPrefetch);
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "dispatch failed: %s\n", e.what());
                ok = false;
            }
            d.endMs = nowMs();
            const core::Tensor& pred =
                traced ? s.pred : s.server->lastPredictions();
            for (std::size_t j = 0; j < group.size(); ++j) {
                RequestRec& q = r.req[group[j].req];
                q.popMs = pop;
                q.doneMs = d.endMs;
                q.done = ok;
                q.failed = !ok;
                if (ok)
                    q.fp = fingerprint(pred.row(j * w.samples), w.samples);
            }
            out.push_back(d);
            completed.fetch_add(group.size());
        }
    };

    std::vector<std::thread> threads;
    r.startMs = nowMs() + 2.0;
    for (std::size_t k = 0; k < f.inst.size(); ++k)
        threads.emplace_back(dispatcher, k);

    // The generator runs on this thread's pinned core.
    pinSelf(f.generatorCpu);
    for (std::size_t i = 0; i < n; ++i) {
        // Spin rather than sleep: the generator owns its core, and a
        // timer wakeup can be late by more than a service time.
        const double due = r.startMs + r.arrivalsMs[i];
        double now = nowMs();
        while (now < due) {
            __builtin_ia32_pause();
            now = nowMs();
        }
        if (i == n / 2)
            half.set_value();
        RequestRec& q = r.req[i];
        q.dueMs = due;
        q.lagMs = now - due;
        {
            std::lock_guard<std::mutex> lk(mu);
            serve::PendingRequest p;
            p.readyMs = due;
            p.seq = i;
            p.req = i;
            p.arrivalMs = due;
            p.samples = w.samples;
            queue.push(p);
            r.backlog[i] = i + 1 - completed.load();
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        gen_done = true;
    }
    cv.notify_all();
    for (std::thread& t : threads)
        t.join();
    r.endMs = nowMs();
    if (snapshot.joinable())
        snapshot.join();
    r.tierEnd = sumTierStats(f);
    return r;
}

/** Predictions of closed-loop dispatches, kept for the output check. */
struct Served
{
    std::vector<std::uint32_t> input;
    std::vector<std::uint64_t> fp;
    std::size_t failed = 0;
};

/**
 * One closed-loop saturation window of @p seconds: every instance
 * always has a full group ready. Appends the predictions to @p out and
 * returns the samples served per second.
 */
double
runSaturation(Fleet& f, const Workload& w, const Inputs& in, double seconds,
              Served& out)
{
    struct Lane
    {
        Served served;
        std::size_t samples = 0;
        double endMs = 0.0;
    };
    std::vector<Lane> lanes(f.inst.size());
    const double start = nowMs();
    const double stop = start + seconds * 1000.0;
    auto lane = [&](std::size_t k) {
        Instance& s = f.inst[k];
        pinSelf(s.cpu);
        Lane& l = lanes[k];
        std::vector<const core::SparseBatch *> parts;
        std::vector<const core::Tensor *> dense;
        std::vector<std::uint32_t> ids;
        std::size_t next = k * 97;
        double now = start;
        while (now < stop) {
            const std::size_t phase =
                in.phases > 1 && now > start + seconds * 500.0 ? 1 : 0;
            parts.clear();
            dense.clear();
            ids.clear();
            for (std::size_t j = 0; j < w.coalesce; ++j) {
                const std::uint32_t id = static_cast<std::uint32_t>(
                    phase * kPoolSize + next++ % kPoolSize);
                ids.push_back(id);
                parts.push_back(&in.sparse[id]);
                dense.push_back(&in.dense[id]);
            }
            bool ok = true;
            try {
                s.server->executeBatchedAttempt(0, parts, dense,
                                                serve::DegradeState{},
                                                kPrefetch);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "dispatch failed: %s\n", e.what());
                ok = false;
            }
            now = nowMs();
            if (!ok) {
                l.served.failed += ids.size();
                continue;
            }
            const core::Tensor& pred = s.server->lastPredictions();
            for (std::size_t j = 0; j < ids.size(); ++j) {
                l.served.input.push_back(ids[j]);
                l.served.fp.push_back(
                    fingerprint(pred.row(j * w.samples), w.samples));
            }
            l.samples += ids.size() * w.samples;
        }
        l.endMs = now;
    };
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < f.inst.size(); ++k)
        threads.emplace_back(lane, k);
    for (std::thread& t : threads)
        t.join();

    std::size_t samples = 0;
    double end = start;
    for (const Lane& l : lanes) {
        samples += l.samples;
        end = std::max(end, l.endMs);
        out.input.insert(out.input.end(), l.served.input.begin(),
                         l.served.input.end());
        out.fp.insert(out.fp.end(), l.served.fp.begin(), l.served.fp.end());
        out.failed += l.served.failed;
    }
    return static_cast<double>(samples) / ((end - start) / 1e3);
}

/** Per-input reference fingerprints: DlrmModel::forward, one request
 *  at a time, without the tier. */
std::vector<std::uint64_t>
referenceFingerprints(const Fleet& f, const Workload& w, const Inputs& in)
{
    std::vector<std::uint64_t> ref(in.sparse.size());
    std::vector<std::thread> threads;
    const std::size_t lanes = f.inst.size();
    for (std::size_t k = 0; k < lanes; ++k) {
        threads.emplace_back([&, k] {
            core::DlrmWorkspace ws;
            for (std::size_t i = k; i < ref.size(); i += lanes) {
                f.inst[k].model->forward(in.dense[i], in.sparse[i], ws,
                                         kPrefetch, w.dtype, nullptr);
                ref[i] = fingerprint(ws.pred.data(), ws.pred.size());
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    return ref;
}

/** Latency percentiles and SLA verdict of one step. */
struct StepSummary
{
    std::size_t sent = 0, served = 0, failed = 0, wrong = 0;
    serve::LatencyStats latency; //!< failed requests count as +inf
    double p50 = 0.0, p90 = 0.0, p95 = 0.0, p99 = 0.0, lagP99 = 0.0;
    bool backlogGrows = false;
    bool valid = false;
    bool meetsSla = false;
};

double
meanOver(const std::vector<std::size_t>& v, std::size_t lo, std::size_t hi)
{
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        s += static_cast<double>(v[i]);
    return hi > lo ? s / static_cast<double>(hi - lo) : 0.0;
}

/** Latency, lag, and backlog verdict of one step; the wrong-prediction
 *  count is filled in once the reference fingerprints exist. */
StepSummary
summarize(const StepResult& r, const Workload& w)
{
    StepSummary s;
    s.sent = r.req.size();
    serve::LatencyStats lag;
    for (const RequestRec& q : r.req) {
        lag.add(q.lagMs);
        if (q.failed) {
            ++s.failed;
            s.latency.add(std::numeric_limits<double>::infinity());
        } else if (q.done) {
            ++s.served;
            s.latency.add(q.doneMs - q.dueMs);
        }
    }
    s.p50 = s.latency.percentile(50.0);
    s.p90 = s.latency.percentile(90.0);
    s.p95 = s.latency.p95();
    s.p99 = s.latency.p99();
    s.lagP99 = lag.p99();
    s.valid = s.lagP99 <= kLagBoundMs;
    // The backlog grows when the mean outstanding count over the last
    // quarter of arrivals exceeds that of the second quarter by more
    // than 1% of the step's requests: an overloaded step gains several
    // percent, a stable one only the noise of a few requests.
    const std::size_t n = r.backlog.size();
    const double q2 = meanOver(r.backlog, n / 4, n / 2);
    const double q4 = meanOver(r.backlog, 3 * n / 4, n);
    s.backlogGrows = q4 - q2 > 0.01 * static_cast<double>(n);
    s.meetsSla = s.valid && s.p99 <= w.slaMs && s.failed == 0 &&
                 !s.backlogGrows;
    return s;
}

/** Counts served requests whose predictions differ from the
 *  reference and folds them into the SLA verdict. */
void
checkOutputs(const StepResult& r, const std::vector<std::uint64_t>& ref,
             StepSummary& s)
{
    for (const RequestRec& q : r.req)
        s.wrong += q.done && q.fp != ref[q.input];
    s.meetsSla = s.meetsSla && s.wrong == 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // JSON has no infinity: a tail made of failed requests prints
        // as null (and such a run is not correct anyway).
        char value[32] = "null";
        if (std::isfinite(metrics[i].value))
            std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
printStep(const char *label, const StepResult& r, const StepSummary& s)
{
    std::printf("step %-9s rate=%8.1f rps sent=%zu served=%zu failed=%zu "
                "wrong=%zu p50=%.3f p90=%.3f p95=%.3f p99=%.3f ms (n=%zu) "
                "lag_p99=%.3f ms "
                "backlog_grows=%d valid=%d meets_sla=%d\n",
                label, r.rateRps, s.sent, s.served, s.failed, s.wrong, s.p50,
                s.p90, s.p95, s.p99, s.latency.count(), s.lagP99, s.backlogGrows ? 1 : 0,
                s.valid ? 1 : 0, s.meetsSla ? 1 : 0);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (argc % 2 == 0)
        throw std::invalid_argument("arguments come in --key value pairs");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        throw std::invalid_argument("need --seconds > 0 and --trace 0|1");
    return a;
}

/** Conservation and output check over a set of steps plus saturation. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0; //!< failed + wrong-prediction requests
    bool conserved = true;

    void
    addStep(const StepSummary& s)
    {
        attempted += s.sent;
        failed += s.failed + s.wrong;
        conserved = conserved && s.sent == s.served + s.failed;
    }
};

/** Requests per step such that every measured step (up to the high
 *  step) runs in each of @p rounds and every probe step above it runs
 *  once, all within @p seconds_budget at their rates; never fewer than
 *  kMinStepRequests. */
std::size_t
requestsPerStep(double seconds_budget, const Workload& w, int rounds)
{
    double inv = 0.0;
    for (std::size_t i = 0; i < kLadder.size(); ++i)
        inv += (i <= kHigh ? rounds : 1) / (w.refRps * kLadder[i]);
    return std::max(kMinStepRequests,
                    static_cast<std::size_t>(seconds_budget / inv));
}

/** Every round of one ladder rate and its SLA verdict. */
struct RateResult
{
    double rateRps = 0.0;
    std::vector<StepResult> rounds;
    std::vector<StepSummary> sums;

    double
    medianOf(double StepSummary::*field) const
    {
        std::vector<double> v;
        for (const StepSummary& s : sums)
            v.push_back(s.*field);
        return median(v);
    }

    std::size_t
    samples() const
    {
        std::size_t n = 0;
        for (const StepSummary& s : sums)
            n += s.latency.count();
        return n;
    }

    bool
    valid() const
    {
        return std::all_of(sums.begin(), sums.end(),
                           [](const StepSummary& s) { return s.valid; });
    }

    /** Most rounds meet the SLA, and no request failed or was wrong. */
    bool
    meetsSla() const
    {
        std::size_t meet = 0;
        for (const StepSummary& s : sums) {
            if (s.failed || s.wrong)
                return false;
            meet += s.meetsSla;
        }
        return 2 * meet > sums.size();
    }
};

int
runEndToEnd(const Workload& w, const Args& a, const Inputs& in,
            const std::vector<sched::Topology>& groups)
{
    std::vector<double> setups;
    std::unique_ptr<Fleet> f;
    for (int k = 0; k < kSetupRepeats; ++k) {
        f.reset();
        const double t0 = nowMs();
        f = setupFleet(w, in, groups);
        setups.push_back((nowMs() - t0) / 1e3);
    }

    // 85% of the budget is the ladder, 15% the saturation windows.
    const std::size_t n = requestsPerStep(0.85 * a.seconds, w, kRounds);
    std::vector<RateResult> rates(kLadder.size());
    auto step = [&](std::size_t i, int round) {
        // A step the generator could not pace is replayed once.
        StepResult r;
        StepSummary s;
        for (int attempt = 0; attempt < 2 && !s.valid; ++attempt) {
            r = runStep(*f, w, in, w.refRps * kLadder[i], n,
                        dlrmopt::mix64(a.seed * 1000 + i * 16 + round),
                        false);
            s = summarize(r, w);
        }
        rates[i].rateRps = r.rateRps;
        rates[i].rounds.push_back(std::move(r));
        rates[i].sums.push_back(std::move(s));
        return rates[i].sums.back().meetsSla;
    };
    Served sat;
    std::vector<double> sat_rates;
    const double t_ladder = nowMs();
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i <= kHigh; ++i)
            step(i, round);
        sat_rates.push_back(
            runSaturation(*f, w, in, 0.15 * a.seconds / kRounds, sat));
    }
    // Probe steps past the high step run once; the first miss ends the
    // ladder, because higher rates only miss harder.
    for (std::size_t i = kHigh + 1; i < kLadder.size(); ++i) {
        if (!step(i, 0))
            break;
    }
    const double t_check = nowMs();
    const std::vector<std::uint64_t> ref = referenceFingerprints(*f, w, in);
    std::printf("phases: setup %.2f s x%d, ladder and saturation %.2f s, "
                "reference %.2f s\n",
                median(setups), kSetupRepeats, (t_check - t_ladder) / 1e3,
                (nowMs() - t_check) / 1e3);

    Tally tally;
    double sla_rate = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        RateResult& rr = rates[i];
        for (std::size_t k = 0; k < rr.rounds.size(); ++k) {
            checkOutputs(rr.rounds[k], ref, rr.sums[k]);
            tally.addStep(rr.sums[k]);
            char label[24];
            std::snprintf(label, sizeof label, "%.2fx/r%zu", kLadder[i], k);
            printStep(label, rr.rounds[k], rr.sums[k]);
        }
        if (!rr.sums.empty() && rr.meetsSla())
            sla_rate = std::max(sla_rate, rr.rateRps);
    }
    std::size_t sat_wrong = 0;
    for (std::size_t j = 0; j < sat.fp.size(); ++j)
        sat_wrong += sat.fp[j] != ref[sat.input[j]];
    tally.attempted += sat.fp.size() + sat.failed;
    tally.failed += sat.failed + sat_wrong;
    std::printf("saturation: median %.1f samples/s over %d windows, %zu "
                "requests, wrong=%zu failed=%zu\n",
                median(sat_rates), kRounds, sat.fp.size(), sat_wrong,
                sat.failed);

    const RateResult& nom = rates[kNominal];
    const RateResult& hi = rates[kHigh];
    if (!nom.valid() || !hi.valid()) {
        std::fprintf(stderr,
                     "error: nominal or high step invalid (generator lag "
                     "p99 above %.1f ms)\n",
                     kLagBoundMs);
        return 3;
    }
    std::printf("pins: %d calls, %d failed\n", gPinCalls.load(),
                gPinFailures.load());
    std::printf("p50_ms: median over %d rounds at %.1f rps, n=%zu "
                "requests; p50_high_ms: median over %d rounds at %.1f rps, "
                "n=%zu\n",
                kRounds, nom.rateRps, nom.samples(), kRounds, hi.rateRps,
                hi.samples());
    // Tail percentiles are reported but not bounded: host scheduling
    // stalls hit about 1% of requests and tier epochs 2-5%, so a tail
    // percentile lands on the edge of a stalled population on one
    // workload or another and swings between runs.
    std::printf("median over rounds: nominal p90 %.3f, p95 %.3f, p99 %.3f "
                "ms; high p90 %.3f, p95 %.3f, p99 %.3f ms\n",
                nom.medianOf(&StepSummary::p90),
                nom.medianOf(&StepSummary::p95),
                nom.medianOf(&StepSummary::p99),
                hi.medianOf(&StepSummary::p90),
                hi.medianOf(&StepSummary::p95),
                hi.medianOf(&StepSummary::p99));
    const double ok_ratio =
        1.0 - static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted);
    const bool correct = tally.conserved && tally.failed == 0;
    printResult(correct, tally.attempted, tally.failed,
                {{"setup_s", median(setups), "s"},
                 {"p50_ms", nom.medianOf(&StepSummary::p50), "ms"},
                 {"p50_high_ms", hi.medianOf(&StepSummary::p50), "ms"},
                 {"sla_rate_rps", sla_rate, "1/s"},
                 {"throughput_sps", median(sat_rates), "samples/s"},
                 {"ok_ratio", ok_ratio, "ratio"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

/** FLOPs of one sample through an MLP with layer sizes @p dims. */
double
mlpFlopsPerSample(const std::vector<std::size_t>& dims)
{
    double f = 0.0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        f += 2.0 * static_cast<double>(dims[l] * dims[l + 1]);
    return f;
}

int
runTraced(const Workload& w, const Args& a, const Inputs& in,
          const std::vector<sched::Topology>& groups)
{
    std::unique_ptr<Fleet> f = setupFleet(w, in, groups);
    const std::size_t inst = f->inst.size();
    // Grow the traced path's scratch before timing, as setup does for
    // the Server's workspace.
    for (Instance& s : f->inst) {
        const std::vector<const core::SparseBatch *> parts(w.coalesce,
                                                           &in.sparse[0]);
        const std::vector<const core::Tensor *> dense(w.coalesce,
                                                      &in.dense[0]);
        DispatchRec d;
        tracedDispatch(s, w, parts, dense, d);
    }
    const std::size_t n = std::max(
        kMinStepRequests, static_cast<std::size_t>(
                              0.45 * a.seconds * w.refRps *
                              kLadder[kNominal]));
    const double rate = w.refRps * kLadder[kNominal];
    const std::uint64_t seed = dlrmopt::mix64(a.seed * 1000 + kNominal);
    const StepResult plain = runStep(*f, w, in, rate, n, seed, false);
    const StepResult traced = runStep(*f, w, in, rate, n, seed, true);

    const std::vector<std::uint64_t> ref = referenceFingerprints(*f, w, in);
    StepSummary ps = summarize(plain, w);
    StepSummary ts = summarize(traced, w);
    checkOutputs(plain, ref, ps);
    checkOutputs(traced, ref, ts);
    printStep("untraced", plain, ps);
    printStep("traced", traced, ts);
    Tally tally;
    tally.addStep(ps);
    tally.addStep(ts);

    // The traced stage sequence must reproduce executeBatchedAttempt's
    // predictions bit for bit, input by input.
    std::map<std::uint32_t, std::uint64_t> served_fp;
    for (const RequestRec& q : plain.req)
        if (q.done)
            served_fp.emplace(q.input, q.fp);
    std::size_t mismatch = 0;
    for (const RequestRec& q : traced.req) {
        auto it = served_fp.find(q.input);
        if (q.done && it != served_fp.end() && it->second != q.fp)
            ++mismatch;
    }
    tally.failed += mismatch;

    // serve.* from the untraced step: the timed executeBatchedAttempt.
    serve::LatencyStats wait, dispatch, exec;
    double coalesce = 0.0, busy = 0.0, model_ms = 0.0, exec_ms = 0.0;
    double reqs = 0.0, samples = 0.0, dispatches = 0.0;
    for (const auto& per : plain.disp) {
        for (const DispatchRec& d : per) {
            dispatch.add(d.endMs - d.startMs);
            exec.add(d.execMs);
            coalesce += (d.endMs - d.startMs) - d.execMs;
            busy += d.endMs - d.startMs;
            model_ms += w.modeled.serviceMs(d.samples);
            exec_ms += d.execMs;
            reqs += static_cast<double>(d.requests);
            samples += static_cast<double>(d.samples);
            dispatches += 1.0;
        }
    }
    for (const RequestRec& q : plain.req)
        if (q.done)
            wait.add(q.popMs - q.dueMs);

    // Stage spans from the traced step.
    double bottom = 0.0, bags = 0.0, table_max = 0.0, inter = 0.0,
           top = 0.0, sig = 0.0, wall = 0.0, tdisp = 0.0, tsamples = 0.0;
    for (const auto& per : traced.disp) {
        for (const DispatchRec& d : per) {
            bottom += d.bottomMs;
            bags += d.bagMs;
            table_max += d.tableMaxMs;
            inter += d.interMs;
            top += d.topMs;
            sig += d.sigmoidMs;
            wall += d.endMs - d.startMs;
            tsamples += static_cast<double>(d.samples);
            tdisp += 1.0;
        }
    }
    const auto& store = f->inst[0].model->storeFor(w.dtype);
    const double row_bytes =
        static_cast<double>(store.table(0).storedRowBytes());
    const double emb_bytes = tsamples * static_cast<double>(
                                            w.model.tables * w.model.lookups) *
                             row_bytes;
    const double flops = (mlpFlopsPerSample(w.model.bottomMlp) +
                          mlpFlopsPerSample(w.model.topMlpDims())) *
                         tsamples;

    // Modeled: the virtual-clock Server over the same arrivals.
    const std::size_t nv = std::min(kVirtualRequests, plain.arrivalsMs.size());
    std::vector<double> arrivals(plain.arrivalsMs.begin(),
                                 plain.arrivalsMs.begin() +
                                     static_cast<std::ptrdiff_t>(nv));
    std::vector<core::SparseBatch> pool(in.sparse.begin(),
                                        in.sparse.begin() + kPoolSize);
    serve::Server virt(*f->inst[0].model, sched::Topology::synthetic(inst, 1),
                       serverConfig(w, false));
    const serve::ServeStats vs =
        virt.serve(in.dense[0], pool, arrivals, kPrefetch);

    const core::HotTierStats tsum = tierDelta(traced.tierStart, traced.tierEnd);
    const core::HotTierStats first =
        tierDelta(traced.tierStart, traced.tierMid);
    const core::HotTierStats second =
        tierDelta(traced.tierMid, traced.tierEnd);

    const double per = tdisp > 0.0 ? 1.0 / tdisp : 0.0;
    std::printf("traced: %zu dispatches, %.0f samples; untraced: %zu "
                "dispatches; traced-vs-served mismatches=%zu\n",
                static_cast<std::size_t>(tdisp),
                tsamples, static_cast<std::size_t>(dispatches), mismatch);
    std::printf("modeled: virtual-clock p99 over %zu arrivals = %.3f ms\n",
                nv, vs.latency.p99());
    std::printf("pins: %d calls, %d failed\n", gPinCalls.load(),
                gPinFailures.load());
    const double lookups = static_cast<double>(tsum.hits + tsum.misses);
    const bool correct = tally.conserved && tally.failed == 0;
    printResult(
        correct, tally.attempted, tally.failed,
        {{"serve.queue_wait_p50_ms", wait.percentile(50.0), "ms"},
         {"serve.queue_wait_p99_ms", wait.p99(), "ms"},
         {"serve.dispatch_p50_ms", dispatch.percentile(50.0), "ms"},
         {"serve.dispatch_p99_ms", dispatch.p99(), "ms"},
         {"serve.exec_p50_ms", exec.percentile(50.0), "ms"},
         {"serve.coalesce_mean_ms", coalesce / dispatches, "ms"},
         {"serve.batch_requests_mean", reqs / dispatches, "requests"},
         {"serve.batch_samples_mean", samples / dispatches, "samples"},
         {"serve.busy_ratio",
          busy / (static_cast<double>(inst) * (plain.endMs - plain.startMs)),
          "ratio"},
         {"emb.bag_ms", bags * per, "ms"},
         {"emb.table_max_ms", table_max * per, "ms"},
         {"emb.gbps", emb_bytes / (bags * 1e6), "GB/s"},
         {"emb.share", bags / wall, "ratio"},
         {"mlp.bottom_ms", bottom * per, "ms"},
         {"mlp.top_ms", top * per, "ms"},
         {"mlp.gflops", flops / ((bottom + top) * 1e6), "GFLOP/s"},
         {"mlp.share", (bottom + top) / wall, "ratio"},
         {"interaction.ms", inter * per, "ms"},
         {"sigmoid.ms", sig * per, "ms"},
         {"tier.hit_ratio",
          lookups > 0.0 ? static_cast<double>(tsum.hits) / lookups : 0.0,
          "ratio"},
         {"tier.promotions", static_cast<double>(tsum.promotions), "count"},
         {"tier.demotions", static_cast<double>(tsum.demotions), "count"},
         {"tier.epochs", static_cast<double>(tsum.epochs), "count"},
         {"tier.epochs_first_half",
          static_cast<double>(first.epochs), "count"},
         {"tier.epochs_second_half",
          static_cast<double>(second.epochs), "count"},
         {"tier.promotions_first_half",
          static_cast<double>(first.promotions), "count"},
         {"tier.promotions_second_half",
          static_cast<double>(second.promotions), "count"},
         {"tier.occupancy", tsum.occupancy(), "ratio"},
         {"loadgen.sent", static_cast<double>(ts.sent), "requests"},
         {"loadgen.lag_p99_ms", ts.lagP99, "ms"},
         {"serve.model_ratio", model_ms / exec_ms, "ratio"},
         {"serve.latency_p90_ms", ps.p90, "ms"},
         {"serve.latency_p99_ms", ps.p99, "ms"},
         {"serve.virtual_p99_ms", vs.latency.p99(), "ms"},
         {"trace.overhead_ms", ts.p50 - ps.p50, "ms"}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const std::vector<Workload> all = workloads();
        auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
            return w.name == a.workload;
        });
        if (it == all.end())
            throw std::invalid_argument("unknown workload '" + a.workload +
                                        "'");
        const Workload& w = *it;
        const sched::Topology topo = sched::Topology::detect();
        if (topo.numPhysicalCores() < 2)
            throw std::runtime_error("need at least 2 cores");
        const std::vector<sched::Topology> groups =
            topo.partition(topo.numPhysicalCores());

        std::printf("host: nproc=%zu simd=%s vnni=%d instances=%zu\n",
                    topo.numPhysicalCores(),
                    core::simdLevelName(core::detectSimdLevel()).c_str(),
                    core::cpuHasAvx512Vnni() ? 1 : 0, groups.size() - 1);
        std::printf("workload: %s model=%s tables=%zu rows=%zu dim=%zu "
                    "lookups=%zu samples=%zu coalesce=%zu dtype=%s tier=%d "
                    "ref=%.1f rps sla=%.1f ms seed=%llu\n",
                    w.name.c_str(), w.model.name.c_str(), w.model.tables,
                    w.model.rows, w.model.dim, w.model.lookups, w.samples,
                    w.coalesce, core::embDtypeName(w.dtype).c_str(), w.tier ? 1 : 0,
                    w.refRps, w.slaMs,
                    static_cast<unsigned long long>(a.seed));
        std::fflush(stdout);
        const Inputs in = makeInputs(w, a.seed);
        return a.trace ? runTraced(w, a, in, groups)
                       : runEndToEnd(w, a, in, groups);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
