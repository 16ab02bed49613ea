/**
 * @file
 * Live-reload tests: the ReloadManager state machine standalone
 * (commit timeline, canary rollback, failure modes that leave the old
 * version serving) and the TenantFleet integration (snapshot reloads
 * under traffic, torn-write and bad_alloc chaos, crash mid-rollout,
 * committed versions persisting across sessions, conservation under
 * every outcome).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "core/versioned.hpp"
#include "sched/topology.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "serve/reload.hpp"
#include "trace/generator.hpp"

namespace
{

using namespace dlrmopt;
using namespace dlrmopt::serve;
using Kind = LifecycleEvent::Kind;

core::ModelConfig
reloadModel(const char *name, std::size_t rows = 1024)
{
    core::ModelConfig m;
    m.name = name;
    m.cls = core::ModelClass::RMC2;
    m.rows = rows;
    m.dim = 16;
    m.tables = 2;
    m.lookups = 4;
    m.bottomMlp = {24, 16, 16};
    m.topMlp = {8, 1};
    return m;
}

/** Self-deleting snapshot path. */
class TempSnap
{
  public:
    explicit TempSnap(const char *tag)
        : _path(std::string("/tmp/dlrmopt_reload_") + tag + ".snap")
    {
        std::remove(_path.c_str());
        std::remove((_path + ".tmp").c_str());
    }
    ~TempSnap()
    {
        std::remove(_path.c_str());
        std::remove((_path + ".tmp").c_str());
    }
    const std::string& path() const { return _path; }

  private:
    std::string _path;
};

ReloadConfig
fastReload()
{
    ReloadConfig rc;
    rc.loadMs = 5.0;
    rc.shadowRequests = 4;
    rc.shadowDriftBudget = 1.0; // gates exercised in dedicated tests
    rc.canaryWindowMs = 20.0;
    rc.stageHoldMs = 10.0;
    rc.rolloutConcurrency = 1;
    return rc;
}

TEST(ReloadConfig, ValidateRejectsBadKnobs)
{
    ReloadConfig c;
    c.loadMs = -1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.shadowRequests = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.maxP95RegressionFactor = 0.5;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.rolloutConcurrency = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.validate();
}

TEST(ReloadManager, CommitsAnInMemoryBuildInStages)
{
    const core::ModelConfig cfg = reloadModel("mgr_commit");
    core::VersionedModel holder(core::ModelVersion::build(cfg, 1, 7));
    std::vector<core::VersionedModel *> holders{&holder};

    std::vector<ReloadEvent> events(1);
    events[0].atMs = 10.0;
    events[0].tenant = 0;
    events[0].newVersion = 2;
    events[0].weightSeed = 8;

    ReloadManager mgr(fastReload(), events, holders, 3);
    const std::vector<char> up(3, 1);

    mgr.advanceTo(9.0, up);
    EXPECT_EQ(mgr.started(), 0u);
    EXPECT_EQ(mgr.pinned(0, 0)->version, 1u);

    // Load ready at 15; canary (instance 0) pinned there.
    mgr.advanceTo(15.0, up);
    EXPECT_EQ(mgr.started(), 1u);
    EXPECT_EQ(mgr.pinned(0, 0)->version, 2u);
    EXPECT_EQ(mgr.pinned(1, 0)->version, 1u);
    EXPECT_EQ(mgr.pinned(2, 0)->version, 1u);
    EXPECT_EQ(holder.currentVersion(), 1u); // not committed yet

    // Canary window ends at 35; instance 1 swaps there, instance 2 a
    // stage hold later, and the commit publishes.
    mgr.advanceTo(34.9, up);
    EXPECT_EQ(mgr.pinned(1, 0)->version, 1u);
    mgr.advanceTo(35.0, up);
    EXPECT_EQ(mgr.pinned(1, 0)->version, 2u);
    EXPECT_EQ(mgr.pinned(2, 0)->version, 1u);
    mgr.advanceTo(45.0, up);
    EXPECT_EQ(mgr.pinned(2, 0)->version, 2u);

    EXPECT_EQ(mgr.committed(), 1u);
    EXPECT_FALSE(mgr.active());
    EXPECT_EQ(holder.currentVersion(), 2u);
    EXPECT_GT(mgr.shadowedRequests(), 0u);
    EXPECT_EQ(mgr.instanceSwaps(), 3u);
    ASSERT_EQ(mgr.outcomes().size(), 1u);
    EXPECT_EQ(mgr.outcomes()[0].finalState, ReloadState::Committed);
    EXPECT_DOUBLE_EQ(mgr.outcomes()[0].startedMs, 10.0);
    EXPECT_DOUBLE_EQ(mgr.outcomes()[0].finishedMs, 45.0);

    // The boot version drains once nothing pins it.
    EXPECT_EQ(holder.retireDrained(), 1u);
}

TEST(ReloadManager, RollsBackOnCanaryCorruption)
{
    const core::ModelConfig cfg = reloadModel("mgr_rollback");
    core::VersionedModel holder(core::ModelVersion::build(cfg, 1, 7));
    std::vector<core::VersionedModel *> holders{&holder};

    std::vector<ReloadEvent> events(1);
    events[0].atMs = 10.0;
    events[0].newVersion = 2;
    events[0].weightSeed = 8;

    ReloadManager mgr(fastReload(), events, holders, 2);
    const std::vector<char> up(2, 1);

    mgr.advanceTo(20.0, up); // canary live since 15
    EXPECT_EQ(mgr.pinned(0, 0)->version, 2u);
    mgr.applyBitFlip(0, 5, 3); // upset the incoming version's store

    mgr.advanceTo(100.0, up);
    EXPECT_EQ(mgr.rolledBack(), 1u);
    EXPECT_EQ(mgr.committed(), 0u);
    EXPECT_EQ(mgr.pinned(0, 0)->version, 1u);
    EXPECT_EQ(mgr.pinned(1, 0)->version, 1u);
    EXPECT_EQ(holder.currentVersion(), 1u);
    ASSERT_EQ(mgr.outcomes().size(), 1u);
    EXPECT_EQ(mgr.outcomes()[0].finalState, ReloadState::RolledBack);
    EXPECT_NE(mgr.outcomes()[0].detail.find("corrupt"),
              std::string::npos);
}

TEST(ReloadManager, FailureModesLeaveTheOldVersionServing)
{
    const core::ModelConfig cfg = reloadModel("mgr_fail");
    core::VersionedModel holder(core::ModelVersion::build(cfg, 1, 7));
    std::vector<core::VersionedModel *> holders{&holder};

    std::vector<ReloadEvent> events(3);
    events[0].atMs = 1.0; // missing snapshot file
    events[0].newVersion = 2;
    events[0].snapshotPath = "/tmp/dlrmopt_reload_no_such_file.snap";
    events[1].atMs = 2.0; // stale compare-and-swap
    events[1].newVersion = 3;
    events[1].weightSeed = 9;
    events[1].expectedVersion = 42;
    events[2].atMs = 3.0; // drift gate: different weights, zero budget
    events[2].newVersion = 4;
    events[2].weightSeed = 10;

    ReloadConfig rc = fastReload();
    rc.shadowDriftBudget = 0.0;
    ReloadManager mgr(rc, events, holders, 2);
    const std::vector<char> up(2, 1);

    mgr.advanceTo(500.0, up);
    EXPECT_EQ(mgr.failed(), 3u);
    EXPECT_EQ(mgr.committed(), 0u);
    EXPECT_EQ(holder.currentVersion(), 1u);
    EXPECT_EQ(mgr.pinned(0, 0)->version, 1u);
    ASSERT_EQ(mgr.outcomes().size(), 3u);
    EXPECT_NE(mgr.outcomes()[0].detail.find("load rejected"),
              std::string::npos);
    EXPECT_NE(mgr.outcomes()[1].detail.find("expected version"),
              std::string::npos);
    EXPECT_NE(mgr.outcomes()[2].detail.find("shadow drift"),
              std::string::npos);
}

// ---- Fleet integration --------------------------------------------

class ReloadFleetTest : public ::testing::Test
{
  protected:
    TenantConfig
    makeTenant(const char *name, double sla_ms) const
    {
        TenantConfig t;
        t.name = name;
        t.model = reloadModel(name);
        t.slaMs = sla_ms;
        t.weight = 1.0;
        t.service = ServiceModel::constant(1.0);
        t.truth = ServiceTimeline(ServiceModel::constant(1.0));
        return t;
    }

    TenantWorkload
    makeWork(const core::ModelConfig& m, std::uint64_t seed,
             std::size_t n, double gap_ms) const
    {
        traces::TraceConfig tc = traces::TraceConfig::forModel(
            m, traces::Hotness::Medium, seed);
        tc.batchSize = 4;
        traces::TraceGenerator gen(tc);
        TenantWorkload w;
        for (std::size_t b = 0; b < 8; ++b)
            w.batches.push_back(gen.batch(b));
        w.dense.reshape(4, m.denseDim());
        w.dense.randomize(seed);
        for (std::size_t i = 0; i < n; ++i)
            w.arrivalsMs.push_back(static_cast<double>(i) * gap_ms);
        return w;
    }

    FleetConfig
    baseConfig() const
    {
        FleetConfig cfg;
        cfg.instances = 2;
        cfg.batching.enabled = true;
        cfg.batching.maxRequests = 4;
        cfg.batching.maxLingerMs = 0.2;
        cfg.reload.loadMs = 2.0;
        cfg.reload.shadowRequests = 4;
        cfg.reload.shadowDriftBudget = 1.0;
        cfg.reload.canaryWindowMs = 10.0;
        cfg.reload.stageHoldMs = 2.0;
        return cfg;
    }

    sched::Topology topo = sched::Topology::synthetic(4, 2);
};

TEST_F(ReloadFleetTest, CommitsASnapshotReloadUnderTraffic)
{
    TempSnap snap("fleet_commit");
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 25.0));
    reg.add(makeTenant("retrieval", 30.0));
    TenantFleet fleet(reg, topo, baseConfig());

    // Version 2 of tenant 0, persisted as a crash-consistent snapshot.
    const auto v2 = core::ModelVersion::build(reg.tenant(0).model, 2, 99);
    ASSERT_TRUE(core::ModelSnapshot::save(snap.path(), *v2->model, 2, 99));

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, 60, 1.0));
    work.push_back(makeWork(reg.tenant(1).model, 6, 60, 1.0));

    std::vector<ReloadEvent> reloads(1);
    reloads[0].atMs = 5.0;
    reloads[0].tenant = 0;
    reloads[0].newVersion = 2;
    reloads[0].snapshotPath = snap.path();

    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), nullptr, reloads);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.reloadsStarted, 1u);
    EXPECT_EQ(fs.reloadsCommitted, 1u);
    EXPECT_EQ(fs.reloadsRolledBack, 0u);
    EXPECT_EQ(fs.reloadsFailed, 0u);
    EXPECT_GT(fs.shadowedRequests, 0u);
    EXPECT_EQ(fs.versionSwaps, 2u); // canary + one rollout stage
    ASSERT_EQ(fs.finalVersions.size(), 2u);
    EXPECT_EQ(fs.finalVersions[0], 2u);
    EXPECT_EQ(fs.finalVersions[1], 1u);
    EXPECT_EQ(fleet.versioned(0).currentVersion(), 2u);
    // The boot version drained once its in-flight pins released.
    EXPECT_GE(fs.versionsRetired, 1u);
    EXPECT_EQ(fleet.versioned(0).retiringCount(), 0u);
    EXPECT_GT(fs.total.served, 0u);
    EXPECT_NE(fs.summary().find("reloads 1"), std::string::npos);

    // Committed versions persist into the next session.
    const FleetStats fs2 = fleet.serve(work);
    EXPECT_TRUE(fs2.conserved());
    ASSERT_EQ(fs2.finalVersions.size(), 2u);
    EXPECT_EQ(fs2.finalVersions[0], 2u);
}

TEST_F(ReloadFleetTest, RollsBackWhenTheIncomingVersionCorrupts)
{
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 25.0));
    TenantFleet fleet(reg, topo, baseConfig());

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, 60, 1.0));

    // Reload at 5: load ready 7, canary 7..17. The scripted upset at
    // 10 lands inside the canary window; the integrity gate must
    // catch it and restore version 1 fleet-wide.
    std::vector<ReloadEvent> reloads(1);
    reloads[0].atMs = 5.0;
    reloads[0].newVersion = 2;
    reloads[0].weightSeed = 77;

    FaultSchedule schedule({}, {}, {BitFlipEvent{10.0, 0, 50, 7}});
    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &schedule, reloads);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.reloadsRolledBack, 1u);
    EXPECT_EQ(fs.reloadsCommitted, 0u);
    ASSERT_EQ(fs.finalVersions.size(), 1u);
    EXPECT_EQ(fs.finalVersions[0], 1u);
    ASSERT_EQ(fs.reloadOutcomes.size(), 1u);
    EXPECT_EQ(fs.reloadOutcomes[0].finalState, ReloadState::RolledBack);
    EXPECT_GT(fs.total.served, 0u);
}

TEST_F(ReloadFleetTest, SurvivesACrashMidRollout)
{
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 25.0));
    FleetConfig cfg = baseConfig();
    cfg.instances = 3;
    TenantFleet fleet(reg, topo, cfg);

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, 80, 1.0));

    // Canary 7..17, rollout stages at 17 and 19. The crash hits an
    // already-swapped replica at 18; it recovers at 40 and must come
    // back on the committed version.
    std::vector<ReloadEvent> reloads(1);
    reloads[0].atMs = 5.0;
    reloads[0].newVersion = 2;
    reloads[0].weightSeed = 77;

    FaultSchedule schedule({},
                           {LifecycleEvent{18.0, 1, Kind::Crash},
                            LifecycleEvent{40.0, 1, Kind::Recover}},
                           {});
    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &schedule, reloads);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.crashes, 1u);
    EXPECT_EQ(fs.reloadsCommitted, 1u);
    ASSERT_EQ(fs.finalVersions.size(), 1u);
    EXPECT_EQ(fs.finalVersions[0], 2u);
    EXPECT_GT(fs.total.served, 0u);
}

TEST_F(ReloadFleetTest, ChaosFaultsFailTheReloadNotTheFleet)
{
    TempSnap torn("fleet_torn");
    TenantRegistry reg;
    reg.add(makeTenant("ranking", 25.0));
    TenantFleet fleet(reg, topo, baseConfig());

    // A torn snapshot write never publishes the file (the injector's
    // deterministic faults drive ModelSnapshot::save)...
    const auto v2 = core::ModelVersion::build(reg.tenant(0).model, 2, 99);
    FaultConfig fc;
    fc.snapshotTornWriteRate = 1.0;
    const FaultInjector inj(fc);
    const core::SnapshotFaults sf = inj.snapshotFaults(2);
    EXPECT_TRUE(sf.tornWrite);
    EXPECT_FALSE(core::ModelSnapshot::save(torn.path(), *v2->model, 2,
                                           99, &sf));
    EXPECT_GT(inj.injectedSnapshotFaults(), 0u);

    std::vector<TenantWorkload> work;
    work.push_back(makeWork(reg.tenant(0).model, 5, 60, 1.0));

    // ...so reload 2 finds no file, and reload 3's in-memory build
    // bad_allocs via the scheduled phase. Both fail cleanly; version
    // 1 serves the whole session.
    std::vector<ReloadEvent> reloads(2);
    reloads[0].atMs = 5.0;
    reloads[0].newVersion = 2;
    reloads[0].snapshotPath = torn.path();
    reloads[1].atMs = 20.0;
    reloads[1].newVersion = 3;
    reloads[1].weightSeed = 9;

    FaultConfig phase;
    phase.snapshotBadAllocRate = 1.0;
    FaultSchedule schedule({FaultPhase{15.0, -1, phase}}, {}, {});

    const FleetStats fs = fleet.serve(
        work, core::PrefetchSpec::paperDefault(), &schedule, reloads);

    EXPECT_TRUE(fs.conserved());
    EXPECT_EQ(fs.reloadsFailed, 2u);
    EXPECT_EQ(fs.reloadsCommitted, 0u);
    ASSERT_EQ(fs.finalVersions.size(), 1u);
    EXPECT_EQ(fs.finalVersions[0], 1u);
    EXPECT_GT(fs.total.served, 0u);
    ASSERT_EQ(fs.reloadOutcomes.size(), 2u);
    EXPECT_NE(fs.reloadOutcomes[0].detail.find("load rejected"),
              std::string::npos);
    EXPECT_NE(fs.reloadOutcomes[1].detail.find("bad_alloc"),
              std::string::npos);
}

TEST_F(ReloadFleetTest, ReloadSessionsAreDeterministic)
{
    auto run = [&]() {
        TenantRegistry reg;
        reg.add(makeTenant("ranking", 25.0));
        TenantFleet fleet(reg, topo, baseConfig());
        std::vector<TenantWorkload> work;
        work.push_back(makeWork(reg.tenant(0).model, 5, 60, 1.0));
        std::vector<ReloadEvent> reloads(1);
        reloads[0].atMs = 5.0;
        reloads[0].newVersion = 2;
        reloads[0].weightSeed = 77;
        return fleet.serve(work, core::PrefetchSpec::paperDefault(),
                           nullptr, reloads);
    };
    const FleetStats a = run();
    const FleetStats b = run();
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.total.served, b.total.served);
    EXPECT_EQ(a.versionSwaps, b.versionSwaps);
    EXPECT_EQ(a.versionsRetired, b.versionsRetired);
    EXPECT_DOUBLE_EQ(a.makespanMs, b.makespanMs);
}

} // namespace
