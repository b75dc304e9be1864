/**
 * @file
 * Chaos semantics of the serve layer (DESIGN.md §15), single-threaded
 * through ServeCore plus a bounded threaded smoke through
 * ServeScheduler: outage faults migrate a job with its leg and RNG
 * lineage intact, migration budgets fail jobs deterministically,
 * admission control sheds the newest lowest-priority job, a fully
 * quarantined fleet wakes itself via the discrete-event time skip,
 * calibration storms drift a machine exactly once per event, and the
 * degradation telemetry (deadline, retries, backoff) surfaces through
 * poll() instead of having to be inferred from latency.
 *
 * The heavyweight worker-count/kill-resume replay equivalence lives in
 * test_serve_chaos_replay.cpp (the `chaos` tier); this binary is the
 * fast tier1 gate.
 */

#include "fault/chaos.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve_core.hpp"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qismet {
namespace {

/** A small H2 run: 2 qubits, fast enough for tier1. */
ServeJobSpec
h2Spec(std::uint64_t seed, std::uint64_t tenant = 0, int priority = 0)
{
    ServeJobSpec spec;
    spec.tenantId = tenant;
    spec.priority = priority;
    spec.kind = WorkloadKind::H2Vqe;
    spec.seed = seed;
    spec.totalJobs = 24;
    return spec;
}

ChaosEvent
outageEvent(std::uint64_t backend, std::uint64_t start,
            std::uint64_t end)
{
    ChaosEvent e;
    e.kind = ChaosKind::BackendOutage;
    e.target = backend;
    e.startTick = start;
    e.endTick = end;
    return e;
}

TEST(ChaosCore, OutageFaultMigratesWithLineageIntact)
{
    const ChaosSchedule sched({outageEvent(0, 0, 3)});
    HealthPolicy policy;
    policy.degradeAfterFaults = 1; // one fault deprioritizes backend 0
    BackendPool pool({"guadalupe", "guadalupe"}, 1234, policy);
    ServeCoreConfig cfg;
    cfg.chaos = &sched;
    ServeCore core(pool, cfg);

    const std::uint64_t id = core.submit(h2Spec(7));
    auto first = core.nextDispatch();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->lease.backendId, 0u);
    EXPECT_TRUE(core.backendDown(first->lease.backendId));

    core.onBackendFault(*first);

    // The backend did no work: the job re-queues with leg, resume flag
    // and therefore RNG lineage untouched, and the calibration stream
    // of the faulted machine did not advance.
    auto info = core.find(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, ServeJobState::Queued);
    EXPECT_EQ(info->leg, 0u);
    EXPECT_FALSE(info->resumeNextLeg);
    EXPECT_EQ(info->migrations, 1u);
    EXPECT_EQ(info->legsDispatched, 1u);
    EXPECT_EQ(pool.leasesCompleted(0), 0u);
    EXPECT_EQ(pool.leasesFaulted(0), 1u);

    // Migration: the degraded machine ranks behind the healthy one, so
    // the same leg re-dispatches onto backend 1.
    auto second = core.nextDispatch();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->lease.backendId, 1u);
    EXPECT_EQ(second->leg, 0u);
    EXPECT_FALSE(second->resume);

    core.onRunFinished(*second, "digest", -1.0, 24);
    info = core.find(id);
    EXPECT_EQ(info->state, ServeJobState::Completed);

    const ServeFleetStats stats = core.fleetStats();
    EXPECT_EQ(stats.migrations, 1u);
    EXPECT_EQ(stats.backendFaults, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ChaosCore, MigrationBudgetExhaustionFailsTheJob)
{
    BackendPool pool({"guadalupe"}, 1234);
    ServeCore core(pool);

    ServeJobSpec spec = h2Spec(7);
    spec.migrationBudget = 1;
    const std::uint64_t id = core.submit(spec);

    auto d = core.nextDispatch();
    ASSERT_TRUE(d.has_value());
    core.onBackendFault(*d); // within budget: re-queued
    EXPECT_EQ(core.find(id)->state, ServeJobState::Queued);

    d = core.nextDispatch();
    ASSERT_TRUE(d.has_value());
    core.onBackendFault(*d); // budget exhausted: Failed

    const auto info = core.find(id);
    EXPECT_EQ(info->state, ServeJobState::Failed);
    EXPECT_EQ(info->migrations, 2u);
    EXPECT_EQ(core.failedCount(), 1u);
    EXPECT_EQ(core.pendingCount(), 0u);
    const std::vector<std::uint64_t> failed = core.drainFailedJobs();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], id);
    EXPECT_TRUE(core.drainFailedJobs().empty()); // drained once

    const ServeFleetStats stats = core.fleetStats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.migrations, 2u);
    EXPECT_EQ(stats.backendFaults, 2u);
}

TEST(ChaosCore, QueueBoundShedsNewestWithinLowestPriority)
{
    BackendPool pool({"guadalupe"}, 1234);
    ServeCoreConfig cfg;
    cfg.queueBound = 2;
    ServeCore core(pool, cfg);

    const std::uint64_t a = core.submit(h2Spec(1, 0, /*priority=*/1));
    const std::uint64_t b = core.submit(h2Spec(2, 1, /*priority=*/0));
    // Third submission overflows the bound; the victim is the newest
    // job at the lowest priority — the arriving job itself.
    const std::uint64_t c = core.submit(h2Spec(3, 2, /*priority=*/0));
    EXPECT_EQ(core.find(c)->state, ServeJobState::Shed);
    EXPECT_EQ(core.find(a)->state, ServeJobState::Queued);
    EXPECT_EQ(core.find(b)->state, ServeJobState::Queued);
    std::vector<std::uint64_t> shed = core.drainShedJobs();
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0], c);

    // A high-priority arrival is admitted and evicts the lowest-
    // priority queued job instead; the older high-priority job a is
    // protected.
    const std::uint64_t d = core.submit(h2Spec(4, 3, /*priority=*/2));
    EXPECT_EQ(core.find(d)->state, ServeJobState::Queued);
    EXPECT_EQ(core.find(b)->state, ServeJobState::Shed);
    EXPECT_EQ(core.find(a)->state, ServeJobState::Queued);
    shed = core.drainShedJobs();
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0], b);

    EXPECT_EQ(core.shedCount(), 2u);
    EXPECT_EQ(core.queuedCount(), 2u);
    EXPECT_EQ(core.fleetStats().shed, 2u);
}

TEST(ChaosCore, IdleQuarantinedFleetWakesItselfViaTimeSkip)
{
    HealthPolicy policy;
    policy.degradeAfterFaults = 1;
    policy.quarantineAfterFaults = 2;
    BackendPool pool({"guadalupe"}, 1234, policy);
    ServeCore core(pool);

    const std::uint64_t id = core.submit(h2Spec(7));
    for (int i = 0; i < 2; ++i) {
        auto d = core.nextDispatch();
        ASSERT_TRUE(d.has_value());
        core.onBackendFault(*d);
    }
    // Two consecutive faults quarantined the only machine: breaker
    // Open at tick 2, probe-eligible at 2 + cooldown(8) = 10. With
    // work queued and nothing running, dispatch must not wedge — it
    // fast-forwards the fleet clock to the probe tick.
    ASSERT_EQ(pool.breaker(0), BreakerState::Open);
    ASSERT_EQ(core.clockNow(), 2u);

    auto probe = core.nextDispatch();
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(core.clockNow(), 10u);
    EXPECT_EQ(pool.breaker(0), BreakerState::HalfOpen);

    core.onRunFinished(*probe, "digest", -1.0, 24);
    EXPECT_EQ(core.find(id)->state, ServeJobState::Completed);

    const ServeFleetStats stats = core.fleetStats();
    EXPECT_EQ(stats.timeSkips, 1u);
    EXPECT_EQ(stats.breakerTrips, 1u);
    EXPECT_EQ(stats.halfOpenProbes, 1u);
    EXPECT_EQ(stats.migrations, 2u);
}

TEST(ChaosCore, CalibrationStormDriftsExactlyOncePerEvent)
{
    ChaosEvent storm;
    storm.kind = ChaosKind::CalibrationStorm;
    storm.target = 0;
    storm.startTick = 0;
    storm.endTick = 50;
    storm.count = 2;
    const ChaosSchedule sched({storm});

    BackendPool stormed({"guadalupe"}, 1234);
    ServeCoreConfig cfg;
    cfg.chaos = &sched;
    ServeCore core(stormed, cfg);

    core.submit(h2Spec(1));
    core.submit(h2Spec(2));
    for (int i = 0; i < 2; ++i) {
        auto d = core.nextDispatch();
        ASSERT_TRUE(d.has_value());
        core.onRunFinished(*d, "digest", -1.0, 24);
    }
    // Both dispatches landed inside the storm window, but the drift is
    // folded into the machine exactly once.
    EXPECT_EQ(core.fleetStats().stormsApplied, 1u);
    EXPECT_EQ(stormed.health(0), BackendHealth::Degraded);

    // The drift is real machine state: a control fleet with the same
    // completed-lease history but no storm ends at a different
    // calibration digest.
    BackendPool control({"guadalupe"}, 1234);
    for (int i = 0; i < 2; ++i) {
        std::vector<HealthTransition> t;
        control.releaseSuccess(control.acquireHealthAware(0, t).value(),
                               1.0, 0);
    }
    EXPECT_EQ(control.leasesCompleted(0), stormed.leasesCompleted(0));
    EXPECT_NE(control.calibrationDigest(0),
              stormed.calibrationDigest(0));
}

TEST(ChaosCore, SlowdownWindowFeedsTheLatencyHealthModel)
{
    ChaosEvent slow;
    slow.kind = ChaosKind::BackendSlowdown;
    slow.target = 0;
    slow.startTick = 0;
    slow.endTick = 100;
    slow.magnitude = 8.0;
    const ChaosSchedule sched({slow});

    BackendPool pool({"guadalupe"}, 1234);
    ServeCoreConfig cfg;
    cfg.chaos = &sched;
    ServeCore core(pool, cfg);

    EXPECT_DOUBLE_EQ(core.backendSlowdown(0), 8.0);

    core.submit(h2Spec(1));
    auto d = core.nextDispatch();
    ASSERT_TRUE(d.has_value());
    core.onRunFinished(*d, "digest", -1.0, 24);

    // One 8x-slow success pushes the latency EWMA past the degrade
    // factor (0.75*1 + 0.25*8 = 2.75 > 2.0): slow machines degrade
    // even though every lease "succeeds".
    EXPECT_EQ(pool.health(0), BackendHealth::Degraded);
    EXPECT_GT(pool.latencyEwma(0), pool.policy().latencyDegradeFactor);

    // Outside the window the chaos factor is nominal again.
    core.advanceClock(200);
    EXPECT_DOUBLE_EQ(core.backendSlowdown(0), 1.0);
}

/**
 * Degradation telemetry rides the completion payload end to end:
 * a deadline-budgeted run stops at an iteration boundary past its
 * budget and poll() reports the truncation, the retry/backoff
 * counters, and the run's simulated time directly.
 */
TEST(ChaosServe, DeadlineAndRetryTelemetrySurfaceThroughPoll)
{
    ServeJobSpec spec;
    spec.kind = WorkloadKind::TfimApp;
    spec.appIndex = 1;
    spec.seed = 23;
    spec.totalJobs = 120;
    spec.withFaults = true;

    ServeJobSpec budgeted = spec;
    budgeted.deadlineSimSeconds = 30.0;

    ServeSchedulerConfig cfg;
    cfg.workers = 1;
    ServeScheduler sched(cfg);
    const std::uint64_t fullId = sched.submit(spec);
    const std::uint64_t cutId = sched.submit(budgeted);
    sched.drain();

    const auto full = sched.poll(fullId);
    const auto cut = sched.poll(cutId);
    ASSERT_TRUE(full.has_value());
    ASSERT_TRUE(cut.has_value());

    ASSERT_EQ(full->state, ServeJobState::Completed);
    ASSERT_EQ(cut->state, ServeJobState::Completed);

    EXPECT_FALSE(full->deadlineExpired);
    EXPECT_TRUE(cut->deadlineExpired);
    EXPECT_LT(cut->jobsUsed, full->jobsUsed);
    EXPECT_GE(cut->simTimeSeconds, budgeted.deadlineSimSeconds);
    EXPECT_LT(cut->simTimeSeconds, full->simTimeSeconds);

    // The 6% mixed fault load forces retries, and the counters are
    // observable rather than inferred from latency.
    EXPECT_GT(full->faultRetries, 0u);
    EXPECT_GE(full->retriesUsed, full->faultRetries);
    EXPECT_GT(full->backoffSeconds, 0.0);
    EXPECT_GT(full->simTimeSeconds, 0.0);

    EXPECT_EQ(sched.fleetStats().deadlineExpirations, 1u);
}

/**
 * With startPaused, the queue-depth evolution is purely a function of
 * submission order, so admission control sheds the *same* job set at
 * any worker count.
 */
TEST(ChaosServe, PausedSubmissionMakesShedSetWorkerCountInvariant)
{
    const int priorities[] = {1, 0, 2, 0, 1, 0, 2, 1};

    auto runFleet = [&](std::size_t workers) {
        ServeSchedulerConfig cfg;
        cfg.workers = workers;
        cfg.backends = {"guadalupe", "guadalupe"};
        cfg.queueBound = 3;
        cfg.startPaused = true;
        ServeScheduler sched(cfg);
        EXPECT_TRUE(sched.paused());

        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 8; ++i) {
            ServeJobSpec spec = h2Spec(100 + i, i % 3, priorities[i]);
            spec.totalJobs = 12;
            ids.push_back(sched.submit(spec));
        }
        sched.setPaused(false);
        sched.drain();

        std::map<std::uint64_t, ServeJobState> states;
        std::map<std::uint64_t, std::string> digests;
        for (std::uint64_t id : ids) {
            const auto info = sched.poll(id);
            states[id] = info->state;
            digests[id] = info->trajectoryDigest;
        }
        EXPECT_EQ(sched.fleetStats().shed, 5u);
        return std::make_pair(states, digests);
    };

    const auto solo = runFleet(1);
    const auto wide = runFleet(4);
    EXPECT_EQ(solo.first, wide.first);   // identical shed/complete set
    EXPECT_EQ(solo.second, wide.second); // identical digests
}

/**
 * Threaded smoke of the whole resilience path: jobs served through a
 * chaotic fleet (an outage forcing migrations, a slowdown window)
 * complete with digests bit-identical to their no-chaos solo runs.
 */
TEST(ChaosServe, ChaoticFleetMatchesSoloDigests)
{
    std::vector<ServeJobSpec> specs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        specs.push_back(h2Spec(seed, seed % 2));

    std::map<std::uint64_t, std::string> soloDigests;
    {
        ServeSchedulerConfig cfg;
        cfg.workers = 1;
        ServeScheduler sched(cfg);
        std::vector<std::uint64_t> ids;
        for (const ServeJobSpec &spec : specs)
            ids.push_back(sched.submit(spec));
        sched.drain();
        for (std::size_t i = 0; i < ids.size(); ++i)
            soloDigests[specs[i].seed] =
                sched.poll(ids[i])->trajectoryDigest;
    }

    ChaosEvent slow;
    slow.kind = ChaosKind::BackendSlowdown;
    slow.target = 1;
    slow.startTick = 0;
    slow.endTick = 10;
    slow.magnitude = 3.0;
    const ChaosSchedule sched({outageEvent(0, 0, 3), slow});

    ServeSchedulerConfig cfg;
    cfg.workers = 3;
    cfg.backends = {"guadalupe", "guadalupe"};
    cfg.chaos = &sched;
    ServeScheduler fleet(cfg);
    std::vector<std::uint64_t> ids;
    for (const ServeJobSpec &spec : specs)
        ids.push_back(fleet.submit(spec));
    fleet.drain();

    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto info = fleet.poll(ids[i]);
        ASSERT_TRUE(info.has_value());
        ASSERT_EQ(info->state, ServeJobState::Completed);
        EXPECT_EQ(info->trajectoryDigest, soloDigests[specs[i].seed])
            << "job seed " << specs[i].seed
            << " diverged from its solo digest";
    }

    // The very first leg leased backend 0 inside its outage window, so
    // at least one migration happened; with an unlimited budget every
    // fault migrates, and each completion or fault advanced the fleet
    // clock by one tick.
    const ServeFleetStats stats = fleet.fleetStats();
    EXPECT_GE(stats.backendFaults, 1u);
    EXPECT_EQ(stats.migrations, stats.backendFaults);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.clockTicks,
              specs.size() + stats.backendFaults);
}

} // namespace
} // namespace qismet
