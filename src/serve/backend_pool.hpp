/**
 * @file
 * BackendPool: a fleet of simulated machines leased to serve-layer
 * runs, one run per machine at a time — now with a per-backend health
 * model and circuit breaker (DESIGN.md §15).
 *
 * Isolation invariants (tests/serve/test_backend_pool.cpp):
 *  - a backend is leased to at most one run at a time; acquiring from
 *    an exhausted pool yields no lease, and double-release throws;
 *  - every lease carries the backend's monotonically increasing epoch,
 *    so a stale lease (released, re-acquired by someone else) can never
 *    release the backend out from under its new holder;
 *  - per-machine calibration state advances by one splitStream draw per
 *    completed lease, derived from (pool seed, backend id, epoch) via
 *    the StreamDomain convention — machines never share or cross-feed
 *    their streams.
 *
 * Health model (tests/serve/test_backend_health.cpp): each backend
 * carries a three-state health (healthy → degraded → quarantined)
 * driven by deterministic fault/latency observations with hysteresis,
 * and a circuit breaker that trips Open after
 * `HealthPolicy::quarantineAfterFaults` consecutive backend faults and
 * half-opens on a simulated-tick schedule (one probe lease; a failed
 * probe reopens with a bounded, multiplied cooldown). Observations are
 * reported by the caller (ServeCore) — the pool never reads a clock of
 * its own. Every health/breaker change is returned as a
 * HealthTransition so the scheduler can journal it; resume replays the
 * transitions through restoreHealth() to rebuild breaker state.
 *
 * Determinism note: a lease models *capacity and machine state*, not
 * run physics. Serve-layer runs draw every bit of their randomness from
 * their own spec (see job_spec.hpp), never from the leased backend —
 * that is what makes a multiplexed run bit-identical to its solo
 * execution regardless of which backend it landed on, and what lets
 * health state be interleaving-dependent without ever touching
 * results.
 */

#ifndef QISMET_SERVE_BACKEND_POOL_HPP
#define QISMET_SERVE_BACKEND_POOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noise/machine_model.hpp"

namespace qismet {

/** Proof of exclusive ownership of one backend for one run leg. */
struct BackendLease
{
    std::size_t backendId = 0;
    std::uint64_t epoch = 0;
};

/** Three-state backend health. */
enum class BackendHealth : std::uint8_t
{
    Healthy = 0,
    Degraded = 1,   ///< suspect: deprioritized, still leasable
    Quarantined = 2 ///< breaker tripped: leasable only as a probe
};

std::string backendHealthName(BackendHealth health);

/** Circuit-breaker state. */
enum class BreakerState : std::uint8_t
{
    Closed = 0,  ///< normal service
    Open = 1,    ///< no leases until the cooldown elapses
    HalfOpen = 2 ///< one probe lease in flight decides the verdict
};

std::string breakerStateName(BreakerState state);

/**
 * Hysteresis and breaker-timing knobs of the health model. Counts are
 * consecutive observations; ticks are fleet SimClock ticks.
 */
struct HealthPolicy
{
    /** Consecutive faults before Healthy degrades. */
    int degradeAfterFaults = 2;
    /** Consecutive faults before quarantine + breaker trip. */
    int quarantineAfterFaults = 4;
    /** Consecutive clean successes before Degraded recovers. */
    int recoverAfterSuccesses = 3;
    /** First breaker cooldown (ticks until half-open). */
    std::uint64_t breakerCooldownTicks = 8;
    /** Cooldown multiplier after a failed half-open probe. */
    double breakerCooldownGrowth = 2.0;
    /** Cooldown ceiling. */
    std::uint64_t breakerMaxCooldownTicks = 64;
    /** Latency EWMA above this factor marks the backend Degraded. */
    double latencyDegradeFactor = 2.0;
    /** EWMA smoothing of latency observations. */
    double latencyEwmaAlpha = 0.25;

    /** @throws std::invalid_argument on malformed fields. */
    void validate() const;
};

/**
 * One recorded health/breaker change: the backend's full post-change
 * state, so replaying transitions in order reconstructs it exactly.
 * Journaled by the scheduler (manifest health frames).
 */
struct HealthTransition
{
    std::size_t backendId = 0;
    /** Fleet tick at which the change was observed. */
    std::uint64_t tick = 0;
    BackendHealth health = BackendHealth::Healthy;
    BreakerState breaker = BreakerState::Closed;
    /** Cooldown the (re)opened breaker is serving. */
    std::uint64_t cooldownTicks = 0;
    /** Tick the breaker last opened at. */
    std::uint64_t breakerOpenedTick = 0;
    std::uint32_t consecutiveFaults = 0;
    std::uint32_t consecutiveSuccesses = 0;
};

/** Pool-wide resilience counters (fleet telemetry). */
struct BackendPoolStats
{
    std::uint64_t faultsObserved = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerReopens = 0;
    std::uint64_t halfOpenProbes = 0;
    std::uint64_t stormsApplied = 0;
};

/**
 * Fixed fleet of simulated machines with exclusive leasing.
 * Not thread-safe; the scheduler serializes access under its mutex.
 */
class BackendPool
{
  public:
    /**
     * @param machine_names One machine per backend (names may repeat —
     *        a fleet of identical machines is the common soak setup).
     * @param seed Root of the per-machine calibration streams.
     * @param policy Health-model knobs.
     * @throws std::invalid_argument on an empty fleet, unknown name,
     *         or malformed policy.
     */
    BackendPool(const std::vector<std::string> &machine_names,
                std::uint64_t seed, HealthPolicy policy = {});

    std::size_t size() const { return backends_.size(); }

    /** True when at least one backend is free (health-blind). */
    bool anyFree() const;

    /** Free-backend count (health-blind). */
    std::size_t freeCount() const;

    /**
     * True when `backend_id` may be leased at tick `now`: free, and
     * its breaker is Closed, HalfOpen, or Open with an elapsed
     * cooldown (probe-eligible).
     */
    bool leasable(std::size_t backend_id, std::uint64_t now) const;

    /** True when any backend is leasable at tick `now`. */
    bool anyLeasable(std::uint64_t now) const;

    /**
     * Health-aware lease at tick `now`: prefers Healthy over Degraded
     * backends (lowest id within a rank); a quarantined backend whose
     * cooldown has elapsed is chosen last, as the breaker's half-open
     * probe (recorded in `transitions`). Returns nullopt when nothing
     * is leasable.
     */
    std::optional<BackendLease>
    acquireHealthAware(std::uint64_t now,
                       std::vector<HealthTransition> &transitions);

    /**
     * Success release with a health observation: advances the
     * calibration stream, feeds `latency_factor` (1.0 = nominal) into
     * the latency EWMA, closes a half-open breaker, and applies the
     * recovery hysteresis. Returns the transitions (possibly empty).
     * @throws std::invalid_argument on an unknown id, a stale epoch, or
     *         a backend that is not currently leased (double release).
     */
    std::vector<HealthTransition>
    releaseSuccess(const BackendLease &lease, double latency_factor,
                   std::uint64_t now);

    /**
     * Fault release: the backend did no work (outage), so the
     * calibration stream does NOT advance and the lease does not count
     * as completed. Feeds the consecutive-fault hysteresis; trips or
     * reopens the breaker when the threshold is crossed.
     */
    std::vector<HealthTransition>
    releaseFaulted(const BackendLease &lease, std::uint64_t now);

    /**
     * Calibration-drift storm: fold `draws` extra stream draws into
     * the backend's calibration digest (the drift is real machine
     * state) and mark it Degraded.
     */
    std::vector<HealthTransition>
    applyCalibrationStorm(std::size_t backend_id, std::uint64_t draws,
                          std::uint64_t now);

    /**
     * Earliest tick at which an Open breaker becomes probe-eligible,
     * or nullopt when no breaker is Open. The idle-fleet time skip
     * (ServeCore) advances the clock here so a fully quarantined
     * fleet cannot deadlock.
     */
    std::optional<std::uint64_t> earliestProbeTick() const;

    /**
     * Resume path: restore one backend's recorded health/breaker
     * state (manifest health frames, replayed in order — the last
     * frame per backend wins).
     */
    void restoreHealth(const HealthTransition &transition);

    /** The machine model of one backend. */
    const MachineModel &machine(std::size_t backend_id) const;

    /** Completed-lease count of one backend. */
    std::uint64_t leasesCompleted(std::size_t backend_id) const;

    /** Faulted-lease count of one backend. */
    std::uint64_t leasesFaulted(std::size_t backend_id) const;

    /**
     * Rolling digest of the backend's calibration stream: one
     * deriveStreamSeed draw folded in per completed lease (plus storm
     * drift draws). Equal histories give equal digests; leases on
     * other machines never change it (the isolation regression test).
     */
    std::uint64_t calibrationDigest(std::size_t backend_id) const;

    BackendHealth health(std::size_t backend_id) const;
    BreakerState breaker(std::size_t backend_id) const;
    std::uint32_t consecutiveFaults(std::size_t backend_id) const;
    double latencyEwma(std::size_t backend_id) const;

    const HealthPolicy &policy() const { return policy_; }
    const BackendPoolStats &stats() const { return stats_; }

  private:
    struct Backend
    {
        MachineModel model;
        std::uint64_t streamSeed = 0; ///< per-machine stream root
        bool leased = false;
        std::uint64_t epoch = 0; ///< increments on each acquire
        std::uint64_t completedLeases = 0;
        std::uint64_t faultedLeases = 0;
        std::uint64_t calibrationDigest = 0;
        /** Storm drift draws folded so far (storm stream counter). */
        std::uint64_t stormDraws = 0;

        BackendHealth health = BackendHealth::Healthy;
        BreakerState breaker = BreakerState::Closed;
        std::uint32_t consecFaults = 0;
        std::uint32_t consecSuccesses = 0;
        std::uint64_t cooldownTicks = 0;
        std::uint64_t breakerOpenedTick = 0;
        double latencyEwma = 1.0;
    };

    const Backend &at(std::size_t backend_id) const;
    Backend &validateRelease(const BackendLease &lease);
    /** Snapshot b's state as a transition stamped at `now`. */
    HealthTransition transitionOf(const Backend &b, std::size_t id,
                                  std::uint64_t now) const;
    void recordIfChanged(const Backend &before, const Backend &after,
                         std::size_t id, std::uint64_t now,
                         std::vector<HealthTransition> &out) const;

    HealthPolicy policy_;
    BackendPoolStats stats_;
    std::vector<Backend> backends_;
};

} // namespace qismet

#endif // QISMET_SERVE_BACKEND_POOL_HPP
