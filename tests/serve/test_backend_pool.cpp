#include "serve/backend_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace qismet {
namespace {

/** Lease at tick 0; on a healthy fleet that is the lowest free id. */
BackendLease
acquire(BackendPool &pool)
{
    std::vector<HealthTransition> transitions;
    return pool.acquireHealthAware(0, transitions).value();
}

/** Nominal-latency success release at tick 0. */
void
release(BackendPool &pool, const BackendLease &lease)
{
    pool.releaseSuccess(lease, 1.0, 0);
}

TEST(BackendPool, ConstructionValidates)
{
    EXPECT_THROW(BackendPool({}, 1), std::invalid_argument);
    EXPECT_THROW(BackendPool({"not-a-machine"}, 1),
                 std::invalid_argument);
    const BackendPool pool({"guadalupe", "toronto"}, 1);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.freeCount(), 2u);
    EXPECT_TRUE(pool.anyFree());
}

TEST(BackendPool, AcquiresLowestIdFreeBackend)
{
    BackendPool pool({"guadalupe", "guadalupe", "guadalupe"}, 1);
    const BackendLease a = acquire(pool);
    const BackendLease b = acquire(pool);
    EXPECT_EQ(a.backendId, 0u);
    EXPECT_EQ(b.backendId, 1u);
    release(pool, a);
    // 0 freed: the next acquire goes back to the lowest id.
    EXPECT_EQ(acquire(pool).backendId, 0u);
    EXPECT_EQ(acquire(pool).backendId, 2u);
}

TEST(BackendPool, ExhaustedPoolYieldsNoLease)
{
    BackendPool pool({"guadalupe"}, 1);
    const BackendLease lease = acquire(pool);
    EXPECT_FALSE(pool.anyFree());
    std::vector<HealthTransition> transitions;
    EXPECT_FALSE(pool.acquireHealthAware(0, transitions).has_value());
    EXPECT_TRUE(transitions.empty());
    release(pool, lease);
    EXPECT_TRUE(pool.anyFree());
}

TEST(BackendPool, DoubleReleaseThrows)
{
    BackendPool pool({"guadalupe"}, 1);
    const BackendLease lease = acquire(pool);
    release(pool, lease);
    EXPECT_THROW(release(pool, lease), std::invalid_argument);
}

TEST(BackendPool, StaleEpochCannotRelease)
{
    BackendPool pool({"guadalupe"}, 1);
    const BackendLease first = acquire(pool);
    release(pool, first);
    const BackendLease second = acquire(pool);
    EXPECT_NE(first.epoch, second.epoch);
    // The old lease must not be able to yank the backend from its new
    // holder.
    EXPECT_THROW(release(pool, first), std::invalid_argument);
    release(pool, second);
}

TEST(BackendPool, UnknownIdThrows)
{
    BackendPool pool({"guadalupe"}, 1);
    BackendLease bogus;
    bogus.backendId = 99;
    EXPECT_THROW(release(pool, bogus), std::invalid_argument);
    EXPECT_THROW(pool.machine(99), std::invalid_argument);
}

TEST(BackendPool, EpochsIncreaseMonotonically)
{
    BackendPool pool({"guadalupe"}, 7);
    std::uint64_t last = 0;
    for (int i = 0; i < 5; ++i) {
        const BackendLease lease = acquire(pool);
        EXPECT_GT(lease.epoch, last);
        last = lease.epoch;
        release(pool, lease);
    }
    EXPECT_EQ(pool.leasesCompleted(0), 5u);
}

TEST(BackendPool, CalibrationStreamsAreIsolatedPerMachine)
{
    // Two pools with the same seed: in pool A only backend 0 works; in
    // pool B both work. Backend 0's calibration digest must not care
    // what backend 1 did.
    BackendPool a({"guadalupe", "toronto"}, 42);
    BackendPool b({"guadalupe", "toronto"}, 42);

    for (int i = 0; i < 3; ++i) {
        const BackendLease lease = acquire(a); // always backend 0
        release(a, lease);
    }
    for (int i = 0; i < 3; ++i) {
        const BackendLease l0 = acquire(b);
        const BackendLease l1 = acquire(b);
        release(b, l0);
        release(b, l1);
    }

    EXPECT_EQ(a.calibrationDigest(0), b.calibrationDigest(0));
    EXPECT_NE(b.calibrationDigest(0), b.calibrationDigest(1));
    EXPECT_EQ(a.calibrationDigest(1), 0u) << "idle machine must not "
                                             "advance its stream";
}

TEST(BackendPool, IdenticalMachinesStillHaveDistinctStreams)
{
    // A fleet of identical machines: same model, but per-backend stream
    // roots must differ (keyed by backend id, not machine name).
    BackendPool pool({"guadalupe", "guadalupe"}, 42);
    const BackendLease l0 = acquire(pool);
    const BackendLease l1 = acquire(pool);
    release(pool, l0);
    release(pool, l1);
    EXPECT_NE(pool.calibrationDigest(0), pool.calibrationDigest(1));
}

TEST(BackendPool, EqualHistoriesGiveEqualDigests)
{
    BackendPool a({"sydney"}, 9);
    BackendPool b({"sydney"}, 9);
    for (int i = 0; i < 4; ++i) {
        const BackendLease la = acquire(a);
        release(a, la);
        const BackendLease lb = acquire(b);
        release(b, lb);
    }
    EXPECT_EQ(a.calibrationDigest(0), b.calibrationDigest(0));
    EXPECT_NE(a.calibrationDigest(0), 0u);
}

TEST(BackendPool, NoDoubleLeaseUnderChurn)
{
    BackendPool pool(
        {"guadalupe", "toronto", "sydney", "casablanca"}, 3);
    std::vector<BackendLease> held;
    std::set<std::size_t> heldIds;
    // Deterministic churn: acquire until exhausted, release half,
    // repeat — held ids must stay unique throughout.
    for (int round = 0; round < 6; ++round) {
        while (pool.anyFree()) {
            const BackendLease lease = acquire(pool);
            EXPECT_TRUE(heldIds.insert(lease.backendId).second)
                << "backend " << lease.backendId << " double-leased";
            held.push_back(lease);
        }
        const std::size_t releaseCount = held.size() / 2;
        for (std::size_t i = 0; i < releaseCount; ++i) {
            release(pool, held.back());
            heldIds.erase(held.back().backendId);
            held.pop_back();
        }
    }
    for (const BackendLease &lease : held)
        release(pool, lease);
}

} // namespace
} // namespace qismet
