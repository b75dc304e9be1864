/**
 * @file
 * Differential battery for the batched single-sweep expectation
 * engine: batched vs legacy term-by-term must agree **bit for bit**
 * (DESIGN.md §16) — on random states and sums with forced xmask
 * collisions, with SIMD on and off, serial and blocked, at 1/2/4/8
 * threads, for Statevector and DensityMatrix, through the
 * EnergyEstimator paths, and on cache hits vs misses.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ansatz/real_amplitudes.hpp"
#include "common/block_partition.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {
namespace {

/** Restore the batched-engine switch on scope exit. */
class BatchedGuard
{
  public:
    BatchedGuard() : saved_(batchedExpectationEnabled()) {}
    ~BatchedGuard() { setBatchedExpectationEnabled(saved_); }

  private:
    bool saved_;
};

/** Restore the effective SIMD switch on scope exit. */
class SimdGuard
{
  public:
    SimdGuard() : saved_(simdEnabled()) {}
    ~SimdGuard() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

/** Restore the default parallel threshold on scope exit. */
class ThresholdGuard
{
  public:
    ~ThresholdGuard() { setIntraStateParallelThreshold(0); }
};

/** Restore the global executor's thread count on scope exit. */
class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::global().setThreads(saved_); }

  private:
    std::size_t saved_;
};

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

Statevector
randomState(int num_qubits, Rng &rng)
{
    std::vector<Complex> amps(std::size_t{1} << num_qubits);
    for (auto &a : amps)
        a = Complex(rng.normal(), rng.normal());
    Statevector st(std::move(amps));
    st.normalize();
    return st;
}

/**
 * Random sum biased toward xmask collisions: Z-type terms (all share
 * xmask 0), XX/YY pairs on the same qubit pair, fully random strings,
 * and an identity term.
 */
PauliSum
collidingSum(int num_qubits, int num_terms, Rng &rng)
{
    const char ops[] = {'I', 'X', 'Y', 'Z'};
    const auto n = static_cast<std::size_t>(num_qubits);
    PauliSum h(num_qubits);
    h.add(rng.normal(), std::string(n, 'I'));
    for (int t = 1; t < num_terms; ++t) {
        std::string label(n, 'I');
        switch (rng.uniformInt(4)) {
          case 0: // Z-type: xmask 0
            for (auto &c : label)
                if (rng.uniform() < 0.5)
                    c = 'Z';
            break;
          case 1: { // XX on a random pair
            const std::size_t q = rng.uniformInt(n - 1);
            label[q] = label[q + 1] = 'X';
            break;
          }
          case 2: { // YY on a random pair (same xmask as the XX case)
            const std::size_t q = rng.uniformInt(n - 1);
            label[q] = label[q + 1] = 'Y';
            break;
          }
          default:
            for (auto &c : label)
                c = ops[rng.uniformInt(4)];
            break;
        }
        h.add(rng.normal(), label);
    }
    return h;
}

double
legacyEval(const Statevector &st, const PauliSum &h)
{
    setBatchedExpectationEnabled(false);
    return expectation(st, h);
}

double
batchedEval(const Statevector &st, const PauliSum &h)
{
    setBatchedExpectationEnabled(true);
    return expectation(st, h);
}

TEST(BatchedExpectation, BitIdenticalAcrossSimdAndPartitioning)
{
    BatchedGuard batched_guard;
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(31337);

    const auto expectBitIdentical = [](const Statevector &st,
                                       const PauliSum &h) {
        // Threshold 1 forces the 16-block partition even on tiny
        // states; 0 restores the default serial-below-1024 behavior.
        for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
            setIntraStateParallelThreshold(threshold);
            for (bool simd : {false, true}) {
                setSimdEnabled(simd);
                const double legacy = legacyEval(st, h);
                const double fast = batchedEval(st, h);
                EXPECT_EQ(bits(legacy), bits(fast))
                    << "n=" << st.numQubits() << " terms=" << h.numTerms()
                    << " threshold=" << threshold << " simd=" << simd
                    << " legacy=" << legacy << " batched=" << fast;
            }
        }
    };

    for (int n = 2; n <= 10; ++n) {
        const Statevector st = randomState(n, rng);
        const PauliSum h = collidingSum(n, 24, rng);
        expectBitIdentical(st, h);
    }

    // Every non-identity Z string on 7 qubits: 127 terms in the xmask-0
    // group, so kern::pauliGroupSums walks four kPauliGroupSlab slabs.
    const int n = 7;
    const Statevector st = randomState(n, rng);
    PauliSum zs(n);
    for (std::uint64_t zmask = 1; zmask < (std::uint64_t{1} << n); ++zmask) {
        std::string label(static_cast<std::size_t>(n), 'I');
        for (int q = 0; q < n; ++q)
            if ((zmask >> q) & 1)
                label[static_cast<std::size_t>(q)] = 'Z';
        zs.add(rng.normal(), label);
    }
    ASSERT_EQ(zs.numTerms(), std::size_t{127});
    expectBitIdentical(st, zs);
}

TEST(BatchedExpectation, BitIdenticalAcrossThreadCounts)
{
    BatchedGuard batched_guard;
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    GlobalThreadsGuard threads_guard;
    Rng rng(90210);

    const Statevector st = randomState(9, rng);
    const PauliSum h = collidingSum(9, 30, rng);
    setIntraStateParallelThreshold(1); // force the blocked partition
    setBatchedExpectationEnabled(true);

    for (bool simd : {false, true}) {
        setSimdEnabled(simd);
        ParallelExecutor::global().setThreads(1);
        const double reference = expectation(st, h);
        for (std::size_t threads : {2u, 4u, 8u}) {
            ParallelExecutor::global().setThreads(threads);
            const double value = expectation(st, h);
            EXPECT_EQ(bits(reference), bits(value))
                << "simd=" << simd << " threads=" << threads;
        }
    }
}

TEST(BatchedExpectation, DensityMatrixBitIdentical)
{
    BatchedGuard batched_guard;
    Rng rng(555);
    for (int n = 2; n <= 6; ++n) {
        const Statevector psi = randomState(n, rng);
        const DensityMatrix rho(psi);
        const PauliSum h = collidingSum(n, 20, rng);
        setBatchedExpectationEnabled(false);
        const double legacy = expectation(rho, h);
        setBatchedExpectationEnabled(true);
        const double fast = expectation(rho, h);
        EXPECT_EQ(bits(legacy), bits(fast)) << "n=" << n;
    }
}

TEST(BatchedExpectation, PlanTermExpectationsMatchPerStringLegacy)
{
    BatchedGuard batched_guard;
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(4711);

    const Statevector st = randomState(8, rng);
    const PauliSum h = collidingSum(8, 25, rng);
    const ExpectationPlan plan(h);

    for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
        setIntraStateParallelThreshold(threshold);
        for (bool simd : {false, true}) {
            setSimdEnabled(simd);
            std::vector<double> sums(h.numTerms(), 0.0);
            plan.termExpectations(st, sums.data());
            for (std::size_t k = 0; k < h.numTerms(); ++k) {
                const double legacy =
                    expectation(st, h.terms()[k].pauli);
                EXPECT_EQ(bits(legacy), bits(sums[k]))
                    << "term " << k << " threshold=" << threshold
                    << " simd=" << simd;
            }
        }
    }
}

TEST(BatchedExpectation, CacheHitBitIdenticalToMiss)
{
    BatchedGuard batched_guard;
    Rng rng(808);
    const Statevector st = randomState(7, rng);
    const PauliSum h = collidingSum(7, 22, rng);

    ExpectationPlanCache cache;
    const auto miss = cache.acquire(h);
    const double from_miss = miss->evaluate(st);
    const auto hit = cache.acquire(h);
    const double from_hit = hit->evaluate(st);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(bits(from_miss), bits(from_hit));
    // A freshly compiled plan agrees too (plans are pure functions).
    EXPECT_EQ(bits(from_miss), bits(ExpectationPlan(h).evaluate(st)));
}

TEST(BatchedExpectation, WidthMismatchStillThrows)
{
    BatchedGuard batched_guard;
    setBatchedExpectationEnabled(true);
    PauliSum h(3);
    h.add(1.0, "ZZZ");
    Statevector st(2);
    EXPECT_THROW(expectation(st, h), std::invalid_argument);
    const ExpectationPlan plan(h);
    EXPECT_THROW(plan.evaluate(st), std::invalid_argument);
}

struct EstimatorFixture
{
    EstimatorFixture()
        : hamiltonian(tfimHamiltonian({.numQubits = 5})),
          ansatz(RealAmplitudes(5, 2).build()),
          noise(machineModel("guadalupe").staticModel())
    {
    }

    PauliSum hamiltonian;
    Circuit ansatz;
    StaticNoiseModel noise;

    std::vector<double> theta() const
    {
        std::vector<double> t(
            static_cast<std::size_t>(ansatz.numParams()));
        Rng rng(99);
        for (auto &x : t)
            x = rng.uniform(-1.0, 1.0);
        return t;
    }
};

TEST(BatchedExpectation, EstimatorIdealAndAnalyticBitIdentical)
{
    BatchedGuard batched_guard;
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Analytic;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);
    const auto theta = f.theta();

    setBatchedExpectationEnabled(false);
    const double ideal_legacy = est.idealEnergy(theta);
    Rng rng_a(42);
    const double analytic_legacy = est.estimate(theta, 0.3, rng_a);

    setBatchedExpectationEnabled(true);
    const double ideal_fast = est.idealEnergy(theta);
    Rng rng_b(42);
    const double analytic_fast = est.estimate(theta, 0.3, rng_b);

    EXPECT_EQ(bits(ideal_legacy), bits(ideal_fast));
    EXPECT_EQ(bits(analytic_legacy), bits(analytic_fast));
}

TEST(BatchedExpectation, EstimatorSamplingBitIdentical)
{
    BatchedGuard batched_guard;
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Sampling;
    cfg.shots = 256;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);
    const auto theta = f.theta();

    setBatchedExpectationEnabled(false);
    Rng rng_a(7);
    const double legacy = est.estimate(theta, 0.2, rng_a);
    setBatchedExpectationEnabled(true);
    Rng rng_b(7);
    const double fast = est.estimate(theta, 0.2, rng_b);
    EXPECT_EQ(bits(legacy), bits(fast));
}

TEST(BatchedExpectation, EstimatorsSharingACacheShareThePlan)
{
    EstimatorFixture f;
    ExpectationPlanCache cache;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Analytic;
    cfg.planCache = &cache;
    cfg.planCacheTenant = 11;

    const EnergyEstimator a(f.hamiltonian, f.ansatz, f.noise, cfg);
    const EnergyEstimator b(f.hamiltonian, f.ansatz, f.noise, cfg);
    EXPECT_EQ(a.plan().get(), b.plan().get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different tenant on the same cache compiles its own plan.
    cfg.planCacheTenant = 12;
    const EnergyEstimator c(f.hamiltonian, f.ansatz, f.noise, cfg);
    EXPECT_NE(a.plan().get(), c.plan().get());
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace
} // namespace qismet
