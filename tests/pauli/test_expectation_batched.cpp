/**
 * @file
 * Differential battery for the batched single-sweep expectation
 * engine: it must agree **bit for bit** (DESIGN.md §16) with a
 * term-by-term oracle built here from the per-string expectation()
 * overloads — on random states and sums with forced xmask collisions,
 * with SIMD on and off, serial and blocked, at 1/2/4/8 threads, for
 * Statevector and DensityMatrix, through the EnergyEstimator paths
 * (against test-side re-derivations of each estimator mode), and on
 * cache hits vs misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ansatz/real_amplitudes.hpp"
#include "common/block_partition.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/tfim.hpp"
#include "mitigation/measurement_mitigation.hpp"
#include "noise/machine_model.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"
#include "pauli/grouping.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/shot_sampler.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {
namespace {

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

/**
 * The term-by-term oracle: Σ_t c_t·<P_t>, one per-string expectation()
 * walk per term, folded in term order (works for Statevector and
 * DensityMatrix alike).
 */
template <class State>
double
legacyEval(const State &st, const PauliSum &h)
{
    double e = 0.0;
    for (const auto &t : h.terms())
        e += t.coefficient * expectation(st, t.pauli);
    return e;
}

TEST(BatchedExpectation, BitIdenticalAcrossSimdAndPartitioning)
{
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
                const double fast = expectation(st, h);
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
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    GlobalThreadsGuard threads_guard;
    Rng rng(90210);

    const Statevector st = randomState(9, rng);
    const PauliSum h = collidingSum(9, 30, rng);
    setIntraStateParallelThreshold(1); // force the blocked partition

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
    Rng rng(555);
    for (int n = 2; n <= 6; ++n) {
        const Statevector psi = randomState(n, rng);
        const DensityMatrix rho(psi);
        const PauliSum h = collidingSum(n, 20, rng);
        const double legacy = legacyEval(rho, h);
        const double fast = expectation(rho, h);
        EXPECT_EQ(bits(legacy), bits(fast)) << "n=" << n;
    }
}

TEST(BatchedExpectation, PlanTermExpectationsMatchPerStringLegacy)
{
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

TEST(BatchedExpectation, EmptySumIsExactlyZero)
{
    // No terms means no sweep: both overloads must return +0.0 exactly,
    // not a fold of anything.
    Rng rng(2718);
    for (int n = 1; n <= 4; ++n) {
        const Statevector st = randomState(n, rng);
        const DensityMatrix rho(st);
        const PauliSum empty(n);
        ASSERT_EQ(empty.numTerms(), 0u);
        EXPECT_EQ(bits(expectation(st, empty)), bits(0.0)) << "n=" << n;
        EXPECT_EQ(bits(expectation(rho, empty)), bits(0.0)) << "n=" << n;
    }
}

TEST(BatchedExpectation, WidthMismatchStillThrows)
{
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

/**
 * The estimator's per-estimate pipeline re-derived from public pieces:
 * the ansatz run through its own CompiledCircuit, the term-by-term
 * oracle, staticSurvival(), transientSensitivity(), the same shot
 * rounding rule and the caller's Rng. Nothing here reads the
 * estimator's plan.
 */
struct EstimatorReference
{
    const EnergyEstimator &est;
    const StaticNoiseModel &noise;

    int width() const { return est.ansatzCircuit().numQubits(); }

    Statevector prepare(const std::vector<double> &theta) const
    {
        Statevector st(width());
        st.run(CompiledCircuit(est.ansatzCircuit()), theta);
        return st;
    }

    double survival(double tau, const Statevector &st) const
    {
        return std::clamp(
            est.staticSurvival() *
                (1.0 - tau * EnergyEstimator::transientSensitivity(st)),
            0.0, 1.0);
    }

    std::size_t shots(double shot_fraction) const
    {
        const double scaled = std::round(
            shot_fraction * static_cast<double>(est.config().shots));
        return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
    }

    double ideal(const std::vector<double> &theta) const
    {
        return legacyEval(prepare(theta), est.hamiltonian());
    }

    double analytic(const std::vector<double> &theta, double tau, Rng &rng,
                    double shot_fraction) const
    {
        const Statevector st = prepare(theta);
        const double f = survival(tau, st);
        const double n_shots = static_cast<double>(shots(shot_fraction));
        double e = est.mixedEnergy();
        double var = 0.0;
        for (const auto &t : est.hamiltonian().terms()) {
            if (t.pauli.isIdentity())
                continue;
            const double p = f * expectation(st, t.pauli);
            e += t.coefficient * p;
            var += t.coefficient * t.coefficient * (1.0 - p * p) / n_shots;
        }
        return e + rng.normal(0.0, std::sqrt(var));
    }

    /** Sampling mode with tensored mitigation, term masks read from
        the Hamiltonian's own term list. */
    double sampling(const std::vector<double> &theta, double tau, Rng &rng,
                    double shot_fraction) const
    {
        const int n = width();
        const std::size_t dim = std::size_t{1} << n;
        const double uniform = 1.0 / static_cast<double>(dim);
        const Statevector prepared = prepare(theta);
        const double f = survival(tau, prepared);
        const ShotSampler sampler(noise.readoutErrors(n));
        const MeasurementMitigator mitigator(n, noise.readoutErrors(n));
        const auto &terms = est.hamiltonian().terms();
        const std::vector<MeasurementGroup> groups =
            groupQubitWise(est.hamiltonian());

        std::vector<Rng> group_rngs;
        for (std::size_t gi = 0; gi < groups.size(); ++gi)
            group_rngs.push_back(rng.split());

        double e = est.mixedEnergy();
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            Statevector st = prepared;
            st.run(CompiledCircuit(basisChangeCircuit(groups[gi], n)));
            std::vector<double> probs = st.probabilities();
            for (auto &p : probs)
                p = f * p + (1.0 - f) * uniform;
            const Counts counts = sampler.sample(
                probs, n, shots(shot_fraction), group_rngs[gi]);
            const std::vector<double> est_probs =
                MeasurementMitigator::clipToPhysical(
                    mitigator.mitigateCounts(counts));
            double e_group = 0.0;
            for (std::size_t ti : groups[gi].termIndices) {
                const std::uint64_t mask = terms[ti].pauli.supportMask();
                double parity_avg = 0.0;
                for (std::size_t b = 0; b < dim; ++b) {
                    const int parity = std::popcount(b & mask) & 1;
                    parity_avg += (parity ? -1.0 : 1.0) * est_probs[b];
                }
                e_group += terms[ti].coefficient * parity_avg;
            }
            e += e_group;
        }
        return e;
    }
};

TEST(BatchedExpectation, EstimatorIdealAndAnalyticBitIdentical)
{
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Analytic;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);
    const EstimatorReference ref{est, f.noise};
    const auto theta = f.theta();

    EXPECT_EQ(bits(ref.ideal(theta)), bits(est.idealEnergy(theta)));
    for (double tau : {0.0, 0.3}) {
        for (double shot_fraction : {1.0, 0.37}) {
            Rng rng_ref(42);
            const double want =
                ref.analytic(theta, tau, rng_ref, shot_fraction);
            Rng rng_est(42);
            const double got =
                est.estimate(theta, tau, rng_est, shot_fraction);
            EXPECT_EQ(bits(want), bits(got))
                << "tau=" << tau << " shot_fraction=" << shot_fraction;
        }
    }
}

TEST(BatchedExpectation, EstimatorSamplingBitIdentical)
{
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Sampling;
    cfg.shots = 256;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);
    const auto theta = f.theta();

    // The plan's flat per-group sampling tables are the term list's
    // support masks and coefficients, group by group, in order.
    const auto plan = est.plan();
    const auto &terms = est.hamiltonian().terms();
    ASSERT_EQ(est.numGroups(), plan->measurementGroups().size());
    for (std::size_t g = 0; g < est.numGroups(); ++g) {
        const auto &members = plan->measurementGroups()[g].termIndices;
        ASSERT_EQ(plan->samplingMasks(g).size(), members.size());
        ASSERT_EQ(plan->samplingCoefficients(g).size(), members.size());
        for (std::size_t k = 0; k < members.size(); ++k) {
            EXPECT_EQ(plan->samplingMasks(g)[k],
                      terms[members[k]].pauli.supportMask())
                << "group " << g << " member " << k;
            EXPECT_EQ(bits(plan->samplingCoefficients(g)[k]),
                      bits(terms[members[k]].coefficient))
                << "group " << g << " member " << k;
        }
    }

    const EstimatorReference ref{est, f.noise};
    Rng rng_ref(7);
    const double want = ref.sampling(theta, 0.2, rng_ref, 1.0);
    Rng rng_est(7);
    const double got = est.estimate(theta, 0.2, rng_est);
    EXPECT_EQ(bits(want), bits(got));
    // The group sub-streams are split from the caller's stream in both.
    EXPECT_EQ(bits(rng_ref.uniform()), bits(rng_est.uniform()));
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
