/**
 * @file
 * Fused-vs-unfused equivalence: for 50 seeded random circuits over the
 * full gate set (plus five 14-qubit ones, wide enough for 1q gates to
 * absorb into 2q ops), the compiled (fused) execution path must agree
 * with the unfused gate-by-gate path (applyGate) to 1e-12 on both
 * simulators, and the
 * compiled path must itself be bit-identical run-to-run and at every
 * thread count (the kernels are single-threaded pure functions, and the
 * threaded energy estimator builds on exactly that invariant).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "ansatz/real_amplitudes.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {
namespace {

/** Random circuit over the full gate set (entanglers when width > 1). */
Circuit
randomCircuit(int num_qubits, int num_gates, Rng &rng)
{
    Circuit c(num_qubits);
    for (int g = 0; g < num_gates; ++g) {
        const int q = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(num_qubits)));
        const std::uint64_t kind = rng.uniformInt(num_qubits > 1 ? 15 : 12);
        switch (kind) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.y(q); break;
          case 3: c.z(q); break;
          case 4: c.s(q); break;
          case 5: c.sdg(q); break;
          case 6: c.t(q); break;
          case 7: c.tdg(q); break;
          case 8: c.sx(q); break;
          case 9: c.rx(q, rng.uniform(-M_PI, M_PI)); break;
          case 10: c.ry(q, rng.uniform(-M_PI, M_PI)); break;
          case 11: c.rz(q, rng.uniform(-M_PI, M_PI)); break;
          default: {
            int p = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(num_qubits - 1)));
            if (p >= q)
                ++p; // distinct second qubit
            if (kind == 12)
                c.cx(q, p);
            else if (kind == 13)
                c.cz(q, p);
            else
                c.swap(q, p);
            break;
          }
        }
    }
    return c;
}

/** (width, generator-seed) grid giving 50 distinct random circuits. */
class FusionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FusionEquivalenceTest, StatevectorFusedMatchesUnfused)
{
    const int n = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(31000 * n + seed));
    const Circuit circuit = randomCircuit(n, 8 * n + 14, rng);

    Statevector unfused(n);
    for (const Gate &g : circuit.gates())
        unfused.applyGate(g);

    Statevector fused(n);
    fused.run(CompiledCircuit(circuit));
    ASSERT_EQ(fused.dim(), unfused.dim());
    for (std::size_t i = 0; i < fused.dim(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    unfused.amplitudes()[i].real(), 1e-12)
            << "amplitude " << i;
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    unfused.amplitudes()[i].imag(), 1e-12)
            << "amplitude " << i;
    }
}

TEST(FusionEquivalence, WideRegisterAbsorbedMatchesUnfused)
{
    // At 14 qubits the compiler absorbs 1q gates into neighbouring
    // CX/SWAPs as dense 4x4s; those products must agree with the
    // gate-by-gate path too.
    const int n = 14;
    for (int seed = 0; seed < 5; ++seed) {
        Rng rng(static_cast<std::uint64_t>(53000 + seed));
        const Circuit circuit = randomCircuit(n, 8 * n + 14, rng);
        const CompiledCircuit cc(circuit);
        std::size_t dense2 = 0;
        for (const CompiledOp &op : cc.ops())
            dense2 += op.kind == CompiledOpKind::Dense2 ? 1u : 0u;
        ASSERT_GT(dense2, 0u) << "seed " << seed << ": nothing absorbed";

        Statevector unfused(n);
        for (const Gate &g : circuit.gates())
            unfused.applyGate(g);
        Statevector fused(n);
        fused.run(cc);
        for (std::size_t i = 0; i < fused.dim(); ++i) {
            ASSERT_NEAR(fused.amplitudes()[i].real(),
                        unfused.amplitudes()[i].real(), 1e-12)
                << "seed " << seed << ", amplitude " << i;
            ASSERT_NEAR(fused.amplitudes()[i].imag(),
                        unfused.amplitudes()[i].imag(), 1e-12)
                << "seed " << seed << ", amplitude " << i;
        }
    }
}

TEST_P(FusionEquivalenceTest, DensityMatrixFusedMatchesUnfused)
{
    const int n = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(47000 * n + seed));
    const Circuit circuit = randomCircuit(n, 6 * n + 10, rng);

    DensityMatrix unfused(n);
    for (const Gate &g : circuit.gates())
        unfused.applyGate(g);

    DensityMatrix fused(n);
    fused.run(CompiledCircuit(circuit));

    for (std::size_t r = 0; r < fused.dim(); ++r) {
        for (std::size_t c = 0; c < fused.dim(); ++c) {
            EXPECT_NEAR(fused.element(r, c).real(),
                        unfused.element(r, c).real(), 1e-12)
                << "rho(" << r << "," << c << ")";
            EXPECT_NEAR(fused.element(r, c).imag(),
                        unfused.element(r, c).imag(), 1e-12)
                << "rho(" << r << "," << c << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, FusionEquivalenceTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4,
                                                              5),
                                            ::testing::Range(0, 10)));

class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::setGlobalThreads(saved_); }

  private:
    std::size_t saved_;
};

TEST(FusionThreadInvariance, SampledEnergiesBitIdenticalAcrossThreadCounts)
{
    // The threaded consumer of compiled circuits is the sampling
    // estimator: measurement groups fan out over the executor and every
    // worker runs the same compiled basis-change instances. The energy
    // stream must be byte-equal at 1/2/4/8 threads.
    GlobalThreadsGuard guard;
    const PauliSum hamiltonian = tfimHamiltonian({.numQubits = 4});
    const Circuit ansatz = RealAmplitudes(4, 2).build();
    const StaticNoiseModel noise = machineModel("guadalupe").staticModel();
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Sampling;
    cfg.shots = 512;
    const EnergyEstimator est(hamiltonian, ansatz, noise, cfg);
    const std::vector<double> theta(
        static_cast<std::size_t>(ansatz.numParams()), 0.3);

    std::vector<std::vector<double>> streams;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ParallelExecutor::setGlobalThreads(threads);
        Rng rng(2026);
        std::vector<double> energies;
        for (int i = 0; i < 5; ++i)
            energies.push_back(
                est.estimate(theta, 0.05 * i, rng, 1.0));
        streams.push_back(std::move(energies));
    }

    for (std::size_t k = 1; k < streams.size(); ++k)
        for (std::size_t i = 0; i < streams[0].size(); ++i)
            EXPECT_EQ(streams[k][i], streams[0][i])
                << "thread-count variant " << k << ", iteration " << i;
}

TEST(FusionThreadInvariance, CompiledAndLegacyPathsShareSampleStream)
{
    // The cached-CDF sampler must consume the RNG exactly like the
    // legacy probability-vector path: identical counts, same stream.
    Rng gen(404);
    const Circuit circuit = randomCircuit(4, 30, gen);
    Statevector sv(4);
    sv.run(circuit);

    Rng a(77), b(77);
    const std::vector<std::uint64_t> viaCdf = sv.sample(a, 4096);
    std::vector<std::uint64_t> viaProbs;
    {
        // Rebuild the CDF from probabilities() the way callers did
        // before the cache existed; the outcomes must be stream-equal.
        const std::vector<double> probs = sv.probabilities();
        std::vector<double> cdf(probs.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            acc += probs[i];
            cdf[i] = acc;
        }
        for (std::size_t s = 0; s < 4096; ++s) {
            const double u = b.uniform() * cdf.back();
            const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            viaProbs.push_back(
                static_cast<std::uint64_t>(it - cdf.begin()));
        }
    }
    ASSERT_EQ(viaCdf.size(), viaProbs.size());
    for (std::size_t s = 0; s < viaCdf.size(); ++s)
        EXPECT_EQ(viaCdf[s], viaProbs[s]) << "shot " << s;
}

} // namespace
} // namespace qismet
