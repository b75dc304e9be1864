/** @file Tests for the density-matrix simulator and noise channels. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "sim/density_matrix.hpp"

namespace qismet {
namespace {

Circuit
randomCircuit(int num_qubits, int num_gates, Rng &rng)
{
    Circuit c(num_qubits);
    for (int i = 0; i < num_gates; ++i) {
        const int q = static_cast<int>(rng.uniformInt(num_qubits));
        switch (rng.uniformInt(5)) {
          case 0: c.h(q); break;
          case 1: c.rx(q, rng.uniform(-3.0, 3.0)); break;
          case 2: c.ry(q, rng.uniform(-3.0, 3.0)); break;
          case 3: c.rz(q, rng.uniform(-3.0, 3.0)); break;
          default: {
            int q2 = static_cast<int>(rng.uniformInt(num_qubits));
            if (q2 == q)
                q2 = (q + 1) % num_qubits;
            c.cx(q, q2);
          }
        }
    }
    return c;
}

TEST(DensityMatrix, InitialStateIsPureGround)
{
    DensityMatrix rho(2);
    EXPECT_DOUBLE_EQ(rho.trace(), 1.0);
    EXPECT_DOUBLE_EQ(rho.purity(), 1.0);
    EXPECT_DOUBLE_EQ(rho.probabilities()[0], 1.0);
}

class PureStateAgreementTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PureStateAgreementTest, MatchesStatevectorOnRandomCircuits)
{
    Rng rng(GetParam());
    const Circuit c = randomCircuit(3, 40, rng);

    Statevector st(3);
    st.run(c);
    DensityMatrix rho(3);
    rho.run(c);

    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
    EXPECT_NEAR(rho.fidelity(st), 1.0, 1e-10);

    const auto p_sv = st.probabilities();
    const auto p_dm = rho.probabilities();
    for (std::size_t i = 0; i < p_sv.size(); ++i)
        EXPECT_NEAR(p_sv[i], p_dm[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PureStateAgreementTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(DensityMatrix, FromStatevector)
{
    Statevector st(2);
    Circuit c(2);
    c.h(0).cx(0, 1);
    st.run(c);
    DensityMatrix rho(st);
    EXPECT_NEAR(rho.fidelity(st), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

class ChannelTracePreservationTest
    : public ::testing::TestWithParam<double>
{
};

TEST_P(ChannelTracePreservationTest, AllChannelsPreserveTrace)
{
    const double p = GetParam();
    Rng rng(5);
    DensityMatrix rho(2);
    rho.run(randomCircuit(2, 15, rng));

    rho.applyChannel1q(0, KrausChannel::depolarizing1q(p));
    rho.applyChannel1q(1, KrausChannel::amplitudeDamping(p));
    rho.applyChannel1q(0, KrausChannel::phaseDamping(p));
    rho.applyChannel1q(1, KrausChannel::bitFlip(p));
    rho.applyChannel2q(0, 1, KrausChannel::depolarizing2q(p));
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelTracePreservationTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 1.0));

TEST(DensityMatrix, DepolarizingReducesPurity)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.h(0);
    rho.run(c);
    const double before = rho.purity();
    rho.applyChannel1q(0, KrausChannel::depolarizing1q(0.2));
    EXPECT_LT(rho.purity(), before);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixed)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.h(0);
    rho.run(c);
    rho.applyChannel1q(0, KrausChannel::depolarizing1q(1.0));
    EXPECT_NEAR(rho.purity(), 0.5, 1e-10);
    EXPECT_NEAR(rho.probabilities()[0], 0.5, 1e-10);
}

TEST(DensityMatrix, AmplitudeDampingFixedPoint)
{
    // |0><0| is invariant under amplitude damping.
    DensityMatrix rho(1);
    rho.applyChannel1q(0, KrausChannel::amplitudeDamping(0.7));
    EXPECT_NEAR(rho.probabilities()[0], 1.0, 1e-12);
}

TEST(DensityMatrix, AmplitudeDampingDecaysExcited)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.x(0);
    rho.run(c);
    rho.applyChannel1q(0, KrausChannel::amplitudeDamping(0.25));
    EXPECT_NEAR(rho.probabilities()[1], 0.75, 1e-12);
    EXPECT_NEAR(rho.probabilities()[0], 0.25, 1e-12);
}

TEST(DensityMatrix, PhaseDampingKillsCoherenceOnly)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.h(0);
    rho.run(c);
    rho.applyChannel1q(0, KrausChannel::phaseDamping(1.0));
    // Populations untouched, off-diagonals gone.
    EXPECT_NEAR(rho.probabilities()[0], 0.5, 1e-12);
    EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrix, ExpectationOfObservable)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.x(0);
    rho.run(c);
    Matrix z = Matrix::fromRows({{1, 0}, {0, -1}});
    EXPECT_NEAR(rho.expectation(z), -1.0, 1e-12);
}

TEST(DensityMatrix, ChannelArityValidation)
{
    DensityMatrix rho(2);
    EXPECT_THROW(rho.applyChannel1q(0, KrausChannel::depolarizing2q(0.1)),
                 std::invalid_argument);
    EXPECT_THROW(rho.applyChannel2q(0, 1, KrausChannel::depolarizing1q(0.1)),
                 std::invalid_argument);
    EXPECT_THROW(rho.applyChannel2q(1, 1, KrausChannel::depolarizing2q(0.1)),
                 std::invalid_argument);
}

/** Every element of rho, row-major. */
std::vector<Complex>
elements(const DensityMatrix &rho)
{
    std::vector<Complex> out;
    for (std::size_t r = 0; r < rho.dim(); ++r)
        for (std::size_t c = 0; c < rho.dim(); ++c)
            out.push_back(rho.element(r, c));
    return out;
}

TEST(DensityMatrix, ApplyGateRejectsOutOfRangeQubits)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate{GateType::H, {0, 0}});
    const std::vector<Complex> before = elements(rho);
    for (const GateType type : {GateType::CX, GateType::CZ, GateType::SWAP}) {
        EXPECT_THROW(rho.applyGate(Gate{type, {0, 5}}), std::out_of_range)
            << gateName(type);
        EXPECT_THROW(rho.applyGate(Gate{type, {2, 0}}), std::out_of_range)
            << gateName(type);
        EXPECT_THROW(rho.applyGate(Gate{type, {1, -1}}), std::out_of_range)
            << gateName(type);
    }
    EXPECT_THROW(rho.applyGate(Gate{GateType::H, {2, 0}}), std::out_of_range);
    EXPECT_EQ(elements(rho), before);
}

TEST(DensityMatrix, ApplyGateRejectsEqualQubits)
{
    // CX(1,1) used to be accepted, and it changed rho.
    DensityMatrix rho(3);
    rho.applyGate(Gate{GateType::H, {1, 0}});
    const std::vector<Complex> before = elements(rho);
    for (const GateType type : {GateType::CX, GateType::CZ, GateType::SWAP})
        EXPECT_THROW(rho.applyGate(Gate{type, {1, 1}}), std::invalid_argument)
            << gateName(type);
    EXPECT_EQ(elements(rho), before);
}

TEST(DensityMatrix, ThermalRelaxationMovesTowardGround)
{
    DensityMatrix rho(1);
    Circuit c(1);
    c.x(0);
    rho.run(c);
    // Duration equal to T1: excited population should drop to e^-1.
    rho.applyChannel1q(0, KrausChannel::thermalRelaxation(1000.0, 800.0,
                                                          1000.0));
    EXPECT_NEAR(rho.probabilities()[1], std::exp(-1.0), 1e-9);
}

} // namespace
} // namespace qismet
