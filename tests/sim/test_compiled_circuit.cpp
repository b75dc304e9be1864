/**
 * @file
 * Unit tests for the circuit compiler itself: op-count reduction,
 * kernel classification, diagonal-run merging, cancellation peepholes,
 * 2q absorption and its width rule, parameter-slot rebinding, and
 * run(Circuit) as a thin wrapper over the compiled path. End-to-end
 * numeric equivalence against the unfused path lives in
 * test_fusion_equivalence.cpp.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"

namespace qismet {
namespace {

std::size_t
countKind(const CompiledCircuit &cc, CompiledOpKind kind)
{
    std::size_t n = 0;
    for (const auto &op : cc.ops())
        if (op.kind == kind)
            ++n;
    return n;
}

TEST(CompiledCircuit, AdjacentOneQubitGatesFuseIntoOneDense)
{
    Circuit c(2);
    c.h(0).rz(0, 0.3).ry(0, -0.7).sx(0).t(0);
    const CompiledCircuit cc(c);

    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Dense1);
    EXPECT_EQ(cc.ops()[0].q0, 0);

    // The fused 2x2 must equal the ordered product of the gate matrices.
    Statevector fused(2);
    Gate prep; // decorrelate from |00> so both columns are exercised
    prep.type = GateType::H;
    prep.qubits = {1, 0};
    fused.applyGate(prep);
    Statevector unfused = fused;
    fused.run(cc);
    for (const Gate &g : c.gates())
        unfused.applyGate(g);
    for (std::size_t i = 0; i < fused.dim(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    unfused.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    unfused.amplitudes()[i].imag(), 1e-12);
    }
}

TEST(CompiledCircuit, CommutingDiagonalRunMergesIntoOneTable)
{
    // rz/z/t/cz on three qubits all commute: one Diag op, mask 0b111.
    Circuit c(3);
    c.rz(0, 0.4).z(1).cz(0, 1).t(2).s(0).cz(1, 2);
    const CompiledCircuit cc(c);

    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Diag);
    EXPECT_EQ(cc.ops()[0].mask, 0b111u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::Diag), 1u);
}

TEST(CompiledCircuit, DiagonalRunBrokenByNonCommutingGate)
{
    // The h(1) touches qubit 1 after the run opened, so the later z(1)
    // must not hoist across it.
    Circuit c(2);
    c.rz(0, 0.2).h(1).z(1);
    const CompiledCircuit cc(c);

    // z(1) fuses into the dense h(1) node instead; rz(0) stays a Diag.
    ASSERT_EQ(cc.ops().size(), 2u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Diag);
    EXPECT_EQ(cc.ops()[0].mask, 0b01u);
    EXPECT_EQ(cc.ops()[1].kind, CompiledOpKind::Dense1);
}

TEST(CompiledCircuit, MaxDiagQubitsCapSplitsRuns)
{
    // Twelve commuting RZs: the run closes at the 10-qubit cap and the
    // last two open a second table.
    Circuit c(12);
    for (int q = 0; q < 12; ++q)
        c.rz(q, 0.1 * (q + 1));
    const CompiledCircuit cc(c);

    ASSERT_EQ(cc.ops().size(), 2u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::Diag), 2u);
    EXPECT_EQ(cc.ops()[0].mask, 0x3ffu);
    EXPECT_EQ(cc.ops()[1].mask, 0xc00u);
}

TEST(CompiledCircuit, PermutationGatesGetPermutationKernels)
{
    Circuit c(3);
    c.x(0).cx(0, 1).swap(1, 2).cz(0, 2);
    const CompiledCircuit cc(c);

    EXPECT_EQ(countKind(cc, CompiledOpKind::PermX), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermCX), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermSwap), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::Diag), 1u);
}

TEST(CompiledCircuit, SelfInversePairsCancel)
{
    Circuit c(2);
    c.x(0).x(0).cx(0, 1).cx(0, 1).swap(0, 1).swap(0, 1);
    const CompiledCircuit cc(c);

    EXPECT_EQ(cc.ops().size(), 0u);
}

TEST(CompiledCircuit, ReversedControlDoesNotCancel)
{
    Circuit c(2);
    c.cx(0, 1).cx(1, 0);
    const CompiledCircuit cc(c);
    EXPECT_EQ(cc.ops().size(), 2u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermCX), 2u);
}

TEST(CompiledCircuit, AbsorbIntoTwoQubitAtWidth14)
{
    // At 14 qubits 1q gates absorb into the CX: both pending 1q nodes,
    // the CX and the trailing rz collapse into one dense 4x4.
    const int n = 14;
    Circuit c(n);
    c.h(0).ry(1, 0.4).cx(0, 1).rz(1, -0.2);
    const CompiledCircuit cc(c);

    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Dense2);

    // And the result matches the unfused application.
    Statevector fused(n);
    fused.run(cc);
    Statevector unfused(n);
    for (const Gate &g : c.gates())
        unfused.applyGate(g);
    for (std::size_t i = 0; i < fused.dim(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    unfused.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    unfused.amplitudes()[i].imag(), 1e-12);
    }
}

TEST(CompiledCircuit, NarrowRegistersKeepPermKernelsByDefault)
{
    // Below 14 qubits CX stays a permutation op, up to the widest
    // register that keeps it.
    for (const int n : {2, 13}) {
        Circuit c(n);
        c.h(0).cx(0, 1);
        const CompiledCircuit cc(c);
        EXPECT_EQ(countKind(cc, CompiledOpKind::PermCX), 1u) << "n=" << n;
        EXPECT_EQ(countKind(cc, CompiledOpKind::Dense2), 0u) << "n=" << n;
    }
}

TEST(CompiledCircuit, ParameterSlotsRebindAcrossRuns)
{
    Circuit c(2, 2);
    c.h(0).rzParam(0, 0, 2.0, 0.1).ryParam(1, 1).cx(0, 1);
    const CompiledCircuit cc(c);
    EXPECT_TRUE(cc.parameterized());
    EXPECT_GT(cc.bindPoolSize(), 0u);

    // One compiled instance, two parameter vectors; each run must match
    // a fresh unfused execution at those parameters.
    for (const std::vector<double> &theta :
         {std::vector<double>{0.3, -1.2}, std::vector<double>{-2.0, 0.7}}) {
        Statevector fused(2);
        fused.run(cc, theta);
        Statevector unfused(2);
        for (const Gate &g : c.gates())
            unfused.applyGate(g, theta);
        for (std::size_t i = 0; i < fused.dim(); ++i) {
            EXPECT_NEAR(fused.amplitudes()[i].real(),
                        unfused.amplitudes()[i].real(), 1e-12);
            EXPECT_NEAR(fused.amplitudes()[i].imag(),
                        unfused.amplitudes()[i].imag(), 1e-12);
        }
    }
}

TEST(CompiledCircuit, ConstantOpsLiveInConstPool)
{
    Circuit c(2, 1);
    c.h(0).rzParam(1, 0);
    const CompiledCircuit cc(c);
    ASSERT_EQ(cc.ops().size(), 2u);
    EXPECT_FALSE(cc.ops()[0].parameterized);
    EXPECT_TRUE(cc.ops()[1].parameterized);
    EXPECT_GE(cc.constPool().size(), 4u);
}

TEST(CompiledCircuit, BindValidatesParameterCount)
{
    Circuit c(1, 2);
    c.rzParam(0, 0).rxParam(0, 1);
    const CompiledCircuit cc(c);
    std::vector<Complex> pool;
    EXPECT_THROW(cc.bind({0.1}, pool), std::invalid_argument);
    EXPECT_NO_THROW(cc.bind({0.1, 0.2}, pool));
    EXPECT_EQ(pool.size(), cc.bindPoolSize());
}

/**
 * A parameterized circuit whose fused products round differently from
 * the gate-by-gate sweep: stacked 1q rotations on every qubit, then a
 * CX/CZ/SWAP entangling layer and one more rotation layer.
 */
Circuit
roundingProbeCircuit(int n)
{
    Circuit c(n, n);
    for (int q = 0; q < n; ++q)
        c.h(q).rz(q, 0.3 + 0.1 * q).ryParam(q, q).sx(q).t(q).rx(q, -0.7);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1).cz(q, q + 1);
    if (n > 1)
        c.swap(0, n - 1);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.2 * q - 0.5).rz(q, 1.1);
    return c;
}

std::vector<double>
roundingProbeParams(int n)
{
    std::vector<double> theta;
    for (int q = 0; q < n; ++q)
        theta.push_back(0.37 * q - 0.9);
    return theta;
}

/**
 * Start state for the rounding probe. From |0...0> a fused 2x2 on one
 * qubit reproduces the gate-by-gate bits exactly (its first column is
 * built by the same products), which would blind the 1-qubit case.
 */
Statevector
roundingProbeStart(int n)
{
    std::vector<Complex> amps;
    for (std::size_t i = 0; i < (std::size_t{1} << n); ++i)
        amps.emplace_back(std::cos(0.3 * static_cast<double>(i) + 0.1),
                          std::sin(0.7 * static_cast<double>(i) - 0.2));
    Statevector st(std::move(amps));
    st.normalize();
    return st;
}

bool
bitEqual(const Complex &a, const Complex &b)
{
    return std::bit_cast<std::uint64_t>(a.real()) ==
               std::bit_cast<std::uint64_t>(b.real()) &&
           std::bit_cast<std::uint64_t>(a.imag()) ==
               std::bit_cast<std::uint64_t>(b.imag());
}

bool
bitEqual(const Statevector &a, const Statevector &b)
{
    if (a.dim() != b.dim())
        return false;
    for (std::size_t i = 0; i < a.dim(); ++i)
        if (!bitEqual(a.amplitudes()[i], b.amplitudes()[i]))
            return false;
    return true;
}

bool
bitEqual(const DensityMatrix &a, const DensityMatrix &b)
{
    if (a.dim() != b.dim())
        return false;
    for (std::size_t r = 0; r < a.dim(); ++r)
        for (std::size_t c = 0; c < a.dim(); ++c)
            if (!bitEqual(a.element(r, c), b.element(r, c)))
                return false;
    return true;
}

TEST(CompiledCircuit, RunCircuitMatchesCompiledRun)
{
    // run(Circuit) is the compiled path at every width. The gate-by-gate
    // sweep rounds differently on this circuit, so bit equality with the
    // compiled run would catch a size rule that routed any width back to
    // applyGate.
    for (int n = 1; n <= 7; ++n) {
        const Circuit c = roundingProbeCircuit(n);
        const std::vector<double> theta = roundingProbeParams(n);
        const Statevector start = roundingProbeStart(n);
        Statevector gate_by_gate = start;
        for (const Gate &g : c.gates())
            gate_by_gate.applyGate(g, theta);
        Statevector compiled = start;
        compiled.run(CompiledCircuit(c), theta);
        ASSERT_FALSE(bitEqual(gate_by_gate, compiled))
            << "n=" << n << ": paths agree bitwise, the test is blind";

        Statevector ran = start;
        ran.run(c, theta);
        EXPECT_TRUE(bitEqual(ran, compiled)) << "n=" << n;
    }
}

TEST(CompiledCircuit, DensityMatrixRunCircuitMatchesCompiledRun)
{
    for (int n = 1; n <= 7; ++n) {
        const Circuit c = roundingProbeCircuit(n);
        const std::vector<double> theta = roundingProbeParams(n);
        const DensityMatrix start(roundingProbeStart(n));
        DensityMatrix gate_by_gate = start;
        for (const Gate &g : c.gates())
            gate_by_gate.applyGate(g, theta);
        DensityMatrix compiled = start;
        compiled.run(CompiledCircuit(c), theta);
        ASSERT_FALSE(bitEqual(gate_by_gate, compiled))
            << "n=" << n << ": paths agree bitwise, the test is blind";

        DensityMatrix ran = start;
        ran.run(c, theta);
        EXPECT_TRUE(bitEqual(ran, compiled)) << "n=" << n;
    }
}

TEST(CompiledCircuit, OpCountShrinksOnAnsatzShapedCircuits)
{
    // RealAmplitudes-shaped layer structure: ry+rz pairs fuse per qubit.
    const int n = 4;
    Circuit c(n, 2 * n * 3);
    int p = 0;
    for (int layer = 0; layer < 3; ++layer) {
        for (int q = 0; q < n; ++q) {
            c.ryParam(q, p++);
            c.rzParam(q, p++);
        }
        for (int q = 0; q + 1 < n; ++q)
            c.cx(q, q + 1);
    }
    const CompiledCircuit cc(c);
    EXPECT_LT(cc.ops().size(), c.gates().size());
    // Each ry+rz pair becomes a single dense op.
    EXPECT_EQ(countKind(cc, CompiledOpKind::Dense1) +
                  countKind(cc, CompiledOpKind::Diag),
              static_cast<std::size_t>(n * 3));
}

} // namespace
} // namespace qismet
