/** @file Tests for the circuit IR: building, binding, composing, inverse. */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace qismet {
namespace {

TEST(Circuit, ConstructionValidation)
{
    EXPECT_THROW(Circuit(0), std::invalid_argument);
    EXPECT_THROW(Circuit(-1), std::invalid_argument);
    EXPECT_THROW(Circuit(2, -1), std::invalid_argument);
    Circuit c(3, 2);
    EXPECT_EQ(c.numQubits(), 3);
    EXPECT_EQ(c.numParams(), 2);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, FluentBuilding)
{
    Circuit c(2);
    c.h(0).cx(0, 1).rz(1, 0.5);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gates()[0].type, GateType::H);
    EXPECT_EQ(c.gates()[1].type, GateType::CX);
    EXPECT_DOUBLE_EQ(c.gates()[2].angle, 0.5);
}

TEST(Circuit, QubitRangeChecked)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), std::out_of_range);
    EXPECT_THROW(c.h(-1), std::out_of_range);
    EXPECT_THROW(c.cx(0, 2), std::out_of_range);
}

TEST(Circuit, TwoQubitGatesRejectEqualQubits)
{
    Circuit c(2);
    EXPECT_THROW(c.cx(1, 1), std::invalid_argument);
    EXPECT_THROW(c.cz(0, 0), std::invalid_argument);
    EXPECT_THROW(c.swap(1, 1), std::invalid_argument);
}

TEST(Circuit, ParameterIndexChecked)
{
    Circuit c(2, 2);
    c.ryParam(0, 0).ryParam(1, 1);
    EXPECT_THROW(c.ryParam(0, 2), std::out_of_range);
}

TEST(Circuit, OnlyRotationsParameterizable)
{
    Circuit c(2, 1);
    Gate g;
    g.type = GateType::H;
    g.qubits = {0, 0};
    g.paramIndex = 0;
    EXPECT_THROW(c.append(g), std::invalid_argument);
}

TEST(Circuit, BindResolvesAngles)
{
    Circuit c(1, 2);
    c.rxParam(0, 0, 2.0, 0.1).rzParam(0, 1);
    const Circuit bound = c.bind({0.5, -1.0});
    EXPECT_EQ(bound.numParams(), 0);
    EXPECT_DOUBLE_EQ(bound.gates()[0].angle, 1.1);
    EXPECT_DOUBLE_EQ(bound.gates()[1].angle, -1.0);
    EXPECT_FALSE(bound.gates()[0].isParameterized());
}

TEST(Circuit, BindChecksCount)
{
    Circuit c(1, 2);
    EXPECT_THROW(c.bind({1.0}), std::invalid_argument);
    EXPECT_THROW(c.bind({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Circuit, ComposeShiftsParameters)
{
    Circuit a(2, 1);
    a.ryParam(0, 0);
    Circuit b(2, 1);
    b.ryParam(1, 0);

    Circuit all(2, 2);
    all.compose(a, 0).compose(b, 1);
    EXPECT_EQ(all.size(), 2u);
    EXPECT_EQ(all.gates()[0].paramIndex, 0);
    EXPECT_EQ(all.gates()[1].paramIndex, 1);
}

TEST(Circuit, ComposeRejectsWidthMismatch)
{
    Circuit a(2), b(3);
    EXPECT_THROW(a.compose(b), std::invalid_argument);
}

TEST(Circuit, InverseRequiresBound)
{
    Circuit c(1, 1);
    c.ryParam(0, 0);
    EXPECT_THROW(c.inverse(), std::logic_error);
}

TEST(Circuit, InverseUndoesRandomCircuit)
{
    Rng rng(101);
    Circuit c(3);
    // Random circuit touching all gate kinds with inverses.
    c.h(0).s(1).t(2).sx(0).cx(0, 1).cz(1, 2).swap(0, 2);
    c.rx(0, 0.3).ry(1, -1.2).rz(2, 2.2).x(0).y(1).z(2).sdg(0).tdg(1);

    Statevector st(3);
    // Start from a random product state so identity is non-trivial.
    for (int q = 0; q < 3; ++q) {
        st.applyGate(Gate{GateType::RY, {q, 0}, rng.uniform(-3.0, 3.0)});
    }
    Statevector reference = st;

    st.run(c);
    st.run(c.inverse());
    EXPECT_NEAR(st.fidelity(reference), 1.0, 1e-10);
}

TEST(Circuit, ToStringContainsGates)
{
    Circuit c(2, 1);
    c.h(0).cx(0, 1).ryParam(1, 0);
    const std::string s = c.toString();
    EXPECT_NE(s.find("h q0"), std::string::npos);
    EXPECT_NE(s.find("cx q0, q1"), std::string::npos);
    EXPECT_NE(s.find("theta[0]"), std::string::npos);
}

TEST(Circuit, BindPreservesSemantics)
{
    // Running a parameterized circuit with params == running the bound
    // circuit without params.
    Rng rng(7);
    Circuit c(2, 3);
    c.ryParam(0, 0).rzParam(1, 1).cx(0, 1).rxParam(0, 2, -1.0, 0.25);
    const std::vector<double> theta = {0.4, -0.9, 1.7};

    Statevector a(2), b(2);
    a.run(c, theta);
    b.run(c.bind(theta));
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

} // namespace
} // namespace qismet
