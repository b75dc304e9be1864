#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sim/kernels.hpp"

namespace qismet {

Statevector::Statevector(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits <= 0 || num_qubits > 28)
        throw std::invalid_argument("Statevector: unsupported qubit count");
    amps_.assign(std::size_t{1} << num_qubits, Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

Statevector::Statevector(std::vector<Complex> amplitudes)
    : amps_(std::move(amplitudes))
{
    if (amps_.empty() || (amps_.size() & (amps_.size() - 1)) != 0)
        throw std::invalid_argument(
            "Statevector: amplitude count must be a power of two");
    numQubits_ = static_cast<int>(std::bit_width(amps_.size())) - 1;
}

void
Statevector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
    invalidateCache();
}

void
Statevector::checkQubit(int q) const
{
    if (q < 0 || q >= numQubits_)
        throw std::out_of_range("Statevector: qubit out of range");
}

void
Statevector::applyGate(const Gate &gate, const std::vector<double> &params)
{
    // The unfused reference the compiled path is tested against: one
    // dense kernel call per gate, the same lowering as
    // DensityMatrix::applyGate.
    const bool two_qubit = gateArity(gate.type) == 2;
    checkQubit(gate.qubits[0]);
    if (two_qubit) {
        checkQubit(gate.qubits[1]);
        if (gate.qubits[0] == gate.qubits[1])
            throw std::invalid_argument("Statevector::applyGate: equal qubits");
    }
    invalidateCache();
    Complex m[16];
    gate.matrixInto(m, params);
    if (two_qubit)
        kern::applyDense2(amps_, gate.qubits[0], gate.qubits[1], m);
    else
        kern::applyDense1(amps_, gate.qubits[0], m);
}

void
Statevector::run(const Circuit &circuit, const std::vector<double> &params)
{
    run(CompiledCircuit(circuit), params);
}

void
Statevector::run(const CompiledCircuit &circuit,
                 const std::vector<double> &params)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("Statevector::run: width mismatch");
    invalidateCache();
    if (circuit.parameterized())
        circuit.bind(params, bindPool_);
    for (const CompiledOp &op : circuit.ops()) {
        const Complex *m = circuit.matrixFor(op, bindPool_);
        switch (op.kind) {
          case CompiledOpKind::Dense1:
            kern::applyDense1(amps_, op.q0, m);
            break;
          case CompiledOpKind::Dense2:
            kern::applyDense2(amps_, op.q0, op.q1, m);
            break;
          case CompiledOpKind::Diag:
            kern::applyDiag(amps_, op.mask, m);
            break;
          case CompiledOpKind::PermX:
            kern::applyPermX(amps_, op.q0);
            break;
          case CompiledOpKind::PermCX:
            kern::applyPermCX(amps_, op.q0, op.q1);
            break;
          case CompiledOpKind::PermSwap:
            kern::applyPermSwap(amps_, op.q0, op.q1);
            break;
        }
    }
}

double
Statevector::probability(std::uint64_t basis_state) const
{
    if (basis_state >= amps_.size())
        throw std::out_of_range("Statevector::probability: state index");
    return std::norm(amps_[basis_state]);
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]);
    return p;
}

Complex
Statevector::innerProduct(const Statevector &other) const
{
    if (other.numQubits_ != numQubits_)
        throw std::invalid_argument("Statevector::innerProduct: width");
    return kern::innerProduct(amps_, other.amps_);
}

double
Statevector::fidelity(const Statevector &other) const
{
    return std::norm(innerProduct(other));
}

double
Statevector::norm() const
{
    return std::sqrt(kern::norm2(amps_));
}

void
Statevector::normalize()
{
    const double n = norm();
    if (n <= 0.0)
        throw std::runtime_error("Statevector::normalize: zero state");
    invalidateCache();
    for (auto &a : amps_)
        a /= n;
}

const std::vector<double> &
Statevector::cumulativeProbabilities() const
{
    if (!cdfValid_) {
        cdf_.resize(amps_.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            acc += std::norm(amps_[i]);
            cdf_[i] = acc;
        }
        cdfValid_ = true;
    }
    return cdf_;
}

std::vector<std::uint64_t>
Statevector::sample(Rng &rng, std::size_t shots) const
{
    // Inverse-CDF sampling over the cumulative distribution; for the
    // small dims here a binary search per shot is fast enough. The CDF
    // itself is cached across calls until the state mutates.
    const std::vector<double> &cdf = cumulativeProbabilities();
    const double acc = cdf.back();
    std::vector<std::uint64_t> out;
    out.reserve(shots);
    for (std::size_t s = 0; s < shots; ++s) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        out.push_back(static_cast<std::uint64_t>(it - cdf.begin()));
    }
    return out;
}

double
Statevector::expectationZMask(std::uint64_t mask) const
{
    return kern::expectationZMask(amps_, mask);
}

} // namespace qismet
