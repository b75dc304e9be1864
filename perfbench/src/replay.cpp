#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mitigation/measurement_mitigation.hpp"
#include "pauli/grouping.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/shot_sampler.hpp"
#include "sim/statevector.hpp"
#include "trace.hpp"
#include "vqe/energy_estimator.hpp"

namespace perfbench {

using namespace qismet;

namespace {

double
microsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-3;
}

} // namespace

std::size_t
replayStride(const QismetVqeConfig &config)
{
    // An iteration plans once and spends at least two jobs.
    return std::max<std::size_t>(1, config.totalJobs / 8);
}

std::vector<double>
tauSample(const VqeRunResult &run)
{
    std::vector<double> taus;
    const std::size_t step = std::max<std::size_t>(1, run.history.size() / 8);
    for (std::size_t j = 0; j < run.history.size(); j += step)
        taus.push_back(run.history[j].transientIntensity);
    return taus;
}

void
replayCalls(const Application &app, const QismetVqeConfig &config,
            const std::vector<std::vector<double>> &thetas,
            const std::vector<double> &taus, ReplayCosts &out)
{
    if (taus.empty())
        throw std::invalid_argument("replayCalls: no transient sample");
    const StaticNoiseModel noise = app.machine.staticModel();
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    noise, config.estimator);
    const int n = app.ansatzCircuit.numQubits();
    const CompiledCircuit ansatz(app.ansatzCircuit);
    const auto plan = estimator.plan();
    std::vector<double> term_values(plan->numTerms());

    const bool sampling =
        config.estimator.mode == EstimatorMode::Sampling;
    std::vector<CompiledCircuit> basis_changes;
    const ShotSampler sampler(noise.readoutErrors(n));
    const MeasurementMitigator mitigator(n, noise.readoutErrors(n));
    if (sampling)
        for (const auto &g : plan->measurementGroups())
            basis_changes.emplace_back(basisChangeCircuit(g, n));
    const double f = estimator.staticSurvival();
    const double uniform = 1.0 / static_cast<double>(std::size_t{1} << n);

    Rng rng(config.seed);
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        const std::vector<double> &theta = thetas[i];

        std::int64_t t0 = nowNs();
        const double e =
            estimator.estimate(theta, taus[i % taus.size()], rng);
        out.estimateUs.push_back(microsSince(t0));
        out.finite = out.finite && std::isfinite(e);

        Statevector state(n);
        t0 = nowNs();
        state.run(ansatz, theta);
        out.prepareUs.push_back(microsSince(t0));

        t0 = nowNs();
        plan->termExpectations(state, term_values.data());
        out.expectUs.push_back(microsSince(t0));

        for (const CompiledCircuit &bc : basis_changes) {
            Statevector rotated = state;
            rotated.run(bc);
            std::vector<double> probs = rotated.probabilities();
            for (double &p : probs)
                p = f * p + (1.0 - f) * uniform;

            t0 = nowNs();
            const Counts counts =
                sampler.sample(probs, n, config.estimator.shots, rng);
            out.sampleUs.push_back(microsSince(t0));

            t0 = nowNs();
            const std::vector<double> mitigated =
                MeasurementMitigator::clipToPhysical(
                    mitigator.mitigateCounts(counts));
            out.mitigateUs.push_back(microsSince(t0));
            out.finite = out.finite && !mitigated.empty() &&
                         std::isfinite(mitigated.front());
        }
    }
}

} // namespace perfbench
