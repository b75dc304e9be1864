/**
 * @file
 * Per-call costs of the layers the job executor calls internally.
 *
 * The executor cannot be wrapped from outside, so each traced run
 * records a few of its own parameter points and transient intensities
 * and, right after the run, replays them one timed public call at a
 * time through the calls an energy estimate is made of:
 *   vqe.estimate     EnergyEstimator::estimate
 *   sim.prepare      Statevector::run on the compiled ansatz (bind + run)
 *   pauli.expect     ExpectationPlan::termExpectations (Analytic path)
 *   sim.sample       ShotSampler::sample, once per measurement group
 *   mitigation.mitigate  MeasurementMitigator::mitigateCounts + clip
 * The last two run only for Sampling-mode configurations, the only
 * mode whose estimates call them.
 */
#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "apps/applications.hpp"
#include "core/qismet_vqe.hpp"

namespace perfbench {

/** Per-call wall times in microseconds, one entry per replayed call. */
struct ReplayCosts
{
    std::vector<double> estimateUs;
    std::vector<double> prepareUs;
    std::vector<double> expectUs;
    std::vector<double> sampleUs;
    std::vector<double> mitigateUs;
    /** Every replayed estimate was finite. */
    bool finite = true;
};

/** Planned-point stride of tracedRun that keeps ~4 points per run. */
std::size_t replayStride(const qismet::QismetVqeConfig &config);

/** Every k-th job's transient intensity, ~8 values. */
std::vector<double> tauSample(const qismet::VqeRunResult &run);

/** Replay `thetas` paired round-robin with `taus` for one run config. */
void replayCalls(const qismet::Application &app,
                 const qismet::QismetVqeConfig &config,
                 const std::vector<std::vector<double>> &thetas,
                 const std::vector<double> &taus, ReplayCosts &out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
