/**
 * @file
 * The traced twin of QismetVqe::run.
 *
 * The library's runner builds its optimizer and acceptance policy
 * internally, so the traced run rebuilds the same pipeline from public
 * parts (estimator, transient trace, job executor, optimizer, policy,
 * VqeDriver) and hands the driver decorators that open a span around
 * every optimizer and policy call. The rebuild must reproduce
 * QismetVqe::run bit for bit; the benchmark checks that on every
 * traced run, so a drift in the library's wiring fails the traced run
 * instead of silently measuring something else.
 *
 * Supported configurations are the benchmark's own: Baseline, QISMET
 * and 2nd-order schemes, Analytic or Sampling estimation, no faults,
 * no checkpointing and no deadline.
 */
#ifndef PERFBENCH_TRACED_RUN_HPP
#define PERFBENCH_TRACED_RUN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "core/qismet_vqe.hpp"
#include "trace.hpp"

namespace perfbench {

/** Span-name ids of the traced layers, interned once per tracer. */
struct TraceNames
{
    explicit TraceNames(Tracer &t);
    std::uint32_t run, setup, trace, calibrate, driver, plan, propose,
        judge;
};

/** What a traced run observed besides its spans. */
struct TracedRunStats
{
    std::uint64_t judgements = 0;
    std::uint64_t retries = 0;
    /** EnergyEstimator::estimate calls the executor made. */
    std::uint64_t estimates = 0;
    std::uint64_t circuits = 0;
    /** Every energy the optimizer consumed was finite. */
    bool finiteEnergies = true;
    /** estimates × measurement groups, in Sampling mode only. */
    std::uint64_t sampledGroups = 0;
    /** Sample of the points the optimizer planned (replay inputs). */
    std::vector<std::vector<double>> thetaSample;
};

/**
 * Run `config` on `app` through the traced pipeline.
 * @param theta_stride keep every theta_stride-th planned point.
 */
qismet::QismetVqeResult tracedRun(const qismet::Application &app,
                                  const qismet::QismetVqeConfig &config,
                                  Tracer &tracer, const TraceNames &names,
                                  std::uint64_t run_id,
                                  std::size_t theta_stride,
                                  TracedRunStats &stats);

/** What the benchmark keeps of a finished run. */
struct RunSummary
{
    std::string digest;
    std::vector<double> finalTheta;
    double finalIdealEnergy = 0.0;
    double finalEstimate = 0.0;
    double mixedEnergy = 0.0;
    double exactGroundEnergy = 0.0;
    std::size_t jobs = 0;
};

RunSummary summarize(const qismet::QismetVqeResult &result);

/** Bit-identity of two runs: trajectory digest, final θ, ideal energy. */
bool sameRun(const RunSummary &a, const RunSummary &b);

/**
 * Output checks of one run; empty when it passes. Every measured and
 * reported energy must be finite, and the final parameters' exact
 * energy must respect the variational bound E >= E_ground - 1e-9.
 */
std::string runProblems(const qismet::QismetVqeResult &result);

/** VQA fidelity of the run's final estimate (apps/experiment_runner). */
double fidelityOf(const RunSummary &run);

} // namespace perfbench

#endif // PERFBENCH_TRACED_RUN_HPP
