/**
 * @file
 * The per-layer ledger of a traced run: the figures every traced
 * workload reports, and how spans, replayed per-call costs and
 * counters turn into them. A layer a workload never enters reports 0.
 */
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <map>
#include <string>

#include "bench.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "traced_run.hpp"

namespace perfbench {

/** The modules a share is reported for. */
inline const char *const kLayers[] = {"optim", "core",  "vqe",
                                      "sim",   "pauli", "mitigation",
                                      "noise", "persist", "serve"};

struct LayerFigures
{
    double proposeS = 0, proposeUsP50 = 0, proposeCalls = 0;
    double judgeS = 0, judgeCalls = 0, retryRatio = 0, calibrateS = 0;
    double driverS = 0, execSelfS = 0, jobs = 0, circuits = 0;
    double estimateUsP50 = 0, prepareUsP50 = 0, expectUsP50 = 0;
    double sampleUsP50 = 0, mitigateUsP50 = 0, traceUsP50 = 0;
    double replayCoverage = 0;
    double persistBytes = 0, persistFiles = 0, persistOverheadS = 0;
    double queueWaitMsP50 = 0, queueWaitMsP90 = 0;
    double serviceMsP50 = 0, serviceMsP90 = 0;
    double workerBusyFrac = 0, legsDispatched = 0, planCacheHitRatio = 0;
    /** Self seconds per module (kLayers); shares divide by `wallSeconds`. */
    std::map<std::string, double> selfSeconds;
    double wallSeconds = 0;
    double traceOverheadFrac = 0;
};

/** Totals of the traced pipeline runs. */
struct TracedTotals
{
    TracedRunStats stats;
    double jobs = 0;
    void add(const TracedRunStats &s, std::size_t run_jobs);
};

/**
 * Fill the optim/core/vqe/sim/pauli/mitigation/noise figures and self
 * times from the traced pipeline's spans, counters and replayed
 * per-call costs. The sim, pauli and mitigation self times are the
 * replayed median per-call cost times the call count; vqe's self time
 * is what remains of its spans after them.
 */
void fillPipelineFigures(const Tracer &tracer, const TracedTotals &totals,
                         const ReplayCosts &replay, LayerFigures &fig);

/** Append every per-layer metric, in a fixed order. */
void addLayerMetrics(Outcome &out, const LayerFigures &fig);

/** Human-readable per-layer table (self times and shares). */
void reportLayers(Outcome &out, const Tracer &tracer,
                  const LayerFigures &fig);

/** Write the spans (CSV) and the per-layer table beside them. */
void writeTraceFiles(const Options &opts, const Tracer &tracer,
                     const Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
