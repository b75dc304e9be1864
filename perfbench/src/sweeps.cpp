/**
 * @file
 * The three sweep workloads (fig17-first-order, fig17-second-order,
 * sampling-mitigated): Table-1 apps run back to back through
 * QismetVqe::run on one thread, sweep after sweep, until the
 * measurement time is spent.
 */
#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "apps/applications.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_run.hpp"

namespace perfbench {

namespace {

using qismet::Scheme;

/**
 * A measurement's totals. It keeps no per-run records beyond two
 * latencies, so its memory does not grow with the runs a faster
 * machine completes, and peak_rss_mb stays the library's.
 */
struct SweepPhase
{
    /** Runs measured: a prefix of the workload's run sequence. */
    std::size_t runs = 0;
    std::vector<double> latencyMs;
    /** latencyMs again, split by (app, scheme). */
    std::map<std::pair<int, Scheme>, std::vector<double>> latencyByRun;
    std::size_t sweeps = 0;
    double wallSeconds = 0.0;
    double jobs = 0.0;
    std::uint64_t failed = 0;
    /** Summed fidelity of the runs that passed their checks. */
    double schemeFidelity = 0.0;
    double baselineFidelity = 0.0;
    /** VmHWM when the measurement ended, before any untimed work. */
    double peakRssMb = 0.0;
};

struct Setup
{
    std::vector<qismet::Application> apps;
    std::vector<qismet::QismetVqe> runners;
};

/**
 * Build the apps and their runners, then warm each runner with a short
 * QISMET run so lazy one-time work (kernel dispatch, first allocations)
 * lands here rather than in the first measured run.
 */
Setup
buildSetup(const Options &o)
{
    Setup s;
    s.apps = qismet::allApplications();
    for (const auto &app : s.apps)
        s.runners.push_back(app.makeRunner());
    for (const RunSpec &spec : sweepRuns(o.workload, o.seed, 0)) {
        qismet::QismetVqeConfig warm = spec.config;
        warm.scheme = Scheme::Qismet;
        warm.totalJobs = 4;
        s.runners[static_cast<std::size_t>(spec.app - 1)].run(warm);
    }
    return s;
}

/**
 * Run sweeps until `seconds` of measured time have passed, stopping
 * between apps, so that every app measured has all its schemes. A
 * block of set-up repetitions (see kSetupBlocks) opens each
 * kSetupBlocks-th part of the time; the runs use the last set-up
 * built. Set-up blocks are not measured time.
 */
SweepPhase
measureSweeps(const Options &o, Setup &setup, std::vector<double> &setup_s,
              Outcome &out)
{
    SweepPhase ph;
    const std::int64_t start = nowNs();
    double in_setup = 0.0;
    double next_block = 0.0;
    const auto measured = [&] { return secondsSince(start) - in_setup; };
    bool done = false;
    for (std::size_t sweep = 0; !done; ++sweep) {
        const std::vector<RunSpec> runs = sweepRuns(o.workload, o.seed, sweep);
        for (std::size_t i = 0; i < runs.size() && !done; ++i) {
            const RunSpec &spec = runs[i];
            if (measured() >= next_block) {
                const std::int64_t b0 = nowNs();
                timeSetupBlock([&] { setup = buildSetup(o); }, setup_s,
                               [&] { setup = Setup{}; });
                in_setup += secondsSince(b0);
                next_block += o.seconds / kSetupBlocks;
            }
            ++ph.runs;
            RunSummary sum;
            std::string problem;
            try {
                const std::int64_t t0 = nowNs();
                const qismet::QismetVqeResult res =
                    setup.runners[static_cast<std::size_t>(spec.app - 1)].run(
                        spec.config);
                ph.latencyMs.push_back(secondsSince(t0) * 1e3);
                ph.latencyByRun[{spec.app, spec.config.scheme}].push_back(
                    ph.latencyMs.back());
                problem = runProblems(res);
                sum = summarize(res);
            }
            catch (const std::exception &e) {
                problem = e.what();
            }
            if (!problem.empty()) {
                ++ph.failed;
                out.fail(format("App%d %s sweep %zu: %s", spec.app,
                                qismet::schemeName(spec.config.scheme).c_str(),
                                sweep, problem.c_str()));
            }
            else {
                (spec.config.scheme == Scheme::Baseline ? ph.baselineFidelity
                                                         : ph.schemeFidelity) +=
                    fidelityOf(sum);
            }
            ph.jobs += static_cast<double>(sum.jobs);
            done = measured() >= o.seconds &&
                   (i + 1 == runs.size() || runs[i + 1].app != spec.app);
        }
        ph.sweeps = sweep + 1;
    }
    ph.wallSeconds = measured();
    ph.peakRssMb = peakRssMb();
    return ph;
}

/** Whole sweeps the fidelity factor pools, at least. */
constexpr std::size_t kFidelitySweeps = 12;
/** Threads of the untimed fidelity runs. */
constexpr std::size_t kFidelityThreads = 4;

struct Fidelity
{
    double factor = 0.0;
    std::size_t sweeps = 0;
    std::size_t untimedRuns = 0;
};

/**
 * Pooled fidelity factor: the summed fidelity of the workload's scheme
 * runs over the summed fidelity of their Baseline twins, over whole
 * sweeps, at least kFidelitySweeps of them. Its spread over workload
 * seeds shrinks only with the runs pooled, and a 20 s measurement holds
 * three or four second-order sweeps. The runs the measurement did not
 * reach, and the Baseline twins that second-order sweeps lack, run here
 * untimed on kFidelityThreads threads, under the same output checks.
 */
Fidelity
fidelityFactor(const Options &o, const Setup &setup, const SweepPhase &ph,
               Outcome &out)
{
    struct Untimed
    {
        RunSpec spec;
        double fidelity = 0.0;
        std::string problem;
    };
    Fidelity f;
    f.sweeps = std::max(ph.sweeps, kFidelitySweeps);
    std::vector<Untimed> untimed;
    std::size_t position = 0;
    for (std::size_t sweep = 0; sweep < f.sweeps; ++sweep)
        for (const RunSpec &spec : sweepRuns(o.workload, o.seed, sweep)) {
            if (position++ >= ph.runs)
                untimed.push_back({spec, 0.0, {}});
            if (o.workload == Workload::SecondOrder) {
                RunSpec twin = spec;
                twin.config = baselineOf(spec.config);
                untimed.push_back({twin, 0.0, {}});
            }
        }
    parallelFor(untimed.size(), kFidelityThreads, [&](std::size_t i) {
        Untimed &u = untimed[i];
        try {
            const qismet::QismetVqeResult res =
                setup.apps[static_cast<std::size_t>(u.spec.app - 1)]
                    .makeRunner()
                    .run(u.spec.config);
            u.problem = runProblems(res);
            u.fidelity = fidelityOf(summarize(res));
        }
        catch (const std::exception &e) {
            u.problem = e.what();
        }
    });
    f.untimedRuns = untimed.size();

    double scheme_sum = ph.schemeFidelity;
    double baseline_sum = ph.baselineFidelity;
    for (const Untimed &u : untimed) {
        if (u.problem.empty()) {
            (u.spec.config.scheme == Scheme::Baseline ? baseline_sum
                                                      : scheme_sum) +=
                u.fidelity;
            continue;
        }
        out.fail(format("untimed App%d %s sweep %zu: %s", u.spec.app,
                        qismet::schemeName(u.spec.config.scheme).c_str(),
                        u.spec.sweep, u.problem.c_str()));
    }
    if (baseline_sum <= 0.0)
        throw std::runtime_error("no Baseline fidelity to compare against");
    f.factor = scheme_sum / baseline_sum;
    return f;
}

/**
 * run_latency_ms_mean of a sweep workload: the mean latency of each
 * (app, scheme) pair's runs, averaged over the pairs, so that a sweep
 * cut short weighs no app more than another. The machine's speed
 * switches between levels for seconds at a time; a median of runs
 * drawn from two levels jumps to whichever holds more of them, while
 * the mean moves in proportion.
 */
double
runLatencyMean(const SweepPhase &ph)
{
    double sum = 0.0;
    for (const auto &entry : ph.latencyByRun)
        sum += mean(entry.second);
    return sum / static_cast<double>(ph.latencyByRun.size());
}

void
reportPhase(Outcome &out, const SweepPhase &ph)
{
    out.report.push_back(format(
        "runs %zu in %zu sweeps, %.0f jobs, %.3f s measured, "
        "failed_frac %.4f",
        ph.runs, ph.sweeps, ph.jobs, ph.wallSeconds,
        static_cast<double>(ph.failed) /
            static_cast<double>(ph.runs)));
    if (ph.latencyMs.empty())
        return;
    const std::size_t n = ph.latencyMs.size();
    std::string p90 = "n/a (fewer than 10 samples beyond p90)";
    if (tailReportable(n, 0.9))
        p90 = format("%.3f ms (%zu samples beyond)",
                     percentile(ph.latencyMs, 0.9), samplesBeyond(n, 0.9));
    out.report.push_back(format(
        "run latency: n=%zu, mean %.3f ms over %zu (app, scheme) pairs; "
        "p50 %.3f ms, p90 %s",
        n, runLatencyMean(ph), ph.latencyByRun.size(), median(ph.latencyMs),
        p90.c_str()));
}

Outcome
untraced(const Options &o)
{
    Outcome out;
    std::vector<double> setup_s;
    Setup setup;
    const SweepPhase ph = measureSweeps(o, setup, setup_s, out);
    out.attempted = ph.runs;
    out.failed = ph.failed;
    const Fidelity fid = fidelityFactor(o, setup, ph, out);
    const double factor = fid.factor;
    if (o.workload != Workload::SecondOrder && !(factor > 1.0))
        out.fail(format("QISMET fidelity factor %.4f is not above 1",
                        factor));
    if (ph.latencyMs.empty())
        throw std::runtime_error("no run completed");

    reportPhase(out, ph);
    out.report.push_back(format(
        "fidelity factor %.4f (%s vs Baseline, %zu sweeps, %zu runs "
        "untimed)",
        factor,
        o.workload == Workload::SecondOrder ? "2nd-order" : "QISMET",
        fid.sweeps, fid.untimedRuns));
    out.add("jobs_per_s", ph.jobs / ph.wallSeconds, "jobs/s");
    out.add("run_latency_ms_mean", runLatencyMean(ph), "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", ph.peakRssMb, "MiB");
    out.add("fidelity_factor", factor, "ratio");
    return out;
}

/**
 * Each run twice, back to back: QismetVqe::run, then the traced
 * pipeline, which must reproduce it bit for bit, then a replay of a few
 * of its own calls. Interleaving keeps all three under the same machine
 * conditions, for the overhead figure and the replayed per-call costs.
 */
Outcome
traced(const Options &o)
{
    Outcome out;
    const Setup setup = buildSetup(o);
    Tracer tracer;
    const TraceNames names(tracer);
    TracedTotals totals;
    ReplayCosts costs;
    SweepPhase ph;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const std::int64_t start = nowNs();
    for (std::size_t sweep = 0;; ++sweep) {
        for (const RunSpec &spec : sweepRuns(o.workload, o.seed, sweep)) {
            const auto app = static_cast<std::size_t>(spec.app - 1);
            const std::uint64_t run_id = ph.runs++;
            try {
                std::int64_t t0 = nowNs();
                const qismet::QismetVqeResult plain =
                    setup.runners[app].run(spec.config);
                untraced_s += secondsSince(t0);
                TracedRunStats st;
                t0 = nowNs();
                const qismet::QismetVqeResult res = tracedRun(
                    setup.apps[app], spec.config, tracer, names, run_id,
                    replayStride(spec.config), st);
                traced_s += secondsSince(t0);
                const std::string problem = runProblems(res);
                if (!problem.empty() || !st.finiteEnergies ||
                    !sameRun(summarize(res), summarize(plain)))
                    throw std::runtime_error(
                        "traced pipeline differs from QismetVqe::run" +
                        (problem.empty() ? "" : ": " + problem));
                totals.add(st, res.run.jobsUsed);
                ph.jobs += static_cast<double>(res.run.jobsUsed);
                replayCalls(setup.apps[app], spec.config, st.thetaSample,
                            tauSample(res.run), costs);
            }
            catch (const std::exception &e) {
                ++ph.failed;
                out.fail(format("run %llu (App%d %s): %s",
                                static_cast<unsigned long long>(run_id),
                                spec.app,
                                qismet::schemeName(spec.config.scheme).c_str(),
                                e.what()));
            }
        }
        ph.sweeps = sweep + 1;
        if (secondsSince(start) >= o.seconds)
            break;
    }
    ph.wallSeconds = secondsSince(start);

    if (!costs.finite)
        out.fail("a replayed estimate was not finite");

    LayerFigures fig;
    fillPipelineFigures(tracer, totals, costs, fig);
    fig.wallSeconds = tracer.table()["vqe.run"].totalSeconds;
    fig.traceOverheadFrac = traced_s > 0.0 ? 1.0 - untraced_s / traced_s : 0.0;

    out.attempted = ph.runs;
    out.failed = ph.failed;
    out.report.push_back(format(
        "runs %zu in %zu sweeps, %.0f jobs; untraced %.3f s, traced "
        "%.3f s (overhead %.4f); replayed %zu estimates",
        ph.runs, ph.sweeps, ph.jobs, untraced_s, traced_s,
        fig.traceOverheadFrac, costs.estimateUs.size()));
    reportLayers(out, tracer, fig);
    addLayerMetrics(out, fig);
    writeTraceFiles(o, tracer, out);
    return out;
}

} // namespace

Outcome
runSweepWorkload(const Options &opts)
{
    return opts.trace ? traced(opts) : untraced(opts);
}

} // namespace perfbench
