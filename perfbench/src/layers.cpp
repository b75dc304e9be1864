#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace {

double
medianOr0(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : median(v);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
TracedTotals::add(const TracedRunStats &s, std::size_t run_jobs)
{
    stats.judgements += s.judgements;
    stats.retries += s.retries;
    stats.estimates += s.estimates;
    stats.circuits += s.circuits;
    stats.sampledGroups += s.sampledGroups;
    jobs += static_cast<double>(run_jobs);
}

void
fillPipelineFigures(const Tracer &tracer, const TracedTotals &totals,
                    const ReplayCosts &replay, LayerFigures &fig)
{
    const auto table = tracer.table();
    const auto row = [&](const char *name) {
        auto it = table.find(name);
        return it == table.end() ? Tracer::Row{} : it->second;
    };
    const auto layers = Tracer::layerSelfSeconds(table);
    const auto layer = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second;
    };

    fig.proposeS = row("optim.propose").totalSeconds;
    fig.proposeCalls = static_cast<double>(row("optim.propose").calls);
    fig.proposeUsP50 = medianOr0(tracer.durations("optim.propose")) * 1e6;
    fig.judgeS = row("core.judge").totalSeconds;
    fig.judgeCalls = static_cast<double>(totals.stats.judgements);
    fig.retryRatio = ratio(static_cast<double>(totals.stats.retries),
                           static_cast<double>(totals.stats.judgements));
    fig.calibrateS = row("core.calibrate").totalSeconds;
    fig.driverS = row("vqe.driver").totalSeconds;
    fig.execSelfS = row("vqe.driver").selfSeconds;
    fig.jobs = totals.jobs;
    fig.circuits = static_cast<double>(totals.stats.circuits);
    fig.traceUsP50 = medianOr0(tracer.durations("noise.trace")) * 1e6;

    fig.estimateUsP50 = medianOr0(replay.estimateUs);
    fig.prepareUsP50 = medianOr0(replay.prepareUs);
    fig.expectUsP50 = medianOr0(replay.expectUs);
    fig.sampleUsP50 = medianOr0(replay.sampleUs);
    fig.mitigateUsP50 = medianOr0(replay.mitigateUs);
    const double estimates = static_cast<double>(totals.stats.estimates);
    const double groups = static_cast<double>(totals.stats.sampledGroups);
    fig.replayCoverage =
        ratio(fig.estimateUsP50 * 1e-6 * estimates, fig.execSelfS);

    // Only Analytic estimates call termExpectations; Sampling estimates
    // call the sampler and the mitigator once per measurement group.
    const double sampled_estimates =
        replay.sampleUs.empty() ? 0.0 : estimates;
    const double sim = (fig.prepareUsP50 * estimates +
                        fig.sampleUsP50 * groups) * 1e-6;
    const double pauli =
        fig.expectUsP50 * (estimates - sampled_estimates) * 1e-6;
    const double mitigation = fig.mitigateUsP50 * groups * 1e-6;
    fig.selfSeconds["optim"] = layer("optim");
    fig.selfSeconds["core"] = layer("core");
    fig.selfSeconds["noise"] = layer("noise");
    fig.selfSeconds["sim"] = sim;
    fig.selfSeconds["pauli"] = pauli;
    fig.selfSeconds["mitigation"] = mitigation;
    fig.selfSeconds["vqe"] =
        std::max(0.0, layer("vqe") - sim - pauli - mitigation);
}

void
addLayerMetrics(Outcome &out, const LayerFigures &f)
{
    out.add("optim.propose_s", f.proposeS, "s");
    out.add("optim.propose_us_p50", f.proposeUsP50, "us");
    out.add("optim.propose_calls", f.proposeCalls, "count");
    out.add("core.judge_s", f.judgeS, "s");
    out.add("core.judge_calls", f.judgeCalls, "count");
    out.add("core.retry_ratio", f.retryRatio, "ratio");
    out.add("core.calibrate_s", f.calibrateS, "s");
    out.add("vqe.driver_s", f.driverS, "s");
    out.add("vqe.exec_self_s", f.execSelfS, "s");
    out.add("vqe.jobs", f.jobs, "count");
    out.add("vqe.circuits", f.circuits, "count");
    out.add("vqe.estimate_us_p50", f.estimateUsP50, "us");
    out.add("sim.prepare_us_p50", f.prepareUsP50, "us");
    out.add("pauli.expect_us_p50", f.expectUsP50, "us");
    out.add("sim.sample_us_p50", f.sampleUsP50, "us");
    out.add("mitigation.mitigate_us_p50", f.mitigateUsP50, "us");
    out.add("noise.trace_us_p50", f.traceUsP50, "us");
    out.add("vqe.replay_coverage", f.replayCoverage, "ratio");
    out.add("persist.bytes", f.persistBytes, "bytes");
    out.add("persist.files", f.persistFiles, "count");
    out.add("persist.overhead_s", f.persistOverheadS, "s");
    out.add("serve.queue_wait_ms_p50", f.queueWaitMsP50, "ms");
    out.add("serve.queue_wait_ms_p90", f.queueWaitMsP90, "ms");
    out.add("serve.service_ms_p50", f.serviceMsP50, "ms");
    out.add("serve.service_ms_p90", f.serviceMsP90, "ms");
    out.add("serve.worker_busy_frac", f.workerBusyFrac, "ratio");
    out.add("serve.legs_dispatched", f.legsDispatched, "count");
    out.add("serve.plan_cache_hit_ratio", f.planCacheHitRatio, "ratio");
    for (const char *layer : kLayers) {
        auto it = f.selfSeconds.find(layer);
        const double self = it == f.selfSeconds.end() ? 0.0 : it->second;
        out.add(std::string("share.") + layer, ratio(self, f.wallSeconds),
                "ratio");
    }
    out.add("trace.overhead_frac", f.traceOverheadFrac, "ratio");
}

void
reportLayers(Outcome &out, const Tracer &tracer, const LayerFigures &fig)
{
    out.report.push_back(format("%-26s %10s %12s %12s", "span", "calls",
                                "total_s", "self_s"));
    for (const auto &[name, row] : tracer.table())
        out.report.push_back(format("%-26s %10llu %12.6f %12.6f",
                                    name.c_str(),
                                    static_cast<unsigned long long>(row.calls),
                                    row.totalSeconds, row.selfSeconds));
    out.report.push_back(format("%-12s %12s %8s   (of %.6f s)", "layer",
                                "self_s", "share", fig.wallSeconds));
    for (const char *layer : kLayers) {
        auto it = fig.selfSeconds.find(layer);
        const double self = it == fig.selfSeconds.end() ? 0.0 : it->second;
        out.report.push_back(format("%-12s %12.6f %8.4f", layer, self,
                                    ratio(self, fig.wallSeconds)));
    }
}

void
writeTraceFiles(const Options &opts, const Tracer &tracer,
                const Outcome &out)
{
    std::filesystem::create_directories(opts.outDir);
    const std::string base =
        opts.outDir + "/" + workloadName(opts.workload);
    {
        std::ofstream spans(base + ".spans.csv");
        tracer.writeCsv(spans);
    }
    std::ofstream table(base + ".layers.txt");
    for (const std::string &line : out.report)
        table << line << '\n';
}

} // namespace perfbench
