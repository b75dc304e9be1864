/**
 * @file
 * serve-multitenant: a closed loop of tenant clients, each keeping one
 * QISMET run in flight through a ServeScheduler (3 workers, 4
 * backends). The measured loop runs in memory: with durability on,
 * every job waits for an fsync, and on shared storage those waits
 * moved the loop's throughput by half between identical runs. The
 * traced run replays the same kind of traffic durably, crash legs
 * included, to measure what persistence adds. Every served run is
 * checked against a solo QismetVqe::run of its spec.
 */
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <utility>

#include "apps/applications.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "replay.hpp"
#include "serve/scheduler.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_run.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using qismet::ServeJobState;

/** A served run, kept small: a phase holds thousands of them. */
struct ServeRun
{
    std::size_t client = 0;
    std::size_t index = 0;
    /** soloKey() of the run's spec (see ServePhase::specs). */
    std::uint64_t key = 0;
    double latencyMs = 0.0;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    ServeJobState state = ServeJobState::Queued;
    std::string digest;
    bool completed = false;
};

/** The spec's digest with its crash plan removed: equal for its legs. */
std::uint64_t
soloKey(qismet::ServeJobSpec spec)
{
    spec.crashPlan.clear();
    return spec.digest();
}

struct ServePhase
{
    std::vector<ServeRun> runs;
    /** The distinct specs served, by soloKey(). */
    std::map<std::uint64_t, qismet::ServeJobSpec> specs;
    /** Runs each client submitted: the next index of each client. */
    std::vector<std::size_t> perClient;
    /** perClient at the end of each segment of a segmented loop. */
    std::vector<std::vector<std::size_t>> segmentEnds;
    double wallSeconds = 0.0;
    double jobs = 0.0;
    double serviceSeconds = 0.0;
    std::uint64_t failed = 0;
    double legs = 0.0;
    double planHits = 0.0;
    double planMisses = 0.0;
    /** VmHWM when the measured loop ended, before its solo checks. */
    double peakRssMb = 0.0;
};

std::unique_ptr<qismet::ServeScheduler>
makeScheduler(const std::string &state_dir)
{
    qismet::ServeSchedulerConfig cfg;
    cfg.workers = kServeWorkers;
    cfg.backends = {"guadalupe", "toronto", "sydney", "mumbai"};
    static_assert(kServeBackends == 4);
    cfg.stateDir = state_dir;
    return std::make_unique<qismet::ServeScheduler>(cfg);
}

bool
terminal(ServeJobState s)
{
    return s != ServeJobState::Queued && s != ServeJobState::Running;
}

/**
 * Drive the closed loop. Client c submits its runs from index
 * (*first)[c], or from 0. With `counts`, it submits up to index
 * counts[c]; otherwise clients stop submitting once `seconds`
 * have passed and the phase ends when their last runs finish.
 * `durable` = false strips crash plans (in-memory schedulers refuse
 * them). With a tracer, each run's poll-observed queue and service
 * intervals become spans under a serve.request span.
 */
ServePhase
closedLoop(qismet::ServeScheduler &sch, const Options &o, double seconds,
           const std::vector<std::size_t> *counts, bool durable,
           Tracer *tracer, const std::vector<std::size_t> *first = nullptr)
{
    struct Interval
    {
        ServeJobState state;
        std::int64_t start, end;
    };
    struct Client
    {
        bool active = false;
        std::size_t index = 0;
        std::uint64_t jobId = 0;
        qismet::ServeJobSpec spec;
        std::int64_t submitNs = 0;
        std::int64_t lastNs = 0;
        ServeJobState last = ServeJobState::Queued;
        std::vector<Interval> intervals;
    };

    ServePhase ph;
    std::vector<Client> clients(kServeClients);
    if (first)
        for (std::size_t ci = 0; ci < clients.size(); ++ci)
            clients[ci].index = (*first)[ci];
    const std::int64_t start = nowNs();
    const auto allowed = [&](std::size_t c, std::size_t index) {
        return counts ? index < (*counts)[c]
                      : secondsSince(start) < seconds;
    };
    const auto submit = [&](std::size_t ci) {
        Client &c = clients[ci];
        c.spec = serveSpec(o.seed, ci, c.index);
        if (!durable)
            c.spec.crashPlan.clear();
        c.intervals.clear();
        c.submitNs = nowNs();
        c.jobId = sch.submit(c.spec);
        c.lastNs = c.submitNs;
        c.last = ServeJobState::Queued;
        c.active = true;
    };
    for (std::size_t ci = 0; ci < clients.size(); ++ci)
        if (allowed(ci, clients[ci].index))
            submit(ci);

    std::uint32_t request = 0, queue = 0, service = 0;
    if (tracer) {
        request = tracer->nameId("serve.request");
        queue = tracer->nameId("serve.queue");
        service = tracer->nameId("serve.service");
    }
    for (bool busy = true; busy;) {
        busy = false;
        bool changed = false;
        for (std::size_t ci = 0; ci < clients.size(); ++ci) {
            Client &c = clients[ci];
            if (!c.active)
                continue;
            busy = true;
            const auto info = sch.poll(c.jobId);
            if (!info)
                throw std::logic_error("serve: submitted job unknown");
            if (info->state == c.last)
                continue;
            changed = true;
            const std::int64_t t = nowNs();
            c.intervals.push_back({c.last, c.lastNs, t});
            c.last = info->state;
            c.lastNs = t;
            if (!terminal(info->state))
                continue;

            ServeRun r;
            r.client = ci;
            r.index = c.index;
            r.key = soloKey(c.spec);
            ph.specs.emplace(r.key, c.spec);
            r.latencyMs = static_cast<double>(t - c.submitNs) * 1e-6;
            for (const Interval &iv : c.intervals) {
                const double ms =
                    static_cast<double>(iv.end - iv.start) * 1e-6;
                (iv.state == ServeJobState::Running ? r.serviceMs
                                                    : r.queueMs) += ms;
            }
            r.state = info->state;
            r.digest = info->trajectoryDigest;
            r.completed = info->state == ServeJobState::Completed;
            if (tracer) {
                // Job ids restart with each scheduler; this does not.
                const std::uint64_t run_id = (ci << 32) | c.index;
                const auto parent =
                    static_cast<std::uint32_t>(tracer->spans().size());
                tracer->record(request, run_id, c.submitNs, t);
                for (const Interval &iv : c.intervals)
                    tracer->record(iv.state == ServeJobState::Running
                                       ? service
                                       : queue,
                                   run_id, iv.start, iv.end, parent);
            }
            if (r.completed)
                ph.jobs += static_cast<double>(info->jobsUsed);
            else
                ++ph.failed;
            ph.serviceSeconds += r.serviceMs * 1e-3;
            ph.legs += static_cast<double>(info->legsDispatched);
            ph.runs.push_back(std::move(r));
            c.active = false;
            ++c.index;
            if (allowed(ci, c.index))
                submit(ci);
        }
        if (busy && !changed)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ph.wallSeconds = secondsSince(start);
    for (const Client &c : clients)
        ph.perClient.push_back(c.index);
    for (std::size_t b = 0; b < sch.backendCount(); ++b) {
        ph.planHits += static_cast<double>(sch.backendPlanCacheHits(b));
        ph.planMisses += static_cast<double>(sch.backendPlanCacheMisses(b));
    }
    return ph;
}

/** A spec's solo twins: QISMET (the digest to match) and Baseline. */
struct SoloTwin
{
    RunSummary solo;
    double fidelity = 0.0;
    double baselineFidelity = 0.0;
    std::string problem;
};

/** Twins by soloKey(). */
using SoloTwins = std::map<std::uint64_t, SoloTwin>;

/** Run the solo twins of every spec in `ph` not in `twins` yet. */
void
addSoloTwins(const ServePhase &ph, SoloTwins &twins)
{
    std::vector<qismet::ServeJobSpec> todo;
    for (const auto &[key, spec] : ph.specs)
        if (twins.count(key) == 0)
            todo.push_back(spec);
    std::vector<SoloTwin> out(todo.size());
    parallelFor(todo.size(), kServeWorkers + 1, [&](std::size_t i) {
        SoloTwin &t = out[i];
        try {
            const qismet::QismetVqe runner = qismet::buildRunner(todo[i]);
            const qismet::QismetVqeConfig cfg =
                qismet::buildRunConfig(todo[i]);
            const qismet::QismetVqeResult res = runner.run(cfg);
            const qismet::QismetVqeResult base = runner.run(baselineOf(cfg));
            t.problem = runProblems(res);
            if (t.problem.empty())
                t.problem = runProblems(base);
            t.solo = summarize(res);
            t.fidelity = fidelityOf(t.solo);
            t.baselineFidelity = fidelityOf(summarize(base));
        }
        catch (const std::exception &e) {
            t.problem = e.what();
        }
    });
    for (std::size_t i = 0; i < todo.size(); ++i)
        twins.emplace(soloKey(todo[i]), std::move(out[i]));
}

/** Check every served run against its solo twin; returns failures. */
std::uint64_t
checkAgainstSolo(const ServePhase &ph, const SoloTwins &twins,
                 Outcome &out, const char *phase)
{
    std::uint64_t failed = 0;
    for (const ServeRun &r : ph.runs) {
        const SoloTwin &t = twins.at(r.key);
        std::string problem = t.problem;
        if (!r.completed)
            problem = "ended " + qismet::serveJobStateName(r.state);
        else if (problem.empty() && t.solo.digest != r.digest)
            problem = "served digest differs from the solo run";
        if (problem.empty())
            continue;
        ++failed;
        out.fail(format("%s: client %zu run %zu: %s", phase, r.client,
                        r.index, problem.c_str()));
    }
    return failed;
}

std::string
stateDir(const Options &o)
{
    const std::string dir =
        o.outDir + "/serve-state-" + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

/**
 * A short solo QISMET run per app, so lazy one-time work (kernel
 * dispatch, first allocations) lands in set-up, not in the first leg.
 */
void
warmUp(const std::vector<qismet::Application> &apps, std::uint64_t seed)
{
    qismet::QismetVqeConfig warm;
    warm.scheme = qismet::Scheme::Qismet;
    warm.totalJobs = 4;
    warm.seed = seed;
    for (const auto &app : apps)
        app.makeRunner().run(warm);
}

std::vector<double>
column(const ServePhase &ph, double ServeRun::*field)
{
    std::vector<double> v;
    for (const ServeRun &r : ph.runs)
        if (r.completed)
            v.push_back(r.*field);
    return v;
}

void
reportPhase(Outcome &out, const ServePhase &ph)
{
    const std::vector<double> lat = column(ph, &ServeRun::latencyMs);
    out.report.push_back(format(
        "runs %zu (%zu clients, %zu workers, %zu backends), %.0f jobs, "
        "%.3f s measured, failed_frac %.4f",
        ph.runs.size(), kServeClients, kServeWorkers, kServeBackends,
        ph.jobs, ph.wallSeconds,
        static_cast<double>(ph.failed) /
            static_cast<double>(std::max<std::size_t>(1, ph.runs.size()))));
    if (lat.empty())
        return;
    std::string p90 = "n/a (fewer than 10 samples beyond p90)";
    if (tailReportable(lat.size(), 0.9))
        p90 = format("%.3f ms (%zu samples beyond)", percentile(lat, 0.9),
                     samplesBeyond(lat.size(), 0.9));
    out.report.push_back(format("run latency (submit->Completed): n=%zu "
                                "mean %.3f ms, p50 %.3f ms, p90 %s",
                                lat.size(), mean(lat), median(lat),
                                p90.c_str()));
}

/** Fold a later segment of the same loop into `ph`. */
void
appendSegment(ServePhase &ph, ServePhase seg)
{
    for (ServeRun &r : seg.runs)
        ph.runs.push_back(std::move(r));
    ph.specs.merge(seg.specs);
    ph.perClient = seg.perClient;
    ph.segmentEnds.push_back(seg.perClient);
    ph.wallSeconds += seg.wallSeconds;
    ph.jobs += seg.jobs;
    ph.serviceSeconds += seg.serviceSeconds;
    ph.failed += seg.failed;
    ph.legs += seg.legs;
    ph.planHits += seg.planHits;
    ph.planMisses += seg.planMisses;
}

/**
 * The measured in-memory loop plus its solo checks. The loop runs in
 * kSetupBlocks segments; each starts with a block of set-up
 * repetitions (not measured time) and serves on the last scheduler
 * built, until the clients have drained.
 */
ServePhase
measureLoop(const Options &o, std::vector<double> &setup_s,
            SoloTwins &twins, Outcome &out)
{
    std::unique_ptr<qismet::ServeScheduler> sch;
    std::vector<qismet::Application> apps;
    const auto build = [&] {
        apps = qismet::allApplications();
        warmUp(apps, o.seed);
        sch = makeScheduler("");
    };
    ServePhase ph;
    for (int seg = 0; seg < kSetupBlocks; ++seg) {
        timeSetupBlock(build, setup_s, [&] { sch.reset(); });
        appendSegment(ph, closedLoop(*sch, o, o.seconds / kSetupBlocks,
                                     nullptr, false, nullptr,
                                     seg ? &ph.perClient : nullptr));
    }
    sch.reset();
    ph.peakRssMb = peakRssMb();
    addSoloTwins(ph, twins);
    ph.failed = checkAgainstSolo(ph, twins, out, "served");
    if (column(ph, &ServeRun::latencyMs).empty())
        throw std::runtime_error("no served run completed");
    return ph;
}

Outcome
untraced(const Options &o)
{
    Outcome out;
    std::vector<double> setup_s;
    SoloTwins twins;
    const ServePhase ph = measureLoop(o, setup_s, twins, out);

    double fid = 0.0, base_fid = 0.0;
    for (const ServeRun &r : ph.runs) {
        fid += twins.at(r.key).fidelity;
        base_fid += twins.at(r.key).baselineFidelity;
    }
    if (!(base_fid > 0.0))
        throw std::runtime_error("no Baseline fidelity to compare against");
    out.attempted = ph.runs.size();
    out.failed = ph.failed;
    reportPhase(out, ph);
    out.report.push_back(format("fidelity factor %.4f (QISMET vs Baseline, "
                                "solo twins of %zu distinct specs)",
                                fid / base_fid, twins.size()));
    out.add("jobs_per_s", ph.jobs / ph.wallSeconds, "jobs/s");
    out.add("run_latency_ms_mean", mean(column(ph, &ServeRun::latencyMs)),
            "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", ph.peakRssMb, "MiB");
    out.add("fidelity_factor", fid / base_fid, "ratio");
    return out;
}

/** Compare a replayed phase's digests with the first phase's, run by run. */
std::uint64_t
digestMismatches(const ServePhase &ref, const ServePhase &ph, Outcome &out,
                 const char *what)
{
    std::map<std::pair<std::size_t, std::size_t>, std::string> digests;
    for (const ServeRun &r : ref.runs)
        digests[{r.client, r.index}] = r.digest;
    std::uint64_t bad = 0;
    for (const ServeRun &r : ph.runs) {
        auto it = digests.find({r.client, r.index});
        if (!r.completed || it == digests.end() ||
            it->second != r.digest) {
            ++bad;
            out.fail(format("%s: client %zu run %zu differs from the "
                            "untraced run",
                            what, r.client, r.index));
        }
    }
    return bad;
}

/**
 * Traced run, in five phases:
 *  1. the untraced in-memory loop, checked against solo twins;
 *  2. the same runs again, in memory, with poll-observed spans (the
 *     serve.* figures and the tracing overhead come from here);
 *  3. a durable loop (fresh state directory, crash plans executed) for
 *     half the measurement time: the persist.* figures;
 *  4. the durable loop's runs again in memory: persist.overhead_s is
 *     the wall-time difference;
 *  5. the durable loop's runs once more through the traced pipeline,
 *     solo, for the optim/core/vqe/noise split and the replay.
 * Shares describe the durable loop: its legs' service time splits into
 * the in-memory legs' service time plus what durability adds, and the
 * in-memory legs into the solo pipeline plus what serving adds.
 */
Outcome
traced(const Options &o)
{
    Outcome out;
    const std::vector<qismet::Application> apps = qismet::allApplications();
    SoloTwins twins;

    std::vector<double> setup_s;
    const ServePhase ph1 = measureLoop(o, setup_s, twins, out);

    // Phase 2 repeats phase 1's segments, each on a fresh scheduler.
    Tracer tracer;
    ServePhase ph2;
    std::unique_ptr<qismet::ServeScheduler> sch;
    for (std::size_t seg = 0; seg < ph1.segmentEnds.size(); ++seg) {
        sch = makeScheduler("");
        appendSegment(ph2, closedLoop(*sch, o, o.seconds,
                                      &ph1.segmentEnds[seg], false, &tracer,
                                      seg ? &ph2.perClient : nullptr));
    }
    sch.reset();
    std::uint64_t mismatches = digestMismatches(ph1, ph2, out, "traced");

    fs::create_directories(o.outDir);
    const std::string dir = stateDir(o);
    sch = makeScheduler(dir);
    const ServePhase ph3 =
        closedLoop(*sch, o, 0.5 * o.seconds, nullptr, true, nullptr);
    sch.reset();
    LayerFigures fig;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file()) {
            fig.persistBytes += static_cast<double>(entry.file_size());
            fig.persistFiles += 1.0;
        }
    fs::remove_all(dir);
    addSoloTwins(ph3, twins);
    mismatches += checkAgainstSolo(ph3, twins, out, "durable");

    sch = makeScheduler("");
    const ServePhase ph4 =
        closedLoop(*sch, o, o.seconds, &ph3.perClient, false, nullptr);
    sch.reset();
    mismatches += digestMismatches(ph3, ph4, out, "in-memory replay");

    const TraceNames names(tracer);
    TracedTotals totals;
    ReplayCosts costs;
    for (std::size_t i = 0; i < ph3.runs.size(); ++i) {
        const ServeRun &r = ph3.runs[i];
        const qismet::ServeJobSpec &spec = ph3.specs.at(r.key);
        const auto &app = apps[static_cast<std::size_t>(spec.appIndex - 1)];
        const qismet::QismetVqeConfig cfg = qismet::buildRunConfig(spec);
        TracedRunStats st;
        const qismet::QismetVqeResult res = tracedRun(
            app, cfg, tracer, names, 1'000'000 + i, replayStride(cfg), st);
        if (!st.finiteEnergies ||
            !sameRun(summarize(res), twins.at(r.key).solo)) {
            ++mismatches;
            out.fail(format("traced pipeline differs from QismetVqe::run "
                            "for client %zu run %zu",
                            r.client, r.index));
        }
        totals.add(st, res.run.jobsUsed);
        replayCalls(app, cfg, st.thetaSample, tauSample(res.run), costs);
    }
    if (!costs.finite)
        out.fail("a replayed estimate was not finite");

    fillPipelineFigures(tracer, totals, costs, fig);
    const double solo_s = tracer.table()["vqe.run"].totalSeconds;
    fig.wallSeconds = ph3.serviceSeconds;
    fig.selfSeconds["persist"] =
        std::max(0.0, ph3.serviceSeconds - ph4.serviceSeconds);
    fig.selfSeconds["serve"] = std::max(0.0, ph4.serviceSeconds - solo_s);
    fig.persistOverheadS = ph3.wallSeconds - ph4.wallSeconds;
    const std::vector<double> waits = column(ph2, &ServeRun::queueMs);
    const std::vector<double> serv = column(ph2, &ServeRun::serviceMs);
    if (waits.empty())
        throw std::runtime_error("no traced served run completed");
    fig.queueWaitMsP50 = median(waits);
    fig.queueWaitMsP90 = percentile(waits, 0.9);
    fig.serviceMsP50 = median(serv);
    fig.serviceMsP90 = percentile(serv, 0.9);
    fig.workerBusyFrac =
        ph2.serviceSeconds /
        (ph2.wallSeconds * static_cast<double>(kServeWorkers));
    fig.legsDispatched = ph2.legs;
    fig.planCacheHitRatio =
        ph2.planHits / std::max(1.0, ph2.planHits + ph2.planMisses);
    fig.traceOverheadFrac = 1.0 - ph1.wallSeconds / ph2.wallSeconds;

    out.attempted = ph1.runs.size();
    out.failed = ph1.failed + mismatches;
    reportPhase(out, ph1);
    out.report.push_back(format(
        "traced in-memory %.3f s (overhead %.4f; queue/service p90 over "
        "%zu runs, %zu beyond)",
        ph2.wallSeconds, fig.traceOverheadFrac, serv.size(),
        samplesBeyond(serv.size(), 0.9)));
    out.report.push_back(format(
        "durable loop: %zu runs, %.0f jobs, %.3f s, %.0f legs; same runs in "
        "memory %.3f s; service %.3f / %.3f worker-s; solo pipeline %.3f s",
        ph3.runs.size(), ph3.jobs, ph3.wallSeconds, ph3.legs,
        ph4.wallSeconds, ph3.serviceSeconds, ph4.serviceSeconds, solo_s));
    reportLayers(out, tracer, fig);
    addLayerMetrics(out, fig);
    writeTraceFiles(o, tracer, out);
    return out;
}

} // namespace

Outcome
runServeWorkload(const Options &opts)
{
    return opts.trace ? traced(opts) : untraced(opts);
}

} // namespace perfbench
