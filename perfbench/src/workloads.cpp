#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

namespace {

// Stream domains of the generated inputs ("PBRUN" / "PBSRV").
constexpr std::uint64_t kRunDomain = 0x5042'5255'4eull;
constexpr std::uint64_t kServeDomain = 0x5042'5352'56ull;

} // namespace

Workload
parseWorkload(const std::string &name)
{
    if (name == "fig17-first-order")
        return Workload::FirstOrder;
    if (name == "fig17-second-order")
        return Workload::SecondOrder;
    if (name == "sampling-mitigated")
        return Workload::Sampling;
    if (name == "serve-multitenant")
        return Workload::ServeTenants;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string
workloadName(Workload w)
{
    switch (w) {
      case Workload::FirstOrder: return "fig17-first-order";
      case Workload::SecondOrder: return "fig17-second-order";
      case Workload::Sampling: return "sampling-mitigated";
      case Workload::ServeTenants: return "serve-multitenant";
    }
    return "?";
}

std::vector<RunSpec>
sweepRuns(Workload w, std::uint64_t seed, std::size_t sweep)
{
    if (w == Workload::ServeTenants)
        throw std::invalid_argument(
            "sweepRuns: serve-multitenant has no sweeps");
    std::vector<qismet::Scheme> schemes = {qismet::Scheme::Baseline,
                                           qismet::Scheme::Qismet};
    if (w == Workload::SecondOrder)
        schemes = {qismet::Scheme::SecondOrder};

    std::vector<RunSpec> runs;
    for (int app = 1; app <= kApps; ++app) {
        const std::uint64_t run_seed = qismet::deriveStreamSeed(
            seed, kRunDomain,
            sweep * kApps + static_cast<std::size_t>(app - 1));
        for (qismet::Scheme scheme : schemes) {
            RunSpec r;
            r.app = app;
            r.sweep = sweep;
            r.config.scheme = scheme;
            r.config.seed = run_seed;
            r.config.totalJobs = kFig17Jobs;
            r.config.estimator.mode = qismet::EstimatorMode::Analytic;
            if (w == Workload::Sampling) {
                r.config.totalJobs = kSamplingJobs;
                r.config.estimator.mode = qismet::EstimatorMode::Sampling;
                r.config.estimator.shots = 4096;
                r.config.estimator.mitigateMeasurement = true;
            }
            runs.push_back(r);
        }
    }
    return runs;
}

qismet::QismetVqeConfig
baselineOf(const qismet::QismetVqeConfig &config)
{
    qismet::QismetVqeConfig b = config;
    b.scheme = qismet::Scheme::Baseline;
    return b;
}

qismet::ServeJobSpec
serveSpec(std::uint64_t seed, std::size_t client, std::size_t index)
{
    qismet::Rng rng(qismet::deriveStreamSeed(
        seed, kServeDomain, (client << 32) | (index % kServeSpecsPerClient)));
    qismet::ServeJobSpec spec;
    spec.tenantId = client + 1;
    spec.kind = qismet::WorkloadKind::TfimApp;
    spec.appIndex = static_cast<int>(1 + rng.uniformInt(kApps));
    spec.seed = rng.engine()();
    spec.totalJobs = 200 + rng.uniformInt(201);
    spec.scheme = qismet::Scheme::Qismet;
    // A QISMET iteration spends at least two jobs, so a crash within
    // the first quarter of the budget always lands inside the run.
    if (rng.bernoulli(0.25))
        spec.crashPlan = {5 + rng.uniformInt(spec.totalJobs / 4 - 5)};
    return spec;
}

} // namespace perfbench
