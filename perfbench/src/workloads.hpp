/**
 * @file
 * The benchmark's four workloads and the inputs each generates from a
 * workload seed. Every input is a pure function of (workload, seed,
 * position), so the same seed always yields the same runs; the library
 * only ever sees the generated configurations and serve specs.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/qismet_vqe.hpp"
#include "serve/job_spec.hpp"

namespace perfbench {

enum class Workload
{
    FirstOrder,   ///< fig17-first-order
    SecondOrder,  ///< fig17-second-order
    Sampling,     ///< sampling-mitigated
    ServeTenants, ///< serve-multitenant
};

/** @throws std::invalid_argument for an unknown name. */
Workload parseWorkload(const std::string &name);
std::string workloadName(Workload w);

/** Table-1 applications per sweep. */
inline constexpr int kApps = 6;
/** Fig. 17 job budget of the two fig17 workloads. */
inline constexpr std::size_t kFig17Jobs = 2000;
/**
 * Job budget of sampling-mitigated: at ~0.7-1 ms per sampled estimate
 * one 12-run sweep takes ~4 s, so a 20 s measurement covers several.
 */
inline constexpr std::size_t kSamplingJobs = 300;

/** One QismetVqe::run of a fig17-style sweep. */
struct RunSpec
{
    int app = 1; ///< Table-1 index, 1..6
    std::size_t sweep = 0;
    qismet::QismetVqeConfig config;
};

/**
 * The runs of sweep `sweep`: apps 1..6, each under the workload's
 * schemes (Baseline + QISMET, or 2nd-order alone). The schemes of one
 * app share the run seed, as runComparison does.
 */
std::vector<RunSpec> sweepRuns(Workload w, std::uint64_t seed,
                               std::size_t sweep);

/**
 * The Baseline run a run's fidelity is compared against: the same
 * configuration under Scheme::Baseline.
 */
qismet::QismetVqeConfig baselineOf(const qismet::QismetVqeConfig &config);

/** serve-multitenant: closed-loop tenant clients and backends. */
inline constexpr std::size_t kServeClients = 8;
inline constexpr std::size_t kServeWorkers = 3;
inline constexpr std::size_t kServeBackends = 4;
/** Distinct run specs each client cycles through. */
inline constexpr std::size_t kServeSpecsPerClient = 16;

/**
 * The `index`-th run client `client` submits: its (index mod 16)-th
 * spec, a QISMET run of a Table-1 app with a 200-400 job budget; one
 * spec in four carries a single planned crash early in the run, which
 * only durable schedulers execute.
 */
qismet::ServeJobSpec serveSpec(std::uint64_t seed, std::size_t client,
                               std::size_t index);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
