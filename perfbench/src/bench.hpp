/**
 * @file
 * Shared plumbing of the benchmark's workload runners: options, the
 * result record, and the measurements every workload reports.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Options
{
    Workload workload = Workload::FirstOrder;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for serve state and the trace dump. */
    std::string outDir = ".bench_build/perfbench-out";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One benchmark run's verdict and metrics (the final JSON line). */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the JSON line. */
    std::vector<std::string> report;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a failed check; it fails the whole benchmark run. */
    void fail(const std::string &why);
};

/**
 * setup_s is the median of set-up repetitions timed in kSetupBlocks
 * blocks spread evenly over the measurement, so that it samples the
 * machine over the whole run as the throughput does; the machine's
 * speed drifts within seconds. A block repeats the set-up until it has
 * lasted kSetupBlockSeconds.
 */
inline constexpr int kSetupBlocks = 20;
inline constexpr double kSetupBlockSeconds = 0.03;

void timeSetupBlock(const std::function<void()> &setup,
                    std::vector<double> &samples,
                    const std::function<void()> &teardown = {});

/** VmHWM of this process in MiB. */
double peakRssMb();

/** Seconds elapsed since a nowNs() stamp. */
double secondsSince(std::int64_t start_ns);

/**
 * Run fn(0..n-1) on `threads` threads, each taking the next index as
 * it becomes free; exceptions are rethrown after every thread has
 * joined.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &fn);

/** printf-style line for Outcome::report. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

Outcome runSweepWorkload(const Options &opts);
Outcome runServeWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
