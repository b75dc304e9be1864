/**
 * @file
 * Order statistics and means for the benchmark's reports.
 *
 * Percentiles interpolate linearly between order statistics (the
 * "type 7" rule: position q·(n-1)). A tail percentile is reported only
 * when at least kMinTailSamples samples lie strictly beyond its
 * position, so a p90 needs at least 100 samples.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * The q-quantile (q in [0, 1]) of `samples` with linear interpolation.
 * @throws std::invalid_argument on an empty sample or q outside [0, 1].
 */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 0.5). */
double median(std::vector<double> samples);

/**
 * Arithmetic mean of `samples`.
 * @throws std::invalid_argument on an empty sample.
 */
double mean(const std::vector<double> &samples);

/** Samples lying strictly beyond the q-quantile's position, n-1-floor(q(n-1)). */
std::size_t samplesBeyond(std::size_t n, double q);

/** True when the q-quantile of n samples has kMinTailSamples beyond it. */
bool tailReportable(std::size_t n, double q);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
