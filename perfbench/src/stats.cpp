#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        throw std::invalid_argument("percentile: empty sample");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("percentile: q outside [0, 1]");
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        throw std::invalid_argument("mean: empty sample");
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const auto lo = static_cast<std::size_t>(
        std::floor(q * static_cast<double>(n - 1)));
    return n - 1 - lo;
}

bool
tailReportable(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= kMinTailSamples;
}

} // namespace perfbench
