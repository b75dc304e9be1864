#include "bench.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "trace.hpp"

namespace perfbench {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    report.push_back("CHECK FAILED: " + why);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

void
timeSetupBlock(const std::function<void()> &setup,
               std::vector<double> &samples,
               const std::function<void()> &teardown)
{
    double block_s = 0.0;
    do {
        if (teardown)
            teardown();
        const std::int64_t t0 = nowNs();
        setup();
        samples.push_back(secondsSince(t0));
        block_s += samples.back();
    } while (block_s < kSetupBlockSeconds);
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    std::atomic<std::size_t> next{0};
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            try {
                for (std::size_t i = next++; i < n; i = next++)
                    fn(i);
            }
            catch (...) {
                errors[t] = std::current_exception();
            }
        });
    for (std::thread &th : pool)
        th.join();
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace perfbench
