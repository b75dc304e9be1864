/**
 * @file
 * perfbench: the end-to-end VQA benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) report the per-layer metrics and write the spans. The
 * last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is 0 only when every output check passed.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = parseWorkload(val);
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--out-dir") {
            o.outDir = val;
        } else {
            usage("unknown argument " + arg);
        }
        if (end != nullptr && *end != '\0')
            usage("malformed value for " + arg);
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

void
printOutcome(const Outcome &out)
{
    for (const std::string &line : out.report)
        std::printf("%s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        if (!std::isfinite(m.value))
            throw std::logic_error("metric " + m.name + " is not finite");
        json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", m.name.c_str(), m.value,
                       m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        const Options opts = parseOptions(argc, argv);
        // Every run executes its circuits inline on the calling thread.
        qismet::ParallelExecutor::setGlobalThreads(1);
        const Outcome out = opts.workload == Workload::ServeTenants
                                ? runServeWorkload(opts)
                                : runSweepWorkload(opts);
        printOutcome(out);
        return out.correct && out.failed == 0 ? 0 : 1;
    }
    catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
