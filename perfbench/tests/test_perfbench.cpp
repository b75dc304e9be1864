/**
 * @file
 * Unit tests of the benchmark's own helpers: order statistics, means,
 * the tail sample-count rule, span self-time arithmetic, set-up timing
 * blocks, parallelFor, and the workload generators' seed determinism.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "apps/applications.hpp"
#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/** Busy-wait `seconds` of wall time. */
void
spinFor(double seconds)
{
    const std::int64_t start = nowNs();
    while (secondsSince(start) < seconds) {
    }
}

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 1.75);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 9.0}), 5.0);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Mean, AveragesAndRejectsEmptySample)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
    EXPECT_DOUBLE_EQ(mean({7.0}), 7.0);
    EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Percentile, RejectsEmptySampleAndBadQuantile)
{
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(TailRule, CountsSamplesStrictlyBeyondThePosition)
{
    EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
    EXPECT_EQ(samplesBeyond(1, 0.9), 0u);
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u); // position 89.1
    EXPECT_EQ(samplesBeyond(101, 0.9), 10u); // position exactly 90
    EXPECT_EQ(samplesBeyond(10, 0.5), 5u);   // position 4.5
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
}

TEST(TailRule, P90NeedsTenSamplesBeyondIt)
{
    // floor(0.9 * 90) = 81 leaves 9 beyond; floor(0.9 * 91) = 81 leaves 10.
    EXPECT_FALSE(tailReportable(91, 0.9));
    EXPECT_TRUE(tailReportable(92, 0.9));
    EXPECT_TRUE(tailReportable(100, 0.9));
    EXPECT_FALSE(tailReportable(12, 0.9));
    EXPECT_TRUE(tailReportable(20, 0.5));  // position 9.5
    EXPECT_FALSE(tailReportable(19, 0.5)); // position 9
}

Span
span(std::uint32_t parent, std::int64_t start, std::int64_t end)
{
    Span s;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals)
{
    // Root [0,100] with overlapping children [10,30] and [20,50] (union
    // 40) and one leaking past its end, [90,120] (clipped to 10).
    const std::vector<Span> spans = {
        span(kNoParent, 0, 100), span(0, 10, 30), span(0, 20, 50),
        span(0, 90, 120),
        // A grandchild only reduces its own parent's self time.
        span(1, 12, 18)};
    const std::vector<std::int64_t> self = selfTimes(spans);
    ASSERT_EQ(self.size(), 5u);
    EXPECT_EQ(self[0], 100 - 50);
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, LeafSpansKeepTheirWholeDuration)
{
    const std::vector<Span> spans = {span(kNoParent, 5, 9),
                                     span(kNoParent, 9, 20)};
    EXPECT_EQ(selfTimes(spans), (std::vector<std::int64_t>{4, 11}));
}

TEST(SelfTime, RejectsDanglingParents)
{
    EXPECT_THROW(selfTimes({span(3, 0, 1)}), std::invalid_argument);
}

TEST(Tracer, NestsSpansAndSumsSelfTimePerLayer)
{
    Tracer t;
    const std::uint32_t outer = t.nameId("vqe.driver");
    const std::uint32_t inner = t.nameId("optim.propose");
    EXPECT_EQ(t.nameId("vqe.driver"), outer);
    t.record(outer, 7, 0, 1000);
    t.record(inner, 7, 100, 400, 0);
    t.record(inner, 7, 500, 600, 0);
    {
        SpanScope s(t, outer, 8);
        SpanScope c(t, inner, 8);
    }
    ASSERT_EQ(t.spans().size(), 5u);
    EXPECT_EQ(t.spans()[4].parent, 3u);
    EXPECT_EQ(t.spans()[3].parent, kNoParent);
    EXPECT_EQ(t.spans()[4].run, 8u);

    const auto table = t.table();
    EXPECT_EQ(table.at("optim.propose").calls, 3u);
    const auto layers = Tracer::layerSelfSeconds(table);
    const double opt = table.at("optim.propose").selfSeconds;
    EXPECT_NEAR(layers.at("optim"), opt, 1e-15);
    EXPECT_GE(layers.at("vqe"), 600e-9);
    EXPECT_EQ(t.durations("optim.propose").size(), 3u);
    EXPECT_THROW(t.end(0), std::logic_error);
}

TEST(SetupBlock, RepeatsUntilItHasLastedItsTimeAndTearsDownFirst)
{
    std::vector<double> samples = {1.0};
    int setups = 0;
    int teardowns = 0;
    timeSetupBlock(
        [&] {
            EXPECT_EQ(teardowns, setups + 1);
            ++setups;
        },
        samples, [&] { ++teardowns; });
    // Empty set-ups take far less than the block's time, so the block
    // repeats them; it appends one sample per repetition.
    EXPECT_GT(setups, 1);
    EXPECT_EQ(samples.size(), static_cast<std::size_t>(setups) + 1);
    EXPECT_DOUBLE_EQ(samples.front(), 1.0);

    // A set-up slower than the block runs exactly once.
    samples.clear();
    timeSetupBlock([] { spinFor(kSetupBlockSeconds * 1.5); }, samples);
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_GE(samples.front(), kSetupBlockSeconds);
}

TEST(ParallelFor, RunsEveryIndexOnceAndRethrows)
{
    std::vector<std::atomic<int>> hits(37);
    parallelFor(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_THROW(parallelFor(5, 2,
                             [](std::size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(Workloads, SameSeedSameRuns)
{
    const auto apps = qismet::allApplications();
    for (Workload w : {Workload::FirstOrder, Workload::SecondOrder,
                       Workload::Sampling}) {
        const auto a = sweepRuns(w, 42, 3);
        const auto b = sweepRuns(w, 42, 3);
        const auto other = sweepRuns(w, 43, 3);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(a.size(), other.size());
        bool any_differs = false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const int params =
                apps[static_cast<std::size_t>(a[i].app - 1)]
                    .ansatzCircuit.numParams();
            EXPECT_EQ(a[i].app, b[i].app);
            EXPECT_EQ(qismet::runConfigDigest(a[i].config, params),
                      qismet::runConfigDigest(b[i].config, params));
            any_differs = any_differs ||
                          qismet::runConfigDigest(a[i].config, params) !=
                              qismet::runConfigDigest(other[i].config,
                                                      params);
        }
        EXPECT_TRUE(any_differs) << workloadName(w);
    }
}

TEST(Workloads, SweepsPairSchemesOnOneSeed)
{
    const auto runs = sweepRuns(Workload::FirstOrder, 9, 0);
    ASSERT_EQ(runs.size(), 12u);
    for (std::size_t i = 0; i < runs.size(); i += 2) {
        EXPECT_EQ(runs[i].config.scheme, qismet::Scheme::Baseline);
        EXPECT_EQ(runs[i + 1].config.scheme, qismet::Scheme::Qismet);
        EXPECT_EQ(runs[i].config.seed, runs[i + 1].config.seed);
    }
    EXPECT_NE(runs[0].config.seed, sweepRuns(Workload::FirstOrder, 9, 1)[0]
                                       .config.seed);
    EXPECT_EQ(sweepRuns(Workload::SecondOrder, 9, 0).size(), 6u);
    EXPECT_EQ(sweepRuns(Workload::Sampling, 9, 0)[0].config.estimator.mode,
              qismet::EstimatorMode::Sampling);
    EXPECT_THROW(sweepRuns(Workload::ServeTenants, 9, 0),
                 std::invalid_argument);
}

TEST(Workloads, SameSeedSameServeSpecs)
{
    std::size_t crashes = 0;
    for (std::size_t client = 0; client < kServeClients; ++client)
        for (std::size_t i = 0; i < 16; ++i) {
            const qismet::ServeJobSpec a = serveSpec(5, client, i);
            EXPECT_EQ(a.digest(), serveSpec(5, client, i).digest());
            EXPECT_NE(a.digest(), serveSpec(6, client, i).digest());
            EXPECT_EQ(a.digest(),
                      serveSpec(5, client, i + kServeSpecsPerClient).digest());
            EXPECT_NO_THROW(a.validate());
            EXPECT_EQ(a.tenantId, client + 1);
            EXPECT_GE(a.totalJobs, 200u);
            EXPECT_LE(a.totalJobs, 400u);
            if (!a.crashPlan.empty()) {
                ++crashes;
                ASSERT_EQ(a.crashPlan.size(), 1u);
                EXPECT_LT(a.crashPlan[0], a.totalJobs / 4);
            }
        }
    // One run in four carries a crash plan.
    EXPECT_GT(crashes, 16u);
    EXPECT_LT(crashes, 48u);
}

TEST(Workloads, NamesRoundTrip)
{
    for (Workload w : {Workload::FirstOrder, Workload::SecondOrder,
                       Workload::Sampling, Workload::ServeTenants})
        EXPECT_EQ(parseWorkload(workloadName(w)), w);
    EXPECT_THROW(parseWorkload("fig99"), std::invalid_argument);
}

} // namespace
} // namespace perfbench
