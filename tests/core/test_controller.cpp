/** @file Tests for the gradient-faithful controller (paper Fig. 9). */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/controller.hpp"

namespace qismet {
namespace {

EvalContext
makeContext(double e_prev, double e_rerun, double e_curr, int retry = 0)
{
    EvalContext ctx;
    ctx.ePrev = e_prev;
    ctx.eCurr = e_curr;
    ctx.hasReference = true;
    ctx.eReferenceRerun = e_rerun;
    ctx.retryIndex = retry;
    return ctx;
}

QismetControllerConfig
absoluteConfig(double threshold)
{
    // mixedEnergy far away and relativeThreshold tiny so the noise
    // floor acts as an absolute threshold — convenient for table tests.
    QismetControllerConfig cfg;
    cfg.relativeThreshold = 0.0;
    cfg.noiseFloor = threshold;
    cfg.mixedEnergy = 0.0;
    cfg.retryBudget = 5;
    return cfg;
}

/**
 * The six Fig. 9 scenarios. Values chosen so |T_m| is well outside the
 * 0.05 threshold band whenever a transient is present.
 */
struct Fig9Case
{
    const char *name;
    double ePrev, eRerun, eCurr;
    bool accept;
};

// Print the scenario by name. Without this gtest prints the struct's
// raw bytes (including the `name` pointer), so the discovered ctest
// names would change from build to build.
void
PrintTo(const Fig9Case &c, std::ostream *os)
{
    *os << c.name;
}

class Fig9Test : public ::testing::TestWithParam<Fig9Case>
{
};

TEST_P(Fig9Test, ControllerMatchesPaper)
{
    const auto &c = GetParam();
    GradientFaithfulController ctrl(absoluteConfig(0.05));
    const Decision d = ctrl.judgeEvaluation(
        makeContext(c.ePrev, c.eRerun, c.eCurr));
    EXPECT_EQ(d == Decision::Accept, c.accept) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Fig9Test,
    ::testing::Values(
        // (a) large positive transient, both gradients still positive.
        Fig9Case{"a_pos_transient_pos_gradients", -2.0, -1.5, -1.2, true},
        // (b) small transient, both gradients positive.
        Fig9Case{"b_small_transient_pos_gradients", -2.0, -1.98, -1.5,
                 true},
        // (c) machine gradient positive only because of the transient:
        // prediction flips negative -> reject.
        Fig9Case{"c_bad_perceived_good", -2.0, -1.2, -1.5, false},
        // (d) both gradients negative, small transient.
        Fig9Case{"d_small_transient_neg_gradients", -2.0, -2.02, -2.5,
                 true},
        // (e) both gradients negative despite a transient.
        Fig9Case{"e_transient_neg_gradients", -2.0, -1.8, -2.5, true},
        // (f) inverse of (c): good config perceived bad -> reject.
        Fig9Case{"f_good_perceived_bad", -2.0, -2.8, -2.3, false}));

TEST(Controller, PinkBandAcceptsSmallSwings)
{
    // Sign flip but |T_m| inside the band: accept (Fig. 9's pink region).
    GradientFaithfulController ctrl(absoluteConfig(0.10));
    const Decision d =
        ctrl.judgeEvaluation(makeContext(-2.0, -1.96, -1.99));
    EXPECT_EQ(d, Decision::Accept);
}

TEST(Controller, RetryBudgetExhaustionAccepts)
{
    QismetControllerConfig cfg = absoluteConfig(0.05);
    cfg.retryBudget = 3;
    GradientFaithfulController ctrl(cfg);

    // The (c) scenario: rejected until the budget is spent.
    for (int retry = 0; retry < 3; ++retry)
        EXPECT_EQ(ctrl.judgeEvaluation(
                      makeContext(-2.0, -1.2, -1.5, retry)),
                  Decision::Retry);
    EXPECT_EQ(ctrl.judgeEvaluation(makeContext(-2.0, -1.2, -1.5, 3)),
              Decision::Accept);
}

TEST(Controller, NoReferenceMeansAccept)
{
    GradientFaithfulController ctrl(absoluteConfig(0.05));
    EvalContext ctx;
    ctx.hasReference = false;
    ctx.eCurr = 100.0;
    EXPECT_EQ(ctrl.judgeEvaluation(ctx), Decision::Accept);
}

TEST(Controller, SkipAccounting)
{
    GradientFaithfulController ctrl(absoluteConfig(0.05));
    ctrl.judgeEvaluation(makeContext(-2.0, -1.2, -1.5)); // reject
    ctrl.judgeEvaluation(makeContext(-2.0, -1.5, -1.2)); // accept (a)
    EXPECT_EQ(ctrl.judged(), 2u);
    EXPECT_EQ(ctrl.skipsIssued(), 1u);
    EXPECT_DOUBLE_EQ(ctrl.skipFraction(), 0.5);
    ctrl.reset();
    EXPECT_EQ(ctrl.judged(), 0u);
    EXPECT_DOUBLE_EQ(ctrl.skipFraction(), 0.0);
}

TEST(Controller, RelativeThresholdScalesWithSwing)
{
    QismetControllerConfig cfg;
    cfg.relativeThreshold = 0.10;
    cfg.noiseFloor = 0.0;
    cfg.mixedEnergy = 0.0;
    GradientFaithfulController ctrl(cfg);
    // Near the mixed energy the band is tight; far from it, wide.
    EXPECT_NEAR(ctrl.effectiveThreshold(-0.5), 0.05, 1e-12);
    EXPECT_NEAR(ctrl.effectiveThreshold(-5.0), 0.50, 1e-12);
}

TEST(Controller, CorrectedFeedAboveThresholdOnly)
{
    QismetControllerConfig cfg = absoluteConfig(0.30);
    cfg.correctedFeed = true;
    GradientFaithfulController ctrl(cfg);

    // First evaluation: feed equals the measurement.
    EvalContext first;
    first.hasReference = false;
    first.eCurr = -2.0;
    EXPECT_DOUBLE_EQ(ctrl.energyForOptimizer(first), -2.0);

    // Transient 0.6 > 0.30: corrected to E_p = eCurr - transient.
    const auto big = makeContext(-2.0, -1.4, -1.1);
    EXPECT_DOUBLE_EQ(ctrl.energyForOptimizer(big), -1.1 - 0.6);

    // Small transient relative to the *fed* baseline: trusted as-is.
    const auto small = makeContext(-1.7, -1.65, -1.6);
    EXPECT_DOUBLE_EQ(ctrl.energyForOptimizer(small), -1.6);
}

TEST(Controller, CorrectedFeedDisabledReturnsMeasurement)
{
    QismetControllerConfig cfg = absoluteConfig(0.05);
    cfg.correctedFeed = false;
    GradientFaithfulController ctrl(cfg);
    const auto ctx = makeContext(-2.0, -1.0, -1.1);
    EXPECT_DOUBLE_EQ(ctrl.energyForOptimizer(ctx), -1.1);
}

TEST(Controller, Validation)
{
    QismetControllerConfig cfg;
    cfg.relativeThreshold = -0.1;
    EXPECT_THROW(GradientFaithfulController{cfg}, std::invalid_argument);
    cfg = {};
    cfg.retryBudget = 0;
    EXPECT_THROW(GradientFaithfulController{cfg}, std::invalid_argument);
}

TEST(OnlyTransientsPolicy, SkipsOnMagnitudeAlone)
{
    // Scenario (a): big transient with preserved gradient direction.
    // QISMET accepts it; only-transients skips it — the paper's key
    // distinction (Section 5.3).
    OnlyTransientsPolicy ot(/*relative_threshold=*/0.0,
                            /*noise_floor=*/0.05, /*mixed_energy=*/0.0,
                            /*retry_budget=*/5);
    GradientFaithfulController qismet(absoluteConfig(0.05));

    const auto scenario_a = makeContext(-2.0, -1.5, -1.2);
    EXPECT_EQ(qismet.judgeEvaluation(scenario_a), Decision::Accept);
    EXPECT_EQ(ot.judgeEvaluation(scenario_a), Decision::Retry);
}

TEST(OnlyTransientsPolicy, AcceptsBelowThreshold)
{
    OnlyTransientsPolicy ot(0.0, 0.5, 0.0, 5);
    EXPECT_EQ(ot.judgeEvaluation(makeContext(-2.0, -1.9, -1.5)),
              Decision::Accept);
}

TEST(KalmanPolicy, AlwaysAcceptsAndFilters)
{
    KalmanParams kp;
    kp.measurementVariance = 1e-4;
    KalmanPolicy policy(kp);
    EXPECT_EQ(policy.judgeEvaluation(makeContext(0, 0, 0)),
              Decision::Accept);
    EXPECT_DOUBLE_EQ(policy.transformEnergy(-1.0), -1.0); // initializes
    // Low MV: follows the measurement closely.
    EXPECT_NEAR(policy.transformEnergy(-2.0), -2.0, 0.05);
    policy.reset();
    EXPECT_DOUBLE_EQ(policy.transformEnergy(5.0), 5.0);
}

} // namespace
} // namespace qismet
