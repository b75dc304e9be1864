#include "traced_run.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/experiment_runner.hpp"
#include "core/controller.hpp"
#include "optim/spsa_variants.hpp"
#include "vqe/job.hpp"
#include "vqe/run_digest.hpp"
#include "vqe/vqe_driver.hpp"

namespace perfbench {

using namespace qismet;

TraceNames::TraceNames(Tracer &t)
    : run(t.nameId("vqe.run")), setup(t.nameId("vqe.setup")),
      trace(t.nameId("noise.trace")),
      calibrate(t.nameId("core.calibrate")),
      driver(t.nameId("vqe.driver")), plan(t.nameId("optim.plan")),
      propose(t.nameId("optim.propose")), judge(t.nameId("core.judge"))
{
}

namespace {

class TracedOptimizer : public StochasticOptimizer
{
  public:
    TracedOptimizer(StochasticOptimizer &inner, Tracer &tracer,
                    const TraceNames &names, std::uint64_t run,
                    std::size_t stride, TracedRunStats &stats)
        : inner_(inner), tracer_(tracer), names_(names), run_(run),
          stride_(std::max<std::size_t>(1, stride)), stats_(stats)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::vector<std::vector<double>> plan(const std::vector<double> &theta,
                                          int k, Rng &rng) override
    {
        std::vector<std::vector<double>> points;
        {
            SpanScope s(tracer_, names_.plan, run_);
            points = inner_.plan(theta, k, rng);
        }
        if (plans_++ % stride_ == 0 && !points.empty())
            stats_.thetaSample.push_back(points.front());
        return points;
    }

    std::vector<double> propose(const std::vector<double> &theta, int k,
                                const std::vector<double> &energies) override
    {
        for (double e : energies)
            stats_.finiteEnergies = stats_.finiteEnergies && std::isfinite(e);
        SpanScope s(tracer_, names_.propose, run_);
        return inner_.propose(theta, k, energies);
    }

    double evaluationCostFactor() const override
    {
        return inner_.evaluationCostFactor();
    }
    void saveState(Encoder &enc) const override { inner_.saveState(enc); }
    void loadState(Decoder &dec) override { inner_.loadState(dec); }

  private:
    StochasticOptimizer &inner_;
    Tracer &tracer_;
    const TraceNames &names_;
    std::uint64_t run_;
    std::size_t stride_;
    std::size_t plans_ = 0;
    TracedRunStats &stats_;
};

class TracedPolicy : public TuningPolicy
{
  public:
    TracedPolicy(TuningPolicy &inner, Tracer &tracer,
                 const TraceNames &names, std::uint64_t run,
                 TracedRunStats &stats)
        : inner_(inner), tracer_(tracer), names_(names), run_(run),
          stats_(stats)
    {
    }

    std::string name() const override { return inner_.name(); }
    bool wantsReferenceRerun() const override
    {
        return inner_.wantsReferenceRerun();
    }
    Decision judgeEvaluation(const EvalContext &ctx) override
    {
        Decision d = Decision::Accept;
        {
            SpanScope s(tracer_, names_.judge, run_);
            d = inner_.judgeEvaluation(ctx);
        }
        ++stats_.judgements;
        if (d == Decision::Retry)
            ++stats_.retries;
        return d;
    }
    bool acceptMove(double e_iter_prev, double e_iter_new) override
    {
        return inner_.acceptMove(e_iter_prev, e_iter_new);
    }
    double energyForOptimizer(const EvalContext &ctx) override
    {
        return inner_.energyForOptimizer(ctx);
    }
    double transformEnergy(double e_measured) override
    {
        return inner_.transformEnergy(e_measured);
    }
    void reset() override { inner_.reset(); }
    void saveState(Encoder &enc) const override { inner_.saveState(enc); }
    void loadState(Decoder &dec) override { inner_.loadState(dec); }

  private:
    TuningPolicy &inner_;
    Tracer &tracer_;
    const TraceNames &names_;
    std::uint64_t run_;
    TracedRunStats &stats_;
};

} // namespace

QismetVqeResult
tracedRun(const Application &app, const QismetVqeConfig &config,
          Tracer &tracer, const TraceNames &names, std::uint64_t run_id,
          std::size_t theta_stride, TracedRunStats &stats)
{
    if (config.scheme != Scheme::Baseline &&
        config.scheme != Scheme::Qismet &&
        config.scheme != Scheme::SecondOrder)
        throw std::invalid_argument("tracedRun: unsupported scheme");
    if (config.faults.enabled() || !config.checkpointDir.empty() ||
        config.deadlineSimSeconds > 0.0 || !config.initialTheta.empty())
        throw std::invalid_argument("tracedRun: unsupported configuration");

    SpanScope run_span(tracer, names.run, run_id);
    const QismetVqe runner = app.makeRunner();
    MachineModel machine = app.machine;
    if (config.transientScale >= 0.0)
        machine.transient.scale = config.transientScale;
    const EstimatorConfig est_cfg = config.estimator;
    const int num_params = app.ansatzCircuit.numParams();

    // The pipeline below mirrors QismetVqe::run step for step.
    std::optional<EnergyEstimator> estimator;
    {
        SpanScope s(tracer, names.setup, run_id);
        estimator.emplace(app.hamiltonian, app.ansatzCircuit,
                          machine.staticModel(), est_cfg);
    }
    TransientTrace trace;
    {
        SpanScope s(tracer, names.trace, run_id);
        trace = machine.traceGenerator(config.traceVersion)
                    .generate(config.totalJobs + 8);
    }
    const int mitigation_circuits =
        (est_cfg.mode == EstimatorMode::Sampling &&
         est_cfg.mitigateMeasurement)
            ? MeasurementMitigator::kCalibrationCircuits
            : 0;
    JobExecutor executor(*estimator, trace,
                         config.seed * 0x5851F42Dull + 1,
                         config.intraJobJitter,
                         config.intraJobRelativeJitter, mitigation_circuits);

    SpsaGains gains = SpsaGains::forHorizon(
        config.totalJobs,
        config.spsaInitialStep / std::sqrt(static_cast<double>(num_params)),
        config.spsaPerturbation);
    gains.a *= std::min(4.0, 1.0 / std::max(0.05,
                                            estimator->staticSurvival()));
    std::unique_ptr<StochasticOptimizer> optimizer;
    if (config.scheme == Scheme::SecondOrder)
        optimizer = std::make_unique<SecondOrderSpsa>(gains);
    else
        optimizer = std::make_unique<Spsa>(gains);

    std::unique_ptr<TuningPolicy> policy;
    double threshold_used = 0.0;
    if (config.scheme == Scheme::Qismet) {
        double shot_var = 0.0;
        for (const auto &t : app.hamiltonian.terms())
            if (!t.pauli.isIdentity())
                shot_var += t.coefficient * t.coefficient /
                            static_cast<double>(est_cfg.shots);
        const double jitter_energy =
            config.intraJobJitter * runner.energyScale();
        const double tm_sigma = std::sqrt(
            2.0 * shot_var + 2.0 * jitter_energy * jitter_energy);
        QismetControllerConfig cc;
        {
            SpanScope s(tracer, names.calibrate, run_id);
            cc.relativeThreshold = runner.calibratedThreshold(
                SkipTargets::kDefault, config.traceVersion,
                config.transientScale);
        }
        cc.noiseFloor = 1.0 * tm_sigma;
        cc.mixedEnergy = app.hamiltonian.identityCoefficient();
        cc.retryBudget = config.retryBudget;
        cc.correctedFeed = config.qismetCorrectedFeed;
        cc.adaptiveThreshold = false;
        cc.adaptiveSkipTarget = SkipTargets::kDefault;
        threshold_used = cc.relativeThreshold;
        policy = std::make_unique<GradientFaithfulController>(cc);
    } else {
        policy = std::make_unique<AlwaysAcceptPolicy>();
    }

    VqeDriverConfig dcfg;
    dcfg.totalJobs = config.totalJobs;
    dcfg.seed = config.seed;
    dcfg.retry = config.faultRetry;
    dcfg.retry.maxRetries = config.retryBudget;

    std::vector<double> theta0(static_cast<std::size_t>(num_params));
    Rng init_rng(config.seed ^ 0xA5A5A5A5ull);
    for (auto &t : theta0)
        t = init_rng.uniform(-M_PI, M_PI);

    TracedOptimizer traced_opt(*optimizer, tracer, names, run_id,
                               theta_stride, stats);
    TracedPolicy traced_policy(*policy, tracer, names, run_id, stats);
    VqeDriver driver(*estimator, executor, traced_opt, traced_policy, dcfg);

    QismetVqeResult result;
    result.scheme = schemeName(config.scheme);
    {
        SpanScope s(tracer, names.driver, run_id);
        result.run = driver.run(theta0);
    }
    result.exactGroundEnergy = app.exactGroundEnergy;
    result.mixedEnergy = app.hamiltonian.identityCoefficient();
    result.errorThreshold = threshold_used;
    if (auto *ctrl = dynamic_cast<GradientFaithfulController *>(policy.get()))
        result.skipFraction = ctrl->skipFraction();

    stats.circuits += executor.circuitsExecuted();
    const std::uint64_t estimates =
        (executor.circuitsExecuted() -
         executor.jobsExecuted() *
             static_cast<std::size_t>(mitigation_circuits)) /
        estimator->numGroups();
    stats.estimates += estimates;
    if (est_cfg.mode == EstimatorMode::Sampling)
        stats.sampledGroups += estimates * estimator->numGroups();
    return result;
}

RunSummary
summarize(const QismetVqeResult &result)
{
    RunSummary s;
    s.digest = trajectoryDigest(result.run);
    s.finalTheta = result.run.finalTheta;
    s.finalIdealEnergy = result.run.finalIdealEnergy;
    s.finalEstimate = result.run.finalEstimate;
    s.mixedEnergy = result.mixedEnergy;
    s.exactGroundEnergy = result.exactGroundEnergy;
    s.jobs = result.run.jobsUsed;
    return s;
}

bool
sameRun(const RunSummary &a, const RunSummary &b)
{
    const auto &ta = a.finalTheta;
    const auto &tb = b.finalTheta;
    return a.digest == b.digest && ta.size() == tb.size() &&
           std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(double)) ==
               0 &&
           std::memcmp(&a.finalIdealEnergy, &b.finalIdealEnergy,
                       sizeof(double)) == 0;
}

std::string
runProblems(const QismetVqeResult &result)
{
    const VqeRunResult &run = result.run;
    for (const VqeJobRecord &rec : run.history)
        if (!std::isfinite(rec.eMeasured))
            return "non-finite estimate in job " +
                   std::to_string(rec.jobIndex);
    for (double e : run.iterationEnergies)
        if (!std::isfinite(e))
            return "non-finite iteration energy";
    if (!std::isfinite(run.finalEstimate) ||
        !std::isfinite(run.finalIdealEnergy))
        return "non-finite final energy";
    if (run.finalIdealEnergy < result.exactGroundEnergy - 1e-9)
        return "final ideal energy below the exact ground energy";
    return {};
}

double
fidelityOf(const RunSummary &run)
{
    return vqaFidelity(run.finalEstimate, run.mixedEnergy,
                       run.exactGroundEnergy);
}

} // namespace perfbench
