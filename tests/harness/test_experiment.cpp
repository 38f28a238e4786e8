#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/differential.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

PhaseConfig quick_phases() {
  PhaseConfig p;
  p.warmup_cycles = 50'000;
  p.profile_cycles = 400'000;
  p.measure_cycles = 400'000;
  return p;
}

Experiment make_experiment() {
  static const auto apps = workload::resolve_mix(workload::fig1_mix());
  return Experiment(SystemConfig{}, apps, quick_phases());
}

TEST(PhaseConfig, PaperScaleSetsTheSectionVBWindows) {
  const PhaseConfig p = PhaseConfig::paper_scale();
  EXPECT_EQ(p.warmup_cycles, 2'000'000u);
  EXPECT_EQ(p.profile_cycles, 10'000'000u);
  EXPECT_EQ(p.measure_cycles, 10'000'000u);
  // The zero-argument form resets the non-cycle knobs to their defaults.
  EXPECT_FALSE(p.oracle_alone);
  EXPECT_EQ(p.reprofile_period, 0u);
  EXPECT_EQ(p.seed, PhaseConfig{}.seed);
}

TEST(PhaseConfig, PaperScaleOverloadCarriesNonCycleKnobsForward) {
  PhaseConfig base;
  base.oracle_alone = true;
  base.reprofile_period = 123'456;
  base.seed = 777;
  base.warmup_cycles = 1;  // must be overridden
  const PhaseConfig p = PhaseConfig::paper_scale(base);
  EXPECT_EQ(p.warmup_cycles, 2'000'000u);
  EXPECT_EQ(p.profile_cycles, 10'000'000u);
  EXPECT_EQ(p.measure_cycles, 10'000'000u);
  EXPECT_TRUE(p.oracle_alone);
  EXPECT_EQ(p.reprofile_period, 123'456u);
  EXPECT_EQ(p.seed, 777u);
}

TEST(Experiment, RunProducesCompleteResult) {
  const RunResult r = make_experiment().run(core::Scheme::Equal);
  EXPECT_EQ(r.scheme, core::Scheme::Equal);
  ASSERT_EQ(r.params.size(), 4u);
  ASSERT_EQ(r.ipc_shared.size(), 4u);
  ASSERT_EQ(r.apc_shared.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(r.params[i].apc_alone, 0.0);
    EXPECT_GT(r.params[i].api, 0.0);
    EXPECT_GT(r.ipc_shared[i], 0.0);
    EXPECT_GT(r.apc_shared[i], 0.0);
  }
  EXPECT_GT(r.hsp, 0.0);
  EXPECT_GT(r.wsp, 0.0);
  EXPECT_GT(r.ipcsum, 0.0);
  EXPECT_GT(r.min_fairness, 0.0);
  EXPECT_GT(r.bus_utilization, 0.5);
}

TEST(Experiment, ProfiledApiMatchesBenchmarkApi) {
  // API is invariant under sharing, so the online profile must recover it.
  const RunResult r = make_experiment().run(core::Scheme::NoPartitioning);
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_NEAR(r.params[i].api, apps[i].api, apps[i].api * 0.15)
        << apps[i].name;
  }
}

TEST(Experiment, TotalBandwidthConstantAcrossSchemes) {
  // Eq. 2's premise: partitioning does not change utilized bandwidth B.
  const Experiment exp = make_experiment();
  const double b_equal = exp.run(core::Scheme::Equal).total_apc;
  const double b_sqrt = exp.run(core::Scheme::SquareRoot).total_apc;
  const double b_prop = exp.run(core::Scheme::Proportional).total_apc;
  EXPECT_NEAR(b_sqrt, b_equal, b_equal * 0.06);
  EXPECT_NEAR(b_prop, b_equal, b_equal * 0.06);
}

TEST(Experiment, MetricAccessorConsistent) {
  const RunResult r = make_experiment().run(core::Scheme::SquareRoot);
  EXPECT_DOUBLE_EQ(r.metric(core::Metric::HarmonicWeightedSpeedup), r.hsp);
  EXPECT_DOUBLE_EQ(r.metric(core::Metric::MinFairness), r.min_fairness);
  EXPECT_DOUBLE_EQ(r.metric(core::Metric::WeightedSpeedup), r.wsp);
  EXPECT_DOUBLE_EQ(r.metric(core::Metric::IpcSum), r.ipcsum);
}

TEST(Experiment, OracleProfilingMatchesStandaloneRuns) {
  PhaseConfig phases = quick_phases();
  phases.oracle_alone = true;
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  const Experiment exp(SystemConfig{}, apps, phases);
  const RunResult r = exp.run(core::Scheme::Equal);
  // Oracle parameters are measured standalone; compare against a direct
  // standalone profile.
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const core::AppParams direct =
        profile_standalone(SystemConfig{}, apps[i], phases);
    EXPECT_NEAR(r.params[i].apc_alone, direct.apc_alone,
                direct.apc_alone * 0.02);
  }
}

TEST(Experiment, ReprofilingKeepsRunningAndStaysClose) {
  PhaseConfig phases = quick_phases();
  phases.reprofile_period = 100'000;
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  const Experiment exp(SystemConfig{}, apps, phases);
  const RunResult with_reprofile = exp.run(core::Scheme::SquareRoot);

  const Experiment exp2(SystemConfig{}, apps, quick_phases());
  const RunResult without = exp2.run(core::Scheme::SquareRoot);
  // Stationary workloads: periodic re-profiling must not change results
  // drastically.
  EXPECT_NEAR(with_reprofile.hsp, without.hsp, without.hsp * 0.15);
}

TEST(Experiment, QosRunHoldsTargetIpc) {
  const auto apps = workload::resolve_mix(workload::qos_mix2());
  PhaseConfig phases = quick_phases();
  const Experiment exp(SystemConfig{}, apps, phases);
  // hmmer is app index 3 in qos-mix-2; target 0.6 as in Fig. 3.
  const core::QosRequirement req{3, 0.6};
  const RunResult r = exp.run_qos(std::span(&req, 1), core::Scheme::SquareRoot);
  EXPECT_NEAR(r.ipc_shared[3], 0.6, 0.08);
}

TEST(Experiment, QosBestEffortBeatsNoPartitioningThroughput) {
  const auto apps = workload::resolve_mix(workload::qos_mix1());
  PhaseConfig phases = quick_phases();
  const Experiment exp(SystemConfig{}, apps, phases);
  const core::QosRequirement req{3, 0.6};
  const RunResult qos = exp.run_qos(std::span(&req, 1), core::Scheme::PriorityApi);
  const RunResult base = exp.run(core::Scheme::NoPartitioning);
  // Best-effort IPC sum (apps 0..2) should improve over No_partitioning,
  // as in Fig. 3.
  const double qos_be = qos.ipc_shared[0] + qos.ipc_shared[1] + qos.ipc_shared[2];
  const double base_be =
      base.ipc_shared[0] + base.ipc_shared[1] + base.ipc_shared[2];
  EXPECT_GT(qos_be, base_be);
}

TEST(ProfileStandalone, ReproducesCalibratedClasses) {
  // Spot-check three benchmarks spanning the intensity classes.
  PhaseConfig phases = quick_phases();
  const SystemConfig cfg;
  const auto& lbm = workload::find_benchmark("lbm");
  const auto& hmmer = workload::find_benchmark("hmmer");
  const auto& namd = workload::find_benchmark("namd");
  EXPECT_EQ(classify_intensity(
                profile_standalone(cfg, lbm, phases).apc_alone * 1000),
            Intensity::High);
  EXPECT_EQ(classify_intensity(
                profile_standalone(cfg, hmmer, phases).apc_alone * 1000),
            Intensity::Middle);
  EXPECT_EQ(classify_intensity(
                profile_standalone(cfg, namd, phases).apc_alone * 1000),
            Intensity::Low);
}

// measure_phase turns interference accounting off unless the rolling
// re-profiler runs. Forking one profile snapshot into a measure phase with
// accounting on and one with it off, both set up as measure_phase sets
// them up, must give bit-identical measurements, and the switched-off
// counters must stay at zero.
TEST(Experiment, MeasureWithoutInterferenceAccountingIsBitIdentical) {
  const Experiment ex = make_experiment();
  const ProfileSnapshot snap = ex.capture_profile();
  const std::size_t n = ex.apps().size();
  for (const core::Scheme scheme :
       {core::Scheme::NoPartitioning, core::Scheme::SquareRoot,
        core::Scheme::PriorityApc}) {
    std::vector<std::unique_ptr<CmpSystem>> runs;
    for (const bool accounting : {true, false}) {
      auto sys = std::make_unique<CmpSystem>(ex.system_config(), ex.apps(),
                                             ex.phases().seed);
      snap::Reader r(snap.state);
      sys->restore_state(r);
      sys->controller().replace_scheduler(
          make_scheduler(scheme, n, snap.params,
                         ex.system_config().dstf_row_hit_window));
      sys->controller().set_admission_mode(
          scheme == core::Scheme::NoPartitioning ? mem::AdmissionMode::Shared
                                                 : mem::AdmissionMode::PerApp);
      sys->set_interference_accounting(accounting);
      sys->reset_measurement();
      sys->run(ex.phases().measure_cycles);
      runs.push_back(std::move(sys));
    }
    const CmpSystem& on = *runs[0];
    const CmpSystem& off = *runs[1];
    const std::string name = core::to_string(scheme);
    EXPECT_EQ(on.measured_ipc(), off.measured_ipc()) << name;
    EXPECT_EQ(on.measured_apc(), off.measured_apc()) << name;
    EXPECT_EQ(on.measured_total_apc(), off.measured_total_apc()) << name;
    EXPECT_EQ(on.bus_utilization(), off.bus_utilization()) << name;
    Cycle on_total = 0;
    for (const profile::AppCounters& c : off.profiler_counters()) {
      EXPECT_EQ(c.interference_cycles, 0u) << name;
    }
    for (const profile::AppCounters& c : on.profiler_counters()) {
      on_total += c.interference_cycles;
    }
    EXPECT_GT(on_total, 0u) << name;
  }
  // And the fork, which runs without accounting, still reproduces the
  // straight run.
  EXPECT_EQ(fingerprint(ex.measure_from(snap, core::Scheme::SquareRoot)),
            fingerprint(ex.run(core::Scheme::SquareRoot)));
}

// With reprofile_period > 0 the measure phase keeps accounting on: the
// rolling re-profiler's estimates must see real interference, and the fork
// must still reproduce the straight run. With one period spanning the
// whole window the final estimate is accesses / (window - interference),
// which exceeds the app's measured shared APC exactly when interference was
// attributed to it.
TEST(Experiment, RollingReprofileStillSeesInterference) {
  static const auto apps = workload::resolve_mix(workload::fig1_mix());
  PhaseConfig phases = quick_phases();
  phases.reprofile_period = phases.measure_cycles;
  const Experiment ex(SystemConfig{}, apps, phases);
  const ProfileSnapshot snap = ex.capture_profile();
  const RunResult r = ex.run(core::Scheme::SquareRoot);
  ASSERT_EQ(r.params.size(), apps.size());
  std::size_t interfered = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_GE(r.params[i].apc_alone, r.apc_shared[i]) << apps[i].name;
    if (r.params[i].apc_alone > r.apc_shared[i]) ++interfered;
  }
  EXPECT_EQ(interfered, apps.size());
  EXPECT_NE(r.params[0].apc_alone, snap.params[0].apc_alone)
      << "the rolling update never replaced the profile estimate";
  EXPECT_EQ(fingerprint(ex.measure_from(snap, core::Scheme::SquareRoot)),
            fingerprint(r));

  // Several updates inside the window: fork and straight run still agree.
  phases.reprofile_period = phases.measure_cycles / 4;
  const Experiment ex4(SystemConfig{}, apps, phases);
  EXPECT_EQ(fingerprint(ex4.measure_from(ex4.capture_profile(),
                                         core::Scheme::Proportional)),
            fingerprint(ex4.run(core::Scheme::Proportional)));
}

}  // namespace
}  // namespace bwpart::harness
