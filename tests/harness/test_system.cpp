#include "harness/system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../common/scoped_sweep_threads.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

SystemConfig small_cfg() { return SystemConfig{}; }

constexpr Cycle kPinnedSkippedCycles = 187'783;

TEST(SystemConfig, PeakApcMatchesPaperUnits) {
  // DDR2-400 at a 5 GHz core: 3.2 GB/s == 0.01 APC (Section III-A).
  EXPECT_NEAR(SystemConfig{}.peak_apc(), 0.01, 1e-9);
}

TEST(CmpSystem, ConstructsOneCorePerApp) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  EXPECT_EQ(sys.num_apps(), 4u);
  EXPECT_EQ(sys.benchmark(0).name, "libquantum");
}

TEST(CmpSystem, RunAdvancesTimeAndRetiresInstructions) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(100'000);
  EXPECT_EQ(sys.now(), 100'000u);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_GT(sys.core(a).stats().instructions, 0u) << "app " << a;
  }
}

TEST(CmpSystem, MeasuredApcSumsToTotal) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  sys.run(200'000);
  const auto apcs = sys.measured_apc();
  double sum = 0.0;
  for (double x : apcs) sum += x;
  EXPECT_NEAR(sum, sys.measured_total_apc(), 1e-12);
  EXPECT_GT(sum, 0.0);
  // Cannot exceed the physical peak.
  EXPECT_LE(sum, small_cfg().peak_apc() * 1.001);
}

TEST(CmpSystem, ResetMeasurementZeroesWindow) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_EQ(sys.core(a).stats().instructions, 0u);
  }
  EXPECT_EQ(sys.controller().app_stats(0).served(), 0u);
}

TEST(CmpSystem, ProfilerCountersAreMonotone) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  sys.run(100'000);
  const auto c1 = sys.profiler_counters();
  sys.run(100'000);
  const auto c2 = sys.profiler_counters();
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_GE(c2[i].accesses, c1[i].accesses);
    EXPECT_GE(c2[i].instructions, c1[i].instructions);
    EXPECT_GE(c2[i].interference_cycles, c1[i].interference_cycles);
  }
}

TEST(CmpSystem, SameSeedIsDeterministic) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem a(small_cfg(), apps, 99);
  CmpSystem b(small_cfg(), apps, 99);
  a.run(150'000);
  b.run(150'000);
  for (AppId i = 0; i < a.num_apps(); ++i) {
    EXPECT_EQ(a.core(i).stats().instructions, b.core(i).stats().instructions);
    EXPECT_EQ(a.controller().app_stats(i).served(),
              b.controller().app_stats(i).served());
  }
}

TEST(CmpSystem, DifferentSeedsDiverge) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem a(small_cfg(), apps, 1);
  CmpSystem b(small_cfg(), apps, 2);
  a.run(150'000);
  b.run(150'000);
  bool any_diff = false;
  for (AppId i = 0; i < a.num_apps(); ++i) {
    any_diff |= a.core(i).stats().instructions !=
                b.core(i).stats().instructions;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MakeScheduler, SchemesMapToExpectedPolicies) {
  const std::vector<core::AppParams> params{{0.005, 0.01}, {0.003, 0.02}};
  EXPECT_EQ(make_scheduler(core::Scheme::NoPartitioning, 2, params, 0.0)
                ->name(),
            "FCFS");
  EXPECT_EQ(make_scheduler(core::Scheme::Equal, 2, params, 0.0)->name(),
            "StartTimeFair");
  EXPECT_EQ(make_scheduler(core::Scheme::SquareRoot, 2, params, 0.0)->name(),
            "StartTimeFair");
  EXPECT_EQ(
      make_scheduler(core::Scheme::PriorityApc, 2, params, 0.0)->name(),
      "StrictPriority");
  EXPECT_EQ(
      make_scheduler(core::Scheme::PriorityApi, 2, params, 0.0)->name(),
      "StrictPriority");
}

// --- Multi-controller scale-out topology ---

std::vector<workload::BenchmarkSpec> eight_apps() {
  return workload::resolve_mix(workload::fig1_mix(), 2);
}

TEST(MultiController, PeakApcScalesWithControllers) {
  SystemConfig cfg;
  cfg.num_controllers = 4;
  EXPECT_NEAR(cfg.peak_apc(), 4 * SystemConfig{}.peak_apc(), 1e-12);
}

TEST(MultiController, AppsAssignRoundRobin) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem sys(cfg, eight_apps(), 1);
  EXPECT_EQ(sys.num_controllers(), 2u);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_EQ(sys.controller_of(a), a % 2);
  }
}

TEST(MultiController, TrafficLandsOnlyOnTheOwningController) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem sys(cfg, eight_apps(), 1);
  sys.run(200'000);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_GT(sys.controller_for(a).app_stats(a).served(), 0u) << "app " << a;
    EXPECT_EQ(sys.controller(1 - sys.controller_of(a)).app_stats(a).served(),
              0u)
        << "app " << a;
  }
}

TEST(MultiController, FastForwardBitIdenticalToReference) {
  for (const std::size_t controllers : {2u, 4u}) {
    SystemConfig fast_cfg;
    fast_cfg.num_controllers = controllers;
    SystemConfig ref_cfg = fast_cfg;
    ref_cfg.fast_forward = false;
    CmpSystem fast(fast_cfg, eight_apps(), 7);
    CmpSystem ref(ref_cfg, eight_apps(), 7);
    fast.run(250'000);
    ref.run(250'000);
    ASSERT_EQ(fast.now(), ref.now());
    for (AppId a = 0; a < fast.num_apps(); ++a) {
      EXPECT_EQ(fast.core(a).stats().instructions,
                ref.core(a).stats().instructions)
          << controllers << " controllers, app " << a;
      EXPECT_EQ(fast.controller_for(a).app_stats(a).served(),
                ref.controller_for(a).app_stats(a).served())
          << controllers << " controllers, app " << a;
    }
    for (std::size_t c = 0; c < controllers; ++c) {
      EXPECT_EQ(fast.controller(c).dram().stats().column_accesses(),
                ref.controller(c).dram().stats().column_accesses());
    }
  }
}

TEST(MultiController, SnapshotRoundTripContinuesBitIdentically) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem straight(cfg, eight_apps(), 11);
  CmpSystem cut(cfg, eight_apps(), 11);
  straight.run(120'000);
  cut.run(60'000);
  snap::Writer w;
  cut.save_state(w);
  CmpSystem resumed(cfg, eight_apps(), 11);
  snap::Reader r(w.bytes());
  resumed.restore_state(r);
  EXPECT_TRUE(r.at_end());
  resumed.run(60'000);
  ASSERT_EQ(resumed.now(), straight.now());
  for (AppId a = 0; a < straight.num_apps(); ++a) {
    EXPECT_EQ(resumed.core(a).stats().instructions,
              straight.core(a).stats().instructions);
    EXPECT_EQ(resumed.controller_for(a).app_stats(a).served(),
              straight.controller_for(a).app_stats(a).served());
  }
}

TEST(MultiController, ControllerCountMismatchIsRejectedOnRestore) {
  SystemConfig two;
  two.num_controllers = 2;
  CmpSystem src(two, eight_apps(), 3);
  src.run(10'000);
  snap::Writer w;
  src.save_state(w);
  SystemConfig four = two;
  four.num_controllers = 4;
  CmpSystem dst(four, eight_apps(), 3);
  snap::Reader r(w.bytes());
  EXPECT_THROW(dst.restore_state(r), snap::SnapshotError);
}

TEST(CmpSystem, InterferenceObservedUnderContention) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(300'000);
  std::uint64_t total = 0;
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    total += sys.interference().interference_cycles(a);
  }
  EXPECT_GT(total, 0u);
}

// Each controller's attribution and event probes visit only the apps wired
// to it. Re-wiring every controller to scan the whole app-id space must give
// the exact same interference counters and service: apps outside a
// controller's subset never hold a pending request there.
TEST(MultiController, ServedSubsetAttributionMatchesFullScan) {
  SystemConfig cfg;
  cfg.num_controllers = 4;
  CmpSystem subset(cfg, eight_apps(), 5);
  CmpSystem full(cfg, eight_apps(), 5);
  std::vector<AppId> all(full.num_apps());
  for (AppId a = 0; a < full.num_apps(); ++a) all[a] = a;
  for (std::size_t c = 0; c < full.num_controllers(); ++c) {
    full.controller(c).set_served_apps(all);
  }
  subset.run(300'000);
  full.run(300'000);
  std::uint64_t total = 0;
  for (AppId a = 0; a < subset.num_apps(); ++a) {
    EXPECT_EQ(subset.interference().interference_cycles(a),
              full.interference().interference_cycles(a))
        << "app " << a;
    EXPECT_EQ(subset.controller_for(a).app_stats(a).served(),
              full.controller_for(a).app_stats(a).served());
    total += subset.interference().interference_cycles(a);
  }
  EXPECT_GT(total, 0u);
}

// Interference accounting is observation only: switching it off changes no
// simulated counter, on one controller or several, and the Eq. 12-13
// counters then stay at zero.
TEST(CmpSystem, InterferenceAccountingOffIsResultNeutral) {
  for (const std::size_t controllers : {std::size_t{1}, std::size_t{2}}) {
    SystemConfig cfg;
    cfg.num_controllers = controllers;
    CmpSystem on(cfg, eight_apps(), 9);
    CmpSystem off(cfg, eight_apps(), 9);
    off.set_interference_accounting(false);
    for (CmpSystem* sys : {&on, &off}) {
      sys->run(50'000);
      sys->reset_measurement();
      sys->run(250'000);
    }
    EXPECT_EQ(on.measured_ipc(), off.measured_ipc()) << controllers;
    EXPECT_EQ(on.measured_apc(), off.measured_apc()) << controllers;
    EXPECT_EQ(on.bus_utilization(), off.bus_utilization()) << controllers;
    std::uint64_t on_total = 0;
    for (AppId a = 0; a < on.num_apps(); ++a) {
      EXPECT_EQ(on.core(a).stats().instructions,
                off.core(a).stats().instructions);
      EXPECT_EQ(off.interference().interference_cycles(a), 0u);
      on_total += on.interference().interference_cycles(a);
    }
    EXPECT_GT(on_total, 0u) << controllers;
  }
}

// skipped_cycles() on a single-controller system is the one engine's jump
// count; this value was recorded before the engine ran controller
// partitions on clocks of their own and must never move with that change.
TEST(CmpSystem, SingleControllerSkippedCyclesArePinned) {
  CmpSystem sys(small_cfg(), workload::resolve_mix(workload::fig1_mix()), 7);
  sys.run(150'000);
  sys.run(50'000);  // a second chunk re-arms every sleep proof
  EXPECT_EQ(sys.skipped_cycles(), kPinnedSkippedCycles);
}

// With several controllers, skipped_cycles() is the mean of what each
// partition jumped over. A partition whose only app is dormant (refresh
// off, so its controller has no event) jumps over the whole window; the
// other is exactly a one-app system, so the mean is known to the cycle.
TEST(MultiController, SkippedCyclesSumOverPartitions) {
  SystemConfig cfg = small_cfg();
  cfg.dram.enable_refresh = false;
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  const std::vector<workload::BenchmarkSpec> solo_apps = {apps[0]};
  const std::vector<workload::BenchmarkSpec> pair_apps = {apps[0], apps[1]};
  constexpr Cycle kWindow = 3 * CmpSystem::kParallelMinCycles;
  CmpSystem solo(cfg, solo_apps, 7);
  solo.run(kWindow);
  cfg.num_controllers = 2;
  CmpSystem pair(cfg, pair_apps, 7);
  pair.set_app_live(1, false);
  pair.run(kWindow);
  EXPECT_GT(solo.skipped_cycles(), 0u);
  EXPECT_EQ(pair.core(0).stats().instructions,
            solo.core(0).stats().instructions);
  EXPECT_EQ(pair.skipped_cycles(), (solo.skipped_cycles() + kWindow) / 2);
}

// The mean does not depend on how many threads ran the partitions, and it
// stays a share of now().
TEST(MultiController, SkippedCyclesIgnoreTheThreadCap) {
  SystemConfig cfg = small_cfg();
  cfg.num_controllers = 4;
  Cycle skipped[2] = {0, 0};
  const char* caps[2] = {"1", nullptr};
  for (int i = 0; i < 2; ++i) {
    const testenv::ScopedSweepThreads cap(caps[i]);
    CmpSystem sys(cfg, eight_apps(), 9);
    sys.run(4 * CmpSystem::kParallelMinCycles);
    skipped[i] = sys.skipped_cycles();
    EXPECT_GT(skipped[i], 0u);
    EXPECT_LE(skipped[i], sys.now());
  }
  EXPECT_EQ(skipped[0], skipped[1]);
}

}  // namespace
}  // namespace bwpart::harness
