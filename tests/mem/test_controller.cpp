#include "mem/controller.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "profile/interference.hpp"

namespace bwpart::mem {
namespace {

constexpr Frequency kCpu = Frequency::from_ghz(5.0);

dram::DramConfig quiet_dram() {
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  return cfg;
}

struct Collected {
  std::vector<std::uint64_t> ids;
  std::vector<Cycle> done;
  std::map<AppId, std::uint64_t> per_app;
};

Collected run_controller(MemoryController& mc, Cycle cycles) {
  Collected c;
  mc.set_completion_callback([&c](const MemRequest& r, Cycle done) {
    c.ids.push_back(r.id);
    c.done.push_back(done);
    ++c.per_app[r.app];
  });
  for (Cycle t = 0; t < cycles; ++t) mc.tick(t);
  return c;
}

TEST(Controller, SingleReadCompletesWithExpectedLatency) {
  MemoryController mc(quiet_dram(), kCpu, 1,
                      std::make_unique<FcfsScheduler>());
  Collected c;
  mc.set_completion_callback([&c](const MemRequest& r, Cycle done) {
    c.ids.push_back(r.id);
    c.done.push_back(done);
  });
  mc.enqueue(0, 0x1000, AccessType::Read, 0);
  for (Cycle t = 0; t < 2000; ++t) mc.tick(t);
  ASSERT_EQ(c.ids.size(), 1u);
  // Close page: ACT (tick k) + RDA; data at +CL+burst. With 25 CPU cycles
  // per tick and rcd=cl=3, burst=4, the latency is a few hundred cycles.
  EXPECT_GT(c.done[0], 100u);
  EXPECT_LT(c.done[0], 600u);
  EXPECT_EQ(mc.app_stats(0).served_reads, 1u);
  EXPECT_EQ(mc.pending_requests(0), 0u);
}

TEST(Controller, WriteCompletesAndIsCounted) {
  MemoryController mc(quiet_dram(), kCpu, 1,
                      std::make_unique<FcfsScheduler>());
  auto c = ([&] {
    mc.enqueue(0, 0x2000, AccessType::Write, 0);
    return run_controller(mc, 2000);
  })();
  EXPECT_EQ(c.ids.size(), 1u);
  EXPECT_EQ(mc.app_stats(0).served_writes, 1u);
  EXPECT_EQ(mc.app_stats(0).served_reads, 0u);
}

TEST(Controller, FcfsPreservesArrivalOrderForSameBank) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>());
  // Same bank, different rows: strictly serialized, so completion order
  // must equal arrival order.
  const Addr a = 0x0;
  const Addr b = a + 64ull * 4 * 8 * 128;  // next row, same bank/rank
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  std::uint64_t id0 = mc.enqueue(0, a, AccessType::Read, 0);
  std::uint64_t id1 = mc.enqueue(1, b, AccessType::Read, 0);
  Collected c = run_controller(mc, 5000);
  ASSERT_EQ(c.ids.size(), 2u);
  EXPECT_EQ(c.ids[0], id0);
  EXPECT_EQ(c.ids[1], id1);
}

TEST(Controller, SharedAdmissionBlocksWhenQueueFull) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>(), 32,
                      dram::MapScheme::ChanRowColBankRank, 4,
                      AdmissionMode::Shared);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(mc.can_accept(0));
    mc.enqueue(0, static_cast<Addr>(i) * 64, AccessType::Read, 0);
  }
  // App 0 filled the shared queue; app 1 cannot enter at all.
  EXPECT_FALSE(mc.can_accept(1));
}

TEST(Controller, PerAppAdmissionIsolatesQueues) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>(), 2,
                      dram::MapScheme::ChanRowColBankRank, 64,
                      AdmissionMode::PerApp);
  mc.enqueue(0, 0, AccessType::Read, 0);
  mc.enqueue(0, 64, AccessType::Read, 0);
  EXPECT_FALSE(mc.can_accept(0));  // app 0's slice is full
  EXPECT_TRUE(mc.can_accept(1));   // app 1 unaffected
  EXPECT_TRUE(mc.can_accept_n(1, 2));
  EXPECT_FALSE(mc.can_accept_n(1, 3));
}

TEST(Controller, AdmissionModeSwitchable) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>(), 1,
                      dram::MapScheme::ChanRowColBankRank, 64,
                      AdmissionMode::Shared);
  mc.enqueue(0, 0, AccessType::Read, 0);
  EXPECT_TRUE(mc.can_accept(0));  // shared capacity 64 not exhausted
  mc.set_admission_mode(AdmissionMode::PerApp);
  EXPECT_FALSE(mc.can_accept(0));  // per-app capacity 1 now binds
}

TEST(Controller, StrictPriorityServesHighPriorityFirst) {
  auto sched = std::make_unique<StrictPriorityScheduler>(2);
  const std::array<std::uint32_t, 2> ranks{1, 0};  // app 1 first
  sched->set_priority_ranks(ranks);
  MemoryController mc(quiet_dram(), kCpu, 2, std::move(sched));
  // Same bank so service is serialized and order is observable.
  const Addr a = 0x0;
  const Addr b = a + 64ull * 4 * 8 * 128;
  mc.enqueue(0, a, AccessType::Read, 0);
  std::uint64_t high = mc.enqueue(1, b, AccessType::Read, 0);
  Collected c = run_controller(mc, 5000);
  ASSERT_EQ(c.ids.size(), 2u);
  EXPECT_EQ(c.ids[0], high);
}

TEST(Controller, ShareEnforcementApproximatesBeta) {
  // Saturate the controller from two apps and verify DSTF delivers the
  // configured 1:3 bandwidth split.
  auto sched = std::make_unique<StartTimeFairScheduler>(2);
  const std::array<double, 2> beta{0.25, 0.75};
  sched->set_shares(beta);
  MemoryController mc(quiet_dram(), kCpu, 2, std::move(sched), 16,
                      dram::MapScheme::ChanRowColBankRank, 64,
                      AdmissionMode::PerApp);
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  std::array<std::uint64_t, 2> next_line{0, 1ull << 22};
  for (Cycle t = 0; t < 400'000; ++t) {
    for (AppId app = 0; app < 2; ++app) {
      while (mc.can_accept(app)) {
        mc.enqueue(app, next_line[app] * 64, AccessType::Read, t);
        next_line[app] += 1;
      }
    }
    mc.tick(t);
  }
  const double s0 = static_cast<double>(mc.app_stats(0).served());
  const double s1 = static_cast<double>(mc.app_stats(1).served());
  EXPECT_NEAR(s1 / (s0 + s1), 0.75, 0.02);
}

TEST(Controller, EqualSharesDeliverEqualService) {
  auto sched = std::make_unique<StartTimeFairScheduler>(3);
  const std::array<double, 3> beta{1.0 / 3, 1.0 / 3, 1.0 / 3};
  sched->set_shares(beta);
  MemoryController mc(quiet_dram(), kCpu, 3, std::move(sched), 16,
                      dram::MapScheme::ChanRowColBankRank, 64,
                      AdmissionMode::PerApp);
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  std::array<std::uint64_t, 3> next_line{0, 1ull << 20, 1ull << 21};
  for (Cycle t = 0; t < 300'000; ++t) {
    for (AppId app = 0; app < 3; ++app) {
      while (mc.can_accept(app)) {
        mc.enqueue(app, next_line[app] * 64, AccessType::Read, t);
        next_line[app] += 1;
      }
    }
    mc.tick(t);
  }
  const double total = static_cast<double>(mc.app_stats(0).served() +
                                           mc.app_stats(1).served() +
                                           mc.app_stats(2).served());
  for (AppId app = 0; app < 3; ++app) {
    EXPECT_NEAR(static_cast<double>(mc.app_stats(app).served()) / total,
                1.0 / 3, 0.02);
  }
}

TEST(Controller, UnusedShareRedistributed) {
  // App 0 offers little traffic; DSTF must hand its slack to app 1 (the
  // scheduler is work-conserving).
  auto sched = std::make_unique<StartTimeFairScheduler>(2);
  const std::array<double, 2> beta{0.9, 0.1};
  sched->set_shares(beta);
  MemoryController mc(quiet_dram(), kCpu, 2, std::move(sched), 16,
                      dram::MapScheme::ChanRowColBankRank, 64,
                      AdmissionMode::PerApp);
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  std::uint64_t line1 = 0;
  for (Cycle t = 0; t < 300'000; ++t) {
    if (t % 5000 == 0 && mc.can_accept(0)) {
      mc.enqueue(0, (1ull << 26) + (t / 5000) * 64, AccessType::Read, t);
    }
    while (mc.can_accept(1)) {
      mc.enqueue(1, line1 * 64, AccessType::Read, t);
      ++line1;
    }
    mc.tick(t);
  }
  // App 1 nominally has 10% but must receive nearly all bandwidth.
  const double s1 = static_cast<double>(mc.app_stats(1).served());
  const double s0 = static_cast<double>(mc.app_stats(0).served());
  EXPECT_GT(s1 / (s0 + s1), 0.9);
}

TEST(Controller, ReplaceSchedulerKeepsPendingRequests) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>());
  mc.enqueue(0, 0x100, AccessType::Read, 0);
  mc.enqueue(1, 0x4000, AccessType::Read, 0);
  mc.replace_scheduler(std::make_unique<FrFcfsScheduler>());
  Collected c = run_controller(mc, 5000);
  EXPECT_EQ(c.ids.size(), 2u);
}

TEST(Controller, LatencyStatisticsAreSane) {
  MemoryController mc(quiet_dram(), kCpu, 1,
                      std::make_unique<FcfsScheduler>());
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  mc.enqueue(0, 0, AccessType::Read, 0);
  for (Cycle t = 0; t < 2000; ++t) mc.tick(t);
  EXPECT_GT(mc.app_stats(0).mean_latency_cycles(), 0.0);
  EXPECT_LT(mc.app_stats(0).mean_latency_cycles(), 600.0);
}

TEST(Controller, InterferenceAttributedToCompetingApp) {
  // Two apps hammer the same bank; each must accumulate interference.
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>(), 8);
  profile::InterferenceCounters ic(2);
  mc.set_interference_observer(&ic);
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  const Addr row_stride = 64ull * 4 * 8 * 128;
  std::uint64_t row0 = 0, row1 = 1000;
  for (Cycle t = 0; t < 200'000; ++t) {
    if (mc.can_accept(0)) mc.enqueue(0, (row0 += 2) * row_stride, AccessType::Read, t);
    if (mc.can_accept(1)) mc.enqueue(1, (row1 += 2) * row_stride, AccessType::Read, t);
    mc.tick(t);
  }
  EXPECT_GT(ic.interference_cycles(0), 0u);
  EXPECT_GT(ic.interference_cycles(1), 0u);
}

TEST(Controller, NoInterferenceWhenRunningAlone) {
  MemoryController mc(quiet_dram(), kCpu, 2,
                      std::make_unique<FcfsScheduler>(), 8);
  profile::InterferenceCounters ic(2);
  mc.set_interference_observer(&ic);
  mc.set_completion_callback([](const MemRequest&, Cycle) {});
  std::uint64_t line = 0;
  for (Cycle t = 0; t < 100'000; ++t) {
    if (mc.can_accept(0)) mc.enqueue(0, (line++) * 64, AccessType::Read, t);
    mc.tick(t);
  }
  EXPECT_EQ(ic.interference_cycles(0), 0u);
  EXPECT_EQ(ic.interference_cycles(1), 0u);
}

// A controller wired to a subset of the app-id space attributes and probes
// only that subset, so an enqueue from any other app is a wiring bug the
// invariant checker must catch.
TEST(Controller, EnqueueFromUnservedAppIsReported) {
  if constexpr (!check::kEnabled) GTEST_SKIP() << "BWPART_CHECK is off";
  MemoryController mc(quiet_dram(), kCpu, 4,
                      std::make_unique<FcfsScheduler>());
  mc.set_served_apps({1, 3});
  check::Recorder rec;
  mc.enqueue(1, 0, AccessType::Read, 0);
  mc.enqueue(3, 64, AccessType::Read, 0);
  EXPECT_EQ(rec.count(), 0u);
  mc.enqueue(2, 128, AccessType::Read, 0);
  EXPECT_TRUE(rec.caught("app 2 is not wired to this controller"));
}

}  // namespace
}  // namespace bwpart::mem
