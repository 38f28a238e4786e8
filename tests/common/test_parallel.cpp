#include "common/parallel.hpp"

#include "scoped_sweep_threads.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace bwpart {
namespace {

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ResultsMatchSerialExecution) {
  const std::size_t n = 500;
  std::vector<double> parallel_out(n), serial_out(n);
  auto work = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 1; k <= 100; ++k) {
      acc += static_cast<double>((i * k) % 97) / static_cast<double>(k);
    }
    return acc;
  };
  parallel_for(n, [&](std::size_t i) { parallel_out[i] = work(i); }, 4);
  for (std::size_t i = 0; i < n; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(Parallel, ZeroItemsIsNoop) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(Parallel, SingleThreadRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // inline path is in-order
}

TEST(Parallel, MoreThreadsThanItemsIsSafe) {
  std::atomic<int> count{0};
  parallel_for(3, [&](std::size_t) { count.fetch_add(1); }, 64);
  EXPECT_EQ(count.load(), 3);
}

TEST(Parallel, DefaultParallelismBounds) {
  EXPECT_EQ(default_parallelism(0), 1u);
  EXPECT_EQ(default_parallelism(1), 1u);
  EXPECT_GE(default_parallelism(1000), 1u);
  EXPECT_LE(default_parallelism(4), 4u);
}

using testenv::ScopedSweepThreads;

TEST(Parallel, SweepThreadsEnvCapsDefaultParallelism) {
  ScopedSweepThreads env("1");
  EXPECT_EQ(parallelism_cap(), 1u);
  EXPECT_EQ(default_parallelism(1000), 1u);
}

TEST(Parallel, SweepThreadsEnvClampsExplicitThreadRequests) {
  ScopedSweepThreads env("1");
  // With the cap at 1, even an explicit 8-thread request must run inline
  // (in index order) — that is the oversubscription guard's contract for
  // sharded sweep workers.
  std::vector<std::size_t> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(i); }, 8);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(Parallel, MalformedSweepThreadsEnvMeansNoCap) {
  for (const char* bad : {"", "0", "banana", "4x"}) {
    ScopedSweepThreads env(bad);
    EXPECT_EQ(parallelism_cap(), SIZE_MAX) << "value '" << bad << "'";
  }
}

TEST(Parallel, ActuallyUsesMultipleThreads) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  // Each task holds its slot until a second task runs at the same time (or
  // a generous deadline passes), so the overlap shows however a loaded host
  // schedules the workers; a serial pool pays the deadline once and fails.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  parallel_for(
      64,
      [&](std::size_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        while (peak.load() < 2 && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        concurrent.fetch_sub(1);
      },
      4);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(peak.load(), 1);
  }
}

// Experiment::run_all over schemes calls CmpSystem::run, which splits
// multi-controller runs through parallel_for again: the nested call must run
// inline on its worker, so the peak concurrency stays at the outer call's
// width instead of multiplying (7 schemes x 4 controllers on 4 cores).
TEST(Parallel, NestedCallRunsInlineOnItsWorker) {
  constexpr std::size_t kOuter = 2;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> inner_off_thread{0};
  std::vector<std::vector<std::size_t>> orders(8);
  parallel_for(
      orders.size(),
      [&](std::size_t o) {
        const std::thread::id outer_thread = std::this_thread::get_id();
        parallel_for(
            16,
            [&](std::size_t i) {
              if (std::this_thread::get_id() != outer_thread) {
                inner_off_thread.fetch_add(1);
              }
              const int now = concurrent.fetch_add(1) + 1;
              int p = peak.load();
              while (now > p && !peak.compare_exchange_weak(p, now)) {
              }
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              orders[o].push_back(i);
              concurrent.fetch_sub(1);
            },
            4);
      },
      kOuter);
  EXPECT_LE(peak.load(), static_cast<int>(kOuter));
  EXPECT_EQ(inner_off_thread.load(), 0);
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  for (const auto& order : orders) EXPECT_EQ(order, expected);  // inline
  // The caller took part as a worker; it leaves with the flag clear, so a
  // later top-level call still spreads across threads.
  EXPECT_FALSE(detail::t_in_parallel_for);
}

}  // namespace
}  // namespace bwpart
