// The benchmark's own tests: the tail-percentile helper, op checks that
// catch a wrong fingerprint, and seeds that really change the inputs.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>

#include "workloads.hpp"

namespace {

using namespace perfbench;

WorkloadOptions options(std::uint64_t seed) {
  WorkloadOptions opt;
  opt.seed = seed;
  opt.golden = PERFBENCH_GOLDEN;
  opt.scratch = std::filesystem::temp_directory_path() / "perfbench_tests";
  return opt;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(TailPercentile, PicksHighestWithTenSamplesBeyond) {
  // 100 samples: p99 has one sample beyond it, p90 exactly ten.
  Tail t = tail_percentile(one_to(100), 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.q, 0.9);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);

  // 99 samples leave only nine beyond p90, so the helper falls to p50.
  t = tail_percentile(one_to(99), 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.q, 0.5);
  EXPECT_EQ(t.value, 50.0);
  EXPECT_EQ(t.samples, 99u);
  EXPECT_EQ(t.beyond, 49u);

  t = tail_percentile(one_to(1000), 0.99);
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);

  // The cap holds even when a higher percentile has samples behind it.
  t = tail_percentile(one_to(100'000), 0.9);
  EXPECT_EQ(t.q, 0.9);
  EXPECT_EQ(t.samples, 100'000u);
}

TEST(TailPercentile, TooFewSamples) {
  // 19 samples leave nine beyond the median; 20 leave ten.
  const Tail t = tail_percentile(one_to(19), 0.9);
  EXPECT_FALSE(t.ok);
  EXPECT_EQ(t.samples, 19u);
  EXPECT_TRUE(tail_percentile(one_to(20), 0.9).ok);
  EXPECT_EQ(samples_needed(0.5), 20u);
  EXPECT_EQ(samples_needed(0.9), 100u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
}

TEST(FingerprintBook, OpenBookRecordsThenChecks) {
  FingerprintBook book;
  EXPECT_TRUE(book.check("a", 1));
  EXPECT_TRUE(book.check("a", 1));
  EXPECT_FALSE(book.check("a", 2));
  FingerprintBook fixed({{"a", 1}});
  EXPECT_FALSE(fixed.check("b", 1));
}

TEST(Golden, ReadsTheMixesSection) {
  const auto golden = read_golden_mixes(PERFBENCH_GOLDEN);
  EXPECT_EQ(golden.size(), 98u);
  EXPECT_EQ(golden.at("homo-1|Equal"), 0x4ce5dac1cb08fd8aull);
  EXPECT_EQ(golden.at("hetero-7|2/3_power"), 0x3f9d10c06cef8e4bull);
}

TEST(Table4Sweep, TamperedExpectedFingerprintFailsTheOp) {
  Table4Sweep sweep(options(42));
  sweep.setup();
  std::string why;
  sweep.run_op(0);
  EXPECT_TRUE(sweep.check_op(0, why)) << why;

  auto tampered = read_golden_mixes(PERFBENCH_GOLDEN);
  tampered.at(sweep.op_key(3)) ^= 1;
  sweep.set_book(FingerprintBook(tampered));
  sweep.run_op(3);
  EXPECT_FALSE(sweep.check_op(3, why));
  EXPECT_NE(why.find(sweep.op_key(3)), std::string::npos);
  sweep.run_op(4);
  EXPECT_TRUE(sweep.check_op(4, why)) << why;
}

TEST(Seeds, ChangeSimulatorTraces) {
  const auto golden = read_golden_mixes(PERFBENCH_GOLDEN);
  Table4Sweep sweep(options(43));
  sweep.setup();
  std::string why;
  for (std::size_t i : {0u, 50u}) {
    sweep.run_op(i);
    EXPECT_NE(sweep.last_fingerprint(), golden.at(sweep.op_key(i)));
    // Away from seed 42 the first pass is the reference.
    EXPECT_TRUE(sweep.check_op(i, why));
    sweep.run_op(i);
    EXPECT_TRUE(sweep.check_op(i, why)) << why;
  }
  EXPECT_NE(Portfolio64Spool(options(42)).units().front().key,
            Portfolio64Spool(options(43)).units().front().key);
}

TEST(Seeds, ChangeAdvisorCorpus) {
  EXPECT_EQ(advisor_corpus(42, 2, 16), advisor_corpus(42, 2, 16));
  EXPECT_NE(advisor_corpus(42, 2, 16), advisor_corpus(43, 2, 16));
}

TEST(AdvisorStream, EveryLineAnswersOkAndRepeats) {
  AdvisorStream stream(options(42));
  stream.setup();
  std::string why;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < 3; ++i) {
      stream.run_op(i);
      EXPECT_TRUE(stream.check_op(i, why)) << why;
    }
  }
}

}  // namespace
