// The repository benchmark's workloads, checks and statistics.
//
// Three closed-loop workloads, one client thread each (README.md says why
// each was chosen):
//   table4_sweep      one op = Experiment::measure_from(snapshot, scheme),
//                     rotating over the 14 Table IV mixes x 7 schemes;
//   portfolio64_spool one op = one portfolio64 unit published into an
//                     on-disk spool and drained by shard::run_worker;
//   advisor_stream    one op = AdvisorService::run over a 256-line batch.
// Every op is checked after its timer stops; a wrong answer is a failed op.
// Nothing here reaches inside src/: layers are timed around their public
// calls and through the counters the program already exports.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "advisor/service.hpp"
#include "harness/experiment.hpp"
#include "harness/shard.hpp"
#include "obs/hub.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank median (the value at index ceil(n / 2) - 1 once sorted).
double median(std::vector<double> values);

/// The tail percentile a run reports: the highest q of {0.5, 0.9, 0.99,
/// 0.999} not above `max_q` that has at least ten samples beyond it.
struct Tail {
  bool ok = false;          ///< false when even p50 lacks ten samples
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< all samples the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked above it
};
Tail tail_percentile(std::vector<double> samples, double max_q);

/// Samples needed before tail_percentile can report `q`.
std::size_t samples_needed(double q);

// ---------------------------------------------------------------------------
// Checks

/// Expected fingerprints by op key. A fixed book (built from a golden file
/// or computed up front) fails any key it lacks; an open book records the
/// first value it sees for a key and checks every later one against it.
class FingerprintBook {
 public:
  FingerprintBook() = default;
  explicit FingerprintBook(std::map<std::string, std::uint64_t> expected)
      : expected_(std::move(expected)), fixed_(true) {}

  bool check(const std::string& key, std::uint64_t fp);

 private:
  std::map<std::string, std::uint64_t> expected_;
  bool fixed_ = false;
};

/// Checked ops and failures, with the first failure's reason.
struct OpLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void check(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

/// The "mixes" section of tests/golden/fingerprints.json (seed 42, golden
/// phases), keyed "<mix>|<scheme>". Throws std::runtime_error when the file
/// is missing or the section does not hold 14 x 7 entries.
std::map<std::string, std::uint64_t> read_golden_mixes(
    const std::filesystem::path& path);

/// The golden corpus's phase settings (20k warmup, 100k profile, 100k
/// measure) at `seed`.
bwpart::harness::PhaseConfig golden_phases(std::uint64_t seed);

/// One Experiment per Table IV mix on the default SystemConfig at
/// golden_phases(seed), in paper_mixes() order.
std::vector<bwpart::harness::Experiment> table4_experiments(
    std::uint64_t seed);

/// shard::make_portfolio(name) with every config at `seed`.
bwpart::harness::shard::Portfolio seeded_portfolio(const std::string& name,
                                                   std::uint64_t seed);

/// The service advisor_stream runs: one solve thread, 256-line batches.
bwpart::advisor::ServiceConfig stream_config(bwpart::obs::Hub* hub);

// ---------------------------------------------------------------------------
// Stream plumbing for AdvisorService::run

/// Read-only istream buffer over a string the caller keeps alive.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

/// Appends everything written to a caller-owned string.
class AppendBuf : public std::streambuf {
 public:
  explicit AppendBuf(std::string& out) : out_(out) {}

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) out_ += static_cast<char>(c);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string& out_;
};

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadOptions {
  std::uint64_t seed = 42;
  /// tests/golden/fingerprints.json; table4_sweep checks against it at
  /// seed 42.
  std::filesystem::path golden;
  /// Scratch directory for the spool (inside the benchmark's checkout).
  std::filesystem::path scratch;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The set-up a user pays before a pass of ops, starting from scratch
  /// each time; timed for setup_s.
  virtual void setup() = 0;
  /// Untimed work after the first setup(): expectations computed outside
  /// the timed region.
  virtual void prepare() {}

  virtual std::size_t ops_per_pass() const = 0;
  /// Work one op completes, in the unit of work_per_s.
  virtual double work_per_op() const = 0;

  /// The timed op.
  virtual void run_op(std::size_t i) = 0;
  /// Untimed check of the op just run; false marks a failed op and sets
  /// `why`.
  virtual bool check_op(std::size_t i, std::string& why) = 0;
  /// Untimed check at the end of a complete pass.
  virtual bool end_pass(std::string& /*why*/) { return true; }
};

/// 14 Table IV mixes x 7 schemes on the default SystemConfig at golden
/// phases. Fingerprints are checked against the golden corpus at seed 42
/// and against the run's first pass at any other seed.
class Table4Sweep final : public Workload {
 public:
  explicit Table4Sweep(const WorkloadOptions& opt);

  void setup() override;
  std::size_t ops_per_pass() const override { return keys_.size(); }
  double work_per_op() const override;
  void run_op(std::size_t i) override;
  bool check_op(std::size_t i, std::string& why) override;

  /// Replaces the expectation book (tests tamper with it).
  void set_book(FingerprintBook book) { book_ = std::move(book); }
  const std::string& op_key(std::size_t i) const { return keys_[i]; }
  std::uint64_t last_fingerprint() const { return last_fp_; }

 private:
  std::vector<bwpart::harness::Experiment> experiments_;
  std::vector<bwpart::harness::ProfileSnapshot> snapshots_;
  std::vector<std::string> keys_;
  FingerprintBook book_;
  std::uint64_t last_fp_ = 0;
};

/// shard::make_portfolio("portfolio64") at the run's seed, driven unit by
/// unit through an on-disk spool. Spool::publish refuses a unit that already
/// has a result, so each pass needs the fresh spool setup() writes.
class Portfolio64Spool final : public Workload {
 public:
  explicit Portfolio64Spool(const WorkloadOptions& opt);

  void setup() override;
  void prepare() override;
  std::size_t ops_per_pass() const override { return units_.size(); }
  double work_per_op() const override { return 1.0; }
  void run_op(std::size_t i) override;
  bool check_op(std::size_t i, std::string& why) override;
  bool end_pass(std::string& why) override;

  const std::vector<bwpart::harness::shard::ShardUnit>& units() const {
    return units_;
  }

 private:
  bwpart::harness::shard::Portfolio portfolio_;
  std::vector<bwpart::harness::shard::ShardUnit> units_;
  bwpart::harness::Experiment experiment_;
  bwpart::harness::shard::Spool spool_;
  bwpart::harness::ProfileSnapshot snapshot_;
  FingerprintBook book_;
  std::size_t last_completed_ = 0;
  std::optional<std::uint64_t> portfolio_fp_;
};

/// Synthetic advisor request lines shaped like bench/advisor_throughput's:
/// wsp/fair/qos rotate, 2..8 apps per request, every 5th wsp request
/// weighted, no mix tag. `batches` batches of `lines` lines each.
std::vector<std::string> advisor_corpus(std::uint64_t seed,
                                        std::size_t batches,
                                        std::size_t lines);

/// A ring of pre-generated 256-line batches streamed through a
/// single-threaded AdvisorService.
class AdvisorStream final : public Workload {
 public:
  static constexpr std::size_t kBatchLines = 256;
  static constexpr std::size_t kRingBatches = 16;

  explicit AdvisorStream(const WorkloadOptions& opt);

  void setup() override;
  std::size_t ops_per_pass() const override { return corpus_.size(); }
  double work_per_op() const override {
    return static_cast<double>(kBatchLines);
  }
  void run_op(std::size_t i) override;
  bool check_op(std::size_t i, std::string& why) override;

 private:
  std::vector<std::string> corpus_;
  std::unique_ptr<bwpart::advisor::AdvisorService> service_;
  bwpart::advisor::ServiceStats last_stats_;
  std::string out_;
  FingerprintBook book_;
};

/// Builds the named workload; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt);

}  // namespace perfbench
