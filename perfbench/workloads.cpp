#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/partition.hpp"
#include "harness/differential.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bwpart;

// ---------------------------------------------------------------------------
// Statistics

namespace {

constexpr double kTailLadder[] = {0.5, 0.9, 0.99, 0.999};
constexpr std::size_t kMinBeyond = 10;

/// Index of the nearest-rank q-quantile among n sorted samples.
std::size_t rank_index(std::size_t n, double q) {
  const auto k =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n - 1, k == 0 ? 0 : k - 1);
}

double quantile(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : sorted[rank_index(sorted.size(), q)];
}

/// Samples ranked strictly above the nearest-rank q-quantile.
std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

}  // namespace

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

Tail tail_percentile(std::vector<double> samples, double max_q) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.samples = samples.size();
  for (const double q : kTailLadder) {
    if (q > max_q) break;
    const std::size_t beyond = samples_beyond(samples.size(), q);
    if (beyond < kMinBeyond) break;
    t = Tail{true, q, quantile(samples, q), samples.size(), beyond};
  }
  return t;
}

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Checks

bool FingerprintBook::check(const std::string& key, std::uint64_t fp) {
  const auto it = expected_.find(key);
  if (it != expected_.end()) return it->second == fp;
  if (fixed_) return false;
  expected_.emplace(key, fp);
  return true;
}

std::map<std::string, std::uint64_t> read_golden_mixes(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read golden corpus " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // The "mixes" object holds one line per mix:
  //   "<mix>": {"<scheme>": "0x<hex16>", ...},
  std::size_t pos = text.find("\"mixes\"");
  const std::size_t end = text.find("\"generations\"");
  if (pos == std::string::npos || end == std::string::npos || end < pos) {
    throw std::runtime_error("no mixes section in " + path.string());
  }
  std::map<std::string, std::uint64_t> out;
  pos = text.find('{', pos) + 1;
  auto quoted = [&](std::size_t& p) {
    const std::size_t a = text.find('"', p);
    const std::size_t b = text.find('"', a + 1);
    p = b + 1;
    return text.substr(a + 1, b - a - 1);
  };
  for (;;) {
    const std::size_t open = text.find('{', pos);
    if (open == std::string::npos || open > end) break;
    const std::string mix = quoted(pos);
    pos = open + 1;
    const std::size_t close = text.find('}', pos);
    while (text.find('"', pos) < close) {
      const std::string scheme = quoted(pos);
      const std::string hex = quoted(pos);
      out[mix + "|" + scheme] = std::stoull(hex, nullptr, 16);
    }
    pos = close + 1;
  }
  const std::size_t want =
      workload::paper_mixes().size() * std::size(core::kAllSchemes);
  if (out.size() != want) {
    throw std::runtime_error("golden mixes section of " + path.string() +
                             " holds " + std::to_string(out.size()) +
                             " entries, expected " + std::to_string(want));
  }
  return out;
}

harness::PhaseConfig golden_phases(std::uint64_t seed) {
  harness::PhaseConfig ph;
  ph.warmup_cycles = 20'000;
  ph.profile_cycles = 100'000;
  ph.measure_cycles = 100'000;
  ph.seed = seed;
  return ph;
}

std::vector<harness::Experiment> table4_experiments(std::uint64_t seed) {
  std::vector<harness::Experiment> out;
  for (const workload::MixSpec& m : workload::paper_mixes()) {
    out.emplace_back(harness::SystemConfig{}, workload::resolve_mix(m),
                     golden_phases(seed));
  }
  return out;
}

harness::shard::Portfolio seeded_portfolio(const std::string& name,
                                           std::uint64_t seed) {
  harness::shard::Portfolio p = harness::shard::make_portfolio(name);
  for (harness::shard::ShardConfig& c : p.configs) c.seed = seed;
  return p;
}

advisor::ServiceConfig stream_config(obs::Hub* hub) {
  advisor::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.batch_lines = AdvisorStream::kBatchLines;
  cfg.hub = hub;
  return cfg;
}

// ---------------------------------------------------------------------------
// table4_sweep

Table4Sweep::Table4Sweep(const WorkloadOptions& opt)
    : experiments_(table4_experiments(opt.seed)) {
  // Mix-major so a pass walks every scheme of one snapshot in turn, the
  // order run_all and the figure benches use.
  for (const workload::MixSpec& m : workload::paper_mixes()) {
    for (const core::Scheme s : core::kAllSchemes) {
      keys_.push_back(std::string(m.name) + "|" + core::to_string(s));
    }
  }
  if (opt.seed == 42) book_ = FingerprintBook(read_golden_mixes(opt.golden));
}

void Table4Sweep::setup() {
  snapshots_.clear();
  for (const harness::Experiment& e : experiments_) {
    snapshots_.push_back(e.capture_profile());
  }
}

double Table4Sweep::work_per_op() const {
  return static_cast<double>(experiments_.front().phases().measure_cycles);
}

void Table4Sweep::run_op(std::size_t i) {
  constexpr std::size_t kSchemes = std::size(core::kAllSchemes);
  const std::size_t mix = i / kSchemes;
  last_fp_ = harness::fingerprint(experiments_[mix].measure_from(
      snapshots_[mix], core::kAllSchemes[i % kSchemes]));
}

bool Table4Sweep::check_op(std::size_t i, std::string& why) {
  if (book_.check(keys_[i], last_fp_)) return true;
  why = "fingerprint mismatch on " + keys_[i];
  return false;
}

// ---------------------------------------------------------------------------
// portfolio64_spool

Portfolio64Spool::Portfolio64Spool(const WorkloadOptions& opt)
    : portfolio_(seeded_portfolio("portfolio64", opt.seed)),
      units_(harness::shard::enumerate_units(portfolio_)),
      experiment_(harness::shard::make_experiment(portfolio_.configs.front())),
      spool_(opt.scratch / "spool") {}

void Portfolio64Spool::setup() {
  // Drop the previous snapshot first so a repeated set-up does not hold
  // two of them at once.
  snapshot_ = {};
  fs::remove_all(spool_.root());
  spool_.init();
  snapshot_ = experiment_.capture_profile();
  spool_.put_snapshot(snapshot_.config_fp, snapshot_);
}

void Portfolio64Spool::prepare() {
  // Each unit's expected fingerprint is an in-process fork of the same
  // measure phase, computed once, outside the timed region.
  std::map<std::string, std::uint64_t> expected;
  for (const harness::shard::ShardUnit& u : units_) {
    expected[u.key] =
        harness::fingerprint(experiment_.measure_from(snapshot_, u.scheme));
  }
  book_ = FingerprintBook(std::move(expected));
}

void Portfolio64Spool::run_op(std::size_t i) {
  spool_.publish(units_[i]);
  last_completed_ = harness::shard::run_worker(spool_.root()).completed;
}

bool Portfolio64Spool::check_op(std::size_t i, std::string& why) {
  const harness::shard::ShardUnit& u = units_[i];
  if (last_completed_ != 1 || !spool_.has_result(u.key)) {
    why = "unit " + u.key + " was not completed";
    return false;
  }
  if (!book_.check(u.key, spool_.read_result(u.key).fingerprint)) {
    why = "unit " + u.key + " disagrees with its in-process measure_from";
    return false;
  }
  return true;
}

bool Portfolio64Spool::end_pass(std::string& why) {
  const harness::shard::MergedPortfolio merged =
      harness::shard::merge(spool_, portfolio_);
  if (merged.missing != 0) {
    why = "merge found " + std::to_string(merged.missing) + " missing units";
    return false;
  }
  if (!portfolio_fp_) portfolio_fp_ = merged.portfolio_fp;
  if (*portfolio_fp_ != merged.portfolio_fp) {
    why = "merged portfolio_fp changed between passes";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// advisor_stream

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& s, double lo, double hi) {
  const double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

/// One request line; magnitudes follow the simulator's Table III/IV ranges
/// (APC_alone in [0.02, 0.6], API in [0.05, 0.9]).
void append_request(std::string& out, std::uint64_t id, std::uint64_t& rng) {
  static constexpr const char* kObjectives[] = {"wsp", "fair", "qos"};
  const std::size_t kind = id % 3;
  const std::size_t napps = 2 + id % 7;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "r%llu %s b=%.6f",
                static_cast<unsigned long long>(id), kObjectives[kind],
                uniform(rng, 0.3, 1.6));
  out += buf;
  for (std::size_t a = 0; a < napps; ++a) {
    const double apc = uniform(rng, 0.02, 0.6);
    const double api = uniform(rng, 0.05, 0.9);
    if (kind == 2 && a == 0) {
      // One guaranteed app with a loose target (half its standalone IPC)
      // so most plans stay feasible.
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,1,%.6f", a, apc, api,
                    0.5 * apc / api);
    } else if (kind == 0 && id % 5 == 0) {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,%.3f", a, apc, api,
                    uniform(rng, 0.5, 4.0));
    } else {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f", a, apc, api);
    }
    out += buf;
  }
  out += '\n';
}

}  // namespace

std::vector<std::string> advisor_corpus(std::uint64_t seed,
                                        std::size_t batches,
                                        std::size_t lines) {
  std::vector<std::string> out(batches);
  std::uint64_t rng = seed;
  std::uint64_t id = 0;
  for (std::string& batch : out) {
    for (std::size_t l = 0; l < lines; ++l) append_request(batch, id++, rng);
  }
  return out;
}

AdvisorStream::AdvisorStream(const WorkloadOptions& opt)
    : corpus_(advisor_corpus(opt.seed, kRingBatches, kBatchLines)) {}

void AdvisorStream::setup() {
  service_ =
      std::make_unique<advisor::AdvisorService>(stream_config(nullptr));
  run_op(0);
}

void AdvisorStream::run_op(std::size_t i) {
  out_.clear();
  ViewBuf in_buf(corpus_[i]);
  AppendBuf out_buf(out_);
  std::istream in(&in_buf);
  std::ostream out(&out_buf);
  last_stats_ = service_->run(in, out);
}

bool AdvisorStream::check_op(std::size_t i, std::string& why) {
  std::size_t lines = 0;
  std::size_t ok = 0;
  for (std::size_t p = 0; p < out_.size();) {
    std::size_t nl = out_.find('\n', p);
    if (nl == std::string::npos) nl = out_.size();
    ++lines;
    if (std::string_view(out_).substr(p, nl - p).find("\"ok\":true") !=
        std::string_view::npos) {
      ++ok;
    }
    p = nl + 1;
  }
  if (last_stats_.requests != kBatchLines || last_stats_.ok != kBatchLines ||
      last_stats_.parse_errors != 0 || lines != kBatchLines ||
      ok != kBatchLines) {
    why = "batch " + std::to_string(i) + ": " + std::to_string(ok) + "/" +
          std::to_string(lines) + " lines answered ok, " +
          std::to_string(last_stats_.parse_errors) + " parse errors";
    return false;
  }
  const std::uint64_t checksum = harness::hash_bytes(out_.data(), out_.size());
  if (!book_.check(std::to_string(i), checksum)) {
    why = "batch " + std::to_string(i) + " response checksum changed";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "table4_sweep") return std::make_unique<Table4Sweep>(opt);
  if (name == "portfolio64_spool") {
    return std::make_unique<Portfolio64Spool>(opt);
  }
  if (name == "advisor_stream") return std::make_unique<AdvisorStream>(opt);
  return nullptr;
}

}  // namespace perfbench
