#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "advisor/request.hpp"
#include "advisor/solver.hpp"
#include "common/arena.hpp"
#include "core/partition.hpp"
#include "harness/differential.hpp"
#include "harness/system.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bwpart;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::uint64_t counter(obs::Hub& hub, const char* name) {
  return hub.metrics().counter(name).value();
}

constexpr const char* kDramCommands[] = {
    "dram.cmd.act", "dram.cmd.rd",  "dram.cmd.rda", "dram.cmd.wr",
    "dram.cmd.wra", "dram.cmd.pre", "dram.cmd.ref"};

/// Simulator layers (harness phases, cpu/mem/dram counters) over a set of
/// configurations: every scheme's measure phase forked from each config's
/// snapshot, once without a hub and once with a fresh one per pass.
class SimLayer {
 public:
  explicit SimLayer(std::vector<harness::Experiment> experiments)
      : untraced_(std::move(experiments)), traced_(untraced_) {}

  /// Timed profile captures with a hub attached, then timed restores of
  /// each snapshot into a bench-built CmpSystem.
  void capture(std::size_t reps) {
    snapshots_.clear();
    double warm_ns = 0.0, prof_ns = 0.0, warm_cyc = 0.0, prof_cyc = 0.0;
    for (harness::Experiment& e : traced_) {
      for (std::size_t r = 0; r < reps; ++r) {
        obs::Hub hub;
        e.set_observability(&hub);
        const auto t0 = Clock::now();
        harness::ProfileSnapshot snap = e.capture_profile();
        capture_ms_.push_back(ns_since(t0) * 1e-6);
        warm_ns += static_cast<double>(counter(hub, "harness.wall_ns.warmup"));
        prof_ns +=
            static_cast<double>(counter(hub, "harness.wall_ns.profile"));
        warm_cyc += static_cast<double>(e.phases().warmup_cycles);
        prof_cyc += static_cast<double>(e.phases().profile_cycles);
        e.set_observability(nullptr);
        if (r + 1 == reps) snapshots_.push_back(std::move(snap));
      }
    }
    warmup_ns_per_cycle_ = warm_ns / warm_cyc;
    profile_ns_per_cycle_ = prof_ns / prof_cyc;
    for (std::size_t c = 0; c < untraced_.size(); ++c) {
      const harness::Experiment& e = untraced_[c];
      snapshot_bytes_ += static_cast<double>(snapshots_[c].state.size());
      for (std::size_t r = 0; r < 2 * reps + 1; ++r) {
        harness::CmpSystem sys(e.system_config(), e.apps(), e.phases().seed);
        const auto t0 = Clock::now();
        snap::Reader reader(snapshots_[c].state);
        sys.restore_state(reader);
        restore_us_.push_back(ns_since(t0) * 1e-3);
      }
    }
    snapshot_bytes_ /= static_cast<double>(untraced_.size());
  }

  /// One untraced and one traced pass, in alternating order.
  void round(OpLedger& ledger) {
    const bool traced_first = (rounds_++ % 2) == 1;
    if (traced_first) traced_pass(ledger);
    untraced_pass();
    if (!traced_first) traced_pass(ledger);
  }

  double untraced_pass_ns() const { return median(untraced_pass_ns_); }
  double traced_pass_ns() const { return median(traced_pass_ns_); }

  void report(Metrics& m) const {
    m["harness.capture_profile_ms"] = {median(capture_ms_), "ms"};
    m["harness.warmup_ns_per_cycle"] = {warmup_ns_per_cycle_, "ns"};
    m["harness.profile_ns_per_cycle"] = {profile_ns_per_cycle_, "ns"};
    m["harness.measure_ns_per_cycle"] = {median(measure_ns_per_cycle_), "ns"};
    m["harness.restore_us"] = {median(restore_us_), "us"};
    m["harness.snapshot_kb"] = {snapshot_bytes_ / 1024.0, "KiB"};
    double commands = 0.0;
    for (const std::uint64_t c : commands_) commands += static_cast<double>(c);
    m["dram.commands_per_kcycle"] = {1000.0 * commands / measure_cycles_,
                                     "1/kcycle"};
    m["dram.act_share"] = {static_cast<double>(commands_[0]) / commands,
                           "share"};
    m["dram.ns_per_command"] = {median(ns_per_command_), "ns"};
    m["mem.bus_ticks_skipped_share"] = {skipped_ticks_ / bus_ticks_, "share"};
    m["mem.scheduler_swaps"] = {static_cast<double>(scheduler_swaps_),
                                "count"};
  }

 private:
  std::size_t ops() const {
    return untraced_.size() * std::size(core::kAllSchemes);
  }

  std::uint64_t run_op(const harness::Experiment& e, std::size_t i) const {
    constexpr std::size_t kSchemes = std::size(core::kAllSchemes);
    return harness::fingerprint(e.measure_from(snapshots_[i / kSchemes],
                                               core::kAllSchemes[i % kSchemes]));
  }

  void untraced_pass() {
    const bool first = fingerprints_.empty();
    double total = 0.0;
    for (std::size_t i = 0; i < ops(); ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t fp = run_op(untraced_[i / std::size(core::kAllSchemes)], i);
      total += ns_since(t0);
      if (first) fingerprints_.push_back(fp);
    }
    untraced_pass_ns_.push_back(total);
  }

  void traced_pass(OpLedger& ledger) {
    if (fingerprints_.empty()) untraced_pass();
    obs::Hub hub;
    for (harness::Experiment& e : traced_) e.set_observability(&hub);
    double total = 0.0;
    double cycles = 0.0;
    for (std::size_t i = 0; i < ops(); ++i) {
      const harness::Experiment& e = traced_[i / std::size(core::kAllSchemes)];
      const auto t0 = Clock::now();
      const std::uint64_t fp = run_op(e, i);
      total += ns_since(t0);
      cycles += static_cast<double>(e.phases().measure_cycles);
      ledger.check(fp == fingerprints_[i],
                   "a traced measure phase changed its fingerprint");
    }
    for (harness::Experiment& e : traced_) e.set_observability(nullptr);
    traced_pass_ns_.push_back(total);

    const auto measure_ns =
        static_cast<double>(counter(hub, "harness.wall_ns.measure"));
    measure_ns_per_cycle_.push_back(measure_ns / cycles);
    std::uint64_t commands = 0;
    for (std::size_t k = 0; k < std::size(kDramCommands); ++k) {
      commands += counter(hub, kDramCommands[k]);
    }
    ns_per_command_.push_back(measure_ns / static_cast<double>(commands));
    if (commands_.empty()) {
      // The counts repeat exactly on every pass; keep the first.
      for (const char* name : kDramCommands) {
        commands_.push_back(counter(hub, name));
      }
      measure_cycles_ = cycles;
      skipped_ticks_ = static_cast<double>(
          hub.metrics().histogram("mem.skip_ticks").sum());
      scheduler_swaps_ = counter(hub, "mem.scheduler_swaps");
      for (std::size_t c = 0; c < traced_.size(); ++c) {
        const harness::SystemConfig& cfg = traced_[c].system_config();
        bus_ticks_ += static_cast<double>(std::size(core::kAllSchemes)) *
                      static_cast<double>(traced_[c].phases().measure_cycles) *
                      static_cast<double>(cfg.dram.bus_clock.hz) /
                      static_cast<double>(cfg.cpu_clock.hz) *
                      static_cast<double>(cfg.num_controllers);
      }
    }
  }

  std::vector<harness::Experiment> untraced_;
  std::vector<harness::Experiment> traced_;
  std::vector<harness::ProfileSnapshot> snapshots_;
  std::vector<std::uint64_t> fingerprints_;
  std::size_t rounds_ = 0;

  std::vector<double> capture_ms_, restore_us_;
  double warmup_ns_per_cycle_ = 0.0, profile_ns_per_cycle_ = 0.0;
  double snapshot_bytes_ = 0.0;
  std::vector<double> untraced_pass_ns_, traced_pass_ns_;
  std::vector<double> measure_ns_per_cycle_, ns_per_command_;
  std::vector<std::uint64_t> commands_;
  double measure_cycles_ = 0.0, skipped_ticks_ = 0.0, bus_ticks_ = 0.0;
  std::uint64_t scheduler_swaps_ = 0;
};

/// The bwpart_sweepd unit path: spool write, unit op vs. the in-process
/// fork of the same unit, and the merge.
class SpoolLayer {
 public:
  SpoolLayer(harness::shard::Portfolio portfolio, fs::path root)
      : portfolio_(std::move(portfolio)),
        units_(harness::shard::enumerate_units(portfolio_)),
        experiment_(harness::shard::make_experiment(portfolio_.configs.at(0))),
        spool_(std::move(root)),
        snapshot_(experiment_.capture_profile()) {}

  void round(OpLedger& ledger) {
    fs::remove_all(spool_.root());
    spool_.init();
    auto t0 = Clock::now();
    spool_.put_snapshot(snapshot_.config_fp, snapshot_);
    put_ms_.push_back(ns_since(t0) * 1e-6);
    for (const harness::shard::ShardUnit& u : units_) {
      t0 = Clock::now();
      spool_.publish(u);
      harness::shard::run_worker(spool_.root());
      const double unit_ns = ns_since(t0);
      t0 = Clock::now();
      const std::uint64_t fp =
          harness::fingerprint(experiment_.measure_from(snapshot_, u.scheme));
      overhead_ms_.push_back((unit_ns - ns_since(t0)) * 1e-6);
      ledger.check(spool_.has_result(u.key) &&
                       spool_.read_result(u.key).fingerprint == fp,
                   "spool unit " + u.key + " disagrees with measure_from");
    }
    t0 = Clock::now();
    const harness::shard::MergedPortfolio merged =
        harness::shard::merge(spool_, portfolio_);
    merge_ms_.push_back(ns_since(t0) * 1e-6);
    ledger.check(merged.missing == 0, "merge found missing units");
  }

  void report(Metrics& m) const {
    m["harness.spool_put_ms"] = {median(put_ms_), "ms"};
    m["harness.unit_overhead_ms"] = {median(overhead_ms_), "ms"};
    m["harness.merge_ms"] = {median(merge_ms_), "ms"};
  }

 private:
  harness::shard::Portfolio portfolio_;
  std::vector<harness::shard::ShardUnit> units_;
  harness::Experiment experiment_;
  harness::shard::Spool spool_;
  harness::ProfileSnapshot snapshot_;
  std::vector<double> put_ms_, overhead_ms_, merge_ms_;
};

/// advisor + core: whole batches through an untraced and a hub-attached
/// service, and the parse and per-objective solve steps timed as blocks
/// over the same requests.
class AdvisorLayer {
 public:
  enum Kind : std::size_t { kWsp, kFair, kQos, kWeighted, kKinds };

  explicit AdvisorLayer(std::uint64_t seed)
      : corpus_(advisor_corpus(seed, AdvisorStream::kRingBatches,
                               AdvisorStream::kBatchLines)),
        untraced_(stream_config(nullptr)),
        traced_(stream_config(&hub_)) {}

  void round(OpLedger& ledger) {
    const bool traced_first = (rounds_++ % 2) == 1;
    if (traced_first) traced_pass_ns_.push_back(serve(traced_, ledger, true));
    untraced_pass_ns_.push_back(serve(untraced_, ledger, false));
    if (!traced_first) traced_pass_ns_.push_back(serve(traced_, ledger, true));
    blocks(ledger);
  }

  double untraced_pass_ns() const { return median(untraced_pass_ns_); }
  double traced_pass_ns() const { return median(traced_pass_ns_); }

  void report(Metrics& m) const {
    static constexpr const char* kNames[kKinds] = {
        "advisor.solve_ns.wsp", "advisor.solve_ns.fair",
        "advisor.solve_ns.qos", "advisor.solve_ns.weighted"};
    const double parse = median(parse_ns_);
    m["advisor.parse_ns"] = {parse, "ns"};
    for (std::size_t k = 0; k < kKinds; ++k) {
      m[kNames[k]] = {median(solve_ns_[k]), "ns"};
    }
    const double requests = static_cast<double>(corpus_.size() *
                                                AdvisorStream::kBatchLines);
    m["advisor.emit_ns"] = {
        untraced_pass_ns() / requests - parse - median(solve_all_ns_), "ns"};
  }

 private:
  double serve(advisor::AdvisorService& service, OpLedger& ledger,
               bool traced) {
    const std::uint64_t before = counter(hub_, "advisor.requests");
    double total = 0.0;
    for (std::size_t b = 0; b < corpus_.size(); ++b) {
      out_.clear();
      ViewBuf in_buf(corpus_[b]);
      AppendBuf out_buf(out_);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      const auto t0 = Clock::now();
      service.run(in, out);
      total += ns_since(t0);
      const std::uint64_t sum = harness::hash_bytes(out_.data(), out_.size());
      if (checksums_.size() <= b) checksums_.push_back(sum);
      ledger.check(sum == checksums_[b],
                   "advisor batch answers differ between passes");
    }
    if (traced) {
      ledger.check(counter(hub_, "advisor.requests") - before ==
                           corpus_.size() * AdvisorStream::kBatchLines &&
                       counter(hub_, "advisor.parse_errors") == 0,
                   "advisor.* counters disagree with the requests served");
    }
    return total;
  }

  void blocks(OpLedger& ledger) {
    double parse = 0.0, solve_all = 0.0, n = 0.0;
    double solve[kKinds] = {};
    double count[kKinds] = {};
    for (const std::string& batch : corpus_) {
      arena_.reset();
      requests_.clear();
      std::uint64_t line_no = 0;
      bool parsed = true;
      auto t0 = Clock::now();
      for (std::size_t p = 0; p < batch.size();) {
        const std::size_t nl = batch.find('\n', p);
        advisor::Request req;
        parsed &= advisor::parse_request_line(
            std::string_view(batch).substr(p, nl - p), ++line_no, arena_, req,
            error_);
        requests_.push_back(req);
        p = nl + 1;
      }
      parse += ns_since(t0);
      ledger.check(parsed, "advisor parse error: " + error_);
      n += static_cast<double>(requests_.size());
      for (std::size_t k = 0; k < kKinds; ++k) {
        t0 = Clock::now();
        for (const advisor::Request& req : requests_) {
          if (kind(req) != k) continue;
          solver_.solve(req, arena_, answer_);
          count[k] += 1.0;
        }
        const double ns = ns_since(t0);
        solve[k] += ns;
        solve_all += ns;
      }
    }
    parse_ns_.push_back(parse / n);
    solve_all_ns_.push_back(solve_all / n);
    for (std::size_t k = 0; k < kKinds; ++k) {
      solve_ns_[k].push_back(solve[k] / count[k]);
    }
  }

  static std::size_t kind(const advisor::Request& req) {
    switch (req.objective) {
      case advisor::Objective::WeightedSpeedup:
        return req.unit_weights ? kWsp : kWeighted;
      case advisor::Objective::Fairness: return kFair;
      case advisor::Objective::Qos: return kQos;
    }
    return kWsp;
  }

  std::vector<std::string> corpus_;
  obs::Hub hub_;
  advisor::AdvisorService untraced_;
  advisor::AdvisorService traced_;
  std::vector<std::uint64_t> checksums_;
  std::string out_;
  std::size_t rounds_ = 0;

  Arena arena_;
  advisor::Solver solver_;
  advisor::Answer answer_;
  std::vector<advisor::Request> requests_;
  std::string error_;

  std::vector<double> untraced_pass_ns_, traced_pass_ns_;
  std::vector<double> parse_ns_, solve_all_ns_;
  std::vector<double> solve_ns_[kKinds];
};

/// Bench-built CmpSystems run through all three phases in fixed chunks:
/// host ns per simulated cycle and the share of cycles fast-forward skipped.
struct EngineRun {
  double ns_per_cycle = 0.0;
  double skipped = 0.0;
  double cycles = 0.0;
};

EngineRun engine_run(const harness::Experiment& e) {
  constexpr Cycle kChunk = 10'000;
  const harness::PhaseConfig& ph = e.phases();
  const Cycle total = ph.warmup_cycles + ph.profile_cycles + ph.measure_cycles;
  std::vector<double> ns;
  EngineRun out;
  for (int rep = 0; rep < 3; ++rep) {
    harness::CmpSystem sys(e.system_config(), e.apps(), ph.seed);
    const auto t0 = Clock::now();
    for (Cycle done = 0; done < total; done += kChunk) {
      sys.run(std::min(kChunk, total - done));
    }
    ns.push_back(ns_since(t0));
    out.skipped = static_cast<double>(sys.skipped_cycles());
    out.cycles = static_cast<double>(sys.now());
  }
  out.ns_per_cycle = median(ns) / out.cycles;
  return out;
}

harness::shard::Portfolio spool_portfolio(bool p64, std::uint64_t seed) {
  harness::shard::Portfolio p =
      seeded_portfolio(p64 ? "portfolio64" : "table4", seed);
  // One Table IV config (the Fig. 1 mix) is enough to time the unit path.
  std::erase_if(p.configs, [](const harness::shard::ShardConfig& c) {
    return c.mix != "hetero-5";
  });
  return p;
}

double overhead_share(double untraced_ns, double traced_ns) {
  // 1 - traced work_per_s / untraced work_per_s over the same work.
  return 1.0 - untraced_ns / traced_ns;
}

}  // namespace

TracedResult traced_run(const std::string& workload,
                        const WorkloadOptions& opt, double seconds) {
  const auto start = Clock::now();
  const bool p64 = workload == "portfolio64_spool";
  const bool adv = workload == "advisor_stream";

  const std::vector<harness::Experiment> table4 = table4_experiments(opt.seed);
  std::vector<harness::Experiment> sim_configs = table4;
  if (p64) {
    sim_configs = {harness::shard::make_experiment(
        spool_portfolio(true, opt.seed).configs.at(0))};
  }
  SimLayer sim(sim_configs);
  sim.capture(p64 ? 3 : 1);
  SpoolLayer spool(spool_portfolio(p64, opt.seed),
                   opt.scratch / "trace-spool");
  AdvisorLayer advisor(opt.seed);

  OpLedger ledger;
  Metrics m;
  double skipped = 0.0, cycles = 0.0;
  for (std::size_t i = 0; i < table4.size(); ++i) {
    const EngineRun r = engine_run(table4[i]);
    m["engine.ns_per_cycle." +
      std::string(workload::paper_mixes()[i].name)] = {r.ns_per_cycle, "ns"};
    if (!p64) {
      skipped += r.skipped;
      cycles += r.cycles;
    }
  }
  if (p64) {
    const EngineRun r = engine_run(sim_configs.front());
    skipped = r.skipped;
    cycles = r.cycles;
  }
  m["cpu.ff_skipped_share"] = {skipped / cycles, "share"};

  // Every layer once; then the workload's own layers until time is up.
  sim.round(ledger);
  spool.round(ledger);
  advisor.round(ledger);
  while (std::chrono::duration<double>(Clock::now() - start).count() <
         seconds) {
    if (adv) {
      advisor.round(ledger);
    } else {
      sim.round(ledger);
      if (p64) spool.round(ledger);
    }
  }

  sim.report(m);
  spool.report(m);
  advisor.report(m);
  m["trace.overhead_share"] = {
      adv ? overhead_share(advisor.untraced_pass_ns(),
                           advisor.traced_pass_ns())
          : overhead_share(sim.untraced_pass_ns(), sim.traced_pass_ns()),
      "share"};
  return TracedResult{std::move(m), std::move(ledger)};
}

}  // namespace perfbench
