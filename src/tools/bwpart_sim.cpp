// bwpart_sim: command-line driver for the simulator + model.
//
//   bwpart_sim --mix hetero-5 --scheme Square_root --cycles 2000000
//   bwpart_sim --mix homo-3 --scheme all --csv
//   bwpart_sim --benchmarks lbm,gobmk,namd,hmmer --scheme Priority_API
//
// Options:
//   --mix NAME          a Table IV mix (homo-1..7, hetero-1..7)
//   --benchmarks A,B,.. explicit benchmark list instead of a mix
//   --scheme NAME|all   partitioning scheme (paper names) or every scheme
//   --cycles N          profile/measure window (default 2000000)
//   --copies N          workload replication (Fig. 4 style), 1..1024
//   --bandwidth GBPS    3.2, 6.4 or 12.8 (default 3.2); maps to the three
//                       DDR2 grades of the paper's Fig. 4, any other value
//                       is rejected
//   --dram-gen NAME     any registered DRAM generation (ddr2_400 ..
//                       hbm_like; see README "DRAM generations"); overrides
//                       --bandwidth, unknown names fail loudly listing the
//                       registered set
//   --seed N            trace seed
//   --oracle            ground-truth standalone profiling
//   --csv               machine-readable output
//   --metrics-out FILE  write metrics registry + epoch series JSON
//   --trace-out FILE    write Chrome-trace JSON (chrome://tracing, Perfetto)
//   --epochs-out FILE   write the epoch series alone as JSONL (streaming)
//   --epoch-cycles N    time-series sampling epoch (default 100000)
//   --snapshot-out FILE save the post-profile checkpoint ("BWPS" container)
//   --resume FILE       fork the measure phases from a saved checkpoint
//                       instead of re-running warmup+profile; results are
//                       bit-identical and the file is rejected loudly if it
//                       was captured under any other config/workload/seed
//   --controllers N     independent memory controllers (apps round-robin)
//   --shard-worker DIR  run as a sweep shard worker against spool DIR
//                       (claim units, measure, ship result shards) and exit;
//                       all other workload/machine flags are ignored — the
//                       unit specs in the spool carry the configuration
//   --lease-ms N        shard lease staleness threshold (default 5000)
//   --churn FILE        replay a churn schedule (see src/harness/churn.hpp
//                       for the grammar) over the measure window with online
//                       re-profiling + share re-solves per scheme
//   --churn-reprofile N re-profiling window after each churn event
//                       (default 50000 cycles)
//   --churn-epoch N     objective-evaluation epoch (default 25000 cycles)
//   --churn-static      freeze the initial allocation (static-once
//                       baseline; events still toggle liveness/phases)
//   --qos I=T[,I=T...]  guarantee app index I an IPC of T (Eq. 11); the
//                       --scheme partitions the best-effort remainder.
//                       Applies to churn runs.
//
// Numeric flags are parsed strictly (tools/cli_args.hpp): a malformed or
// out-of-range value prints the reason plus the usage text and exits 2.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/churn.hpp"
#include "harness/experiment.hpp"
#include "harness/shard.hpp"
#include "obs/hub.hpp"
#include "tools/cli_args.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace bwpart;

/// Upper bound for --copies (Fig. 4 replicates a mix at most 16x).
constexpr std::uint32_t kMaxCopies = 1024;

std::optional<core::Scheme> parse_scheme(const std::string& name) {
  for (core::Scheme s : core::kAllSchemes) {
    if (core::to_string(s) == name) return s;
  }
  return std::nullopt;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mix NAME | --benchmarks A,B,...] "
               "[--scheme NAME|all] [--cycles N]\n"
               "       [--copies N] [--bandwidth 3.2|6.4|12.8] "
               "[--dram-gen NAME] [--seed N] [--oracle] [--csv]\n"
               "       [--metrics-out FILE] [--trace-out FILE] "
               "[--epochs-out FILE] [--epoch-cycles N]\n"
               "       [--snapshot-out FILE] [--resume FILE] "
               "[--controllers N]\n"
               "       [--shard-worker SPOOL_DIR] [--lease-ms N]\n"
               "       [--churn FILE] [--churn-reprofile N] "
               "[--churn-epoch N] [--churn-static]\n"
               "       [--qos IDX=TARGET[,IDX=TARGET...]]\n",
               argv0);
  return 2;
}

/// "3=0.6,1=0.2" -> Eq. 11 requirements; nullopt on malformed input.
std::optional<std::vector<core::QosRequirement>> parse_qos(
    const std::string& spec) {
  std::vector<core::QosRequirement> reqs;
  for (const std::string& item : split_csv(spec)) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return std::nullopt;
    }
    const std::string_view text(item);
    const auto index = cli::parse_number<std::uint32_t>(text.substr(0, eq));
    const auto target = cli::parse_number<double>(text.substr(eq + 1));
    if (!index || !target || *target <= 0.0) return std::nullopt;
    reqs.push_back({*index, *target});
  }
  return reqs.empty() ? std::nullopt : std::make_optional(reqs);
}

int run_cli(int argc, char** argv) {
  std::string mix_name = "hetero-5";
  std::string bench_list;
  std::string scheme_name = "all";
  Cycle cycles = 2'000'000;
  std::uint32_t copies = 1;
  double bandwidth = 3.2;
  std::string dram_gen;
  std::uint64_t seed = 42;
  bool oracle = false;
  bool csv = false;
  std::string metrics_out;
  std::string trace_out;
  std::string epochs_out;
  Cycle epoch_cycles = 100'000;
  std::string snapshot_out;
  std::string resume_path;
  std::size_t controllers = 1;
  std::string shard_spool;
  long lease_ms = 5'000;
  std::string churn_path;
  Cycle churn_reprofile = 50'000;
  Cycle churn_epoch = 25'000;
  bool churn_static = false;
  std::vector<core::QosRequirement> qos;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--mix") {
      if (const char* v = next()) mix_name = v; else return usage(argv[0]);
    } else if (arg == "--benchmarks") {
      if (const char* v = next()) bench_list = v; else return usage(argv[0]);
    } else if (arg == "--scheme") {
      if (const char* v = next()) scheme_name = v; else return usage(argv[0]);
    } else if (arg == "--cycles") {
      if (!cli::parse_flag<Cycle>(arg, next(), cycles, 1)) {
        return usage(argv[0]);
      }
    } else if (arg == "--copies") {
      if (!cli::parse_flag<std::uint32_t>(arg, next(), copies, 1,
                                          kMaxCopies)) {
        return usage(argv[0]);
      }
    } else if (arg == "--bandwidth") {
      if (!cli::parse_flag<double>(arg, next(), bandwidth)) {
        return usage(argv[0]);
      }
      if (bandwidth != 3.2 && bandwidth != 6.4 && bandwidth != 12.8) {
        std::fprintf(stderr,
                     "--bandwidth: %g is not one of 3.2, 6.4, 12.8 (use "
                     "--dram-gen for any other machine)\n",
                     bandwidth);
        return usage(argv[0]);
      }
    } else if (arg == "--dram-gen") {
      if (const char* v = next()) dram_gen = v; else return usage(argv[0]);
    } else if (arg == "--seed") {
      if (!cli::parse_flag<std::uint64_t>(arg, next(), seed)) {
        return usage(argv[0]);
      }
    } else if (arg == "--oracle") {
      oracle = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--metrics-out") {
      if (const char* v = next()) metrics_out = v; else return usage(argv[0]);
    } else if (arg == "--trace-out") {
      if (const char* v = next()) trace_out = v; else return usage(argv[0]);
    } else if (arg == "--epochs-out") {
      if (const char* v = next()) epochs_out = v; else return usage(argv[0]);
    } else if (arg == "--epoch-cycles") {
      if (!cli::parse_flag<Cycle>(arg, next(), epoch_cycles)) {
        return usage(argv[0]);
      }
    } else if (arg == "--snapshot-out") {
      if (const char* v = next()) snapshot_out = v; else return usage(argv[0]);
    } else if (arg == "--resume") {
      if (const char* v = next()) resume_path = v; else return usage(argv[0]);
    } else if (arg == "--controllers") {
      if (!cli::parse_flag<std::size_t>(arg, next(), controllers, 1)) {
        return usage(argv[0]);
      }
    } else if (arg == "--shard-worker") {
      if (const char* v = next()) shard_spool = v; else return usage(argv[0]);
    } else if (arg == "--lease-ms") {
      if (!cli::parse_flag<long>(arg, next(), lease_ms, 1)) {
        return usage(argv[0]);
      }
    } else if (arg == "--churn") {
      if (const char* v = next()) churn_path = v; else return usage(argv[0]);
    } else if (arg == "--churn-reprofile") {
      if (!cli::parse_flag<Cycle>(arg, next(), churn_reprofile)) {
        return usage(argv[0]);
      }
    } else if (arg == "--churn-epoch") {
      if (!cli::parse_flag<Cycle>(arg, next(), churn_epoch, 1)) {
        return usage(argv[0]);
      }
    } else if (arg == "--churn-static") {
      churn_static = true;
    } else if (arg == "--qos") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_qos(v) : std::nullopt;
      if (!parsed) {
        std::fprintf(stderr, "bwpart_sim: --qos: malformed spec '%s'\n",
                     v != nullptr ? v : "");
        return usage(argv[0]);
      }
      qos = *parsed;
    } else {
      return usage(argv[0]);
    }
  }

  // Shard-worker mode: drain the spool's work-stealing queue and exit.
  if (!shard_spool.empty()) {
    harness::shard::WorkerOptions opt;
    opt.lease = std::chrono::milliseconds(lease_ms);
    try {
      const harness::shard::WorkerReport report =
          harness::shard::run_worker(shard_spool, opt);
      std::printf("shard worker drained: completed=%zu healed=%zu "
                  "stolen=%zu\n",
                  report.completed, report.healed, report.stolen);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shard worker failed: %s\n", e.what());
      return 1;
    }
  }

  // Workload.
  std::vector<workload::BenchmarkSpec> apps;
  if (!bench_list.empty()) {
    const std::vector<std::string> names = split_csv(bench_list);
    for (std::uint32_t c = 0; c < copies; ++c) {
      for (const std::string& name : names) {
        apps.push_back(workload::find_benchmark(name));
      }
    }
  } else {
    const workload::MixSpec* mix = nullptr;
    for (const auto& m : workload::paper_mixes()) {
      if (m.name == mix_name) mix = &m;
    }
    if (mix == nullptr) {
      std::fprintf(stderr, "unknown mix '%s'\n", mix_name.c_str());
      return usage(argv[0]);
    }
    apps = workload::resolve_mix(*mix, copies);
  }
  if (apps.empty()) return usage(argv[0]);

  // Machine. --dram-gen picks any registered generation by name and wins
  // over the Fig. 4 --bandwidth -> DDR2-grade mapping.
  harness::SystemConfig machine;
  if (!dram_gen.empty()) {
    try {
      machine.dram = dram::dram_config_for_generation(dram_gen);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bwpart_sim: --dram-gen: %s\n", e.what());
      return 2;
    }
  } else if (bandwidth == 12.8) {
    machine.dram = dram::DramConfig::ddr2_1600();
  } else if (bandwidth == 6.4) {
    machine.dram = dram::DramConfig::ddr2_800();
  } else {
    machine.dram = dram::DramConfig::ddr2_400();
  }
  if (controllers == 0 || controllers > apps.size()) {
    std::fprintf(stderr, "--controllers must be in [1, %zu]\n", apps.size());
    return usage(argv[0]);
  }
  machine.num_controllers = controllers;

  harness::PhaseConfig phases;
  phases.warmup_cycles = cycles / 5;
  phases.profile_cycles = cycles;
  phases.measure_cycles = cycles;
  phases.oracle_alone = oracle;
  phases.seed = seed;

  harness::Experiment experiment(machine, apps, phases);

  // Observability is opt-in: an output path enables the hub (compiled out
  // entirely under BWPART_OBS=OFF — the flags then produce empty documents).
  const bool want_obs =
      !metrics_out.empty() || !trace_out.empty() || !epochs_out.empty();
  obs::Hub hub;
  if (want_obs) {
    hub.set_epoch_cycles(epoch_cycles);
    experiment.set_observability(&hub);
  }

  std::vector<core::Scheme> schemes;
  if (scheme_name == "all") {
    schemes.assign(std::begin(core::kAllSchemes),
                   std::end(core::kAllSchemes));
  } else if (auto parsed = parse_scheme(scheme_name)) {
    schemes.push_back(*parsed);
  } else {
    std::fprintf(stderr, "unknown scheme '%s'; valid:", scheme_name.c_str());
    for (core::Scheme s : core::kAllSchemes) {
      std::fprintf(stderr, " %s", core::to_string(s).c_str());
    }
    std::fprintf(stderr, " all\n");
    return usage(argv[0]);
  }

  // Profile checkpointing: --resume forks every measure phase from a saved
  // post-profile snapshot (skipping warmup+profile, bit-identically);
  // --snapshot-out captures one for later resumes. Both validate the BWPS
  // container and the config fingerprint, and fail loudly on mismatch.
  std::optional<harness::ProfileSnapshot> profile;
  if (!resume_path.empty()) {
    try {
      profile = harness::read_profile_snapshot(resume_path);
    } catch (const snap::SnapshotError& e) {
      std::fprintf(stderr, "cannot resume from '%s': %s\n",
                   resume_path.c_str(), e.what());
      return 1;
    }
    if (profile->config_fp != experiment.config_fingerprint()) {
      std::fprintf(stderr,
                   "cannot resume from '%s': snapshot was captured under a "
                   "different machine/workload/phase/seed configuration\n",
                   resume_path.c_str());
      return 1;
    }
  } else if (!snapshot_out.empty()) {
    profile = experiment.capture_profile();
    try {
      harness::write_profile_snapshot(snapshot_out, *profile);
    } catch (const snap::SnapshotError& e) {
      std::fprintf(stderr, "cannot write snapshot '%s': %s\n",
                   snapshot_out.c_str(), e.what());
      return 1;
    }
  }

  // Churn mode: replay the schedule per scheme and report the adaptation
  // story (violation clocks, re-solves, mean adaptation lag) alongside the
  // usual whole-window metrics.
  if (!churn_path.empty()) {
    harness::ChurnSchedule schedule;
    try {
      std::ifstream in(churn_path);
      if (!in) {
        std::fprintf(stderr, "cannot open churn schedule '%s'\n",
                     churn_path.c_str());
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      schedule = harness::ChurnSchedule::parse(buf.str());
      schedule.validate(apps.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bwpart_sim: --churn: %s\n", e.what());
      return 1;
    }
    for (const core::QosRequirement& r : qos) {
      if (r.app_index >= apps.size()) {
        std::fprintf(stderr, "bwpart_sim: --qos: app %u out of range\n",
                     r.app_index);
        return 1;
      }
    }
    if (csv) {
      std::printf("scheme,hsp,wsp,qos_violation_cycles,"
                  "objective_violation_cycles,resolves,mean_adaptation_lag\n");
    }
    TextTable table({"scheme", "Hsp", "Wsp", "QoS viol", "obj viol",
                     "re-solves", "mean lag"});
    for (core::Scheme s : schemes) {
      harness::ChurnRunConfig cc;
      cc.scheme = s;
      cc.qos = qos;
      cc.resolve_on_churn = !churn_static;
      cc.reprofile_window = churn_reprofile;
      cc.eval_epoch = churn_epoch;
      harness::ChurnRunResult r;
      try {
        r = profile ? experiment.measure_churn_from(*profile, schedule, cc)
                    : experiment.run_churn(schedule, cc);
      } catch (const harness::ProfileWindowError&) {
        throw;  // a usage error, reported by main()
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bwpart_sim: churn run (%s): %s\n",
                     core::to_string(s).c_str(), e.what());
        return 1;
      }
      double lag_sum = 0.0;
      std::size_t lag_n = 0;
      for (const harness::ChurnEventOutcome& o : r.outcomes) {
        if (o.adaptation_lag != kNoCycle) {
          lag_sum += static_cast<double>(o.adaptation_lag);
          ++lag_n;
        }
      }
      const double mean_lag = lag_n == 0 ? 0.0
                                         : lag_sum / static_cast<double>(lag_n);
      if (csv) {
        std::printf("%s,%.6f,%.6f,%llu,%llu,%llu,%.0f\n",
                    core::to_string(s).c_str(), r.base.hsp, r.base.wsp,
                    static_cast<unsigned long long>(r.qos_violation_cycles),
                    static_cast<unsigned long long>(
                        r.objective_violation_cycles),
                    static_cast<unsigned long long>(r.resolves), mean_lag);
      } else {
        table.add_row({std::string(core::to_string(s)),
                       TextTable::num(r.base.hsp), TextTable::num(r.base.wsp),
                       std::to_string(r.qos_violation_cycles),
                       std::to_string(r.objective_violation_cycles),
                       std::to_string(r.resolves),
                       TextTable::num(mean_lag, 0)});
      }
    }
    if (!csv) {
      std::printf("churn schedule: %s (%zu events, fp %016llx)\n\n",
                  churn_path.c_str(), schedule.events.size(),
                  static_cast<unsigned long long>(schedule.fingerprint()));
      table.print(std::cout);
    }
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (!os) {
        std::fprintf(stderr, "cannot open '%s'\n", metrics_out.c_str());
        return 1;
      }
      hub.write_metrics_json(os);
      os << '\n';
    }
    if (!epochs_out.empty()) {
      std::ofstream os(epochs_out);
      if (!os) {
        std::fprintf(stderr, "cannot open '%s'\n", epochs_out.c_str());
        return 1;
      }
      hub.series().write_jsonl(os);
    }
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      if (!os) {
        std::fprintf(stderr, "cannot open '%s'\n", trace_out.c_str());
        return 1;
      }
      hub.trace().write_json(os);
      os << '\n';
    }
    return 0;
  }

  if (csv) {
    std::printf("scheme,hsp,min_fairness,wsp,ipc_sum,total_apc,bus_util");
    for (std::size_t i = 0; i < apps.size(); ++i) {
      std::printf(",ipc_%s_%zu", apps[i].name.data(), i);
    }
    std::printf("\n");
  }
  TextTable table({"scheme", "Hsp", "MinF", "Wsp", "IPCsum", "B(APC)",
                   "bus util"});
  for (core::Scheme s : schemes) {
    const harness::RunResult r =
        profile ? experiment.measure_from(*profile, s) : experiment.run(s);
    if (csv) {
      std::printf("%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.4f",
                  core::to_string(s).c_str(), r.hsp, r.min_fairness, r.wsp,
                  r.ipcsum, r.total_apc, r.bus_utilization);
      for (double ipc : r.ipc_shared) std::printf(",%.6f", ipc);
      std::printf("\n");
    } else {
      table.add_row({std::string(core::to_string(s)), TextTable::num(r.hsp),
                     TextTable::num(r.min_fairness), TextTable::num(r.wsp),
                     TextTable::num(r.ipcsum), TextTable::num(r.total_apc, 5),
                     TextTable::num(r.bus_utilization, 2)});
    }
  }
  if (!csv) {
    std::printf("workload:");
    for (const auto& b : apps) std::printf(" %s", b.name.data());
    std::printf("  (%.1f GB/s, %zu cores)\n\n", machine.dram.peak_gbps(),
                apps.size());
    table.print(std::cout);
  }

  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::fprintf(stderr, "cannot open '%s'\n", metrics_out.c_str());
      return 1;
    }
    hub.write_metrics_json(os);
    os << '\n';
  }
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::fprintf(stderr, "cannot open '%s'\n", trace_out.c_str());
      return 1;
    }
    hub.trace().write_json(os);
    os << '\n';
  }
  if (!epochs_out.empty()) {
    std::ofstream os(epochs_out);
    if (!os) {
      std::fprintf(stderr, "cannot open '%s'\n", epochs_out.c_str());
      return 1;
    }
    hub.series().write_jsonl(os);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every profile phase (plain runs, --snapshot-out, churn) reports a
  // window too short to estimate an app's parameters the same way: a usage
  // error naming the app and the window.
  try {
    return run_cli(argc, argv);
  } catch (const harness::ProfileWindowError& e) {
    std::fprintf(stderr,
                 "bwpart_sim: %s; rerun with a longer --cycles (it sets the "
                 "profile window)\n",
                 e.what());
    return 2;
  }
}
