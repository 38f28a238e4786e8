// bwpart_advisor: the batch bandwidth-partitioning advisor service.
//
//   bwpart_advisor --in requests.txt --out answers.jsonl
//   generate_requests | bwpart_advisor --threads 8
//   bwpart_advisor --in reqs.txt --audit-every 1000 --audit-cycles 100000
//
// Reads line-delimited profile-vector requests (see src/advisor/request.hpp
// for the grammar), answers each with one JSON line carrying the optimal
// shares/allocation/predicted IPCs for the requested objective, and — in
// audit mode — cross-checks every Nth mix-tagged request against a forked
// simulator measure phase.
//
// Options:
//   --in FILE          read requests from FILE (default stdin)
//   --out FILE         write JSONL answers to FILE (default stdout)
//   --threads N        solve parallelism (default auto, 1 = serial,
//                      at most 256)
//   --batch-lines N    lines per batch (default 4096, 1..1048576)
//   --audit-every N    audit every Nth mix-tagged request (default off)
//   --audit-cycles N   audit profile/measure window (default 100000)
//   --audit-seed N     audit trace seed (default 42)
//   --metrics-out FILE write the obs metrics registry JSON (enables obs)
//   --churn-replay FILE replay a churn schedule (ChurnSchedule grammar)
//                      against ONE superset request read from --in: one
//                      JSONL line per re-solve step (initial install plus
//                      each churn instant), shares scattered over the
//                      superset with dormant apps pinned to zero
//   --quiet            suppress the stderr summary
//
// Numeric flags are parsed strictly (tools/cli_args.hpp): a malformed or
// out-of-range value prints the reason plus the usage text and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "advisor/replay.hpp"
#include "advisor/service.hpp"
#include "obs/hub.hpp"
#include "tools/cli_args.hpp"

namespace {

constexpr std::size_t kMaxThreads = 256;
constexpr std::size_t kMaxBatchLines = std::size_t{1} << 20;
constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--in FILE] [--out FILE] [--threads N]\n"
               "          [--batch-lines N] [--audit-every N] "
               "[--audit-cycles N]\n"
               "          [--audit-seed N] [--metrics-out FILE]\n"
               "          [--churn-replay FILE] [--quiet]\n",
               argv0);
  return 2;
}

/// --churn-replay mode: one superset request from `in`, the schedule from
/// `path`, one JSONL line per re-solve step to `out`.
int run_churn_replay(const std::string& path, std::istream& in,
                     std::ostream& out, bool quiet) {
  using namespace bwpart;
  std::ifstream sched_file(path);
  if (!sched_file) {
    std::fprintf(stderr, "cannot open churn schedule '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream sched_text;
  sched_text << sched_file.rdbuf();

  // The first non-blank, non-comment line is the superset request.
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start != std::string::npos && line[start] != '#') break;
    line.clear();
  }
  if (line.empty()) {
    std::fprintf(stderr, "--churn-replay needs one request line on input\n");
    return 2;
  }
  bwpart::Arena arena;
  advisor::Request request;
  std::string error;
  if (!advisor::parse_request_line(line, line_no, arena, request, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  try {
    const harness::ChurnSchedule schedule =
        harness::ChurnSchedule::parse(sched_text.str());
    const advisor::ReplayStats stats =
        advisor::replay_churn(request, schedule, out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "write failure on output stream\n");
      return 2;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "advisor: churn replay of %zu events -> %llu re-solve "
                   "steps (%llu infeasible)\n",
                   schedule.events.size(),
                   static_cast<unsigned long long>(stats.steps),
                   static_cast<unsigned long long>(stats.infeasible));
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "churn schedule '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bwpart;

  std::string in_path, out_path, metrics_path, churn_path;
  advisor::ServiceConfig cfg;
  std::uint64_t audit_cycles = 100'000;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags: strict parse into `out`, usage error otherwise.
    const auto number = [&](auto& out, auto lo, auto hi) {
      const char* flag = argv[i];
      return cli::parse_flag<std::remove_reference_t<decltype(out)>>(
          flag, need(flag), out, lo, hi);
    };
    if (std::strcmp(argv[i], "--in") == 0) {
      in_path = need("--in");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need("--out");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!number(cfg.threads, std::size_t{0}, kMaxThreads)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--batch-lines") == 0) {
      if (!number(cfg.batch_lines, std::size_t{1}, kMaxBatchLines)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--audit-every") == 0) {
      if (!number(cfg.audit_every, std::uint64_t{0}, kNoLimit)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--audit-cycles") == 0) {
      if (!number(audit_cycles, std::uint64_t{1}, kNoLimit)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--audit-seed") == 0) {
      if (!number(cfg.audit_phases.seed, std::uint64_t{0}, kNoLimit)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_path = need("--metrics-out");
    } else if (std::strcmp(argv[i], "--churn-replay") == 0) {
      churn_path = need("--churn-replay");
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Audit forks run at golden-corpus scale by default: a 1/5 warmup plus
  // equal profile/measure windows.
  cfg.audit_phases.warmup_cycles = audit_cycles / 5;
  cfg.audit_phases.profile_cycles = audit_cycles;
  cfg.audit_phases.measure_cycles = audit_cycles;

  obs::Hub hub;
  if (!metrics_path.empty()) {
    hub.set_enabled(true);
    cfg.hub = &hub;
  }

  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file) {
      std::fprintf(stderr, "cannot open '%s'\n", in_path.c_str());
      return 2;
    }
  }
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   out_path.c_str());
      return 2;
    }
  }
  std::istream& in = in_path.empty() ? std::cin : in_file;
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  if (!churn_path.empty()) {
    return run_churn_replay(churn_path, in, out, quiet);
  }

  advisor::AdvisorService service(cfg);
  const advisor::ServiceStats stats = service.run(in, out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write failure on output stream\n");
    return 2;
  }

  if (!metrics_path.empty()) {
    std::ofstream ms(metrics_path);
    if (!ms) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   metrics_path.c_str());
      return 2;
    }
    hub.write_metrics_json(ms);
  }

  if (!quiet) {
    std::fprintf(stderr,
                 "advisor: %llu requests (%llu ok, %llu parse errors, "
                 "%llu infeasible) in %llu batches; %llu audits "
                 "(%llu skipped, max rel err %.3g)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.ok),
                 static_cast<unsigned long long>(stats.parse_errors),
                 static_cast<unsigned long long>(stats.infeasible),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.audits),
                 static_cast<unsigned long long>(stats.audit_failures),
                 stats.max_audit_rel_err);
  }
  return 0;
}
