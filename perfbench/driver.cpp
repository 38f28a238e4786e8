// perfbench_driver: one workload, one process, one closed-loop client.
//
//   perfbench_driver --workload <table4_sweep|portfolio64_spool|advisor_stream>
//                    --seed N --seconds S --trace 0|1
//                    --golden tests/golden/fingerprints.json --scratch DIR
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 the
// per-layer metrics of a traced one (layers.hpp). The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}; the line
// before it is a diagnostic object (host-speed probe, sample counts, p50 to
// p99.9 where ten samples lie beyond) that is not a metric.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The host-speed probe: a fixed dependent-load and integer-mixing kernel
/// owned by the benchmark. It shares no code with the program, so when two
/// sets of runs disagree, a matching shift in probe time points at the host
/// rather than at a code change.
std::uint64_t probe_checksum = 0;

double probe_ms() {
  constexpr std::uint32_t kSlots = 1u << 18;  // 1 MiB of links
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(s >> 33) % (i + 1)]);
    }
    std::vector<std::uint32_t> links(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      links[order[i]] = order[(i + 1) % kSlots];
    }
    return links;
  }();
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  std::uint64_t mix = 1;
  for (int k = 0; k < 2'000'000; ++k) {
    at = next[at];
    mix = (mix ^ at) * 0x100000001b3ull;
  }
  const double ms = seconds_since(t0) * 1e3;
  probe_checksum = mix;  // printed, so the chain cannot be optimized away
  return ms;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  WorkloadOptions opt;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--golden") {
      a.opt.golden = v;
    } else if (flag == "--scratch") {
      a.opt.scratch = v;
    } else {
      return false;
    }
  }
  a.opt.seed = a.seed;
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         !a.opt.scratch.empty();
}

void print_metrics(const Metrics& m) {
  std::printf("\"metrics\": {");
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", ",
              correct ? "true" : "false", attempted, failed);
  print_metrics(m);
  std::printf("}\n");
}

/// Every percentile of the ladder that has ten samples beyond it, for the
/// diagnostic line: {"p50": ns, "p90": ns, ...}.
std::string percentiles_json(const std::vector<double>& latency_ns) {
  std::string out = "{";
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const Tail t = tail_percentile(latency_ns, q);
    if (t.q != q) break;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"p%g\": %.6g",
                  out.size() > 1 ? ", " : "", q * 100.0, t.value);
    out += buf;
  }
  return out + "}";
}

/// The tail every workload reports. On advisor_stream a p99 spread 21% of
/// its median over ten runs (4-8 ms host hiccups reach into it), against 5%
/// for p90, so p90 is the tail everywhere; the diagnostic line keeps p99.
constexpr double kTailQ = 0.9;

/// The untraced run: one checked warm-up pass, then timed passes, each after
/// its own set-up, until `seconds` have elapsed and p90 has ten samples
/// beyond it.
int untraced(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.opt);
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(probe_ms());

  std::vector<double> setups;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
  };
  timed_setup();
  w->prepare();

  OpLedger ledger;
  std::string why;
  auto check = [&](bool ok) { ledger.check(ok, why); };

  const std::size_t n = w->ops_per_pass();
  for (std::size_t i = 0; i < n; ++i) {
    w->run_op(i);
    check(w->check_op(i, why));
  }
  check(w->end_pass(why));

  std::vector<double> latency_ns;
  double busy_s = 0.0;
  std::size_t passes = 0;
  const std::size_t min_samples = samples_needed(kTailQ);
  const auto start = Clock::now();
  for (bool done = false; !done;) {
    // Every pass starts from its own set-up. Its median then spans the same
    // host-speed regimes as the ops, and every run allocates in the same
    // order, which keeps peak_rss_mb from depending on timing.
    timed_setup();
    std::size_t i = 0;
    for (; i < n; ++i) {
      const auto t0 = Clock::now();
      w->run_op(i);
      const double s = seconds_since(t0);
      busy_s += s;
      latency_ns.push_back(s * 1e9);
      check(w->check_op(i, why));
      const double elapsed = seconds_since(start);
      if (elapsed >= a.seconds && latency_ns.size() >= min_samples) {
        done = true;
        ++i;
        break;
      }
    }
    if (i == n) {
      ++passes;
      check(w->end_pass(why));
    }
  }
  for (int i = 0; i < 3; ++i) probes.push_back(probe_ms());

  const Tail tail = tail_percentile(latency_ns, kTailQ);
  // Throughput over every timed op: the host's speed switches between
  // regimes every few seconds, and a mean over them moves less from run to
  // run than a median, which jumps when a run is split near half and half.
  const double ops = static_cast<double>(latency_ns.size());
  Metrics m;
  m["work_per_s"] = {ops * w->work_per_op() / busy_s, "1/s"};
  m["latency_p50_ns"] = {median(latency_ns), "ns"};
  m["latency_p90_ns"] = {tail.value, "ns"};
  m["setup_s"] = {median(setups), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const double probe = median(probes);
  std::printf(
      "{\"diagnostic\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"probe_ms\": %.6g, \"probe_checksum\": %" PRIu64
      ", \"pass_over_probe\": %.6g, \"ops\": %zu, "
      "\"complete_passes\": %zu, \"tail_percentile\": %g, "
      "\"tail_samples\": %zu, \"tail_samples_beyond\": %zu, "
      "\"percentiles_ns\": %s, \"setup_repeats\": %zu, "
      "\"first_failure\": \"%s\"}}\n",
      a.workload.c_str(), a.seed, probe, probe_checksum,
      busy_s / ops * static_cast<double>(n) * 1e3 / probe, latency_ns.size(),
      passes, tail.q * 100.0, tail.samples,
      tail.beyond, percentiles_json(latency_ns).c_str(), setups.size(),
      ledger.first_failure.c_str());
  print_result(ledger.failed == 0, ledger.attempted, ledger.failed, m);
  return 0;
}

int traced(const Args& a) {
  const double probe_before = probe_ms();
  const TracedResult r = traced_run(a.workload, a.opt, a.seconds);
  std::printf("{\"diagnostic\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"probe_ms\": %.6g, \"first_failure\": \"%s\"}}\n",
              a.workload.c_str(), a.seed, (probe_before + probe_ms()) / 2.0,
              r.ledger.first_failure.c_str());
  print_result(r.ledger.failed == 0, r.ledger.attempted, r.ledger.failed,
               r.metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a) ||
      (a.workload != "table4_sweep" && a.workload != "portfolio64_spool" &&
       a.workload != "advisor_stream")) {
    std::fprintf(stderr,
                 "usage: %s --workload <table4_sweep|portfolio64_spool|"
                 "advisor_stream> --seed N --seconds S --trace 0|1 "
                 "--golden FILE --scratch DIR\n",
                 argv[0]);
    return 2;
  }
  try {
    return a.trace ? traced(a) : untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
