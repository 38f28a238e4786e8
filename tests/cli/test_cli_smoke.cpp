// End-to-end smoke tests for the bwpart_sim command-line driver, exercising
// the observability outputs (--metrics-out / --trace-out / --epochs-out /
// --epoch-cycles) and the snapshot checkpointing flags (--snapshot-out /
// --resume) as a user would: real process invocations, outputs validated
// with the in-tree JSON parser, resumed results compared byte-for-byte
// against straight runs, and corrupt/mismatched snapshots rejected with a
// nonzero exit.
//
// The binary under test is passed as argv[1] by ctest
// ($<TARGET_FILE:bwpart_sim>), so the suite needs a custom main.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../obs/mini_json.hpp"

namespace {

using bwpart::testjson::Value;
using bwpart::testjson::ValuePtr;

std::string g_sim_path;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "cli_smoke_" + name;
}

/// Runs `cmd` with stdout redirected to a temp file; returns the process
/// exit code and fills `out` with the captured stdout.
int run_cmd(const std::string& cmd, std::string* out = nullptr) {
  const std::string capture = tmp_path("stdout.txt");
  const int status =
      std::system((cmd + " > " + capture + " 2> /dev/null").c_str());
  if (out != nullptr) {
    std::ifstream in(capture);
    std::stringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
  }
  std::remove(capture.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char kBaseArgs[] = " --mix hetero-3 --cycles 60000 --csv";

// All four observability flags in one invocation: the metrics document and
// the Chrome trace must parse as JSON with the expected structure, the
// epoch series must parse line-by-line as JSONL.
TEST(CliSmoke, ObservabilityOutputsAreValidJson) {
  const std::string metrics = tmp_path("metrics.json");
  const std::string trace = tmp_path("trace.json");
  const std::string epochs = tmp_path("epochs.jsonl");
  const int rc = run_cmd(g_sim_path + kBaseArgs + " --scheme Equal" +
                         " --metrics-out " + metrics + " --trace-out " +
                         trace + " --epochs-out " + epochs +
                         " --epoch-cycles 20000");
  ASSERT_EQ(rc, 0);

  const ValuePtr mdoc = bwpart::testjson::parse(read_file(metrics));
  ASSERT_TRUE(mdoc->is_object());
  ASSERT_TRUE(mdoc->has("schema"));
  ASSERT_TRUE(mdoc->has("metrics"));
  EXPECT_GT(mdoc->at("metrics").size(), 0u);

  const ValuePtr tdoc = bwpart::testjson::parse(read_file(trace));
  ASSERT_TRUE(tdoc->is_object());
  ASSERT_TRUE(tdoc->has("traceEvents"));
  EXPECT_TRUE(tdoc->at("traceEvents").is_array());

  std::ifstream ein(epochs);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(ein, line)) {
    if (line.empty()) continue;
    const ValuePtr row = bwpart::testjson::parse(line);
    EXPECT_TRUE(row->is_object()) << "epoch row " << rows;
    ++rows;
  }
  EXPECT_GT(rows, 0u) << "epoch series is empty despite --epoch-cycles";

  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  std::remove(epochs.c_str());
}

// --snapshot-out writes a checkpoint and produces the same CSV as a plain
// run; --resume forks from the checkpoint and must reproduce that CSV
// byte-for-byte (the bit-identity contract, observed end-to-end through the
// CLI).
TEST(CliSmoke, SnapshotResumeReproducesStraightRunExactly) {
  const std::string snap = tmp_path("profile.bwps");
  std::string straight, with_save, resumed;
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all", &straight), 0);
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all --snapshot-out " +
                        snap,
                    &with_save),
            0);
  std::ifstream sf(snap, std::ios::binary);
  ASSERT_TRUE(sf.good()) << "snapshot file was not written";
  sf.close();
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all --resume " + snap,
                    &resumed),
            0);
  EXPECT_FALSE(straight.empty());
  EXPECT_EQ(straight, with_save);
  EXPECT_EQ(straight, resumed);
  std::remove(snap.c_str());
}

// A truncated snapshot and a snapshot from a different configuration are
// both rejected with a nonzero exit instead of silently producing numbers.
TEST(CliSmoke, CorruptOrMismatchedSnapshotsAreRejected) {
  const std::string snap = tmp_path("reject.bwps");
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs +
                    " --scheme Equal --snapshot-out " + snap),
            0);

  // Different mix and different seed: the config fingerprint must not match.
  EXPECT_NE(run_cmd(g_sim_path + " --mix homo-1 --cycles 60000 --csv" +
                    " --scheme Equal --resume " + snap),
            0);
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs +
                    " --seed 7 --scheme Equal --resume " + snap),
            0);

  // Truncate the container: loud failure, nonzero exit.
  const std::string whole = read_file(snap);
  ASSERT_GT(whole.size(), 64u);
  const std::string trunc = tmp_path("truncated.bwps");
  std::ofstream ts(trunc, std::ios::binary);
  ts.write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  ts.close();
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal --resume " +
                    trunc),
            0);

  // Flip one byte mid-file: checksum failure, nonzero exit.
  std::string flipped = whole;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  const std::string flip = tmp_path("flipped.bwps");
  std::ofstream fs(flip, std::ios::binary);
  fs.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  fs.close();
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal --resume " +
                    flip),
            0);

  std::remove(snap.c_str());
  std::remove(trunc.c_str());
  std::remove(flip.c_str());
}

// --dram-gen swaps the whole timing matrix in from the generation registry:
// each generation must run cleanly and move the numbers, and naming the
// baseline explicitly must reproduce the default run byte-for-byte.
TEST(CliSmoke, DramGenerationFlagSelectsRegistryConfigs) {
  std::string ddr2, ddr2_named, ddr4, hbm;
  const std::string base = g_sim_path + kBaseArgs + " --scheme Equal";
  ASSERT_EQ(run_cmd(base, &ddr2), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen ddr2_400", &ddr2_named), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen ddr4_2400", &ddr4), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen hbm_like", &hbm), 0);
  EXPECT_FALSE(ddr2.empty());
  EXPECT_FALSE(ddr4.empty());
  EXPECT_EQ(ddr2, ddr2_named)
      << "naming the default generation must not change anything";
  EXPECT_NE(ddr2, ddr4) << "DDR4 timings left the results untouched";
  EXPECT_NE(ddr4, hbm) << "HBM-class config left the results untouched";
}

// An unknown generation name must fail fast with a nonzero exit and a
// stderr message naming both the bad argument and the registered sets —
// not fall back to some default matrix.
TEST(CliSmoke, UnknownDramGenerationIsRejectedLoudly) {
  const std::string errfile = tmp_path("gen_err.txt");
  const int status =
      std::system((g_sim_path + kBaseArgs +
                   " --scheme Equal --dram-gen ddr9_bogus > /dev/null 2> " +
                   errfile)
                      .c_str());
  ASSERT_NE(status, -1);
  EXPECT_NE(WEXITSTATUS(status), 0);
  const std::string err = read_file(errfile);
  EXPECT_NE(err.find("ddr9_bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("ddr4_2400"), std::string::npos)
      << "error should list the registered generations: " << err;
  std::remove(errfile.c_str());
}

// Malformed numeric flags are usage errors (exit 2, reason on stderr), never
// a silently substituted value: `--bandwidth garbage` used to parse as 0.0
// and run the 3.2 GB/s machine, and `--cycles 12abc` used to run a 12-cycle
// window into an internal invariant abort (exit 134).
TEST(CliSmoke, MalformedNumericFlagsAreUsageErrors) {
  const std::string errfile = tmp_path("num_err.txt");
  const auto exit_code = [&](const std::string& args) {
    const int status = std::system((g_sim_path + " --scheme Equal" + args +
                                    " > /dev/null 2> " + errfile)
                                       .c_str());
    return status == -1 ? -1 : WEXITSTATUS(status);
  };
  struct Case {
    const char* args;
    const char* flag;
  };
  for (const Case& c : {Case{" --bandwidth garbage", "--bandwidth"},
                        Case{" --cycles 12abc", "--cycles"},
                        Case{" --bandwidth 5.0", "--bandwidth"},
                        Case{" --cycles -1", "--cycles"},
                        Case{" --seed 42x", "--seed"},
                        Case{" --copies 0", "--copies"},
                        Case{" --lease-ms 1e3", "--lease-ms"},
                        Case{" --qos 0=nan", "--qos"}}) {
    EXPECT_EQ(exit_code(c.args), 2) << c.args;
    const std::string err = read_file(errfile);
    EXPECT_NE(err.find(c.flag), std::string::npos)
        << c.args << ": stderr should name the flag: " << err;
  }
  // A missing value is the same usage error.
  EXPECT_EQ(exit_code(" --epoch-cycles"), 2);
  // The documented values still parse.
  EXPECT_EQ(exit_code(" --mix hetero-3 --cycles 20000 --bandwidth 12.8"), 0);
  std::remove(errfile.c_str());
}

// A well-formed but too-short window is a usage error too: with 1000 cycles
// one hetero-5 app is served no memory access in the profile window, and
// the CLI must say which app, which window and what to change — not abort
// on the "API must be positive" invariant deep inside the model (exit 134).
TEST(CliSmoke, TooShortProfileWindowIsAUsageError) {
  const std::string errfile = tmp_path("window_err.txt");
  for (const char* extra : {" --scheme Equal", " --scheme all",
                            " --scheme Equal --snapshot-out /dev/null"}) {
    const int status = std::system((g_sim_path + " --mix hetero-5" +
                                    " --cycles 1000" + extra +
                                    " > /dev/null 2> " + errfile)
                                       .c_str());
    ASSERT_NE(status, -1);
    EXPECT_EQ(WEXITSTATUS(status), 2) << extra;
    const std::string err = read_file(errfile);
    EXPECT_NE(err.find("app "), std::string::npos) << extra << ": " << err;
    EXPECT_NE(err.find("1000-cycle profile window"), std::string::npos)
        << extra << ": " << err;
    EXPECT_NE(err.find("longer --cycles"), std::string::npos)
        << extra << ": " << err;
  }
  std::remove(errfile.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-bwpart_sim>\n", argv[0]);
    return 2;
  }
  g_sim_path = argv[1];
  return RUN_ALL_TESTS();
}
