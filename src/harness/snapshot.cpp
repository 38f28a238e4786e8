#include "harness/snapshot.hpp"

#include <fstream>
#include <string>

#include "common/assert.hpp"

#include "harness/differential.hpp"
#include "harness/experiment.hpp"

namespace bwpart::harness {

namespace {

constexpr char kMagic[4] = {'B', 'W', 'P', 'S'};
// v2: the DRAM hot-path overhaul moved controller queues into pooled SoA
// storage and the DRAM system onto cached next-legal-tick state, changing
// the serialized system-state layout. v1 files decode into garbage under
// the new layout, so they are rejected by version before any payload byte
// is interpreted.
// v3: the multi-controller scale-out generalization serializes a
// controller count plus one controller blob per controller (and
// SystemConfig::num_controllers joined the config fingerprint), so v2
// payloads no longer decode; same loud rejection.
// v4: the DRAM-generation registry added the generation name and the
// posted-CAS additive latency (tAL) to the config fingerprint, so a v3
// fingerprint no longer identifies the configuration it was captured
// under; same loud rejection.
// v5: the churn engine serializes per-app liveness and tenancy clocks in
// the system blob, per-app liveness in each controller blob, and the
// phase-changeable generator knobs in each trace blob (a churn schedule
// mutates them mid-run), so v4 payloads no longer decode; same loud
// rejection.
// v6: the trailing checksum became snapshot_checksum (FNV-1a over 8-byte
// little-endian words), so a v5 file's byte-wise checksum no longer
// verifies; rejected by version before the checksum is consulted.
constexpr std::uint32_t kFormatVersion = 6;

/// Fixed header: magic, version, config fingerprint, payload length.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

std::uint64_t hash_u32(std::uint32_t v, std::uint64_t h) {
  return hash_u64(v, h);
}

std::uint64_t hash_f64(double v, std::uint64_t h) {
  return hash_doubles(std::span<const double>(&v, 1), h);
}

std::uint64_t hash_bool(bool v, std::uint64_t h) {
  return hash_u64(static_cast<std::uint64_t>(v), h);
}

std::uint64_t hash_str(std::string_view s, std::uint64_t h) {
  h = hash_u64(s.size(), h);
  return hash_bytes(s.data(), s.size(), h);
}

}  // namespace

std::uint64_t config_fingerprint(const SystemConfig& cfg,
                                 std::span<const workload::BenchmarkSpec> apps,
                                 const PhaseConfig& phases) {
  // Every field that influences simulation results is folded in, one by one
  // (never memcpy of whole structs — padding bytes are indeterminate). The
  // fast_forward flag is deliberately excluded: snapshots are
  // engine-independent, and cross-engine restores must be accepted.
  std::uint64_t h = hash_u64(cfg.cpu_clock.hz, 0xcbf29ce484222325ULL);

  const dram::DramConfig& d = cfg.dram;
  h = hash_str(d.generation, h);
  h = hash_u64(d.bus_clock.hz, h);
  h = hash_u32(d.bus_bytes, h);
  h = hash_u32(d.burst_beats, h);
  h = hash_u32(d.channels, h);
  h = hash_u32(d.ranks, h);
  h = hash_u32(d.banks_per_rank, h);
  h = hash_u64(d.rows_per_bank, h);
  h = hash_u32(d.columns_per_row, h);
  h = hash_u64(static_cast<std::uint64_t>(d.page_policy), h);
  h = hash_f64(d.t.trp, h);
  h = hash_f64(d.t.trcd, h);
  h = hash_f64(d.t.tcl, h);
  h = hash_f64(d.t.tcwl, h);
  h = hash_f64(d.t.tras, h);
  h = hash_f64(d.t.twr, h);
  h = hash_f64(d.t.twtr, h);
  h = hash_f64(d.t.trtp, h);
  h = hash_f64(d.t.tccd, h);
  h = hash_f64(d.t.trrd, h);
  h = hash_f64(d.t.tfaw, h);
  h = hash_f64(d.t.trfc, h);
  h = hash_f64(d.t.trefi, h);
  h = hash_f64(d.t.trtrs, h);
  h = hash_f64(d.t.txp, h);
  h = hash_f64(d.t.tal, h);
  h = hash_bool(d.enable_refresh, h);
  h = hash_bool(d.enable_powerdown, h);
  h = hash_f64(d.powerdown_idle_ns, h);

  const cpu::CoreConfig& c = cfg.core;
  h = hash_u32(c.rob_size, h);
  h = hash_f64(c.issue_width, h);
  h = hash_f64(c.nonmem_ipc, h);
  h = hash_u32(c.mshrs, h);
  h = hash_u32(c.store_buffer, h);
  h = hash_u64(c.l1_latency, h);
  h = hash_u64(c.l2_latency, h);
  h = hash_bool(c.model_caches, h);
  h = hash_u32(c.l1.size_bytes, h);
  h = hash_u32(c.l1.line_bytes, h);
  h = hash_u32(c.l1.ways, h);
  h = hash_u32(c.l2.size_bytes, h);
  h = hash_u32(c.l2.line_bytes, h);
  h = hash_u32(c.l2.ways, h);

  h = hash_u64(cfg.queue_capacity_per_app, h);
  h = hash_u64(cfg.queue_capacity_shared, h);
  h = hash_f64(cfg.dstf_row_hit_window, h);
  h = hash_u64(cfg.num_controllers, h);

  h = hash_u64(apps.size(), h);
  for (const workload::BenchmarkSpec& b : apps) {
    h = hash_str(b.name, h);
    h = hash_bool(b.is_fp, h);
    h = hash_f64(b.paper_apkc, h);
    h = hash_f64(b.paper_apki, h);
    h = hash_f64(b.api, h);
    h = hash_f64(b.mean_cluster, h);
    h = hash_f64(b.nonmem_ipc, h);
    h = hash_f64(b.write_fraction, h);
    h = hash_u64(b.seq_run_lines, h);
    h = hash_f64(b.dependent_fraction, h);
  }

  h = hash_u64(phases.warmup_cycles, h);
  h = hash_u64(phases.profile_cycles, h);
  h = hash_u64(phases.measure_cycles, h);
  h = hash_bool(phases.oracle_alone, h);
  h = hash_u64(phases.reprofile_period, h);
  h = hash_u64(phases.seed, h);
  return h;
}

std::uint64_t snapshot_checksum(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t words = bytes.size() / 8;
  const std::uint8_t* p = bytes.data();
  for (std::size_t i = 0; i < words; ++i, p += 8) {
    h = (h ^ snap::load_le64(p)) * kPrime;
    // Fold the high half down: a product only carries upward, so without
    // this the same top-bit flip in any two words would cancel. Every step
    // stays a bijection of h, so a change within one word always shows.
    h ^= h >> 32;
  }
  for (std::size_t i = words * 8; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * kPrime;
  }
  return h;
}

namespace {

std::size_t payload_bytes(const ProfileSnapshot& s) {
  return 8 + 16 * s.params.size() + 8 + 8 + s.state.size();
}

/// Appends the payload (everything the length prefix covers): params,
/// profiled B, system state blob.
void encode_payload(snap::Writer& w, const ProfileSnapshot& s) {
  w.sz(s.params.size());
  for (const core::AppParams& p : s.params) {
    w.f64(p.apc_alone);
    w.f64(p.api);
  }
  w.f64(s.profiled_b);
  w.sz(s.state.size());
  w.raw(s.state);
}

}  // namespace

void write_profile_snapshot(const std::string& path,
                            const ProfileSnapshot& snapshot) {
  const std::size_t payload_len = payload_bytes(snapshot);
  snap::Writer w;
  w.reserve(kHeaderBytes + payload_len + 8);
  for (const char m : kMagic) w.u8(static_cast<std::uint8_t>(m));
  w.u32(kFormatVersion);
  w.u64(snapshot.config_fp);
  w.u64(payload_len);
  encode_payload(w, snapshot);
  BWPART_ASSERT(w.bytes().size() == kHeaderBytes + payload_len,
                "snapshot payload length disagrees with its encoding");
  // The checksum covers everything before it (magic through payload), so a
  // flipped bit anywhere in the file — header included — fails the read.
  w.u64(snapshot_checksum(w.bytes()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  snap::require(out.good(), "cannot open snapshot file for writing");
  const std::span<const std::uint8_t> all = w.bytes();
  out.write(reinterpret_cast<const char*>(all.data()),
            static_cast<std::streamsize>(all.size()));
  out.flush();
  snap::require(out.good(), "write to snapshot file failed");
}

ProfileSnapshot read_profile_snapshot(const std::string& path) {
  std::vector<std::uint8_t> raw = snap::read_file(path, "snapshot");
  const std::span<const std::uint8_t> file(raw);

  snap::Reader r(file);
  for (const char m : kMagic) {
    snap::require(r.u8() == static_cast<std::uint8_t>(m),
                  "not a BWPS snapshot file (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw snap::SnapshotError(
        "unsupported BWPS snapshot format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) +
        "; v1 predates the SoA DRAM/controller state layout, v2 the "
        "multi-controller system layout, v3 the DRAM-generation "
        "registry's config fingerprint, v4 the churn engine's "
        "liveness/tenancy state, and v5 the word-wise file checksum — "
        "re-capture the snapshot with this build)");
  }

  ProfileSnapshot s;
  s.config_fp = r.u64();
  const std::uint64_t payload_len = r.u64();
  // Length, then checksum, then payload: a corrupt length or element count
  // is caught before it can size an allocation.
  snap::require(payload_len <= r.remaining() &&
                    r.remaining() - payload_len >= 8,
                "truncated snapshot file (payload shorter than its header "
                "claims)");
  snap::require(r.remaining() - payload_len == 8,
                "trailing bytes after snapshot checksum");
  const std::size_t body_len = kHeaderBytes + payload_len;
  snap::Reader tail(file.subspan(body_len));
  snap::require(tail.u64() == snapshot_checksum(file.first(body_len)),
                "snapshot checksum mismatch (file corrupted)");

  const std::size_t count = r.sz();
  snap::require(count <= r.remaining() / 16,
                "snapshot parameter count exceeds the payload");
  s.params.resize(count);
  for (core::AppParams& p : s.params) {
    p.apc_alone = r.f64();
    p.api = r.f64();
  }
  s.profiled_b = r.f64();
  const std::size_t state_len = r.sz();
  const std::span<const std::uint8_t> state = r.raw(state_len);
  snap::require(r.position() == body_len,
                "snapshot payload length disagrees with its contents");

  // The state blob is most of the file: shift it to the front of the file
  // buffer and keep that buffer, instead of copying it into a second one.
  const auto offset = static_cast<std::ptrdiff_t>(state.data() - file.data());
  raw.erase(raw.begin(), raw.begin() + offset);
  raw.resize(state_len);
  s.state = std::move(raw);
  return s;
}

}  // namespace bwpart::harness
