#include "profile/interference.hpp"

#include "common/assert.hpp"

namespace bwpart::profile {

InterferenceCounters::InterferenceCounters(std::uint32_t num_apps)
    : counters_(num_apps) {
  BWPART_ASSERT(num_apps > 0, "need at least one app");
}

void InterferenceCounters::on_interference(AppId victim, Cycle cpu_cycles) {
  BWPART_ASSERT(victim < counters_.size(), "victim app out of range");
  counters_[victim].cycles += cpu_cycles;
}

Cycle InterferenceCounters::interference_cycles(AppId app) const {
  BWPART_ASSERT(app < counters_.size(), "app out of range");
  return counters_[app].cycles;
}

void InterferenceCounters::reset() {
  for (Slot& c : counters_) c.cycles = 0;
}

void InterferenceCounters::save_state(snap::Writer& w) const {
  w.tag("INTF");
  w.u64(counters_.size());
  for (const Slot& c : counters_) w.u64(c.cycles);
}

void InterferenceCounters::restore_state(snap::Reader& r) {
  r.expect_tag("INTF");
  snap::require(r.u64() == counters_.size(),
                "interference counter arity differs from the snapshot's");
  for (Slot& c : counters_) c.cycles = r.u64();
}

}  // namespace bwpart::profile
