// Sets BWPART_SWEEP_THREADS (the parallel_for thread cap) for one scope —
// or clears it, given nullptr — and restores the previous value on exit,
// so thread-cap tests cannot leak into each other. Change the variable
// only while no other thread runs: getenv/setenv are not synchronized.
#pragma once

#include <cstdlib>
#include <string>

namespace bwpart::testenv {

class ScopedSweepThreads {
 public:
  explicit ScopedSweepThreads(const char* value) {
    const char* old = std::getenv("BWPART_SWEEP_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv("BWPART_SWEEP_THREADS", value, 1);
    } else {
      ::unsetenv("BWPART_SWEEP_THREADS");
    }
  }
  ~ScopedSweepThreads() {
    if (had_) {
      ::setenv("BWPART_SWEEP_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("BWPART_SWEEP_THREADS");
    }
  }
  ScopedSweepThreads(const ScopedSweepThreads&) = delete;
  ScopedSweepThreads& operator=(const ScopedSweepThreads&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

}  // namespace bwpart::testenv
