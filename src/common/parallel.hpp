// Minimal data-parallel executor for embarrassingly parallel experiment
// sweeps (each CmpSystem instance is fully self-contained, so independent
// runs shard perfectly across cores). Used by the Fig. 2 / Fig. 4 benches,
// which run ~100 independent simulations, by Experiment::run_all over
// schemes, and by CmpSystem over its controller partitions — so calls nest,
// and a nested call runs inline on its worker (the outer call already owns
// the threads).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace bwpart {

namespace detail {
/// True on a thread while it executes items of a threaded parallel_for
/// (pool workers and the participating caller alike).
inline thread_local bool t_in_parallel_for = false;
}  // namespace detail

/// Hard ceiling on parallel_for workers, read from BWPART_SWEEP_THREADS.
/// The sharded sweep orchestrator sets it in worker processes so that
/// (worker processes) x (threads per worker) never oversubscribes the
/// machine; users can export it to pin any host. Unset, empty, zero or
/// malformed values mean "no cap" (SIZE_MAX).
std::size_t parallelism_cap();

/// Number of worker threads to use for a sweep of `jobs` items (hardware
/// concurrency clamped by parallelism_cap()).
std::size_t default_parallelism(std::size_t jobs);

/// Runs fn(i) for every i in [0, n) across up to `threads` workers using
/// atomic work-stealing of indices. fn must not throw; items must be
/// independent. Blocks until all items finish. With threads <= 1 the loop
/// runs inline (deterministic debugging path). Explicit `threads` requests
/// are clamped by parallelism_cap() too — the oversubscription guard wins
/// over call sites. A call made from inside another threaded parallel_for's
/// item runs inline as well, so nesting never multiplies the thread count
/// (a sweep over schemes whose runs split across controllers stays at the
/// outer call's width).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  if (detail::t_in_parallel_for) threads = 1;
  if (threads == 0) threads = default_parallelism(n);
  threads = threads < parallelism_cap() ? threads : parallelism_cap();
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    detail::t_in_parallel_for = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  const std::size_t workers = threads < n ? threads : n;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();  // this thread participates
  detail::t_in_parallel_for = false;  // it was clear on entry
  for (std::thread& t : pool) t.join();
}

}  // namespace bwpart
