// Deterministic parallel sweep engine.
//
// Every paper artifact is a Monte Carlo grid — scenarios x repetitions of
// a simulated pass — and the cells are mutually independent. This engine
// runs such grids across a thread pool under one hard contract:
//
//   DETERMINISM CONTRACT: the randomness of cell i is a pure function of
//   (root seed, i) — see cell_rng — and each cell writes only to its own
//   result slot. Thread count, scheduling order, and work stealing can
//   therefore never change a single simulated bit: sweep output is
//   byte-identical to the serial loop `for i: body(i)`.
//
// A 1-thread sweep IS that serial loop, run inline on the calling thread,
// so it is the reference every other thread count is compared against
// (tests/reliability/parallel_test.cpp holds the engine to it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "sweep/thread_pool.hpp"

namespace rfidsim::sweep {

/// Execution knobs of a sweep. Only wall-clock behaviour — never results —
/// depends on these.
struct SweepOptions {
  /// Worker threads; 0 means hardware concurrency, 1 forces the inline
  /// serial path (no pool involved at all).
  std::size_t threads = 0;
};

/// The per-cell generator of a sweep rooted at `seed`: a pure function of
/// its arguments, independent of scheduling. Identical to the serial
/// convention Rng(seed).fork(cell).
inline Rng cell_rng(std::uint64_t seed, std::uint64_t cell) {
  return Rng(seed).fork(cell);
}

/// Two-level variant for (scenario, repetition) grids: scenario s gets an
/// independent sub-stream, and repetition r within it forks exactly like a
/// single-scenario sweep of that sub-stream.
inline Rng grid_cell_rng(std::uint64_t seed, std::uint64_t scenario,
                         std::uint64_t repetition) {
  return cell_rng(cell_rng(seed, scenario).seed(), repetition);
}

/// Reusable engine: one thread pool, any number of sweeps.
class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  std::size_t thread_count() const { return pool_ ? pool_->thread_count() : 1; }

  /// Invokes body(i) for every i in [0, count), spread over the pool.
  /// `body` must honour the determinism contract (derive randomness from i,
  /// write only slot i); it must not throw. Blocks until all cells finish.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Lane-aware variant: cells are pulled by `lanes = min(threads, count)`
  /// workers and the body receives the worker's lane index, so callers can
  /// reuse expensive per-worker state (e.g. one simulator per lane, with
  /// its warm static-geometry cache). `setup(lanes)` runs once, before any
  /// cell, on the calling thread. Per the determinism contract, lane state
  /// may only carry caches/buffers that cannot change results — never
  /// randomness.
  void run(std::size_t count, const std::function<void(std::size_t)>& setup,
           const std::function<void(std::size_t, std::size_t)>& body);

 private:
  std::unique_ptr<ThreadPool> pool_;  ///< Null for the single-thread engine.
};

/// The process-wide engine at hardware concurrency — parallel_for's engine
/// for threads == 0.
SweepEngine& shared_engine();

/// Runs body over [0, count) on the process-wide engine of
/// `options.threads` workers (0 = hardware concurrency): one engine per
/// worker count, started on first use, reused by every later call and
/// never torn down, so repeated calls spawn no threads. The 1-thread
/// engine has no pool: it runs every cell inline on the calling thread, in
/// index order. Preconditions:
///  - cells must not call parallel_for: a nested call on a busy engine
///    waits for the task it is running inside and never returns;
///  - engines do not survive fork(): a forked child may only call
///    parallel_for with threads == 1.
void parallel_for(std::size_t count, const SweepOptions& options,
                  const std::function<void(std::size_t)>& body);

/// Lane-aware one-shot (see SweepEngine::run): body(cell, lane).
void parallel_for(std::size_t count, const SweepOptions& options,
                  const std::function<void(std::size_t)>& setup,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace rfidsim::sweep
