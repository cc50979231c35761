// Deterministic parallel sweep engine.
//
// Every paper artifact is a Monte Carlo grid — scenarios x repetitions of
// a simulated pass — and the cells are mutually independent. This engine
// runs such grids across a team of worker threads under one hard contract:
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

namespace rfidsim::sweep {

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

/// Lane id reported by current_lane() on threads that are not sweep
/// workers (callers, test mains).
inline constexpr std::size_t kNotALane = static_cast<std::size_t>(-1);

/// The calling thread's lane id: a worker's index in its team, fixed when
/// the team starts, kNotALane everywhere else. Per-lane metric labels
/// (sweep.pool.lane_*_seconds{lane="N"}) and profiler sample tags both
/// key off it, so they name the same thread the same way.
std::size_t current_lane();

/// Invokes body(i) for every i in [0, count) on the process-wide worker
/// team of `threads` workers (0 = hardware concurrency): one team per
/// worker count, started on first use, reused by every later call and
/// never torn down, so repeated calls spawn no threads. `body` must
/// honour the determinism contract (derive randomness from i, write only
/// slot i); it must not throw. Blocks until every cell has finished; the
/// calling thread runs no cells, except that 1-thread and 1-cell calls run
/// every cell inline on it, in index order. Concurrent calls on one team
/// run one after the other. Preconditions:
///  - cells must not call parallel_for: a nested call on a busy team
///    waits for the call it is running inside and never returns;
///  - teams do not survive fork(): a forked child may only call
///    parallel_for with threads == 1.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Lane-aware variant: cells are pulled by `lanes = min(threads, count)`
/// workers and the body receives the worker's lane index, so callers can
/// reuse expensive per-worker state (e.g. one simulator per lane, with
/// its warm static-geometry cache). `setup(lanes)` runs once, before any
/// cell, on the calling thread. Per the determinism contract, lane state
/// may only carry caches/buffers that cannot change results — never
/// randomness.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& setup,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace rfidsim::sweep
