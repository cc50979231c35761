// Unit and determinism tests for rfidsim::sweep — the worker teams, the
// per-cell RNG derivation, and parallel_for's contract that thread count
// can change wall-clock only, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep.hpp"

namespace rfidsim::sweep {
namespace {

#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kCompiledOut = true;
#else
constexpr bool kCompiledOut = false;
#endif

TEST(CellRngTest, IsAPureFunctionOfSeedAndCell) {
  for (const std::uint64_t seed : {0ull, 1ull, 20070625ull}) {
    for (std::uint64_t cell = 0; cell < 16; ++cell) {
      Rng a = cell_rng(seed, cell);
      Rng b = cell_rng(seed, cell);
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed << " cell " << cell;
      }
    }
  }
}

TEST(CellRngTest, MatchesTheSerialForkConvention) {
  // Repetition i of a seeded sweep draws from Rng(seed).fork(i), the
  // convention every serial loop in the codebase used before the engine;
  // golden digests recorded from those loops rest on this equality.
  for (std::uint64_t cell = 0; cell < 8; ++cell) {
    Rng serial = Rng(321).fork(cell);
    Rng sweep = cell_rng(321, cell);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(serial.next_u64(), sweep.next_u64());
    }
  }
}

TEST(CellRngTest, DistinctCellsGetDistinctStreams) {
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    first_draws.insert(cell_rng(99, cell).next_u64());
  }
  EXPECT_EQ(first_draws.size(), 64u);
}

TEST(CellRngTest, GridCellRngNestsTwoForkLevels) {
  Rng direct = grid_cell_rng(7, 3, 5);
  Rng nested = cell_rng(cell_rng(7, 3).seed(), 5);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(direct.next_u64(), nested.next_u64());
  }
  // Scenario and repetition axes must be independent: transposing indices
  // lands in a different stream.
  EXPECT_NE(grid_cell_rng(7, 5, 3).next_u64(), grid_cell_rng(7, 3, 5).next_u64());
}

TEST(ParallelForTest, EveryCellRunsExactlyOnce) {
  constexpr std::size_t kCells = 137;
  std::vector<std::atomic<int>> hits(kCells);
  parallel_for(kCells, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForTest, ResultsIndependentOfThreadCount) {
  // The determinism contract, end to end: per-cell RNG consumption through
  // any thread count produces the identical result vector.
  constexpr std::size_t kCells = 64;
  auto run_with = [&](std::size_t threads) {
    std::vector<std::uint64_t> out(kCells);
    parallel_for(kCells, threads, [&](std::size_t i) {
      Rng rng = cell_rng(20070625, i);
      std::uint64_t acc = 0;
      for (int d = 0; d < 100; ++d) acc ^= rng.next_u64();
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run_with(1);
  EXPECT_EQ(serial, run_with(2));
  EXPECT_EQ(serial, run_with(3));
  EXPECT_EQ(serial, run_with(8));
  EXPECT_EQ(serial, run_with(0));  // Hardware concurrency.
}

TEST(ParallelForTest, ZeroAndOneCellsAreHandled) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, LaneAwareSetupAndLaneBounds) {
  constexpr std::size_t kCells = 50;
  std::size_t lanes_seen = 0;
  std::mutex mu;
  std::vector<int> hits(kCells, 0);
  std::set<std::size_t> lanes_used;
  parallel_for(
      kCells, 4,
      [&](std::size_t lanes) { lanes_seen = lanes; },
      [&](std::size_t cell, std::size_t lane) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(lane, lanes_seen);
        ++hits[cell];
        lanes_used.insert(lane);
      });
  ASSERT_GE(lanes_seen, 1u);
  ASSERT_LE(lanes_seen, 4u);
  EXPECT_GE(lanes_used.size(), 1u);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(hits[i], 1) << "cell " << i;
  }
}

TEST(ParallelForTest, LaneCountNeverExceedsCellCount) {
  parallel_for(
      2, 16,
      [&](std::size_t lanes) { EXPECT_LE(lanes, 2u); },
      [](std::size_t, std::size_t) {});
}

TEST(ParallelForTest, RepeatedCallsReuseOneSetOfWorkers) {
  // Every parallel_for(threads = 2) runs on the same process-wide workers.
  // Each thread that records a span registers once with obs (its tid), so
  // spans from more tids than the caller plus two lanes mean calls spawned
  // fresh threads — whose per-thread obs state is never released.
  const bool saved_metrics = obs::enabled();
  const bool saved_trace = obs::trace_enabled();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  for (int call = 0; call < 200; ++call) {
    parallel_for(4, 2, [](std::size_t) {
      const obs::prof::ScopedPhase phase(obs::prof::Phase::kPortalSim);
    });
  }
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  obs::clear_trace();
  obs::set_trace_enabled(saved_trace);
  obs::set_enabled(saved_metrics);
  if (kCompiledOut) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_FALSE(events.empty()) << "no span recorded: the tid bound would be vacuous";
  std::set<std::uint32_t> tids;
  for (const obs::TraceEvent& event : events) tids.insert(event.tid);
  EXPECT_LE(tids.size(), 3u);
}

TEST(ParallelForTest, EveryThreadCountTalliesSweepsAndCells) {
  // 1-thread and 1-cell calls run on an engine too, so the sweep counters
  // describe the workload, not the thread count it happened to run at.
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& sweeps = obs::counter("sweep.sweeps");
  const obs::Counter& cells = obs::counter("sweep.cells");
  const auto tally = [&](std::size_t count, std::size_t threads) {
    const std::uint64_t sweeps_before = sweeps.value();
    const std::uint64_t cells_before = cells.value();
    parallel_for(count, threads, [](std::size_t) {});
    return std::pair{sweeps.value() - sweeps_before, cells.value() - cells_before};
  };
  for (const std::size_t count : {1u, 5u}) {
    const auto serial = tally(count, 1);
    EXPECT_EQ(serial, tally(count, 2)) << count << " cells";
    const std::uint64_t expected_sweeps = kCompiledOut ? 0 : 1;
    const std::uint64_t expected_cells = kCompiledOut ? 0 : count;
    EXPECT_EQ(serial, std::pair(expected_sweeps, expected_cells)) << count << " cells";
  }
  obs::set_enabled(saved);
}

TEST(ParallelForTest, ConcurrentCallersEachRunEveryCellOnce) {
  // Callers on one team run one after the other, so each call's cells run
  // on lanes below its own setup value, however the callers interleave.
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 1000;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &failures] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        const std::size_t threads = 2 + static_cast<std::size_t>(call + c) % 3;
        const std::size_t count = 1 + static_cast<std::size_t>(call * 7 + c) % 9;
        std::size_t lanes = 0;
        std::vector<std::atomic<int>> hits(count);
        std::atomic<int> bad_lanes{0};
        parallel_for(
            count, threads, [&](std::size_t n) { lanes = n; },
            [&](std::size_t cell, std::size_t lane) {
              if (lane >= lanes) bad_lanes.fetch_add(1, std::memory_order_relaxed);
              hits[cell].fetch_add(1, std::memory_order_relaxed);
            });
        bool ok = bad_lanes.load() == 0 && lanes == std::min(threads, count);
        for (const std::atomic<int>& h : hits) ok = ok && h.load() == 1;
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SweepEngineTest, SingleThreadEngineHasNoPool) {
  // A 1-thread call is the serial loop: every cell inline on the calling
  // thread, in index order, on no lane.
  std::vector<std::size_t> order;
  std::size_t lanes = 0;
  parallel_for(
      5, 1, [&](std::size_t n) { lanes = n; },
      [&](std::size_t i, std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        EXPECT_EQ(current_lane(), kNotALane);
        order.push_back(i);
      });
  EXPECT_EQ(lanes, 1u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepEngineTest, EngineIsReusableAcrossSweeps) {
  std::mutex mu;
  std::set<std::thread::id> workers;
  for (int sweep = 0; sweep < 4; ++sweep) {
    std::atomic<std::size_t> sum{0};
    parallel_for(100, 3, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
      const std::lock_guard lock(mu);
      workers.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
  // Every sweep ran on the same three workers, never on the caller.
  EXPECT_LE(workers.size(), 3u);
  EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);
}

TEST(SweepEngineTest, SharedEngineUsesHardwareConcurrency) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t count : {1u, 3u, 100u}) {
    std::size_t lanes = 0;
    parallel_for(
        count, 0, [&](std::size_t n) { lanes = n; }, [](std::size_t, std::size_t) {});
    EXPECT_EQ(lanes, std::min(hw, count)) << count << " cells";
  }
}

}  // namespace
}  // namespace rfidsim::sweep
