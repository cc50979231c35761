#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"

namespace rfidsim::sweep {

namespace {

/// Sweep-level registry hooks. Lane cell counts are tallied lane-locally
/// and flushed once per sweep, so the cell loop adds no shared-state
/// traffic; the histogram exposes lane imbalance (a lane that claimed far
/// fewer cells than count/lanes was starved or slow).
struct SweepMetrics {
  obs::Counter& sweeps = obs::counter("sweep.sweeps");
  obs::Counter& cells = obs::counter("sweep.cells");
  obs::Counter& lane_tasks = obs::counter("sweep.lane_tasks");
  obs::Histogram& cells_per_lane = obs::histogram(
      "sweep.cells_per_lane",
      obs::HistogramSpec{.first_upper_bound = 1.0, .growth = 4.0, .buckets = 10});
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

/// The process-wide engine with `threads` workers, started on first use.
/// The table is never destroyed: its workers stay parked until the process
/// exits, so no exit-time join can race the teardown of the statics that
/// worker threads touch.
SweepEngine& process_engine(std::size_t threads) {
  struct Table {
    std::mutex mutex;
    std::map<std::size_t, std::unique_ptr<SweepEngine>> engines;
  };
  static Table& table = *new Table;
  std::lock_guard lock(table.mutex);
  std::unique_ptr<SweepEngine>& engine = table.engines[threads];
  if (!engine) engine = std::make_unique<SweepEngine>(SweepOptions{.threads = threads});
  return *engine;
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options) {
  const std::size_t threads = options.threads != 0 ? options.threads : hardware_threads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

void SweepEngine::run(std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  run(
      count, [](std::size_t) {},
      [&body](std::size_t cell, std::size_t) { body(cell); });
}

void SweepEngine::run(std::size_t count,
                      const std::function<void(std::size_t)>& setup,
                      const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const bool record = obs::hooks_enabled();
  if (record) {
    sweep_metrics().sweeps.add(1);
    sweep_metrics().cells.add(count);
  }
  if (!pool_ || count == 1) {
    setup(1);
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }

  // Pull-based distribution: each dispatched worker task claims CHUNKS of
  // contiguous cells off a shared counter until the grid is exhausted —
  // coarse-grained enough that lanes are not ping-ponging the counter's
  // cache line between every cell (fine-grained ingest batches made that
  // contention visible), fine-grained enough (8 chunks per lane) that an
  // unlucky lane stuck with slow cells still gets rebalanced. Which worker
  // claims which cell is unspecified — and irrelevant, per the determinism
  // contract: cells write only their own slots.
  const std::size_t lanes = std::min(pool_->thread_count(), count);
  setup(lanes);
  const std::size_t chunk = std::max<std::size_t>(1, count / (lanes * 8));
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool_->submit([next, count, chunk, lane, &body, record] {
      std::size_t claimed = 0;
      for (std::size_t base = next->fetch_add(chunk); base < count;
           base = next->fetch_add(chunk)) {
        const std::size_t end = std::min(base + chunk, count);
        for (std::size_t i = base; i < end; ++i) body(i, lane);
        claimed += end - base;
      }
      if (record) {
        sweep_metrics().lane_tasks.add(1);
        sweep_metrics().cells_per_lane.observe(static_cast<double>(claimed));
      }
    });
  }
  pool_->wait_idle();
}

SweepEngine& shared_engine() { return process_engine(hardware_threads()); }

void parallel_for(std::size_t count, const SweepOptions& options,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(
      count, options, [](std::size_t) {},
      [&body](std::size_t cell, std::size_t) { body(cell); });
}

void parallel_for(std::size_t count, const SweepOptions& options,
                  const std::function<void(std::size_t)>& setup,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  process_engine(options.threads == 0 ? hardware_threads() : options.threads)
      .run(count, setup, body);
}

}  // namespace rfidsim::sweep
