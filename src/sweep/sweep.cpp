#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace rfidsim::sweep {

namespace {

using Clock = std::chrono::steady_clock;
using Body = std::function<void(std::size_t, std::size_t)>;

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

/// Per-lane accumulators, labelled by the worker's lane: busy (pulling a
/// call's cells), idle (parked, including the calls too small to need
/// this lane) and queue-wait (from a call's publication to this lane
/// starting it). Shared across teams — lane "0" of a 4-worker team
/// accumulates onto lane "0" of the 2-worker one, the same convention the
/// reader-labelled portal metrics use.
struct LaneMetrics {
  obs::Gauge& busy_s;
  obs::Gauge& idle_s;
  obs::Gauge& wait_s;

  explicit LaneMetrics(const std::string& lane)
      : busy_s(obs::gauge("sweep.pool.lane_busy_seconds", {{"lane", lane}})),
        idle_s(obs::gauge("sweep.pool.lane_idle_seconds", {{"lane", lane}})),
        wait_s(obs::gauge("sweep.pool.lane_queue_wait_seconds", {{"lane", lane}})) {}
};

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

thread_local std::size_t t_lane = kNotALane;

/// One call: everything a lane needs to pull cells. It lives on the
/// caller's stack, so only lanes below the call's lane count may read it.
struct Job {
  std::size_t count;
  std::size_t chunk;
  const Body* body;
  bool record;
  Clock::time_point published;
  /// First unclaimed cell, on a cache line of its own: lanes keep their
  /// copies of the fields above while they bump it.
  alignas(64) std::atomic<std::size_t> next{0};
};

/// A fork-join team of worker threads. A call publishes one Job, wakes
/// the team once and waits until each of its lanes has stopped pulling
/// cells; a call mutex runs concurrent callers one after the other, so
/// there is no queue. Teams are never destroyed (see team()), so their
/// workers stay parked between calls until the process exits.
class Team {
 public:
  /// Returns once every worker has started and registered its lane.
  explicit Team(std::size_t threads) {
    for (std::size_t lane = 0; lane < threads; ++lane) {
      workers_.emplace_back([this, lane] { work(lane); });
    }
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return started_ == threads; });
  }

  void run(std::size_t count, std::size_t lanes, const Body& body, bool record) {
    // Pull-based distribution: each lane claims CHUNKS of contiguous
    // cells off a shared counter until the grid is exhausted —
    // coarse-grained enough that lanes are not ping-ponging the counter's
    // cache line between every cell (fine-grained ingest batches made that
    // contention visible), fine-grained enough (8 chunks per lane) that an
    // unlucky lane stuck with slow cells still gets rebalanced. Which lane
    // claims which cell is unspecified — and irrelevant, per the
    // determinism contract: cells write only their own slots.
    Job job{count, std::max<std::size_t>(1, count / (lanes * 8)), &body, record, {}};
    const std::lock_guard call(call_mutex_);
    {
      const std::lock_guard lock(mutex_);
      job.published = Clock::now();
      job_ = &job;
      lanes_ = lanes;
      running_ = lanes;
      ++generation_;
    }
    wake_.notify_all();  // Unlocked, so woken lanes do not queue on mutex_.
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return running_ == 0; });
  }

 private:
  void work(std::size_t lane) {
    t_lane = lane;
    obs::prof::register_thread(static_cast<std::uint32_t>(lane));
    // Registered on the first recorded call: a worker touches the metrics
    // registry only while a call is in flight — never while parked, when
    // an exiting process may be tearing the registry down.
    std::optional<LaneMetrics> metrics;
    std::uint64_t seen = 0;  ///< Generation of the last call this lane ran.
    std::unique_lock lock(mutex_);
    ++started_;
    done_.notify_all();
    for (;;) {
      const Clock::time_point park = Clock::now();
      wake_.wait(lock, [&] { return generation_ != seen && lane < lanes_; });
      seen = generation_;
      Job& job = *job_;
      lock.unlock();
      const Clock::time_point start = Clock::now();
      const bool record = job.record;
      if (record) {
        if (!metrics) metrics.emplace(std::to_string(lane));
        metrics->idle_s.add(seconds(start - park));
        metrics->wait_s.add(seconds(start - job.published));
      }
      const std::size_t count = job.count;
      const std::size_t chunk = job.chunk;
      const Body& body = *job.body;
      std::size_t claimed = 0;
      for (std::size_t base = job.next.fetch_add(chunk); base < count;
           base = job.next.fetch_add(chunk)) {
        const std::size_t end = std::min(base + chunk, count);
        for (std::size_t i = base; i < end; ++i) body(i, lane);
        claimed += end - base;
      }
      if (record) {
        sweep_metrics().lane_tasks.add(1);
        sweep_metrics().cells_per_lane.observe(static_cast<double>(claimed));
        metrics->busy_s.add(seconds(Clock::now() - start));
      }
      lock.lock();  // The job is not touched past this point.
      if (--running_ == 0) done_.notify_all();
    }
  }

  std::mutex call_mutex_;  ///< Held by a caller for its whole call.
  std::mutex mutex_;       ///< Guards the fields below.
  std::condition_variable wake_;  ///< A call was published.
  std::condition_variable done_;  ///< A worker started, or a call's lanes finished.
  Job* job_ = nullptr;            ///< The published call; valid while running_ > 0.
  std::uint64_t generation_ = 0;  ///< Calls published so far.
  std::size_t lanes_ = 0;         ///< Lanes of the published call.
  std::size_t running_ = 0;       ///< Its lanes still pulling cells.
  std::size_t started_ = 0;       ///< Workers past start-up registration.
  std::vector<std::thread> workers_;  ///< Never joined: the team is never destroyed.
};

/// The process-wide team of `threads` workers, started on first use. The
/// table is never destroyed: its workers stay parked until the process
/// exits, so no exit-time join can race the teardown of the statics that
/// worker threads touch.
Team& team(std::size_t threads) {
  struct Table {
    std::mutex mutex;
    std::map<std::size_t, std::unique_ptr<Team>> teams;
  };
  static Table& table = *new Table;
  const std::lock_guard lock(table.mutex);
  std::unique_ptr<Team>& team = table.teams[threads];
  if (!team) team = std::make_unique<Team>(threads);
  return *team;
}

}  // namespace

std::size_t current_lane() { return t_lane; }

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(
      count, threads, [](std::size_t) {},
      [&body](std::size_t cell, std::size_t) { body(cell); });
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& setup, const Body& body) {
  if (count == 0) return;
  const bool record = obs::hooks_enabled();
  if (record) {
    sweep_metrics().sweeps.add(1);
    sweep_metrics().cells.add(count);
  }
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  const std::size_t lanes = std::min(threads, count);
  setup(lanes);
  if (lanes == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  team(threads).run(count, lanes, body, record);
}

}  // namespace rfidsim::sweep
