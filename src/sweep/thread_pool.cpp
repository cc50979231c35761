#include "sweep/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace rfidsim::sweep {

namespace {

/// Pool-level registry hooks: queue depth (instantaneous) and the wall
/// time workers spend parked waiting for work (includes idle stretches
/// between sweeps — it measures the pool, not one sweep).
struct PoolMetrics {
  obs::Counter& tasks = obs::counter("sweep.pool.tasks");
  obs::Gauge& queue_depth = obs::gauge("sweep.pool.queue_depth");
  obs::Gauge& idle_s = obs::gauge("sweep.pool.worker_idle_seconds");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Per-lane accumulators, labelled by the worker's construction-time
/// index: busy (executing tasks), idle (parked), and queue-wait (the time
/// tasks this lane executed spent queued before dequeue). Shared across
/// pools — lane "0" of a later pool accumulates onto lane "0" of an
/// earlier one, the same convention the reader-labelled portal metrics
/// use.
struct LaneMetrics {
  obs::Gauge& busy_s;
  obs::Gauge& idle_s;
  obs::Gauge& wait_s;

  explicit LaneMetrics(const std::string& lane)
      : busy_s(obs::gauge("sweep.pool.lane_busy_seconds", {{"lane", lane}})),
        idle_s(obs::gauge("sweep.pool.lane_idle_seconds", {{"lane", lane}})),
        wait_s(obs::gauge("sweep.pool.lane_queue_wait_seconds", {{"lane", lane}})) {}
};

thread_local std::size_t t_lane = ThreadPool::kNotALane;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this, threads] { return started_ == threads; });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const bool record = obs::hooks_enabled();
  PendingTask pending{std::move(task), record ? obs::trace_now_ns() : 0};
  std::size_t depth;
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(pending));
    ++in_flight_;
    depth = queue_.size();
  }
  if (record) {
    pool_metrics().tasks.add(1);
    pool_metrics().queue_depth.set(static_cast<double>(depth));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::current_lane() { return t_lane; }

void ThreadPool::worker_loop(std::size_t lane) {
  t_lane = lane;
  obs::prof::register_thread(static_cast<std::uint32_t>(lane));
  // A worker touches the metrics registry only while the constructor waits
  // for it to start or while one of its tasks is in flight — never while
  // parked, when an exiting process may be tearing the registry down.
  const std::string lane_label = std::to_string(lane);
  LaneMetrics* lane_metrics =
      obs::hooks_enabled() ? new LaneMetrics(lane_label) : nullptr;
  {
    std::lock_guard lock(mutex_);
    ++started_;
  }
  all_done_.notify_all();
  for (;;) {
    PendingTask task;
    std::size_t depth;
    const bool record = obs::hooks_enabled();
    const auto park = std::chrono::steady_clock::now();
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {  // stopping_ with a drained queue.
        delete lane_metrics;
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    const auto dequeue = std::chrono::steady_clock::now();
    if (record) {
      if (lane_metrics == nullptr) lane_metrics = new LaneMetrics(lane_label);
      pool_metrics().queue_depth.set(static_cast<double>(depth));
      const double idle = std::chrono::duration<double>(dequeue - park).count();
      pool_metrics().idle_s.add(idle);
      lane_metrics->idle_s.add(idle);
      if (task.enqueue_ns != 0) {
        const std::uint64_t now_ns = obs::trace_now_ns();
        if (now_ns > task.enqueue_ns) {
          lane_metrics->wait_s.add(
              static_cast<double>(now_ns - task.enqueue_ns) * 1e-9);
        }
      }
    }
    task.fn();
    if (record && lane_metrics != nullptr) {
      lane_metrics->busy_s.add(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - dequeue)
              .count());
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
    }
    all_done_.notify_all();
  }
}

}  // namespace rfidsim::sweep
