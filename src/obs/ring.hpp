// rfidsim::obs — the one bounded ring every obs record stream lives in,
// and the one per-thread registry that owns the per-thread rings.
//
// Ring<T> keeps the newest capacity() records of a stream behind a
// monotonic write counter: slot = position % capacity, the newest records
// win on wrap, and every overwrite shows in dropped(). Its only guard is
// one std::atomic_flag. Ordinary writers and readers spin on it (lock());
// signal-context callers only try-acquire it (try_lock()) — the SIGPROF
// handler fills its slot in place and skips the sample when the ring is
// busy, the crash handler skips a busy ring rather than deadlocking the
// dump. The counter itself is atomic, so tallies never need the guard.
//
// Three streams use it: trace spans (one ring per thread, allocated on the
// thread's first span), profiler samples (one ring per sampled thread,
// allocated at prof::start()) and the process-wide provenance log.
//
// The registry hands every thread that records spans or samples one
// ThreadEntry: its registration index is a span's tid, its lane a sample's
// lane. Entries and their rings are never freed, so spans and samples of
// exited threads still export and a signal handler can never touch freed
// memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace rfidsim::obs {

template <typename T>
class Ring {
 public:
  static constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();

  explicit Ring(std::size_t capacity) : slots_(capacity) {
    require(capacity > 0, "obs::Ring: capacity must be positive");
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Spin-acquires the guard: ordinary writers and snapshots.
  void lock() const {
    while (busy_.test_and_set(std::memory_order_acquire)) std::this_thread::yield();
  }
  /// Signal-context acquire: never waits.
  bool try_lock() const { return !busy_.test_and_set(std::memory_order_acquire); }
  void unlock() const { busy_.clear(std::memory_order_release); }

  /// Records written since construction or the last clear(); the stream
  /// position one past the newest record.
  std::uint64_t written() const { return written_.load(std::memory_order_acquire); }
  /// Records overwritten by wrap.
  std::uint64_t dropped() const {
    const std::uint64_t w = written();
    return w > capacity() ? w - capacity() : 0;
  }

  // --- Guard held ---------------------------------------------------------

  /// The slot the next record goes to, for in-place fills.
  T& next_slot() {
    return slots_[written_.load(std::memory_order_relaxed) % capacity()];
  }
  /// Publishes next_slot(). Returns true when it overwrote a retained record.
  bool commit() {
    const std::uint64_t w = written_.load(std::memory_order_relaxed) + 1;
    written_.store(w, std::memory_order_release);
    return w > capacity();
  }
  /// Stream position of the oldest of the newest `max` retained records.
  std::uint64_t first(std::uint64_t max = kAll) const {
    const std::uint64_t w = written();
    return w - std::min<std::uint64_t>({w, capacity(), max});
  }
  /// The record at a retained stream position.
  const T& at(std::uint64_t position) const { return slots_[position % capacity()]; }

  // --- Spinning conveniences ----------------------------------------------

  /// Appends one record. Returns true when it overwrote a retained record.
  bool push(const T& record) {
    const std::lock_guard guard(*this);
    next_slot() = record;
    return commit();
  }

  /// Appends the newest `max` retained records to `out`, oldest first.
  void snapshot(std::vector<T>& out, std::uint64_t max = kAll) const {
    const std::lock_guard guard(*this);
    const std::uint64_t end = written();
    for (std::uint64_t p = first(max); p < end; ++p) out.push_back(at(p));
  }

  /// Discards every record and zeroes the tallies.
  void clear() {
    const std::lock_guard guard(*this);
    written_.store(0, std::memory_order_release);
  }

 private:
  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  std::vector<T> slots_;
  std::atomic<std::uint64_t> written_{0};
};

struct TraceEvent;
namespace prof {
struct Sample;
}  // namespace prof

namespace detail {

/// prof.cpp's per-thread CPU-time sampling timer.
struct ProfTimer;

/// One registered thread.
struct ThreadEntry {
  std::uint32_t index = 0;  ///< Registration order: the thread's span tid.
  /// Sweep lane (prof::register_thread), or prof::kNoLane: a sample's lane.
  std::atomic<std::uint32_t> lane{0xffffffffu};
  std::atomic<Ring<TraceEvent>*> spans{nullptr};      ///< Set by the owner.
  std::atomic<Ring<prof::Sample>*> samples{nullptr};  ///< Set under the mutex.
  ProfTimer* timer = nullptr;  ///< Guarded by ThreadRegistry::mutex.
};

struct ThreadRegistry {
  std::mutex mutex;
  std::vector<ThreadEntry*> entries;
};

inline ThreadRegistry& thread_registry() {
  // Never destroyed: signal handlers and parked sweep workers may outlive
  // static teardown.
  static ThreadRegistry* registry = new ThreadRegistry;
  return *registry;
}

inline thread_local ThreadEntry* t_thread_entry = nullptr;

/// The calling thread's entry, registered on first use.
inline ThreadEntry& this_thread_entry() {
  if (t_thread_entry == nullptr) {
    ThreadRegistry& registry = thread_registry();
    auto* entry = new ThreadEntry;
    const std::lock_guard lock(registry.mutex);
    entry->index = static_cast<std::uint32_t>(registry.entries.size());
    registry.entries.push_back(entry);
    t_thread_entry = entry;
  }
  return *t_thread_entry;
}

/// Every entry registered so far (entries are never freed, so the copy
/// stays valid after the lock is released).
inline std::vector<ThreadEntry*> thread_entries() {
  ThreadRegistry& registry = thread_registry();
  const std::lock_guard lock(registry.mutex);
  return registry.entries;
}

}  // namespace detail
}  // namespace rfidsim::obs
