#include "obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

#if defined(__linux__) && !defined(RFIDSIM_OBS_DISABLED)
#define RFIDSIM_PROF_HAS_TIMERS 1
#endif

#ifdef RFIDSIM_PROF_HAS_TIMERS
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

// Raw-struct fallbacks for libcs that support SIGEV_THREAD_ID delivery but
// do not expose the glibc convenience names.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // RFIDSIM_PROF_HAS_TIMERS

#if defined(__GLIBC__)
#include <cxxabi.h>
#include <execinfo.h>
#define RFIDSIM_PROF_HAS_SYMBOLS 1
#endif

#ifdef RFIDSIM_PROF_HAS_TIMERS
namespace rfidsim::obs::detail {

/// A sampled thread's CPU-time timer. Guarded by the registry mutex, which
/// also keeps `thread` valid: a thread clears `alive` under it before it
/// exits.
struct ProfTimer {
  pid_t tid = 0;
  pthread_t thread{};  ///< Names the thread's CPU-time clock for its timer.
  timer_t timer{};
  bool armed = false;
  bool alive = true;
};

}  // namespace rfidsim::obs::detail
#endif  // RFIDSIM_PROF_HAS_TIMERS

namespace rfidsim::obs::prof {

namespace {

#ifdef RFIDSIM_PROF_HAS_TIMERS

using detail::ProfTimer;
using detail::ThreadEntry;

std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_interval_usec{997};
std::atomic<std::uint32_t> g_max_depth{kMaxFrames};
struct sigaction g_old_action;

/// The SIGPROF handler. Async-signal-safe by construction: POD stores into
/// a preallocated slot, one primed backtrace() call, errno save/restore,
/// and a try-acquired ring guard instead of any blocking primitive.
void sigprof_handler(int, siginfo_t*, void*) {
  const ThreadEntry* entry = detail::t_thread_entry;
  if (entry == nullptr || !g_active.load(std::memory_order_relaxed)) return;
  Ring<Sample>* ring = entry->samples.load(std::memory_order_acquire);
  if (ring == nullptr || !ring->try_lock()) return;
  const int saved_errno = errno;
  Sample& slot = ring->next_slot();
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  slot.wall_ns = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
                 static_cast<std::uint64_t>(ts.tv_nsec);
  slot.lane = entry->lane.load(std::memory_order_relaxed);
  const int depth = ::backtrace(
      slot.frames.data(),
      static_cast<int>(g_max_depth.load(std::memory_order_relaxed)));
  slot.depth = depth > 0 ? static_cast<std::uint32_t>(depth) : 0;
  ring->commit();
  errno = saved_errno;
  ring->unlock();
}

/// Arms one thread's CPU-time timer, allocating its sample ring first.
/// Caller holds the registry mutex; the release store publishes the fully
/// constructed ring to the handler. The clock must be the entry's own —
/// CLOCK_THREAD_CPUTIME_ID names the calling thread's, and start() arms
/// every already-registered thread from its own.
void arm_timer_locked(ThreadEntry& entry) {
  ProfTimer* timer = entry.timer;
  if (timer == nullptr || timer->armed || !timer->alive) return;
  clockid_t clock{};
  if (pthread_getcpuclockid(timer->thread, &clock) != 0) return;
  if (entry.samples.load(std::memory_order_relaxed) == nullptr) {
    entry.samples.store(new Ring<Sample>(kSamplesPerThread),
                        std::memory_order_release);
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = timer->tid;
  if (timer_create(clock, &sev, &timer->timer) != 0) return;
  const long interval_ns =
      static_cast<long>(g_interval_usec.load(std::memory_order_relaxed)) * 1000L;
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer->timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer->timer);
    return;
  }
  timer->armed = true;
}

void disarm_timer_locked(ProfTimer& timer) {
  if (!timer.armed) return;
  timer_delete(timer.timer);
  timer.armed = false;
}

/// Thread-exit hook: disarm this thread's timer and mark it dead (its
/// retained samples stay dumpable).
struct ThreadExitHook {
  ProfTimer* timer = nullptr;
  ~ThreadExitHook() {
    if (timer == nullptr) return;
    const std::lock_guard lock(detail::thread_registry().mutex);
    disarm_timer_locked(*timer);
    timer->alive = false;
  }
};

thread_local ThreadExitHook t_exit_hook;

/// Gives the calling thread a sampling timer, once; armed at once when the
/// profiler is active.
void ensure_timer() {
  if (t_exit_hook.timer != nullptr) return;
  auto* timer = new ProfTimer;
  timer->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  timer->thread = pthread_self();
  t_exit_hook.timer = timer;
  ThreadEntry& entry = detail::this_thread_entry();
  const std::lock_guard lock(detail::thread_registry().mutex);
  entry.timer = timer;
  if (g_active.load(std::memory_order_relaxed)) arm_timer_locked(entry);
}

#endif  // RFIDSIM_PROF_HAS_TIMERS

/// Turns one backtrace_symbols() line into a frame name: the demangled
/// function (argument list stripped), the mangled symbol when demangling
/// fails, or the raw address when the frame has no symbol at all. Spaces
/// and semicolons are replaced — both are folded-format separators.
std::string frame_name(const char* symbol, void* addr) {
  std::string name;
#ifdef RFIDSIM_PROF_HAS_SYMBOLS
  if (symbol != nullptr) {
    const std::string s(symbol);
    const std::size_t open = s.find('(');
    const std::size_t plus = s.rfind('+');
    const std::size_t close = s.rfind(')');
    if (open != std::string::npos && plus != std::string::npos &&
        close != std::string::npos && open + 1 < plus && plus < close) {
      std::string mangled = s.substr(open + 1, plus - open - 1);
      if (!mangled.empty()) {
        int status = -1;
        char* demangled =
            abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
        if (status == 0 && demangled != nullptr) {
          name.assign(demangled);
          std::free(demangled);
          // Strip the argument list: stacks fold by function, not overload.
          if (const std::size_t args = name.find('('); args != std::string::npos) {
            name.erase(args);
          }
        } else {
          name = std::move(mangled);
        }
      }
    }
  }
#else
  (void)symbol;
#endif
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%zx", reinterpret_cast<std::size_t>(addr));
    name = buf;
  }
  for (char& c : name) {
    if (c == ' ' || c == ';') c = '_';
  }
  return name;
}

/// Symbolizes each unique address once (backtrace_symbols is one malloc
/// per call — fine offline, forbidden in the handler).
std::map<void*, std::string> symbolize(const std::vector<Sample>& samples) {
  std::map<void*, std::string> names;
  std::vector<void*> unique;
  for (const Sample& sample : samples) {
    const std::size_t depth = std::min<std::size_t>(sample.depth, kMaxFrames);
    for (std::size_t i = 0; i < depth; ++i) {
      if (names.emplace(sample.frames[i], std::string()).second) {
        unique.push_back(sample.frames[i]);
      }
    }
  }
#ifdef RFIDSIM_PROF_HAS_SYMBOLS
  char** symbols = unique.empty()
                       ? nullptr
                       : ::backtrace_symbols(unique.data(),
                                             static_cast<int>(unique.size()));
  for (std::size_t i = 0; i < unique.size(); ++i) {
    names[unique[i]] =
        frame_name(symbols != nullptr ? symbols[i] : nullptr, unique[i]);
  }
  std::free(symbols);
#else
  for (void* addr : unique) names[addr] = frame_name(nullptr, addr);
#endif
  return names;
}

/// First retained frame index: the handler and the kernel signal
/// trampoline occupy the top two frames of every signal-captured stack.
std::size_t first_frame(const Sample& sample) {
  return sample.depth > 2 ? 2 : 0;
}

/// Calls visit(ring) for every sample ring allocated so far.
template <typename Visit>
void for_each_sample_ring(Visit&& visit) {
  for (const detail::ThreadEntry* entry : detail::thread_entries()) {
    if (Ring<Sample>* ring = entry->samples.load(std::memory_order_acquire)) {
      visit(*ring);
    }
  }
}

}  // namespace

void register_thread(std::uint32_t lane) {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  detail::this_thread_entry().lane.store(lane, std::memory_order_relaxed);
  ensure_timer();
#else
  (void)lane;
#endif
}

bool start(const ProfilerConfig& config) {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  if (!hooks_enabled()) return false;
  bool expected = false;
  if (!g_active.compare_exchange_strong(expected, true)) return false;
  g_interval_usec.store(std::max<std::uint32_t>(100, config.interval_usec),
                        std::memory_order_relaxed);
  g_max_depth.store(
      static_cast<std::uint32_t>(std::clamp<std::size_t>(config.max_depth, 1,
                                                         kMaxFrames)),
      std::memory_order_relaxed);
  // Prime backtrace(): its first call may allocate unwinder state, which
  // must never happen inside the handler.
  void* primer[4];
  ::backtrace(primer, 4);
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_sigaction = sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &g_old_action) != 0) {
    g_active.store(false, std::memory_order_relaxed);
    return false;
  }
  ensure_timer();
  const std::lock_guard lock(detail::thread_registry().mutex);
  for (ThreadEntry* entry : detail::thread_registry().entries) arm_timer_locked(*entry);
  return true;
#else
  (void)config;
  return false;
#endif
}

void stop() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  if (!g_active.exchange(false)) return;
  {
    const std::lock_guard lock(detail::thread_registry().mutex);
    for (ThreadEntry* entry : detail::thread_registry().entries) {
      if (entry->timer != nullptr) disarm_timer_locked(*entry->timer);
    }
  }
  // Wait out in-flight handlers: once each ring's guard has been acquired
  // here, every handler write happens-before the dump reads.
  for_each_sample_ring([](const Ring<Sample>& ring) {
    ring.lock();
    ring.unlock();
  });
  sigaction(SIGPROF, &g_old_action, nullptr);
#endif
}

bool profiling_active() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  return g_active.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

std::uint64_t samples_recorded() {
  std::uint64_t total = 0;
  for_each_sample_ring([&total](const Ring<Sample>& ring) { total += ring.written(); });
  return total;
}

std::uint64_t samples_dropped() {
  std::uint64_t total = 0;
  for_each_sample_ring([&total](const Ring<Sample>& ring) { total += ring.dropped(); });
  return total;
}

std::vector<Sample> samples_snapshot() {
  std::vector<Sample> out;
  for_each_sample_ring([&out](const Ring<Sample>& ring) { ring.snapshot(out); });
  return out;
}

std::map<std::string, std::uint64_t> fold_samples(
    const std::vector<Sample>& samples) {
  const std::map<void*, std::string> names = symbolize(samples);
  std::map<std::string, std::uint64_t> folded;
  for (const Sample& sample : samples) {
    const std::size_t depth = std::min<std::size_t>(sample.depth, kMaxFrames);
    const std::size_t start = first_frame(sample);
    if (depth <= start) continue;
    std::string stack;
    for (std::size_t i = depth; i > start; --i) {  // Root first.
      stack += names.at(sample.frames[i - 1]);
      if (i - 1 > start) stack += ';';
    }
    ++folded[stack];
  }
  return folded;
}

void write_folded(std::ostream& out) {
  for (const auto& [stack, count] : fold_samples(samples_snapshot())) {
    out << stack << " " << count << "\n";
  }
}

bool dump_profile(const std::string& path) {
  return write_file_atomically(path, write_folded);
}

void clear_profile() {
  for_each_sample_ring([](Ring<Sample>& ring) { ring.clear(); });
}

}  // namespace rfidsim::obs::prof
