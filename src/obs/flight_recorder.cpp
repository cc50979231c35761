#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RFIDSIM_FLIGHT_HAS_SIGNALS 1
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace rfidsim::obs {

namespace {

// --- async-signal-safe formatting ------------------------------------
//
// The dump format is shared between the ostream path and the signal
// handler, so every line is built with these allocation-free helpers
// (snprintf is not on the async-signal-safe list).

std::size_t put_str(char* buf, std::size_t cap, std::size_t at, const char* s) {
  while (*s != '\0' && at < cap) buf[at++] = *s++;
  return at;
}

std::size_t put_u64(char* buf, std::size_t cap, std::size_t at, std::uint64_t v) {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && at < cap) buf[at++] = digits[--n];
  return at;
}

/// Seconds with fixed six decimals (micro resolution), sign included;
/// `null` when the time is not finite or its microseconds do not fit a
/// u64 (converting such a value to an integer is undefined).
std::size_t put_seconds(char* buf, std::size_t cap, std::size_t at, double t) {
  const double rounded_micros = std::fabs(t) * 1e6 + 0.5;
  if (!(rounded_micros < 0x1p64)) return put_str(buf, cap, at, "null");
  if (t < 0) at = put_str(buf, cap, at, "-");
  const auto micros = static_cast<std::uint64_t>(rounded_micros);
  at = put_u64(buf, cap, at, micros / 1000000);
  at = put_str(buf, cap, at, ".");
  char frac[6];
  std::uint64_t f = micros % 1000000;
  for (std::size_t i = 6; i-- > 0;) {
    frac[i] = static_cast<char>('0' + f % 10);
    f /= 10;
  }
  for (std::size_t i = 0; i < 6 && at < cap; ++i) buf[at++] = frac[i];
  return at;
}

/// One provenance record as a JSONL line (newline included). `seq` is its
/// position in the provenance stream; hop names are our own static
/// literals, so no JSON escaping is needed.
std::size_t format_record(char* buf, std::size_t cap, std::uint64_t seq,
                          const ProvenanceRecord& rec) {
  std::size_t at = 0;
  at = put_str(buf, cap, at, "{\"seq\":");
  at = put_u64(buf, cap, at, seq);
  at = put_str(buf, cap, at, ",\"cat\":\"provenance\",\"event\":\"");
  at = put_str(buf, cap, at, batch_hop_name(rec.hop));
  at = put_str(buf, cap, at, "\",\"a\":");
  at = put_u64(buf, cap, at, rec.batch_id);
  at = put_str(buf, cap, at, ",\"b\":");
  at = put_u64(buf, cap, at, rec.value);
  at = put_str(buf, cap, at, ",\"c\":");
  at = put_u64(buf, cap, at, rec.facility);
  at = put_str(buf, cap, at, ",\"t_s\":");
  at = put_seconds(buf, cap, at, rec.time_s);
  at = put_str(buf, cap, at, "}\n");
  return at;
}

std::size_t format_meta(char* buf, std::size_t cap, const char* reason,
                        const Ring<ProvenanceRecord>& ring) {
  std::size_t at = 0;
  at = put_str(buf, cap, at, "{\"flight_recorder\":\"rfidsim\",\"reason\":\"");
  at = put_str(buf, cap, at, reason);
  at = put_str(buf, cap, at, "\",\"recorded\":");
  at = put_u64(buf, cap, at, ring.written());
  at = put_str(buf, cap, at, ",\"dropped\":");
  at = put_u64(buf, cap, at, ring.dropped());
  at = put_str(buf, cap, at, "}\n");
  return at;
}

constexpr std::size_t kLineCap = 512;

/// Hands the dump to `emit(line, length)` one line at a time: the meta
/// line, then the newest kFlightDumpRecords provenance records, oldest
/// first. In signal context a busy ring is skipped (meta line only).
template <typename Emit>
void emit_dump(const char* reason, bool signal_context, Emit&& emit) {
  const Ring<ProvenanceRecord>& ring = provenance_log().ring();
  bool held = true;
  if (signal_context) {
    held = ring.try_lock();
  } else {
    ring.lock();
  }
  char line[kLineCap];
  emit(line, format_meta(line, kLineCap, reason, ring));
  if (!held) return;
  const std::uint64_t end = ring.written();
  for (std::uint64_t seq = ring.first(kFlightDumpRecords); seq < end; ++seq) {
    emit(line, format_record(line, kLineCap, seq, ring.at(seq)));
  }
  ring.unlock();
}

std::atomic<std::uint64_t> g_dump_attempts{0};
std::atomic<std::uint64_t> g_dump_failures{0};

}  // namespace

void write_flight_dump(std::ostream& out, const char* reason) {
  emit_dump(reason, false, [&out](const char* line, std::size_t n) {
    out.write(line, static_cast<std::streamsize>(n));
  });
}

std::uint64_t flight_dump_attempts() {
  return g_dump_attempts.load(std::memory_order_relaxed);
}

std::uint64_t flight_dump_failures() {
  return g_dump_failures.load(std::memory_order_relaxed);
}

bool dump_flight_recorder(const std::string& path) {
  g_dump_attempts.fetch_add(1, std::memory_order_relaxed);
  const bool ok = write_file_atomically(
      path, [](std::ostream& out) { write_flight_dump(out); });
  if (!ok) g_dump_failures.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

#ifdef RFIDSIM_FLIGHT_HAS_SIGNALS

namespace {

char g_crash_path[512] = "";
char g_crash_tmp[520] = "";
std::atomic<bool> g_dumping{false};

void write_all(int fd, const char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, buf + done, n - done);
    if (w <= 0) return;
    done += static_cast<std::size_t>(w);
  }
}

/// The handler proper. Only async-signal-safe calls (open/write/rename/
/// raise) plus a try-acquired ring guard: a ring held by the crashing
/// thread is skipped rather than deadlocking the dump.
void crash_handler(int sig) {
  if (!g_dumping.exchange(true)) {
    const int fd = ::open(g_crash_tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      char reason[32];
      std::size_t at = put_str(reason, sizeof reason, 0, "signal:");
      at = put_u64(reason, sizeof reason, at, static_cast<std::uint64_t>(sig));
      reason[std::min(at, sizeof reason - 1)] = '\0';
      emit_dump(reason, true,
                [fd](const char* line, std::size_t n) { write_all(fd, line, n); });
      ::close(fd);
      ::rename(g_crash_tmp, g_crash_path);
    }
  }
  // SA_RESETHAND restored the default disposition; re-raise so the exit
  // code / core dump is exactly what the signal would have produced.
  ::raise(sig);
}

}  // namespace

bool install_crash_handler(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), sizeof g_crash_path - 1);
  g_crash_path[sizeof g_crash_path - 1] = '\0';
  std::strncpy(g_crash_tmp, g_crash_path, sizeof g_crash_tmp - 5);
  std::strcat(g_crash_tmp, ".tmp");
  // Construct the log now: its first use allocates, which the handler must
  // never do.
  (void)provenance_log();

  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = crash_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  const int signals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};
  bool ok = true;
  for (const int sig : signals) ok = sigaction(sig, &action, nullptr) == 0 && ok;
  return ok;
}

const char* crash_dump_path() { return g_crash_path; }

#else  // !RFIDSIM_FLIGHT_HAS_SIGNALS

bool install_crash_handler(const std::string&) { return false; }
const char* crash_dump_path() { return ""; }

#endif

}  // namespace rfidsim::obs
