// rfidsim::obs — structured JSON-lines event log.
//
// Metrics aggregate; traces time; neither says *what happened*. The
// structured log fills that gap: leveled, machine-parseable JSON-lines
// records ("reader 1 went silent at t=2.31s on pass 17") emitted by the
// reliability monitor and any other subsystem that has an event worth a
// line. One record per line, keys in emission order, values JSON-escaped.
//
// Determinism: records carry *simulation* clocks (pass index, sim-time
// seconds) supplied by the caller, so a log from a deterministic workload
// is byte-identical across runs and thread counts as long as records are
// emitted in a deterministic order (the monitor feeds passes in index
// order; see monitor.hpp). Wall-clock timestamps — read from the same
// steady clock trace spans use (trace_now_ns) — are strictly opt-in via
// set_wall_clock(true), because they break byte-identity by design.
//
// Rate limiting is deterministic too: a per-(component, event) budget of
// records per window, with windows advanced by the caller (the monitor
// opens one window per pass). Suppressed records are counted in the
// registry (obs.log.dropped_records) and on the sink itself.
//
// The sink obeys the master obs switches: with RFIDSIM_OBS=off at runtime
// or -DRFIDSIM_OBS=OFF at compile time, log() records nothing (the
// monitor's *detection* logic is independent of this — only its narration
// disappears).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rfidsim::obs {

/// Severity, ordered. The sink drops records below its minimum level.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Lower-case level name ("debug", "info", "warn", "error").
const char* log_level_name(LogLevel level);

/// One key/value field of a log record. Construct implicitly from the
/// value: {"reader", 3}, {"rate", 0.82}, {"degraded", true},
/// {"detail", "cusum over threshold"}.
struct LogField {
  enum class Kind { kString, kDouble, kInt, kUInt, kBool };

  LogField(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(std::string_view k, double v) : key(k), kind(Kind::kDouble), num(v) {}
  LogField(std::string_view k, int v)
      : key(k), kind(Kind::kInt), int_num(v) {}
  LogField(std::string_view k, long v)
      : key(k), kind(Kind::kInt), int_num(v) {}
  LogField(std::string_view k, long long v)
      : key(k), kind(Kind::kInt), int_num(v) {}
  LogField(std::string_view k, unsigned v)
      : key(k), kind(Kind::kUInt), uint_num(v) {}
  LogField(std::string_view k, unsigned long v)
      : key(k), kind(Kind::kUInt), uint_num(v) {}
  LogField(std::string_view k, unsigned long long v)
      : key(k), kind(Kind::kUInt), uint_num(v) {}
  LogField(std::string_view k, bool v) : key(k), kind(Kind::kBool), flag(v) {}

  std::string_view key;
  Kind kind;
  std::string_view str{};
  double num = 0.0;
  std::int64_t int_num = 0;
  std::uint64_t uint_num = 0;
  bool flag = false;
};

/// Rate-limit policy of a StructuredLog.
struct LogRateLimit {
  /// Records allowed per (component, event) key per window; 0 disables
  /// the limit entirely.
  std::size_t per_key_per_window = 64;
  /// Hard cap on records per window across all keys; 0 disables.
  std::size_t total_per_window = 4096;
};

/// JSON-lines sink. Not thread-safe by design: the writers (monitor,
/// bench main) feed it from one thread in deterministic order — handing
/// one sink to concurrent writers would scramble line order and break
/// byte-identity anyway. Separate threads take separate sinks.
class StructuredLog {
 public:
  explicit StructuredLog(LogRateLimit limits = {});

  /// Directs output to `out` (nullptr silences the sink; records are
  /// still rate-accounted). The stream must outlive the sink or the next
  /// set_sink call.
  void set_sink(std::ostream* out) { sink_ = out; }
  void set_min_level(LogLevel level) { min_level_ = level; }
  LogLevel min_level() const { return min_level_; }

  /// Opt-in wall-clock field ("wall_ns", from the trace clock). Off by
  /// default: wall time breaks the byte-identity contract.
  void set_wall_clock(bool on) { wall_clock_ = on; }

  /// Opens a new rate-limit window (the monitor calls this once per
  /// pass). Per-key and total budgets refill; nothing is emitted.
  void new_window();

  /// Emits one record: {"lvl":...,"comp":...,"event":...,"t_s":...,
  /// <fields...>}. Returns true when the record reached the sink, false
  /// when it was filtered (level, rate limit, obs disabled, no sink).
  /// `sim_time_s` is the simulation clock of the event (-1 when the event
  /// has no sim-time anchor; the field is then omitted).
  bool log(LogLevel level, std::string_view component, std::string_view event,
           double sim_time_s, std::initializer_list<LogField> fields = {});

  /// Records suppressed by the rate limiter (not by level filtering)
  /// since construction. Mirrored into obs.log.dropped_records on the
  /// process-wide registry when hooks are enabled.
  std::uint64_t dropped() const { return dropped_; }
  /// Records written to the sink since construction.
  std::uint64_t emitted() const { return emitted_; }

  /// Clears rate-limit state and the dropped/emitted tallies.
  void reset();

 private:
  LogRateLimit limits_;
  LogLevel min_level_ = LogLevel::kInfo;
  std::ostream* sink_ = nullptr;
  bool wall_clock_ = false;
  std::map<std::string, std::size_t, std::less<>> window_counts_;
  std::size_t window_total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t emitted_ = 0;
};

/// Appends `value` JSON-escaped (quotes, backslash, control characters)
/// to `out`, without surrounding quotes. Exposed for tests and for other
/// JSON writers in the repo.
void append_json_escaped(std::string& out, std::string_view value);

/// The process-wide sink the built-in instrumentation narrates into.
/// Silent until someone points it at a stream (bench::Session wires
/// --log-dump to it).
StructuredLog& structured_log();

}  // namespace rfidsim::obs
