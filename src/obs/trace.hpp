// rfidsim::obs — wall-clock spans of the simulator's stages.
//
// Spans are recorded by prof::ScopedPhase, the one stage marker (see
// attribution.hpp): with tracing on, every marker pushes one span named
// after its phase into a fixed-capacity ring owned by the recording
// thread, so the hot path never contends with other threads. The merged
// rings export as Chrome trace_event JSON (chrome://tracing, Perfetto) —
// metric values go through MetricsRegistry instead (see metrics.hpp).
//
// Tracing is off by default (RFIDSIM_OBS=trace or set_trace_enabled(true)
// turns it on) and obeys the same feedback-free contract as metrics: span
// timestamps are wall-clock readings about the instrument and never feed
// back into simulated state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.hpp"

namespace rfidsim::obs {

/// One completed span, as stored in a ring and returned by snapshots.
struct TraceEvent {
  const char* name = nullptr;  ///< Static string (a phase name).
  std::uint64_t start_ns = 0;  ///< steady_clock, process-relative.
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;  ///< Marker nesting depth within the thread.
  std::uint32_t tid = 0;    ///< Recording thread's registration index.
};

/// Spans per thread ring; the newest spans win once a ring wraps.
inline constexpr std::size_t kTraceRingCapacity = 8192;

/// The clock spans are stamped with: steady_clock nanoseconds,
/// process-relative. Shared with the structured log's opt-in wall_ns
/// field so every wall-clock reading in an obs dump is on one timeline.
std::uint64_t trace_now_ns();

/// Appends one span to the calling thread's ring (ScopedPhase's exit
/// path; `name` must be a static string).
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint32_t depth);

/// Chronological snapshot of every thread's ring (merged, sorted by start
/// time). Safe to call while other threads keep recording.
std::vector<TraceEvent> trace_snapshot();

/// Chrome trace_event JSON ("X" complete events; ts/dur in microseconds,
/// rebased so the earliest span starts at 0). Schema in EXPERIMENTS.md.
void write_chrome_trace(std::ostream& out);

/// Discards all recorded spans (ring registrations survive; the per-ring
/// drop tallies reset too).
void clear_trace();

/// Spans lost to ring wrap since the last clear_trace(), summed across
/// rings. The cumulative (never-reset) total is also published to the
/// obs.trace.dropped_spans counter.
std::uint64_t trace_dropped_spans();

}  // namespace rfidsim::obs
