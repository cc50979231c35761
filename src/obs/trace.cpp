#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>

#include "obs/ring.hpp"

namespace rfidsim::obs {

namespace {

/// Calls visit(ring) for every span ring allocated so far.
template <typename Visit>
void for_each_span_ring(Visit&& visit) {
  for (const detail::ThreadEntry* entry : detail::thread_entries()) {
    if (Ring<TraceEvent>* ring = entry->spans.load(std::memory_order_acquire)) {
      visit(*ring);
    }
  }
}

}  // namespace

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint32_t depth) {
  detail::ThreadEntry& entry = detail::this_thread_entry();
  Ring<TraceEvent>* ring = entry.spans.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new Ring<TraceEvent>(kTraceRingCapacity);
    entry.spans.store(ring, std::memory_order_release);
  }
  const bool wrapped = ring->push(TraceEvent{.name = name,
                                             .start_ns = start_ns,
                                             .duration_ns = end_ns - start_ns,
                                             .depth = depth,
                                             .tid = entry.index});
  if (wrapped) {
    static Counter& drops = obs::counter("obs.trace.dropped_spans");
    drops.add(1);
  }
}

std::vector<TraceEvent> trace_snapshot() {
  std::vector<TraceEvent> out;
  for_each_span_ring([&out](const Ring<TraceEvent>& ring) { ring.snapshot(out); });
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.depth < b.depth;
  });
  return out;
}

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> events = trace_snapshot();
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const TraceEvent& ev : events) epoch = std::min(epoch, ev.start_ns);

  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > 0) out << ',';
    // Span names are phase names: no JSON escaping needed.
    out << "{\"name\":\"" << ev.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << ev.tid << ",\"ts\":" << static_cast<double>(ev.start_ns - epoch) / 1e3
        << ",\"dur\":" << static_cast<double>(ev.duration_ns) / 1e3 << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void clear_trace() {
  for_each_span_ring([](Ring<TraceEvent>& ring) { ring.clear(); });
}

std::uint64_t trace_dropped_spans() {
  std::uint64_t total = 0;
  for_each_span_ring([&total](const Ring<TraceEvent>& ring) { total += ring.dropped(); });
  return total;
}

}  // namespace rfidsim::obs
