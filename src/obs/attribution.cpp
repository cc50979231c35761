#include "obs/attribution.hpp"

#include <array>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "obs/trace.hpp"

namespace rfidsim::obs::prof {

namespace detail {

std::atomic<bool>& attribution_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

}  // namespace detail

namespace {

/// Global per-phase accumulators. Phases are coarse (a handful of
/// transitions per pass, never per tag), so contended fetch_adds are not a
/// hot-path concern.
struct PhaseCell {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> self_ns{0};
};

std::array<PhaseCell, kPhaseCount>& cells() {
  static std::array<PhaseCell, kPhaseCount> c;
  return c;
}

/// Per-thread phase stack: a marker's depth is its span depth, and
/// `last_stamp_ns` is the wall time of the most recent push/pop on this
/// thread, so for self-time accounting the span since then belongs
/// entirely to the phase on top of the stack at that moment.
struct PhaseStack {
  static constexpr std::size_t kMaxDepth = 32;
  std::array<Phase, kMaxDepth> frames{};
  std::size_t depth = 0;
  std::uint64_t last_stamp_ns = 0;
};

PhaseStack& stack() {
  thread_local PhaseStack s;
  return s;
}

void charge(Phase phase, std::uint64_t ns) {
  cells()[static_cast<std::size_t>(phase)].self_ns.fetch_add(
      ns, std::memory_order_relaxed);
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kPathEval: return "path_eval";
    case Phase::kPortalSim: return "portal_sim";
    case Phase::kGen2Inventory: return "gen2_inventory";
    case Phase::kEventLogAppend: return "event_log_append";
    case Phase::kStoreRoute: return "store_route";
    case Phase::kStoreMerge: return "store_merge";
    case Phase::kGen2Fusion: return "gen2_fusion";
    case Phase::kFeedPass: return "feed_pass";
    case Phase::kStoreIngest: return "store_ingest";
    case Phase::kCheckpointWrite: return "checkpoint_write";
    case Phase::kCheckpointRestore: return "checkpoint_restore";
    case Phase::kQueryMissing: return "query_missing";
    case Phase::kUploadWire: return "upload_wire";
    case Phase::kTrackIngest: return "track_ingest";
    case Phase::kStoreDigest: return "store_digest";
    case Phase::kWireCodec: return "wire_codec";
    case Phase::kQueryLocate: return "query_locate";
    case Phase::kQueryInventory: return "query_inventory";
    case Phase::kQueryModel: return "query_model";
    case Phase::kFeedMonitor: return "feed_monitor";
  }
  return "unknown";
}

bool attribution_enabled() {
  return detail::attribution_flag().load(std::memory_order_relaxed);
}

void set_attribution_enabled(bool on) {
  detail::attribution_flag().store(on, std::memory_order_relaxed);
}

ScopedPhase::ScopedPhase(Phase phase) : phase_(phase) {
  attributing_ = attribution_hooks_enabled();
  tracing_ = trace_hooks_enabled();
  if (!attributing_ && !tracing_) return;
  PhaseStack& s = stack();
  if (s.depth >= PhaseStack::kMaxDepth) {  // Runaway nesting: drop.
    attributing_ = tracing_ = false;
    return;
  }
  const std::uint64_t now = trace_now_ns();
  if (attributing_) {
    if (s.depth > 0) charge(s.frames[s.depth - 1], now - s.last_stamp_ns);
    cells()[static_cast<std::size_t>(phase_)].calls.fetch_add(
        1, std::memory_order_relaxed);
  }
  depth_ = static_cast<std::uint32_t>(s.depth);
  s.frames[s.depth++] = phase_;
  s.last_stamp_ns = now;
  start_ns_ = now;
}

ScopedPhase::~ScopedPhase() {
  if (!attributing_ && !tracing_) return;
  PhaseStack& s = stack();
  const std::uint64_t now = trace_now_ns();
  // The frame on top is ours by RAII nesting (ScopedPhase is scope-bound
  // and non-movable, so destruction order mirrors construction order).
  if (attributing_) charge(phase_, now - s.last_stamp_ns);
  if (s.depth > 0) --s.depth;
  s.last_stamp_ns = now;
  if (tracing_) record_span(phase_name(phase_), start_ns_, now, depth_);
}

PhaseTotals phase_totals(Phase phase) {
  const PhaseCell& cell = cells()[static_cast<std::size_t>(phase)];
  PhaseTotals totals;
  totals.calls = cell.calls.load(std::memory_order_relaxed);
  totals.self_seconds =
      static_cast<double>(cell.self_ns.load(std::memory_order_relaxed)) * 1e-9;
  return totals;
}

void reset_attribution() {
  for (PhaseCell& cell : cells()) {
    cell.calls.store(0, std::memory_order_relaxed);
    cell.self_ns.store(0, std::memory_order_relaxed);
  }
}

void publish_attribution_metrics() {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const PhaseTotals totals = phase_totals(phase);
    registry()
        .gauge("obs.attribution.phase_calls", {{"phase", phase_name(phase)}})
        .set(static_cast<double>(totals.calls));
    registry()
        .gauge("obs.attribution.self_seconds", {{"phase", phase_name(phase)}})
        .set(totals.self_seconds);
  }
}

namespace {

struct ReportData {
  std::array<PhaseTotals, kPhaseCount> phases;
  double covered_s = 0.0;
  double portal_s = 0.0;     ///< portal_sim + gen2_inventory + event_log_append
                             ///< + gen2_fusion.
  double path_eval_s = 0.0;
  double store_merge_s = 0.0; ///< store_route + store_merge.
};

ReportData gather() {
  ReportData data;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    data.phases[i] = phase_totals(static_cast<Phase>(i));
    data.covered_s += data.phases[i].self_seconds;
  }
  data.path_eval_s =
      data.phases[static_cast<std::size_t>(Phase::kPathEval)].self_seconds;
  data.portal_s =
      data.phases[static_cast<std::size_t>(Phase::kPortalSim)].self_seconds +
      data.phases[static_cast<std::size_t>(Phase::kGen2Inventory)].self_seconds +
      data.phases[static_cast<std::size_t>(Phase::kEventLogAppend)].self_seconds +
      data.phases[static_cast<std::size_t>(Phase::kGen2Fusion)].self_seconds;
  data.store_merge_s =
      data.phases[static_cast<std::size_t>(Phase::kStoreRoute)].self_seconds +
      data.phases[static_cast<std::size_t>(Phase::kStoreMerge)].self_seconds;
  return data;
}

double share_of(double part, double total) {
  return total > 0.0 ? part / total : 0.0;
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", s);
  return buf;
}

std::string fmt_share(double share) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", share * 100.0);
  return buf;
}

}  // namespace

void write_attribution_report(std::ostream& out) {
  const ReportData data = gather();
  out << "attribution report (exclusive wall-clock per stage, "
      << fmt_seconds(data.covered_s) << "s covered):\n";
  TextTable table({"phase", "calls", "self_s", "share"});
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseTotals& totals = data.phases[i];
    table.add_row({phase_name(static_cast<Phase>(i)),
                   std::to_string(totals.calls), fmt_seconds(totals.self_seconds),
                   fmt_share(share_of(totals.self_seconds, data.covered_s))});
  }
  out << table.render();
  out << "stage groups: portal_sim "
      << fmt_share(share_of(data.portal_s, data.covered_s)) << ", path_eval "
      << fmt_share(share_of(data.path_eval_s, data.covered_s))
      << ", store_merge "
      << fmt_share(share_of(data.store_merge_s, data.covered_s)) << "\n";
}

void write_attribution_json(std::ostream& out) {
  const ReportData data = gather();
  out << "{\"attribution\":\"rfidsim\",\"covered_seconds\":"
      << fmt_seconds(data.covered_s) << ",\"phases\":[";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseTotals& totals = data.phases[i];
    if (i != 0) out << ",";
    out << "{\"phase\":\"" << phase_name(static_cast<Phase>(i))
        << "\",\"calls\":" << totals.calls << ",\"self_seconds\":"
        << fmt_seconds(totals.self_seconds) << ",\"share\":"
        << fmt_seconds(share_of(totals.self_seconds, data.covered_s)) << "}";
  }
  out << "],\"groups\":{\"portal_sim\":"
      << fmt_seconds(share_of(data.portal_s, data.covered_s))
      << ",\"path_eval\":"
      << fmt_seconds(share_of(data.path_eval_s, data.covered_s))
      << ",\"store_merge\":"
      << fmt_seconds(share_of(data.store_merge_s, data.covered_s)) << "}}\n";
}

bool dump_attribution(const std::string& path) {
  return write_file_atomically(path, write_attribution_json);
}

}  // namespace rfidsim::obs::prof
