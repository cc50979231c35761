// rfidsim::obs::prof — the stage marker and deterministic stage attribution.
//
// RAII ScopedPhase markers wrap the simulator's coarse stages (path
// evaluation, portal simulation, Gen 2 inventory, event-log append, the
// uploader, the feed and its monitor, store ingest and its route/merge
// phases, checkpoints, queries) and are the only stage marker obs has.
// One marker serves two consumers, each behind its own switch:
//   - attribution accumulates *self time* per phase — time inside a child
//     phase is charged to the child, never double-counted in the parent —
//     and the per-run report turns the totals into per-stage shares;
//   - tracing pushes one span named phase_name(phase) per marker into the
//     recording thread's ring (see trace.hpp); its depth is the marker's
//     depth on the same per-thread stack.
//
// Determinism contract (the attribution determinism test pins this):
//   - Phase *names* and *enter counts* are pure functions of the workload —
//     markers sit on the orchestrating thread of each stage, so a run at 1
//     thread and a run at 8 threads enter every phase the same number of
//     times.
//   - *Seconds* are wall-clock and therefore machine-dependent; reports
//     separate the two so tests can compare the deterministic fields alone.
//
// Feedback-free, like every obs layer: markers never touch simulated
// state, are gated on two relaxed atomic loads when disabled (the default),
// and compile out entirely under -DRFIDSIM_OBS=OFF. Attribution is opt-in
// (RFIDSIM_OBS=prof, --attribution-dump, or set_attribution_enabled), and
// so is tracing, so default runs pay only the disabled-hook loads, held
// under the <1% microbench budget.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace rfidsim::obs::prof {

/// The fixed stage vocabulary. A closed enum (not free-form strings) keeps
/// the report order stable and the hot-path marker a couple of array
/// indexes.
enum class Phase : std::uint8_t {
  kPathEval = 0,       ///< BatchPathEvaluator::evaluate_all per antenna round.
  kPortalSim = 1,      ///< PortalSimulator::run and run_single_round outside
                       ///< the named children.
  kGen2Inventory = 2,  ///< InventoryEngine::run_round per reader round.
  kEventLogAppend = 3, ///< Singulation results appended to the event log.
  kStoreRoute = 4,     ///< TrackingStore ingest phase 1 (shard routing).
  kStoreMerge = 5,     ///< TrackingStore ingest phase 2 (shard merge).
  kGen2Fusion = 6,     ///< SessionFusion estimate over per-session read sets.
  kFeedPass = 7,       ///< FacilityFeed::process_pass outside the children.
  kStoreIngest = 8,    ///< TrackingStore::ingest outside route and merge.
  kCheckpointWrite = 9,    ///< Checkpointer::write.
  kCheckpointRestore = 10, ///< restore_checkpoint.
  kQueryMissing = 11,  ///< QueryService::missing.
  kUploadWire = 12,    ///< EventUploader::upload_wire.
  kTrackIngest = 13,   ///< ResilientIngest::ingest / ingest_validated.
  kStoreDigest = 14,   ///< TrackingStore::digest.
  kWireCodec = 15,     ///< upload_wire's frame encode and each strict decode.
  kQueryLocate = 16,   ///< QueryService::locate (tag and object).
  kQueryInventory = 17, ///< QueryService::inventory.
  kQueryModel = 18,    ///< QueryService::set_facility_model.
  kFeedMonitor = 19,   ///< FacilityFeed::process_pass's monitor observations.
};
inline constexpr std::size_t kPhaseCount = 20;

/// Stable lower-snake name ("path_eval", "portal_sim", ...).
const char* phase_name(Phase phase);

namespace detail {
std::atomic<bool>& attribution_flag();
}  // namespace detail

/// True when ScopedPhase should record: attribution was opted into AND obs
/// hooks are on. One relaxed load each; constant false when compiled out.
inline bool attribution_hooks_enabled() {
#ifdef RFIDSIM_OBS_DISABLED
  return false;
#else
  return detail::attribution_flag().load(std::memory_order_relaxed) &&
         hooks_enabled();
#endif
}

bool attribution_enabled();
void set_attribution_enabled(bool on);

/// RAII phase marker. Maintains a per-thread phase stack. When
/// attributing, the elapsed wall time since the last stack transition is
/// charged on entry to the enclosing phase (self-time accounting), on exit
/// to this phase. When tracing, exit records one span at the marker's
/// stack depth. Each switch is read once, at construction.
class ScopedPhase {
 public:
  /// Out of line on purpose: with the switch checks inlined into every
  /// marked round loop, pipebench's portal_fleet ran ~7% fewer passes/s.
  explicit ScopedPhase(Phase phase);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool attributing_ = false;
  bool tracing_ = false;
  std::uint32_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Accumulated totals of one phase since the last reset.
struct PhaseTotals {
  std::uint64_t calls = 0;   ///< ScopedPhase entries (deterministic).
  double self_seconds = 0.0; ///< Exclusive wall time (machine-dependent).
};

PhaseTotals phase_totals(Phase phase);

/// Zeroes every phase's totals.
void reset_attribution();

/// Publishes the totals as labelled registry metrics:
/// obs.attribution.phase_calls{phase="..."} (counter-valued gauge) and
/// obs.attribution.self_seconds{phase="..."}.
void publish_attribution_metrics();

/// Human-readable report: one row per phase (calls, self seconds, share of
/// the phase-covered total) plus the derived stage groups the ROADMAP
/// argues about — portal simulation (portal_sim + gen2_inventory +
/// event_log_append + gen2_fusion), path evaluation, and store merge
/// (store_route + store_merge).
void write_attribution_report(std::ostream& out);

/// The same report as one JSON object ('\n'-terminated), deterministic key
/// order; seconds/shares are wall-clock fields, calls are deterministic.
void write_attribution_json(std::ostream& out);

/// Writes the JSON report to `path` atomically (tmp + rename). Returns
/// false if the file could not be written.
bool dump_attribution(const std::string& path);

}  // namespace rfidsim::obs::prof
