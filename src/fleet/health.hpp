// rfidsim::fleet — the fleet health surface.
//
// One structured document answering "is the backend healthy, and if not,
// which facility and why": per-facility freshness watermarks and stall
// state, reliability-monitor alert tallies, wire-corruption and quarantine
// depths, and the store's ingest stats, aggregated fleet-wide. Built by
// FleetService::health_snapshot() from state that is always maintained
// (feed totals, monitor alerts, store stats are all pure arithmetic), so
// the snapshot is available — and identical — whether obs hooks are on,
// off, or compiled out.
//
// write_health_json serializes the snapshot as one JSON object
// (dashboards, test assertions). It is deterministic: facilities
// ascending, fixed key order, fixed float formatting. Scrape endpoints
// read the obs registry's exposition (MetricsRegistry::write_exposition).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "fleet/feed.hpp"
#include "fleet/store.hpp"
#include "obs/monitor.hpp"

namespace rfidsim::fleet {

/// One facility's row in the fleet health document.
struct FacilityHealth {
  FacilityId facility = 0;
  std::uint64_t passes = 0;
  /// Event-time low-watermark (max event time fully merged); -1 until the
  /// facility has merged anything.
  double watermark_s = -1.0;
  /// Last pass window end minus the watermark; infinity until anything
  /// merges (JSON writes -1 for non-finite).
  double watermark_age_s = 0.0;
  bool watermark_stalled = false;
  std::uint64_t watermark_stall_streak = 0;
  double observed_rc = 0.0;   ///< Monitor's windowed portal read rate.
  double predicted_rc = 0.0;  ///< Composed per-reader prediction.
  std::uint64_t alerts_total = 0;
  /// Alert counts indexed by obs::AlertType.
  std::array<std::uint64_t, obs::kAlertTypeCount> alerts_by_type{};
  FeedTotals totals;
};

/// The whole backend's health at one instant.
struct FleetHealth {
  std::size_t facilities = 0;
  std::size_t tags = 0;       ///< Distinct EPCs the store has sighted.
  std::size_t sightings = 0;  ///< Stored sightings across all timelines.
  StoreStats store;
  std::uint64_t alerts_total = 0;       ///< Sum over facilities.
  std::size_t stalled_facilities = 0;   ///< Currently watermark-stalled.
  /// Min per-facility watermark: the fleet-wide freshness floor. -1 when
  /// any facility (or the whole fleet) has merged nothing yet.
  double min_watermark_s = -1.0;
  /// Observability self-health: is the telemetry pipeline itself losing
  /// data, and can the crash black box reach the disk? Populated from the
  /// process-wide obs counters; all-zero under -DRFIDSIM_OBS=OFF. Only
  /// mode-invariant tallies appear here — the snapshot stays byte-identical
  /// whether hooks are on or off, like every other field.
  std::uint64_t provenance_dropped = 0;    ///< Provenance ring-wrap losses.
  std::uint64_t flight_dump_attempts = 0;  ///< Explicit flight dumps tried.
  std::uint64_t flight_dump_failures = 0;  ///< ...that failed to be written.
  bool crash_handler_installed = false;
  std::vector<FacilityHealth> per_facility;  ///< Ascending by facility id.
};

/// One JSON object, '\n'-terminated. Non-finite doubles are written as -1.
void write_health_json(std::ostream& out, const FleetHealth& health);

}  // namespace rfidsim::fleet
