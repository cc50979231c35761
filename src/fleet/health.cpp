#include "fleet/health.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace rfidsim::fleet {

namespace {

/// Fixed 6-decimal formatting so snapshots diff cleanly; JSON has no
/// encoding for inf/nan, so non-finite collapses to the "unknown" sentinel.
void put_json_double(std::ostream& out, double x) {
  if (!std::isfinite(x)) {
    out << "-1";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", x);
  out << buf;
}

void put_totals_json(std::ostream& out, const FeedTotals& t) {
  out << "{\"delivered_batches\":" << t.delivered_batches
      << ",\"stored_events\":" << t.stored_events
      << ",\"quarantined_records\":" << t.quarantined_records
      << ",\"late_batches\":" << t.late_batches
      << ",\"lost_batches\":" << t.lost_batches
      << ",\"stale_batches\":" << t.stale_batches
      << ",\"frames_sent\":" << t.frames_sent
      << ",\"corrupt_frames\":" << t.corrupt_frames
      << ",\"recovered_batches\":" << t.recovered_batches
      << ",\"quarantined_batches\":" << t.quarantined_batches << "}";
}

}  // namespace

void write_health_json(std::ostream& out, const FleetHealth& health) {
  out << "{\"facilities\":" << health.facilities << ",\"tags\":" << health.tags
      << ",\"sightings\":" << health.sightings
      << ",\"alerts_total\":" << health.alerts_total
      << ",\"stalled_facilities\":" << health.stalled_facilities
      << ",\"min_watermark_s\":";
  put_json_double(out, health.min_watermark_s);
  out << ",\"store\":{\"batches\":" << health.store.batches
      << ",\"events\":" << health.store.events
      << ",\"accepted\":" << health.store.accepted
      << ",\"duplicates\":" << health.store.duplicates
      << ",\"repairs\":" << health.store.repairs
      << ",\"late_batches\":" << health.store.late_batches << "}"
      << ",\"obs\":{\"provenance_dropped\":" << health.provenance_dropped
      << ",\"flight_dump_attempts\":" << health.flight_dump_attempts
      << ",\"flight_dump_failures\":" << health.flight_dump_failures
      << ",\"crash_handler_installed\":"
      << (health.crash_handler_installed ? "true" : "false") << "}"
      << ",\"per_facility\":[";
  bool first = true;
  for (const FacilityHealth& f : health.per_facility) {
    if (!first) out << ",";
    first = false;
    out << "{\"facility\":" << f.facility << ",\"passes\":" << f.passes
        << ",\"watermark_s\":";
    put_json_double(out, f.watermark_s);
    out << ",\"watermark_age_s\":";
    put_json_double(out, f.watermark_age_s);
    out << ",\"watermark_stalled\":" << (f.watermark_stalled ? "true" : "false")
        << ",\"watermark_stall_streak\":" << f.watermark_stall_streak
        << ",\"observed_rc\":";
    put_json_double(out, f.observed_rc);
    out << ",\"predicted_rc\":";
    put_json_double(out, f.predicted_rc);
    out << ",\"alerts_total\":" << f.alerts_total << ",\"alerts\":{";
    for (std::size_t i = 0; i < obs::kAlertTypeCount; ++i) {
      if (i != 0) out << ",";
      out << "\"" << obs::alert_type_name(static_cast<obs::AlertType>(i))
          << "\":" << f.alerts_by_type[i];
    }
    out << "},\"totals\":";
    put_totals_json(out, f.totals);
    out << "}";
  }
  out << "]}\n";
}

}  // namespace rfidsim::fleet
