// Fleet tracking session: two facilities, one faulted reader.
//
// The paper's reliability model earns its keep at the moment a manifest
// does not reconcile: is the unread case missing, or did a degraded portal
// miss it? This example runs the full fleet stack on that question. Twelve
// cases are read at a dock door (both readers healthy), then the truck
// reaches the exit gate with one gate reader dead: eight cases are read,
// two are physically present but missed by the crippled portal, and two
// never made it onto the truck at all. One extra case that is not on the
// manifest rides along. locate() answers with a confidence from the gate's
// live R_C = 1 - prod(1 - P_r), and missing() separates "probably missed
// read" from "probably absent" by combining that R_C with each case's
// cross-facility custody evidence.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fleet/service.hpp"

using namespace rfidsim;

namespace {

sys::ReadEvent read_of(double t, std::uint64_t tag, std::size_t reader) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  return ev;
}

/// Every listed tag read `reps` times by every listed reader, spread
/// evenly across the pass window so no healthy reader looks silent.
sys::EventLog pass_log(const std::vector<std::uint64_t>& tags,
                       const std::vector<std::size_t>& readers, double begin_s,
                       double width_s, std::size_t reps = 2) {
  sys::EventLog log;
  const std::size_t count = tags.size() * readers.size() * reps;
  const double dt = (width_s - 0.2) / static_cast<double>(count);
  double t = begin_s + 0.1;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const std::uint64_t tag : tags) {
      for (const std::size_t reader : readers) {
        log.push_back(read_of(t, tag, reader));
        t += dt;
      }
    }
  }
  return log;
}

}  // namespace

int main() {
  // Thirteen tagged cases: 1..12 are due on the truck, 13 is a stray.
  track::ObjectRegistry registry;
  std::vector<track::ObjectId> cases;
  for (int i = 1; i <= 13; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "case-%02d", i);
    cases.push_back(registry.add_object(name));
    registry.bind_tag(scene::TagId{static_cast<std::uint64_t>(i)}, cases.back());
  }

  fleet::FleetService service(registry);
  fleet::FeedConfig dock_config;
  dock_config.ingest.reader_count = 2;
  dock_config.objects_total = 12;
  const fleet::FacilityId dock = service.add_facility(dock_config);
  const fleet::FacilityId gate = service.add_facility(dock_config);
  const char* facility_name[] = {"dock door", "exit gate"};

  Rng rng(2007);

  // Pass 1, dock door [0, 10]: cases 1..10 and the stray 13 cross with
  // both readers healthy. Cases 11 and 12 never arrive anywhere.
  std::vector<std::uint64_t> at_dock = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13};
  (void)service.ingest_pass(dock, pass_log(at_dock, {0, 1}, 0.0, 10.0), 0.0, 10.0,
                            rng);

  // Pass 2, exit gate [60, 70]: reader 1 is dead (cut cable). Reader 0
  // catches cases 1..8 and the stray; 9 and 10 are on the truck but missed.
  std::vector<std::uint64_t> seen_at_gate = {1, 2, 3, 4, 5, 6, 7, 8, 13};
  (void)service.ingest_pass(gate, pass_log(seen_at_gate, {0}, 60.0, 10.0), 60.0,
                            70.0, rng);

  const fleet::FacilityModel gate_model = service.feed(gate).model();
  std::printf("gate after pass: reader 0 rate %.2f (live), reader 1 %s; "
              "portal R_C = %.2f\n\n",
              gate_model.reader_read_rates[0],
              gate_model.reader_live[1] ? "live" : "DECLARED DOWN",
              gate_model.identification_rc());

  // --- locate: last known position with live confidence. -------------------
  TextTable where({"case", "located at", "sighted (s)", "confidence"});
  for (const std::uint64_t tag : {1ULL, 9ULL, 11ULL}) {
    const fleet::LocateResult r = service.query().locate(scene::TagId{tag}, 75.0);
    char time_s[32], conf[32];
    std::snprintf(time_s, sizeof time_s, r.found ? "%.1f" : "-", r.time_s);
    std::snprintf(conf, sizeof conf, r.found ? "%.2f" : "-", r.confidence);
    where.add_row({"case-" + std::to_string(tag),
                   r.found ? facility_name[r.facility] : "never sighted", time_s,
                   conf});
  }
  std::fputs(where.render().c_str(), stdout);
  std::printf("\n");

  // --- missing: reconcile the truck's manifest at the gate. ----------------
  track::Manifest manifest;
  for (int i = 0; i < 12; ++i) manifest.expected.insert(cases[i]);
  const fleet::MissingReport report =
      service.query().missing(manifest, gate, 60.0, 70.0);

  TextTable verdicts({"case", "verdict", "P(present|no read)", "custody evidence"});
  for (const fleet::Reconciliation& item : report.items) {
    char posterior[32];
    std::snprintf(posterior, sizeof posterior, "%.2f", item.posterior_present);
    verdicts.add_row({registry.name_of(item.object),
                      fleet::missing_verdict_name(item.verdict),
                      item.verdict == fleet::MissingVerdict::kPresent ? "-" : posterior,
                      item.custody_evidence ? "yes" : "no"});
  }
  std::fputs(verdicts.render().c_str(), stdout);

  std::printf("\nreconciliation: %zu read, %zu probably missed reads "
              "(walk the truck), %zu probably absent (call the dock), "
              "%zu unexpected\n",
              report.present.size(), report.missed_reads.size(),
              report.absent.size(), report.unexpected.size());
  for (const track::ObjectId object : report.unexpected) {
    std::printf("unexpected on the truck: %s\n", registry.name_of(object).c_str());
  }

  // The fleet health document an ops dashboard would read: per-facility
  // freshness watermarks, alert tallies, and transport depths in one JSON
  // object.
  std::printf("\nfleet health snapshot:\n");
  std::ostringstream health_json;
  fleet::write_health_json(health_json, service.health_snapshot());
  std::fputs(health_json.str().c_str(), stdout);
  return 0;
}
