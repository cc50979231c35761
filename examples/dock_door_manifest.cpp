// Dock-door manifest verification: where read reliability becomes money.
//
// Paper §2: the back end "implements the logic and actions for when a tag
// is identified ... updating a database, or ... integrated management and
// monitoring for shipment tracking." The concrete action at a dock door is
// comparing each departing shipment against its advance shipping notice
// (the manifest). A missed read on a case that IS on the truck produces a
// false "short shipment" exception — a worker walks the dock, scans by
// hand, the truck waits. This example measures that exception rate per
// redundancy scheme, plus the CSV trace hand-off middleware would archive.
#include <cstdio>
#include <unordered_set>

#include "common/table.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "system/event_io.hpp"
#include "track/manifest.hpp"
#include "track/tracking.hpp"

using namespace rfidsim;
using namespace rfidsim::reliability;

int main() {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  constexpr std::uint64_t kSeed = 606;
  constexpr std::size_t kShipments = 40;

  std::printf(
      "Exception rates over %zu shipments (12 cases each, all actually on\n"
      "the truck — every 'short' exception is false):\n\n",
      kShipments);

  TextTable t({"scheme", "clean shipments", "avg cases flagged short",
               "worker walks per 100 trucks"});
  const struct {
    const char* label;
    std::vector<scene::BoxFace> faces;
    std::size_t antennas;
  } schemes[] = {
      {"1 tag (front), 1 antenna", {scene::BoxFace::Front}, 1},
      {"1 tag (front), 2 antennas", {scene::BoxFace::Front}, 2},
      {"2 tags, 1 antenna", {scene::BoxFace::Front, scene::BoxFace::SideNear}, 1},
      {"2 tags, 2 antennas", {scene::BoxFace::Front, scene::BoxFace::SideNear}, 2},
  };

  for (const auto& scheme : schemes) {
    ObjectScenarioOptions opt;
    opt.tag_faces = scheme.faces;
    opt.portal.antenna_count = scheme.antennas;
    const Scenario sc = make_object_tracking_scenario(opt, cal);
    const track::TrackingAnalyzer analyzer(sc.registry);

    track::Manifest manifest;
    manifest.expected.insert(sc.registry.objects().begin(), sc.registry.objects().end());

    const RepeatedRuns runs = run_repeated_parallel(sc, kShipments, kSeed);
    std::size_t clean = 0;
    std::size_t short_cases = 0;
    for (const auto& log : runs.logs) {
      const auto report = track::verify_manifest(manifest, analyzer.analyze(log));
      if (report.complete()) ++clean;
      short_cases += report.missing.size();
    }
    const double walks_per_100 =
        100.0 * (1.0 - static_cast<double>(clean) / kShipments);
    t.add_row({scheme.label,
               std::to_string(clean) + "/" + std::to_string(kShipments),
               fixed_str(static_cast<double>(short_cases) / kShipments, 1),
               fixed_str(walks_per_100, 0)});
  }
  std::fputs(t.render().c_str(), stdout);

  // The archival hand-off: one shipment's raw trace as middleware CSV.
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  opt.portal.antenna_count = 2;
  const Scenario sc = make_object_tracking_scenario(opt, cal);
  const RepeatedRuns one = run_repeated_parallel(sc, 1, kSeed);
  const std::string csv = sys::to_csv(one.logs[0]);
  std::printf("\nArchived trace for one shipment (%zu events), first lines:\n",
              one.logs[0].size());
  std::printf("%.*s...\n", 200, csv.c_str());
  return 0;
}
