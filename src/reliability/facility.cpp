#include "reliability/facility.hpp"

#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "reliability/estimator.hpp"
#include "sweep/sweep.hpp"
#include "track/tracking.hpp"

namespace rfidsim::reliability {

FacilitySimulator::FacilitySimulator(std::vector<FacilityCheckpoint> route,
                                     ShipmentSpec shipment,
                                     CalibrationProfile calibration)
    : route_(std::move(route)),
      shipment_(std::move(shipment)),
      calibration_(std::move(calibration)) {
  require(!route_.empty(), "FacilitySimulator: route needs at least one checkpoint");
  require(!shipment_.tag_faces.empty(),
          "FacilitySimulator: shipment needs at least one tag per case");
}

FacilityRun FacilitySimulator::run_shipment(std::uint64_t seed, std::size_t threads) const {
  FacilityRun run;
  run.observations.checkpoint_count = route_.size();
  run.observations.detected.resize(route_.size());

  // Checkpoints are independent sweep cells: cell k derives its generator
  // as sweep::cell_rng(seed, k) — the same Rng(seed).fork(k) the serial
  // loop always used — and writes only slot k, so any thread count yields
  // the identical shipment trace.
  std::vector<std::size_t> case_counts(route_.size(), 0);
  sweep::parallel_for(
      route_.size(), threads, [&](std::size_t k) {
        ObjectScenarioOptions opt;
        opt.tag_faces = shipment_.tag_faces;
        opt.tag_design = shipment_.tag_design;
        opt.portal = route_[k].portal;
        opt.speed_mps = route_[k].speed_mps;
        const Scenario sc = make_object_tracking_scenario(opt, calibration_);
        case_counts[k] = sc.registry.object_count();

        sys::PortalSimulator sim(sc.scene, sc.portal);
        Rng rng = sweep::cell_rng(seed, k);
        const sys::EventLog log = sim.run(rng);
        const track::TrackingAnalyzer analyzer(sc.registry);
        run.observations.detected[k] = analyzer.analyze(log).objects_identified;
      });
  run.case_count = case_counts.back();
  compute_metrics(run);
  return run;
}

FacilityRun FacilitySimulator::clean_with_route_constraint(const FacilityRun& raw) {
  FacilityRun cleaned = raw;
  cleaned.observations = track::apply_route_constraint(raw.observations).corrected;
  compute_metrics(cleaned);
  return cleaned;
}

void FacilitySimulator::compute_metrics(FacilityRun& run) {
  const std::size_t checkpoints = run.observations.checkpoint_count;
  if (checkpoints == 0 || run.case_count == 0) return;

  // Union of all objects ever seen defines the case universe (identical
  // across checkpoints since it is the same shipment).
  std::unordered_set<track::ObjectId> universe;
  for (const auto& detected : run.observations.detected) {
    universe.insert(detected.begin(), detected.end());
  }

  std::size_t full_traces = 0;
  std::size_t cells = 0;
  for (const auto& obj : universe) {
    bool everywhere = true;
    for (const auto& detected : run.observations.detected) {
      if (detected.contains(obj)) {
        ++cells;
      } else {
        everywhere = false;
      }
    }
    if (everywhere) ++full_traces;
  }

  const double n = static_cast<double>(run.case_count);
  run.full_trace_fraction = static_cast<double>(full_traces) / n;
  run.delivered_fraction =
      static_cast<double>(run.observations.detected.back().size()) / n;
  run.cell_coverage =
      static_cast<double>(cells) / (n * static_cast<double>(checkpoints));
}

}  // namespace rfidsim::reliability
