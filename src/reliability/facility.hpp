// Facility simulation: a shipment's whole journey, portal by portal.
//
// The paper's introduction frames the application: "RFID systems are
// employed to track shipments and manage supply-chains", with back ends
// doing "integrated management and monitoring for shipment tracking".
// FacilitySimulator composes the single-portal machinery into that system:
// one shipment (the Table-1 cart) passes a sequence of checkpoints, each
// with its own portal configuration (redundancy differs between a dock
// door and a cheap aisle reader), producing the per-checkpoint detection
// matrix the route/accompany cleaners (track/cleaning.hpp) operate on and
// the end-to-end visibility metrics a logistics operator actually reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "reliability/scenarios.hpp"
#include "track/cleaning.hpp"

namespace rfidsim::reliability {

/// One read point along the route.
struct FacilityCheckpoint {
  std::string name;
  PortalOptions portal{};
  /// Shipment speed through this checkpoint (dock forklifts move faster
  /// than inbound conveyors).
  double speed_mps = 1.0;
};

/// What the shipment carries (shared by every checkpoint).
struct ShipmentSpec {
  /// Tag placement on every case, as in the object-tracking scenarios.
  std::vector<scene::BoxFace> tag_faces = {scene::BoxFace::Front};
  rf::TagDesign tag_design{};
};

/// The outcome of one shipment traversing the whole route.
struct FacilityRun {
  /// Raw per-checkpoint detections (indexable by the cleaners).
  track::RouteObservations observations;
  /// Case count of the shipment.
  std::size_t case_count = 0;
  /// Fraction of cases detected at every checkpoint (raw).
  double full_trace_fraction = 0.0;
  /// Fraction of cases detected at the final checkpoint (delivery proof).
  double delivered_fraction = 0.0;
  /// Fraction of (case, checkpoint) cells detected (raw read coverage).
  double cell_coverage = 0.0;
};

/// Simulates shipments through a fixed route.
class FacilitySimulator {
 public:
  /// Throws ConfigError on an empty route.
  FacilitySimulator(std::vector<FacilityCheckpoint> route, ShipmentSpec shipment,
                    CalibrationProfile calibration);

  /// Runs one shipment end to end, checkpoints spread across the sweep
  /// engine (`threads` = 0 uses hardware concurrency, 1 forces serial).
  /// Deterministic per seed: each checkpoint's randomness is a pure
  /// function of (seed, checkpoint index), so the result is byte-identical
  /// at any thread count.
  FacilityRun run_shipment(std::uint64_t seed, std::size_t threads = 0) const;

  /// Applies the route constraint to a run's observations and recomputes
  /// the metrics (the back-end's cleaned view).
  static FacilityRun clean_with_route_constraint(const FacilityRun& raw);

  const std::vector<FacilityCheckpoint>& route() const { return route_; }

 private:
  /// Recomputes the derived fractions from `observations`.
  static void compute_metrics(FacilityRun& run);

  std::vector<FacilityCheckpoint> route_;
  ShipmentSpec shipment_;
  CalibrationProfile calibration_;
};

}  // namespace rfidsim::reliability
