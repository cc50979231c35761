// rfidsim::fleet — tracking queries over the custody store.
//
// The three questions a tracking application actually asks, answered from
// TrackingStore timelines plus each facility's reliability model:
//
//   locate(object, t)      Where was this object at time t? The latest
//                          sighting at or before t wins, with a confidence
//                          from the facility's R_C = 1 - prod(1 - P_r)
//                          over its live readers (paper §4, composed from
//                          the monitor's windowed per-reader read rates).
//   inventory(facility, t) Which objects' last known location at t is
//                          this facility?
//   missing(manifest, ...) Manifest reconciliation: each expected object
//                          not sighted in the pass window is classified
//                          "probably missed read" vs "probably absent" by
//                          a likelihood-ratio test built on the §4 model:
//                          P(no reads | present) = 1 - R_C, against
//                          P(no reads | absent) = 1, weighted by a custody
//                          prior (an object seen upstream minutes ago is
//                          far more likely to be a missed read than one no
//                          facility has ever sighted). This is the
//                          Jacobsen-style merge of evidence across
//                          independent reader sessions: the analytical
//                          model supplies the likelihood, the cross-
//                          facility timeline supplies the prior.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "fleet/store.hpp"
#include "track/manifest.hpp"
#include "track/registry.hpp"

namespace rfidsim::fleet {

/// Per-facility reliability inputs, refreshed from that facility feed's
/// online monitor after every pass. Rates are object-level per-reader read
/// probabilities (the monitor's windowed objects_seen / objects_total).
struct FacilityModel {
  std::vector<double> reader_read_rates;
  /// Readers currently declared alive; a reader the ingest stage declared
  /// down contributes no read opportunity (degraded-mode masking, exactly
  /// as reliability::expected_reliability_grid_degraded masks columns).
  std::vector<bool> reader_live;

  /// R_C = 1 - prod over live readers of (1 - P_r); 0 with no live
  /// readers (no opportunities, no tracking).
  double identification_rc() const;
};

struct QueryConfig {
  /// How far back a sighting anywhere in the fleet counts as custody
  /// evidence for the missed-read prior.
  double custody_horizon_s = 600.0;
  /// Prior P(present) for an expected object with custody evidence inside
  /// the horizon, and for one no facility has ever sighted.
  double prior_present_seen = 0.9;
  double prior_present_unseen = 0.2;
  /// Posterior P(present | no reads) at or above which the verdict is
  /// "probably missed read" rather than "probably absent".
  double decision_threshold = 0.5;
};

/// Answer to locate(): the last known position at the query time.
struct LocateResult {
  bool found = false;
  FacilityId facility = 0;
  double time_s = 0.0;      ///< Time of the winning sighting.
  double confidence = 0.0;  ///< Identification R_C of that facility.
};

/// Verdict for one manifest-expected object.
enum class MissingVerdict {
  kPresent,            ///< Sighted at the facility in the window.
  kProbablyMissedRead, ///< Not sighted, but the model says the portal
                       ///< plausibly missed it (low R_C / degraded).
  kProbablyAbsent,     ///< Not sighted, and a healthy portal would almost
                       ///< surely have seen it.
};

const char* missing_verdict_name(MissingVerdict verdict);

/// One reconciled manifest entry.
struct Reconciliation {
  track::ObjectId object;
  MissingVerdict verdict = MissingVerdict::kPresent;
  double miss_probability = 0.0;    ///< P(no reads | present) = 1 - R_C.
  double posterior_present = 0.0;   ///< P(present | no reads) under the prior.
  bool custody_evidence = false;    ///< Sighted somewhere inside the horizon.
};

/// Full reconciliation of one manifest against one pass window.
struct MissingReport {
  std::vector<Reconciliation> items;          ///< Expected objects, id-ascending.
  std::vector<track::ObjectId> present;
  std::vector<track::ObjectId> missed_reads;
  std::vector<track::ObjectId> absent;
  std::vector<track::ObjectId> unexpected;    ///< Sighted, not on the manifest.
};

/// Read-only query layer. References the store and registry; both must
/// outlive the service. Facility models are supplied by the caller
/// (FleetService refreshes them from each feed's monitor).
class QueryService {
 public:
  QueryService(const TrackingStore& store, const track::ObjectRegistry& registry,
               QueryConfig config = {});

  /// Installs/replaces the reliability model of one facility. Any id is
  /// valid; memory grows with the number of facilities, not with the id.
  void set_facility_model(FacilityId facility, FacilityModel model);
  /// The facility's model, or nullptr when none was set. The pointer is
  /// valid until the next set_facility_model call.
  const FacilityModel* facility_model(FacilityId facility) const;

  /// Latest sighting of the tag (or of any of the object's tags) at or
  /// before t. Object-level: the newest sighting across tags wins.
  LocateResult locate(scene::TagId tag, double t) const;
  LocateResult locate(track::ObjectId object, double t) const;

  /// Objects whose last known location at t is `facility`, id-ascending.
  std::vector<track::ObjectId> inventory(FacilityId facility, double t) const;

  /// Reconciles `manifest` against the sightings of one pass window at
  /// one facility (see file header for the decision rule).
  MissingReport missing(const track::Manifest& manifest, FacilityId facility,
                        double window_begin_s, double window_end_s) const;

  const QueryConfig& config() const { return config_; }

 private:
  using ModelEntry = std::pair<FacilityId, FacilityModel>;

  /// Newest sighting over the object's tags at or before t (confidence
  /// left 0). On a time tie the first tag in tags_of order wins. locate,
  /// inventory and missing's custody prior all answer from it.
  LocateResult newest_sighting(track::ObjectId object, double t) const;

  /// Any sighting of the object's tags at `facility` within [begin, end]?
  bool sighted_at(track::ObjectId object, FacilityId facility, double begin_s,
                  double end_s) const;

  const TrackingStore& store_;
  const track::ObjectRegistry& registry_;
  QueryConfig config_;
  /// Ascending by facility id, found by binary search: memory follows the
  /// number of facilities (FleetService ids are dense and few), not the
  /// largest id, as a vector indexed by id would.
  std::vector<ModelEntry> models_;
};

}  // namespace rfidsim::fleet
