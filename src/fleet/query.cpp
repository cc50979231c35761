#include "fleet/query.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/attribution.hpp"

namespace rfidsim::fleet {

double FacilityModel::identification_rc() const {
  double product = 1.0;
  bool any = false;
  for (std::size_t r = 0; r < reader_read_rates.size(); ++r) {
    if (r < reader_live.size() && !reader_live[r]) continue;
    const double p = std::clamp(reader_read_rates[r], 0.0, 1.0);
    product *= 1.0 - p;
    any = true;
  }
  return any ? 1.0 - product : 0.0;
}

const char* missing_verdict_name(MissingVerdict verdict) {
  switch (verdict) {
    case MissingVerdict::kPresent: return "present";
    case MissingVerdict::kProbablyMissedRead: return "missed_read";
    case MissingVerdict::kProbablyAbsent: return "absent";
  }
  return "?";
}

QueryService::QueryService(const TrackingStore& store,
                           const track::ObjectRegistry& registry, QueryConfig config)
    : store_(store), registry_(registry), config_(config) {
  require(config_.custody_horizon_s >= 0.0,
          "QueryService: custody horizon must be non-negative");
  require(config_.prior_present_seen > 0.0 && config_.prior_present_seen < 1.0 &&
              config_.prior_present_unseen > 0.0 && config_.prior_present_unseen < 1.0,
          "QueryService: priors must lie strictly inside (0, 1)");
  require(config_.decision_threshold > 0.0 && config_.decision_threshold < 1.0,
          "QueryService: decision threshold must lie strictly inside (0, 1)");
}

void QueryService::set_facility_model(FacilityId facility, FacilityModel model) {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kQueryModel);
  const auto it = std::ranges::lower_bound(models_, facility, {}, &ModelEntry::first);
  if (it != models_.end() && it->first == facility) {
    it->second = std::move(model);
  } else {
    models_.emplace(it, facility, std::move(model));
  }
}

const FacilityModel* QueryService::facility_model(FacilityId facility) const {
  const auto it = std::ranges::lower_bound(models_, facility, {}, &ModelEntry::first);
  return it != models_.end() && it->first == facility ? &it->second : nullptr;
}

LocateResult QueryService::newest_sighting(track::ObjectId object, double t) const {
  LocateResult best;
  for (const scene::TagId tag : registry_.tags_of(object)) {
    const auto sighting = store_.last_sighting_at(tag, t);
    if (!sighting.has_value()) continue;
    if (!best.found || sighting->time_s > best.time_s) {
      best.found = true;
      best.facility = sighting->facility;
      best.time_s = sighting->time_s;
    }
  }
  return best;
}

LocateResult QueryService::locate(scene::TagId tag, double t) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kQueryLocate);
  LocateResult out;
  const auto sighting = store_.last_sighting_at(tag, t);
  if (!sighting.has_value()) return out;
  out.found = true;
  out.facility = sighting->facility;
  out.time_s = sighting->time_s;
  if (const FacilityModel* model = facility_model(sighting->facility)) {
    out.confidence = model->identification_rc();
  }
  return out;
}

LocateResult QueryService::locate(track::ObjectId object, double t) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kQueryLocate);
  LocateResult best = newest_sighting(object, t);
  if (best.found) {
    if (const FacilityModel* model = facility_model(best.facility)) {
      best.confidence = model->identification_rc();
    }
  }
  return best;
}

std::vector<track::ObjectId> QueryService::inventory(FacilityId facility,
                                                     double t) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kQueryInventory);
  std::vector<track::ObjectId> out;
  for (const track::ObjectId object : registry_.objects()) {
    const LocateResult at = newest_sighting(object, t);
    if (at.found && at.facility == facility) out.push_back(object);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool QueryService::sighted_at(track::ObjectId object, FacilityId facility,
                              double begin_s, double end_s) const {
  for (const scene::TagId tag : registry_.tags_of(object)) {
    const std::vector<Sighting>* tl = store_.timeline(tag);
    if (tl == nullptr) continue;
    const Sighting probe{begin_s, 0, 0, 0};
    for (auto it = std::lower_bound(tl->begin(), tl->end(), probe,
                                    [](const Sighting& a, const Sighting& b) {
                                      return a.time_s < b.time_s;
                                    });
         it != tl->end() && it->time_s <= end_s; ++it) {
      if (it->facility == facility) return true;
    }
  }
  return false;
}

MissingReport QueryService::missing(const track::Manifest& manifest,
                                    FacilityId facility, double window_begin_s,
                                    double window_end_s) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kQueryMissing);
  require(window_end_s >= window_begin_s, "QueryService: inverted pass window");

  MissingReport report;
  // Expected objects, id-ascending for deterministic reporting.
  std::vector<track::ObjectId> expected(manifest.expected.begin(),
                                        manifest.expected.end());
  std::sort(expected.begin(), expected.end());

  const FacilityModel* model = facility_model(facility);
  const double rc = model != nullptr ? model->identification_rc() : 0.0;
  const double p_miss = 1.0 - rc;

  for (const track::ObjectId object : expected) {
    Reconciliation item;
    item.object = object;
    item.miss_probability = p_miss;
    if (sighted_at(object, facility, window_begin_s, window_end_s)) {
      item.verdict = MissingVerdict::kPresent;
      item.posterior_present = 1.0;
      item.custody_evidence = true;
      report.present.push_back(object);
    } else {
      // Custody prior: was the object sighted anywhere in the fleet inside
      // the horizon before the window closed?
      const LocateResult last = newest_sighting(object, window_end_s);
      item.custody_evidence =
          last.found && last.time_s >= window_end_s - config_.custody_horizon_s;
      const double prior = item.custody_evidence ? config_.prior_present_seen
                                                 : config_.prior_present_unseen;
      // Likelihood ratio P(no reads | present) / P(no reads | absent) is
      // p_miss / 1; fold into the prior odds.
      const double odds = prior / (1.0 - prior) * p_miss;
      item.posterior_present = odds / (1.0 + odds);
      item.verdict = item.posterior_present >= config_.decision_threshold
                         ? MissingVerdict::kProbablyMissedRead
                         : MissingVerdict::kProbablyAbsent;
      (item.verdict == MissingVerdict::kProbablyMissedRead ? report.missed_reads
                                                           : report.absent)
          .push_back(object);
    }
    report.items.push_back(item);
  }

  // Unexpected: inventoried in the window at this facility, not expected.
  for (const track::ObjectId object : registry_.objects()) {
    if (manifest.expected.count(object) != 0) continue;
    if (sighted_at(object, facility, window_begin_s, window_end_s)) {
      report.unexpected.push_back(object);
    }
  }
  std::sort(report.unexpected.begin(), report.unexpected.end());
  return report;
}

}  // namespace rfidsim::fleet
