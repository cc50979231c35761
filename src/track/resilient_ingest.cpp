#include "track/resilient_ingest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"

namespace rfidsim::track {

namespace {

/// Per-(tag, reader, antenna) key for transport-duplicate collapsing.
struct StreamKey {
  std::uint64_t tag;
  std::size_t reader;
  std::size_t antenna;
  auto operator<=>(const StreamKey&) const = default;
};

/// Ingest registry hooks: one aggregate add per digested pass.
void record_ingest_metrics(const IngestReport& report) {
  static const struct Metrics {
    obs::Counter& passes = obs::counter("track.ingest.passes");
    obs::Counter& accepted = obs::counter("track.ingest.accepted");
    obs::Counter& duplicates = obs::counter("track.ingest.duplicates");
    obs::Counter& quarantined = obs::counter("track.ingest.quarantined");
    obs::Counter& reordered = obs::counter("track.ingest.reordered");
    obs::Counter& gaps = obs::counter("track.ingest.silence_gaps");
    obs::Counter& degraded_readers = obs::counter("track.ingest.degraded_readers");
    obs::Counter& degraded_passes = obs::counter("track.ingest.degraded_passes");
  } m;
  m.passes.add(1);
  m.accepted.add(report.accepted);
  m.duplicates.add(report.duplicates);
  m.quarantined.add(report.quarantined);
  m.reordered.add(report.reordered);
  m.gaps.add(report.gaps.size());
  m.degraded_readers.add(report.degraded_readers.size());
  if (report.degraded()) m.degraded_passes.add(1);
}

}  // namespace

bool validate_event(const sys::ReadEvent& ev, const IngestConfig& config,
                    double window_begin_s, double window_end_s,
                    std::string* reason) {
  const auto reject = [reason](std::string text) {
    if (reason != nullptr) *reason = std::move(text);
    return false;
  };
  if (!std::isfinite(ev.time_s) || !std::isfinite(ev.rssi.value())) {
    return reject("non-finite time or rssi");
  }
  if (ev.time_s < window_begin_s || ev.time_s > window_end_s) {
    return reject("time " + std::to_string(ev.time_s) + " outside pass window");
  }
  if (ev.rssi.value() < config.min_rssi_dbm || ev.rssi.value() > config.max_rssi_dbm) {
    return reject("implausible rssi " + std::to_string(ev.rssi.value()) + " dBm");
  }
  if (config.reader_count > 0 && ev.reader_index >= config.reader_count) {
    return reject("reader index " + std::to_string(ev.reader_index) + " out of range");
  }
  if (config.antenna_count > 0 && ev.antenna_index >= config.antenna_count) {
    return reject("antenna index " + std::to_string(ev.antenna_index) +
                  " out of range");
  }
  if (config.registry != nullptr && !config.registry->object_of(ev.tag).has_value()) {
    return reject("unknown tag " + std::to_string(ev.tag.value));
  }
  return true;
}

ResilientIngest::ResilientIngest(IngestConfig config) : config_(std::move(config)) {
  require(config_.dedup_window_s >= 0.0,
          "ResilientIngest: dedup window must be non-negative");
  require(config_.silence_gap_s > 0.0,
          "ResilientIngest: silence gap threshold must be positive");
  require(config_.min_rssi_dbm < config_.max_rssi_dbm,
          "ResilientIngest: RSSI plausibility band is inverted");
}

IngestReport ResilientIngest::ingest(const sys::EventLog& raw, double window_begin_s,
                                     double window_end_s) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kTrackIngest);
  require(window_end_s >= window_begin_s, "ResilientIngest: inverted pass window");

  IngestReport report;
  auto quarantine = [&report](const std::string& reason) {
    ++report.quarantined;
    if (report.quarantine_samples.size() < IngestReport::kMaxQuarantineSamples) {
      report.quarantine_samples.push_back(reason);
    }
  };

  // Pass 1 — validate each record on its own (validate_event holds the
  // rules); count arrival-order inversions against the highest valid time
  // seen so far.
  sys::EventLog valid;
  valid.reserve(raw.size());
  double high_water = -std::numeric_limits<double>::infinity();
  std::string reason;
  for (const sys::ReadEvent& ev : raw) {
    if (!validate_event(ev, config_, window_begin_s, window_end_s, &reason)) {
      quarantine(reason);
      continue;
    }
    if (ev.time_s < high_water) ++report.reordered;
    high_water = std::max(high_water, ev.time_s);
    valid.push_back(ev);
  }

  // Pass 2 — restore chronological order, then collapse transport
  // duplicates per (tag, reader, antenna) stream.
  std::stable_sort(valid.begin(), valid.end(),
                   [](const sys::ReadEvent& a, const sys::ReadEvent& b) {
                     return a.time_s < b.time_s;
                   });
  std::map<StreamKey, double> last_accepted;
  for (const sys::ReadEvent& ev : valid) {
    const StreamKey key{ev.tag.value, ev.reader_index, ev.antenna_index};
    const auto it = last_accepted.find(key);
    if (it != last_accepted.end() && ev.time_s - it->second <= config_.dedup_window_s) {
      ++report.duplicates;
      continue;
    }
    last_accepted[key] = ev.time_s;
    report.events.push_back(ev);
  }
  report.accepted = report.events.size();

  // Pass 3 — per-reader silence scan over the accepted stream. A reader
  // we know exists (reader_count set) that never speaks is one long gap.
  const std::size_t reader_count =
      config_.reader_count > 0
          ? config_.reader_count
          : (report.events.empty()
                 ? 0
                 : 1 + std::max_element(report.events.begin(), report.events.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.reader_index < b.reader_index;
                                        })
                           ->reader_index);
  std::vector<std::vector<double>> times(reader_count);
  for (const sys::ReadEvent& ev : report.events) {
    times[ev.reader_index].push_back(ev.time_s);
  }
  for (std::size_t r = 0; r < reader_count; ++r) {
    double cursor = window_begin_s;
    for (double t : times[r]) {
      if (t - cursor > config_.silence_gap_s) {
        report.gaps.push_back({r, cursor, t, false});
      }
      cursor = t;
    }
    if (window_end_s - cursor > config_.silence_gap_s) {
      report.gaps.push_back({r, cursor, window_end_s, true});
      report.degraded_readers.push_back(r);
    }
  }
  if (obs::hooks_enabled()) record_ingest_metrics(report);
  return report;
}

IngestReport ResilientIngest::ingest_csv(std::istream& in, double window_begin_s,
                                         double window_end_s) const {
  sys::ParseStats parse;
  const sys::EventLog raw = sys::read_csv(in, sys::ParseMode::Lenient, &parse);
  IngestReport report = ingest(raw, window_begin_s, window_end_s);
  report.parse = std::move(parse);
  return report;
}

IngestReport ResilientIngest::ingest_csv(const std::string& csv,
                                         double window_begin_s,
                                         double window_end_s) const {
  std::istringstream in(csv);
  return ingest_csv(in, window_begin_s, window_end_s);
}

obs::PassObservation monitor_observation(const IngestReport& report,
                                         std::size_t reader_count,
                                         std::size_t objects_total,
                                         double window_begin_s, double window_end_s) {
  obs::PassObservation out;
  out.window_begin_s = window_begin_s;
  out.window_end_s = window_end_s;
  out.objects_total = objects_total;
  out.readers.resize(reader_count);
  std::set<std::uint64_t> all;
  std::vector<std::set<std::uint64_t>> per_reader(reader_count);
  for (const sys::ReadEvent& ev : report.events) {
    all.insert(ev.tag.value);
    if (ev.reader_index < reader_count) {
      per_reader[ev.reader_index].insert(ev.tag.value);
      ++out.readers[ev.reader_index].rounds;
    }
  }
  out.objects_identified = std::min<std::uint64_t>(all.size(), objects_total);
  for (std::size_t r = 0; r < reader_count; ++r) {
    out.readers[r].objects_seen =
        std::min<std::uint64_t>(per_reader[r].size(), objects_total);
  }
  return out;
}

}  // namespace rfidsim::track
