#include "track/resilient_ingest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/radix_sort.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"

namespace rfidsim::track {

namespace {

/// A (tag, reader, antenna) read stream; unused fields stay 0, so one key
/// type also serves the distinct-tag and distinct-(tag, reader) sets.
struct StreamKey {
  std::uint64_t tag = 0;
  std::size_t reader = 0;
  std::size_t antenna = 0;

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

/// The distinct keys of one pass, numbered densely in first-seen order.
/// Open addressing with linear probing over slot + 1 entries (0 = empty),
/// SplitMix64-mixed home slot: the scheme of the store's shard index.
/// Sized once for the pass's record count at load <= 0.5, so it never
/// rehashes.
class StreamIndex {
 public:
  explicit StreamIndex(std::size_t max_keys)
      : index_(std::bit_ceil(2 * max_keys + 1), 0) {
    keys_.reserve(max_keys);
  }

  /// Dense number of `key`, and whether this call added it.
  std::pair<std::size_t, bool> find_or_add(const StreamKey& key) {
    const std::size_t mask = index_.size() - 1;
    std::size_t h = static_cast<std::size_t>(
                        splitmix64(key.tag ^ (key.reader * 0x9e3779b97f4a7c15ULL) ^
                                   (key.antenna * 0xc2b2ae3d27d4eb4fULL))) &
                    mask;
    while (index_[h] != 0) {
      if (keys_[index_[h] - 1] == key) return {index_[h] - 1, false};
      h = (h + 1) & mask;
    }
    keys_.push_back(key);
    index_[h] = static_cast<std::uint32_t>(keys_.size());
    return {keys_.size() - 1, true};
  }

  std::size_t size() const { return keys_.size(); }

 private:
  std::vector<std::uint32_t> index_;
  std::vector<StreamKey> keys_;
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
  // Pass 1 — validate each record on its own (validate_event holds the
  // rules).
  IngestReport report;
  sys::EventLog valid;
  valid.reserve(raw.size());
  std::string reason;
  for (const sys::ReadEvent& ev : raw) {
    if (validate_event(ev, config_, window_begin_s, window_end_s, &reason)) {
      valid.push_back(ev);
      continue;
    }
    ++report.quarantined;
    if (report.quarantine_samples.size() < IngestReport::kMaxQuarantineSamples) {
      report.quarantine_samples.push_back(reason);
    }
  }
  return finish(std::move(report), std::move(valid), window_begin_s, window_end_s);
}

IngestReport ResilientIngest::ingest_validated(sys::EventLog valid, double window_begin_s,
                                               double window_end_s) const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kTrackIngest);
  return finish(IngestReport{}, std::move(valid), window_begin_s, window_end_s);
}

IngestReport ResilientIngest::finish(IngestReport report, sys::EventLog valid,
                                     double window_begin_s, double window_end_s) const {
  require(window_end_s >= window_begin_s, "ResilientIngest: inverted pass window");

  // Count arrival-order inversions against the highest time seen so far.
  // None means the records already arrived in time order.
  double high_water = -std::numeric_limits<double>::infinity();
  for (const sys::ReadEvent& ev : valid) {
    if (ev.time_s < high_water) ++report.reordered;
    high_water = std::max(high_water, ev.time_s);
  }

  // Pass 2 — restore chronological order: rank the records by time,
  // stably, so equal times (-0.0 and +0.0 among them) keep arrival order.
  // Validation has refused NaN, the one time with no rank.
  const std::size_t n = valid.size();
  std::vector<RadixItem> by_time(n);
  for (std::size_t i = 0; i < n; ++i) by_time[i] = {radix_key(valid[i].time_s), i};
  if (report.reordered > 0) radix_sort(by_time);

  // Then collapse transport duplicates in one walk of the ranks: a read is
  // a duplicate iff it lies within the window of its (tag, reader,
  // antenna) stream's last *accepted* read.
  StreamIndex streams(n);
  std::vector<double> last_accepted;  // Per stream, by dense number.
  last_accepted.reserve(n);
  report.events.reserve(n);
  for (const RadixItem& rank : by_time) {
    const sys::ReadEvent& ev = valid[rank.index];
    const double t = ev.time_s;
    const auto [stream, added] =
        streams.find_or_add({ev.tag.value, ev.reader_index, ev.antenna_index});
    if (added) {
      last_accepted.push_back(t);
    } else if (t - last_accepted[stream] <= config_.dedup_window_s) {
      ++report.duplicates;
      continue;
    } else {
      last_accepted[stream] = t;
    }
    report.events.push_back(ev);
  }
  report.accepted = report.events.size();

  // Pass 3 — per-reader silence scan over the accepted stream. A reader
  // we know exists (reader_count set) that never speaks is one long gap;
  // with the roster unknown, only the readers that spoke are scanned.
  std::vector<std::size_t> roster;
  if (config_.reader_count > 0) {
    roster.resize(config_.reader_count);
    std::iota(roster.begin(), roster.end(), std::size_t{0});
  } else {
    for (const sys::ReadEvent& ev : report.events) roster.push_back(ev.reader_index);
    std::sort(roster.begin(), roster.end());
    roster.erase(std::unique(roster.begin(), roster.end()), roster.end());
  }
  std::vector<double> cursor(roster.size(), window_begin_s);
  for (const sys::ReadEvent& ev : report.events) {
    const auto it = std::lower_bound(roster.begin(), roster.end(), ev.reader_index);
    if (it == roster.end() || *it != ev.reader_index) continue;
    double& last = cursor[static_cast<std::size_t>(it - roster.begin())];
    if (ev.time_s - last > config_.silence_gap_s) {
      report.gaps.push_back({ev.reader_index, last, ev.time_s, false});
    }
    last = ev.time_s;
  }
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (window_end_s - cursor[i] > config_.silence_gap_s) {
      report.gaps.push_back({roster[i], cursor[i], window_end_s, true});
      report.degraded_readers.push_back(roster[i]);
    }
  }
  // Per reader, interior gaps in time order, then the tail gap.
  std::stable_sort(report.gaps.begin(), report.gaps.end(),
                   [](const SilenceGap& a, const SilenceGap& b) { return a.reader < b.reader; });
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
                                         std::size_t objects_total) {
  obs::PassObservation out;
  out.objects_total = objects_total;
  out.readers.resize(reader_count);
  // Distinct tags, and distinct tags per reader: one flat set each.
  StreamIndex tags(report.events.size());
  StreamIndex tag_readers(report.events.size());
  for (const sys::ReadEvent& ev : report.events) {
    tags.find_or_add({ev.tag.value});
    if (ev.reader_index >= reader_count) continue;
    obs::ReaderPassObservation& reader = out.readers[ev.reader_index];
    ++reader.rounds;
    if (tag_readers.find_or_add({ev.tag.value, ev.reader_index}).second) ++reader.objects_seen;
  }
  out.objects_identified = std::min<std::uint64_t>(tags.size(), objects_total);
  for (obs::ReaderPassObservation& reader : out.readers) {
    reader.objects_seen = std::min<std::uint64_t>(reader.objects_seen, objects_total);
  }
  return out;
}

}  // namespace rfidsim::track
