#include "fleet/feed.hpp"

#include <string>
#include <utility>

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace rfidsim::fleet {

namespace {

/// Feed registry hooks: per-pass aggregates across all feeds, plus
/// per-facility wire-transport counters (the facility label is what lets
/// an operator see *which* uplink is rotting).
void record_feed_metrics(const FeedPassResult& result, FacilityId facility) {
  static const struct Metrics {
    obs::Counter& passes = obs::counter("fleet.feed.passes");
    obs::Counter& batches = obs::counter("fleet.feed.batches");
    obs::Counter& quarantined = obs::counter("fleet.feed.quarantined");
    obs::Counter& late = obs::counter("fleet.feed.late_batches");
  } m;
  m.passes.add(1);
  m.batches.add(result.batches.size());
  m.quarantined.add(result.quarantined);
  m.late.add(result.late_batches);

  const std::string label = std::to_string(facility);
  obs::counter("fleet.feed.wire_frames", {{"facility", label}})
      .add(result.frames_sent);
  obs::counter("fleet.feed.wire_corrupt_frames", {{"facility", label}})
      .add(result.corrupt_frames);
  obs::counter("fleet.feed.wire_recovered_batches", {{"facility", label}})
      .add(result.recovered_batches);
  obs::counter("fleet.feed.wire_quarantined_batches", {{"facility", label}})
      .add(result.quarantined_batches);
  obs::counter("fleet.feed.stale_batches", {{"facility", label}})
      .add(result.stale_batches);
}

/// Watermark/staleness gauges plus the event-time -> store-visible lag
/// histogram, published after a merge. Labelled per facility so one rotting
/// uplink's lag does not hide inside a fleet-wide aggregate.
void record_watermark_metrics(const FeedPassResult& result, FacilityId facility,
                              double watermark_s, double age_s) {
  const std::string label = std::to_string(facility);
  obs::registry().gauge("fleet.watermark.seconds", {{"facility", label}})
      .set(watermark_s);
  if (age_s < std::numeric_limits<double>::infinity()) {
    obs::registry().gauge("fleet.watermark.age_seconds", {{"facility", label}})
        .set(age_s);
  }
  // Lag = backend arrival minus event time: how long a sighting was in
  // flight before a query could see it. Buckets start at 1ms (clean serial
  // hop) and span out past retry-backoff territory.
  obs::Histogram& lag = obs::registry().histogram(
      "fleet.feed.visibility_lag_seconds", {{"facility", label}},
      obs::HistogramSpec{1e-3, 4.0, 16});
  for (const FacilityBatch& batch : result.batches) {
    for (const sys::ReadEvent& ev : batch.events) {
      lag.observe(batch.arrival_time_s - ev.time_s);
    }
  }
}

/// End-to-end batch latency: uploader send -> watermark-visible. A batch
/// becomes queryable when its pass's merge completes, which in simulated
/// time is the later of its backend arrival and the pass window close (the
/// watermark only advances at pass granularity). Observed per batch — the
/// p50/p95/p99 the exposition derives are what BENCH_FLEET regresses on.
void record_visibility_metrics(const FeedPassResult& result, FacilityId facility,
                               double window_end_s) {
  const std::string label = std::to_string(facility);
  obs::Histogram& latency = obs::registry().histogram(
      "fleet.batch.visibility_latency_seconds", {{"facility", label}},
      obs::HistogramSpec{1e-3, 4.0, 16});
  for (const FacilityBatch& batch : result.batches) {
    const double visible_s = std::max(window_end_s, batch.arrival_time_s);
    latency.observe(visible_s - batch.sent_time_s);
    if (batch.batch_id != 0) {
      obs::provenance_log().record({batch.batch_id, obs::BatchHop::kVisible,
                                    batch.facility, batch.events.size(),
                                    visible_s});
    }
  }
}

}  // namespace

FacilityFeed::FacilityFeed(FeedConfig config)
    : config_(std::move(config)),
      uploader_(config_.uploader),
      corruptor_(config_.wire_corruption),
      ingest_(config_.ingest),
      monitor_(config_.monitor) {
  require(config_.ingest.reader_count > 0,
          "FacilityFeed: ingest.reader_count must be set (the monitor needs "
          "the reader roster)");
}

FeedPassResult FacilityFeed::process_pass(const sys::EventLog& raw,
                                          double window_begin_s,
                                          double window_end_s, Rng& rng) {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kFeedPass);
  require(window_end_s >= window_begin_s, "FacilityFeed: inverted pass window");

  FeedPassResult result;
  const std::size_t batches_before = uploader_.stats().batches_lost;
  const sys::WireUploadStats wire_before = uploader_.wire_stats();
  std::vector<FacilityBatch> delivered =
      uploader_.upload_wire(raw, config_.facility, rng, &corruptor_);
  result.lost_batches = uploader_.stats().batches_lost - batches_before;
  const sys::WireUploadStats& wire_after = uploader_.wire_stats();
  result.frames_sent =
      static_cast<std::size_t>(wire_after.frames_sent - wire_before.frames_sent);
  result.corrupt_frames = static_cast<std::size_t>(wire_after.corrupt_frames -
                                                   wire_before.corrupt_frames);
  result.recovered_batches = static_cast<std::size_t>(
      wire_after.batches_recovered - wire_before.batches_recovered);
  result.quarantined_batches = static_cast<std::size_t>(
      wire_after.batches_quarantined - wire_before.batches_quarantined);

  // Per-batch validation, in place: the same record rules ingest()
  // applies, so the store only ever sees plausible sightings. On-time
  // batches additionally feed the pass-level union below, which therefore
  // skips validation.
  sys::EventLog on_time;
  const bool hooked = obs::hooks_enabled();
  for (FacilityBatch& batch : delivered) {
    // The link names the facility, not the payload.
    batch.facility = config_.facility;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
      const sys::ReadEvent& ev = batch.events[i];
      if (!track::validate_event(ev, config_.ingest, window_begin_s, window_end_s)) {
        ++result.quarantined;
        continue;
      }
      result.max_event_time_s = std::max(result.max_event_time_s, ev.time_s);
      batch.events[kept++] = ev;
    }
    batch.events.resize(kept);
    if (batch.events.empty()) continue;
    if (hooked && batch.batch_id != 0) {
      obs::provenance_log().record({batch.batch_id, obs::BatchHop::kValidated,
                                    batch.facility, batch.events.size(),
                                    batch.arrival_time_s});
    }
    if (batch.arrival_time_s > window_end_s + config_.stale_horizon_s) {
      // Past the staleness horizon: alerted below, still stored — the
      // sorted-idempotent store repairs truth however late the data is.
      ++result.stale_batches;
      if (hooked && batch.batch_id != 0) {
        obs::provenance_log().record({batch.batch_id, obs::BatchHop::kStale,
                                      batch.facility, batch.events.size(),
                                      batch.arrival_time_s});
      }
    }
    if (batch.arrival_time_s > window_end_s) {
      ++result.late_batches;
      if (hooked && batch.batch_id != 0) {
        obs::provenance_log().record({batch.batch_id, obs::BatchHop::kLate,
                                      batch.facility, batch.events.size(),
                                      batch.arrival_time_s});
      }
    } else {
      on_time.insert(on_time.end(), batch.events.begin(), batch.events.end());
    }
    result.batches.push_back(std::move(batch));
  }

  // Pass-level union over what arrived in time: dedup and silence signals,
  // then one monitor observation. A reader whose batches all slid past the
  // window end looks silent here — deliberately: that is the latency
  // degradation the confidence model must reflect.
  result.report = ingest_.ingest_validated(std::move(on_time), window_begin_s, window_end_s);
  last_degraded_ = result.report.degraded_readers;
  {
    const obs::prof::ScopedPhase monitor_phase(obs::prof::Phase::kFeedMonitor);
    monitor_.observe_pass(track::monitor_observation(
        result.report, config_.ingest.reader_count, config_.objects_total));
    monitor_.observe_transport(obs::TransportObservation{
        result.frames_sent, result.corrupt_frames, result.quarantined_batches,
        result.stale_batches});
  }

  // Cumulative tallies for the health surface — always on (pure counting).
  last_window_end_s_ = window_end_s;
  totals_.passes += 1;
  totals_.delivered_batches += result.batches.size();
  for (const FacilityBatch& batch : result.batches) {
    totals_.stored_events += batch.events.size();
  }
  totals_.quarantined_records += result.quarantined;
  totals_.late_batches += result.late_batches;
  totals_.stale_batches += result.stale_batches;

  result.watermark_s = watermark_s_;
  if (hooked) record_feed_metrics(result, config_.facility);
  return result;
}

FeedTotals FacilityFeed::totals() const {
  FeedTotals totals = totals_;
  totals.lost_batches = uploader_.stats().batches_lost;
  const sys::WireUploadStats& wire = uploader_.wire_stats();
  totals.frames_sent = wire.frames_sent;
  totals.corrupt_frames = wire.corrupt_frames;
  totals.recovered_batches = wire.batches_recovered;
  totals.quarantined_batches = wire.batches_quarantined;
  return totals;
}

FeedPassResult FacilityFeed::ingest_pass(TrackingStore& store,
                                         const sys::EventLog& raw,
                                         double window_begin_s, double window_end_s,
                                         Rng& rng) {
  FeedPassResult result = process_pass(raw, window_begin_s, window_end_s, rng);
  store.ingest(result.batches);
  // Everything this pass delivered is now merged, so the watermark may
  // advance to the pass's max event time. The stall detector is always-on
  // arithmetic (feedback-free contract: detection never gates on obs).
  watermark_s_ = std::max(watermark_s_, result.max_event_time_s);
  result.watermark_s = watermark_s_;
  monitor_.observe_watermark(
      obs::WatermarkObservation{watermark_s_, window_end_s});
  if (obs::hooks_enabled()) {
    record_watermark_metrics(result, config_.facility, watermark_s_,
                             watermark_age_s());
    record_visibility_metrics(result, config_.facility, window_end_s);
  }
  return result;
}

double FacilityFeed::watermark_age_s() const {
  if (watermark_s_ < 0.0) return std::numeric_limits<double>::infinity();
  return last_window_end_s_ - watermark_s_;
}

FacilityModel FacilityFeed::model() const {
  FacilityModel model;
  const std::size_t readers = config_.ingest.reader_count;
  model.reader_read_rates.resize(readers, 0.0);
  model.reader_live.assign(readers, true);
  for (std::size_t r = 0; r < readers && r < monitor_.reader_count(); ++r) {
    model.reader_read_rates[r] = monitor_.reader_read_rate(r);
  }
  for (const std::size_t r : last_degraded_) {
    if (r < readers) model.reader_live[r] = false;
  }
  return model;
}

}  // namespace rfidsim::fleet
