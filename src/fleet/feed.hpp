// rfidsim::fleet — one facility's feed into the fleet store.
//
// Each simulated facility pushes its pass logs through the same production
// path the single-portal stack models: the *wire-framed* uploader hop
// (sys::EventUploader::upload_wire — checksummed binary frames, link loss
// with bounded backoff, bit-level channel corruption detected by CRC and
// recovered by NAK retransmission) followed by resilient ingest validation
// (track::validate_event / track::ResilientIngest). FacilityFeed bundles
// that path per facility and splits its output two ways:
//
//   Batches -> store   Every delivered batch is validated record by record
//                      and forwarded with its flush and arrival times as a
//                      FacilityBatch. *All* delivered batches reach the
//                      store, however late: the store's sorted-idempotent
//                      insert repairs timelines retroactively, which is the
//                      whole point of keeping them. Batches older than the
//                      configurable staleness horizon still repair stored
//                      truth, but raise a typed stale_batch alert so the
//                      silent late-data path is observable.
//   Pass -> monitor    The pass-level quality signals (transport dedup,
//                      silence gaps, degraded readers) come from one union
//                      ResilientIngest::ingest_validated (the records are
//                      validated once, above) over the batches that
//                      arrived *inside* the pass window. Batches whose
//                      arrival slid past the window end — the uploader's
//                      retry backoff made visible — are excluded: the
//                      online monitor can only score what the backend had
//                      when the pass closed. That is exactly how transport
//                      latency degrades the live per-reader read rates
//                      (and thus query confidence) without ever touching
//                      the stored truth.
//
// model() snapshots the feed's current reliability view for the query
// layer: the monitor's windowed per-reader read rates, with readers the
// last pass declared silent masked out (degraded-mode masking as in
// reliability::expected_reliability_grid_degraded).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fault/wire_corruptor.hpp"
#include "fleet/query.hpp"
#include "fleet/store.hpp"
#include "obs/monitor.hpp"
#include "system/uploader.hpp"
#include "track/resilient_ingest.hpp"

namespace rfidsim::fleet {

struct FeedConfig {
  FacilityId facility = 0;
  /// Expected distinct objects per pass window (manifest or registry
  /// size); the monitor's read-rate denominator.
  std::size_t objects_total = 0;
  sys::UploaderConfig uploader;
  track::IngestConfig ingest;
  obs::MonitorConfig monitor;
  /// What this facility's physical uplink does to framed bytes. The
  /// default is a strict identity (draws nothing from the Rng), so feeds
  /// without configured corruption behave bit-identically to a clean
  /// channel.
  fault::WireCorruptorConfig wire_corruption;
  /// A delivered batch whose arrival is more than this many seconds past
  /// the pass window end is counted stale and raises the monitor's
  /// stale_batch alert. It is still forwarded to the store — staleness is
  /// an observability signal, never data loss. Infinity disables it.
  double stale_horizon_s = std::numeric_limits<double>::infinity();
};

/// Everything one pass produced on its way to the store.
struct FeedPassResult {
  /// Validated delivered batches, in delivery order — ready for
  /// TrackingStore::ingest. Includes late arrivals.
  std::vector<FacilityBatch> batches;
  /// Pass-level union ingest over the on-time batches (dedup, silence
  /// gaps, degraded readers — the monitor's view of the pass).
  track::IngestReport report;
  std::size_t quarantined = 0;   ///< Records rejected by per-batch validation.
  std::size_t late_batches = 0;  ///< Delivered after the window closed.
  std::size_t lost_batches = 0;  ///< Dropped by the upload hop entirely.
  // Wire-transport tallies for this pass (deltas of the uploader's
  // cumulative WireUploadStats, plus the feed's own staleness screen).
  std::size_t frames_sent = 0;          ///< Frame transmissions incl. retransmits.
  std::size_t corrupt_frames = 0;       ///< Receiver-detected bad frames (NAKs).
  std::size_t recovered_batches = 0;    ///< Delivered after >= 1 NAK.
  std::size_t quarantined_batches = 0;  ///< Dropped: NAK budget exhausted.
  std::size_t stale_batches = 0;        ///< Arrived past the staleness horizon.
  /// Max event time across this pass's validated batches (-1 when none
  /// survived) — the candidate the feed's watermark advances to once the
  /// batches are merged.
  double max_event_time_s = -1.0;
  /// The feed's event-time low-watermark after this pass. Only ingest_pass
  /// advances it (the watermark means *fully merged*, and only ingest_pass
  /// merges); process_pass reports the current value unchanged.
  double watermark_s = -1.0;
};

/// Cumulative per-feed tallies across every processed pass — the health
/// snapshot's per-facility row. Pure functions of the pass sequence.
struct FeedTotals {
  std::uint64_t passes = 0;
  std::uint64_t delivered_batches = 0;    ///< Validated batches forwarded.
  std::uint64_t stored_events = 0;        ///< Events inside those batches.
  std::uint64_t quarantined_records = 0;  ///< Records validation rejected.
  std::uint64_t late_batches = 0;
  std::uint64_t lost_batches = 0;
  std::uint64_t stale_batches = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t recovered_batches = 0;
  std::uint64_t quarantined_batches = 0;  ///< NAK budget exhausted.
};

/// One facility's upload + validation + monitoring pipeline. Stateful:
/// the uploader's stats, the ingest pipeline, and the reliability monitor
/// persist across passes. Feed passes in time order from one thread.
class FacilityFeed {
 public:
  explicit FacilityFeed(FeedConfig config);

  /// Pushes one pass's raw reader log through the upload hop and
  /// validation, folds the on-time result into the monitor, and returns
  /// the store-ready batches. Deterministic given `rng`'s state.
  FeedPassResult process_pass(const sys::EventLog& raw, double window_begin_s,
                              double window_end_s, Rng& rng);

  /// process_pass() plus TrackingStore::ingest of the batches.
  FeedPassResult ingest_pass(TrackingStore& store, const sys::EventLog& raw,
                             double window_begin_s, double window_end_s, Rng& rng);

  /// Current reliability view for the query layer: monitor read rates with
  /// last pass's silent readers masked dead.
  FacilityModel model() const;

  const obs::ReliabilityMonitor& monitor() const { return monitor_; }
  obs::ReliabilityMonitor& monitor() { return monitor_; }
  /// Cumulative tallies across every pass this feed processed. The
  /// transport fields are the uploader's own cumulative stats, which the
  /// feed never resets.
  FeedTotals totals() const;
  /// Event-time low-watermark: max event time fully merged via ingest_pass
  /// (-1 until anything merges). Age is measured against the last pass
  /// window's end (infinite until anything merges).
  double watermark_s() const { return watermark_s_; }
  double watermark_age_s() const;
  double last_window_end_s() const { return last_window_end_s_; }
  const sys::UploadStats& upload_stats() const { return uploader_.stats(); }
  const sys::WireUploadStats& wire_stats() const { return uploader_.wire_stats(); }
  /// Ground truth of what the channel actually did (the decoder's
  /// detection counters are calibrated against this in tests).
  const fault::WireCorruptionStats& corruption_stats() const {
    return corruptor_.stats();
  }
  const FeedConfig& config() const { return config_; }

 private:
  FeedConfig config_;
  sys::EventUploader uploader_;
  fault::WireCorruptor corruptor_;
  track::ResilientIngest ingest_;
  obs::ReliabilityMonitor monitor_;
  std::vector<std::size_t> last_degraded_;  ///< Readers silent in last pass.
  FeedTotals totals_;  ///< The tallies totals() does not take from uploader_.
  double watermark_s_ = -1.0;
  double last_window_end_s_ = 0.0;
};

}  // namespace rfidsim::fleet
