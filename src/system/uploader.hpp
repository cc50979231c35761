// Buffered event upload: reader buffer -> backend over a lossy link.
//
// Readers in buffered continuous mode batch their reads and push them
// upstream over whatever the site wired in — serial, flaky WiFi, a cell
// modem on a dock door. upload_wire() models that hop in two stages:
//
//   link  batches are lost with a configurable probability, retried with
//         *bounded* exponential backoff (cap + deterministic seeded
//         jitter), and dropped for good once the retry budget is
//         exhausted (the reader's ring buffer has wrapped by then).
//   wire  each batch that crosses the link travels as a checksummed
//         binary frame (wire::encode_event_batch_frame) and the channel
//         damages *bits*, not rows. The receiver decodes strictly; any
//         classified failure (bad CRC, truncation, bad magic, unknown
//         version...) is a NAK and the uploader retransmits under its own
//         budget. Corruption is therefore detected and quarantined, never
//         silently parsed — the end-to-end integrity half of the fleet
//         durability contract. A clean channel (no corruptor, or an
//         identity one) draws nothing from the Rng in this stage.
//
// Downstream, track::ResilientIngest treats the result as just another
// degraded feed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/wire_corruptor.hpp"
#include "system/events.hpp"
#include "wire/batch_codec.hpp"

namespace rfidsim::sys {

/// Upload-channel configuration.
struct UploaderConfig {
  /// Events per upload batch (the reader's flush quantum).
  std::size_t batch_size = 32;
  /// Probability one transmission attempt is lost in transit.
  double loss_probability = 0.0;
  /// Retries after the first failed attempt before the batch is dropped.
  std::size_t max_retries = 4;
  /// Backoff before the first retry; multiplies per subsequent retry,
  /// capped at max_backoff_s (bounded exponential — the backoff can never
  /// run away however deep the retry budget goes).
  double initial_backoff_s = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 10.0;
  /// Fraction of each backoff added as uniform jitter in
  /// [0, jitter_fraction * backoff). Drawn from the caller's Rng, so it is
  /// seeded and deterministic; 0 draws nothing (decorrelating retries
  /// across readers costs determinism nothing here).
  double jitter_fraction = 0.0;
  /// Retransmissions after a NAK (corrupt frame detected by the
  /// receiver) before the batch is quarantined.
  std::size_t max_nak_retransmits = 6;
};

/// What the channel did to one log.
struct UploadStats {
  std::size_t batches = 0;
  std::size_t attempts = 0;        ///< Transmissions incl. retries.
  std::size_t retries = 0;
  std::size_t batches_lost = 0;    ///< Dropped after exhausting retries.
  std::size_t events_delivered = 0;
  std::size_t events_lost = 0;
  double backoff_delay_s = 0.0;    ///< Total backoff the retries waited out.
};

/// What the wire added on top of link loss.
struct WireUploadStats {
  std::uint64_t frames_sent = 0;       ///< Frame transmissions incl. retransmits.
  std::uint64_t bytes_sent = 0;        ///< Framed bytes offered to the channel.
  std::uint64_t corrupt_frames = 0;    ///< Receiver-detected bad frames (NAKs).
  /// Detected failures by DecodeErrorKind (index = enum value).
  std::uint64_t corrupt_by_kind[7] = {};
  std::uint64_t nak_retransmits = 0;
  std::uint64_t batches_recovered = 0;   ///< Delivered after >= 1 NAK.
  std::uint64_t batches_quarantined = 0; ///< NAK budget exhausted; dropped.
  std::uint64_t events_quarantined = 0;
  /// Frames that decoded fine but differ from what was sent — a CRC-16
  /// collision. Ground truth only the simulator can see; the acceptance
  /// bar is that this stays zero.
  std::uint64_t undetected_corruptions = 0;
};

/// Pushes event logs through the lossy upload hop.
class EventUploader {
 public:
  explicit EventUploader(UploaderConfig config);

  /// Uploads `log` batch by batch. Each batch that crosses the link is
  /// encoded as a checksummed binary frame, damaged by `corruptor`
  /// (nullptr = clean channel), and strictly decoded; detected corruption
  /// NAKs and retransmits under max_nak_retransmits. Returns what the
  /// backend received, in delivery order (batch order is preserved —
  /// retries delay, they do not overtake). Each batch is what decoded —
  /// nothing the receiver could not have seen; its sent_time_s is the
  /// flush time, the batch's last finite event time (the channel's free
  /// time when it has none) — with two fields stamped:
  ///   arrival_time_s  the flush time, any head-of-line wait behind the
  ///                   previous batch still retrying on the serial
  ///                   channel, plus this batch's own backoff
  ///                   (transmission is instant), so downstream consumers
  ///                   see retry backoff as *latency*;
  ///   batch_id        obs::provenance_batch_id(facility, k) for the k-th
  ///                   batch this uploader formed, minted whether or not
  ///                   obs records anything; a lost batch's k is skipped.
  /// `facility` also keys the hop records (obs::kNoFacility when no
  /// facility applies). Deterministic given `rng`'s state; a clean or
  /// identity channel draws from `rng` for the link stage only. Stats
  /// accumulate across calls until reset().
  std::vector<wire::EventBatch> upload_wire(const EventLog& log,
                                            std::uint32_t facility, Rng& rng,
                                            fault::WireCorruptor* corruptor);

  const UploadStats& stats() const { return stats_; }
  const WireUploadStats& wire_stats() const { return wire_stats_; }
  void reset() {
    stats_ = UploadStats{};
    wire_stats_ = WireUploadStats{};
  }

 private:
  UploaderConfig config_;
  UploadStats stats_;
  WireUploadStats wire_stats_;
  /// Batches formed over this uploader's lifetime; the provenance-id
  /// sequence. Deliberately not cleared by reset() — ids must stay unique
  /// across stats resets.
  std::uint64_t batch_sequence_ = 0;
};

}  // namespace rfidsim::sys
