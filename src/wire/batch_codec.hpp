// rfidsim::wire — event-batch payload codec (OpCode::kEventBatch).
//
// One uploaded batch travels as one frame. The payload is versioned (the
// frame's version byte) and compact without being lossy — decode(encode(b))
// reproduces the batch bit for bit, doubles included, so the store digest
// is invariant under the wire hop:
//
//   varint  facility
//   u64le   sent_time_s      (raw IEEE-754 bits)
//   u64le   arrival_time_s   (raw IEEE-754 bits)
//   varint  dict_size        EPC dictionary, ascending:
//   varint  epc[0], then varint delta to each next entry (delta >= 1)
//   varint  event_count, then per event:
//     varint  dict_index     (reference into the EPC dictionary)
//     varint  reader
//     varint  antenna
//     svarint time_bits_delta  zigzag(bits(time) - bits(prev time))
//     svarint rssi_bits_delta  zigzag(bits(rssi) - bits(prev rssi))
//
// The EPC dictionary turns the 64-bit tag id every event would otherwise
// repeat into a small index (batches re-read the same tags constantly —
// that redundancy is the paper's whole subject). Timestamps and RSSI are
// delta-encoded on their *bit patterns*: consecutive reads are close in
// time and signal, so the patterns share exponent and high mantissa bits
// and the signed delta varint stays short, while remaining exactly
// invertible (no quantization — a lossy wire would silently break the
// digest-identity contracts everything downstream leans on).
//
// decode_event_batch() is strict: every index checked against the
// dictionary, every count checked against remaining bytes, trailing bytes
// rejected. A payload that fails any check yields DecodeErrorKind::
// kBadPayload — malformed data is classified, never half-parsed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "system/events.hpp"
#include "wire/wire.hpp"

namespace rfidsim::wire {

/// One event batch, the one record from the uploader to the store
/// (fleet::FacilityBatch is this type). `sent_time_s` is the reader's flush
/// time; `arrival_time_s` is when the backend received it (flush plus retry
/// backoff) — a batch with arrival_time_s > sent_time_s was delayed in
/// transit.
struct EventBatch {
  std::uint32_t facility = 0;
  double sent_time_s = 0.0;
  double arrival_time_s = 0.0;
  sys::EventLog events;
  /// Provenance id (obs::provenance_batch_id; 0 = none), stamped by the
  /// uploader. Plumbing only: it is not encoded, operator== ignores it, and
  /// it never enters the store's timelines or digest.
  std::uint64_t batch_id = 0;

  /// Compares the encoded fields bit for bit (batch_id is not one).
  friend bool operator==(const EventBatch&, const EventBatch&);
};

/// Serializes `batch` into a payload (frame with append_frame /
/// encode_event_batch_frame).
std::vector<std::uint8_t> encode_event_batch(const EventBatch& batch);

/// Complete kEventBatch frame, envelope and CRC included.
std::vector<std::uint8_t> encode_event_batch_frame(const EventBatch& batch);

/// Strict payload decode; nullopt on any malformation (kBadPayload).
std::optional<EventBatch> decode_event_batch(const std::uint8_t* payload,
                                             std::size_t size);
std::optional<EventBatch> decode_event_batch(const FrameView& frame);

}  // namespace rfidsim::wire
