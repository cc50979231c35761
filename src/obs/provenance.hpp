// rfidsim::obs — per-batch provenance tracing for the fleet pipeline.
//
// Every uploaded batch carries a deterministic nonzero batch id (minted by
// sys::EventUploader from the facility and a per-uploader sequence number)
// through the whole pipeline: link upload -> wire framing -> feed
// validation -> store merge -> checkpoint. Each hop appends one timestamped
// ProvenanceRecord to a process-wide bounded ring, so a batch that went
// missing — lost to the link, quarantined after a NAK storm, screened as
// stale — is reconstructable hop by hop from the log alone.
//
// Contracts (the same feedback-free rules as the rest of obs):
//   - Batch ids are pure arithmetic over (facility, sequence) and are
//     *always* assigned, obs on or off — they are plumbing, not telemetry —
//     but never enter stored truth: TrackingStore::digest() hashes
//     sightings only, so ids can never change a simulated bit.
//   - record() is a no-op unless hooks_enabled(); under -DRFIDSIM_OBS=OFF
//     the constant-false gate lets the optimizer drop every call site.
//   - The ring is bounded (kProvenanceLogCapacity) and overwrites oldest
//     records on wrap; overwrites are tallied, never silent (dropped(),
//     mirrored to the obs.provenance.dropped_records counter).
//
// Export: the flight dump (obs/flight_recorder.hpp; JSONL, schema in
// EXPERIMENTS.md) is the one writer. It dumps the tail of the process-wide
// log's ring on demand and from the crash handler, so a post-mortem dump
// carries the provenance stream next to the checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace rfidsim::obs {

/// One pipeline station a batch can pass through (or die at).
enum class BatchHop : std::uint8_t {
  kEnqueued = 0,     ///< Uploader formed the batch (value = events).
  kEncoded = 1,      ///< Framed for the wire (value = framed bytes).
  kNak = 2,          ///< Receiver NAK'd a corrupt frame (value = NAKs so far).
  kDelivered = 3,    ///< Backend received it (value = events).
  kLost = 4,         ///< Link retry budget exhausted (value = events).
  kQuarantined = 5,  ///< NAK budget exhausted; dropped (value = events).
  kValidated = 6,    ///< Feed validation done (value = accepted events).
  kLate = 7,         ///< Arrived after the pass window closed.
  kStale = 8,        ///< Arrived past the staleness horizon.
  kMerged = 9,       ///< Store merge applied (value = events).
  kCheckpointed = 10,  ///< Captured by a checkpoint (value = sequence).
  kRestored = 11,      ///< Restored from a checkpoint (value = sequence).
  kVisible = 12,       ///< Watermark advanced past the batch (value = events).
};

/// Stable lower-snake name ("enqueued", "merged", ...) for dumps and logs.
const char* batch_hop_name(BatchHop hop);

/// Deterministic nonzero batch id: a SplitMix64-style mix of the facility
/// and a per-uploader sequence number. Pure arithmetic — same inputs, same
/// id, on every platform and every obs configuration. 0 is reserved for
/// "no id" (batches that predate the uploader, hand-built test batches).
std::uint64_t provenance_batch_id(std::uint32_t facility, std::uint64_t sequence);

/// The facility value hops use when no facility applies (uploads outside
/// a facility feed, store-level checkpoint records).
inline constexpr std::uint32_t kNoFacility = 0xffffffffu;

/// One hop of one batch.
struct ProvenanceRecord {
  std::uint64_t batch_id = 0;
  BatchHop hop = BatchHop::kEnqueued;
  std::uint32_t facility = kNoFacility;
  std::uint64_t value = 0;  ///< Hop-specific payload (see BatchHop docs).
  double time_s = 0.0;      ///< Simulated time of the hop; -1 when none.
};

/// Records retained before the ring wraps (newest win; drops are tallied).
inline constexpr std::size_t kProvenanceLogCapacity = 1 << 16;

/// Bounded provenance ring, shared by every recording thread. One
/// process-wide instance (provenance_log()) is what the pipeline hooks feed
/// and what the flight recorder dumps; tests build their own.
class ProvenanceLog {
 public:
  explicit ProvenanceLog(std::size_t capacity = kProvenanceLogCapacity);

  /// Appends one record. No-op unless hooks_enabled().
  void record(const ProvenanceRecord& rec);

  /// Oldest-to-newest copy of the retained records. Safe to call while
  /// other threads keep recording.
  std::vector<ProvenanceRecord> snapshot() const;
  /// The retained hops of one batch, oldest first.
  std::vector<ProvenanceRecord> history(std::uint64_t batch_id) const;

  std::uint64_t recorded() const;  ///< Records accepted (monotonic).
  std::uint64_t dropped() const;   ///< Records overwritten by ring wrap.

  /// Discards all records and zeroes the drop tally.
  void clear();

  /// The ring itself: the flight recorder reads its tail in place, and
  /// record positions in it are the dump's `seq`.
  const Ring<ProvenanceRecord>& ring() const { return ring_; }

 private:
  Ring<ProvenanceRecord> ring_;
};

/// The process-wide provenance log every pipeline hook feeds.
ProvenanceLog& provenance_log();

}  // namespace rfidsim::obs
