// rfidsim::fleet — crash-safe checkpoint/restore for TrackingStore.
//
// A backend that absorbs millions of sightings cannot afford to lose them
// to a crash, and a checkpoint it cannot *trust* is worse than none. This
// module snapshots a TrackingStore into the same checksummed wire framing
// the uplink uses (wire::open_frame/close_frame; opcodes kCheckpointHeader /
// kCheckpointShard / kCheckpointEnd), so every corruption defence built
// for the wire — CRC-16 envelopes, strict payload decoding, a typed error
// taxonomy — protects the durability path for free.
//
// Snapshot shape (a byte stream of frames):
//
//   kCheckpointHeader   kind (full|incremental), sequence number,
//                       shard count, StoreStats.
//   kCheckpointShard*   one frame per written shard: index, counters,
//                       timelines (EPC-delta dictionary, per-sighting
//                       time-bit deltas — the batch codec's tricks).
//   kCheckpointEnd      shards-written count and the store's digest() at
//                       snapshot time, little-endian.
//
// Incremental checkpoints write only shards whose version counter moved
// since this Checkpointer's previous snapshot; the end digest still covers
// the *whole* store, so a restore chain proves itself end-to-end.
//
// Restore contract (the crash-safety half):
//
//   ALL-OR-NOTHING: restore_checkpoint() returns a store whose digest()
//   is bit-identical to the digest recorded at snapshot time, or throws
//   CheckpointError. It never returns partial state — decoding happens
//   into a scratch store that is discarded on any failure — and never
//   crashes on hostile bytes: every read is bounds-checked, every frame
//   CRC-verified, every structural surprise a typed error. The digest
//   covers timelines only, so restore also checks what it cannot see: each
//   timeline sits in the shard its EPC hashes to, each shard's sightings
//   counter matches the sightings it holds, and the header's accepted /
//   duplicates / repairs are the sums of the shard counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fleet/store.hpp"
#include "wire/wire.hpp"

namespace rfidsim::fleet {

/// Why a restore refused a checkpoint. Wire-level failures (bad CRC,
/// truncation...) surface as kBadFrame with the underlying
/// wire::DecodeErrorKind attached.
enum class CheckpointErrorKind : std::uint8_t {
  kBadFrame = 0,        ///< Frame envelope failed (see wire_error()).
  kBadPayload = 1,      ///< Frame decoded but its payload is malformed.
  kBadSequence = 2,     ///< Chain order violated (gap, or first not full).
  kMissingHeader = 3,   ///< Stream does not start with a header frame.
  kMissingEnd = 4,      ///< Stream ended without a kCheckpointEnd frame.
  kShardMismatch = 5,   ///< Shard index/count disagrees with the header.
  kDigestMismatch = 6,  ///< Restored store digest != recorded digest.
};

/// Stable lower-snake name ("bad_frame", "digest_mismatch", ...) for
/// counters, logs, and test assertions.
const char* checkpoint_error_name(CheckpointErrorKind kind);

/// Thrown by restore_checkpoint(). Permanent: retrying the same bytes
/// cannot help; the caller falls back to an older checkpoint or a rebuild.
class CheckpointError : public PermanentError {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& message)
      : PermanentError(message), kind_(kind) {}
  CheckpointError(wire::DecodeErrorKind wire_kind, const std::string& message)
      : PermanentError(message),
        kind_(CheckpointErrorKind::kBadFrame),
        wire_error_(wire_kind) {}

  CheckpointErrorKind kind() const { return kind_; }
  /// Underlying wire failure; meaningful only when kind() == kBadFrame.
  wire::DecodeErrorKind wire_error() const { return wire_error_; }

 private:
  CheckpointErrorKind kind_;
  wire::DecodeErrorKind wire_error_{};
};

/// What one snapshot wrote (for gauges and bench records).
struct CheckpointStats {
  bool incremental = false;
  std::uint64_t sequence = 0;       ///< Sequence number of this snapshot.
  std::size_t shards_written = 0;   ///< Shard frames emitted.
  std::size_t shards_skipped = 0;   ///< Unchanged shards elided.
  std::size_t timelines_written = 0;
  std::size_t sightings_written = 0;
  std::size_t bytes = 0;            ///< Total framed bytes.
};

/// Writes snapshots of one TrackingStore. Stateful: it remembers the
/// per-shard versions of its last snapshot so incremental() can skip
/// unchanged shards. One Checkpointer per store; sequence numbers tie the
/// chain together for the restorer.
class Checkpointer {
 public:
  /// Full snapshot of every shard. Resets the incremental baseline.
  std::vector<std::uint8_t> full(const TrackingStore& store);

  /// Snapshot of only the shards mutated since this Checkpointer's last
  /// snapshot. The first call (no baseline yet) degrades to full().
  std::vector<std::uint8_t> incremental(const TrackingStore& store);

  /// What the most recent full()/incremental() call wrote.
  const CheckpointStats& last_stats() const { return last_stats_; }

 private:
  std::vector<std::uint8_t> write(const TrackingStore& store, bool incremental);

  std::vector<std::uint64_t> baseline_versions_;
  std::uint64_t next_sequence_ = 0;
  CheckpointStats last_stats_;
};

/// Rebuilds a store from one snapshot, or from a chain of snapshots
/// concatenated in write order (one full, then its incrementals). `threads`
/// configures the returned store's ingest parallelism; shard count comes
/// from the checkpoint header. Throws CheckpointError on any defect —
/// never returns partial state.
TrackingStore restore_checkpoint(const std::uint8_t* data, std::size_t size,
                                 std::size_t threads = 1);
TrackingStore restore_checkpoint(const std::vector<std::uint8_t>& bytes,
                                 std::size_t threads = 1);

}  // namespace rfidsim::fleet
