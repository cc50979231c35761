#include "fleet/checkpoint.hpp"

#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace rfidsim::fleet {

namespace {

/// Shard counts above this in a header are treated as corruption, not
/// configuration — a defence against a forged length driving a giant
/// allocation before the digest check can catch it.
constexpr std::uint64_t kMaxShardCount = 1u << 16;

void put_stats(std::vector<std::uint8_t>& out, const StoreStats& s) {
  wire::put_varint(out, s.batches);
  wire::put_varint(out, s.events);
  wire::put_varint(out, s.accepted);
  wire::put_varint(out, s.duplicates);
  wire::put_varint(out, s.repairs);
  wire::put_varint(out, s.late_batches);
}

bool get_stats(wire::Reader& r, StoreStats& s) {
  return r.get_varint(s.batches) && r.get_varint(s.events) &&
         r.get_varint(s.accepted) && r.get_varint(s.duplicates) &&
         r.get_varint(s.repairs) && r.get_varint(s.late_batches);
}

[[noreturn]] void fail(CheckpointErrorKind kind, const std::string& message) {
  throw CheckpointError(kind, message);
}

}  // namespace

const char* checkpoint_error_name(CheckpointErrorKind kind) {
  switch (kind) {
    case CheckpointErrorKind::kBadFrame: return "bad_frame";
    case CheckpointErrorKind::kBadPayload: return "bad_payload";
    case CheckpointErrorKind::kBadSequence: return "bad_sequence";
    case CheckpointErrorKind::kMissingHeader: return "missing_header";
    case CheckpointErrorKind::kMissingEnd: return "missing_end";
    case CheckpointErrorKind::kShardMismatch: return "shard_mismatch";
    case CheckpointErrorKind::kDigestMismatch: return "digest_mismatch";
  }
  return "unknown";
}

std::vector<std::uint8_t> Checkpointer::full(const TrackingStore& store) {
  return write(store, false);
}

std::vector<std::uint8_t> Checkpointer::incremental(const TrackingStore& store) {
  // No baseline (first snapshot, or the store's shard count changed under
  // us) degrades to a full snapshot — always safe, never silently wrong.
  const bool can_diff =
      baseline_versions_.size() == store.config().shard_count;
  return write(store, can_diff);
}

std::vector<std::uint8_t> Checkpointer::write(const TrackingStore& store,
                                              bool incremental) {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kCheckpointWrite);
  const std::size_t shard_count = store.config().shard_count;
  CheckpointStats st;
  st.incremental = incremental;
  st.sequence = next_sequence_++;

  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> payload;

  // Header: kind, sequence, shard roster size, ingest tallies.
  payload.push_back(incremental ? 1 : 0);
  wire::put_varint(payload, st.sequence);
  wire::put_varint(payload, shard_count);
  put_stats(payload, store.stats());
  wire::append_frame(out, wire::OpCode::kCheckpointHeader, payload);

  // One frame per written shard. A full snapshot writes every shard (even
  // empty ones — predictable framing beats a few saved bytes); an
  // incremental writes only shards whose version moved since the baseline.
  std::vector<std::uint8_t> body;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const TrackingStore::ShardCounters counters = store.shard_counters(s);
    if (incremental && counters.version == baseline_versions_[s]) {
      ++st.shards_skipped;
      continue;
    }
    payload.clear();
    wire::put_varint(payload, s);
    wire::put_varint(payload, counters.sightings);
    wire::put_varint(payload, counters.duplicates);
    wire::put_varint(payload, counters.repairs);
    wire::put_varint(payload, counters.version);

    body.clear();
    std::uint64_t timelines = 0;
    std::uint64_t prev_epc = 0;
    store.visit_shard(s, [&](std::uint64_t epc,
                             const std::vector<Sighting>& tl) {
      // EPCs stream in ascending order, so deltas stay small varints.
      wire::put_varint(body, timelines == 0 ? epc : epc - prev_epc);
      prev_epc = epc;
      wire::put_varint(body, tl.size());
      // Time travels as IEEE-754 bit-pattern deltas (the batch codec's
      // trick): lossless, and time-sorted timelines keep deltas compact.
      std::uint64_t prev_bits = 0;
      for (const Sighting& x : tl) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(x.time_s);
        wire::put_varint_signed(body,
                                static_cast<std::int64_t>(bits - prev_bits));
        prev_bits = bits;
        wire::put_varint(body, x.facility);
        wire::put_varint(body, x.reader);
        wire::put_varint(body, x.antenna);
      }
      ++timelines;
      st.sightings_written += tl.size();
    });
    wire::put_varint(payload, timelines);
    payload.insert(payload.end(), body.begin(), body.end());
    wire::append_frame(out, wire::OpCode::kCheckpointShard, payload);
    ++st.shards_written;
    st.timelines_written += static_cast<std::size_t>(timelines);
  }

  // End: shard frames written and the whole-store digest at snapshot time.
  // The digest always covers the full store, so restoring a chain proves
  // every link end-to-end, not just the shards the link carried.
  payload.clear();
  wire::put_varint(payload, st.shards_written);
  wire::put_u64le(payload, store.digest());
  wire::append_frame(out, wire::OpCode::kCheckpointEnd, payload);

  baseline_versions_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    baseline_versions_[s] = store.shard_version(s);
  }
  st.bytes = out.size();
  last_stats_ = st;
  if (obs::hooks_enabled()) {
    // Checkpoint frames join the provenance stream under a synthetic id
    // keyed on the snapshot sequence (facility = kNoFacility marks it as a
    // store-level hop, not one facility's batch).
    obs::provenance_log().record(
        {obs::provenance_batch_id(obs::kNoFacility, st.sequence),
         obs::BatchHop::kCheckpointed, obs::kNoFacility, st.sequence, -1.0});
  }
  return out;
}

TrackingStore restore_checkpoint(const std::vector<std::uint8_t>& bytes,
                                 std::size_t threads) {
  return restore_checkpoint(bytes.data(), bytes.size(), threads);
}

TrackingStore restore_checkpoint(const std::uint8_t* data, std::size_t size,
                                 std::size_t threads) {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kCheckpointRestore);
  std::optional<TrackingStore> store;  // Scratch: discarded on any throw.
  std::size_t shard_count = 0;
  bool in_snapshot = false;
  std::uint64_t prev_sequence = 0;
  std::uint64_t shards_seen = 0;

  std::size_t offset = 0;
  while (offset < size) {
    const wire::DecodeResult res = wire::next_frame(data, size, offset);
    if (!res.ok) {
      throw CheckpointError(res.error,
                            std::string("checkpoint: frame failed to decode: ") +
                                wire::decode_error_name(res.error));
    }
    offset = res.next_offset;
    wire::Reader r{res.frame.payload, res.frame.payload_size, 0};

    switch (res.frame.opcode) {
      case wire::OpCode::kCheckpointHeader: {
        if (in_snapshot) {
          fail(CheckpointErrorKind::kMissingEnd,
               "checkpoint: header frame inside an open snapshot");
        }
        std::uint8_t kind = 0;
        std::uint64_t sequence = 0, count = 0;
        StoreStats stats;
        if (!r.get_u8(kind) || kind > 1 || !r.get_varint(sequence) ||
            !r.get_varint(count) || !get_stats(r, stats) || !r.done()) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: malformed header payload");
        }
        if (count == 0 || count > kMaxShardCount) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: implausible shard count " + std::to_string(count));
        }
        if (!store) {
          if (kind != 0) {
            fail(CheckpointErrorKind::kBadSequence,
                 "checkpoint: chain must start with a full snapshot");
          }
          shard_count = static_cast<std::size_t>(count);
          store.emplace(StoreConfig{shard_count, threads});
        } else {
          if (count != shard_count) {
            fail(CheckpointErrorKind::kShardMismatch,
                 "checkpoint: shard count changed mid-chain");
          }
          if (sequence != prev_sequence + 1) {
            fail(CheckpointErrorKind::kBadSequence,
                 "checkpoint: sequence gap (" + std::to_string(prev_sequence) +
                     " -> " + std::to_string(sequence) + ")");
          }
          // A full snapshot mid-chain supersedes everything before it.
          if (kind == 0) store.emplace(StoreConfig{shard_count, threads});
        }
        prev_sequence = sequence;
        store->restore_stats(stats);
        in_snapshot = true;
        shards_seen = 0;
        break;
      }

      case wire::OpCode::kCheckpointShard: {
        if (!in_snapshot) {
          fail(store ? CheckpointErrorKind::kBadSequence
                     : CheckpointErrorKind::kMissingHeader,
               "checkpoint: shard frame outside a snapshot");
        }
        std::uint64_t index = 0;
        TrackingStore::ShardCounters counters;
        if (!r.get_varint(index) || !r.get_varint(counters.sightings) ||
            !r.get_varint(counters.duplicates) ||
            !r.get_varint(counters.repairs) ||
            !r.get_varint(counters.version)) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: malformed shard counters");
        }
        if (index >= shard_count) {
          fail(CheckpointErrorKind::kShardMismatch,
               "checkpoint: shard index " + std::to_string(index) +
                   " out of range");
        }
        std::uint64_t timeline_count = 0;
        if (!r.get_varint(timeline_count) ||
            timeline_count > r.size - r.pos) {
          // Each timeline costs >= 1 byte, so a count beyond the remaining
          // payload cannot be honest — reject before reserving anything.
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: implausible timeline count");
        }
        std::vector<std::pair<std::uint64_t, std::vector<Sighting>>> timelines;
        timelines.reserve(static_cast<std::size_t>(timeline_count));
        std::uint64_t prev_epc = 0;
        for (std::uint64_t i = 0; i < timeline_count; ++i) {
          std::uint64_t delta = 0;
          if (!r.get_varint(delta)) {
            fail(CheckpointErrorKind::kBadPayload,
                 "checkpoint: truncated timeline key");
          }
          const std::uint64_t epc = i == 0 ? delta : prev_epc + delta;
          if (i > 0 && (delta == 0 || epc < prev_epc)) {
            fail(CheckpointErrorKind::kBadPayload,
                 "checkpoint: timeline keys not strictly ascending");
          }
          prev_epc = epc;
          std::uint64_t n = 0;
          if (!r.get_varint(n) || n == 0 || n > r.size - r.pos) {
            fail(CheckpointErrorKind::kBadPayload,
                 "checkpoint: implausible sighting count");
          }
          std::vector<Sighting> tl;
          tl.reserve(static_cast<std::size_t>(n));
          std::uint64_t prev_bits = 0;
          for (std::uint64_t j = 0; j < n; ++j) {
            std::int64_t dbits = 0;
            std::uint64_t facility = 0, reader = 0, antenna = 0;
            if (!r.get_varint_signed(dbits) || !r.get_varint(facility) ||
                !r.get_varint(reader) || !r.get_varint(antenna) ||
                facility > std::numeric_limits<std::uint32_t>::max() ||
                reader > std::numeric_limits<std::uint32_t>::max() ||
                antenna > std::numeric_limits<std::uint32_t>::max()) {
              fail(CheckpointErrorKind::kBadPayload,
                   "checkpoint: malformed sighting");
            }
            const std::uint64_t bits =
                prev_bits + static_cast<std::uint64_t>(dbits);
            prev_bits = bits;
            tl.push_back(Sighting{std::bit_cast<double>(bits),
                                  static_cast<FacilityId>(facility),
                                  static_cast<std::uint32_t>(reader),
                                  static_cast<std::uint32_t>(antenna)});
          }
          timelines.emplace_back(epc, std::move(tl));
        }
        if (!r.done()) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: trailing bytes after shard payload");
        }
        store->restore_shard(static_cast<std::size_t>(index),
                             std::move(timelines), counters);
        ++shards_seen;
        break;
      }

      case wire::OpCode::kCheckpointEnd: {
        if (!in_snapshot) {
          fail(store ? CheckpointErrorKind::kBadSequence
                     : CheckpointErrorKind::kMissingHeader,
               "checkpoint: end frame outside a snapshot");
        }
        std::uint64_t written = 0, digest = 0;
        if (!r.get_varint(written) || !r.get_u64le(digest) || !r.done()) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: malformed end payload");
        }
        if (written != shards_seen) {
          fail(CheckpointErrorKind::kShardMismatch,
               "checkpoint: end frame expected " + std::to_string(written) +
                   " shard frames, saw " + std::to_string(shards_seen));
        }
        if (store->digest() != digest) {
          fail(CheckpointErrorKind::kDigestMismatch,
               "checkpoint: restored digest does not match recorded digest");
        }
        in_snapshot = false;
        break;
      }

      default:
        fail(store ? CheckpointErrorKind::kBadPayload
                   : CheckpointErrorKind::kMissingHeader,
             "checkpoint: unexpected frame opcode in checkpoint stream");
    }
  }

  if (!store) {
    fail(CheckpointErrorKind::kMissingHeader, "checkpoint: empty stream");
  }
  if (in_snapshot) {
    fail(CheckpointErrorKind::kMissingEnd,
         "checkpoint: stream ended inside a snapshot");
  }
  if (obs::hooks_enabled()) {
    obs::provenance_log().record(
        {obs::provenance_batch_id(obs::kNoFacility, prev_sequence),
         obs::BatchHop::kRestored, obs::kNoFacility, prev_sequence, -1.0});
  }
  return std::move(*store);
}

}  // namespace rfidsim::fleet
