#include "fleet/checkpoint.hpp"

#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "sweep/sweep.hpp"

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

/// Longest varint of a value of unsigned type T.
template <typename T>
constexpr std::size_t max_varint_bytes() {
  return (std::numeric_limits<T>::digits + 6) / 7;
}

/// Longest encodings: a sighting (zigzag time-bit delta, facility, reader,
/// antenna), a timeline's key and count, a shard frame's six leading
/// varints, and the end frame.
constexpr std::size_t kMaxSightingBytes =
    wire::kMaxVarintBytes + max_varint_bytes<FacilityId>() +
    max_varint_bytes<decltype(Sighting::reader)>() +
    max_varint_bytes<decltype(Sighting::antenna)>();
constexpr std::size_t kMaxTimelineHeadBytes = 2 * wire::kMaxVarintBytes;
constexpr std::size_t kMaxShardHeadBytes = 6 * wire::kMaxVarintBytes;
constexpr std::size_t kMaxEndFrameBytes = wire::kFrameOverhead + wire::kMaxVarintBytes + 8;

/// One written shard's complete kCheckpointShard frame and its tallies.
struct ShardFrame {
  std::vector<std::uint8_t> bytes;
  std::size_t timelines = 0;
  std::size_t sightings = 0;
  bool closed = false;  ///< False: the payload exceeds kMaxPayloadBytes.
};

/// Encodes shard `s` into `frame`: index, counters, then its timelines
/// (EPC-delta keys, per-sighting time-bit deltas — the batch codec's
/// tricks), written through one pointer into room sized for the worst case
/// and trimmed. Runs in a sweep cell, so it must not throw: a payload too
/// large for one frame stays open and the calling thread reports it.
/// Opens no obs phase, so phase call counts do not depend on threads.
void encode_shard(const TrackingStore& store, std::size_t s, ShardFrame& frame) {
  store.visit_shard(s, [&](std::uint64_t, const std::vector<Sighting>& tl) {
    ++frame.timelines;
    frame.sightings += tl.size();
  });
  std::vector<std::uint8_t>& out = frame.bytes;
  const std::size_t at = wire::open_frame(out, wire::OpCode::kCheckpointShard);
  const std::size_t begin = out.size();
  out.resize(begin + kMaxShardHeadBytes + kMaxTimelineHeadBytes * frame.timelines +
             kMaxSightingBytes * frame.sightings);
  std::uint8_t* p = out.data() + begin;
  const TrackingStore::ShardCounters counters = store.shard_counters(s);
  p = wire::write_varint(p, s);
  p = wire::write_varint(p, counters.sightings);
  p = wire::write_varint(p, counters.duplicates);
  p = wire::write_varint(p, counters.repairs);
  p = wire::write_varint(p, counters.version);
  p = wire::write_varint(p, frame.timelines);
  std::uint64_t prev_epc = 0;
  store.visit_shard(s, [&](std::uint64_t epc, const std::vector<Sighting>& tl) {
    // EPCs stream in ascending order, so deltas stay small varints (the
    // first key's delta from 0 is the key itself).
    p = wire::write_varint(p, epc - prev_epc);
    prev_epc = epc;
    p = wire::write_varint(p, tl.size());
    // Time travels as IEEE-754 bit-pattern deltas: lossless, and
    // time-sorted timelines keep deltas compact.
    std::uint64_t prev_bits = 0;
    for (const Sighting& x : tl) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x.time_s);
      p = wire::write_varint(p, wire::zigzag(static_cast<std::int64_t>(bits - prev_bits)));
      prev_bits = bits;
      p = wire::write_varint(p, x.facility);
      p = wire::write_varint(p, x.reader);
      p = wire::write_varint(p, x.antenna);
    }
  });
  out.resize(static_cast<std::size_t>(p - out.data()));
  if (out.size() - begin > wire::kMaxPayloadBytes) return;
  wire::close_frame(out, at);
  // Every frame lives until assembly; give back the worst-case room now.
  out.shrink_to_fit();
  frame.closed = true;
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

  // Header: kind, sequence, shard roster size, ingest tallies.
  std::vector<std::uint8_t> out;
  std::size_t at = wire::open_frame(out, wire::OpCode::kCheckpointHeader);
  out.push_back(incremental ? 1 : 0);
  wire::put_varint(out, st.sequence);
  wire::put_varint(out, shard_count);
  put_stats(out, store.stats());
  wire::close_frame(out, at);

  // One frame per written shard. A full snapshot writes every shard (even
  // empty ones — predictable framing beats a few saved bytes); an
  // incremental writes only shards whose version moved since the baseline.
  std::vector<std::size_t> written;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (incremental && store.shard_version(s) == baseline_versions_[s]) {
      ++st.shards_skipped;
    } else {
      written.push_back(s);
    }
  }
  // One cell per written shard encodes its whole frame into its own
  // buffer, on the store's ingest threads. The frames join the output in
  // shard order, so the bytes are the same at every thread count.
  std::vector<ShardFrame> frames(written.size());
  sweep::parallel_for(written.size(), store.config().threads,
                      [&](std::size_t i) { encode_shard(store, written[i], frames[i]); });
  std::size_t total = out.size() + kMaxEndFrameBytes;
  for (const ShardFrame& f : frames) total += f.bytes.size();
  out.reserve(total);
  for (ShardFrame& f : frames) {
    require(f.closed, "Checkpointer: shard payload exceeds wire::kMaxPayloadBytes");
    out.insert(out.end(), f.bytes.begin(), f.bytes.end());
    f.bytes = std::vector<std::uint8_t>();  // Free as we go.
    ++st.shards_written;
    st.timelines_written += f.timelines;
    st.sightings_written += f.sightings;
  }

  // End: shard frames written and the whole-store digest at snapshot time.
  // The digest always covers the full store, so restoring a chain proves
  // every link end-to-end, not just the shards the link carried.
  at = wire::open_frame(out, wire::OpCode::kCheckpointEnd);
  wire::put_varint(out, st.shards_written);
  wire::put_u64le(out, store.digest());
  wire::close_frame(out, at);

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
        std::uint64_t decoded = 0;  // Sightings across this frame's timelines.
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
          // The digest walks EPCs regardless of shard, so only this check
          // keeps a misfiled timeline (unreachable by lookup, duplicated by
          // the next ingest of its tag) out of the store.
          if (store->shard_of(scene::TagId{epc}) != index) {
            fail(CheckpointErrorKind::kShardMismatch,
                 "checkpoint: timeline " + std::to_string(epc) +
                     " filed under shard " + std::to_string(index));
          }
          std::uint64_t n = 0;
          if (!r.get_varint(n) || n == 0 || n > r.size - r.pos) {
            fail(CheckpointErrorKind::kBadPayload,
                 "checkpoint: implausible sighting count");
          }
          decoded += n;
          std::vector<Sighting> tl;
          tl.reserve(static_cast<std::size_t>(n));
          std::uint64_t prev_bits = 0;
          for (std::uint64_t j = 0; j < n; ++j) {
            std::int64_t dbits = 0;
            std::uint64_t facility = 0, reader = 0, antenna = 0;
            if (!r.get_varint_signed(dbits) || !r.get_varint(facility) ||
                !r.get_varint(reader) || !r.get_varint(antenna) ||
                facility > std::numeric_limits<FacilityId>::max() ||
                reader > kMaxSightingIndex || antenna > kMaxSightingIndex) {
              fail(CheckpointErrorKind::kBadPayload,
                   "checkpoint: malformed sighting");
            }
            const std::uint64_t bits =
                prev_bits + static_cast<std::uint64_t>(dbits);
            prev_bits = bits;
            tl.push_back(Sighting{std::bit_cast<double>(bits),
                                  static_cast<FacilityId>(facility),
                                  static_cast<std::uint16_t>(reader),
                                  static_cast<std::uint16_t>(antenna)});
          }
          timelines.emplace_back(epc, std::move(tl));
        }
        if (!r.done()) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: trailing bytes after shard payload");
        }
        if (decoded != counters.sightings) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: shard " + std::to_string(index) + " claims " +
                   std::to_string(counters.sightings) + " sightings, holds " +
                   std::to_string(decoded));
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
        // The digest covers timelines, not tallies: the header's must be
        // the sums of the shard counters, as ingest keeps them.
        TrackingStore::ShardCounters sum;
        for (std::size_t s = 0; s < shard_count; ++s) {
          const TrackingStore::ShardCounters c = store->shard_counters(s);
          sum.sightings += c.sightings;
          sum.duplicates += c.duplicates;
          sum.repairs += c.repairs;
        }
        const StoreStats& stats = store->stats();
        if (stats.accepted != sum.sightings || stats.duplicates != sum.duplicates ||
            stats.repairs != sum.repairs) {
          fail(CheckpointErrorKind::kBadPayload,
               "checkpoint: header tallies differ from the shard counters");
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
