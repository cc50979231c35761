#include "fleet/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fleet/store.hpp"
#include "wire/wire.hpp"

namespace rfidsim::fleet {
namespace {

FacilityBatch make_batch(Rng& rng, FacilityId facility, double t0,
                         std::size_t events, std::uint64_t tag_pool) {
  FacilityBatch batch;
  batch.facility = facility;
  double t = t0;
  for (std::size_t i = 0; i < events; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(tag_pool)))};
    t += rng.uniform(0.0, 0.01);
    ev.time_s = t;
    ev.reader_index = static_cast<std::size_t>(rng.uniform_int(0, 2));
    ev.antenna_index = static_cast<std::size_t>(rng.uniform_int(0, 3));
    batch.events.push_back(ev);
  }
  batch.sent_time_s = t;
  batch.arrival_time_s = t;
  return batch;
}

TrackingStore populated_store(std::uint64_t seed, std::size_t batches,
                              StoreConfig config = {16, 1}) {
  TrackingStore store(config);
  Rng rng(seed);
  for (std::size_t b = 0; b < batches; ++b) {
    store.ingest(make_batch(rng, static_cast<FacilityId>(b % 3),
                            static_cast<double>(b), 40, 200));
  }
  return store;
}

void expect_equal_stats(const StoreStats& a, const StoreStats& b) {
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.late_batches, b.late_batches);
}

TEST(CheckpointTest, FullSnapshotRestoresDigestIdentical) {
  const TrackingStore store = populated_store(1, 20);
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.full(store);
  EXPECT_EQ(cp.last_stats().shards_written, store.config().shard_count);
  EXPECT_EQ(cp.last_stats().shards_skipped, 0u);
  EXPECT_FALSE(cp.last_stats().incremental);

  const TrackingStore restored = restore_checkpoint(snap);
  EXPECT_EQ(restored.digest(), store.digest());
  EXPECT_EQ(restored.tag_count(), store.tag_count());
  EXPECT_EQ(restored.sighting_count(), store.sighting_count());
  expect_equal_stats(restored.stats(), store.stats());
}

TEST(CheckpointTest, RestoredStoreKeepsIngestingIdentically) {
  // Crash-recovery's real bar: the restored store must be *functionally*
  // the pre-crash store, so ingesting the post-crash tail of the workload
  // converges to the uninterrupted run, digest for digest.
  TrackingStore live = populated_store(2, 10);
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.full(live);
  TrackingStore recovered = restore_checkpoint(snap);

  Rng tail_a(77), tail_b(77);
  for (std::size_t b = 0; b < 10; ++b) {
    live.ingest(make_batch(tail_a, 1, 100.0 + static_cast<double>(b), 30, 150));
    recovered.ingest(make_batch(tail_b, 1, 100.0 + static_cast<double>(b), 30, 150));
  }
  EXPECT_EQ(recovered.digest(), live.digest());
  expect_equal_stats(recovered.stats(), live.stats());
}

TEST(CheckpointTest, RestoreIsThreadCountInvariant) {
  const TrackingStore store = populated_store(3, 16, {32, 1});
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.full(store);
  const TrackingStore serial = restore_checkpoint(snap, 1);
  const TrackingStore threaded = restore_checkpoint(snap, 4);
  EXPECT_EQ(serial.digest(), store.digest());
  EXPECT_EQ(threaded.digest(), store.digest());
}

TEST(CheckpointTest, IncrementalChainRestoresAndSkipsCleanShards) {
  TrackingStore store = populated_store(4, 12, {64, 1});
  Checkpointer cp;
  std::vector<std::uint8_t> stream = cp.full(store);

  // A tiny follow-up ingest touches few shards; the incremental must skip
  // the rest and the concatenated chain must restore the updated store.
  Rng rng(5);
  FacilityBatch small;
  small.facility = 2;
  sys::ReadEvent ev;
  ev.tag = scene::TagId{7};
  ev.time_s = 500.0;
  small.events.push_back(ev);
  small.sent_time_s = small.arrival_time_s = 500.0;
  store.ingest(small);

  const std::vector<std::uint8_t> inc = cp.incremental(store);
  EXPECT_TRUE(cp.last_stats().incremental);
  EXPECT_EQ(cp.last_stats().sequence, 1u);
  EXPECT_LT(cp.last_stats().shards_written, store.config().shard_count);
  EXPECT_GT(cp.last_stats().shards_skipped, 0u);
  EXPECT_LT(inc.size(), stream.size());  // The point of incrementals.

  stream.insert(stream.end(), inc.begin(), inc.end());
  const TrackingStore restored = restore_checkpoint(stream);
  EXPECT_EQ(restored.digest(), store.digest());
  expect_equal_stats(restored.stats(), store.stats());
}

TEST(CheckpointTest, FirstIncrementalDegradesToFull) {
  const TrackingStore store = populated_store(6, 8);
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.incremental(store);
  EXPECT_FALSE(cp.last_stats().incremental);
  EXPECT_EQ(restore_checkpoint(snap).digest(), store.digest());
}

TEST(CheckpointTest, NoOpIncrementalWritesNoShards) {
  const TrackingStore store = populated_store(7, 8);
  Checkpointer cp;
  std::vector<std::uint8_t> chain = cp.full(store);
  const std::vector<std::uint8_t> noop = cp.incremental(store);
  EXPECT_EQ(cp.last_stats().shards_written, 0u);
  EXPECT_EQ(cp.last_stats().shards_skipped, store.config().shard_count);
  // Header + end only; restoring full + no-op inc still verifies.
  chain.insert(chain.end(), noop.begin(), noop.end());
  EXPECT_EQ(restore_checkpoint(chain).digest(), store.digest());
}

std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = kFnvBasis;
  for (const std::uint8_t b : bytes) hash = (hash ^ b) * 1099511628211ULL;
  return hash;
}

/// A full snapshot and a follow-up incremental of a seeded multi-facility
/// store fed late, out-of-order and re-delivered batches.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>> pinned_snapshots(
    std::size_t threads) {
  TrackingStore store(StoreConfig{16, threads});
  Rng rng(2007);
  std::vector<FacilityBatch> batches;
  for (std::size_t b = 0; b < 24; ++b) {
    FacilityBatch batch = make_batch(rng, static_cast<FacilityId>(b % 4),
                                     5.0 * static_cast<double>(b), 60, 300);
    if (b % 5 == 3) batch.arrival_time_s += 2.5;  // Delayed in transit.
    batches.push_back(std::move(batch));
  }
  // Even batches first, then the odd ones they overtook (mid-timeline
  // repairs), then a re-delivery of the first eight (duplicates).
  std::vector<FacilityBatch> even, odd;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    (b % 2 == 0 ? even : odd).push_back(batches[b]);
  }
  store.ingest(even);
  store.ingest(odd);
  store.ingest(std::vector<FacilityBatch>(batches.begin(), batches.begin() + 8));

  Checkpointer cp;
  std::vector<std::uint8_t> full = cp.full(store);
  // A small late batch, then its re-delivery: few shards change.
  const FacilityBatch tail = make_batch(rng, 1, 40.0, 6, 300);
  store.ingest(tail);
  store.ingest(tail);
  std::vector<std::uint8_t> inc = cp.incremental(store);
  EXPECT_TRUE(cp.last_stats().incremental);
  EXPECT_GT(cp.last_stats().shards_skipped, 0u);
  return {std::move(full), std::move(inc)};
}

TEST(CheckpointTest, SnapshotBytesArePinnedAtEveryThreadCount) {
  // Restore tests compare digests only, which a different but valid
  // encoding would pass. Pin the bytes themselves: identical at every
  // store thread count, and equal to what the serial writer produced
  // before shards were encoded in parallel.
  const auto serial = pinned_snapshots(1);
  EXPECT_EQ(serial.first.size(), 17136u);
  EXPECT_EQ(fnv1a_bytes(serial.first), 0xa9d379048d20b929ULL);
  EXPECT_EQ(serial.second.size(), 6621u);
  EXPECT_EQ(fnv1a_bytes(serial.second), 0x014acf748a0ffecdULL);
  for (const std::size_t threads : {2u, 4u, 0u}) {
    const auto parallel = pinned_snapshots(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads " << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads " << threads;
  }
}

TEST(CheckpointTest, EmptyStoreRoundTrips) {
  const TrackingStore store{StoreConfig{8, 1}};
  Checkpointer cp;
  const TrackingStore restored = restore_checkpoint(cp.full(store));
  EXPECT_EQ(restored.digest(), store.digest());
  EXPECT_EQ(restored.tag_count(), 0u);
}

// --- Typed failure taxonomy ------------------------------------------------

TEST(CheckpointErrorTest, EmptyStreamIsMissingHeader) {
  try {
    (void)restore_checkpoint(nullptr, 0);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMissingHeader);
    EXPECT_STREQ(checkpoint_error_name(e.kind()), "missing_header");
  }
}

TEST(CheckpointErrorTest, StreamEndingMidSnapshotIsMissingEnd) {
  const TrackingStore store = populated_store(8, 6);
  Checkpointer cp;
  std::vector<std::uint8_t> snap = cp.full(store);
  // Drop the end frame (11 bytes: varint count <= 2 + digest 8 + overhead 9
  // — find it precisely by re-scanning frames).
  std::size_t last_frame_at = 0, offset = 0;
  while (offset < snap.size()) {
    const wire::DecodeResult res = wire::next_frame(snap, offset);
    ASSERT_TRUE(res.ok);
    last_frame_at = offset;
    offset = res.next_offset;
  }
  snap.resize(last_frame_at);
  try {
    (void)restore_checkpoint(snap);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMissingEnd);
  }
}

TEST(CheckpointErrorTest, SequenceGapInChainIsBadSequence) {
  TrackingStore store = populated_store(9, 6);
  Checkpointer cp;
  std::vector<std::uint8_t> chain = cp.full(store);
  Rng rng(1);
  store.ingest(make_batch(rng, 0, 50.0, 10, 50));
  (void)cp.incremental(store);  // Sequence 1, deliberately dropped.
  store.ingest(make_batch(rng, 0, 60.0, 10, 50));
  const std::vector<std::uint8_t> inc2 = cp.incremental(store);  // Sequence 2.
  chain.insert(chain.end(), inc2.begin(), inc2.end());
  try {
    (void)restore_checkpoint(chain);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadSequence);
  }
}

TEST(CheckpointErrorTest, ForgedDigestIsDigestMismatch) {
  const TrackingStore store = populated_store(10, 6);
  Checkpointer cp;
  std::vector<std::uint8_t> snap = cp.full(store);
  // Rewrite the end frame with a wrong digest (keeping its CRC valid, so
  // only the semantic check can catch it).
  std::size_t last_frame_at = 0, offset = 0;
  while (offset < snap.size()) {
    const wire::DecodeResult res = wire::next_frame(snap, offset);
    ASSERT_TRUE(res.ok);
    last_frame_at = offset;
    offset = res.next_offset;
  }
  snap.resize(last_frame_at);
  std::vector<std::uint8_t> payload;
  wire::put_varint(payload, store.config().shard_count);
  wire::put_u64le(payload, store.digest() ^ 1);
  wire::append_frame(snap, wire::OpCode::kCheckpointEnd, payload);
  try {
    (void)restore_checkpoint(snap);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kDigestMismatch);
  }
}

TEST(CheckpointErrorTest, ChainStartingWithIncrementalIsBadSequence) {
  // Hand-forge an incremental header with nothing before it.
  std::vector<std::uint8_t> payload;
  payload.push_back(1);  // kind = incremental
  wire::put_varint(payload, 0);  // sequence
  wire::put_varint(payload, 4);  // shard count
  for (int i = 0; i < 6; ++i) wire::put_varint(payload, 0);  // stats
  std::vector<std::uint8_t> stream =
      wire::make_frame(wire::OpCode::kCheckpointHeader, payload);
  try {
    (void)restore_checkpoint(stream);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadSequence);
  }
}

TEST(CheckpointErrorTest, EventBatchFrameBeforeHeaderIsMissingHeader) {
  const std::vector<std::uint8_t> stream =
      wire::make_frame(wire::OpCode::kEventBatch, {1, 2, 3});
  try {
    (void)restore_checkpoint(stream);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMissingHeader);
  }
}

// --- Forged snapshots: streams the writer never produces, hand-encoded in
// its format, for the defects the end digest does not cover. ---------------

struct ForgedSighting {
  double time_s = 0.0;
  std::uint64_t facility = 0;
  std::uint64_t reader = 0;
  std::uint64_t antenna = 0;
};

struct ForgedShard {
  std::uint64_t index = 0;
  TrackingStore::ShardCounters counters;
  std::vector<std::pair<std::uint64_t, std::vector<ForgedSighting>>> timelines;
};

std::vector<std::uint8_t> forge_snapshot(std::uint64_t shard_count, const StoreStats& stats,
                                         const std::vector<ForgedShard>& shards,
                                         std::uint64_t digest) {
  std::vector<std::uint8_t> out, payload;
  payload.push_back(0);          // kind = full
  wire::put_varint(payload, 0);  // sequence
  wire::put_varint(payload, shard_count);
  for (const std::uint64_t v : {stats.batches, stats.events, stats.accepted, stats.duplicates,
                                stats.repairs, stats.late_batches}) {
    wire::put_varint(payload, v);
  }
  wire::append_frame(out, wire::OpCode::kCheckpointHeader, payload);
  for (const ForgedShard& shard : shards) {
    payload.clear();
    for (const std::uint64_t v :
         {shard.index, shard.counters.sightings, shard.counters.duplicates,
          shard.counters.repairs, shard.counters.version,
          static_cast<std::uint64_t>(shard.timelines.size())}) {
      wire::put_varint(payload, v);
    }
    std::uint64_t prev_epc = 0;
    for (const auto& [epc, tl] : shard.timelines) {
      wire::put_varint(payload, epc - prev_epc);
      prev_epc = epc;
      wire::put_varint(payload, tl.size());
      std::uint64_t prev_bits = 0;
      for (const ForgedSighting& x : tl) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(x.time_s);
        wire::put_varint_signed(payload, static_cast<std::int64_t>(bits - prev_bits));
        prev_bits = bits;
        wire::put_varint(payload, x.facility);
        wire::put_varint(payload, x.reader);
        wire::put_varint(payload, x.antenna);
      }
    }
    wire::append_frame(out, wire::OpCode::kCheckpointShard, payload);
  }
  payload.clear();
  wire::put_varint(payload, shards.size());
  wire::put_u64le(payload, digest);
  wire::append_frame(out, wire::OpCode::kCheckpointEnd, payload);
  return out;
}

/// `store`'s shards, filed and counted as the writer files and counts them.
std::vector<ForgedShard> honest_shards(const TrackingStore& store) {
  std::vector<ForgedShard> shards(store.config().shard_count);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].index = s;
    shards[s].counters = store.shard_counters(s);
    store.visit_shard(s, [&](std::uint64_t epc, const std::vector<Sighting>& tl) {
      std::vector<ForgedSighting> out;
      for (const Sighting& x : tl) out.push_back({x.time_s, x.facility, x.reader, x.antenna});
      shards[s].timelines.emplace_back(epc, std::move(out));
    });
  }
  return shards;
}

/// Eight tags, one sighting each, over two shards.
TrackingStore eight_tag_store() {
  TrackingStore store{StoreConfig{2, 1}};
  FacilityBatch batch;
  batch.facility = 1;
  for (std::uint64_t tag = 1; tag <= 8; ++tag) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{tag};
    ev.time_s = static_cast<double>(tag);
    ev.reader_index = tag % 3;
    batch.events.push_back(ev);
  }
  batch.sent_time_s = batch.arrival_time_s = 9.0;
  store.ingest(batch);
  return store;
}

void expect_restore_error(const std::vector<std::uint8_t>& bytes, CheckpointErrorKind kind) {
  try {
    (void)restore_checkpoint(bytes);
    ADD_FAILURE() << "expected " << checkpoint_error_name(kind);
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

TEST(CheckpointErrorTest, ForgerMatchesTheWriter) {
  // The forged tests below mean something only if an unforged stream is
  // byte for byte what the writer emits.
  const TrackingStore store = eight_tag_store();
  Checkpointer cp;
  const std::vector<std::uint8_t> honest =
      forge_snapshot(2, store.stats(), honest_shards(store), store.digest());
  EXPECT_EQ(honest, cp.full(store));
  EXPECT_EQ(restore_checkpoint(honest).digest(), store.digest());
}

TEST(CheckpointErrorTest, MisfiledTimelinesAreShardMismatch) {
  // Every timeline filed under shard 0, whose sightings counter claims
  // 999. The end digest walks EPCs regardless of shard, so it matches; a
  // restore that accepted this would report 999 sightings for 8, lose the
  // misfiled tags to timeline(), and give each of them a second timeline
  // on the next ingest of a batch the store already holds.
  const TrackingStore store = eight_tag_store();
  std::vector<ForgedShard> shards = honest_shards(store);
  ASSERT_FALSE(shards[0].timelines.empty());
  ASSERT_FALSE(shards[1].timelines.empty());
  for (auto& timeline : shards[1].timelines) shards[0].timelines.push_back(timeline);
  shards[1].timelines.clear();
  std::sort(shards[0].timelines.begin(), shards[0].timelines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  shards[0].counters.sightings = 999;
  shards[1].counters.sightings = 0;
  expect_restore_error(forge_snapshot(2, store.stats(), shards, store.digest()),
                       CheckpointErrorKind::kShardMismatch);
}

TEST(CheckpointErrorTest, ShardSightingCounterMismatchIsBadPayload) {
  const TrackingStore store = eight_tag_store();
  std::vector<ForgedShard> shards = honest_shards(store);
  shards[1].counters.sightings += 1;
  expect_restore_error(forge_snapshot(2, store.stats(), shards, store.digest()),
                       CheckpointErrorKind::kBadPayload);
}

TEST(CheckpointErrorTest, HeaderTalliesNotSummingShardCountersAreBadPayload) {
  const TrackingStore store = eight_tag_store();
  for (std::uint64_t StoreStats::*field :
       {&StoreStats::accepted, &StoreStats::duplicates, &StoreStats::repairs}) {
    StoreStats stats = store.stats();
    stats.*field += 1;
    expect_restore_error(forge_snapshot(2, stats, honest_shards(store), store.digest()),
                         CheckpointErrorKind::kBadPayload);
  }
}

TEST(CheckpointErrorTest, OutOfRangeSightingIndexIsBadPayload) {
  const TrackingStore store = eight_tag_store();
  for (std::uint64_t ForgedSighting::*field :
       {&ForgedSighting::reader, &ForgedSighting::antenna}) {
    std::vector<ForgedShard> shards = honest_shards(store);
    shards[0].timelines.front().second.front().*field = kMaxSightingIndex + 1;
    expect_restore_error(forge_snapshot(2, store.stats(), shards, store.digest()),
                         CheckpointErrorKind::kBadPayload);
  }
}

// --- Fuzz: hostile bytes must yield a typed error or a digest-identical
// store; never a crash, never partial state. (ASan/UBSan in CI.) ----------

TEST(CheckpointFuzzTest, EverySingleBitFlipFailsTypedOrRestoresIdentical) {
  const TrackingStore store = populated_store(11, 4, {4, 1});
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.full(store);
  const std::uint64_t want = store.digest();
  std::size_t typed_failures = 0;
  for (std::size_t bit = 0; bit < snap.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = snap;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const TrackingStore restored = restore_checkpoint(damaged);
      // Extremely unlikely (CRC-16 catches all single-bit flips), but the
      // contract permits success only if the result is indistinguishable.
      EXPECT_EQ(restored.digest(), want) << "bit " << bit;
    } catch (const CheckpointError&) {
      ++typed_failures;  // The expected outcome.
    }
    // Any other exception type escapes and fails the test.
  }
  EXPECT_GT(typed_failures, snap.size());  // Nearly every flip is caught.
}

TEST(CheckpointFuzzTest, EveryTruncationFailsTyped) {
  const TrackingStore store = populated_store(12, 4, {4, 1});
  Checkpointer cp;
  const std::vector<std::uint8_t> snap = cp.full(store);
  for (std::size_t keep = 0; keep < snap.size(); ++keep) {
    try {
      (void)restore_checkpoint(snap.data(), keep);
      FAIL() << "accepted a " << keep << "-byte prefix of " << snap.size();
    } catch (const CheckpointError&) {
      // Typed, as required.
    }
  }
}

}  // namespace
}  // namespace rfidsim::fleet
