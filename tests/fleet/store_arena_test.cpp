// Property and fuzz tests for the arena-backed TrackingStore.
//
// The store's shards were rewritten from one std::map node per EPC to an
// arena layout (open-addressing EPC index over dense parallel epc/timeline
// vectors). The determinism contract in store.hpp did not change: final
// state is a pure function of the multiset of ingested batches, so every
// externally visible bit must be invariant under duplicate re-delivery,
// batch arrival order, shard count, and thread count.
//
// The old implementation is gone, so these tests keep it alive as a
// REFERENCE MODEL: a std::map-based store with the same merge rule
// (sorted insert, exact-duplicate drop) and the same digest algorithm
// (SplitMix64-keyed shards don't matter to the model — the digest walks
// ascending EPC, which is exactly std::map order). A randomized fuzzer
// drives both through thousands of merges with adversarial collisions
// (small EPC range, equal timestamps, exact duplicates, late batches) and
// demands the digests, timelines and tallies agree after every round.
#include "fleet/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hpp"

namespace rfidsim::fleet {
namespace {

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader = 0,
                     std::size_t antenna = 0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  ev.antenna_index = antenna;
  return ev;
}

FacilityBatch batch(FacilityId facility, double sent, std::vector<sys::ReadEvent> events,
                    double arrival = -1.0) {
  FacilityBatch b;
  b.facility = facility;
  b.sent_time_s = sent;
  b.arrival_time_s = arrival < 0.0 ? sent : arrival;
  b.events = std::move(events);
  return b;
}

// --- Reference model ----------------------------------------------------
// The pre-arena implementation, distilled: ordered map of timelines, the
// published merge rule, the published digest. Deliberately naive — its only
// job is to be obviously correct.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

struct ReferenceStore {
  std::map<std::uint64_t, std::vector<Sighting>> timelines;
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t repairs = 0;

  void ingest(const FacilityBatch& b) {
    for (const sys::ReadEvent& ev : b.events) {
      const Sighting s{ev.time_s, b.facility, static_cast<std::uint16_t>(ev.reader_index),
                       static_cast<std::uint16_t>(ev.antenna_index)};
      std::vector<Sighting>& tl = timelines[ev.tag.value];
      const auto pos = std::lower_bound(tl.begin(), tl.end(), s, sighting_less);
      if (pos != tl.end() && *pos == s) {
        ++duplicates;
        continue;
      }
      if (pos != tl.end()) ++repairs;
      tl.insert(pos, s);
      ++accepted;
    }
  }

  std::uint64_t digest() const {
    std::uint64_t hash = kFnvOffset;
    for (const auto& [epc, tl] : timelines) {
      hash = fnv1a(hash, epc);
      hash = fnv1a(hash, tl.size());
      for (const Sighting& s : tl) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &s.time_s, sizeof(bits));
        hash = fnv1a(hash, bits);
        hash = fnv1a(hash, (static_cast<std::uint64_t>(s.facility) << 32) |
                               (static_cast<std::uint64_t>(s.reader) << 16) | s.antenna);
      }
    }
    return hash;
  }
};

/// Full-state comparison, not just the digest: digests prove bit-equality
/// only if the digested walk covers everything, so also cross-check the
/// query surface the digest summarises.
void expect_matches_reference(const TrackingStore& store, const ReferenceStore& ref) {
  ASSERT_EQ(store.digest(), ref.digest());
  EXPECT_EQ(store.tag_count(), ref.timelines.size());
  EXPECT_EQ(store.stats().accepted, ref.accepted);
  EXPECT_EQ(store.stats().duplicates, ref.duplicates);
  EXPECT_EQ(store.stats().repairs, ref.repairs);
  std::size_t sightings = 0;
  for (const auto& [epc, tl] : ref.timelines) {
    sightings += tl.size();
    const std::vector<Sighting>* stored = store.timeline(scene::TagId{epc});
    ASSERT_NE(stored, nullptr) << "epc " << epc;
    EXPECT_EQ(*stored, tl) << "epc " << epc;
  }
  EXPECT_EQ(store.sighting_count(), sightings);
}

/// Adversarial batch: EPCs drawn from a small range (hash collisions and
/// shared timelines guaranteed), timestamps quantized to a coarse grid
/// (equal-time tie-breaks exercised), a slice of events duplicated exactly.
/// Half the EPCs move above bit 48, where they differ only in their top
/// bytes, so the digest's and visit_shard's EPC ranks run through the high
/// radix digits as well as the low ones.
FacilityBatch fuzz_batch(Rng& rng, double base_time) {
  std::vector<sys::ReadEvent> events;
  const std::int64_t count = rng.uniform_int(0, 120);  // includes empty batches
  for (std::int64_t e = 0; e < count; ++e) {
    const double t = base_time + 0.25 * static_cast<double>(rng.uniform_int(0, 40));
    std::uint64_t epc = static_cast<std::uint64_t>(rng.uniform_int(1, 60));
    if (rng.bernoulli(0.5)) epc = (epc << 48) | 0x2a;
    const auto reader = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const auto antenna = static_cast<std::size_t>(rng.uniform_int(0, 3));
    events.push_back(event(t, epc, reader, antenna));
  }
  // Re-deliver a prefix of this batch inside itself: exact duplicates that
  // must be dropped with the duplicates counter ticking.
  const std::int64_t dupes = events.empty() ? 0 : rng.uniform_int(0, 10);
  for (std::int64_t d = 0; d < dupes; ++d) {
    events.push_back(events[static_cast<std::size_t>(d) % events.size()]);
  }
  const double sent = base_time + 10.0;
  const double arrival = rng.bernoulli(0.2) ? sent + rng.uniform(0.1, 30.0) : sent;
  return batch(static_cast<FacilityId>(rng.uniform_int(0, 4)), sent, std::move(events),
               arrival);
}

std::vector<FacilityBatch> fuzz_batches(Rng& rng, std::size_t count) {
  std::vector<FacilityBatch> batches;
  for (std::size_t b = 0; b < count; ++b) {
    batches.push_back(fuzz_batch(rng, static_cast<double>(b)));
  }
  return batches;
}

TEST(StoreArenaTest, MergeFuzzerMatchesReferenceModel) {
  // 24 independent universes x 8 ingest rounds, each round cross-checked.
  // Store configs rotate through shard/thread combinations so arena growth,
  // rehashing and the parallel merge path all run against the model.
  Rng universes(0xa7e4'a0f0'0dULL);
  for (std::uint64_t u = 0; u < 24; ++u) {
    Rng rng = universes.fork(u);
    const StoreConfig config{
        static_cast<std::size_t>(rng.uniform_int(1, 64)),  // shard_count
        static_cast<std::size_t>(rng.uniform_int(1, 4)),   // threads
    };
    TrackingStore store(config);
    ReferenceStore ref;
    for (std::size_t round = 0; round < 8; ++round) {
      const std::vector<FacilityBatch> batches =
          fuzz_batches(rng, static_cast<std::size_t>(rng.uniform_int(1, 6)));
      store.ingest(batches);
      for (const FacilityBatch& b : batches) ref.ingest(b);
      expect_matches_reference(store, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(StoreArenaTest, DuplicateIngestIsIdempotent) {
  Rng rng(77);
  const std::vector<FacilityBatch> batches = fuzz_batches(rng, 12);
  TrackingStore store(StoreConfig{16, 1});
  store.ingest(batches);
  const std::uint64_t digest = store.digest();
  const std::uint64_t accepted = store.stats().accepted;
  const std::size_t sightings = store.sighting_count();
  ASSERT_GT(sightings, 0u);

  store.ingest(batches);  // whole-workload re-delivery
  EXPECT_EQ(store.digest(), digest);
  EXPECT_EQ(store.stats().accepted, accepted);
  EXPECT_EQ(store.sighting_count(), sightings);
  // Every offered event was either accepted or dropped as an exact
  // duplicate, and the re-delivery accepted nothing.
  EXPECT_EQ(store.stats().duplicates, store.stats().events - accepted);
}

TEST(StoreArenaTest, ArrivalOrderInvariance) {
  Rng rng(78);
  const std::vector<FacilityBatch> batches = fuzz_batches(rng, 16);
  std::vector<FacilityBatch> reversed(batches.rbegin(), batches.rend());
  std::vector<FacilityBatch> shuffled = batches;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }

  TrackingStore forward(StoreConfig{16, 1});
  forward.ingest(batches);
  TrackingStore backward(StoreConfig{16, 1});
  for (const FacilityBatch& b : reversed) backward.ingest(b);  // one at a time
  TrackingStore random_order(StoreConfig{16, 1});
  random_order.ingest(shuffled);

  EXPECT_EQ(forward.digest(), backward.digest());
  EXPECT_EQ(forward.digest(), random_order.digest());
  EXPECT_EQ(forward.stats().accepted, backward.stats().accepted);
  EXPECT_EQ(forward.stats().accepted, random_order.stats().accepted);
  EXPECT_EQ(forward.stats().duplicates, backward.stats().duplicates);
}

TEST(StoreArenaTest, ShardCountInvariance) {
  Rng rng(79);
  const std::vector<FacilityBatch> batches = fuzz_batches(rng, 16);
  bool have_first = false;
  std::uint64_t first = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                   std::size_t{256}}) {
    TrackingStore store(StoreConfig{shards, 1});
    store.ingest(batches);
    if (!have_first) {
      first = store.digest();
      have_first = true;
    } else {
      EXPECT_EQ(store.digest(), first) << "shard_count " << shards;
    }
  }
}

TEST(StoreArenaTest, ThreadCountInvariance) {
  Rng rng(80);
  const std::vector<FacilityBatch> batches = fuzz_batches(rng, 16);
  bool have_first = false;
  std::uint64_t first = 0;
  std::uint64_t first_repairs = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    TrackingStore store(StoreConfig{32, threads});
    store.ingest(batches);
    if (!have_first) {
      first = store.digest();
      first_repairs = store.stats().repairs;
      have_first = true;
    } else {
      EXPECT_EQ(store.digest(), first) << "threads " << threads;
      EXPECT_EQ(store.stats().repairs, first_repairs) << "threads " << threads;
    }
  }
}

TEST(StoreArenaTest, ArenaGrowthPreservesTimelines) {
  // One shard, thousands of distinct EPCs: forces the open-addressing index
  // through several rehash doublings. Every timeline must survive intact.
  TrackingStore store(StoreConfig{1, 1});
  ReferenceStore ref;
  for (std::uint64_t wave = 0; wave < 4; ++wave) {
    std::vector<sys::ReadEvent> events;
    for (std::uint64_t e = 0; e < 1500; ++e) {
      events.push_back(event(static_cast<double>(wave), wave * 1500 + e + 1));
    }
    const FacilityBatch b = batch(0, static_cast<double>(wave), std::move(events));
    store.ingest(b);
    ref.ingest(b);
  }
  EXPECT_EQ(store.shard_depth(0), store.sighting_count());
  expect_matches_reference(store, ref);
}

TEST(StoreArenaTest, TailAppendBoundariesMatchReferenceModel) {
  // A sighting that sorts after its timeline's tail is appended without a
  // search; everything else goes through lower_bound. Pin the boundary:
  // equal to the tail is a duplicate, a larger tie-break at the tail's
  // time is a plain append, a smaller one is a repair.
  const std::vector<FacilityBatch> first = {
      batch(1, 5.0, {event(1.0, 100, 1, 1), event(1.0, 200, 1, 1), event(1.0, 300, 1, 1)})};
  // 24 events on EPC 400 in one batch: the shard's prefetch window runs
  // over the very timeline being appended to. Event 20 repeats the tail,
  // 21 repairs the middle, 22 repeats a middle sighting.
  std::vector<sys::ReadEvent> run;
  for (int k = 0; k < 20; ++k) run.push_back(event(2.0 + 0.125 * k, 400));
  run.push_back(event(2.0 + 0.125 * 19, 400));
  run.push_back(event(2.0 + 0.125 * 5, 400, 0, 1));
  run.push_back(event(2.0 + 0.125 * 3, 400));
  run.push_back(event(10.0, 400));
  const std::vector<FacilityBatch> second = {
      batch(1, 6.0,
            {event(1.0, 100, 1, 1),    // equals the tail: duplicate
             event(1.0, 200, 1, 2),    // larger antenna: append
             event(1.0, 300, 0, 5)}),  // smaller reader: repair
      batch(2, 6.0, {event(1.0, 100, 0, 0)}),  // larger facility: append
      batch(0, 6.0, {event(1.0, 300, 9, 9)}),  // smaller facility: repair
      batch(1, 6.0, run)};

  ReferenceStore ref;
  for (const FacilityBatch& b : first) ref.ingest(b);
  for (const FacilityBatch& b : second) ref.ingest(b);
  EXPECT_EQ(ref.accepted, 29u);
  EXPECT_EQ(ref.duplicates, 3u);
  EXPECT_EQ(ref.repairs, 3u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << "shards " << shards << " threads " << threads);
      TrackingStore store(StoreConfig{shards, threads});
      store.ingest(first);
      store.ingest(second);
      expect_matches_reference(store, ref);
    }
  }
}

TEST(StoreArenaTest, VisitShardWalksAscendingEpcs) {
  // visit_shard's ascending order comes from the lazily rebuilt by_epc
  // permutation; interleave inserts and visits so a stale permutation (the
  // arena's one genuinely new failure mode) would surface.
  Rng rng(81);
  TrackingStore store(StoreConfig{8, 1});
  for (std::size_t round = 0; round < 4; ++round) {
    store.ingest(fuzz_batch(rng, static_cast<double>(round)));
    std::vector<std::uint64_t> visited;
    for (std::size_t s = 0; s < store.config().shard_count; ++s) {
      std::uint64_t previous = 0;
      store.visit_shard(s, [&](std::uint64_t epc, const std::vector<Sighting>& tl) {
        EXPECT_GT(epc, previous) << "shard " << s;  // strictly ascending
        EXPECT_FALSE(tl.empty());
        previous = epc;
        visited.push_back(epc);
      });
    }
    std::sort(visited.begin(), visited.end());
    const std::vector<scene::TagId> tags = store.tags();
    ASSERT_EQ(visited.size(), tags.size());
    for (std::size_t i = 0; i < tags.size(); ++i) {
      EXPECT_EQ(visited[i], tags[i].value);
    }
  }
}

}  // namespace
}  // namespace rfidsim::fleet
