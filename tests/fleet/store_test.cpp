#include "fleet/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
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

/// A mixed workload: 3 facilities, 500 tags, some shared across batches.
std::vector<FacilityBatch> workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FacilityBatch> batches;
  for (std::size_t b = 0; b < 40; ++b) {
    std::vector<sys::ReadEvent> events;
    const double base = static_cast<double>(b) * 5.0;
    for (std::size_t e = 0; e < 200; ++e) {
      events.push_back(event(base + rng.uniform(0.0, 5.0),
                             static_cast<std::uint64_t>(rng.uniform_int(1, 500)),
                             static_cast<std::size_t>(rng.uniform_int(0, 2)),
                             static_cast<std::size_t>(rng.uniform_int(0, 3))));
    }
    batches.push_back(batch(static_cast<FacilityId>(b % 3), base + 5.0,
                            std::move(events)));
  }
  return batches;
}

TEST(TrackingStoreTest, TimelinesAreTimeSortedRegardlessOfArrivalOrder) {
  TrackingStore store;
  store.ingest(batch(0, 10.0, {event(9.0, 7), event(9.5, 7)}));
  store.ingest(batch(1, 5.0, {event(4.0, 7), event(4.5, 7)}));  // Late delivery.
  const auto* tl = store.timeline(scene::TagId{7});
  ASSERT_NE(tl, nullptr);
  ASSERT_EQ(tl->size(), 4u);
  EXPECT_TRUE(std::is_sorted(tl->begin(), tl->end(), sighting_less));
  EXPECT_DOUBLE_EQ(tl->front().time_s, 4.0);
  EXPECT_EQ(tl->front().facility, 1u);
  // The second ingest inserted ahead of existing sightings: repairs.
  EXPECT_EQ(store.stats().repairs, 2u);
}

TEST(TrackingStoreTest, ExactRedeliveryIsIdempotent) {
  const FacilityBatch b = batch(0, 1.0, {event(0.2, 1), event(0.4, 2), event(0.6, 1)});
  TrackingStore store;
  store.ingest(b);
  const std::uint64_t digest_once = store.digest();
  EXPECT_EQ(store.stats().accepted, 3u);
  store.ingest(b);  // Middleware re-delivered the whole batch.
  EXPECT_EQ(store.digest(), digest_once);
  EXPECT_EQ(store.stats().accepted, 3u);
  EXPECT_EQ(store.stats().duplicates, 3u);
  EXPECT_EQ(store.sighting_count(), 3u);
}

TEST(TrackingStoreTest, DigestInvariantAcrossThreadsShardsAndBatchOrder) {
  const std::vector<FacilityBatch> batches = workload(42);

  auto digest_with = [&](std::size_t shards, std::size_t threads,
                         bool reversed) {
    StoreConfig config;
    config.shard_count = shards;
    config.threads = threads;
    TrackingStore store(config);
    if (reversed) {
      const std::vector<FacilityBatch> rev(batches.rbegin(), batches.rend());
      store.ingest(rev);
    } else {
      store.ingest(batches);
    }
    return store.digest();
  };

  const std::uint64_t reference = digest_with(64, 1, false);
  EXPECT_EQ(digest_with(64, 4, false), reference);
  EXPECT_EQ(digest_with(64, 0, false), reference);  // Shared sweep engine.
  EXPECT_EQ(digest_with(1, 1, false), reference);
  EXPECT_EQ(digest_with(7, 2, false), reference);
  EXPECT_EQ(digest_with(64, 1, true), reference);   // Arrival order reversed.
  EXPECT_EQ(digest_with(64, 4, true), reference);
}

TEST(TrackingStoreTest, LastSightingAtRespectsQueryTime) {
  TrackingStore store;
  store.ingest(batch(2, 3.0, {event(1.0, 9), event(2.0, 9), event(3.0, 9)}));
  EXPECT_FALSE(store.last_sighting_at(scene::TagId{9}, 0.5).has_value());
  const auto at_exact = store.last_sighting_at(scene::TagId{9}, 2.0);
  ASSERT_TRUE(at_exact.has_value());
  EXPECT_DOUBLE_EQ(at_exact->time_s, 2.0);
  const auto after = store.last_sighting_at(scene::TagId{9}, 99.0);
  ASSERT_TRUE(after.has_value());
  EXPECT_DOUBLE_EQ(after->time_s, 3.0);
  EXPECT_FALSE(store.last_sighting_at(scene::TagId{1234}, 1.0).has_value());
}

TEST(TrackingStoreTest, CountsLateBatches) {
  TrackingStore store;
  store.ingest(batch(0, 1.0, {event(0.5, 1)}));             // On time.
  store.ingest(batch(0, 2.0, {event(1.5, 2)}, 7.5));        // Delayed in transit.
  EXPECT_EQ(store.stats().late_batches, 1u);
  EXPECT_EQ(store.stats().batches, 2u);
}

TEST(TrackingStoreTest, TagsAscendAndShardDepthsSumToSightings) {
  const std::vector<FacilityBatch> batches = workload(7);
  StoreConfig config;
  config.shard_count = 16;
  TrackingStore store(config);
  store.ingest(batches);

  const std::vector<scene::TagId> tags = store.tags();
  EXPECT_EQ(tags.size(), store.tag_count());
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));

  std::size_t depth_sum = 0;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    depth_sum += store.shard_depth(s);
  }
  EXPECT_EQ(depth_sum, store.sighting_count());
  for (const scene::TagId tag : tags) {
    EXPECT_LT(store.shard_of(tag), config.shard_count);
    ASSERT_NE(store.timeline(tag), nullptr);
  }
}

TEST(TrackingStoreTest, OutOfRangeIndexThrowsAndLeavesStoreUntouched) {
  // digest() folds reader << 16 | antenna, so index 65536 would alias
  // another sighting: ingest refuses it before any shard changes.
  TrackingStore store{StoreConfig{8, 2}};
  const std::vector<FacilityBatch> batches = workload(5);
  store.ingest(batches);
  const std::uint64_t digest = store.digest();
  const StoreStats stats = store.stats();
  const std::size_t sightings = store.sighting_count();

  const std::vector<sys::ReadEvent> ok = {event(300.0, 1, 2, 3), event(301.0, 9999)};
  for (const sys::ReadEvent& bad :
       {event(302.0, 7, kMaxSightingIndex + 1, 0), event(302.0, 7, 0, kMaxSightingIndex + 1)}) {
    std::vector<sys::ReadEvent> events = ok;
    events.push_back(bad);
    EXPECT_THROW(store.ingest(std::vector<FacilityBatch>{batches[0], batch(1, 303.0, events)}),
                 ConfigError);
    EXPECT_EQ(store.digest(), digest);
    EXPECT_EQ(store.sighting_count(), sightings);
    EXPECT_EQ(store.stats().batches, stats.batches);
    EXPECT_EQ(store.stats().events, stats.events);
    EXPECT_EQ(store.stats().accepted, stats.accepted);
    EXPECT_EQ(store.stats().duplicates, stats.duplicates);
    EXPECT_EQ(store.timeline(scene::TagId{9999}), nullptr);
  }
  // The top of the range is accepted and stored as given.
  store.ingest(batch(2, 304.0, {event(304.0, 11, kMaxSightingIndex, kMaxSightingIndex)}));
  const std::vector<Sighting>* tl = store.timeline(scene::TagId{11});
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(tl->back().reader, kMaxSightingIndex);
  EXPECT_EQ(tl->back().antenna, kMaxSightingIndex);
}

TEST(TrackingStoreTest, RejectsZeroShards) {
  StoreConfig config;
  config.shard_count = 0;
  EXPECT_THROW(TrackingStore{config}, ConfigError);
}

}  // namespace
}  // namespace rfidsim::fleet
