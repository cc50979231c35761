// FacilityFeed over the wire-framed uplink: corruption is detected and
// recovered (or quarantined with a typed alert), staleness is observable,
// and a clean channel is bit-identical to the pre-wire path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/feed.hpp"
#include "fleet/store.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"

namespace rfidsim::fleet {
namespace {

/// With -DRFIDSIM_OBS=OFF every hook compiles to a constant false; the
/// counter-delta checks then assert that nothing moves.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kHooksLive = false;
#else
constexpr bool kHooksLive = true;
#endif

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader = 0,
                     std::size_t antenna = 0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  ev.antenna_index = antenna;
  return ev;
}

FeedConfig feed_config(std::size_t readers, std::size_t objects) {
  FeedConfig config;
  config.ingest.reader_count = readers;
  config.objects_total = objects;
  config.ingest.silence_gap_s = 3.0;
  return config;
}

sys::EventLog full_pass(const std::vector<std::uint64_t>& tags, std::size_t readers,
                        double begin_s, double width_s = 10.0) {
  sys::EventLog log;
  const std::size_t count = tags.size() * readers * 2;
  const double dt = (width_s - 0.2) / static_cast<double>(count);
  double t = begin_s + 0.1;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    for (const std::uint64_t tag : tags) {
      for (std::size_t r = 0; r < readers; ++r) {
        log.push_back(event(t, tag, r));
        t += dt;
      }
    }
  }
  return log;
}

TEST(FeedWireTest, CleanChannelCountsFramesAndNothingElse) {
  FacilityFeed feed(feed_config(2, 3));
  TrackingStore store;
  Rng rng(1);
  const FeedPassResult result =
      feed.ingest_pass(store, full_pass({1, 2, 3}, 2, 0.0), 0.0, 10.0, rng);
  EXPECT_GT(result.frames_sent, 0u);
  EXPECT_EQ(result.corrupt_frames, 0u);
  EXPECT_EQ(result.recovered_batches, 0u);
  EXPECT_EQ(result.quarantined_batches, 0u);
  EXPECT_EQ(result.stale_batches, 0u);
  EXPECT_EQ(feed.wire_stats().undetected_corruptions, 0u);
  EXPECT_EQ(feed.monitor().first_alert(obs::AlertType::kWireCorruption), nullptr);
  EXPECT_EQ(feed.monitor().first_alert(obs::AlertType::kStaleBatch), nullptr);
}

TEST(FeedWireTest, CorruptionIsDetectedRecoveredAndAlerted) {
  FeedConfig config = feed_config(2, 4);
  config.uploader.batch_size = 16;
  config.uploader.max_nak_retransmits = 16;  // Deep budget: recovery certain.
  // ~0.65 expected flips per ~160-byte frame: about half the frames arrive
  // damaged, and 17 tries at ~50% clean make quarantine astronomically rare.
  config.wire_corruption.bit_error_rate = 5e-4;
  FacilityFeed dirty(config);
  FacilityFeed clean(feed_config(2, 4));
  TrackingStore dirty_store, clean_store;

  Rng rng_a(3), rng_b(3);
  std::size_t corrupt_total = 0, recovered_total = 0;
  for (std::size_t pass = 0; pass < 12; ++pass) {
    const double begin = 20.0 * static_cast<double>(pass);
    const sys::EventLog log = full_pass({1, 2, 3, 4}, 2, begin);
    const FeedPassResult r =
        dirty.ingest_pass(dirty_store, log, begin, begin + 10.0, rng_a);
    clean.ingest_pass(clean_store, log, begin, begin + 10.0, rng_b);
    corrupt_total += r.corrupt_frames;
    recovered_total += r.recovered_batches;
  }
  // The channel really did damage frames, the receiver caught every one,
  // and retransmission recovered every batch...
  EXPECT_GT(corrupt_total, 0u);
  EXPECT_GT(recovered_total, 0u);
  EXPECT_EQ(dirty.wire_stats().batches_quarantined, 0u);
  EXPECT_EQ(dirty.wire_stats().undetected_corruptions, 0u);
  // ...so the stored truth is *bit-identical* to the clean channel's: the
  // end-to-end integrity contract in one assertion.
  EXPECT_EQ(dirty_store.digest(), clean_store.digest());
  // And the monitor raised the typed transport alert.
  const obs::Alert* alert =
      dirty.monitor().first_alert(obs::AlertType::kWireCorruption);
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->reader, -1);
  EXPECT_EQ(alert->detector, "wire");
}

TEST(FeedWireTest, ExhaustedNakBudgetQuarantinesWithTypedAlert) {
  FeedConfig config = feed_config(1, 2);
  config.uploader.batch_size = 8;
  config.uploader.max_nak_retransmits = 0;       // One shot per batch.
  config.wire_corruption.bit_error_rate = 5e-2;  // Almost every frame dies.
  FacilityFeed feed(config);
  TrackingStore store;
  Rng rng(5);
  const FeedPassResult result =
      feed.ingest_pass(store, full_pass({1, 2}, 1, 0.0), 0.0, 10.0, rng);
  EXPECT_GT(result.quarantined_batches, 0u);
  EXPECT_EQ(feed.wire_stats().undetected_corruptions, 0u);
  // Quarantined events never reach the store.
  EXPECT_EQ(store.stats().events,
            feed.upload_stats().events_delivered);
  ASSERT_NE(feed.monitor().first_alert(obs::AlertType::kWireCorruption), nullptr);
}

TEST(FeedWireTest, EachTransportOutcomeIsCountedOnce) {
  FeedConfig config = feed_config(2, 8);
  config.facility = 7;
  config.uploader.batch_size = 4;
  config.uploader.max_nak_retransmits = 1;
  config.wire_corruption.bit_error_rate = 2e-3;  // Some recover, some don't.
  FacilityFeed feed(config);
  TrackingStore store;
  const bool saved_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& frames = obs::counter("fleet.feed.wire_frames", {{"facility", "7"}});
  obs::Counter& nak_giveups =
      obs::counter("sys.uploader.giveups", {{"reason", "nak_budget"}});
  const std::uint64_t frames_before = frames.value();
  const std::uint64_t giveups_before = nak_giveups.value();
  Rng rng(5);
  const FeedPassResult result = feed.ingest_pass(
      store, full_pass({1, 2, 3, 4, 5, 6, 7, 8}, 2, 0.0), 0.0, 10.0, rng);
  std::ostringstream exposition;
  obs::registry().write_exposition(exposition);
  obs::set_enabled(saved_enabled);
  ASSERT_GT(result.corrupt_frames, 0u);
  ASSERT_GT(result.quarantined_batches, 0u);
  // Every forwarded batch names the feed's facility.
  ASSERT_FALSE(result.batches.empty());
  for (const FacilityBatch& batch : result.batches) EXPECT_EQ(batch.facility, 7u);

  // Families that only re-counted what the feed or the uploader already
  // counts on the same call.
  for (std::string family :
       {"obs.monitor.wire_frames", "obs.monitor.wire_corrupt_frames",
        "obs.monitor.wire_recovered_batches", "obs.monitor.wire_quarantined_batches",
        "obs.monitor.stale_batches", "obs.monitor.watermark_seconds",
        "fleet.feed.lost_batches", "sys.uploader.wire_quarantined"}) {
    std::replace(family.begin(), family.end(), '.', '_');
    EXPECT_EQ(exposition.str().find("# TYPE rfidsim_" + family + " "),
              std::string::npos)
        << family;
  }
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(frames.value(), frames_before + d * result.frames_sent);
  EXPECT_EQ(nak_giveups.value(), giveups_before + d * result.quarantined_batches);
}

TEST(FeedWireTest, TotalsEqualTheSumOfPassResults) {
  // totals() reads its transport fields from the uploader's cumulative
  // stats; they must equal the per-pass deltas summed over every pass.
  FeedConfig config = feed_config(2, 8);
  config.uploader.batch_size = 4;
  config.uploader.max_retries = 0;
  config.uploader.loss_probability = 0.2;
  config.uploader.max_nak_retransmits = 1;
  config.wire_corruption.bit_error_rate = 2e-3;
  FacilityFeed feed(config);
  TrackingStore store;
  Rng rng(11);
  FeedTotals sum;
  for (std::size_t pass = 0; pass < 6; ++pass) {
    const double begin = 20.0 * static_cast<double>(pass);
    const FeedPassResult r = feed.ingest_pass(
        store, full_pass({1, 2, 3, 4, 5, 6, 7, 8}, 2, begin), begin, begin + 10.0, rng);
    sum.lost_batches += r.lost_batches;
    sum.frames_sent += r.frames_sent;
    sum.corrupt_frames += r.corrupt_frames;
    sum.recovered_batches += r.recovered_batches;
    sum.quarantined_batches += r.quarantined_batches;
  }
  const FeedTotals totals = feed.totals();
  ASSERT_GT(sum.lost_batches, 0u);
  ASSERT_GT(sum.quarantined_batches, 0u);
  EXPECT_EQ(totals.passes, 6u);
  EXPECT_EQ(totals.lost_batches, sum.lost_batches);
  EXPECT_EQ(totals.frames_sent, sum.frames_sent);
  EXPECT_EQ(totals.corrupt_frames, sum.corrupt_frames);
  EXPECT_EQ(totals.recovered_batches, sum.recovered_batches);
  EXPECT_EQ(totals.quarantined_batches, sum.quarantined_batches);
}

TEST(FeedWireTest, NonFiniteFlushTimeKeepsLatencyHistogramsFinite) {
  // A batch flushes at its last read with a finite time: a NaN or +inf
  // read at the end of a batch must not become the batch's send time, or
  // its arrival time through the serial channel clock, and from there a
  // nan or inf in the facility's latency histograms for good.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    sys::EventLog log;
    for (std::size_t i = 0; i < 8; ++i) {
      log.push_back(event(0.5 + 0.25 * static_cast<double>(i), 1 + i % 3));
    }
    log[3].time_s = bad;

    sys::UploaderConfig uploader_config;
    uploader_config.batch_size = 4;
    sys::EventUploader uploader(uploader_config);
    Rng rng(3);
    const std::vector<FacilityBatch> batches = uploader.upload_wire(log, 0, rng, nullptr);
    ASSERT_EQ(batches.size(), 2u);
    for (const FacilityBatch& batch : batches) {
      EXPECT_TRUE(std::isfinite(batch.sent_time_s));
      EXPECT_TRUE(std::isfinite(batch.arrival_time_s));
    }
    EXPECT_EQ(batches[0].sent_time_s, log[2].time_s);

    FeedConfig config = feed_config(1, 3);
    config.facility = std::isnan(bad) ? 61 : 62;  // Histogram children of its own.
    config.uploader.batch_size = 4;
    FacilityFeed feed(config);
    TrackingStore store;
    const bool saved_enabled = obs::enabled();
    obs::set_enabled(true);
    const FeedPassResult result = feed.ingest_pass(store, log, 0.0, 10.0, rng);
    obs::set_enabled(saved_enabled);
    EXPECT_EQ(result.quarantined, 1u);
    EXPECT_EQ(store.stats().events, 7u);
    const std::string label = std::to_string(config.facility);
    EXPECT_TRUE(std::isfinite(
        obs::registry()
            .histogram("fleet.batch.visibility_latency_seconds", {{"facility", label}})
            .sum()));
    EXPECT_TRUE(std::isfinite(
        obs::registry()
            .histogram("fleet.feed.visibility_lag_seconds", {{"facility", label}})
            .sum()));
  }
}

TEST(FeedWireTest, StaleBatchesAreAlertedButStillStored) {
  FeedConfig config = feed_config(1, 2);
  config.uploader.batch_size = 4;
  config.uploader.loss_probability = 0.9;  // Heavy retrying -> late arrivals.
  config.uploader.max_retries = 20;
  config.uploader.initial_backoff_s = 5.0;
  config.stale_horizon_s = 1.0;
  FacilityFeed feed(config);
  TrackingStore store;
  Rng rng(7);
  const sys::EventLog log = full_pass({1, 2}, 1, 0.0);
  const FeedPassResult result = feed.ingest_pass(store, log, 0.0, 10.0, rng);
  ASSERT_GT(result.stale_batches, 0u);
  // Stale is observability, not loss: every delivered event is stored.
  EXPECT_EQ(store.stats().events, feed.upload_stats().events_delivered);
  const obs::Alert* alert = feed.monitor().first_alert(obs::AlertType::kStaleBatch);
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->detector, "stale");
}

TEST(FeedWireTest, StaleHorizonDefaultsToNeverFiring) {
  FeedConfig config = feed_config(1, 2);
  config.uploader.batch_size = 4;
  config.uploader.loss_probability = 0.9;
  config.uploader.max_retries = 20;
  config.uploader.initial_backoff_s = 5.0;  // Same latency as above...
  FacilityFeed feed(config);
  TrackingStore store;
  Rng rng(7);
  const FeedPassResult result =
      feed.ingest_pass(store, full_pass({1, 2}, 1, 0.0), 0.0, 10.0, rng);
  // ...but the infinite default horizon never calls it stale.
  EXPECT_EQ(result.stale_batches, 0u);
  EXPECT_EQ(feed.monitor().first_alert(obs::AlertType::kStaleBatch), nullptr);
}

TEST(FeedWireTest, DirtyChannelDeterministicGivenSeed) {
  FeedConfig config = feed_config(2, 3);
  config.wire_corruption.bit_error_rate = 1e-3;
  config.uploader.jitter_fraction = 0.3;  // Jitter is seeded too.
  FacilityFeed f1(config), f2(config);
  TrackingStore s1, s2;
  Rng a(11), b(11);
  for (std::size_t pass = 0; pass < 4; ++pass) {
    const double begin = 20.0 * static_cast<double>(pass);
    const sys::EventLog log = full_pass({1, 2, 3}, 2, begin);
    f1.ingest_pass(s1, log, begin, begin + 10.0, a);
    f2.ingest_pass(s2, log, begin, begin + 10.0, b);
  }
  EXPECT_EQ(s1.digest(), s2.digest());
  EXPECT_EQ(f1.wire_stats().corrupt_frames, f2.wire_stats().corrupt_frames);
  EXPECT_EQ(f1.wire_stats().nak_retransmits, f2.wire_stats().nak_retransmits);
  EXPECT_EQ(f1.corruption_stats().bits_flipped, f2.corruption_stats().bits_flipped);
}

TEST(FeedWireTest, PassReportEqualsIngestOverOnTimeBatches) {
  // The feed validates each delivered batch once and hands the on-time
  // ones to ResilientIngest::ingest_validated; the report must equal the
  // full ingest() of those batches' events, late arrivals excluded.
  FeedConfig config = feed_config(3, 8);
  config.ingest.silence_gap_s = 1.0;
  config.uploader.batch_size = 6;
  config.uploader.loss_probability = 0.3;  // Retries push some batches late.
  config.uploader.initial_backoff_s = 2.0;
  config.wire_corruption.bit_error_rate = 1e-3;
  FacilityFeed feed(config);
  const track::ResilientIngest reference(config.ingest);
  Rng rng(23);
  std::size_t late = 0, quarantined = 0, duplicates = 0, gaps = 0;
  for (std::size_t pass = 0; pass < 8; ++pass) {
    const double begin = 20.0 * static_cast<double>(pass);
    // Near-duplicates, a reader that dies, and records validation rejects.
    sys::EventLog log;
    for (const sys::ReadEvent& ev : full_pass({1, 2, 3, 4}, 3, begin)) {
      log.push_back(ev);
      if (log.size() % 3 == 0) {
        log.push_back(ev);
        log.back().time_s += 0.001 * static_cast<double>(log.size() % 4);
      }
    }
    if (pass % 2 == 1) std::erase_if(log, [&](const auto& ev) {
      return ev.reader_index == 2 && ev.time_s > begin + 4.0;
    });
    log.push_back(event(begin + 15.0, 1));    // Outside the window.
    log.push_back(event(begin + 1.0, 2, 7));  // No reader 7.
    const FeedPassResult result = feed.process_pass(log, begin, begin + 10.0, rng);
    late += result.late_batches;
    quarantined += result.quarantined;

    sys::EventLog on_time;
    for (const FacilityBatch& batch : result.batches) {
      if (batch.arrival_time_s <= begin + 10.0) {
        on_time.insert(on_time.end(), batch.events.begin(), batch.events.end());
      }
    }
    const track::IngestReport want = reference.ingest(on_time, begin, begin + 10.0);
    const track::IngestReport& got = result.report;
    duplicates += got.duplicates;
    gaps += got.gaps.size();
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.duplicates, want.duplicates);
    EXPECT_EQ(got.quarantined, want.quarantined);
    EXPECT_EQ(got.reordered, want.reordered);
    EXPECT_EQ(got.degraded_readers, want.degraded_readers);
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t i = 0; i < got.events.size(); ++i) {
      EXPECT_EQ(got.events[i].tag, want.events[i].tag);
      EXPECT_EQ(got.events[i].time_s, want.events[i].time_s);
      EXPECT_EQ(got.events[i].reader_index, want.events[i].reader_index);
    }
    ASSERT_EQ(got.gaps.size(), want.gaps.size());
    for (std::size_t i = 0; i < got.gaps.size(); ++i) {
      EXPECT_EQ(got.gaps[i].reader, want.gaps[i].reader);
      EXPECT_EQ(got.gaps[i].begin_s, want.gaps[i].begin_s);
      EXPECT_EQ(got.gaps[i].end_s, want.gaps[i].end_s);
    }
  }
  // The run exercised what it claims to.
  EXPECT_GT(late, 0u);
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(gaps, 0u);
  EXPECT_GT(feed.wire_stats().corrupt_frames, 0u);
}

}  // namespace
}  // namespace rfidsim::fleet
