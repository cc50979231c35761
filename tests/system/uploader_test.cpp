#include "system/uploader.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fault/wire_corruptor.hpp"
#include "obs/provenance.hpp"

namespace rfidsim::sys {
namespace {

EventLog make_log(std::size_t n) {
  EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    ReadEvent ev;
    ev.time_s = 0.01 * static_cast<double>(i);
    ev.tag = scene::TagId{i};
    log.push_back(ev);
  }
  return log;
}

/// Uploads over a clean channel and flattens the delivered batches.
EventLog upload_clean(EventUploader& up, const EventLog& log, Rng& rng) {
  EventLog delivered;
  for (const wire::EventBatch& batch : up.upload_wire(log, 0, rng, nullptr)) {
    delivered.insert(delivered.end(), batch.events.begin(), batch.events.end());
  }
  return delivered;
}

TEST(EventUploaderTest, LosslessChannelDeliversEverythingInOrder) {
  EventUploader up(UploaderConfig{});
  Rng rng(1);
  const EventLog log = make_log(100);
  const EventLog got = upload_clean(up, log, rng);
  ASSERT_EQ(got.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(got[i].tag, log[i].tag);
  EXPECT_EQ(up.stats().batches, 4u);  // 100 events / batch_size 32.
  EXPECT_EQ(up.stats().attempts, 4u);
  EXPECT_EQ(up.stats().retries, 0u);
  EXPECT_EQ(up.stats().events_lost, 0u);
  EXPECT_EQ(up.stats().events_delivered, 100u);
  // A clean channel sends each batch as one frame and never NAKs.
  EXPECT_EQ(up.wire_stats().frames_sent, 4u);
  EXPECT_GT(up.wire_stats().bytes_sent, 0u);
  EXPECT_EQ(up.wire_stats().corrupt_frames, 0u);
  EXPECT_EQ(up.wire_stats().nak_retransmits, 0u);
}

TEST(EventUploaderTest, RetriesRecoverFromTransientLoss) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.3;
  cfg.max_retries = 16;  // Effectively always recovers: 0.3^17 ~ 1e-9.
  EventUploader up(cfg);
  Rng rng(2);
  const EventLog log = make_log(320);
  const EventLog got = upload_clean(up, log, rng);
  EXPECT_EQ(got.size(), log.size());
  EXPECT_GT(up.stats().retries, 0u);
  EXPECT_GT(up.stats().backoff_delay_s, 0.0);
  EXPECT_EQ(up.stats().batches_lost, 0u);
}

TEST(EventUploaderTest, ExhaustedRetryBudgetDropsWholeBatches) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.9;
  cfg.max_retries = 1;
  cfg.batch_size = 10;
  EventUploader up(cfg);
  Rng rng(3);
  const EventLog log = make_log(500);
  const auto batches = up.upload_wire(log, 4, rng, nullptr);
  std::size_t got = 0;
  for (const wire::EventBatch& b : batches) {
    // Loss is batch-granular: every survivor is whole...
    ASSERT_EQ(b.events.size(), cfg.batch_size);
    got += b.events.size();
    // ...and keeps the id of its own formation index (tag i is event i, so
    // the first tag names it): a lost batch's sequence number is skipped,
    // never handed to the next batch.
    const std::uint64_t formed = b.events.front().tag.value / cfg.batch_size;
    EXPECT_EQ(b.batch_id, obs::provenance_batch_id(4, formed));
  }
  EXPECT_LT(got, log.size());
  EXPECT_GT(up.stats().batches_lost, 0u);
  EXPECT_EQ(batches.size() + up.stats().batches_lost, up.stats().batches);
  EXPECT_EQ(up.stats().events_delivered + up.stats().events_lost, log.size());
  EXPECT_EQ(got, up.stats().events_delivered);
}

TEST(EventUploaderTest, BackoffGrowsExponentially) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.999;  // Force the full retry ladder.
  cfg.max_retries = 3;
  cfg.initial_backoff_s = 0.1;
  cfg.backoff_multiplier = 2.0;
  cfg.batch_size = 8;
  EventUploader up(cfg);
  Rng rng(4);
  (void)upload_clean(up, make_log(8), rng);
  // With (almost certainly) every attempt lost: 0.1 + 0.2 + 0.4.
  EXPECT_NEAR(up.stats().backoff_delay_s, 0.7, 1e-9);
  EXPECT_EQ(up.stats().attempts, 4u);
}

TEST(EventUploaderTest, DeterministicGivenSeed) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.max_retries = 2;
  cfg.batch_size = 4;
  const EventLog log = make_log(64);
  EventUploader u1(cfg), u2(cfg);
  Rng a(42), b(42);
  const EventLog g1 = upload_clean(u1, log, a);
  const EventLog g2 = upload_clean(u2, log, b);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(g1[i].tag, g2[i].tag);
  EXPECT_EQ(u1.stats().retries, u2.stats().retries);
}

TEST(EventUploaderTest, LosslessBatchesArriveAtFlushTime) {
  UploaderConfig cfg;
  cfg.batch_size = 10;
  EventUploader up(cfg);
  Rng rng(1);
  const EventLog log = make_log(35);
  const std::uint32_t facility = 3;
  const auto batches = up.upload_wire(log, facility, rng, nullptr);
  ASSERT_EQ(batches.size(), 4u);  // 10 + 10 + 10 + 5.
  EXPECT_EQ(up.wire_stats().nak_retransmits, 0u);
  std::size_t offset = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const wire::EventBatch& b = batches[k];
    ASSERT_FALSE(b.events.empty());
    EXPECT_EQ(b.facility, facility);
    // The provenance id of the k-th batch this uploader formed.
    EXPECT_EQ(b.batch_id, obs::provenance_batch_id(facility, k));
    // No loss, no retries: the batch arrives the instant it is flushed.
    EXPECT_DOUBLE_EQ(b.sent_time_s, b.events.back().time_s);
    EXPECT_DOUBLE_EQ(b.arrival_time_s, b.sent_time_s);
    for (const ReadEvent& ev : b.events) {
      EXPECT_EQ(ev.tag, log[offset].tag);
      EXPECT_DOUBLE_EQ(ev.time_s, log[offset].time_s);
      ++offset;
    }
  }
  EXPECT_EQ(offset, log.size());
}

TEST(EventUploaderTest, RetryBackoffDelaysArrival) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.max_retries = 16;
  cfg.initial_backoff_s = 0.05;
  cfg.batch_size = 64;  // The whole log is one batch.
  const EventLog log = make_log(64);
  // Find a seed whose single batch needs at least one retry; with p = 0.5
  // the first few seeds all but surely contain one.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    EventUploader up(cfg);
    Rng rng(seed);
    const auto batches = up.upload_wire(log, 0, rng, nullptr);
    if (up.stats().retries == 0 || batches.empty()) continue;
    // One batch: its arrival delay is exactly the backoff the stats saw.
    EXPECT_DOUBLE_EQ(batches[0].arrival_time_s,
                     batches[0].sent_time_s + up.stats().backoff_delay_s);
    return;
  }
  FAIL() << "no seed in 1..64 produced a retried delivered batch";
}

TEST(EventUploaderTest, ArrivalsAreHeadOfLineOrdered) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.4;
  cfg.max_retries = 16;
  cfg.batch_size = 8;
  EventUploader up(cfg);
  Rng rng(7);
  const auto batches = up.upload_wire(make_log(160), 0, rng, nullptr);
  ASSERT_GT(batches.size(), 1u);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    // A batch can never arrive before it was flushed...
    EXPECT_GE(batches[i].arrival_time_s, batches[i].sent_time_s);
    // ...nor overtake the batch ahead of it on the serial channel.
    if (i > 0) {
      EXPECT_GE(batches[i].arrival_time_s, batches[i - 1].arrival_time_s);
    }
  }
}

TEST(EventUploaderTest, BackoffIsBoundedByMaxBackoff) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.999;  // Walk the whole ladder.
  cfg.max_retries = 6;
  cfg.initial_backoff_s = 1.0;
  cfg.backoff_multiplier = 4.0;
  cfg.max_backoff_s = 2.0;  // Caps from the second retry on.
  cfg.batch_size = 8;
  EventUploader up(cfg);
  Rng rng(4);
  (void)upload_clean(up, make_log(8), rng);
  // Unbounded would wait 1 + 4 + 16 + 64 + 256 + 1024; bounded waits
  // 1 + 2 + 2 + 2 + 2 + 2.
  EXPECT_NEAR(up.stats().backoff_delay_s, 11.0, 1e-9);
}

TEST(EventUploaderTest, JitterIsSeededBoundedAndOffByDefault) {
  UploaderConfig cfg;
  cfg.loss_probability = 0.999;
  cfg.max_retries = 3;
  cfg.initial_backoff_s = 0.1;
  cfg.backoff_multiplier = 2.0;
  cfg.batch_size = 8;
  cfg.jitter_fraction = 0.5;
  const double base = 0.7;  // 0.1 + 0.2 + 0.4 without jitter.

  EventUploader u1(cfg), u2(cfg);
  Rng a(9), b(9);
  (void)upload_clean(u1, make_log(8), a);
  (void)upload_clean(u2, make_log(8), b);
  // Jittered, but deterministically: same seed, same total backoff.
  EXPECT_GT(u1.stats().backoff_delay_s, base);
  EXPECT_LE(u1.stats().backoff_delay_s, base * (1.0 + cfg.jitter_fraction) + 1e-12);
  EXPECT_DOUBLE_EQ(u1.stats().backoff_delay_s, u2.stats().backoff_delay_s);

  // Different seeds decorrelate the retries (that is the point of jitter).
  EventUploader u3(cfg);
  Rng c(10);
  (void)upload_clean(u3, make_log(8), c);
  EXPECT_NE(u1.stats().backoff_delay_s, u3.stats().backoff_delay_s);
}

TEST(EventUploaderWireTest, DetectedCorruptionRetransmitsAndRecovers) {
  UploaderConfig cfg;
  cfg.batch_size = 16;
  cfg.max_nak_retransmits = 24;
  EventUploader up(cfg);
  fault::WireCorruptorConfig ccfg;
  ccfg.bit_error_rate = 1e-3;  // Most frames need at least one retransmit.
  fault::WireCorruptor corruptor(ccfg);
  Rng rng(31);
  const EventLog log = make_log(320);  // 20 batches.
  const auto got = up.upload_wire(log, 1, rng, &corruptor);
  ASSERT_EQ(got.size(), 20u);
  const WireUploadStats& ws = up.wire_stats();
  EXPECT_GT(ws.corrupt_frames, 0u);
  EXPECT_EQ(ws.nak_retransmits, ws.corrupt_frames);  // Every NAK retransmitted.
  EXPECT_GT(ws.batches_recovered, 0u);
  EXPECT_EQ(ws.batches_quarantined, 0u);
  EXPECT_EQ(ws.undetected_corruptions, 0u);
  // Detected failures are classified: the per-kind tallies cover them all.
  std::uint64_t by_kind = 0;
  for (const std::uint64_t k : ws.corrupt_by_kind) by_kind += k;
  EXPECT_EQ(by_kind, ws.corrupt_frames);
  // Delivered events are the decoded bytes — bit-identical to what was sent.
  std::size_t offset = 0;
  for (const wire::EventBatch& batch : got) {
    for (const ReadEvent& ev : batch.events) {
      EXPECT_EQ(ev.tag, log[offset].tag);
      EXPECT_DOUBLE_EQ(ev.time_s, log[offset].time_s);
      ++offset;
    }
  }
  EXPECT_EQ(offset, log.size());
}

TEST(EventUploaderWireTest, ExhaustedNakBudgetQuarantines) {
  UploaderConfig cfg;
  cfg.batch_size = 16;
  cfg.max_nak_retransmits = 1;
  EventUploader up(cfg);
  fault::WireCorruptorConfig ccfg;
  ccfg.bit_error_rate = 0.05;  // Every try all but surely corrupt.
  fault::WireCorruptor corruptor(ccfg);
  Rng rng(33);
  const EventLog log = make_log(160);
  const auto got = up.upload_wire(log, 1, rng, &corruptor);
  const WireUploadStats& ws = up.wire_stats();
  EXPECT_GT(ws.batches_quarantined, 0u);
  EXPECT_EQ(ws.events_quarantined + up.stats().events_delivered, log.size());
  EXPECT_EQ(got.size() + ws.batches_quarantined, up.stats().batches);
  // Quarantine is typed loss, not silence: undetected stays zero.
  EXPECT_EQ(ws.undetected_corruptions, 0u);
}

TEST(EventUploaderTest, RejectsBadConfig) {
  UploaderConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(EventUploader{zero_batch}, ConfigError);
  UploaderConfig certain_loss;
  certain_loss.loss_probability = 1.0;
  EXPECT_THROW(EventUploader{certain_loss}, ConfigError);
  UploaderConfig shrink;
  shrink.backoff_multiplier = 0.5;
  EXPECT_THROW(EventUploader{shrink}, ConfigError);
  UploaderConfig bad_jitter;
  bad_jitter.jitter_fraction = 1.5;
  EXPECT_THROW(EventUploader{bad_jitter}, ConfigError);
  UploaderConfig bad_cap;
  bad_cap.max_backoff_s = -1.0;
  EXPECT_THROW(EventUploader{bad_cap}, ConfigError);
}

}  // namespace
}  // namespace rfidsim::sys
