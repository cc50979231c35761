#include "obs/monitor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace rfidsim::obs {
namespace {

#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kHooksLive = false;
#else
constexpr bool kHooksLive = true;
#endif

// ---------------------------------------------------------------------------
// SlidingWindowRate

TEST(SlidingWindowRateTest, AccumulatesAndEvictsOldestPass) {
  SlidingWindowRate w(3);
  w.add(1, 2);
  w.add(2, 2);
  w.add(0, 2);
  EXPECT_EQ(w.successes(), 3u);
  EXPECT_EQ(w.trials(), 6u);
  EXPECT_DOUBLE_EQ(w.rate(), 0.5);
  w.add(2, 2);  // Evicts the (1, 2) pass.
  EXPECT_EQ(w.successes(), 4u);
  EXPECT_EQ(w.trials(), 6u);
  EXPECT_EQ(w.size(), 3u);
}

TEST(SlidingWindowRateTest, EmptyWindowRatesZero) {
  SlidingWindowRate w(4);
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
  EXPECT_DOUBLE_EQ(w.wilson().estimate, 0.0);
  w.add(0, 0);  // A pass with no objects is legal and contributes nothing.
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
}

TEST(SlidingWindowRateTest, WilsonMatchesCommonStats) {
  SlidingWindowRate w(8);
  w.add(9, 10);
  w.add(8, 10);
  const ProportionInterval direct = wilson_interval(17, 20);
  const ProportionInterval windowed = w.wilson();
  EXPECT_DOUBLE_EQ(windowed.estimate, direct.estimate);
  EXPECT_DOUBLE_EQ(windowed.lower, direct.lower);
  EXPECT_DOUBLE_EQ(windowed.upper, direct.upper);
}

TEST(SlidingWindowRateTest, RejectsInvalidInput) {
  EXPECT_THROW(SlidingWindowRate(0), ConfigError);
  SlidingWindowRate w(2);
  EXPECT_THROW(w.add(3, 2), ConfigError);
}

TEST(SlidingWindowRateTest, ResetClearsSums) {
  SlidingWindowRate w(2);
  w.add(1, 1);
  w.reset();
  EXPECT_EQ(w.trials(), 0u);
  EXPECT_EQ(w.size(), 0u);
}

// ---------------------------------------------------------------------------
// Detectors

TEST(EwmaDetectorTest, SeedsOnFirstSampleThenSmooths) {
  EwmaDetector d({.lambda = 0.5, .threshold = 0.6});
  EXPECT_DOUBLE_EQ(d.update(0.8), 0.8);  // Seeded, not 0.5 * 0.8.
  EXPECT_TRUE(d.alarmed());
  EXPECT_DOUBLE_EQ(d.update(0.0), 0.4);
  EXPECT_FALSE(d.alarmed());
}

TEST(EwmaDetectorTest, UnseededNeverAlarms) {
  EwmaDetector d({.lambda = 0.25, .threshold = -1.0});
  EXPECT_FALSE(d.alarmed());  // value 0 > -1, but no sample yet.
}

TEST(CusumDetectorTest, AccumulatesAboveReferenceAndFloorsAtZero) {
  CusumDetector d({.reference = 0.25, .threshold = 1.0});
  EXPECT_DOUBLE_EQ(d.update(1.0), 0.75);
  EXPECT_FALSE(d.alarmed());
  EXPECT_DOUBLE_EQ(d.update(1.0), 1.5);
  EXPECT_TRUE(d.alarmed());
  d.update(0.0);  // Decays by the reference when the signal clears.
  EXPECT_DOUBLE_EQ(d.value(), 1.25);
  for (int i = 0; i < 10; ++i) d.update(0.0);
  EXPECT_DOUBLE_EQ(d.value(), 0.0);
}

TEST(CusumDetectorTest, DetectionLatencyIsThresholdOverExcess) {
  // Persistent deficit 0.7, reference 0.2, threshold 1.5: the statistic
  // grows 0.5 per pass and crosses on pass 4 (0-based pass 3).
  CusumDetector d({.reference = 0.2, .threshold = 1.5});
  int fired_at = -1;
  for (int i = 0; i < 10 && fired_at < 0; ++i) {
    d.update(0.7);
    if (d.alarmed()) fired_at = i;
  }
  EXPECT_EQ(fired_at, 3);
}

TEST(AlertTypeTest, NamesAreStable) {
  EXPECT_STREQ(alert_type_name(AlertType::kReaderDegraded), "reader_degraded");
  EXPECT_STREQ(alert_type_name(AlertType::kModelDivergence), "model_divergence");
  EXPECT_STREQ(alert_type_name(AlertType::kSilence), "silence");
}

// ---------------------------------------------------------------------------
// ReliabilityMonitor

/// A healthy pass: both readers run 10 rounds, each sees 9 of 10 objects,
/// the portal identifies all 10 (predicted 1-(0.1)^2 = 0.99 ~ observed 1.0).
PassObservation healthy_pass() {
  return PassObservation{.objects_total = 10,
                         .objects_identified = 10,
                         .readers = {{.rounds = 10, .objects_seen = 9},
                                     {.rounds = 10, .objects_seen = 9}}};
}

TEST(ReliabilityMonitorTest, HealthyStreamRaisesNoAlerts) {
  ReliabilityMonitor mon;
  for (int p = 0; p < 50; ++p) mon.observe_pass(healthy_pass());
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.passes(), 50u);
  EXPECT_EQ(mon.reader_count(), 2u);
  EXPECT_DOUBLE_EQ(mon.observed_rc(), 1.0);
  EXPECT_DOUBLE_EQ(mon.predicted_rc(), 1.0 - 0.1 * 0.1);
  EXPECT_DOUBLE_EQ(mon.reader_read_rate(0), 0.9);
}

TEST(ReliabilityMonitorTest, SilentReaderFiresOnceAndRearmsAfterRecovery) {
  ReliabilityMonitor mon;
  for (int p = 0; p < 4; ++p) mon.observe_pass(healthy_pass());
  PassObservation down = healthy_pass();
  down.readers[1] = {.rounds = 0, .objects_seen = 0};
  down.objects_identified = 9;
  mon.observe_pass(down);
  ASSERT_NE(mon.first_alert(AlertType::kSilence, 1), nullptr);
  EXPECT_EQ(mon.first_alert(AlertType::kSilence, 1)->pass, 4u);
  EXPECT_EQ(mon.first_alert(AlertType::kSilence, 0), nullptr);

  // Still down: latched, no second alert.
  mon.observe_pass(down);
  std::size_t silence_alerts = 0;
  for (const Alert& a : mon.alerts()) silence_alerts += a.type == AlertType::kSilence;
  EXPECT_EQ(silence_alerts, 1u);

  // Recover, then fail again: the latch re-arms.
  mon.observe_pass(healthy_pass());
  mon.observe_pass(down);
  silence_alerts = 0;
  for (const Alert& a : mon.alerts()) silence_alerts += a.type == AlertType::kSilence;
  EXPECT_EQ(silence_alerts, 2u);
}

TEST(ReliabilityMonitorTest, PersistentRoundDeficitFiresCusumDegradedAlert) {
  ReliabilityMonitor mon;
  for (int p = 0; p < 8; ++p) mon.observe_pass(healthy_pass());
  for (int p = 8; p < 20; ++p) {
    PassObservation slow = healthy_pass();
    slow.readers[0].rounds = 3;  // Deficit 0.7 against the healthy reader.
    slow.readers[0].objects_seen = 4;
    mon.observe_pass(slow);
  }
  const Alert* a = mon.first_alert(AlertType::kReaderDegraded, 0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->detector, "cusum");
  // CUSUM needs ceil(1.5 / (0.7 - 0.2)) = 4 deficit passes: onset at pass
  // 8, alert at pass 11 -> detection latency 3 passes after onset.
  EXPECT_EQ(a->pass, 11u);
  EXPECT_EQ(mon.first_alert(AlertType::kReaderDegraded, 1), nullptr);
}

TEST(ReliabilityMonitorTest, NoDriftAlertsDuringWarmup) {
  ReliabilityMonitor mon({.warmup_passes = 100});
  for (int p = 0; p < 30; ++p) {
    PassObservation slow = healthy_pass();
    slow.readers[0].rounds = 1;
    mon.observe_pass(slow);
  }
  EXPECT_EQ(mon.first_alert(AlertType::kReaderDegraded), nullptr);
  // Silence is exempt from warm-up.
  PassObservation down = healthy_pass();
  down.readers[0].rounds = 0;
  mon.observe_pass(down);
  EXPECT_NE(mon.first_alert(AlertType::kSilence, 0), nullptr);
}

TEST(ReliabilityMonitorTest, CorrelatedMissesFireModelDivergence) {
  ReliabilityMonitor mon;
  // Both readers see 60% of objects, but always the *same* 60%: the
  // portal identifies 6/10 while independence predicts 1-0.4^2 = 0.84.
  for (int p = 0; p < 20; ++p) {
    mon.observe_pass(PassObservation{.objects_total = 10,
                                     .objects_identified = 6,
                                     .readers = {{.rounds = 10, .objects_seen = 6},
                                                 {.rounds = 10, .objects_seen = 6}}});
  }
  const Alert* a = mon.first_alert(AlertType::kModelDivergence);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->reader, -1);
  EXPECT_EQ(a->detector, "model");
  EXPECT_GT(a->value, a->threshold);  // Prediction escaped above the band.
}

TEST(ReliabilityMonitorTest, DetectionRunsWithHooksDisabled) {
  const bool saved = enabled();
  set_enabled(false);
  ReliabilityMonitor mon;
  for (int p = 0; p < 4; ++p) mon.observe_pass(healthy_pass());
  PassObservation down = healthy_pass();
  down.readers[0].rounds = 0;
  mon.observe_pass(down);
  EXPECT_NE(mon.first_alert(AlertType::kSilence, 0), nullptr);
  set_enabled(saved);
}

TEST(ReliabilityMonitorTest, AlertsAreCountedInRegistryWhenHooksLive) {
  const bool saved = enabled();
  set_enabled(true);
  Counter& silences = counter("obs.monitor.alerts", {{"type", "silence"}});
  const std::uint64_t before = silences.value();
  ReliabilityMonitor mon;
  PassObservation down = healthy_pass();
  down.readers[0].rounds = 0;
  mon.observe_pass(down);
  EXPECT_EQ(silences.value() - before, kHooksLive ? 1u : 0u);
  set_enabled(saved);
}

TEST(ReliabilityMonitorTest, StateIsAPureFunctionOfTheObservationSequence) {
  // Same stream fed to two monitors (one with hooks off) produces
  // identical alerts and estimates: detection is observation-only.
  const bool saved = enabled();
  auto feed = [](ReliabilityMonitor& mon) {
    for (int p = 0; p < 12; ++p) {
      PassObservation obs = healthy_pass();
      if (p >= 6) {
        obs.readers[1].rounds = 0;
        obs.readers[1].objects_seen = 0;
        obs.objects_identified = 9;
      }
      mon.observe_pass(obs);
    }
  };
  set_enabled(true);
  ReliabilityMonitor a;
  feed(a);
  set_enabled(false);
  ReliabilityMonitor b;
  feed(b);
  set_enabled(saved);
  ASSERT_EQ(a.alerts().size(), b.alerts().size());
  for (std::size_t i = 0; i < a.alerts().size(); ++i) {
    EXPECT_EQ(a.alerts()[i].type, b.alerts()[i].type);
    EXPECT_EQ(a.alerts()[i].pass, b.alerts()[i].pass);
    EXPECT_EQ(a.alerts()[i].reader, b.alerts()[i].reader);
    EXPECT_DOUBLE_EQ(a.alerts()[i].value, b.alerts()[i].value);
  }
  EXPECT_DOUBLE_EQ(a.observed_rc(), b.observed_rc());
  EXPECT_DOUBLE_EQ(a.predicted_rc(), b.predicted_rc());
}

TEST(ReliabilityMonitorTest, RejectsInconsistentStreams) {
  ReliabilityMonitor mon;
  mon.observe_pass(healthy_pass());
  PassObservation wrong = healthy_pass();
  wrong.readers.resize(3);
  EXPECT_THROW(mon.observe_pass(wrong), ConfigError);
  PassObservation bad = healthy_pass();
  bad.objects_identified = 11;
  EXPECT_THROW(mon.observe_pass(bad), ConfigError);
}

TEST(ReliabilityMonitorTest, ResetReturnsToInitialState) {
  ReliabilityMonitor mon;
  PassObservation down = healthy_pass();
  down.readers[0].rounds = 0;
  mon.observe_pass(down);
  EXPECT_FALSE(mon.alerts().empty());
  mon.reset();
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.passes(), 0u);
  EXPECT_EQ(mon.reader_count(), 0u);
  // A stream with a different reader count is accepted after reset.
  PassObservation three = healthy_pass();
  three.readers.push_back({.rounds = 10, .objects_seen = 9});
  mon.observe_pass(three);
  EXPECT_EQ(mon.reader_count(), 3u);
}

}  // namespace
}  // namespace rfidsim::obs
