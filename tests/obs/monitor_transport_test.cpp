// observe_transport(): typed wire_corruption / stale_batch alerts with the
// same latched rising-edge semantics as the reader alerts.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"

namespace rfidsim::obs {
namespace {

TransportObservation clean_pass() {
  TransportObservation obs;
  obs.frames = 10;
  return obs;
}

TEST(MonitorTransportTest, CleanPassesRaiseNothing) {
  ReliabilityMonitor monitor;
  for (int i = 0; i < 8; ++i) {
    monitor.observe_transport(clean_pass());
  }
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(MonitorTransportTest, CorruptFramesRaiseOnceWhileLatched) {
  ReliabilityMonitor monitor;
  TransportObservation obs = clean_pass();
  obs.corrupt_frames = 4;
  // A five-pass corruption storm is ONE alert, not five.
  for (int i = 0; i < 5; ++i) {
    monitor.observe_transport(obs);
  }
  ASSERT_EQ(monitor.alerts().size(), 1u);
  const Alert& alert = monitor.alerts()[0];
  EXPECT_EQ(alert.type, AlertType::kWireCorruption);
  EXPECT_EQ(alert.reader, -1);
  EXPECT_EQ(alert.detector, "wire");
  EXPECT_DOUBLE_EQ(alert.value, 0.4);  // 4 corrupt of 10 frames.
  EXPECT_EQ(alert.pass, 0u);
  EXPECT_STREQ(alert_type_name(alert.type), "wire_corruption");
}

TEST(MonitorTransportTest, CorruptionRearmsAfterACleanPass) {
  ReliabilityMonitor monitor;
  TransportObservation dirty = clean_pass();
  dirty.corrupt_frames = 1;
  monitor.observe_transport(dirty);
  monitor.observe_transport(clean_pass());  // Clears the latch.
  monitor.observe_transport(dirty);
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[1].pass, 2u);
}

TEST(MonitorTransportTest, QuarantineAloneTriggersWireCorruption) {
  // A quarantined batch means corruption beat the NAK budget — alert even
  // if this pass's frame tally happens to be clean.
  ReliabilityMonitor monitor;
  TransportObservation obs = clean_pass();
  obs.quarantined_batches = 1;
  monitor.observe_transport(obs);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].type, AlertType::kWireCorruption);
}

TEST(MonitorTransportTest, StaleBatchesRaiseTypedLatchedAlert) {
  ReliabilityMonitor monitor;
  TransportObservation obs = clean_pass();
  obs.stale_batches = 3;
  monitor.observe_transport(obs);
  monitor.observe_transport(obs);  // Latched.
  monitor.observe_transport(clean_pass());
  monitor.observe_transport(obs);  // Re-armed.
  ASSERT_EQ(monitor.alerts().size(), 2u);
  for (const Alert& alert : monitor.alerts()) {
    EXPECT_EQ(alert.type, AlertType::kStaleBatch);
    EXPECT_EQ(alert.reader, -1);
    EXPECT_EQ(alert.detector, "stale");
    EXPECT_DOUBLE_EQ(alert.value, 3.0);
  }
  EXPECT_STREQ(alert_type_name(AlertType::kStaleBatch), "stale_batch");
}

TEST(MonitorTransportTest, WireAndStaleAlertsAreIndependent) {
  ReliabilityMonitor monitor;
  TransportObservation obs = clean_pass();
  obs.corrupt_frames = 2;
  obs.stale_batches = 1;
  monitor.observe_transport(obs);
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_NE(monitor.first_alert(AlertType::kWireCorruption), nullptr);
  EXPECT_NE(monitor.first_alert(AlertType::kStaleBatch), nullptr);
}

TEST(MonitorTransportTest, ResetClearsTransportState) {
  ReliabilityMonitor monitor;
  TransportObservation obs = clean_pass();
  obs.corrupt_frames = 1;
  monitor.observe_transport(obs);
  monitor.reset();
  EXPECT_TRUE(monitor.alerts().empty());
  // Still latch-armed after reset: the same condition fires again.
  monitor.observe_transport(obs);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].pass, 0u);  // Pass index restarted too.
}

TEST(MonitorTransportTest, TransportDoesNotPerturbPassIndexing) {
  // Transport and portal passes are indexed independently; interleaving
  // them must not shift either sequence.
  ReliabilityMonitor monitor;
  PassObservation pass;
  pass.objects_total = 4;
  pass.objects_identified = 4;
  pass.readers.resize(1);
  pass.readers[0].rounds = 10;
  pass.readers[0].objects_seen = 4;
  monitor.observe_pass(pass);
  monitor.observe_transport(clean_pass());
  monitor.observe_pass(pass);
  EXPECT_EQ(monitor.passes(), 2u);
}

}  // namespace
}  // namespace rfidsim::obs
