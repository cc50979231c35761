#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"

namespace rfidsim::obs {
namespace {

using prof::Phase;
using prof::ScopedPhase;

/// When the subsystem is compiled out (-DRFIDSIM_OBS=OFF) markers are inert
/// no matter what the runtime switches say; the recording tests then
/// assert exactly that instead of skipping.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kCompiledOut = true;
#else
constexpr bool kCompiledOut = false;
#endif

/// Every test runs with a clean slate and restores the global switches:
/// the obs flags are process-wide and other suites in this binary depend
/// on their defaults. Attribution stays off unless a test turns it on, so
/// these tests see the tracing half of ScopedPhase alone.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_metrics_ = enabled();
    saved_trace_ = trace_enabled();
    saved_attribution_ = prof::attribution_enabled();
    set_enabled(true);
    set_trace_enabled(true);
    prof::set_attribution_enabled(false);
    clear_trace();
  }
  void TearDown() override {
    clear_trace();
    prof::reset_attribution();
    prof::set_attribution_enabled(saved_attribution_);
    set_trace_enabled(saved_trace_);
    set_enabled(saved_metrics_);
  }

 private:
  bool saved_metrics_ = false;
  bool saved_trace_ = false;
  bool saved_attribution_ = false;
};

TEST_F(TraceTest, RecordsNestedSpansWithDepths) {
  {
    const ScopedPhase outer(Phase::kFeedPass);
    {
      const ScopedPhase middle(Phase::kStoreIngest);
      const ScopedPhase inner(Phase::kStoreRoute);
    }
  }
  std::vector<TraceEvent> events = trace_snapshot();
  if (kCompiledOut) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 3u);
  // Snapshot is sorted by start time: outer, middle, inner. Span names are
  // phase names.
  EXPECT_STREQ(events[0].name, "feed_pass");
  EXPECT_STREQ(events[1].name, "store_ingest");
  EXPECT_STREQ(events[2].name, "store_route");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  // Inner spans close before (or with) their parents.
  EXPECT_LE(events[2].start_ns + events[2].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  // Sibling-after-nested restarts at the parent's depth + 1.
  {
    const ScopedPhase outer(Phase::kPortalSim);
    const ScopedPhase sibling(Phase::kPathEval);
  }
  events = trace_snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[4].depth, 1u);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  set_trace_enabled(false);
  { const ScopedPhase phase(Phase::kWireCodec); }
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(TraceTest, MetricsMasterSwitchAlsoGatesTracing) {
  set_enabled(false);  // Tracing requires the master switch too.
  { const ScopedPhase phase(Phase::kWireCodec); }
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(TraceTest, SpanOpenAcrossDisableDoesNotRecord) {
  // The gate is checked at construction; a marker that was alive when
  // tracing got switched on still completes without recording garbage.
  {
    set_trace_enabled(false);
    const ScopedPhase phase(Phase::kWireCodec);
    set_trace_enabled(true);
  }
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(TraceTest, RingOverflowKeepsTheNewestSpans) {
  for (std::size_t i = 0; i < 100; ++i) {
    const ScopedPhase phase(Phase::kWireCodec);
  }
  for (std::size_t i = 0; i < kTraceRingCapacity; ++i) {
    const ScopedPhase phase(Phase::kUploadWire);
  }
  const std::vector<TraceEvent> events = trace_snapshot();
  if (kCompiledOut) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), kTraceRingCapacity);
  for (const TraceEvent& ev : events) EXPECT_STREQ(ev.name, "upload_wire");
}

TEST_F(TraceTest, ThreadsMergeWithDistinctTids) {
  std::thread a([] { const ScopedPhase phase(Phase::kCheckpointWrite); });
  a.join();
  std::thread b([] { const ScopedPhase phase(Phase::kCheckpointRestore); });
  b.join();
  { const ScopedPhase phase(Phase::kQueryMissing); }

  const std::vector<TraceEvent> events = trace_snapshot();
  if (kCompiledOut) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 3u);
  std::set<std::uint32_t> tids;
  std::set<std::string> names;
  for (const TraceEvent& ev : events) {
    tids.insert(ev.tid);
    names.insert(ev.name);
  }
  EXPECT_EQ(tids.size(), 3u);  // Rings survive thread exit, tids distinct.
  EXPECT_EQ(names, (std::set<std::string>{"checkpoint_write", "checkpoint_restore",
                                          "query_missing"}));
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  {
    const ScopedPhase outer(Phase::kPortalSim);
    const ScopedPhase inner(Phase::kGen2Inventory);
  }
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  if (kCompiledOut) {
    EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
    return;
  }
  EXPECT_NE(json.find("\"name\":\"portal_sim\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gen2_inventory\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":0,"), std::string::npos);
  // Timestamps are rebased: the earliest span starts at 0.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_EQ(json.find("e+"), std::string::npos) << "ts must not be scientific";
}

TEST_F(TraceTest, RingWrapTalliesDroppedSpans) {
  // clear_trace() in SetUp zeroed the tallies; overflow this thread's ring
  // by exactly five spans.
  for (std::size_t i = 0; i < kTraceRingCapacity + 5; ++i) {
    const ScopedPhase phase(Phase::kTrackIngest);
  }
  if (kCompiledOut) {
    EXPECT_EQ(trace_dropped_spans(), 0u);
    return;
  }
  EXPECT_EQ(trace_dropped_spans(), 5u);
  EXPECT_EQ(trace_snapshot().size(), kTraceRingCapacity);
  // A clear re-arms the tally along with the rings.
  clear_trace();
  EXPECT_EQ(trace_dropped_spans(), 0u);
}

TEST_F(TraceTest, ClearTraceEmptiesEveryRing) {
  { const ScopedPhase phase(Phase::kTrackIngest); }
  std::thread t([] { const ScopedPhase phase(Phase::kTrackIngest); });
  t.join();
  clear_trace();
  EXPECT_TRUE(trace_snapshot().empty());
  // Rings keep working after a clear.
  { const ScopedPhase phase(Phase::kTrackIngest); }
  EXPECT_EQ(trace_snapshot().size(), kCompiledOut ? 0u : 1u);
}

TEST_F(TraceTest, OneMarkerWithTracingAndAttributionIsOneSpanAndOneCall) {
  // Both consumers of the one stage marker on at once: the marker records
  // exactly one span and charges exactly one call, never one each per
  // consumer's own bookkeeping.
  prof::set_attribution_enabled(true);
  prof::reset_attribution();
  { const ScopedPhase phase(Phase::kCheckpointWrite); }
  const std::vector<TraceEvent> events = trace_snapshot();
  const prof::PhaseTotals totals = prof::phase_totals(Phase::kCheckpointWrite);
  if (kCompiledOut) {
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(totals.calls, 0u);
    return;
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "checkpoint_write");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(totals.calls, 1u);
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    if (phase != Phase::kCheckpointWrite) {
      EXPECT_EQ(prof::phase_totals(phase).calls, 0u) << prof::phase_name(phase);
    }
  }
}

}  // namespace
}  // namespace rfidsim::obs
