// The pipeline benchmark's own tests: generator purity, the percentile
// helper, operation accounting, the coverage gate, the portal time-shift
// glue, and output identity across thread counts and obs on/off.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "golden.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "synth.hpp"
#include "track/resilient_ingest.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

/// FNV-1a over the bytes of every field of every event.
std::uint64_t log_fingerprint(const sys::EventLog& log) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const auto& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof value; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const sys::ReadEvent& ev : log) {
    mix(ev.tag.value);
    mix(ev.time_s);
    mix(ev.reader_index);
    mix(ev.antenna_index);
    mix(ev.rssi.value());
    mix(ev.session);
  }
  return hash;
}

constexpr WorkloadKind kAllWorkloads[] = {WorkloadKind::kPortalFleet,
                                          WorkloadKind::kBackhaulIngest};

TEST(SynthTest, SameSeedGivesByteIdenticalLogs) {
  const SynthShape shape;
  const sys::EventLog a = synth_pass_log(7, 2, 11, shape);
  const sys::EventLog b = synth_pass_log(7, 2, 11, shape);
  ASSERT_EQ(a.size(), shape.events_per_pass);
  EXPECT_EQ(log_fingerprint(a), log_fingerprint(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].reader_index, b[i].reader_index);
    EXPECT_EQ(a[i].antenna_index, b[i].antenna_index);
    EXPECT_EQ(a[i].rssi.value(), b[i].rssi.value());
  }
}

TEST(SynthTest, DifferentSeedGivesDifferentLogs) {
  const SynthShape shape;
  EXPECT_NE(log_fingerprint(synth_pass_log(7, 2, 11, shape)),
            log_fingerprint(synth_pass_log(8, 2, 11, shape)));
  // Facilities and passes fork their own streams too.
  EXPECT_NE(log_fingerprint(synth_pass_log(7, 2, 11, shape)),
            log_fingerprint(synth_pass_log(7, 3, 11, shape)));
  EXPECT_NE(log_fingerprint(synth_pass_log(7, 2, 11, shape)),
            log_fingerprint(synth_pass_log(7, 2, 12, shape)));
}

TEST(SynthTest, EventsStayInsideTheirWindow) {
  const SynthShape shape;
  for (const sys::ReadEvent& ev : synth_pass_log(3, 1, 5, shape)) {
    EXPECT_GE(ev.time_s, 5 * shape.window_s);
    EXPECT_LE(ev.time_s, 6 * shape.window_s);
    EXPECT_GE(ev.tag.value, 1u);
    EXPECT_LE(ev.tag.value, shape.tags);
  }
}

TEST(SynthTest, ScheduleAndQueryStreamArePureFunctionsOfTheSeed) {
  const auto key = [](const std::vector<Delivery>& s) {
    std::vector<std::uint64_t> out;
    for (const Delivery& d : s) out.push_back(d.facility * 1000000ULL + d.pass * 2 + d.refeed);
    return out;
  };
  EXPECT_EQ(key(damaged_schedule(5, 4, 300, 0.1, 3, 0.02)),
            key(damaged_schedule(5, 4, 300, 0.1, 3, 0.02)));
  EXPECT_NE(key(damaged_schedule(5, 4, 300, 0.1, 3, 0.02)),
            key(damaged_schedule(6, 4, 300, 0.1, 3, 0.02)));
  EXPECT_EQ(zipf_tags(5, 500, 40000, 1.1), zipf_tags(5, 500, 40000, 1.1));
  EXPECT_NE(zipf_tags(5, 500, 40000, 1.1), zipf_tags(6, 500, 40000, 1.1));
}

TEST(SynthTest, ScheduleHoldsBackAndRefeedsAboutTheStatedShares) {
  const std::vector<Delivery> schedule = damaged_schedule(9, 4, 300, 0.1, 3, 0.02);
  std::size_t refeeds = 0;
  std::size_t out_of_order = 0;
  std::vector<std::int64_t> last(4, -1);
  for (const Delivery& d : schedule) {
    if (d.refeed) {
      ++refeeds;
      continue;
    }
    if (static_cast<std::int64_t>(d.pass) < last[d.facility]) ++out_of_order;
    last[d.facility] = std::max<std::int64_t>(last[d.facility], d.pass);
  }
  EXPECT_EQ(schedule.size(), 1200 + refeeds);
  EXPECT_NEAR(static_cast<double>(refeeds) / 1200.0, 0.02, 0.015);
  EXPECT_NEAR(static_cast<double>(out_of_order) / 1200.0, 0.10, 0.04);
}

TEST(StatsTest, ReportsHighestPercentileWithTenSamplesBeyond) {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
    return v;
  };
  TailSummary t = summarize(ramp(1000));
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.tail_percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.tail, 990.0);
  EXPECT_EQ(t.p50, 500.5);

  t = summarize(ramp(10000));
  EXPECT_EQ(t.tail_percentile, 99.9);
  EXPECT_EQ(t.beyond, 10u);

  t = summarize(ramp(999));  // p99 would leave only 9 beyond.
  EXPECT_EQ(t.tail_percentile, 95.0);
  EXPECT_EQ(t.beyond, 49u);

  t = summarize(ramp(100));
  EXPECT_EQ(t.tail_percentile, 90.0);
  EXPECT_EQ(t.tail, 90.0);

  t = summarize(ramp(12));  // Nothing above p50 has ten beyond.
  EXPECT_EQ(t.tail_percentile, 50.0);
  EXPECT_EQ(t.samples, 12u);

  EXPECT_EQ(supported_quantile(ramp(1000), 0.99), 990.0);
  EXPECT_EQ(supported_quantile(ramp(999), 0.99), 950.0);  // Falls back to p95.
  EXPECT_EQ(summarize({}).samples, 0u);
}

TEST(AccountingTest, CountsFailedOperationsAgainstAttempted) {
  Outputs ref;
  ref.store_digest = 1;
  ref.query_digest = 2;
  ref.facility_rc = {0.5, 0.25};

  EpochResult good;
  good.outputs = ref;
  good.passes = 10;
  good.queries = 30;
  good.failed = 3;  // Operations that failed their own check.

  EpochResult clean = good;
  clean.failed = 0;

  EpochResult wrong = good;
  wrong.failed = 0;
  wrong.outputs.facility_rc[1] = 0.2500000001;  // Any bit off fails the epoch.

  OpCount c = count_operations({good, clean}, ref);
  EXPECT_EQ(c.attempted, 80u);
  EXPECT_EQ(c.failed, 3u);

  c = count_operations({clean, wrong}, ref);
  EXPECT_EQ(c.attempted, 80u);
  EXPECT_EQ(c.failed, 40u);  // Every operation of the mismatched epoch.

  c = count_operations({}, ref);
  EXPECT_EQ(c.attempted, 0u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(CoverageTest, EpochBelowMinimumCoverageFailsEveryOperation) {
  // One layer span of a known length; the epoch's wall decides coverage.
  Tracer tracer;
  {
    const Span feed(&tracer, Layer::kFeed, 0);
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(2)) {
    }
  }
  const double covered = tracer.layer_seconds(0, tracer.size());
  ASSERT_GT(covered, 0.0);

  Outputs ref;
  ref.facility_rc = {0.5};
  EpochResult epoch;
  epoch.outputs = ref;
  epoch.passes = 10;
  epoch.queries = 5;

  EpochResult covered_epoch = epoch;
  covered_epoch.epoch_s = covered / 0.96;  // Spans cover 0.96 of the wall.
  check_coverage(covered_epoch, tracer, 0, tracer.size());
  EXPECT_EQ(covered_epoch.failed, 0u);

  EpochResult uncovered = epoch;
  uncovered.epoch_s = covered / 0.9;  // Spans cover 0.90 of the wall.
  check_coverage(uncovered, tracer, 0, tracer.size());
  EXPECT_EQ(uncovered.failed, 15u);
  const OpCount c = count_operations({covered_epoch, uncovered}, ref);
  EXPECT_EQ(c.attempted, 30u);
  EXPECT_EQ(c.failed, 15u);
}

TEST(TimeShiftTest, ShiftedPassesStayInsideTheirWindow) {
  // Events at both edges of a 5 s simulated pass, shifted the way
  // portal_fleet shifts them (pass k at facility f -> (4k + f) * 8 s).
  rfidsim::track::IngestConfig config;
  for (std::uint64_t k = 0; k < 5000; k += 7) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      const double shift = static_cast<double>(k * 4 + f) * 8.0;
      sys::EventLog log(4);
      log[0].time_s = 0.0;
      log[1].time_s = 5.0;
      log[2].time_s = 5.0 + kPortalWindowSlackS;  // A last round overrunning the end.
      log[3].time_s = 0.1 * static_cast<double>(k % 50);
      time_shift(log, shift);
      for (const sys::ReadEvent& ev : log) {
        EXPECT_TRUE(rfidsim::track::validate_event(ev, config, shift + 0.0,
                                                   shift + 5.0 + kPortalWindowSlackS));
      }
    }
  }
}

TEST(TimeShiftTest, CleanPortalPassesQuarantineNothing) {
  // Enough passes that some last rounds overrun the nominal pass end. (The
  // simulator can also emit a rare read above the ingest RSSI band, which
  // validation rightly quarantines; this seed has none, so any quarantine
  // here is a window error.)
  Scale scale = Scale::small();
  scale.portal_blocks = 8;
  scale.portal_block_passes = 4;
  const auto workload = make_workload(WorkloadKind::kPortalFleet, 3, scale);
  const EpochResult r = workload->run_epoch(Exec{});
  EXPECT_GT(r.tallies.sim_events, 0u);
  EXPECT_EQ(r.tallies.quarantined_records, 0u);
  EXPECT_EQ(r.tallies.events_delivered, r.tallies.sim_events);
  EXPECT_EQ(r.failed, 0u);
}

/// Outputs at 1/2/4 threads and obs on/off must equal the serial reference
/// (1 thread, obs off) bit for bit, on every workload.
class IdentityTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(IdentityTest, OutputsIdenticalAcrossThreadsAndObs) {
  const auto workload = make_workload(GetParam(), 4, Scale::small());
  const bool saved = rfidsim::obs::enabled();
  rfidsim::obs::set_enabled(false);
  Exec serial;
  serial.sim_threads = 1;
  serial.store_threads = 1;
  const EpochResult reference = workload->run_epoch(serial);
  EXPECT_EQ(reference.failed, 0u);
  EXPECT_GT(reference.passes, 0u);
  EXPECT_GT(reference.queries, 0u);
  for (const bool obs_on : {true, false}) {
    rfidsim::obs::set_enabled(obs_on);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      Exec exec;
      exec.sim_threads = threads;
      exec.store_threads = threads;
      const EpochResult r = workload->run_epoch(exec);
      EXPECT_EQ(r.outputs, reference.outputs) << "threads " << threads << " obs " << obs_on;
      EXPECT_EQ(r.failed, 0u);
      EXPECT_EQ(r.passes, reference.passes);
      EXPECT_EQ(r.queries, reference.queries);
    }
  }
  // The workload's own thread choice, a traced epoch and the wire sample
  // change nothing.
  rfidsim::obs::set_enabled(true);
  Tracer tracer;
  std::vector<rfidsim::wire::EventBatch> wire_sample;
  Exec traced;
  traced.tracer = &tracer;
  traced.wire_sample = &wire_sample;
  EXPECT_EQ(workload->run_epoch(traced).outputs, reference.outputs);
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_FALSE(wire_sample.empty());
  rfidsim::obs::set_enabled(saved);
}

TEST_P(IdentityTest, SeedChangesTheOutputs) {
  const auto a = make_workload(GetParam(), 4, Scale::small());
  const auto b = make_workload(GetParam(), 5, Scale::small());
  EXPECT_NE(a->run_epoch(Exec{}).outputs.store_digest, b->run_epoch(Exec{}).outputs.store_digest);
}

TEST_P(IdentityTest, DefaultSeedReproducesTheStoredGolden) {
  const auto workload = make_workload(GetParam(), kDefaultSeed, Scale::full());
  Exec serial;
  serial.sim_threads = 1;
  serial.store_threads = 1;
  const Outputs out = workload->run_epoch(serial).outputs;
  const GoldenOutputs* golden = nullptr;
  for (const GoldenOutputs& g : kGolden) {
    if (std::string(g.workload) == workload_name(GetParam())) golden = &g;
  }
  ASSERT_NE(golden, nullptr);
  EXPECT_EQ(out.store_digest, golden->store_digest);
  EXPECT_EQ(out.query_digest, golden->query_digest);
  ASSERT_EQ(out.facility_rc.size(), golden->facility_rc.size());
  for (std::size_t i = 0; i < out.facility_rc.size(); ++i) {
    EXPECT_EQ(out.facility_rc[i], golden->facility_rc[i]) << "facility " << i;
  }
}

TEST(TracerTest, SelfTimeSubtractsChildrenAndCoverageCountsLayers) {
  Tracer tracer;
  {
    const Span root(&tracer, Layer::kPass, 0);
    { const Span feed(&tracer, Layer::kFeed, 0); }
    { const Span store(&tracer, Layer::kStore, 0); }
  }
  ASSERT_EQ(tracer.size(), 3u);
  const auto& s = tracer.spans();
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  const LayerSeconds self = tracer.self_seconds(0, 3);
  const double root = static_cast<double>(s[0].end_ns - s[0].start_ns) * 1e-9;
  const double children = tracer.layer_seconds(0, 3);
  EXPECT_NEAR(self[static_cast<std::size_t>(Layer::kPass)], root - children, 1e-12);
  EXPECT_GE(self[static_cast<std::size_t>(Layer::kPass)], 0.0);
  // A null tracer records nothing.
  { const Span none(nullptr, Layer::kFeed, 0); }
  EXPECT_EQ(tracer.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, IdentityTest, ::testing::ValuesIn(kAllWorkloads),
                         [](const auto& info) { return std::string(workload_name(info.param)); });

}  // namespace
}  // namespace pipebench
