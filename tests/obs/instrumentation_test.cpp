// End-to-end checks that the instrumentation threaded through the
// simulator (a) never feeds back into simulated state and (b) actually
// counts what it claims to count.
#include <gtest/gtest.h>

#include <string>

#include "fault/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "system/event_io.hpp"
#include "system/uploader.hpp"
#include "track/resilient_ingest.hpp"

namespace rfidsim {
namespace {

/// With -DRFIDSIM_OBS=OFF every hook compiles to a constant false; the
/// counter-delta tests then assert that nothing moves.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kHooksLive = false;
#else
constexpr bool kHooksLive = true;
#endif

using reliability::CalibrationProfile;
using reliability::RepeatedRuns;
using reliability::Scenario;

class InstrumentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_metrics_ = obs::enabled();
    saved_trace_ = obs::trace_enabled();
    obs::set_enabled(true);
    obs::set_trace_enabled(false);
  }
  void TearDown() override {
    obs::set_trace_enabled(saved_trace_);
    obs::set_enabled(saved_metrics_);
  }

 private:
  bool saved_metrics_ = false;
  bool saved_trace_ = false;
};

bool logs_equal(const RepeatedRuns& a, const RepeatedRuns& b) {
  if (a.logs.size() != b.logs.size()) return false;
  for (std::size_t r = 0; r < a.logs.size(); ++r) {
    if (a.logs[r].size() != b.logs[r].size()) return false;
    for (std::size_t i = 0; i < a.logs[r].size(); ++i) {
      const sys::ReadEvent& x = a.logs[r][i];
      const sys::ReadEvent& y = b.logs[r][i];
      if (x.tag != y.tag || x.time_s != y.time_s ||
          x.reader_index != y.reader_index || x.antenna_index != y.antenna_index ||
          x.rssi.value() != y.rssi.value()) {
        return false;
      }
    }
  }
  return true;
}

// The feedback-free contract, held end to end: the exact same seeds must
// produce the exact same event stream whether observability (metrics AND
// trace spans) is on or off. This is the same differential perf_baseline
// runs, kept in the tier-1 suite so a breach fails fast under ctest and
// the sanitizers.
TEST_F(InstrumentationTest, EventStreamsAreIdenticalWithObsOnAndOff) {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front};
  const Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  constexpr std::size_t kReps = 3;
  constexpr std::uint64_t kSeed = 20070625;

  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const RepeatedRuns with_obs = reliability::run_repeated_parallel(sc, kReps, kSeed);

  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const RepeatedRuns without_obs = reliability::run_repeated_parallel(sc, kReps, kSeed);

  EXPECT_FALSE(with_obs.logs.empty());
  EXPECT_TRUE(logs_equal(with_obs, without_obs));
}

TEST_F(InstrumentationTest, PortalRunFeedsGen2AndPathCacheCounters) {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  const Scenario sc = reliability::make_read_range_scenario(3.0, cal);

  const std::uint64_t rounds_before = obs::counter("gen2.rounds").value();
  const std::uint64_t passes_before = obs::counter("sys.portal.passes").value();
  const std::uint64_t hits_before = obs::counter("scene.path_cache.full_hits").value();
  const std::uint64_t misses_before =
      obs::counter("scene.path_cache.full_misses").value();

  (void)reliability::run_repeated_parallel(sc, 2, 7);

  if (!kHooksLive) {
    EXPECT_EQ(obs::counter("gen2.rounds").value(), rounds_before);
    EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before);
    return;
  }
  EXPECT_GT(obs::counter("gen2.rounds").value(), rounds_before);
  EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before + 2);
  // The read-range scene is fully static: the first evaluation of each
  // (antenna, tag) pair misses, every later one hits.
  EXPECT_GT(obs::counter("scene.path_cache.full_misses").value(), misses_before);
  EXPECT_GT(obs::counter("scene.path_cache.full_hits").value(), hits_before);
}

TEST_F(InstrumentationTest, DisabledHooksRecordNothing) {
  obs::set_enabled(false);
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  const Scenario sc = reliability::make_read_range_scenario(3.0, cal);
  const std::uint64_t rounds_before = obs::counter("gen2.rounds").value();
  const std::uint64_t passes_before = obs::counter("sys.portal.passes").value();
  (void)reliability::run_repeated_parallel(sc, 1, 7);
  EXPECT_EQ(obs::counter("gen2.rounds").value(), rounds_before);
  EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before);
}

// Satellite fix for the lenient-parse blind spot: dropped rows now land in
// a registry counter even when the caller discards ParseStats.
TEST_F(InstrumentationTest, LenientCsvParseCountsDroppedRows) {
  const std::string csv =
      "time_s,tag,reader,antenna,rssi_dbm\n"
      "0.10,42,0,0,-55.0\n"
      "garbage,row,is,not,numeric_enough\n"
      "0.20,43,0,0,-58.0\n";
  const std::uint64_t ok_before = obs::counter("sys.read_csv.rows_ok").value();
  const std::uint64_t bad_before = obs::counter("sys.read_csv.rows_bad").value();
  const std::uint64_t parses_before = obs::counter("sys.read_csv.parses").value();

  // No ParseStats out-param: before the registry hook this caller had no
  // way of noticing the dropped row.
  const sys::EventLog log = sys::from_csv(csv, sys::ParseMode::Lenient, nullptr);

  EXPECT_EQ(log.size(), 2u);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("sys.read_csv.rows_ok").value(), ok_before + 2 * d);
  EXPECT_EQ(obs::counter("sys.read_csv.rows_bad").value(), bad_before + d);
  EXPECT_EQ(obs::counter("sys.read_csv.parses").value(), parses_before + d);
}

TEST_F(InstrumentationTest, UploaderRetriesSurfaceInRegistry) {
  sys::UploaderConfig cfg;
  cfg.loss_probability = 0.3;
  cfg.max_retries = 16;
  sys::EventUploader up(cfg);
  sys::EventLog log;
  for (std::size_t i = 0; i < 320; ++i) {
    sys::ReadEvent ev;
    ev.time_s = 0.01 * static_cast<double>(i);
    ev.tag = scene::TagId{i};
    log.push_back(ev);
  }
  const std::uint64_t retries_before = obs::counter("sys.uploader.retries").value();
  const std::uint64_t batches_before = obs::counter("sys.uploader.batches").value();
  Rng rng(2);
  (void)up.upload_wire(log, 0, rng, nullptr);
  EXPECT_GT(up.stats().retries, 0u);  // Old accessor still works...
  if (!kHooksLive) {
    EXPECT_EQ(obs::counter("sys.uploader.retries").value(), retries_before);
    return;
  }
  EXPECT_EQ(obs::counter("sys.uploader.retries").value(),
            retries_before + up.stats().retries);  // ...and the registry agrees.
  EXPECT_EQ(obs::counter("sys.uploader.batches").value(),
            batches_before + up.stats().batches);
}

TEST_F(InstrumentationTest, IngestQuarantineSurfacesInRegistry) {
  track::ResilientIngest ingest;
  sys::EventLog raw;
  sys::ReadEvent ok;
  ok.time_s = 1.0;
  ok.tag = scene::TagId{1};
  ok.rssi = DbmPower(-60.0);
  raw.push_back(ok);
  sys::ReadEvent outside = ok;
  outside.time_s = 99.0;  // Outside the pass window: quarantined.
  raw.push_back(outside);

  const std::uint64_t quarantined_before =
      obs::counter("track.ingest.quarantined").value();
  const std::uint64_t accepted_before = obs::counter("track.ingest.accepted").value();
  const track::IngestReport report = ingest.ingest(raw, 0.0, 10.0);
  EXPECT_EQ(report.quarantined, 1u);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("track.ingest.quarantined").value(), quarantined_before + d);
  EXPECT_EQ(obs::counter("track.ingest.accepted").value(), accepted_before + d);
}

TEST_F(InstrumentationTest, FaultScheduleSamplingIsCounted) {
  fault::FaultConfig cfg;
  cfg.reader.mtbf_s = 2.0;
  cfg.reader.mttr_s = 0.5;
  const std::uint64_t sampled_before = obs::counter("fault.schedules_sampled").value();
  Rng rng(11);
  (void)fault::FaultSchedule::sample(cfg, 2, 2, 0.0, 20.0, rng);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("fault.schedules_sampled").value(), sampled_before + d);

  // The all-off default config is deliberately not counted: it samples an
  // empty schedule on every run and would drown the signal.
  Rng rng2(11);
  (void)fault::FaultSchedule::sample({}, 2, 2, 0.0, 20.0, rng2);
  EXPECT_EQ(obs::counter("fault.schedules_sampled").value(), sampled_before + d);
}

}  // namespace
}  // namespace rfidsim
