// Differential tests: the sweep-backed estimator at several thread counts
// against its 1-thread run, which executes every repetition inline on the
// calling thread in index order — the serial witness. The contract is
// byte-identity — every field of every event, in order — not statistical
// agreement.
#include <gtest/gtest.h>

#include <cstddef>

#include "reliability/estimator.hpp"
#include "reliability/facility.hpp"
#include "reliability/scenarios.hpp"

namespace rfidsim::reliability {
namespace {

const CalibrationProfile kCal = CalibrationProfile::paper2006();

/// Full-field, exact comparison of two repeated-run event streams.
void expect_logs_identical(const RepeatedRuns& serial, const RepeatedRuns& parallel) {
  ASSERT_EQ(serial.logs.size(), parallel.logs.size());
  for (std::size_t rep = 0; rep < serial.logs.size(); ++rep) {
    ASSERT_EQ(serial.logs[rep].size(), parallel.logs[rep].size()) << "rep " << rep;
    for (std::size_t i = 0; i < serial.logs[rep].size(); ++i) {
      const sys::ReadEvent& s = serial.logs[rep][i];
      const sys::ReadEvent& p = parallel.logs[rep][i];
      EXPECT_EQ(s.tag, p.tag) << "rep " << rep << " event " << i;
      EXPECT_EQ(s.time_s, p.time_s) << "rep " << rep << " event " << i;
      EXPECT_EQ(s.reader_index, p.reader_index) << "rep " << rep << " event " << i;
      EXPECT_EQ(s.antenna_index, p.antenna_index) << "rep " << rep << " event " << i;
      EXPECT_EQ(s.rssi, p.rssi) << "rep " << rep << " event " << i;
    }
  }
}

TEST(ParallelEstimatorTest, MatchesSerialResultsExactly) {
  // The whole point of per-repetition RNG forking: thread scheduling must
  // not change a single event.
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front};
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  expect_logs_identical(run_repeated_parallel(sc, 8, 321, 1),
                        run_repeated_parallel(sc, 8, 321, 4));
}

TEST(ParallelEstimatorTest, MatchesSerialOnHumanScenario) {
  // The human rig exercises walking trajectories, two antennas and the
  // proximity/Fresnel terms — the scenario family the object test misses.
  HumanScenarioOptions opt;
  opt.subject_count = 2;
  opt.tag_spots = {scene::BodySpot::Front, scene::BodySpot::Back};
  opt.portal.antenna_count = 2;
  const Scenario sc = make_human_tracking_scenario(opt, kCal);
  expect_logs_identical(run_repeated_parallel(sc, 6, 777, 1),
                        run_repeated_parallel(sc, 6, 777, 3));
}

TEST(ParallelEstimatorTest, IdenticalAcrossThreadCounts) {
  // 2, 5 and hardware threads must all produce the bytes of the inline
  // 1-thread run; only wall-clock may differ.
  const Scenario sc = make_read_range_scenario(4.0, kCal);
  const RepeatedRuns reference = run_repeated_parallel(sc, 10, 20070625, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{0}}) {
    SCOPED_TRACE(threads);
    expect_logs_identical(reference, run_repeated_parallel(sc, 10, 20070625, threads));
  }
}

TEST(ParallelEstimatorTest, SingleRoundModeMatchesToo) {
  const Scenario sc = make_read_range_scenario(4.0, kCal);
  expect_logs_identical(run_repeated_parallel(sc, 6, 11, 1, true),
                        run_repeated_parallel(sc, 6, 11, 3, true));
}

TEST(ParallelEstimatorTest, MoreThreadsThanRepsIsFine) {
  const Scenario sc = make_read_range_scenario(2.0, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 2, 5, 16);
  EXPECT_EQ(runs.logs.size(), 2u);
  expect_logs_identical(run_repeated_parallel(sc, 2, 5, 1), runs);
}

TEST(ParallelEstimatorTest, ZeroThreadsUsesHardwareConcurrency) {
  const Scenario sc = make_read_range_scenario(2.0, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 4, 5, 0);
  EXPECT_EQ(runs.logs.size(), 4u);
}

TEST(ParallelFacilityTest, ShipmentTraceIndependentOfThreadCount) {
  // FacilitySimulator checkpoints are sweep cells: the shipment trace from
  // a 4-thread run must equal the single-thread run, detection set for
  // detection set.
  const FacilitySimulator facility(
      {
          {"dock", {}, 1.0},
          {"aisle", {.antenna_count = 2}, 1.2},
          {"gate", {}, 0.8},
      },
      ShipmentSpec{}, kCal);
  const FacilityRun serial = facility.run_shipment(4242, 1);
  const FacilityRun parallel = facility.run_shipment(4242, 4);

  EXPECT_EQ(serial.case_count, parallel.case_count);
  ASSERT_EQ(serial.observations.detected.size(), parallel.observations.detected.size());
  for (std::size_t k = 0; k < serial.observations.detected.size(); ++k) {
    EXPECT_EQ(serial.observations.detected[k], parallel.observations.detected[k])
        << "checkpoint " << k;
  }
  EXPECT_EQ(serial.full_trace_fraction, parallel.full_trace_fraction);
  EXPECT_EQ(serial.delivered_fraction, parallel.delivered_fraction);
  EXPECT_EQ(serial.cell_coverage, parallel.cell_coverage);
}

}  // namespace
}  // namespace rfidsim::reliability
