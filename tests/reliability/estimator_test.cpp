#include "reliability/estimator.hpp"

#include <gtest/gtest.h>

namespace rfidsim::reliability {
namespace {

const CalibrationProfile kCal = CalibrationProfile::paper2006();

Scenario easy_scenario() {
  // Read-range at 1 m: essentially every tag reads every time.
  return make_read_range_scenario(1.0, kCal);
}

TEST(EstimatorTest, RunRepeatedProducesRequestedLogs) {
  const Scenario sc = easy_scenario();
  const RepeatedRuns runs = run_repeated_parallel(sc, 7, 123);
  EXPECT_EQ(runs.logs.size(), 7u);
}

TEST(EstimatorTest, DeterministicAcrossInvocations) {
  const Scenario sc = easy_scenario();
  const auto a = distinct_tags_per_run(run_repeated_parallel(sc, 5, 99));
  const auto b = distinct_tags_per_run(run_repeated_parallel(sc, 5, 99));
  EXPECT_EQ(a, b);
}

TEST(EstimatorTest, DifferentSeedsDiffer) {
  // At a marginal distance the per-run counts depend on the draws.
  const Scenario sc = make_read_range_scenario(6.0, kCal);
  const auto a = distinct_tags_per_run(run_repeated_parallel(sc, 10, 1));
  const auto b = distinct_tags_per_run(run_repeated_parallel(sc, 10, 2));
  EXPECT_NE(a, b);
}

TEST(EstimatorTest, DistinctCountsAreBoundedByPopulation) {
  const Scenario sc = easy_scenario();
  for (double count : distinct_tags_per_run(run_repeated_parallel(sc, 5, 7))) {
    EXPECT_GE(count, 0.0);
    EXPECT_LE(count, 20.0);
  }
}

TEST(EstimatorTest, PerTagReliabilityCoversAllTags) {
  const Scenario sc = easy_scenario();
  const RepeatedRuns runs = run_repeated_parallel(sc, 10, 5);
  const auto per_tag = per_tag_reliability(sc, runs);
  EXPECT_EQ(per_tag.size(), 20u);
  for (const auto& [id, ci] : per_tag) {
    EXPECT_GE(ci.estimate, 0.0);
    EXPECT_LE(ci.estimate, 1.0);
    EXPECT_LE(ci.lower, ci.estimate);
    EXPECT_GE(ci.upper, ci.estimate);
  }
}

TEST(EstimatorTest, EasyScenarioReadsNearlyEverything) {
  const Scenario sc = easy_scenario();
  EXPECT_GT(measure_tag_reliability(sc, 10, 3), 0.97);
  EXPECT_GT(measure_tracking_reliability(sc, 10, 3), 0.97);
}

TEST(EstimatorTest, FarScenarioReadsLess) {
  const Scenario far = make_read_range_scenario(8.0, kCal);
  const Scenario near = make_read_range_scenario(2.0, kCal);
  EXPECT_LT(measure_tag_reliability(far, 15, 3),
            measure_tag_reliability(near, 15, 3));
}

TEST(EstimatorTest, ObjectReliabilityUsesRegistry) {
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front};
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 6, 11);
  const auto per_object = per_object_reliability(sc, runs);
  EXPECT_EQ(per_object.size(), 12u);
}

TEST(EstimatorTest, SingleRoundModeIsShorterThanContinuous) {
  const Scenario sc = easy_scenario();
  const RepeatedRuns single = run_repeated_parallel(sc, 3, 17, 0, /*single_round=*/true);
  const RepeatedRuns continuous = run_repeated_parallel(sc, 3, 17, 0, /*single_round=*/false);
  // Continuous mode sees at least as many events (re-reads across rounds
  // are collapsed per tag, so compare raw event counts).
  std::size_t single_events = 0;
  std::size_t continuous_events = 0;
  for (const auto& log : single.logs) single_events += log.size();
  for (const auto& log : continuous.logs) continuous_events += log.size();
  EXPECT_LE(single_events, continuous_events);
}

TEST(EstimatorTest, MeanReliabilityIsAverageOfPerTag) {
  const Scenario sc = make_read_range_scenario(5.0, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 8, 23);
  const auto per_tag = per_tag_reliability(sc, runs);
  double sum = 0.0;
  for (const auto& [id, ci] : per_tag) sum += ci.estimate;
  EXPECT_NEAR(mean_tag_reliability(sc, runs), sum / per_tag.size(), 1e-12);
}

}  // namespace
}  // namespace rfidsim::reliability
