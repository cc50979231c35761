// End-to-end pipeline tests: event logs flowing from the portal simulator
// through tracking and cleaning, and cross-module consistency checks.
#include <gtest/gtest.h>

#include <unordered_set>

#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "track/cleaning.hpp"
#include "track/tracking.hpp"

namespace rfidsim::reliability {
namespace {

const CalibrationProfile kCal = CalibrationProfile::paper2006();

TEST(PipelineTest, EventsResolveToRegisteredObjects) {
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 4, 42);
  for (const auto& log : runs.logs) {
    for (const auto& ev : log) {
      EXPECT_TRUE(sc.registry.object_of(ev.tag).has_value())
          << "event for unbound tag " << ev.tag.value;
    }
  }
}

TEST(PipelineTest, TrackingAnalyzerAgreesWithEstimator) {
  ObjectScenarioOptions opt;
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 6, 43);
  const track::TrackingAnalyzer analyzer(sc.registry);
  double manual_sum = 0.0;
  for (const auto& log : runs.logs) {
    manual_sum += analyzer.tracking_fraction(log);
  }
  EXPECT_NEAR(manual_sum / 6.0, mean_object_reliability(sc, runs), 1e-12);
}

TEST(PipelineTest, WindowSmootherBridgesIntraPassGaps) {
  ObjectScenarioOptions opt;
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 1, 44);
  const auto& log = runs.logs[0];
  if (log.empty()) GTEST_SKIP() << "no events this seed";
  // With a window the length of the pass, every tag has one presence
  // interval; with a tiny window, at least as many.
  const track::WindowSmoother wide(10.0);
  const track::WindowSmoother narrow(0.01);
  std::unordered_set<scene::TagId> distinct;
  for (const auto& ev : log) distinct.insert(ev.tag);
  EXPECT_EQ(wide.smooth(log).size(), distinct.size());
  EXPECT_GE(narrow.smooth(log).size(), wide.smooth(log).size());
}

TEST(PipelineTest, AccompanyConstraintRecoversMissedBoxes) {
  // Run the single-tag object scenario (imperfect), group all 12 boxes as
  // one pallet, and verify the accompany constraint lifts detection.
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::SideFar};  // Deliberately weak spot.
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const RepeatedRuns runs = run_repeated_parallel(sc, 10, 45);
  const track::TrackingAnalyzer analyzer(sc.registry);

  std::vector<std::vector<track::ObjectId>> groups{
      {sc.registry.objects().begin(), sc.registry.objects().end()}};

  double raw = 0.0;
  double cleaned = 0.0;
  for (const auto& log : runs.logs) {
    const auto report = analyzer.analyze(log);
    raw += static_cast<double>(report.objects_identified.size()) / 12.0;
    const auto fixed =
        track::apply_accompany_constraint(report.objects_identified, groups, 0.25);
    cleaned += static_cast<double>(fixed.corrected.size()) / 12.0;
  }
  EXPECT_GT(cleaned, raw);
}

TEST(PipelineTest, RouteConstraintAcrossSequentialPortals) {
  // Simulate the same cart passing two portals; an object missed at portal
  // 0 but seen at portal 1 is recovered by the route constraint.
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Top};  // Weak: plenty of misses.
  const Scenario sc = make_object_tracking_scenario(opt, kCal);
  const track::TrackingAnalyzer analyzer(sc.registry);
  const RepeatedRuns runs = run_repeated_parallel(sc, 2, 46);

  track::RouteObservations obs;
  obs.checkpoint_count = 2;
  obs.detected.resize(2);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto report = analyzer.analyze(runs.logs[k]);
    obs.detected[k] = report.objects_identified;
  }
  const auto result = track::apply_route_constraint(obs);
  // Everything ever seen at checkpoint 1 is present at checkpoint 0.
  for (const auto& obj : obs.detected[1]) {
    EXPECT_TRUE(result.corrected.detected[0].contains(obj));
  }
}

TEST(PipelineTest, StatsAccountForAllEvents) {
  const Scenario sc = make_read_range_scenario(1.0, kCal);
  sys::PortalSimulator sim(sc.scene, sc.portal);
  Rng rng(47);
  const sys::EventLog log = sim.run(rng);
  EXPECT_EQ(sim.stats().success_slots, log.size());
}

}  // namespace
}  // namespace rfidsim::reliability
