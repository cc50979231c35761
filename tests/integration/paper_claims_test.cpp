// Integration tests for the paper's headline claims. Each test runs the
// full stack (scene -> RF -> Gen 2 -> portal -> tracking -> estimator) on
// the calibrated profile and asserts the *qualitative* result the paper
// reports — orderings and directions, not absolute percentages.
#include <gtest/gtest.h>

#include "reliability/analytical.hpp"
#include "reliability/estimator.hpp"
#include "reliability/orientation.hpp"
#include "reliability/scenarios.hpp"

namespace rfidsim::reliability {
namespace {

const CalibrationProfile kCal = CalibrationProfile::paper2006();
constexpr std::uint64_t kSeed = 777;

double object_reliability(const ObjectScenarioOptions& opt, std::size_t reps = 16) {
  return measure_tracking_reliability(make_object_tracking_scenario(opt, kCal), reps,
                                      kSeed);
}

double human_reliability(const HumanScenarioOptions& opt, std::size_t reps = 24) {
  return measure_tracking_reliability(make_human_tracking_scenario(opt, kCal), reps,
                                      kSeed);
}

TEST(PaperClaim, ReadReliabilityDecaysWithDistance) {
  // Fig. 2: 100% at 1 m, gradual decay to 9 m.
  const double at_1m = measure_tag_reliability(make_read_range_scenario(1.0, kCal), 20, kSeed);
  const double at_5m = measure_tag_reliability(make_read_range_scenario(5.0, kCal), 20, kSeed);
  const double at_9m = measure_tag_reliability(make_read_range_scenario(9.0, kCal), 20, kSeed);
  EXPECT_GT(at_1m, 0.99);
  EXPECT_LT(at_5m, at_1m);
  EXPECT_LT(at_9m, at_5m);
  EXPECT_GT(at_5m, 0.3);  // Gradual, not a cliff.
}

TEST(PaperClaim, CloseTagsInterfereAndFortyMmIsSafe) {
  // Fig. 4: 0.3-4 mm spacing is unusable; 40 mm reads fully.
  const auto& orientation = kFigure3Orientations[1];  // Case 2: best case.
  const double tight = measure_tag_reliability(
      make_intertag_scenario(0.004, orientation, kCal), 10, kSeed);
  const double safe = measure_tag_reliability(
      make_intertag_scenario(0.040, orientation, kCal), 10, kSeed);
  EXPECT_LT(tight, 0.2);
  EXPECT_GT(safe, 0.95);
}

TEST(PaperClaim, PerpendicularOrientationsAreWorst) {
  // Fig. 4 at 20 mm: cases 1 and 5 (dipole axis toward the antenna) trail
  // every other orientation.
  double perpendicular_best = 0.0;  // Highest reliability among cases 1, 5.
  double parallel_worst = 1.0;      // Lowest among the rest.
  for (const auto& orientation : kFigure3Orientations) {
    const double rel = measure_tag_reliability(
        make_intertag_scenario(0.020, orientation, kCal), 12, kSeed);
    if (orientation.case_number == 1 || orientation.case_number == 5) {
      perpendicular_best = std::max(perpendicular_best, rel);
    } else {
      parallel_worst = std::min(parallel_worst, rel);
    }
  }
  EXPECT_LT(perpendicular_best, parallel_worst);
}

TEST(PaperClaim, TagLocationOnObjectMattersAndTopIsWorst) {
  // Table 1: front best, top worst, with a big spread.
  ObjectScenarioOptions front;
  front.tag_faces = {scene::BoxFace::Front};
  ObjectScenarioOptions side_far;
  side_far.tag_faces = {scene::BoxFace::SideFar};
  ObjectScenarioOptions top;
  top.tag_faces = {scene::BoxFace::Top};
  const double r_front = object_reliability(front);
  const double r_side_far = object_reliability(side_far);
  const double r_top = object_reliability(top);
  EXPECT_GT(r_front, r_side_far);
  EXPECT_GT(r_side_far, r_top);
  EXPECT_GT(r_front - r_top, 0.3);  // "dramatic impact".
}

TEST(PaperClaim, BodyBlockingMakesFarSideNearlyUnreadable) {
  // Table 2: side (farther) at 10% vs side (closer) at 90%.
  HumanScenarioOptions near_side;
  near_side.tag_spots = {scene::BodySpot::SideNear};
  HumanScenarioOptions far_side;
  far_side.tag_spots = {scene::BodySpot::SideFar};
  const double r_near = human_reliability(near_side);
  const double r_far = human_reliability(far_side);
  EXPECT_GT(r_near, 0.8);
  EXPECT_LT(r_far, 0.35);
}

TEST(PaperClaim, ReflectionOffSecondSubjectHelpsCloserOne) {
  // §3: "read reliabilities for the closer subject in the two subject case
  // was higher than those for a single subject".
  HumanScenarioOptions solo;
  solo.tag_spots = {scene::BodySpot::SideFar};
  HumanScenarioOptions pair = solo;
  pair.subject_count = 2;
  const Scenario duo = make_human_tracking_scenario(pair, kCal);
  const auto per_obj = per_object_reliability(duo, run_repeated_parallel(duo, 60, kSeed));
  double closer = 0.0;
  for (const auto& [obj, ci] : per_obj) {
    if (obj.value == 1) closer = ci.estimate;
  }
  const double alone = human_reliability(solo, 60);
  EXPECT_GE(closer, alone - 0.02);
}

TEST(PaperClaim, TwoTagsBeatOneTag) {
  // Table 3: 1 tag avg 80% -> 2 tags avg 97%.
  ObjectScenarioOptions one;
  one.tag_faces = {scene::BoxFace::Front};
  ObjectScenarioOptions two;
  two.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  EXPECT_GT(object_reliability(two), object_reliability(one));
  EXPECT_GT(object_reliability(two), 0.93);
}

TEST(PaperClaim, TagRedundancyBeatsAntennaRedundancy) {
  // §4: "the performance of multiple tags per object is better than
  // multiple antennas per portal".
  ObjectScenarioOptions two_tags;
  two_tags.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  ObjectScenarioOptions two_antennas;
  two_antennas.tag_faces = {scene::BoxFace::Front};
  two_antennas.portal.antenna_count = 2;
  EXPECT_GE(object_reliability(two_tags, 24), object_reliability(two_antennas, 24));
}

TEST(PaperClaim, FullRedundancyReachesNearCertainty) {
  // Table 3 bottom row: 2 antennas + 2 tags -> 100%.
  ObjectScenarioOptions full;
  full.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  full.portal.antenna_count = 2;
  EXPECT_GT(object_reliability(full, 24), 0.97);
}

TEST(PaperClaim, FourTagsPerPersonVirtuallyGuaranteeTracking) {
  // Tables 4-5: four tags reach ~100% even for one antenna.
  HumanScenarioOptions four;
  four.tag_spots = {scene::BodySpot::Front, scene::BodySpot::Back,
                    scene::BodySpot::SideNear, scene::BodySpot::SideFar};
  EXPECT_GT(human_reliability(four), 0.95);
}

TEST(PaperClaim, ReaderRedundancyWithoutDrmHurts) {
  // §4: two readers per portal severely reduce reliability without
  // dense-reader mode...
  ObjectScenarioOptions one_reader;
  one_reader.tag_faces = {scene::BoxFace::Front};
  one_reader.portal.antenna_count = 2;
  ObjectScenarioOptions two_readers = one_reader;
  two_readers.portal.reader_count = 2;
  const double single = object_reliability(one_reader, 20);
  const double dual = object_reliability(two_readers, 20);
  EXPECT_LT(dual, single - 0.15);

  // ...and DRM restores the loss.
  ObjectScenarioOptions drm = two_readers;
  drm.portal.dense_reader_mode = true;
  EXPECT_GT(object_reliability(drm, 20), dual);
}

TEST(PaperClaim, AnalyticalModelPredictsRedundancyGain) {
  // §4: R_C = 1 - prod(1 - P_i) tracks the measured two-tag reliability.
  ObjectScenarioOptions front;
  front.tag_faces = {scene::BoxFace::Front};
  ObjectScenarioOptions side;
  side.tag_faces = {scene::BoxFace::SideNear};
  const double p_front = object_reliability(front, 24);
  const double p_side = object_reliability(side, 24);

  ObjectScenarioOptions both;
  both.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  const double measured = object_reliability(both, 24);
  const double predicted = expected_reliability({p_front, p_side});
  EXPECT_NEAR(measured, predicted, 0.08);
}

}  // namespace
}  // namespace rfidsim::reliability
