// Differential tests for the batch kernel's static-geometry cache
// (EvaluatorParams::static_geometry_cache): a cached BatchPathEvaluator
// must return bit-identical rf::PathTerms to an uncached one on every
// (antenna, tag, time) triple. "Close enough" is not good enough here —
// the cache feeds the Monte Carlo sweeps whose outputs are pinned
// byte-for-byte by golden digests, so a single ULP of drift would surface
// as a reliability-table diff.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "reliability/scenarios.hpp"
#include "scene/batch_evaluator.hpp"

namespace rfidsim::scene {
namespace {

using reliability::CalibrationProfile;
using reliability::HumanScenarioOptions;
using reliability::ObjectScenarioOptions;
using reliability::Scenario;

const CalibrationProfile kCal = CalibrationProfile::paper2006();

/// Exact (bitwise, via operator==) comparison of every PathTerms field.
void expect_identical(const rf::PathTerms& a, const rf::PathTerms& b,
                      std::size_t antenna, const TagAddress& tag, double t_s) {
  const auto where = ::testing::Message()
                     << "antenna " << antenna << " entity " << tag.entity << " tag "
                     << tag.tag << " t=" << t_s;
  EXPECT_EQ(a.distance_m, b.distance_m) << where;
  EXPECT_EQ(a.reader_gain, b.reader_gain) << where;
  EXPECT_EQ(a.tag_gain, b.tag_gain) << where;
  EXPECT_EQ(a.polarization_loss, b.polarization_loss) << where;
  EXPECT_EQ(a.material_loss, b.material_loss) << where;
  EXPECT_EQ(a.coupling_loss, b.coupling_loss) << where;
  EXPECT_EQ(a.blockage_loss, b.blockage_loss) << where;
  EXPECT_EQ(a.reflection_gain, b.reflection_gain) << where;
  EXPECT_EQ(a.multipath_gain, b.multipath_gain) << where;
}

/// Sweeps every (antenna, tag) pair over `steps` time samples of the portal
/// window with a cached and an uncached evaluator and demands bit-identity.
/// Each antenna is evaluated twice per time step so the second call
/// exercises the cache-hit path, not just the fill path.
void run_differential(const Scenario& sc, std::size_t steps) {
  EvaluatorParams cached_params = sc.portal.evaluator;
  cached_params.static_geometry_cache = true;
  EvaluatorParams uncached_params = sc.portal.evaluator;
  uncached_params.static_geometry_cache = false;
  BatchPathEvaluator cached(sc.scene, cached_params);
  BatchPathEvaluator uncached(sc.scene, uncached_params);

  const auto tags = sc.scene.all_tags();
  const double t0 = sc.portal.start_time_s;
  const double dt =
      steps > 1 ? (sc.portal.end_time_s - t0) / static_cast<double>(steps - 1) : 0.0;
  std::vector<rf::PathTerms> want, got;
  for (std::size_t s = 0; s < steps; ++s) {
    const double t_s = t0 + dt * static_cast<double>(s);
    for (std::size_t a = 0; a < sc.scene.antennas.size(); ++a) {
      for (int pass = 0; pass < 2; ++pass) {
        uncached.evaluate_all(a, t_s, want);
        cached.evaluate_all(a, t_s, got);
        ASSERT_EQ(got.size(), tags.size());
        for (std::size_t i = 0; i < tags.size(); ++i) {
          expect_identical(want[i], got[i], a, tags[i], t_s);
        }
      }
    }
  }
}

TEST(PathCacheDifferentialTest, ReadRangeGridFullyStatic) {
  // Fig. 2 rig: everything static, so the cache stores whole PathTerms.
  for (const double d : {2.0, 5.0, 9.0}) {
    run_differential(reliability::make_read_range_scenario(d, kCal), 3);
  }
}

TEST(PathCacheDifferentialTest, ObjectCartMoving) {
  // Table 1 rig: the cart moves, so the cache must bypass itself entirely.
  ObjectScenarioOptions opt;
  opt.tag_faces = {BoxFace::Front, BoxFace::Top};
  opt.portal.antenna_count = 2;
  run_differential(reliability::make_object_tracking_scenario(opt, kCal), 7);
}

TEST(PathCacheDifferentialTest, HumanSubjectsWalking) {
  // Table 5 rig: two walking subjects, badges on both, 2 antennas.
  HumanScenarioOptions opt;
  opt.subject_count = 2;
  opt.tag_spots = {BodySpot::Front, BodySpot::Back};
  opt.portal.antenna_count = 2;
  run_differential(reliability::make_human_tracking_scenario(opt, kCal), 7);
}

TEST(PathCacheDifferentialTest, IntertagCouplingGrid) {
  run_differential(reliability::make_intertag_scenario(
                       0.01, reliability::kFigure3Orientations[1], kCal),
                   5);
}

TEST(PathCacheDifferentialTest, MixedStaticAndMovingEntities) {
  // The pair-term tier: a static shelf watched while a person walks past.
  // The shelf tags' pair-local terms are cached; occlusion/Fresnel/
  // proximity from the mover must still be recomputed every step.
  Scenario sc = reliability::make_read_range_scenario(4.0, kCal);
  HumanScenarioOptions walker;
  Scenario human = reliability::make_human_tracking_scenario(walker, kCal);
  for (Entity& e : human.scene.entities) {
    sc.scene.entities.push_back(std::move(e));
  }
  sc.portal.end_time_s = human.portal.end_time_s;
  run_differential(sc, 9);
}

TEST(PathCacheDifferentialTest, SceneStaticReflectsTrajectories) {
  const Scenario static_sc = reliability::make_read_range_scenario(3.0, kCal);
  EXPECT_TRUE(
      BatchPathEvaluator(static_sc.scene, static_sc.portal.evaluator).scene_static());

  ObjectScenarioOptions opt;
  const Scenario moving_sc = reliability::make_object_tracking_scenario(opt, kCal);
  EXPECT_FALSE(
      BatchPathEvaluator(moving_sc.scene, moving_sc.portal.evaluator).scene_static());
}

TEST(PathCacheDifferentialTest, RepeatedEvaluationIsIdempotent) {
  // A cached evaluator must return the same bits on call 1, 2 and 1000 —
  // the Monte Carlo loop hits each pair thousands of times per sweep.
  const Scenario sc = reliability::make_read_range_scenario(4.0, kCal);
  BatchPathEvaluator ev(sc.scene, sc.portal.evaluator);
  std::vector<rf::PathTerms> terms;
  ev.evaluate_all(0, sc.portal.start_time_s, terms);
  ASSERT_FALSE(terms.empty());
  const rf::PathTerms first = terms[0];
  for (int i = 0; i < 1000; ++i) {
    ev.evaluate_all(0, sc.portal.start_time_s, terms);
    ASSERT_EQ(first.distance_m, terms[0].distance_m);
    ASSERT_EQ(first.material_loss, terms[0].material_loss);
    ASSERT_EQ(first.multipath_gain, terms[0].multipath_gain);
  }
}

}  // namespace
}  // namespace rfidsim::scene
