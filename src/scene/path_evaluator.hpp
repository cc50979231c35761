// PathEvaluator: geometry in, link-budget terms out.
//
// For one (antenna, tag, time) triple this computes every term of
// rf::PathTerms from first principles of the scene:
//   distance            from world positions,
//   reader gain         from the antenna pattern and off-boresight angle,
//   tag gain            from the dipole pattern and the tag's world axis,
//   patch shadowing     tags read from behind their mounting face lose the
//                       face + contents in the path (handled as occlusion),
//   polarization        circular reader -> constant 3 dB,
//   material loss       backing/detuning + occlusion chords through every
//                       body in the scene (including the tag's own parent),
//   coupling loss       from neighbouring tags on the same entity,
//   reflection gain     bounce bonus from reflective bodies near (but not
//                       on) the path — the paper's "signal reflections off
//                       the farther subject",
//   multipath           two-ray ground ripple.
//
// This scalar evaluator is the uncached reference oracle: every call
// recomputes every term. Production runs BatchPathEvaluator, which must
// stay bit-identical to it (tests/scene/kernel_differential_test).
#pragma once

#include <cstddef>
#include <vector>

#include "rf/antenna.hpp"
#include "rf/coupling.hpp"
#include "rf/link_budget.hpp"
#include "rf/propagation.hpp"
#include "scene/scene.hpp"

namespace rfidsim::scene {

/// Tunable physics constants of the evaluator (calibration knobs; see
/// DESIGN.md §4.4 and reliability::CalibrationProfile).
struct EvaluatorParams {
  rf::DipoleTagAntenna tag_antenna{};
  rf::CouplingParams coupling{};
  rf::TwoRayGround two_ray{};
  double frequency_hz = 915e6;
  /// Margin by which an occlusion ray is allowed to graze the tag's own
  /// mounting face without counting as self-occlusion (metres).
  double self_occlusion_margin_m = 0.01;
  /// Reflection bonus: gain added when a reflective body sits within
  /// `reflector_range_m` of the tag but clear of the direct path.
  double reflection_bonus_db = 2.5;
  double reflector_range_m = 1.5;
  /// Only count coupling from neighbours closer than this (metres).
  double coupling_neighbourhood_m = 0.10;

  /// Diffuse scatter path. Indoor UHF propagation is never purely
  /// line-of-sight: walls, floors and nearby metal sustain a diffuse field
  /// that illuminates tags whose direct path is blocked or in a pattern
  /// null — the reason the paper still reads far-side tags at useful rates
  /// (Table 1: 63%). The scatter path pays `scatter_excess_db` over free
  /// space, bypasses occlusion and the tag's directional null (arrivals
  /// average over angle), and benefits from nearby reflectors.
  double scatter_excess_db = 12.0;
  /// Effective angle-of-arrival diversity for the scatter path: the
  /// tag-pattern and image factors are evaluated at this effective
  /// sin(elevation) instead of the geometric one.
  double scatter_sin_alpha = 0.35;
  /// Average dipole gain over diffuse arrivals, dBi (peak is 2.15).
  double scatter_tag_gain_dbi = 0.95;

  /// Fresnel-zone grazing blockage: a body that does not intersect the
  /// direct ray but passes within `fresnel_radius_m` of it still eats part
  /// of the first Fresnel zone. Loss ramps quadratically from 0 at the
  /// radius to `fresnel_max_db` at zero clearance.
  double fresnel_radius_m = 0.28;
  double fresnel_max_db = 8.0;

  /// Proximity absorption: a water-rich body (another person) standing
  /// within `proximity_range_m` of a tag soaks up near-field energy and
  /// perturbs the tag's match, independent of whether it blocks the ray.
  /// Applied at full strength at contact, tapering linearly to zero at the
  /// range limit. This is part of why both subjects of the paper's
  /// two-person tests read worse than lone subjects at the same spots.
  double proximity_loss_db = 3.5;
  double proximity_range_m = 0.8;

  /// BatchPathEvaluator's static-geometry cache (see batch_evaluator.hpp).
  /// Terms that are pure functions of time-invariant poses are computed
  /// once per (antenna, tag) pair and reused: the pair-local terms
  /// (distance, gains, polarization, coupling neighbourhood, image/multipath
  /// factors) when the tag's own entity is static, and the entire
  /// rf::PathTerms when every entity in the scene is static (occlusion
  /// chords, reflector sets and proximity then cannot change either).
  /// Cached values are the first-evaluation results verbatim, so enabling
  /// the cache is bit-identical to disabling it —
  /// tests/scene/path_cache_test.cpp holds it to that. The scalar
  /// PathEvaluator ignores it.
  bool static_geometry_cache = true;
};

/// Evaluates rf::PathTerms for antenna/tag pairs at given times.
class PathEvaluator {
 public:
  /// The evaluator holds a reference to the scene; the scene must outlive
  /// it.
  PathEvaluator(const Scene& scene, EvaluatorParams params = {});

  /// Full evaluation of one path at time `t_s`.
  rf::PathTerms evaluate(std::size_t antenna_index, const TagAddress& tag,
                         double t_s) const;

  const EvaluatorParams& params() const { return params_; }
  const Scene& scene() const { return scene_; }

 private:
  Decibel occlusion_loss(const Segment& path, const TagAddress& tag, double t_s) const;
  Decibel fresnel_blockage(const Segment& path, const TagAddress& tag, double t_s) const;
  Decibel coupling_loss(const TagAddress& tag, double t_s) const;
  Decibel reflection_gain(const Segment& path, const TagAddress& tag, double t_s) const;

  const Scene& scene_;
  EvaluatorParams params_;
};

}  // namespace rfidsim::scene
