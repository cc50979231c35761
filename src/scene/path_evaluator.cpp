#include "scene/path_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "rf/material.hpp"

namespace rfidsim::scene {

PathEvaluator::PathEvaluator(const Scene& scene, EvaluatorParams params)
    : scene_(scene), params_(params) {
  require(!scene.antennas.empty(), "PathEvaluator: scene has no antennas");
}

rf::PathTerms PathEvaluator::evaluate(std::size_t antenna_index, const TagAddress& tag,
                                      double t_s) const {
  require(antenna_index < scene_.antennas.size(),
          "PathEvaluator: antenna index out of range");
  require(tag.entity < scene_.entities.size(), "PathEvaluator: entity index out of range");
  const Entity& entity = scene_.entities[tag.entity];
  require(tag.tag < entity.tags().size(), "PathEvaluator: tag index out of range");

  const AntennaSite& antenna = scene_.antennas[antenna_index];
  const Vec3 tag_pos = entity.tag_position(tag.tag, t_s);
  const Vec3 to_antenna = antenna.pose.position - tag_pos;

  rf::PathTerms terms;
  terms.distance_m = std::max(to_antenna.norm(), 0.01);

  // Antenna pattern gains (the tag side honours the tag's design: a dual
  // dipole responds on its better element).
  terms.reader_gain = antenna.pattern.gain_toward(antenna.pose, tag_pos);
  const Vec3 axis = entity.tag_dipole_axis(tag.tag, t_s);
  const Vec3 design_normal = entity.tag_patch_normal(tag.tag, t_s);
  terms.tag_gain =
      rf::tag_design_gain(entity.tags()[tag.tag].mount.design, params_.tag_antenna,
                          axis, design_normal, to_antenna);

  // Circularly-polarized portal antenna: 3 dB to any linear tag on
  // boresight, worse off-axis as the circularity (axial ratio) degrades.
  terms.polarization_loss = rf::polarization_mismatch(
      antenna.pattern.params().circular_polarization, antenna.pose.frame.up, axis,
      -to_antenna);
  if (antenna.pattern.params().circular_polarization) {
    const double off = angle_between(antenna.pose.frame.forward, tag_pos - antenna.pose.position);
    const double frac = std::min(off / (std::numbers::pi / 2.0), 1.0);
    terms.polarization_loss +=
        Decibel(antenna.pattern.params().axial_ratio_loss_db_at_90deg * frac * frac);
  }

  terms.coupling_loss = coupling_loss(tag, t_s);

  // Direct path: angle-resolved image factor (cancellation toward grazing
  // directions, possible constructive gain broadside). sin(alpha) is the
  // elevation of the departure direction above the tag plane; reading from
  // behind the face (dot < 0) is grazing-at-best, and the occlusion term
  // below covers the body in the way.
  const TagMount& mount = entity.tags()[tag.tag].mount;
  const Vec3 dir = to_antenna.normalized();
  const double sin_alpha = std::max(design_normal.dot(dir), 0.02);
  const Decibel direct_image_loss = -rf::image_factor_gain(
      mount.backing_material, mount.backing_gap_m, sin_alpha, params_.frequency_hz);
  const Decibel direct_multipath = params_.two_ray.gain(
      antenna.pose.position.z, tag_pos.z,
      std::hypot(to_antenna.x, to_antenna.y), params_.frequency_hz);

  // Scatter path: the diffuse indoor field. Pays a fixed excess over free
  // space but bypasses occlusion and pattern nulls (angle-averaged terms).
  const Decibel scatter_material =
      -rf::image_factor_gain(mount.backing_material, mount.backing_gap_m,
                             params_.scatter_sin_alpha, params_.frequency_hz) +
      Decibel(params_.scatter_excess_db);

  const Segment path{tag_pos, antenna.pose.position};
  terms.reflection_gain = reflection_gain(path, tag, t_s);

  // Proximity absorption by adjacent water-rich bodies (both propagation
  // paths suffer it, so it lands in blockage_loss).
  double proximity_db = 0.0;
  if (params_.proximity_loss_db > 0.0) {
    for (std::size_t e = 0; e < scene_.entities.size(); ++e) {
      if (e == tag.entity) continue;
      const Entity& other = scene_.entities[e];
      const rf::Material m = other.body_material();
      if (m != rf::Material::HumanBody && m != rf::Material::Liquid) continue;
      const double gap = std::max(
          tag_pos.distance_to(other.body_centre(t_s)) - other.body_radius(), 0.0);
      if (gap >= params_.proximity_range_m) continue;
      proximity_db += params_.proximity_loss_db * (1.0 - gap / params_.proximity_range_m);
    }
  }
  terms.blockage_loss = Decibel(proximity_db);

  const Decibel direct_material = direct_image_loss + occlusion_loss(path, tag, t_s) +
                                  fresnel_blockage(path, tag, t_s);
  const Decibel scatter_tag_gain{params_.scatter_tag_gain_dbi};

  // Pick whichever path delivers more power (they differ only in the
  // tag-gain, material, and multipath terms).
  const double direct_score =
      terms.tag_gain.value() - direct_material.value() + direct_multipath.value();
  const double scatter_score = scatter_tag_gain.value() - scatter_material.value();
  if (scatter_score > direct_score) {
    terms.tag_gain = scatter_tag_gain;
    terms.material_loss = scatter_material;
    terms.multipath_gain = Decibel(0.0);
  } else {
    terms.material_loss = direct_material;
    terms.multipath_gain = direct_multipath;
  }

  return terms;
}

Decibel PathEvaluator::occlusion_loss(const Segment& path, const TagAddress& tag,
                                      double t_s) const {
  Decibel loss{0.0};
  for (std::size_t e = 0; e < scene_.entities.size(); ++e) {
    const Entity& entity = scene_.entities[e];
    // A tag's own body is tested with a margin so that the mounting face
    // itself does not occlude; anything deeper (the contents) does.
    const double margin = (e == tag.entity) ? params_.self_occlusion_margin_m : 0.0;
    if (const auto chord = entity.body_chord(path, t_s, margin)) {
      loss += rf::penetration_loss(entity.body_material(), *chord);
    }
  }
  return loss;
}

Decibel PathEvaluator::fresnel_blockage(const Segment& path, const TagAddress& tag,
                                        double t_s) const {
  if (params_.fresnel_max_db <= 0.0) return Decibel(0.0);
  double loss = 0.0;
  for (std::size_t e = 0; e < scene_.entities.size(); ++e) {
    if (e == tag.entity) continue;
    const Entity& entity = scene_.entities[e];
    if (entity.body_radius() <= 0.0) continue;
    // Bodies actually intersecting the path are charged by occlusion_loss;
    // this term covers near misses only.
    if (entity.body_chord(path, t_s).has_value()) continue;
    const PointToSegment cp = closest_point(path, entity.body_centre(t_s));
    // Only mid-path obstructions matter: bodies hugging the tag end of the
    // path are near-field neighbours (handled by coupling/occlusion), and
    // the antenna end is clear by construction.
    if (cp.t < 0.2 || cp.t > 0.95) continue;
    const double clearance = std::max(cp.distance - entity.body_radius(), 0.0);
    if (clearance >= params_.fresnel_radius_m) continue;
    const double frac = 1.0 - clearance / params_.fresnel_radius_m;
    loss += params_.fresnel_max_db * frac * frac;
  }
  return Decibel(std::min(loss, params_.fresnel_max_db * 1.5));
}

Decibel PathEvaluator::coupling_loss(const TagAddress& tag, double t_s) const {
  const Entity& entity = scene_.entities[tag.entity];
  const Vec3 pos = entity.tag_position(tag.tag, t_s);
  const Vec3 axis = entity.tag_dipole_axis(tag.tag, t_s);

  // The nearest neighbour on each side dominates: it both couples hardest
  // and shields the tags beyond it. Summing the two largest pairwise
  // losses approximates "nearest on each side" without tracking geometry.
  double worst = 0.0;
  double second = 0.0;
  for (std::size_t other = 0; other < entity.tags().size(); ++other) {
    if (other == tag.tag) continue;
    const double spacing = pos.distance_to(entity.tag_position(other, t_s));
    if (spacing > params_.coupling_neighbourhood_m) continue;
    const Vec3 other_axis = entity.tag_dipole_axis(other, t_s);
    const double alignment = std::abs(axis.dot(other_axis));
    const double loss =
        rf::pairwise_coupling_loss(spacing, params_.coupling, alignment).value();
    if (loss > worst) {
      second = worst;
      worst = loss;
    } else if (loss > second) {
      second = loss;
    }
  }
  return Decibel(std::min(worst + second, params_.coupling.contact_loss_db * 1.5));
}

Decibel PathEvaluator::reflection_gain(const Segment& path, const TagAddress& tag,
                                       double t_s) const {
  // A reflective body near the tag that is NOT between the tag and the
  // antenna scatters extra energy toward the tag — the mechanism behind
  // the paper's observation that the closer of two subjects reads better
  // than a lone subject ("signal reflections off the farther subject").
  // A reflector in the forward cone toward the antenna is a (potential)
  // blocker, not a mirror, and contributes nothing here.
  const Vec3 to_antenna_dir = (path.to - path.from).normalized();
  double best_db = 0.0;
  for (std::size_t e = 0; e < scene_.entities.size(); ++e) {
    if (e == tag.entity) continue;
    const Entity& entity = scene_.entities[e];
    if (!rf::is_reflective(entity.body_material())) continue;
    if (entity.body_chord(path, t_s).has_value()) continue;
    const Vec3 centre = entity.body_centre(t_s);
    const double range = centre.distance_to(path.from);
    if (range > params_.reflector_range_m) continue;
    const Vec3 to_reflector = (centre - path.from).normalized();
    const double cosine = to_reflector.dot(to_antenna_dir);
    if (cosine > 0.5) continue;  // In the forward cone.
    // Closer reflectors bounce more energy (linear taper with distance),
    // and a reflector squarely BEHIND the tag retro-reflects the reader's
    // illumination most effectively (angle weight: 1 at dead-behind,
    // 1/3 at broadside).
    const double strength = 1.0 - range / params_.reflector_range_m;
    const double angle_weight = (0.5 - cosine) / 1.5;
    best_db = std::max(best_db, params_.reflection_bonus_db * strength * angle_weight);
  }
  return Decibel(best_db);
}

}  // namespace rfidsim::scene
