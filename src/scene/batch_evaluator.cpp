#include "scene/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "rf/material.hpp"

namespace rfidsim::scene {

BatchPathEvaluator::BatchPathEvaluator(const Scene& scene, EvaluatorParams params)
    : scene_(scene), params_(params) {
  require(!scene.antennas.empty(), "BatchPathEvaluator: scene has no antennas");

  entities_.reserve(scene.entities.size());
  scene_static_ = true;
  for (const Entity& entity : scene.entities) {
    EntityState es;
    es.entity = &entity;
    es.is_static = entity.is_static();
    es.material = entity.body_material();
    es.reflective = rf::is_reflective(es.material);
    es.absorber =
        es.material == rf::Material::HumanBody || es.material == rf::Material::Liquid;
    es.body_radius = entity.body_radius();
    es.chord_bound_m = entity.bounding_radius();
    es.tag_begin = tag_count_;
    scene_static_ = scene_static_ && es.is_static;
    for (std::size_t t = 0; t < entity.tags().size(); ++t) {
      const TagMount& mount = entity.tags()[t].mount;
      tag_entity_.push_back(entities_.size());
      tag_in_entity_.push_back(static_cast<std::uint32_t>(t));
      design_.push_back(mount.design);
      backing_.push_back(mount.backing_material);
      backing_gap_.push_back(mount.backing_gap_m);
      scatter_material_.push_back(
          -rf::image_factor_gain(mount.backing_material, mount.backing_gap_m,
                                 params_.scatter_sin_alpha, params_.frequency_hz) +
          Decibel(params_.scatter_excess_db));
      ++tag_count_;
    }
    es.tag_end = tag_count_;
    entities_.push_back(es);
  }

  tag_pos_.resize(tag_count_);
  tag_axis_.resize(tag_count_);
  tag_normal_.resize(tag_count_);
  px_.resize(tag_count_);
  py_.resize(tag_count_);
  pz_.resize(tag_count_);
  dx_.resize(tag_count_);
  dy_.resize(tag_count_);
  dz_.resize(tag_count_);
  dist_.resize(tag_count_);
  if (params_.static_geometry_cache) {
    cache_.resize(scene.antennas.size() * tag_count_);
  }
  full_pass_done_.assign(scene.antennas.size(), 0);
}

BatchPathEvaluator::~BatchPathEvaluator() { flush_metrics(); }

void BatchPathEvaluator::flush_metrics() const {
  if (obs::hooks_enabled()) {
    static const struct Counters {
      obs::Counter& full_hits = obs::counter("scene.path_cache.full_hits");
      obs::Counter& full_misses = obs::counter("scene.path_cache.full_misses");
      obs::Counter& pair_hits = obs::counter("scene.path_cache.pair_hits");
      obs::Counter& pair_misses = obs::counter("scene.path_cache.pair_misses");
      obs::Counter& bypassed = obs::counter("scene.path_cache.bypassed");
    } c;
    c.full_hits.add(cache_stats_.full_hits);
    c.full_misses.add(cache_stats_.full_misses);
    c.pair_hits.add(cache_stats_.pair_hits);
    c.pair_misses.add(cache_stats_.pair_misses);
    c.bypassed.add(cache_stats_.bypassed);
  }
  cache_stats_ = PathCacheStats{};
}

void BatchPathEvaluator::refresh_geometry(double t_s) {
  // A fully static scene never needs a second pass; otherwise redo the
  // moving entities whenever the time changes.
  if (geom_valid_ && (scene_static_ || t_s == geom_t_)) return;
  for (EntityState& es : entities_) {
    if (es.is_static && es.pose_ready) continue;
    es.pose = es.entity->pose_at(t_s);
    es.pose_ready = true;
    for (std::size_t i = es.tag_begin; i < es.tag_end; ++i) {
      const std::size_t t = i - es.tag_begin;
      const Vec3 pos = es.entity->tag_position(t, es.pose);
      tag_pos_[i] = pos;
      px_[i] = pos.x;
      py_[i] = pos.y;
      pz_[i] = pos.z;
      tag_axis_[i] = es.entity->tag_dipole_axis(t, es.pose);
      tag_normal_[i] = es.entity->tag_patch_normal(t, es.pose);
    }
  }
  geom_t_ = t_s;
  geom_valid_ = true;
}

void BatchPathEvaluator::compute_distance_stage(const AntennaSite& antenna) {
  const double ax = antenna.pose.position.x;
  const double ay = antenna.pose.position.y;
  const double az = antenna.pose.position.z;
  for (std::size_t i = 0; i < tag_count_; ++i) {
    const double x = ax - px_[i];
    const double y = ay - py_[i];
    const double z = az - pz_[i];
    dx_[i] = x;
    dy_[i] = y;
    dz_[i] = z;
    // Same association as Vec3::norm (dot product folds left).
    dist_[i] = std::max(std::sqrt((x * x + y * y) + z * z), 0.01);
  }
}

void BatchPathEvaluator::evaluate_all(std::size_t antenna_index, double t_s,
                                      std::vector<rf::PathTerms>& out) {
  require(antenna_index < scene_.antennas.size(),
          "BatchPathEvaluator: antenna index out of range");
  const AntennaSite& antenna = scene_.antennas[antenna_index];
  out.resize(tag_count_);
  refresh_geometry(t_s);

  const bool cache_on = params_.static_geometry_cache;
  // When every slot for this antenna already holds a full cached result the
  // pair stage has nothing to feed; skip it.
  const bool all_cached = cache_on && scene_static_ && full_pass_done_[antenna_index];
  if (!all_cached) compute_distance_stage(antenna);

  for (std::size_t i = 0; i < tag_count_; ++i) {
    if (!cache_on || !entities_[tag_entity_[i]].is_static) {
      ++cache_stats_.bypassed;
      out[i] = assemble(compute_pair_terms(antenna, i), antenna, i);
      continue;
    }
    CacheSlot& slot = cache_[antenna_index * tag_count_ + i];
    if (scene_static_) {
      if (!slot.full_ready) {
        ++cache_stats_.full_misses;
        slot.full = assemble(compute_pair_terms(antenna, i), antenna, i);
        slot.full_ready = true;
      } else {
        ++cache_stats_.full_hits;
      }
      out[i] = slot.full;
      continue;
    }
    if (!slot.pair_ready) {
      ++cache_stats_.pair_misses;
      slot.pair = compute_pair_terms(antenna, i);
      slot.pair_ready = true;
    } else {
      ++cache_stats_.pair_hits;
    }
    out[i] = assemble(slot.pair, antenna, i);
  }

  if (cache_on && scene_static_) full_pass_done_[antenna_index] = 1;
}

BatchPathEvaluator::PairTerms BatchPathEvaluator::compute_pair_terms(
    const AntennaSite& antenna, std::size_t flat_tag) const {
  const std::size_t i = flat_tag;
  const Vec3 tag_pos = tag_pos_[i];
  const Vec3 to_antenna{dx_[i], dy_[i], dz_[i]};

  PairTerms pair;
  pair.tag_position = tag_pos;
  pair.distance_m = dist_[i];

  pair.reader_gain = antenna.pattern.gain_toward(antenna.pose, tag_pos);
  const Vec3 axis = tag_axis_[i];
  const Vec3 design_normal = tag_normal_[i];
  pair.tag_gain =
      rf::tag_design_gain(design_[i], params_.tag_antenna, axis, design_normal,
                          to_antenna);

  pair.polarization_loss = rf::polarization_mismatch(
      antenna.pattern.params().circular_polarization, antenna.pose.frame.up, axis,
      -to_antenna);
  if (antenna.pattern.params().circular_polarization) {
    const double off =
        angle_between(antenna.pose.frame.forward, tag_pos - antenna.pose.position);
    const double frac = std::min(off / (std::numbers::pi / 2.0), 1.0);
    pair.polarization_loss +=
        Decibel(antenna.pattern.params().axial_ratio_loss_db_at_90deg * frac * frac);
  }

  pair.coupling_loss = coupling_loss(i);

  const Vec3 dir = to_antenna.normalized();
  const double sin_alpha = std::max(design_normal.dot(dir), 0.02);
  pair.direct_image_loss = -rf::image_factor_gain(
      backing_[i], backing_gap_[i], sin_alpha, params_.frequency_hz);
  pair.direct_multipath = params_.two_ray.gain(
      antenna.pose.position.z, tag_pos.z, std::hypot(to_antenna.x, to_antenna.y),
      params_.frequency_hz);

  pair.scatter_material = scatter_material_[i];

  return pair;
}

Decibel BatchPathEvaluator::coupling_loss(std::size_t flat_tag) const {
  const EntityState& es = entities_[tag_entity_[flat_tag]];
  const Vec3 pos = tag_pos_[flat_tag];
  const Vec3 axis = tag_axis_[flat_tag];

  // Same "two largest pairwise losses" rule as the scalar evaluator, over
  // the cached per-tag geometry instead of per-neighbour pose derivations.
  double worst = 0.0;
  double second = 0.0;
  for (std::size_t j = es.tag_begin; j < es.tag_end; ++j) {
    if (j == flat_tag) continue;
    const double spacing = pos.distance_to(tag_pos_[j]);
    if (spacing > params_.coupling_neighbourhood_m) continue;
    const double alignment = std::abs(axis.dot(tag_axis_[j]));
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

rf::PathTerms BatchPathEvaluator::assemble(const PairTerms& pair,
                                           const AntennaSite& antenna,
                                           std::size_t flat_tag) {
  const Vec3& tag_pos = pair.tag_position;
  const Segment path{tag_pos, antenna.pose.position};
  const std::size_t own = tag_entity_[flat_tag];
  const std::size_t n_entities = entities_.size();

  rf::PathTerms terms;
  terms.distance_m = pair.distance_m;
  terms.reader_gain = pair.reader_gain;
  terms.tag_gain = pair.tag_gain;
  terms.polarization_loss = pair.polarization_loss;
  terms.coupling_loss = pair.coupling_loss;

  // One fused pass over the entities. The scalar path walks them up to
  // five times (chord, reflection, proximity, occlusion, Fresnel) and
  // intersects the same ray against the same body up to three times; here
  // each accumulator still sees the entities in the same ascending order,
  // so every sum folds in the same sequence and stays bit-identical — the
  // fusion only moves loop overhead, never arithmetic. The margin-0 chord
  // is intersected once, and only when the ray's closest approach enters
  // the entity's bounding sphere: skipping it can only ever skip a
  // would-be nullopt (the sphere contains the whole attenuating core), so
  // no produced value changes. The closest-approach point doubles as the
  // Fresnel test input — the same closest_point(path, centre) call the
  // scalar Fresnel term makes.
  const Vec3 to_antenna_dir = (path.to - path.from).normalized();
  const bool fresnel_on = params_.fresnel_max_db > 0.0;
  const bool proximity_on = params_.proximity_loss_db > 0.0;
  double best_reflection_db = 0.0;
  double proximity_db = 0.0;
  double fresnel_sum_db = 0.0;
  Decibel occlusion{0.0};

  for (std::size_t e = 0; e < n_entities; ++e) {
    const EntityState& es = entities_[e];
    if (e == own) {
      // The tag's own body is tested with the self-occlusion margin. The
      // ray starts on the body surface, so the sphere reject never fires.
      if (const auto chord =
              es.entity->body_chord(path, es.pose, params_.self_occlusion_margin_m)) {
        occlusion += rf::penetration_loss(es.material, *chord);
      }
      continue;
    }

    bool has_chord = false;
    PointToSegment cp;
    bool cp_ready = false;
    if (es.chord_bound_m > 0.0) {
      cp = closest_point(path, es.pose.position);
      cp_ready = true;
      if (cp.distance <= es.chord_bound_m) {
        if (const auto chord = es.entity->body_chord(path, es.pose, 0.0)) {
          has_chord = true;
          occlusion += rf::penetration_loss(es.material, *chord);
        }
      }
    }

    // Reflection bonus (scalar: reflection_gain).
    if (es.reflective && !has_chord) {
      const Vec3 centre = es.pose.position;
      const double range = centre.distance_to(path.from);
      if (range <= params_.reflector_range_m) {
        const Vec3 to_reflector = (centre - path.from).normalized();
        const double cosine = to_reflector.dot(to_antenna_dir);
        if (cosine <= 0.5) {  // Outside the forward cone.
          const double strength = 1.0 - range / params_.reflector_range_m;
          const double angle_weight = (0.5 - cosine) / 1.5;
          best_reflection_db =
              std::max(best_reflection_db, params_.reflection_bonus_db * strength * angle_weight);
        }
      }
    }

    // Proximity absorption by adjacent water-rich bodies.
    if (proximity_on && es.absorber) {
      const double gap =
          std::max(tag_pos.distance_to(es.pose.position) - es.body_radius, 0.0);
      if (gap < params_.proximity_range_m) {
        proximity_db += params_.proximity_loss_db * (1.0 - gap / params_.proximity_range_m);
      }
    }

    // Fresnel grazing blockage (scalar: fresnel_blockage). body_radius can
    // be positive while the fill-scaled chord bound is zero (empty body),
    // in which case the closest point is computed here instead.
    if (fresnel_on && !has_chord && es.body_radius > 0.0) {
      if (!cp_ready) cp = closest_point(path, es.pose.position);
      if (cp.t >= 0.2 && cp.t <= 0.95) {
        const double clearance = std::max(cp.distance - es.body_radius, 0.0);
        if (clearance < params_.fresnel_radius_m) {
          const double frac = 1.0 - clearance / params_.fresnel_radius_m;
          fresnel_sum_db += params_.fresnel_max_db * frac * frac;
        }
      }
    }
  }

  terms.reflection_gain = Decibel(best_reflection_db);
  terms.blockage_loss = Decibel(proximity_db);
  const Decibel fresnel =
      fresnel_on ? Decibel(std::min(fresnel_sum_db, params_.fresnel_max_db * 1.5))
                 : Decibel(0.0);

  const Decibel direct_material = pair.direct_image_loss + occlusion + fresnel;
  const Decibel scatter_tag_gain{params_.scatter_tag_gain_dbi};

  const double direct_score =
      terms.tag_gain.value() - direct_material.value() + pair.direct_multipath.value();
  const double scatter_score = scatter_tag_gain.value() - pair.scatter_material.value();
  if (scatter_score > direct_score) {
    terms.tag_gain = scatter_tag_gain;
    terms.material_loss = pair.scatter_material;
    terms.multipath_gain = Decibel(0.0);
  } else {
    terms.material_loss = direct_material;
    terms.multipath_gain = pair.direct_multipath;
  }

  return terms;
}

}  // namespace rfidsim::scene
