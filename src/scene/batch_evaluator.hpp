// BatchPathEvaluator: the structure-of-arrays "many tags x many poses"
// form of PathEvaluator.
//
// PathEvaluator answers one (antenna, tag, time) query at a time, and pays
// for that generality on every call: each term re-derives the pose of every
// entity it touches through a virtual Trajectory::pose_at, so evaluating T
// tags against E entities costs O(T*E) pose derivations and re-runs every
// occlusion chord up to three times (occlusion, Fresnel, reflection all
// intersect the same ray against the same body). This evaluator restructures
// the same physics around the shape of the real workload — one reader round
// evaluates *every* tag in the scene at one time instant:
//
//  * per-entity poses are derived once per time step and shared by every
//    tag and every chord test (O(E) instead of O(T*E) virtual calls);
//  * per-tag world geometry (position, dipole axis, patch normal) lives in
//    contiguous arrays, computed once per time step and reused by the
//    coupling neighbourhood loop instead of re-derived per neighbour;
//  * the to-antenna vector / distance stage runs as a flat loop over SoA
//    double arrays — autovectorizable as-is;
//  * each (tag, entity) occlusion chord is intersected once and shared by
//    the occlusion, Fresnel-grazing and reflection terms — and only
//    intersected at all when the ray's closest approach enters the
//    entity's bounding sphere (a reject that can only ever skip a
//    would-be nullopt, so no produced value changes);
//  * the per-entity term loops (chord, reflection, proximity, occlusion,
//    Fresnel) are fused into a single pass per tag, preserving each
//    accumulator's entity order.
//
// The contract that makes this refactor safe: results are BIT-IDENTICAL to
// the scalar PathEvaluator, which stays in the tree as the reference
// oracle. The kernel performs the same floating-point operations in the
// same order — hoisting only ever removes *redundant* recomputation of
// identical values, never reorders arithmetic — and the shared helpers
// (Entity::tag_position / body_chord pose overloads, every rf:: term) are
// the same compiled code both paths call. tests/scene/
// kernel_differential_test holds batch == scalar over hundreds of
// randomized scenes; the golden portal digests hold it over time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rf/link_budget.hpp"
#include "scene/path_evaluator.hpp"
#include "scene/scene.hpp"

namespace rfidsim::scene {

/// Static-geometry cache effectiveness tallies for one evaluator. Plain
/// (non-atomic) counters — the evaluator is single-threaded by contract —
/// kept cheap enough to maintain unconditionally; flush_metrics() folds
/// them into the process-wide obs registry.
struct PathCacheStats {
  std::uint64_t full_hits = 0;    ///< Whole-result cache hits (static scene).
  std::uint64_t full_misses = 0;  ///< First evaluation of a (antenna, tag) slot.
  std::uint64_t pair_hits = 0;    ///< Pair-term reuse (static tag, moving scene).
  std::uint64_t pair_misses = 0;
  std::uint64_t bypassed = 0;  ///< Cache off or the tag's entity moves.
};

/// Evaluates rf::PathTerms for every tag in the scene against one antenna
/// at one time instant, in the scene's flat (entity, tag) order — the order
/// Scene::all_tags() yields.
///
/// Holds the static-geometry cache (EvaluatorParams::static_geometry_cache):
/// per (antenna, tag) slot, full results are cached when the whole scene is
/// static, pair-local terms when the tag's own entity is static, and
/// nothing when it moves (bypassed).
///
/// Not thread-safe: the caches and scratch arrays mutate on evaluate_all().
/// Give each worker its own evaluator (PortalSimulator owns one per
/// instance).
class BatchPathEvaluator {
 public:
  /// The evaluator holds a reference to the scene; the scene must outlive
  /// it and must not be mutated while the evaluator exists (the cache has
  /// no way to observe entity or antenna edits).
  BatchPathEvaluator(const Scene& scene, EvaluatorParams params = {});

  /// Flushes any unflushed cache tallies (see flush_metrics).
  ~BatchPathEvaluator();
  BatchPathEvaluator(const BatchPathEvaluator&) = delete;
  BatchPathEvaluator& operator=(const BatchPathEvaluator&) = delete;

  /// Evaluates every tag in the scene at time `t_s` against antenna
  /// `antenna_index`. `out` is resized to tag_count(); out[i] is
  /// bit-identical to PathEvaluator::evaluate(antenna_index,
  /// scene.all_tags()[i], t_s) on a scalar evaluator with the same params.
  void evaluate_all(std::size_t antenna_index, double t_s,
                    std::vector<rf::PathTerms>& out);

  /// World tag positions (flat tag order) at the `t_s` of the most recent
  /// evaluate_all call — bit-identical to Entity::tag_position at that
  /// time. Valid only after evaluate_all; lets callers (the portal's
  /// shadow-fading sampler) skip their own pose derivations.
  const std::vector<Vec3>& tag_positions() const { return tag_pos_; }

  std::size_t tag_count() const { return tag_count_; }
  bool scene_static() const { return scene_static_; }
  const EvaluatorParams& params() const { return params_; }
  const Scene& scene() const { return scene_; }

  /// Cache tallies since construction or the last flush: one tally per
  /// tag per evaluate_all.
  const PathCacheStats& cache_stats() const { return cache_stats_; }

  /// Adds the local tallies to the obs registry's scene.path_cache.*
  /// counters (when observability is enabled) and zeroes them. Called by
  /// the destructor; sweep lanes call it when a sweep completes.
  void flush_metrics() const;

 private:
  /// Terms that depend only on the (static antenna, tag's own entity)
  /// pair — reusable across time steps whenever that entity is static.
  struct PairTerms {
    Vec3 tag_position;
    double distance_m = 0.0;
    Decibel reader_gain;
    Decibel tag_gain;
    Decibel polarization_loss;
    Decibel coupling_loss;
    Decibel direct_image_loss;  ///< Backing/detuning part of material_loss.
    Decibel direct_multipath;
    Decibel scatter_material;
  };

  /// One cache slot per (antenna, tag) pair.
  struct CacheSlot {
    bool pair_ready = false;
    bool full_ready = false;
    PairTerms pair;
    rf::PathTerms full;
  };

  /// Per-entity constants plus the pose hoisted out of the per-tag loops.
  struct EntityState {
    const Entity* entity = nullptr;
    bool is_static = false;
    rf::Material material{};
    bool reflective = false;
    bool absorber = false;  ///< HumanBody or Liquid (proximity term).
    double body_radius = 0.0;
    double chord_bound_m = 0.0;  ///< Entity::bounding_radius(); 0 = no body.
    std::size_t tag_begin = 0;  ///< Flat tag range [tag_begin, tag_end).
    std::size_t tag_end = 0;
    Pose pose;           ///< At geom_t_ (or the one static pose).
    bool pose_ready = false;
  };

  /// Refreshes per-entity poses and per-tag world geometry for time `t_s`.
  /// Static entities are derived once and kept (their pose is
  /// time-invariant by the is_static() contract, the same assumption the
  /// static-geometry cache makes).
  void refresh_geometry(double t_s);

  /// SoA stage: to-antenna vectors and clamped distances for all tags.
  void compute_distance_stage(const AntennaSite& antenna);

  PairTerms compute_pair_terms(const AntennaSite& antenna, std::size_t flat_tag) const;
  rf::PathTerms assemble(const PairTerms& pair, const AntennaSite& antenna,
                         std::size_t flat_tag);
  Decibel coupling_loss(std::size_t flat_tag) const;

  const Scene& scene_;
  EvaluatorParams params_;
  bool scene_static_ = false;
  std::size_t tag_count_ = 0;

  std::vector<EntityState> entities_;
  std::vector<std::size_t> tag_entity_;      ///< Flat tag -> entity index.
  std::vector<std::uint32_t> tag_in_entity_; ///< Flat tag -> index within entity.
  std::vector<rf::TagDesign> design_;
  std::vector<rf::Material> backing_;
  std::vector<double> backing_gap_;
  // The scatter-path image factor depends only on the mount (backing
  // material, gap) and time-invariant params, so it is computed once here —
  // the same call the scalar evaluator makes per query, hoisted, not
  // reassociated.
  std::vector<Decibel> scatter_material_;

  // Per-time-step tag geometry (flat tag order). tag_pos_ is the API-facing
  // Vec3 array; px_/py_/pz_ mirror it as SoA doubles for the distance stage.
  std::vector<Vec3> tag_pos_, tag_axis_, tag_normal_;
  std::vector<double> px_, py_, pz_;
  double geom_t_ = 0.0;
  bool geom_valid_ = false;

  // Distance-stage outputs (per tag, for the current antenna).
  std::vector<double> dx_, dy_, dz_, dist_;

  mutable std::vector<CacheSlot> cache_;  ///< [antenna * tag_count_ + flat tag].
  std::vector<unsigned char> full_pass_done_;  ///< Per antenna: all slots full_ready.
  mutable PathCacheStats cache_stats_;
};

}  // namespace rfidsim::scene
