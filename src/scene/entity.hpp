// Tracked entities: tagged objects and people.
//
// An Entity bundles everything the simulator needs about one physical thing
// passing the portal: a body volume (for occlusion), a body material (how
// badly it blocks), a motion model, and the tags mounted on it. Factory
// helpers build the two entity kinds the paper studies — cartons with metal
// contents (the "network router boxes" of Table 1) and walking humans
// (Table 2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/pose.hpp"
#include "rf/material.hpp"
#include "scene/geometry.hpp"
#include "scene/tag.hpp"
#include "scene/trajectory.hpp"

namespace rfidsim::scene {

/// Body volume of an entity, in the entity's local frame (origin at the
/// geometric centre). `monostate` means "no body" — bare tags on a fixture,
/// as in the paper's read-range and inter-tag-distance experiments.
struct BoxBody {
  Vec3 extents{0.4, 0.4, 0.4};  ///< Full side lengths, metres.
};
struct CylinderBody {
  double radius = 0.22;  ///< Torso-scale radius, metres.
  double height = 1.75;  ///< Standing height, metres.
};
using Body = std::variant<std::monostate, BoxBody, CylinderBody>;

/// One tagged object or person in the scene.
class Entity {
 public:
  /// Constructs an entity. `body_material` is what rays traversing the body
  /// are attenuated by (the paper's boxes: metal routers inside cardboard).
  /// `content_fill` scales the attenuating core relative to the body
  /// envelope: a router does not fill its carton, so rays crossing the
  /// outer shell at oblique angles miss the metal — which is how far-side
  /// tags still read sometimes (paper Table 1: side-farther 63%).
  Entity(std::string name, Body body, rf::Material body_material,
         std::unique_ptr<Trajectory> trajectory, double content_fill = 1.0);

  Entity(const Entity& other);
  Entity& operator=(const Entity& other);
  Entity(Entity&&) noexcept = default;
  Entity& operator=(Entity&&) noexcept = default;

  /// Adds a tag; returns its index within this entity.
  std::size_t add_tag(Tag tag);

  const std::string& name() const { return name_; }
  const Body& body() const { return body_; }
  rf::Material body_material() const { return body_material_; }
  double content_fill() const { return content_fill_; }
  const std::vector<Tag>& tags() const { return tags_; }

  /// Entity origin pose at time t.
  Pose pose_at(double t_s) const { return trajectory_->pose_at(t_s); }

  /// True iff this entity's pose (and hence every tag on it) is
  /// time-invariant — the gate for BatchPathEvaluator's static-geometry
  /// cache.
  bool is_static() const { return trajectory_->is_static(); }

  /// World position of a tag centre at time t.
  Vec3 tag_position(std::size_t tag_index, double t_s) const;
  /// World direction of a tag's dipole axis at time t (unit vector).
  Vec3 tag_dipole_axis(std::size_t tag_index, double t_s) const;
  /// World direction of a tag's patch normal at time t (unit vector).
  Vec3 tag_patch_normal(std::size_t tag_index, double t_s) const;

  /// Pose-taking overloads of the tag-geometry queries, for callers that
  /// have already evaluated pose_at(t) once for the whole entity (the batch
  /// path kernel). The time-taking forms above delegate here, so both paths
  /// run the identical arithmetic and stay bit-identical by construction.
  Vec3 tag_position(std::size_t tag_index, const Pose& pose) const;
  Vec3 tag_dipole_axis(std::size_t tag_index, const Pose& pose) const;
  Vec3 tag_patch_normal(std::size_t tag_index, const Pose& pose) const;

  /// Length of `seg` passing through this entity's attenuating core at
  /// time t, if any. The core is the body envelope scaled by content_fill.
  /// `skip_margin_m` additionally shrinks the core, so a ray *leaving* a
  /// tag mounted on the surface does not self-intersect the face it sits
  /// on.
  std::optional<double> body_chord(const Segment& seg, double t_s,
                                   double skip_margin_m = 0.0) const;

  /// Chord against the body positioned at a precomputed `pose` — the form
  /// the batch kernel calls after hoisting pose_at(t) out of its per-tag
  /// loops. The time-taking overload delegates here.
  std::optional<double> body_chord(const Segment& seg, const Pose& pose,
                                   double skip_margin_m) const;

  /// World-space body centre at time t (equals the origin for our shapes).
  Vec3 body_centre(double t_s) const { return pose_at(t_s).position; }

  /// A characteristic lateral radius of the body (for reflection tests).
  double body_radius() const;

  /// Radius of a sphere centred on the pose position that contains the
  /// whole attenuating core (the fill-scaled, margin-0 envelope that
  /// body_chord intersects). Zero when there is no body. A segment whose
  /// closest approach to the centre exceeds this cannot produce a chord,
  /// so callers may skip body_chord entirely — a reject that changes no
  /// floating-point output, only whether the intersection runs.
  double bounding_radius() const;

 private:
  /// Maps a local-frame vector into the world frame at time t.
  Vec3 to_world_direction(const Vec3& local, const Pose& pose) const;

  std::string name_;
  Body body_;
  rf::Material body_material_;
  double content_fill_ = 1.0;
  std::unique_ptr<Trajectory> trajectory_;
  std::vector<Tag> tags_;
};

/// Standard placements on a carton, named from the perspective of the
/// pass: the reader antenna is on the +y side, travel is along +x.
enum class BoxFace { Front, Back, Top, Bottom, SideNear, SideFar };

/// Human-readable face name, matching the paper's Table 1 terminology.
std::string_view box_face_name(BoxFace face);

/// Builds the TagMount for a tag centred on the given face of a box with
/// the given extents. `content_material` and `content_gap_m` describe what
/// sits behind that face inside the box (Table 1's routers: metal close
/// beneath the top, foam spacing behind front/sides).
TagMount mount_on_box_face(BoxFace face, const Vec3& box_extents,
                           rf::Material content_material, double content_gap_m);

/// Standard tag placements on a person, named as in Table 2. The antenna
/// is on the +y side of the walking direction.
enum class BodySpot { Front, Back, SideNear, SideFar };

/// Human-readable spot name, matching the paper's Table 2 terminology.
std::string_view body_spot_name(BodySpot spot);

/// Builds the TagMount for a badge hanging at waist level at the given
/// body spot ("hanging from the belt or pocket", per the paper §3), with a
/// small air gap to the body.
TagMount mount_on_person(BodySpot spot, const CylinderBody& body);

}  // namespace rfidsim::scene
