// Motion models for tracked entities.
//
// The paper's experiments move tags past an antenna in three ways: fixed in
// place (read-range test), on a cart/conveyor at ~1 m/s (object tests), and
// carried by a walking person (human tests, with the slight lateral sway a
// gait adds). Trajectory abstracts all three behind pose_at(t).
#pragma once

#include <memory>

#include "common/pose.hpp"

namespace rfidsim::scene {

/// Abstract motion model: where is the entity's local origin at time t,
/// and with what orientation. Entities do not rotate during a pass in any
/// of the paper's scenarios, so implementations keep a fixed frame.
class Trajectory {
 public:
  virtual ~Trajectory() = default;
  /// Pose of the entity origin at simulation time `t_s` (seconds).
  virtual Pose pose_at(double t_s) const = 0;
  /// Polymorphic copy, so scenes can be duplicated for parallel experiments.
  virtual std::unique_ptr<Trajectory> clone() const = 0;
  /// True iff pose_at(t) is the same for every t. Gates BatchPathEvaluator's
  /// static-geometry cache (DESIGN.md §6): an implementation may only
  /// return true when its pose is provably time-invariant.
  virtual bool is_static() const { return false; }
};

/// An entity that never moves.
class StaticTrajectory final : public Trajectory {
 public:
  explicit StaticTrajectory(Pose pose) : pose_(pose) {}
  Pose pose_at(double) const override { return pose_; }
  std::unique_ptr<Trajectory> clone() const override {
    return std::make_unique<StaticTrajectory>(*this);
  }
  bool is_static() const override { return true; }

 private:
  Pose pose_;
};

/// Straight-line motion at constant velocity (cart / conveyor belt).
class LinearTrajectory final : public Trajectory {
 public:
  LinearTrajectory(Pose start, Vec3 velocity_mps)
      : start_(start), velocity_(velocity_mps) {}
  Pose pose_at(double t_s) const override {
    Pose p = start_;
    p.position += velocity_ * t_s;
    return p;
  }
  std::unique_ptr<Trajectory> clone() const override {
    return std::make_unique<LinearTrajectory>(*this);
  }
  bool is_static() const override { return velocity_.norm() == 0.0; }

 private:
  Pose start_;
  Vec3 velocity_;
};

/// Gait parameters of a WalkingTrajectory.
struct Gait {
  double sway_amplitude_m = 0.03;  ///< Lateral (y) sway amplitude.
  double bob_amplitude_m = 0.02;   ///< Vertical (z) bob amplitude.
  double cadence_hz = 1.8;         ///< Step frequency.
};

/// Walking motion: linear progress plus sinusoidal lateral sway and a small
/// vertical bob, the secondary motion of a human gait. The sway slightly
/// decorrelates successive read attempts, as observed with real subjects.
class WalkingTrajectory final : public Trajectory {
 public:
  WalkingTrajectory(Pose start, Vec3 velocity_mps, Gait gait = {})
      : start_(start), velocity_(velocity_mps), gait_(gait) {}
  Pose pose_at(double t_s) const override;
  std::unique_ptr<Trajectory> clone() const override {
    return std::make_unique<WalkingTrajectory>(*this);
  }
  bool is_static() const override {
    // A zero-velocity walker still sways and bobs in place.
    return velocity_.norm() == 0.0 && gait_.sway_amplitude_m == 0.0 &&
           gait_.bob_amplitude_m == 0.0;
  }

 private:
  Pose start_;
  Vec3 velocity_;
  Gait gait_;
};

}  // namespace rfidsim::scene
