// Differential oracle for the batch path kernel: BatchPathEvaluator must be
// BIT-identical to the scalar PathEvaluator, the uncached reference
// oracle — not "close", identical. The
// batch kernel feeds PortalSimulator, whose event logs feed the Monte Carlo
// sweeps and the fleet store, all of which are checked by byte-exact golden
// digests; one ULP of drift in one term on one tag would cascade into a
// different event stream and a different fleet digest.
//
// The suite sweeps hundreds of seeded randomized scenes — moving and static
// entities, empty tag sets, single-pose evaluations, deliberate blockers
// between antenna and tags, coupling neighbourhoods on and off, the batch
// kernel's static-geometry cache on and off — and for every (antenna, tag,
// time) triple compares all nine PathTerms fields with EXPECT_EQ (exact)
// plus an FNV-1a digest over the raw IEEE-754 bit patterns of both streams.
// The kernel's cache tallies are held to a counting model of its caching
// rules. It must pass identically in default and -DRFIDSIM_OBS=OFF builds
// (the kernel tallies cache stats locally either way).
//
// Reproducibility: every scene derives from a fixed default seed via
// Rng::fork, so failures replay exactly. The weekly CI stress job varies
// the base seed with `--seed N` (parsed by the custom main below) to walk
// fresh regions of scene space without losing replayability — rerun with
// the printed seed to reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scene/batch_evaluator.hpp"
#include "scene/entity.hpp"
#include "scene/path_evaluator.hpp"
#include "scene/scene.hpp"
#include "scene/trajectory.hpp"

namespace rfidsim::scene {
namespace {

/// Base seed for scene generation; overridable with --seed N (see main).
std::uint64_t g_seed = 20070625ULL;

// FNV-1a over raw double bit patterns — the same fold the sweep tables and
// fleet store use for their golden digests.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void fnv_terms(std::uint64_t& h, const rf::PathTerms& t) {
  fnv_double(h, t.distance_m);
  fnv_double(h, t.reader_gain.value());
  fnv_double(h, t.tag_gain.value());
  fnv_double(h, t.polarization_loss.value());
  fnv_double(h, t.material_loss.value());
  fnv_double(h, t.coupling_loss.value());
  fnv_double(h, t.blockage_loss.value());
  fnv_double(h, t.reflection_gain.value());
  fnv_double(h, t.multipath_gain.value());
}

/// Exact comparison of every PathTerms field, with enough context in the
/// failure message to replay the offending triple by hand.
void expect_identical(const rf::PathTerms& batch, const rf::PathTerms& scalar,
                      std::uint64_t scene_seed, std::size_t antenna,
                      const TagAddress& tag, double t_s) {
  const auto where = ::testing::Message()
                     << "scene seed " << scene_seed << " antenna " << antenna
                     << " entity " << tag.entity << " tag " << tag.tag << " t=" << t_s;
  EXPECT_EQ(batch.distance_m, scalar.distance_m) << where;
  EXPECT_EQ(batch.reader_gain, scalar.reader_gain) << where;
  EXPECT_EQ(batch.tag_gain, scalar.tag_gain) << where;
  EXPECT_EQ(batch.polarization_loss, scalar.polarization_loss) << where;
  EXPECT_EQ(batch.material_loss, scalar.material_loss) << where;
  EXPECT_EQ(batch.coupling_loss, scalar.coupling_loss) << where;
  EXPECT_EQ(batch.blockage_loss, scalar.blockage_loss) << where;
  EXPECT_EQ(batch.reflection_gain, scalar.reflection_gain) << where;
  EXPECT_EQ(batch.multipath_gain, scalar.multipath_gain) << where;
}

// --- Randomized scene generation --------------------------------------

Vec3 random_unit(Rng& rng) {
  for (;;) {
    const Vec3 v{rng.gaussian(), rng.gaussian(), rng.gaussian()};
    if (v.norm() > 1e-6) return v.normalized();
  }
}

Pose random_pose(Rng& rng, double spread_m) {
  Pose pose;
  pose.position = Vec3{rng.uniform(-spread_m, spread_m), rng.uniform(-spread_m, spread_m),
                       rng.uniform(0.2, 2.0)};
  pose.frame.forward = random_unit(rng);
  pose.frame.up =
      std::abs(pose.frame.forward.z) > 0.9 ? Vec3{1.0, 0.0, 0.0} : Vec3{0.0, 0.0, 1.0};
  pose.frame.orthonormalize();
  return pose;
}

std::unique_ptr<Trajectory> random_trajectory(Rng& rng, bool force_static) {
  const Pose start = random_pose(rng, 2.5);
  if (force_static) return std::make_unique<StaticTrajectory>(start);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return std::make_unique<StaticTrajectory>(start);
    case 1:
      // Zero-velocity linear: moving type, is_static() == true — exercises
      // the static classification through a different trajectory class.
      return std::make_unique<LinearTrajectory>(start, Vec3{});
    case 2:
      return std::make_unique<LinearTrajectory>(
          start, Vec3{rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5), 0.0});
    default:
      return std::make_unique<WalkingTrajectory>(
          start, Vec3{rng.uniform(0.4, 1.4), 0.0, 0.0});
  }
}

rf::Material random_material(Rng& rng) {
  static constexpr rf::Material kMaterials[] = {
      rf::Material::Air,   rf::Material::Cardboard, rf::Material::Foam,
      rf::Material::Plastic, rf::Material::Metal,   rf::Material::Liquid,
      rf::Material::HumanBody};
  return kMaterials[rng.uniform_int(0, 6)];
}

rf::TagDesign random_design(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return rf::TagDesign::single_dipole();
    case 1: return rf::TagDesign::dual_dipole();
    default: return rf::TagDesign::active_beacon();
  }
}

TagMount random_mount(Rng& rng, double spread_m) {
  TagMount mount;
  mount.local_position = Vec3{rng.uniform(-spread_m, spread_m),
                              rng.uniform(-spread_m, spread_m),
                              rng.uniform(-spread_m, spread_m)};
  mount.local_dipole_axis = random_unit(rng);
  mount.local_patch_normal = random_unit(rng);
  mount.backing_material = random_material(rng);
  mount.backing_gap_m = rng.uniform(0.0, 0.05);
  mount.design = random_design(rng);
  return mount;
}

struct SceneOptions {
  bool force_static = false;   ///< All trajectories static.
  bool with_blocker = false;   ///< Guarantee a large metal body near the origin.
  int max_tags_per_entity = 3; ///< 0 makes every tag set empty.
  /// Half-width of the cube tag mounts scatter over. Shrink below the
  /// coupling neighbourhood radius to guarantee interacting tag pairs.
  double tag_spread_m = 0.3;
};

/// Builds one randomized scene: 0-5 entities with random bodies, materials,
/// trajectories and tag sets, 1-2 antennas aimed roughly at the origin.
Scene random_scene(Rng& rng, const SceneOptions& opts) {
  Scene scene;
  std::uint64_t next_epc = 1;
  const std::int64_t entity_count = rng.uniform_int(opts.with_blocker ? 1 : 0, 5);
  for (std::int64_t e = 0; e < entity_count; ++e) {
    Body body;
    switch (rng.uniform_int(0, 2)) {
      case 0: body = std::monostate{}; break;
      case 1:
        body = BoxBody{Vec3{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                            rng.uniform(0.2, 0.8)}};
        break;
      default:
        body = CylinderBody{rng.uniform(0.15, 0.3), rng.uniform(1.2, 1.9)};
        break;
    }
    Entity entity("e" + std::to_string(e), body, random_material(rng),
                  random_trajectory(rng, opts.force_static), rng.uniform(0.4, 1.0));
    const std::int64_t tag_count = rng.uniform_int(0, opts.max_tags_per_entity);
    for (std::int64_t t = 0; t < tag_count; ++t) {
      entity.add_tag(Tag{TagId{next_epc++}, random_mount(rng, opts.tag_spread_m)});
    }
    scene.entities.push_back(std::move(entity));
  }
  if (opts.with_blocker) {
    // A tall metal slab parked between the antennas (below, near y=-2..-3)
    // and the entity cluster (around the origin) — guaranteed occlusion and
    // Fresnel-grazing work on most paths.
    Pose pose;
    pose.position = Vec3{0.0, rng.uniform(-1.2, -0.6), 1.0};
    scene.entities.emplace_back(
        "blocker", BoxBody{Vec3{1.6, 0.25, 2.0}}, rf::Material::Metal,
        std::make_unique<StaticTrajectory>(pose), 1.0);
  }
  const std::int64_t antenna_count = rng.uniform_int(1, 2);
  for (std::int64_t a = 0; a < antenna_count; ++a) {
    const Vec3 position{rng.uniform(-1.5, 1.5), rng.uniform(-3.0, -2.0),
                        rng.uniform(1.0, 2.5)};
    const Vec3 target{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0};
    scene.antennas.push_back(Scene::make_antenna(position, (target - position)));
  }
  return scene;
}

EvaluatorParams random_params(Rng& rng) {
  EvaluatorParams params;
  params.static_geometry_cache = rng.bernoulli(0.7);
  if (rng.bernoulli(0.3)) params.coupling_neighbourhood_m = 0.0;  // coupling off
  if (rng.bernoulli(0.2)) params.fresnel_max_db = 0.0;
  return params;
}

// --- The differential driver -------------------------------------------

/// Evaluates every (time, antenna, tag) triple of `scene` through the batch
/// kernel and the scalar oracle and demands bit-identity of every term, the
/// two output digests and the reported tag positions, and that the kernel's
/// cache tallies match the counting model. Returns the common digest
/// (folded into suite-level digests so a silent all-default degenerate
/// generator would still be caught).
std::uint64_t run_differential(const Scene& scene, const EvaluatorParams& params,
                               const std::vector<double>& times,
                               std::uint64_t scene_seed) {
  const PathEvaluator scalar(scene, params);
  BatchPathEvaluator batch(scene, params);
  const std::vector<TagAddress> tags = scene.all_tags();
  EXPECT_EQ(batch.tag_count(), tags.size());
  const bool scene_static =
      std::all_of(scene.entities.begin(), scene.entities.end(),
                  [](const Entity& e) { return e.is_static(); });
  EXPECT_EQ(batch.scene_static(), scene_static);

  // Counting model of the cache: each evaluate_all makes one tally per tag.
  // It is bypassed when the cache is off or the tag's entity moves; on a
  // static scene an (antenna, tag) slot takes a full miss and then full
  // hits; otherwise it takes a pair miss and then pair hits.
  PathCacheStats expected;
  std::vector<bool> slot_seen(scene.antennas.size() * tags.size(), false);

  std::uint64_t batch_digest = kFnvOffset;
  std::uint64_t scalar_digest = kFnvOffset;
  std::vector<rf::PathTerms> out;
  for (const double t_s : times) {
    for (std::size_t a = 0; a < scene.antennas.size(); ++a) {
      batch.evaluate_all(a, t_s, out);
      EXPECT_EQ(out.size(), tags.size());
      if (out.size() != tags.size()) return 0;  // can't index further
      for (std::size_t i = 0; i < tags.size(); ++i) {
        const rf::PathTerms reference = scalar.evaluate(a, tags[i], t_s);
        expect_identical(out[i], reference, scene_seed, a, tags[i], t_s);
        fnv_terms(batch_digest, out[i]);
        fnv_terms(scalar_digest, reference);
        const Vec3 expected_pos =
            scene.entities[tags[i].entity].tag_position(tags[i].tag, t_s);
        EXPECT_EQ(batch.tag_positions()[i].x, expected_pos.x);
        EXPECT_EQ(batch.tag_positions()[i].y, expected_pos.y);
        EXPECT_EQ(batch.tag_positions()[i].z, expected_pos.z);

        if (!params.static_geometry_cache ||
            !scene.entities[tags[i].entity].is_static()) {
          ++expected.bypassed;
          continue;
        }
        const bool first = !slot_seen[a * tags.size() + i];
        slot_seen[a * tags.size() + i] = true;
        if (scene_static) {
          ++(first ? expected.full_misses : expected.full_hits);
        } else {
          ++(first ? expected.pair_misses : expected.pair_hits);
        }
      }
    }
  }
  EXPECT_EQ(batch_digest, scalar_digest) << "scene seed " << scene_seed;

  // The batch kernel must neither over-cache (risking staleness) nor
  // under-cache (losing the speedup).
  const PathCacheStats& b = batch.cache_stats();
  EXPECT_EQ(b.full_hits, expected.full_hits) << "scene seed " << scene_seed;
  EXPECT_EQ(b.full_misses, expected.full_misses) << "scene seed " << scene_seed;
  EXPECT_EQ(b.pair_hits, expected.pair_hits) << "scene seed " << scene_seed;
  EXPECT_EQ(b.pair_misses, expected.pair_misses) << "scene seed " << scene_seed;
  EXPECT_EQ(b.bypassed, expected.bypassed) << "scene seed " << scene_seed;
  return batch_digest;
}

std::vector<double> sample_times(Rng& rng, std::size_t count) {
  std::vector<double> times;
  for (std::size_t i = 0; i < count; ++i) times.push_back(rng.uniform(0.0, 4.0));
  return times;
}

TEST(KernelDifferentialTest, RandomizedMixedScenesMatchScalar) {
  const Rng base(g_seed);
  for (std::uint64_t i = 0; i < 80; ++i) {
    Rng rng = base.fork(i);
    const Scene scene = random_scene(rng, SceneOptions{});
    const EvaluatorParams params = random_params(rng);
    run_differential(scene, params, sample_times(rng, 4), rng.seed());
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // first scene is enough
  }
}

TEST(KernelDifferentialTest, StaticScenesRepeatedTimesMatchScalar) {
  // All-static scenes with the cache on, each time sampled twice, so the
  // full-result hit path (and full_pass_done_ distance-stage skip) runs.
  const Rng base(g_seed);
  for (std::uint64_t i = 0; i < 40; ++i) {
    Rng rng = base.fork(0x5747'4943ULL + i);  // distinct fork lane: "STIC"
    const Scene scene = random_scene(rng, SceneOptions{.force_static = true});
    EvaluatorParams params = random_params(rng);
    params.static_geometry_cache = true;
    std::vector<double> times = sample_times(rng, 2);
    times.insert(times.end(), times.begin(), times.end());
    run_differential(scene, params, times, rng.seed());
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

TEST(KernelDifferentialTest, BlockerScenesMatchScalar) {
  const Rng base(g_seed);
  for (std::uint64_t i = 0; i < 40; ++i) {
    Rng rng = base.fork(0x424c'4f43ULL + i);  // "BLOC"
    const Scene scene = random_scene(rng, SceneOptions{.with_blocker = true});
    run_differential(scene, random_params(rng), sample_times(rng, 3), rng.seed());
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

TEST(KernelDifferentialTest, SinglePoseMatchesScalar) {
  // One time step, one shot: no cache warm-up, no geometry reuse across
  // steps — the pure cold path.
  const Rng base(g_seed);
  for (std::uint64_t i = 0; i < 30; ++i) {
    Rng rng = base.fork(0x504f'5345ULL + i);  // "POSE"
    const Scene scene = random_scene(rng, SceneOptions{});
    run_differential(scene, random_params(rng), {rng.uniform(0.0, 4.0)}, rng.seed());
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

TEST(KernelDifferentialTest, EmptyTagSetsMatchScalar) {
  // Entities with zero tags (and some scenes with zero entities): the
  // kernel must handle tag_count() == 0 without touching its arrays.
  const Rng base(g_seed);
  for (std::uint64_t i = 0; i < 15; ++i) {
    Rng rng = base.fork(0x454d'5054ULL + i);  // "EMPT"
    const Scene scene = random_scene(rng, SceneOptions{.max_tags_per_entity = 0});
    const std::vector<double> times = sample_times(rng, 2);
    run_differential(scene, random_params(rng), times, rng.seed());

    std::vector<rf::PathTerms> out{rf::PathTerms{}};  // non-empty on purpose
    BatchPathEvaluator batch(scene, EvaluatorParams{});
    batch.evaluate_all(0, times[0], out);
    EXPECT_TRUE(out.empty());
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

TEST(KernelDifferentialTest, CouplingOnOffMatchScalar) {
  // The same geometry evaluated under coupling on and off — both runs must
  // match their scalar twins, and (sanity on the generator, not the kernel)
  // at least one scene must produce a coupling-dependent difference, or the
  // neighbourhood loop was never exercised.
  const Rng base(g_seed);
  bool coupling_mattered = false;
  for (std::uint64_t i = 0; i < 15; ++i) {
    Rng rng = base.fork(0x434f'5550ULL + i);  // "COUP"
    SceneOptions opts;
    opts.max_tags_per_entity = 6;   // crowd the tags...
    opts.tag_spread_m = 0.05;       // ...inside the 0.10 m neighbourhood
    const Scene scene = random_scene(rng, opts);
    const std::vector<double> times = sample_times(rng, 2);

    EvaluatorParams coupled;
    EvaluatorParams uncoupled;
    uncoupled.coupling_neighbourhood_m = 0.0;
    const std::uint64_t with = run_differential(scene, coupled, times, rng.seed());
    const std::uint64_t without = run_differential(scene, uncoupled, times, rng.seed());
    if (with != without) coupling_mattered = true;
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
  EXPECT_TRUE(coupling_mattered)
      << "no generated scene had interacting tag neighbourhoods; the coupling "
         "path of the kernel was not exercised";
}

}  // namespace
}  // namespace rfidsim::scene

// Custom main so CI's weekly stress job can re-aim the whole suite at a
// fresh seed (--seed N, also N via --seed=N) while `ctest` runs keep the
// fixed default. Defining main here simply wins over GTest::gtest_main's —
// the library's main object is only pulled in when the symbol is undefined.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      rfidsim::scene::g_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg.rfind("--seed=", 0) == 0) {
      rfidsim::scene::g_seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
    }
  }
  printf("kernel_differential_test: base seed %llu\n",
         static_cast<unsigned long long>(rfidsim::scene::g_seed));
  return RUN_ALL_TESTS();
}
