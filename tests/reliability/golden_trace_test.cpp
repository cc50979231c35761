// Golden-trace regression tests: tolerance-free digests of small fixed-seed
// runs, checked against constants captured when the physics was last
// deliberately changed. Any drift — an RNG reordering, a refactored
// floating-point expression, a new term in the link budget — lands here as
// a digest mismatch long before it would move a reliability table.
//
// To regenerate after an INTENTIONAL physics change: run this binary and
// copy the "actual" values from the failure output into the kGolden*
// constants below, then say so in the commit message.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"

namespace rfidsim::reliability {
namespace {

constexpr std::uint64_t kGoldenSeed = 20070625;  // The paper's DSN date.

/// Compact fingerprint of a repeated-run event stream: the per-repetition
/// read counts (cheap to eyeball in a diff) plus an order-sensitive FNV-1a
/// hash over every field of every event (catches everything else).
struct TraceDigest {
  std::vector<std::size_t> reads_per_rep;
  std::uint64_t hash = 0;

  bool operator==(const TraceDigest&) const = default;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

TraceDigest digest(const RepeatedRuns& runs) {
  TraceDigest d;
  d.hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  for (const sys::EventLog& log : runs.logs) {
    d.reads_per_rep.push_back(log.size());
    for (const sys::ReadEvent& e : log) {
      d.hash = fnv1a(d.hash, e.tag.value);
      d.hash = fnv1a(d.hash, std::bit_cast<std::uint64_t>(e.time_s));
      d.hash = fnv1a(d.hash, e.reader_index);
      d.hash = fnv1a(d.hash, e.antenna_index);
      d.hash = fnv1a(d.hash, std::bit_cast<std::uint64_t>(e.rssi.value()));
    }
  }
  return d;
}

void expect_digest(const TraceDigest& actual, const TraceDigest& golden) {
  EXPECT_EQ(actual, golden)
      << "Golden trace drifted. If the physics change was intentional, update "
         "the constants from these actual values:\n  reads_per_rep = "
      << ::testing::PrintToString(actual.reads_per_rep) << "\n  hash = 0x" << std::hex
      << actual.hash << "ull";
}

TEST(GoldenTraceTest, ReadRangeGrid) {
  // Fig. 2 rig at 4 m: static scene, so this trace also pins the
  // static-geometry cache (it is on by default here).
  const Scenario sc =
      make_read_range_scenario(4.0, CalibrationProfile::paper2006());
  const TraceDigest golden{{15, 18, 13}, 0x1edf117b9ea6bc37ull};
  expect_digest(digest(run_repeated_parallel(sc, 3, kGoldenSeed)), golden);
}

TEST(GoldenTraceTest, ObjectTrackingCart) {
  // Table 1 rig, front-face tags: moving entities, occlusion, two-ray.
  ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front};
  const Scenario sc =
      make_object_tracking_scenario(opt, CalibrationProfile::paper2006());
  const TraceDigest golden{{41, 42}, 0x2d76b698c52ae4bbull};
  expect_digest(digest(run_repeated_parallel(sc, 2, kGoldenSeed)), golden);
}

TEST(GoldenTraceTest, SingleRoundInventory) {
  // One Gen 2 round per repetition: pins the MAC layer (slot choices,
  // collisions) with almost no RF surface.
  const Scenario sc =
      make_read_range_scenario(3.0, CalibrationProfile::paper2006());
  const TraceDigest golden{{14, 10, 16, 14}, 0xd2faa7dfb6108924ull};
  expect_digest(digest(run_repeated_parallel(sc, 4, kGoldenSeed, 0, true)), golden);
}

TEST(GoldenTraceTest, ParallelPathYieldsTheSameDigest) {
  // Ties the golden layer to the sweep engine's thread count: the inline
  // 1-thread run and a 4-thread run must produce the identical digest, so
  // one constant guards every thread count.
  const Scenario sc =
      make_read_range_scenario(4.0, CalibrationProfile::paper2006());
  EXPECT_EQ(digest(run_repeated_parallel(sc, 3, kGoldenSeed, 1)),
            digest(run_repeated_parallel(sc, 3, kGoldenSeed, 4)));
}

}  // namespace
}  // namespace rfidsim::reliability
