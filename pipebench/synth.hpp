// Seeded synthetic inputs for the physics-free workloads.
//
// Every function here is a pure function of its arguments: the same seed
// gives byte-identical logs, schedules and query streams, whatever order
// they are generated in (each pass forks its own stream).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "system/events.hpp"

namespace pipebench {

namespace sys = rfidsim::sys;

/// Shape of one facility's synthetic raw reader log.
struct SynthShape {
  std::uint64_t tags = 40000;          ///< Tag ids 1..tags.
  std::size_t events_per_pass = 4000;
  double window_s = 10.0;              ///< Pass k covers [k*window_s, (k+1)*window_s).
  std::size_t readers = 3;
  std::size_t antennas = 4;
};

/// Raw reader log of pass `pass` at `facility`. Event times are uniform
/// over the pass window and unsorted, as several readers' interleaved
/// uploads are.
sys::EventLog synth_pass_log(std::uint64_t seed, std::uint32_t facility, std::uint64_t pass,
                             const SynthShape& shape);

/// One hand-off of a pass log to a facility feed.
struct Delivery {
  std::uint32_t facility = 0;
  std::uint32_t pass = 0;
  bool refeed = false;  ///< A whole-pass re-delivery (every event a duplicate).
};

/// Delivery order of `passes` passes per facility with transport damage:
/// each pass is held back `late_windows` windows with probability
/// `held_fraction`, and fed a second time one window later with
/// probability `refeed_fraction`.
std::vector<Delivery> damaged_schedule(std::uint64_t seed, std::uint32_t facilities,
                                       std::uint32_t passes, double held_fraction,
                                       std::uint32_t late_windows, double refeed_fraction);

/// `count` tag ids in 1..tags drawn from a Zipf(exponent) popularity law;
/// popular ranks are scattered over the id space.
std::vector<std::uint64_t> zipf_tags(std::uint64_t seed, std::size_t count, std::uint64_t tags,
                                     double exponent);

}  // namespace pipebench
