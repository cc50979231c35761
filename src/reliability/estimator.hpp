// Monte Carlo estimation of read and tracking reliability.
//
// The paper estimates reliabilities by repeating each pass 10-40 times and
// counting; this module does the same against simulated passes, and adds
// the statistics the tables/figures need: per-location proportions with
// Wilson intervals, tags-read-per-pass summaries with quartiles, and the
// measured-vs-analytical (R_M vs R_C) comparison of §4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "reliability/scenarios.hpp"
#include "system/events.hpp"
#include "track/registry.hpp"

namespace rfidsim::reliability {

/// The event logs of `repetitions` independent passes of one scenario.
struct RepeatedRuns {
  std::vector<sys::EventLog> logs;
};

/// Runs the scenario `repetitions` times on the rfidsim::sweep engine.
/// Repetition i's generator is sweep::cell_rng(seed, i) == Rng(seed).fork(i),
/// a pure function of (seed, i), so results are byte-identical for every
/// `threads`: 0 uses the hardware-concurrency team, and 1 runs every
/// repetition inline on the calling thread in index order — the serial
/// reference the differential tests compare against. `single_round`
/// selects the paper's "single read" mode (one inventory round at t = 0,
/// used by Fig. 2) instead of a full continuous-mode pass.
RepeatedRuns run_repeated_parallel(const Scenario& scenario, std::size_t repetitions,
                                   std::uint64_t seed, std::size_t threads = 0,
                                   bool single_round = false);

/// Number of distinct tags seen in each repetition (Fig. 2 / Fig. 4's
/// "tags read out of N" series).
std::vector<double> distinct_tags_per_run(const RepeatedRuns& runs);

/// Per-tag read reliability across repetitions: fraction of passes in
/// which each tag was seen at least once, with Wilson intervals.
std::unordered_map<scene::TagId, ProportionInterval> per_tag_reliability(
    const Scenario& scenario, const RepeatedRuns& runs);

/// Per-object tracking reliability across repetitions (>= 1 of the
/// object's tags seen), with Wilson intervals.
std::unordered_map<track::ObjectId, ProportionInterval> per_object_reliability(
    const Scenario& scenario, const RepeatedRuns& runs);

/// Mean read reliability over all tags (the paper's per-location averages).
double mean_tag_reliability(const Scenario& scenario, const RepeatedRuns& runs);

/// Mean tracking reliability over all objects.
double mean_object_reliability(const Scenario& scenario, const RepeatedRuns& runs);

/// Convenience: run + mean tag reliability in one call.
double measure_tag_reliability(const Scenario& scenario, std::size_t repetitions,
                               std::uint64_t seed);

/// Convenience: run + mean tracking reliability in one call.
double measure_tracking_reliability(const Scenario& scenario, std::size_t repetitions,
                                    std::uint64_t seed);

}  // namespace rfidsim::reliability
