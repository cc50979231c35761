#include "reliability/estimator.hpp"

#include <memory>
#include <unordered_set>

#include "sweep/sweep.hpp"
#include "system/portal.hpp"
#include "track/tracking.hpp"

namespace rfidsim::reliability {

RepeatedRuns run_repeated_parallel(const Scenario& scenario, std::size_t repetitions,
                                   std::uint64_t seed, std::size_t threads,
                                   bool single_round) {
  RepeatedRuns runs;
  runs.logs.resize(repetitions);
  // Cell rep's generator is sweep::cell_rng(seed, rep), so results are
  // byte-identical regardless of thread count (see
  // tests/reliability/parallel_test.cpp). One simulator per lane: the run
  // fully resets per-pass state, and the evaluator's static-geometry cache
  // carried between cells holds first-evaluation results verbatim, so lane
  // reuse cannot change a bit — it only keeps the cache warm.
  std::vector<std::unique_ptr<sys::PortalSimulator>> sims;
  sweep::parallel_for(
      repetitions, threads,
      [&](std::size_t lanes) { sims.resize(lanes); },
      [&](std::size_t rep, std::size_t lane) {
        if (!sims[lane]) {
          sims[lane] =
              std::make_unique<sys::PortalSimulator>(scenario.scene, scenario.portal);
        }
        Rng rng = sweep::cell_rng(seed, rep);
        runs.logs[rep] =
            single_round
                ? sims[lane]->run_single_round(scenario.portal.start_time_s, rng)
                : sims[lane]->run(rng);
      });
  // Lane completion: fold each lane simulator's batched evaluator tallies
  // into the registry now rather than at destruction, so registry dumps
  // taken right after a sweep see the whole sweep.
  for (const auto& sim : sims) {
    if (sim) sim->flush_obs();
  }
  return runs;
}

std::vector<double> distinct_tags_per_run(const RepeatedRuns& runs) {
  std::vector<double> counts;
  counts.reserve(runs.logs.size());
  for (const sys::EventLog& log : runs.logs) {
    std::unordered_set<scene::TagId> seen;
    for (const sys::ReadEvent& ev : log) seen.insert(ev.tag);
    counts.push_back(static_cast<double>(seen.size()));
  }
  return counts;
}

std::unordered_map<scene::TagId, ProportionInterval> per_tag_reliability(
    const Scenario& scenario, const RepeatedRuns& runs) {
  std::unordered_map<scene::TagId, std::size_t> successes;
  for (const auto& address : scenario.scene.all_tags()) {
    const scene::TagId id =
        scenario.scene.entities[address.entity].tags()[address.tag].id;
    successes.emplace(id, 0);
  }
  for (const sys::EventLog& log : runs.logs) {
    std::unordered_set<scene::TagId> seen;
    for (const sys::ReadEvent& ev : log) seen.insert(ev.tag);
    for (const scene::TagId& id : seen) {
      const auto it = successes.find(id);
      if (it != successes.end()) ++it->second;
    }
  }
  std::unordered_map<scene::TagId, ProportionInterval> result;
  for (const auto& [id, count] : successes) {
    result.emplace(id, wilson_interval(count, runs.logs.size()));
  }
  return result;
}

std::unordered_map<track::ObjectId, ProportionInterval> per_object_reliability(
    const Scenario& scenario, const RepeatedRuns& runs) {
  const track::TrackingAnalyzer analyzer(scenario.registry);
  std::unordered_map<track::ObjectId, std::size_t> successes;
  for (const track::ObjectId& obj : scenario.registry.objects()) successes.emplace(obj, 0);
  for (const sys::EventLog& log : runs.logs) {
    const track::PassReport report = analyzer.analyze(log);
    for (const track::ObjectId& obj : report.objects_identified) {
      const auto it = successes.find(obj);
      if (it != successes.end()) ++it->second;
    }
  }
  std::unordered_map<track::ObjectId, ProportionInterval> result;
  for (const auto& [obj, count] : successes) {
    result.emplace(obj, wilson_interval(count, runs.logs.size()));
  }
  return result;
}

double mean_tag_reliability(const Scenario& scenario, const RepeatedRuns& runs) {
  const auto per_tag = per_tag_reliability(scenario, runs);
  if (per_tag.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [id, ci] : per_tag) sum += ci.estimate;
  return sum / static_cast<double>(per_tag.size());
}

double mean_object_reliability(const Scenario& scenario, const RepeatedRuns& runs) {
  const auto per_object = per_object_reliability(scenario, runs);
  if (per_object.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [obj, ci] : per_object) sum += ci.estimate;
  return sum / static_cast<double>(per_object.size());
}

double measure_tag_reliability(const Scenario& scenario, std::size_t repetitions,
                               std::uint64_t seed) {
  return mean_tag_reliability(scenario,
                              run_repeated_parallel(scenario, repetitions, seed));
}

double measure_tracking_reliability(const Scenario& scenario, std::size_t repetitions,
                                    std::uint64_t seed) {
  return mean_object_reliability(scenario,
                                 run_repeated_parallel(scenario, repetitions, seed));
}

}  // namespace rfidsim::reliability
