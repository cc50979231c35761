// Machine-readable performance baseline (BENCH_3.json).
//
// Times the three layers the sweep work optimises — raw path evaluation,
// inventory rounds, and full Monte Carlo table sweeps — on this machine,
// and emits a JSON record so the perf trajectory can be compared across
// commits (schema in EXPERIMENTS.md). Every timed workload is the real
// paper workload: the full-table sweep is Table 1's four tag locations,
// run through rfidsim::sweep at 1 thread and again at 2 and 4, and the
// event streams are cross-checked for equality before any timing is
// reported — a speedup that changed the physics would be a bug, not a
// result. Since PR 3 the same standard applies to observability: the
// final section replays a full pass with metrics + tracing enabled and
// again with both disabled, and the event streams must be byte-identical
// (obs is feedback-free by contract, and this is where the contract is
// enforced).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scene/batch_evaluator.hpp"
#include "sweep/sweep.hpp"
#include "system/portal.hpp"

using namespace rfidsim;
using namespace rfidsim::reliability;
using bench::Entry;
using bench::wall_seconds;

namespace {

std::size_t total_events(const RepeatedRuns& runs) {
  std::size_t n = 0;
  for (const auto& log : runs.logs) n += log.size();
  return n;
}

/// Exact (bitwise-through-operator==) equality of every PathTerms field.
bool terms_equal(const rf::PathTerms& a, const rf::PathTerms& b) {
  return a.distance_m == b.distance_m && a.reader_gain == b.reader_gain &&
         a.tag_gain == b.tag_gain && a.polarization_loss == b.polarization_loss &&
         a.material_loss == b.material_loss && a.coupling_loss == b.coupling_loss &&
         a.blockage_loss == b.blockage_loss && a.reflection_gain == b.reflection_gain &&
         a.multipath_gain == b.multipath_gain;
}

bool logs_equal(const RepeatedRuns& a, const RepeatedRuns& b) {
  if (a.logs.size() != b.logs.size()) return false;
  for (std::size_t r = 0; r < a.logs.size(); ++r) {
    if (a.logs[r].size() != b.logs[r].size()) return false;
    for (std::size_t i = 0; i < a.logs[r].size(); ++i) {
      const sys::ReadEvent& x = a.logs[r][i];
      const sys::ReadEvent& y = b.logs[r][i];
      if (x.tag != y.tag || x.time_s != y.time_s || x.reader_index != y.reader_index ||
          x.antenna_index != y.antenna_index || x.rssi.value() != y.rssi.value()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Session session(argc, argv);
  const char* out_path =
      session.positional().empty() ? "BENCH_3.json" : session.positional()[0].c_str();
  bench::banner("perf_baseline - sweep engine, geometry cache, obs differential",
                "Times path evaluation, inventory rounds and full-table sweeps;\n"
                "writes the machine-readable record to BENCH_3.json.");
  const CalibrationProfile cal = bench::profile();
  std::vector<Entry> entries;

  // --- 1. Raw path evaluation, static scene (Fig. 2 rig at 4 m). -----------
  // The uncached scalar oracle prices the whole occlusion/coupling/reflector
  // walk per evaluation. The batch kernel's static-geometry cache memoizes
  // the full rf::PathTerms per (antenna, tag) here, so its cached pass
  // prices a lookup; with the cache off, its edge is geometry hoisting
  // alone (poses and tag vectors derived once, not per evaluation).
  {
    const Scenario sc = make_read_range_scenario(4.0, cal);
    const auto tags = sc.scene.all_tags();
    constexpr std::size_t kSweeps = 2000;
    double sink = 0.0;

    const scene::PathEvaluator eval(sc.scene, sc.portal.evaluator);
    const double uncached_s = wall_seconds([&] {
      for (std::size_t pass = 0; pass < kSweeps; ++pass) {
        for (const auto& tag : tags) {
          sink += eval.evaluate(0, tag, 0.0).distance_m;
        }
      }
    });
    auto time_batch = [&](bool cached) {
      scene::EvaluatorParams params = sc.portal.evaluator;
      params.static_geometry_cache = cached;
      scene::BatchPathEvaluator batch(sc.scene, params);
      std::vector<rf::PathTerms> terms;
      return wall_seconds([&] {
        for (std::size_t pass = 0; pass < kSweeps; ++pass) {
          batch.evaluate_all(0, 0.0, terms);
          for (const rf::PathTerms& term : terms) sink += term.distance_m;
        }
      });
    };
    const double cached_s = time_batch(true);
    const double batch_s = time_batch(false);
    entries.push_back({"path_eval_static_uncached", uncached_s, kSweeps * tags.size(),
                       "", 0.0, "20-tag read-range grid, scalar oracle (uncached)"});
    entries.push_back({"path_eval_static_cached", cached_s, kSweeps * tags.size(),
                       "path_eval_static_uncached", uncached_s / cached_s,
                       "same grid through the batch kernel's static-geometry cache"});
    entries.push_back({"path_eval_batch_static", batch_s, kSweeps * tags.size(),
                       "path_eval_static_uncached", uncached_s / batch_s,
                       "same grid through the SoA batch kernel, cache off"});
    if (sink == 42.0) std::puts("");  // Defeat dead-code elimination.
  }

  // --- 2. Raw path evaluation, moving scene (Table 1 cart): scalar oracle
  // vs the SoA batch kernel. Entities move, so the batch kernel's cache
  // bypasses itself — this is the honest per-evaluation cost, and the
  // workload the batch refactor targets (one reader round = every tag at
  // one instant).
  // Outputs are bit-compared term by term before the speedup is trusted:
  // batch_matches_scalar = false poisons the record exactly like a sweep
  // mismatch would.
  bool batch_matches_scalar = true;
  {
    ObjectScenarioOptions opt;
    opt.tag_faces = {scene::BoxFace::Front};
    const Scenario sc = make_object_tracking_scenario(opt, cal);
    const auto tags = sc.scene.all_tags();
    const scene::PathEvaluator eval(sc.scene, sc.portal.evaluator);
    constexpr std::size_t kSteps = 400;
    double sink = 0.0;
    const double t0 = sc.portal.start_time_s;
    const double dt = (sc.portal.end_time_s - t0) / static_cast<double>(kSteps);
    // Both walls are best-of-3: the ratio below is held to an absolute
    // floor by bench_regress, and the two loops run at different moments,
    // so a transient load spike on a shared runner would otherwise skew
    // the speedup. The min discards the disturbed reps.
    constexpr int kReps = 3;
    const auto best_of = [&](auto&& body) {
      double best = wall_seconds(body);
      for (int rep = 1; rep < kReps; ++rep) {
        best = std::min(best, wall_seconds(body));
      }
      return best;
    };
    const double scalar_wall = best_of([&] {
      for (std::size_t s = 0; s < kSteps; ++s) {
        for (const auto& tag : tags) {
          sink += eval.evaluate(0, tag, t0 + dt * static_cast<double>(s)).distance_m;
        }
      }
    });
    entries.push_back({"path_eval_moving", scalar_wall, kSteps * tags.size(), "", 0.0,
                       "12-box cart, scalar oracle (uncached)"});

    scene::BatchPathEvaluator batch(sc.scene, sc.portal.evaluator);
    std::vector<rf::PathTerms> terms;
    const double batch_wall = best_of([&] {
      for (std::size_t s = 0; s < kSteps; ++s) {
        batch.evaluate_all(0, t0 + dt * static_cast<double>(s), terms);
        for (const rf::PathTerms& term : terms) sink += term.distance_m;
      }
    });
    entries.push_back({"path_eval_batch_moving", batch_wall, kSteps * tags.size(),
                       "path_eval_moving", scalar_wall / batch_wall,
                       "same cart workload through the SoA batch kernel"});

    // Untimed differential pass: every (tag, step) through both evaluators.
    for (std::size_t s = 0; s < kSteps && batch_matches_scalar; ++s) {
      const double t_s = t0 + dt * static_cast<double>(s);
      batch.evaluate_all(0, t_s, terms);
      for (std::size_t i = 0; i < tags.size(); ++i) {
        batch_matches_scalar =
            batch_matches_scalar && terms_equal(terms[i], eval.evaluate(0, tags[i], t_s));
      }
    }
    std::printf("batch kernel differential: %zu evaluations, terms %s\n\n",
                kSteps * tags.size(),
                batch_matches_scalar ? "IDENTICAL to scalar oracle"
                                     : "MISMATCH (BUG)");
    if (sink == 42.0) std::puts("");
  }

  // --- 3. Inventory rounds (MAC + RF, static scene). -----------------------
  {
    const Scenario sc = make_read_range_scenario(3.0, cal);
    constexpr std::size_t kRounds = 400;
    sys::PortalSimulator sim(sc.scene, sc.portal);
    Rng rng(bench::kSeed);
    const double wall = wall_seconds([&] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        (void)sim.run_single_round(sc.portal.start_time_s, rng);
      }
    });
    entries.push_back({"inventory_rounds", wall, kRounds, "", 0.0,
                       "single Gen 2 round, 20 static tags"});
  }

  // --- 4. Full-table sweep: Table 1, sweep engine at 1 thread vs more. -----
  // The headline workload: every tag location of Table 1, 12 repetitions
  // each. The serial entry runs the engine at 1 thread (every cell inline
  // on this thread); the others push the identical grid through more
  // workers. Event streams are compared before timings are trusted.
  bool sweep_matches_serial = true;
  {
    const scene::BoxFace faces[] = {scene::BoxFace::Front, scene::BoxFace::SideNear,
                                    scene::BoxFace::SideFar, scene::BoxFace::Top};
    constexpr std::size_t kReps = 12;
    std::vector<Scenario> scenarios;
    for (const auto face : faces) {
      ObjectScenarioOptions opt;
      opt.tag_faces = {face};
      scenarios.push_back(make_object_tracking_scenario(opt, cal));
    }

    std::vector<RepeatedRuns> serial_runs(scenarios.size());
    const double serial_s = wall_seconds([&] {
      for (std::size_t s = 0; s < scenarios.size(); ++s) {
        serial_runs[s] = run_repeated_parallel(scenarios[s], kReps, bench::kSeed, 1);
      }
    });
    const std::size_t cells = scenarios.size() * kReps;
    entries.push_back({"full_table_sweep_serial", serial_s, cells, "", 0.0,
                       "Table 1 grid (4 locations x 12 reps), sweep engine at 1 thread"});

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::size_t> thread_counts = {2, 4};
    if (hw > 4) thread_counts.push_back(hw);
    for (const std::size_t threads : thread_counts) {
      std::vector<RepeatedRuns> sweep_runs(scenarios.size());
      const double sweep_s = wall_seconds([&] {
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
          sweep_runs[s] = run_repeated_parallel(scenarios[s], kReps, bench::kSeed, threads);
        }
      });
      for (std::size_t s = 0; s < scenarios.size(); ++s) {
        sweep_matches_serial =
            sweep_matches_serial && logs_equal(serial_runs[s], sweep_runs[s]);
      }
      entries.push_back({"full_table_sweep_" + std::to_string(threads) + "t", sweep_s,
                         cells, "full_table_sweep_serial", serial_s / sweep_s,
                         "same grid through rfidsim::sweep"});
    }

    std::size_t events = 0;
    for (const auto& runs : serial_runs) events += total_events(runs);
    std::printf("full-table sweep: %zu cells, %zu events, serial %.2fs, "
                "sweep output %s\n\n",
                cells, events, serial_s,
                sweep_matches_serial ? "IDENTICAL to serial" : "MISMATCH (BUG)");
  }

  // --- 5. Static-scene Monte Carlo: cache off vs on, end to end. -----------
  // Fig. 2-style repeated passes over a static scene: the cache survives
  // across repetitions inside one simulator, so the whole sweep accelerates
  // without a single bit of drift (the differential tests hold it to that).
  {
    constexpr std::size_t kReps = 60;
    auto run_with_cache = [&](bool cached, RepeatedRuns& out) {
      Scenario sc = make_read_range_scenario(4.0, cal);
      sc.portal.evaluator.static_geometry_cache = cached;
      return wall_seconds(
          [&] { out = run_repeated_parallel(sc, kReps, bench::kSeed, 1); });
    };
    RepeatedRuns off, on;
    const double off_s = run_with_cache(false, off);
    const double on_s = run_with_cache(true, on);
    sweep_matches_serial = sweep_matches_serial && logs_equal(off, on);
    entries.push_back({"static_sweep_uncached", off_s, kReps, "", 0.0,
                       "read-range pass x60, cache disabled"});
    entries.push_back({"static_sweep_cached", on_s, kReps, "static_sweep_uncached",
                       off_s / on_s, "identical passes, warm static-geometry cache"});
  }

  // --- 6. Observability differential: metrics + tracing on vs all off. -----
  // The obs contract is feedback-free: instrumentation may observe the
  // simulation but never influence it. Replay the Table-1 front-face pass
  // with everything on (including spans) and with everything off; the two
  // event streams must match bit for bit or the record flags the breach.
  bool obs_matches_disabled = true;
  {
    const bool saved_metrics = obs::enabled();
    const bool saved_trace = obs::trace_enabled();
    ObjectScenarioOptions opt;
    opt.tag_faces = {scene::BoxFace::Front};
    const Scenario sc = make_object_tracking_scenario(opt, cal);
    constexpr std::size_t kReps = 8;

    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    RepeatedRuns with_obs;
    const double on_s = wall_seconds(
        [&] { with_obs = run_repeated_parallel(sc, kReps, bench::kSeed, 1); });

    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    RepeatedRuns without_obs;
    const double off_s = wall_seconds(
        [&] { without_obs = run_repeated_parallel(sc, kReps, bench::kSeed, 1); });

    obs::set_enabled(saved_metrics);
    obs::set_trace_enabled(saved_trace);

    obs_matches_disabled = logs_equal(with_obs, without_obs);
    entries.push_back({"full_pass_obs_off", off_s, kReps, "", 0.0,
                       "Table 1 front face x8, observability disabled"});
    entries.push_back({"full_pass_obs_on", on_s, kReps, "full_pass_obs_off",
                       off_s / on_s, "same passes with metrics + trace spans on"});
    std::printf("obs differential: event streams %s\n\n",
                obs_matches_disabled ? "IDENTICAL with obs on/off"
                                     : "MISMATCH (obs fed back into the sim, BUG)");
  }

  // Stage attribution (--attribution-dump / RFIDSIM_OBS=prof): where did
  // the wall clock of everything above actually go? This is the measured
  // answer to the ROADMAP's "portal sim dominates" assertion — portal-sim
  // vs path-eval vs store-merge shares, from the deterministic phase
  // timers, printed alongside the table they explain.
  if (obs::prof::attribution_enabled()) {
    obs::prof::write_attribution_report(std::cout);
    std::printf("\n");
  }

  TextTable t({"benchmark", "wall (s)", "cells", "vs baseline"});
  for (const Entry& e : entries) {
    t.add_row({e.name, std::to_string(e.wall_s), std::to_string(e.cells),
               e.baseline.empty() ? "-" : (std::to_string(e.speedup) + "x " + e.baseline)});
  }
  bench::print_table(t);

  bench::write_json(
      out_path, 7,
      {{"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
       {"sweep_matches_serial", bench::json_bool(sweep_matches_serial)},
       {"obs_matches_disabled", bench::json_bool(obs_matches_disabled)},
       {"batch_matches_scalar", bench::json_bool(batch_matches_scalar)}},
      entries);
  std::printf("\nwrote %s\n", out_path);
  return (sweep_matches_serial && obs_matches_disabled && batch_matches_scalar) ? 0 : 1;
}
