// Google-benchmark micro-benchmarks for the simulator's hot paths: the
// per-round link evaluation and the Gen 2 inventory engine. These guard
// against performance regressions that would make the Monte Carlo
// experiment sweeps (hundreds of passes per table) painful.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "gen2/inventory.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "scene/batch_evaluator.hpp"
#include "scene/path_evaluator.hpp"
#include "system/portal.hpp"

namespace {

using namespace rfidsim;

void BM_PathEvaluation(benchmark::State& state) {
  const auto cal = reliability::CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  const reliability::Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  const scene::PathEvaluator evaluator(sc.scene, cal.evaluator);
  const auto tags = sc.scene.all_tags();
  double t = 0.0;
  for (auto _ : state) {
    for (const auto& tag : tags) {
      benchmark::DoNotOptimize(evaluator.evaluate(0, tag, t));
    }
    t += 0.025;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tags.size()));
}
BENCHMARK(BM_PathEvaluation);

void BM_InventoryRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gen2::InventoryConfig cfg;
  gen2::InventoryEngine engine(cfg);
  Rng rng(1);
  double t = 0.0;
  for (auto _ : state) {
    // Fresh, fully powered population each round (worst case: everyone
    // contends).
    std::vector<gen2::TagState> states(n);
    std::vector<gen2::TagLink> links(n);
    for (std::size_t i = 0; i < n; ++i) {
      states[i].set_powered(true, t);
      links[i].powered = true;
      links[i].rx_power = DbmPower(-55.0);
    }
    benchmark::DoNotOptimize(engine.run_round(states, links, t, rng));
    t += 0.1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InventoryRound)->Arg(1)->Arg(10)->Arg(100);

void BM_FullPass(benchmark::State& state) {
  const auto cal = reliability::CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  const reliability::Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sys::PortalSimulator sim(sc.scene, sc.portal);
    Rng rng(++seed);
    benchmark::DoNotOptimize(sim.run(rng));
  }
}
BENCHMARK(BM_FullPass);

/// Cached path evaluation — the batch kernel with its static-geometry cache
/// on, over the static read-range scene — with observability toggled at
/// runtime. The pair exists so `--check-obs-overhead` (and anyone eyeballing
/// the regular benchmark output) can see that the hot loop costs the same
/// either way: the evaluator keeps plain per-instance counters and only
/// touches the registry when it is flushed or destroyed.
void BM_PathEvaluationCached(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  const bool saved = obs::enabled();
  obs::set_enabled(obs_on);
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;
  scene::BatchPathEvaluator evaluator(sc.scene, params);
  std::vector<rf::PathTerms> terms;
  for (auto _ : state) {
    evaluator.evaluate_all(0, 0.0, terms);
    benchmark::DoNotOptimize(terms.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(evaluator.tag_count()));
  obs::set_enabled(saved);
}
BENCHMARK(BM_PathEvaluationCached)->Arg(0)->Arg(1)->ArgNames({"obs"});

/// Cached evaluate_all passes per gate slice: ~5 ms of thread CPU time on
/// the 20-tag static read-range scene.
constexpr std::size_t kPassesPerSlice = 75000;

/// Shared A/B overhead gate: finely interleaved ~5 ms slices in a
/// deterministically shuffled order, compared by per-mode medians, 1%
/// budget on mode-true vs mode-false. A rigid A/B/B/A pattern measurably
/// aliases with periodic system activity (timer ticks, frequency-scaling
/// oscillation) on shared hardware — a null experiment with the flag held
/// constant still showed ~1% "overhead" under that pattern. Shuffling
/// decorrelates the mode from any such period and the median shrugs off
/// the occasional descheduled slice.
int run_ab_gate(const char* label,
                const std::function<double(bool)>& time_slice) {
  constexpr int kSlicesPerMode = 100;
  std::vector<char> order;
  for (int s = 0; s < kSlicesPerMode; ++s) {
    order.push_back(0);
    order.push_back(1);
  }
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;  // Fixed seed: run is reproducible.
  auto next = [&lcg] {
    lcg ^= lcg << 13;
    lcg ^= lcg >> 7;
    lcg ^= lcg << 17;
    return lcg;
  };
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[next() % i]);
  }
  std::vector<double> off_s, on_s;
  time_slice(false);  // Warm caches before the first measured slice.
  time_slice(true);
  for (const char mode : order) {
    (mode != 0 ? on_s : off_s).push_back(time_slice(mode != 0));
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double med_off = median(off_s);
  const double med_on = median(on_s);
  const double overhead = med_on / med_off - 1.0;
  std::printf("%s: off %.6fs/slice, on %.6fs/slice, %+.3f%%\n", label, med_off,
              med_on, overhead * 100.0);
  if (overhead > 0.01) {
    std::printf("FAIL: %s costs more than 1%% on the hot loop\n", label);
    return 1;
  }
  std::printf("OK: within the 1%% disabled-overhead budget\n");
  return 0;
}

/// `--check-obs-overhead`: times the cached batch path-eval hot loop with obs
/// enabled vs disabled and fails if the enabled loop is more than 1%
/// slower. The hot loop compiles identically in both modes, so this holds
/// with plenty of margin; a regression here means someone put registry
/// traffic back on the per-evaluation path. Also gates the disabled
/// ScopedPhase markers (check_phase_overhead below) under the same budget.
int check_obs_overhead() {
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;

  scene::BatchPathEvaluator evaluator(sc.scene, params);
  std::vector<rf::PathTerms> terms;
  double sink = 0.0;
  // Thread CPU time, not wall time: a preempted slice would otherwise
  // charge the whole scheduling gap to whichever mode was running.
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  auto time_slice = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const double t0 = thread_seconds();
    for (std::size_t p = 0; p < kPassesPerSlice; ++p) {
      evaluator.evaluate_all(0, 0.0, terms);
      sink += terms[0].distance_m;
    }
    return thread_seconds() - t0;
  };

  const int rc = run_ab_gate("obs overhead on cached path eval", time_slice);
  obs::set_enabled(true);
  if (sink == 42.0) std::puts("");  // Defeat dead-code elimination.
  return rc;
}

/// Cached passes bracketed by one marker in check_phase_overhead.
constexpr std::size_t kPassesPerMarker = 16;

/// kPassesPerMarker cached passes, kept out of line so both gate modes run
/// the identical machine code for the work and differ only by the marker
/// around it, not by how the compiler laid out two inlined copies.
[[gnu::noinline]] double cached_passes(scene::BatchPathEvaluator& evaluator,
                                       std::vector<rf::PathTerms>& terms) {
  double sink = 0.0;
  for (std::size_t p = 0; p < kPassesPerMarker; ++p) {
    evaluator.evaluate_all(0, 0.0, terms);
    sink += terms[0].distance_m;
  }
  return sink;
}

/// Disabled-profiler-hook overhead: the same cached batch path-eval loop, with
/// every kPassesPerMarker passes wrapped in a ScopedPhase marker whose
/// attribution switch is off, vs the bare loop. Markers live on per-round
/// orchestration paths (portal run, store route/merge), so a disabled marker
/// must cost no more than the disabled metric hooks it sits next to — the
/// same 1% budget, at the density it was set for: one marker per ~1 us of
/// cached path evaluation, which was one pass over the scene's 20 tags when
/// the cache lived in the scalar evaluator. A cached batch pass is ~15x
/// cheaper, so a marker brackets 16 of them.
int check_phase_overhead() {
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;

  scene::BatchPathEvaluator evaluator(sc.scene, params);
  std::vector<rf::PathTerms> terms;
  double sink = 0.0;
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const bool saved = obs::prof::attribution_enabled();
  obs::prof::set_attribution_enabled(false);
  auto time_slice = [&](bool with_markers) {
    const double t0 = thread_seconds();
    for (std::size_t p = 0; p < kPassesPerSlice; p += kPassesPerMarker) {
      if (with_markers) {
        const obs::prof::ScopedPhase phase(obs::prof::Phase::kPathEval);
        sink += cached_passes(evaluator, terms);
      } else {
        sink += cached_passes(evaluator, terms);
      }
    }
    return thread_seconds() - t0;
  };
  const int rc =
      run_ab_gate("disabled phase markers on cached path eval", time_slice);
  obs::prof::set_attribution_enabled(saved);
  if (sink == 42.0) std::puts("");  // Defeat dead-code elimination.
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--check-obs-overhead") {
      const int rc = check_obs_overhead();
      return rc != 0 ? rc : check_phase_overhead();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
