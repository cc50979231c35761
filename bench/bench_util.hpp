// Shared plumbing for the paper-reproduction benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"

namespace rfidsim::bench {

/// Fixed seed for all benches: tables are bit-for-bit reproducible.
inline constexpr std::uint64_t kSeed = 20070625;  // DSN 2007.

/// The calibrated hardware profile every bench runs on.
inline reliability::CalibrationProfile profile() {
  return reliability::CalibrationProfile::paper2006();
}

/// Prints a header naming the paper artifact being regenerated.
inline void banner(const char* artifact, const char* summary) {
  std::printf("=== %s ===\n%s\n\n", artifact, summary);
}

/// "x% (y%-z%)" — estimate with a 95% Wilson interval, as the paper's
/// small-n percentages deserve.
inline std::string pct_ci(double estimate, std::size_t successes, std::size_t trials) {
  const ProportionInterval ci = wilson_interval(successes, trials);
  (void)estimate;
  return percent(ci.estimate) + " [" + percent(ci.lower) + ", " + percent(ci.upper) + "]";
}

/// Renders a table to stdout with a trailing blank line — the one way
/// every bench prints its results (was a copy-pasted fputs per table).
inline void print_table(const TextTable& table) {
  std::fputs(table.render().c_str(), stdout);
}

/// Wall-clock seconds taken by one call of `fn`.
inline double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One benchmark of an rfidsim-bench-v1 record (schema in EXPERIMENTS.md).
struct Entry {
  std::string name;
  double wall_s = 0.0;
  std::size_t cells = 0;  ///< Unit count (evaluations, rounds, passes).
  std::string baseline;   ///< Entry this one's speedup is relative to.
  double speedup = 0.0;   ///< 0 when the entry IS a baseline.
  std::string note;
};

/// JSON literal of a verdict flag.
inline std::string json_bool(bool value) { return value ? "true" : "false"; }

/// Writes an rfidsim-bench-v1 record to `path`: the schema tag, `pr`, the
/// bench's own top-level fields in order — each a key and its value already
/// rendered as JSON — then the benchmarks array. Returns false, with a
/// message on stderr, when the file cannot be written.
inline bool write_json(const std::string& path, int pr,
                       const std::vector<std::pair<std::string, std::string>>& fields,
                       const std::vector<Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"rfidsim-bench-v1\",\n");
  std::fprintf(f, "  \"pr\": %d,\n", pr);
  for (const auto& [key, value] : fields) {
    std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
  }
  std::fprintf(f, "  \"benchmarks\": [\n");
  const auto json_escape = [](const std::string& s) {
    std::string out;
    obs::append_json_escaped(out, s);
    return out;
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"wall_s\": %.6f, \"cells\": %zu",
                 json_escape(e.name).c_str(), e.wall_s, e.cells);
    if (!e.baseline.empty()) {
      std::fprintf(f, ", \"baseline\": \"%s\", \"speedup\": %.3f",
                   json_escape(e.baseline).c_str(), e.speedup);
    }
    if (!e.note.empty()) std::fprintf(f, ", \"note\": \"%s\"", json_escape(e.note).c_str());
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "bench: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Per-binary harness: parses the flags every bench shares and, at end of
/// main, writes the requested observability dumps. Usage:
///
///   int main(int argc, char** argv) {
///     const bench::Session session(argc, argv);
///     ... tables ...
///   }
///
/// Flags (all optional):
///   --metrics-dump <path>  Prometheus text exposition of the obs registry.
///   --trace-dump <path>    Chrome trace_event JSON (enables span tracing).
///   --flight-dump <path>   Flight-recorder dump (JSON lines: the tail of
///                          the per-batch provenance log), written
///                          atomically at end of run.
///   --profile-dump <path>  Folded-stack sampling-profiler dump
///                          (flamegraph.pl input). Starts the SIGPROF
///                          sampler for the whole run; Linux-only (the
///                          dump is written empty elsewhere).
///   --attribution-dump <path>  Per-phase stage-attribution report (JSON;
///                          see EXPERIMENTS.md). Enables the deterministic
///                          phase timers for the whole run.
///   --threads <n>          Worker-thread request for benches with a
///                          parallel path (0 = none: the bench's built-in
///                          thread counts only). Benches read it via
///                          threads().
///   --seed <u64>           Scenario seed override; defaults to kSeed.
/// A bench names its own flags, each taking one value, in `own_flags` and
/// reads them back with flag(). Any other `--` argument exits 2 with a
/// message, so a mistyped or retired flag never becomes a positional
/// argument. Remaining arguments are left for the bench in positional().
class Session {
 public:
  Session(int argc, char** argv, std::initializer_list<std::string_view> own_flags = {}) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto take_value = [&](std::string& out) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "bench: %s needs a path argument\n", arg.c_str());
          std::exit(2);
        }
        out = argv[++i];
      };
      auto take_number = [&](const char* what) -> std::uint64_t {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "bench: %s needs a %s argument\n", arg.c_str(), what);
          std::exit(2);
        }
        char* end = nullptr;
        const unsigned long long v = std::strtoull(argv[++i], &end, 10);
        if (end == argv[i] || *end != '\0') {
          std::fprintf(stderr, "bench: %s: '%s' is not a valid %s\n", arg.c_str(),
                       argv[i], what);
          std::exit(2);
        }
        return static_cast<std::uint64_t>(v);
      };
      if (arg == "--metrics-dump") {
        take_value(metrics_path_);
      } else if (arg == "--trace-dump") {
        take_value(trace_path_);
        obs::set_trace_enabled(true);
      } else if (arg == "--flight-dump") {
        take_value(flight_path_);
      } else if (arg == "--profile-dump") {
        take_value(profile_path_);
      } else if (arg == "--attribution-dump") {
        take_value(attribution_path_);
      } else if (arg == "--threads") {
        threads_ = static_cast<std::size_t>(take_number("thread count"));
      } else if (arg == "--seed") {
        seed_ = take_number("seed");
      } else if (std::find(own_flags.begin(), own_flags.end(), arg) != own_flags.end()) {
        take_value(own_values_[arg]);
      } else if (arg.starts_with("--")) {
        std::fprintf(stderr, "bench: unknown flag %s\n", arg.c_str());
        std::exit(2);
      } else {
        positional_.push_back(arg);
      }
    }
    // RFIDSIM_OBS=prof is the flag-free way to ask for both profiling
    // layers; an explicit dump path requests just its own layer.
    if (!attribution_path_.empty() || !profile_path_.empty() ||
        obs::profile_requested()) {
      obs::prof::set_attribution_enabled(true);
    }
    if (!profile_path_.empty() || obs::profile_requested()) {
      profiling_ = obs::prof::start();
    }
  }

  ~Session() {
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      obs::registry().write_exposition(out);
      std::printf("wrote metrics exposition to %s\n", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      obs::write_chrome_trace(out);
      std::printf("wrote Chrome trace to %s\n", trace_path_.c_str());
    }
    if (profiling_) {
      obs::prof::stop();
      if (profile_path_.empty()) {
        // stderr: RFIDSIM_OBS=prof alone must leave stdout byte-identical
        // to an RFIDSIM_OBS=off run (CI cmp-gates exactly that).
        std::fprintf(stderr,
                     "sampling profiler: %llu samples (%llu ring-dropped), no "
                     "--profile-dump path given\n",
                     static_cast<unsigned long long>(obs::prof::samples_recorded()),
                     static_cast<unsigned long long>(obs::prof::samples_dropped()));
      }
    }
    if (!profile_path_.empty()) {
      // Written even when sampling never started (non-Linux, obs off): an
      // empty folded dump is a readable statement that nothing fired.
      if (obs::prof::dump_profile(profile_path_)) {
        std::printf("wrote folded profile to %s (%llu samples, %llu "
                    "ring-dropped)\n",
                    profile_path_.c_str(),
                    static_cast<unsigned long long>(obs::prof::samples_recorded()),
                    static_cast<unsigned long long>(obs::prof::samples_dropped()));
      } else {
        std::fprintf(stderr, "bench: could not write profile dump to %s\n",
                     profile_path_.c_str());
      }
    }
    if (obs::prof::attribution_enabled()) {
      obs::prof::publish_attribution_metrics();
      if (!attribution_path_.empty()) {
        if (obs::prof::dump_attribution(attribution_path_)) {
          std::printf("wrote attribution report to %s\n",
                      attribution_path_.c_str());
        } else {
          std::fprintf(stderr, "bench: could not write attribution report to %s\n",
                       attribution_path_.c_str());
        }
      }
    }
    if (!flight_path_.empty()) {
      if (obs::dump_flight_recorder(flight_path_)) {
        std::printf("wrote flight-recorder dump to %s (%llu records, %llu "
                    "ring-dropped)\n",
                    flight_path_.c_str(),
                    static_cast<unsigned long long>(obs::provenance_log().recorded()),
                    static_cast<unsigned long long>(obs::provenance_log().dropped()));
      } else {
        std::fprintf(stderr, "bench: could not write flight dump to %s\n",
                     flight_path_.c_str());
      }
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::vector<std::string>& positional() const { return positional_; }
  /// Value of one of the bench's own flags, or nullptr when not given.
  const char* flag(std::string_view name) const {
    const auto it = own_values_.find(name);
    return it == own_values_.end() ? nullptr : it->second.c_str();
  }
  /// --threads value; 0 (default) = no extra thread count.
  std::size_t threads() const { return threads_; }
  /// --seed value; kSeed unless overridden.
  std::uint64_t seed() const { return seed_; }

 private:
  std::size_t threads_ = 0;
  std::uint64_t seed_ = kSeed;
  std::string metrics_path_;
  std::string trace_path_;
  std::string flight_path_;
  std::string profile_path_;
  std::string attribution_path_;
  bool profiling_ = false;
  std::map<std::string, std::string, std::less<>> own_values_;
  std::vector<std::string> positional_;
};

}  // namespace rfidsim::bench
