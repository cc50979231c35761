// pipebench — the end-to-end pipeline benchmark.
//
//   pipebench --workload <portal_fleet|backhaul_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One run: an untimed warm-up (set-up and one epoch), then timed epochs
// with set-up rounds between them (the median of the set-ups is setup_s),
// until --seconds have passed and every tail has enough samples, then the
// serial reference epoch (1 thread, obs off) that every epoch's outputs
// must equal bit for bit, plus the stored golden outputs at the default
// seed.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced
// and untraced epochs: the traced ones give the per-layer metrics (span
// self times, layer tallies, obs registry deltas, a wire codec probe) and
// the untraced ones the tracing overhead; a traced epoch whose layer spans
// cover less than kMinCoverage of its wall fails. The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}; a record with sample
// counts, outputs, thread counts and hardware_concurrency goes to
// .bench_out/pipebench-<workload>-seed<n>-trace<t>.json, and the spans of a
// traced run to ...trace.json beside it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "golden.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wire/wire.hpp"
#include "workloads.hpp"

namespace {

using namespace pipebench;
using Clock = std::chrono::steady_clock;

constexpr double kSetupRoundSeconds = 0.02;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinTailSamples = 1000;  ///< p99 with >= 10 samples beyond it.
constexpr std::size_t kSpanWriteLimit = 50000;
/// Records and span dumps, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

struct Args {
  WorkloadKind workload = WorkloadKind::kPortalFleet;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto kind = parse_workload(value);
      if (!kind) return false;
      args.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note{};
  /// False for numbers printed and recorded but left out of the JSON result
  /// (and so not gated by the benchmark's bounds).
  bool gated = true;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename T>
void append(std::vector<T>& dst, const std::vector<T>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Deltas of the public obs registry over one traced epoch: the counts the
/// benchmark cannot see from outside run_repeated_parallel / ingest.
std::map<std::string, double> obs_snapshot() {
  auto& r = rfidsim::obs::registry();
  std::map<std::string, double> m;
  for (const char* name :
       {"sweep.sweeps", "sweep.cells", "scene.path_cache.full_hits",
        "scene.path_cache.full_misses", "scene.path_cache.pair_hits",
        "scene.path_cache.pair_misses", "scene.path_cache.bypassed", "gen2.rounds",
        "gen2.total_slots", "gen2.success_slots", "gen2.collision_slots", "sys.portal.rounds",
        "sys.portal.read_events"}) {
    m[name] = static_cast<double>(r.counter(name).value());
  }
  for (int lane = 0; lane < 8; ++lane) {
    const std::string label = std::to_string(lane);
    m["lane_busy"] += r.gauge("sweep.pool.lane_busy_seconds", {{"lane", label}}).value();
    m["lane_idle"] += r.gauge("sweep.pool.lane_idle_seconds", {{"lane", label}}).value();
    m["lane_wait"] += r.gauge("sweep.pool.lane_queue_wait_seconds", {{"lane", label}}).value();
  }
  for (const char* session : {"s0", "s1", "s2", "s3"}) {
    m["gen2.sessions"] +=
        static_cast<double>(r.counter("gen2.sessions", {{"session", session}}).value());
  }
  return m;
}

std::map<std::string, double> minus(std::map<std::string, double> after,
                                    const std::map<std::string, double>& before) {
  for (auto& [name, value] : after) value -= before.at(name);
  return after;
}

/// Encode/decode seconds per million events over the sampled batches.
std::pair<double, double> wire_probe(const std::vector<rfidsim::wire::EventBatch>& sample) {
  std::size_t events = 0;
  for (const auto& b : sample) events += b.events.size();
  if (events == 0) return {0.0, 0.0};
  std::vector<std::vector<std::uint8_t>> frames(sample.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    frames[i] = rfidsim::wire::encode_event_batch_frame(sample[i]);
  }
  const double encode_s = seconds_since(t0);
  std::size_t decoded = 0;
  const auto t1 = Clock::now();
  for (const auto& frame : frames) {
    const rfidsim::wire::DecodeResult res = rfidsim::wire::next_frame(frame, 0);
    if (!res.ok) continue;
    if (const auto batch = rfidsim::wire::decode_event_batch(res.frame)) {
      decoded += batch->events.size();
    }
  }
  const double decode_s = seconds_since(t1);
  const double mevents = static_cast<double>(events) * 1e-6;
  return {encode_s / mevents, decoded == events ? decode_s / mevents : 0.0};
}

/// Per-layer values of one traced epoch, in report order.
std::vector<Metric> layer_values(const EpochResult& e, const Tracer& tracer,
                                 std::size_t span_begin, std::size_t span_end,
                                 const std::map<std::string, double>& obs,
                                 std::pair<double, double> wire) {
  const LayerSeconds self = tracer.self_seconds(span_begin, span_end);
  const auto s = [&](Layer layer) { return self[static_cast<std::size_t>(layer)]; };
  const double covered = tracer.layer_seconds(span_begin, span_end);
  const Tallies& t = e.tallies;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto o = [&](const char* name) { return obs.at(name); };
  const double path_evals =
      o("scene.path_cache.full_hits") + o("scene.path_cache.full_misses") +
      o("scene.path_cache.pair_hits") + o("scene.path_cache.pair_misses") +
      o("scene.path_cache.bypassed");
  const double path_hits = o("scene.path_cache.full_hits") + o("scene.path_cache.pair_hits");
  const double slots = o("gen2.total_slots");
  return {
      {"reliability.simulate_frac", ratio(s(Layer::kReliability), e.epoch_s), "frac"},
      {"reliability.events_per_pass", ratio(n(t.sim_events), n(t.sim_passes)), "count"},
      {"sweep.sweeps", o("sweep.sweeps"), "count"},
      {"sweep.cells", o("sweep.cells"), "count"},
      {"sweep.lane_busy_per_wall", ratio(o("lane_busy"), e.epoch_s), "s/s"},
      {"sweep.lane_idle_frac", ratio(o("lane_idle"), o("lane_busy") + o("lane_idle")), "frac"},
      {"sweep.lane_queue_wait_frac", ratio(o("lane_wait"), o("lane_busy")), "frac"},
      {"scene.path_evals", path_evals, "count"},
      {"scene.path_cache_hit_frac", ratio(path_hits, path_evals), "frac"},
      {"gen2.rounds", o("gen2.rounds"), "count"},
      {"gen2.slots", slots, "count"},
      {"gen2.success_frac", ratio(o("gen2.success_slots"), slots), "frac"},
      {"gen2.collision_frac", ratio(o("gen2.collision_slots"), slots), "frac"},
      {"gen2.sessions", o("gen2.sessions"), "count"},
      {"sys.portal.rounds", o("sys.portal.rounds"), "count"},
      {"sys.portal.read_events", o("sys.portal.read_events"), "count"},
      {"sys.uploader.frames", n(t.frames_sent), "count"},
      {"sys.uploader.bytes_per_event", ratio(n(t.bytes_sent), n(t.events_delivered)), "B"},
      {"sys.uploader.nak_frac", ratio(n(t.nak_retransmits), n(t.frames_sent)), "frac"},
      {"sys.uploader.lost_batches", n(t.lost_batches), "count"},
      {"sys.uploader.quarantined_batches", n(t.quarantined_batches), "count"},
      {"wire.encode_s_per_mevent", wire.first, "s/Mevent"},
      {"wire.decode_s_per_mevent", wire.second, "s/Mevent"},
      {"fleet.feed.process_s", s(Layer::kFeed), "s"},
      {"fleet.feed.late_batches", n(t.late_batches), "count"},
      {"track.quarantined_frac", ratio(n(t.quarantined_records), n(t.events_delivered)), "frac"},
      {"fleet.store.ingest_s", s(Layer::kStore), "s"},
      {"fleet.store.calls", n(t.store_calls), "count"},
      {"fleet.store.accepted", n(t.store_accepted), "count"},
      {"fleet.store.duplicate_frac", ratio(n(t.store_duplicates), n(t.store_events)), "frac"},
      {"fleet.store.repair_frac", ratio(n(t.store_repairs), n(t.store_accepted)), "frac"},
      {"fleet.store.bytes_per_sighting", ratio(t.heap_bytes, n(t.sightings)), "B"},
      {"fleet.store.digest_s", t.digest_s, "s"},
      {"fleet.query.locates", n(t.locates), "count"},
      {"fleet.query.model_s", s(Layer::kQueryModel), "s"},
      {"fleet.query.locate_s", s(Layer::kLocate), "s"},
      {"fleet.query.missing_s", s(Layer::kMissing), "s"},
      {"fleet.query.inventory_s", s(Layer::kInventory), "s"},
      {"fleet.checkpoint.incremental_s", s(Layer::kCheckpoint), "s"},
      {"fleet.checkpoint.bytes", n(t.checkpoint_bytes), "B"},
      {"fleet.checkpoint.shards_skipped_frac",
       ratio(n(t.shards_skipped), n(t.shards_written + t.shards_skipped)), "frac"},
      {"bench.glue_s", e.epoch_s - covered, "s"},
      {"trace.coverage_frac", ratio(covered, e.epoch_s), "frac"},
  };
}

std::string format_outputs(const Outputs& o) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "store %016" PRIx64 " queries %016" PRIx64, o.store_digest,
                o.query_digest);
  std::string out = buf;
  out += " rc";
  for (const double rc : o.facility_rc) {
    std::snprintf(buf, sizeof buf, " %.17g", rc);
    out += buf;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Golden outputs of this workload at the default seed, if any.
const GoldenOutputs* golden_for(WorkloadKind kind) {
  for (const GoldenOutputs& g : kGolden) {
    if (std::string(g.workload) == workload_name(kind)) return &g;
  }
  return nullptr;
}

bool matches_golden(const GoldenOutputs& g, const Outputs& o) {
  if (o.store_digest != g.store_digest || o.query_digest != g.query_digest) return false;
  if (o.facility_rc.size() != g.facility_rc.size()) return false;
  for (std::size_t i = 0; i < g.facility_rc.size(); ++i) {
    if (o.facility_rc[i] != g.facility_rc[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload <portal_fleet|backhaul_ingest> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const char* name = workload_name(args.workload);
  const Scale scale = Scale::full();

  // --- Warm-up: an untimed set-up and epoch (first blocks, lazy pools and
  // caches, a CPU out of its idle state). ---
  Exec exec;
  const EpochResult warmup = make_workload(args.workload, args.seed, scale)->run_epoch(exec);

  // --- Set-up, in rounds between the timed epochs: setup_s is the median
  // over the whole run, so it sees the same host as the timed epochs do. A
  // round repeats a set-up of microseconds until kSetupRoundSeconds have
  // passed; rounds run while set-up has taken under kSetupShare of the run.
  std::vector<double> setup_s;
  double setup_spent = 0.0;
  std::unique_ptr<Workload> workload;
  const auto set_up = [&] {
    const auto round_start = Clock::now();
    do {
      workload.reset();
      const auto t0 = Clock::now();
      workload = make_workload(args.workload, args.seed, scale);
      setup_s.push_back(seconds_since(t0));
    } while (seconds_since(round_start) < kSetupRoundSeconds);
    setup_spent += seconds_since(round_start);
  };

  // --- Timed epochs. ---
  std::vector<EpochResult> epochs;
  std::vector<bool> traced;
  Tracer tracer;
  std::vector<std::vector<Metric>> layer_epochs;
  std::size_t pass_samples = 0;
  std::size_t locate_samples = 0;
  std::size_t traced_count = 0;
  std::size_t uncovered = 0;
  const auto timed_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(timed_start);
    const bool enough_time = elapsed >= args.seconds;
    const bool enough_samples =
        pass_samples >= kMinTailSamples && locate_samples >= kMinTailSamples;
    const bool both_kinds = !args.trace || (traced_count > 0 && traced_count < epochs.size());
    if ((enough_time && enough_samples && both_kinds) || elapsed >= 3.0 * args.seconds) break;

    if (!workload || setup_spent < kSetupShare * elapsed) set_up();
    const bool trace_this = args.trace && epochs.size() % 2 == 0;
    Exec e = exec;
    std::vector<rfidsim::wire::EventBatch> wire_sample;
    std::map<std::string, double> obs_before;
    const std::size_t span_begin = tracer.size();
    if (trace_this) {
      e.tracer = &tracer;
      e.wire_sample = &wire_sample;
      obs_before = obs_snapshot();
    }
    EpochResult result = workload->run_epoch(e);
    if (trace_this) {
      const auto obs = minus(obs_snapshot(), obs_before);
      layer_epochs.push_back(
          layer_values(result, tracer, span_begin, tracer.size(), obs, wire_probe(wire_sample)));
      const std::size_t failed_before = result.failed;
      check_coverage(result, tracer, span_begin, tracer.size());
      if (result.failed != failed_before) ++uncovered;
      ++traced_count;
    }
    pass_samples += result.pass_latency_s.size();
    locate_samples += result.locate_s.size();
    traced.push_back(trace_this);
    epochs.push_back(std::move(result));
  }

  // --- Reference: the serial path with obs off. ---
  const bool obs_was_on = rfidsim::obs::enabled();
  rfidsim::obs::set_enabled(false);
  Exec serial;
  serial.sim_threads = 1;
  serial.store_threads = 1;
  const Outputs reference = workload->run_epoch(serial).outputs;
  rfidsim::obs::set_enabled(obs_was_on);

  const OpCount ops = count_operations(epochs, reference);
  const std::uint64_t attempted = ops.attempted;
  std::uint64_t failed = ops.failed;
  const GoldenOutputs* golden = golden_for(args.workload);
  const bool golden_checked = args.seed == kDefaultSeed && golden != nullptr;
  if (golden_checked && !matches_golden(*golden, reference)) failed = attempted;
  const bool correct =
      warmup.outputs == reference && warmup.failed == 0 && failed == 0 && attempted > 0;

  // --- Metrics. ---
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> passes_per_s, events_per_s, pass_lat, locate, missing, ckpt;
    for (const EpochResult& e : epochs) {
      passes_per_s.push_back(ratio(static_cast<double>(e.passes), e.wall_s));
      events_per_s.push_back(ratio(static_cast<double>(e.events_offered), e.wall_s));
      append(pass_lat, e.pass_latency_s);
      append(locate, e.locate_s);
      append(missing, e.missing_s);
      append(ckpt, e.checkpoint_s);
    }
    const TailSummary pass_tail = summarize(pass_lat);
    const TailSummary locate_tail = summarize(locate);
    const auto tail_note = [](const TailSummary& t) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "tail p%g has %zu samples beyond", t.tail_percentile,
                    t.beyond);
      return std::string(buf);
    };
    metrics.push_back({"setup_s", median(setup_s), "s", setup_s.size(),
                       "median of set-ups between epochs"});
    metrics.push_back({"passes_per_s", median(passes_per_s), "1/s", passes_per_s.size(),
                       "median over epochs"});
    metrics.push_back({"events_per_s", median(events_per_s), "1/s", events_per_s.size(),
                       "median over epochs"});
    metrics.push_back({"pass_latency_p50_ms", pass_tail.p50 * 1e3, "ms", pass_tail.samples, ""});
    // The pass-latency tail is printed and recorded but not gated: on a
    // shared host the tail of backhaul_ingest's 2-thread ingest (a fresh pool
    // per call) tracks host contention; ten-run spreads reached 0.34 at p99
    // and 0.27 at p95, beyond the largest bound a metric may have.
    metrics.push_back({"pass_latency_p95_ms", supported_quantile(pass_lat, 0.95) * 1e3, "ms",
                       pass_tail.samples, "not gated", false});
    metrics.push_back({"pass_latency_p99_ms", supported_quantile(pass_lat, 0.99) * 1e3, "ms",
                       pass_tail.samples, tail_note(pass_tail) + ", not gated", false});
    metrics.push_back(
        {"query_latency_p50_us", locate_tail.p50 * 1e6, "us", locate_tail.samples, ""});
    metrics.push_back({"query_latency_p99_us", supported_quantile(locate, 0.99) * 1e6, "us",
                       locate_tail.samples, tail_note(locate_tail)});
    // Not gated: QueryService::missing scans the whole registry, and on the
    // 40k-tag backhaul store its ten-run spread reached 0.24 on a shared host.
    metrics.push_back({"missing_latency_p50_ms", median(missing) * 1e3, "ms", missing.size(),
                       "not gated", false});
    metrics.push_back(
        {"checkpoint_latency_p50_ms", median(ckpt) * 1e3, "ms", ckpt.size(), ""});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", 1, "process high-water mark"});
  } else {
    std::vector<double> traced_wall, untraced_wall;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      (traced[i] ? traced_wall : untraced_wall).push_back(epochs[i].epoch_s);
    }
    for (std::size_t i = 0; i < layer_epochs.front().size(); ++i) {
      std::vector<double> per_epoch;
      for (const auto& values : layer_epochs) per_epoch.push_back(values[i].value);
      Metric m = layer_epochs.front()[i];
      m.value = median(per_epoch);
      m.samples = per_epoch.size();
      m.note = "median over traced epochs";
      metrics.push_back(std::move(m));
    }
    metrics.push_back({"trace.overhead_frac",
                       ratio(median(traced_wall), median(untraced_wall)) - 1.0, "frac",
                       traced_wall.size(), "traced vs untraced epoch wall, medians"});
  }

  // --- Report. ---
  const unsigned hw = std::thread::hardware_concurrency();
  const double failed_frac = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("pipebench %s seed %" PRIu64 " trace %d: %zu epochs, hardware_concurrency %u, "
              "sim threads %zu, store threads %zu\n",
              name, args.seed, args.trace ? 1 : 0, epochs.size(), hw, exec.sim_threads,
              workload->store_threads());
  std::printf("outputs   %s\nreference %s%s\n", format_outputs(warmup.outputs).c_str(),
              format_outputs(reference).c_str(),
              golden_checked ? " (golden checked)" : "");
  if (uncovered > 0) {
    std::printf("error: in %zu traced epochs, layer spans cover less than %.2f of the wall; "
                "their operations count as failed\n",
                uncovered, kMinCoverage);
  }
  std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 " operations)\n", failed_frac, failed,
              attempted);
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14.6g %-9s samples %-8zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";

  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string stem = std::string(kOutDir) + "/pipebench-" + name + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  if (std::ofstream record(stem + ".json"); record) {
    record << "{\"workload\": \"" << name << "\", \"seed\": " << args.seed
           << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"seconds\": " << args.seconds
           << ", \"hardware_concurrency\": " << hw << ", \"sim_threads\": " << exec.sim_threads
           << ", \"store_threads\": " << workload->store_threads()
           << ", \"epochs\": " << epochs.size() << ", \"timed_wall_s\": [";
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      record << (i ? ", " : "") << json_number(epochs[i].wall_s);
    }
    // Timed wall plus backhaul_ingest's closing audit.
    record << "], \"epoch_s\": [";
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      record << (i ? ", " : "") << json_number(epochs[i].epoch_s);
    }
    record << "], \"failed_frac\": "
           << json_number(failed_frac) << ", \"outputs\": \""
           << format_outputs(reference) << "\", \"metrics\": [";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      record << (i ? ", " : "") << "{\"name\": \"" << m.name
             << "\", \"value\": " << json_number(m.value) << ", \"unit\": \"" << m.unit
             << "\", \"samples\": " << m.samples << ", \"note\": \"" << m.note << "\"}";
    }
    record << "], \"result\": " << json << "}\n";
  }
  if (args.trace) {
    if (std::ofstream spans(stem + ".trace.json"); spans) {
      tracer.write_chrome(spans, kSpanWriteLimit);
    }
  }

  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
