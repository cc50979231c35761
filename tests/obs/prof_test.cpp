// rfidsim::obs::prof — sampling-profiler and stage-attribution tests.
//
// Covers the PR-9 observability layer: phase vocabulary, self-time
// accounting, call-count determinism across store thread counts, folded
// aggregation of fabricated samples, live SIGPROF sampling under load
// (Linux, non-TSan builds), a forked crash-style stress of the handler,
// lane-id stability in the sweep workers, and the compiled-out degenerate
// behaviour (this whole file also runs under -DRFIDSIM_OBS=OFF).
#include "obs/attribution.hpp"
#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/checkpoint.hpp"
#include "fleet/service.hpp"
#include "fleet/store.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"
#include "track/manifest.hpp"
#include "track/registry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

// TSan intercepts signal delivery and forbids timers firing into
// instrumented threads mid-race-check; the sampling tests are gated off
// under it (the fold/attribution logic below still runs).
#if defined(__SANITIZE_THREAD__)
#define RFIDSIM_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RFIDSIM_TEST_TSAN 1
#endif
#endif

namespace rfidsim::obs::prof {
namespace {

#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kCompiledOut = true;
#else
constexpr bool kCompiledOut = false;
#endif

constexpr std::array<Phase, kPhaseCount> kAllPhases = {
    Phase::kPathEval,        Phase::kPortalSim,     Phase::kGen2Inventory,
    Phase::kEventLogAppend,  Phase::kStoreRoute,    Phase::kStoreMerge,
    Phase::kGen2Fusion,      Phase::kFeedPass,      Phase::kStoreIngest,
    Phase::kCheckpointWrite, Phase::kCheckpointRestore, Phase::kQueryMissing,
    Phase::kUploadWire,      Phase::kTrackIngest,   Phase::kStoreDigest,
    Phase::kWireCodec,       Phase::kQueryLocate,   Phase::kQueryInventory,
    Phase::kQueryModel,      Phase::kFeedMonitor,
};

/// Saves and restores the global obs + attribution switches around a test.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = obs::enabled();
    saved_attribution_ = attribution_enabled();
  }
  void TearDown() override {
    set_attribution_enabled(saved_attribution_);
    obs::set_enabled(saved_enabled_);
    reset_attribution();
  }

 private:
  bool saved_enabled_ = false;
  bool saved_attribution_ = false;
};

void spin_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) sink = sink + 1;
}

TEST(ProfPhaseTest, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::kPathEval), "path_eval");
  EXPECT_STREQ(phase_name(Phase::kPortalSim), "portal_sim");
  EXPECT_STREQ(phase_name(Phase::kGen2Inventory), "gen2_inventory");
  EXPECT_STREQ(phase_name(Phase::kEventLogAppend), "event_log_append");
  EXPECT_STREQ(phase_name(Phase::kStoreRoute), "store_route");
  EXPECT_STREQ(phase_name(Phase::kStoreMerge), "store_merge");
  EXPECT_STREQ(phase_name(Phase::kGen2Fusion), "gen2_fusion");
  EXPECT_STREQ(phase_name(Phase::kFeedPass), "feed_pass");
  EXPECT_STREQ(phase_name(Phase::kStoreIngest), "store_ingest");
  EXPECT_STREQ(phase_name(Phase::kCheckpointWrite), "checkpoint_write");
  EXPECT_STREQ(phase_name(Phase::kCheckpointRestore), "checkpoint_restore");
  EXPECT_STREQ(phase_name(Phase::kQueryMissing), "query_missing");
  EXPECT_STREQ(phase_name(Phase::kUploadWire), "upload_wire");
  EXPECT_STREQ(phase_name(Phase::kTrackIngest), "track_ingest");
  EXPECT_STREQ(phase_name(Phase::kStoreDigest), "store_digest");
  EXPECT_STREQ(phase_name(Phase::kWireCodec), "wire_codec");
  EXPECT_STREQ(phase_name(Phase::kQueryLocate), "query_locate");
  EXPECT_STREQ(phase_name(Phase::kQueryInventory), "query_inventory");
  EXPECT_STREQ(phase_name(Phase::kQueryModel), "query_model");
  EXPECT_STREQ(phase_name(Phase::kFeedMonitor), "feed_monitor");
}

TEST(ProfPhaseTest, EnvModeProfRequestsProfiling) {
  EXPECT_TRUE(obs::env_mode("prof").profile);
  EXPECT_TRUE(obs::env_mode("prof").metrics);
  EXPECT_FALSE(obs::env_mode("prof").trace);
  EXPECT_FALSE(obs::env_mode("off").profile);
  EXPECT_FALSE(obs::env_mode("trace").profile);
  EXPECT_FALSE(obs::env_mode(nullptr).profile);
}

TEST_F(ProfTest, DisabledMarkersCountNothing) {
  obs::set_enabled(true);
  set_attribution_enabled(false);
  reset_attribution();
  {
    const ScopedPhase phase(Phase::kPathEval);
    spin_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(phase_totals(Phase::kPathEval).calls, 0u);
  EXPECT_EQ(phase_totals(Phase::kPathEval).self_seconds, 0.0);
}

TEST_F(ProfTest, SelfTimeChargesChildToChildNotParent) {
  obs::set_enabled(true);
  set_attribution_enabled(true);
  reset_attribution();
  if (kCompiledOut) {
    const ScopedPhase outer(Phase::kPortalSim);
    EXPECT_FALSE(attribution_hooks_enabled());
    EXPECT_EQ(phase_totals(Phase::kPortalSim).calls, 0u);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  {
    const ScopedPhase outer(Phase::kPortalSim);
    spin_for(std::chrono::microseconds(500));
    {
      const ScopedPhase inner(Phase::kGen2Inventory);
      spin_for(std::chrono::microseconds(2000));
    }
    spin_for(std::chrono::microseconds(500));
  }
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const PhaseTotals outer_totals = phase_totals(Phase::kPortalSim);
  const PhaseTotals inner_totals = phase_totals(Phase::kGen2Inventory);
  EXPECT_EQ(outer_totals.calls, 1u);
  EXPECT_EQ(inner_totals.calls, 1u);
  // The inner spin is charged to the child; the parent keeps only its own
  // two spins. Bounds are loose (wall clock on shared machines) but the
  // child must dominate the parent and neither may exceed the elapsed
  // total.
  EXPECT_GT(inner_totals.self_seconds, 0.0);
  EXPECT_GT(inner_totals.self_seconds, outer_totals.self_seconds);
  EXPECT_LE(outer_totals.self_seconds + inner_totals.self_seconds,
            total_s + 1e-3);
}

std::vector<fleet::FacilityBatch> tiny_batches() {
  std::vector<fleet::FacilityBatch> batches;
  for (std::uint32_t facility = 0; facility < 2; ++facility) {
    for (std::size_t b = 0; b < 10; ++b) {
      fleet::FacilityBatch batch;
      batch.facility = facility;
      batch.sent_time_s = 1.0;
      batch.arrival_time_s = 1.0;
      for (std::size_t e = 0; e < 50; ++e) {
        sys::ReadEvent ev;
        ev.tag = scene::TagId{e * 7 + facility * 3 + 1};
        ev.time_s = 0.5 + static_cast<double>(e) * 1e-3;
        ev.reader_index = e % 3;
        ev.antenna_index = e % 4;
        batch.events.push_back(ev);
      }
      batches.push_back(std::move(batch));
    }
  }
  return batches;
}

/// One clean pass of `tags`, each read twice by each of two readers.
sys::EventLog tiny_pass(const std::vector<std::uint64_t>& tags, double begin_s) {
  sys::EventLog log;
  double t = begin_s + 0.1;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::uint64_t tag : tags) {
      for (std::size_t reader = 0; reader < 2; ++reader) {
        sys::ReadEvent ev;
        ev.time_s = t;
        ev.tag = scene::TagId{tag};
        ev.reader_index = reader;
        log.push_back(ev);
        t += 0.5;
      }
    }
  }
  return log;
}

TEST_F(ProfTest, AttributionCallsAreDeterministicAcrossThreadCounts) {
  obs::set_enabled(true);
  set_attribution_enabled(true);
  const auto run_with_threads = [](std::size_t threads) {
    reset_attribution();
    fleet::StoreConfig config;
    config.threads = threads;
    fleet::TrackingStore store(config);
    const std::vector<fleet::FacilityBatch> batches = tiny_batches();
    store.ingest(batches);
    for (const fleet::FacilityBatch& batch : batches) store.ingest(batch);

    // The fleet path on a store of the same thread count: feed passes
    // (upload, monitor, track ingest, store ingest, model refresh), a
    // checkpoint round trip, a manifest reconciliation, two locates and an
    // inventory.
    track::ObjectRegistry registry;
    track::Manifest manifest;
    for (std::uint64_t tag = 1; tag <= 3; ++tag) {
      const track::ObjectId object = registry.add_object("obj");
      registry.bind_tag(scene::TagId{tag}, object);
      manifest.expected.insert(object);
    }
    fleet::FleetService service(registry, config);
    fleet::FeedConfig feed;
    feed.ingest.reader_count = 2;
    feed.objects_total = 3;
    const fleet::FacilityId facility = service.add_facility(feed);
    Rng rng(7);
    for (int pass = 0; pass < 3; ++pass) {
      const double begin_s = 10.0 * pass;
      service.ingest_pass(facility, tiny_pass({1, 2, 3}, begin_s), begin_s,
                          begin_s + 10.0, rng);
    }
    fleet::Checkpointer checkpointer;
    const std::vector<std::uint8_t> snapshot = checkpointer.full(service.store());
    const fleet::TrackingStore restored = fleet::restore_checkpoint(snapshot, threads);
    EXPECT_EQ(restored.digest(), service.store().digest());
    service.query().missing(manifest, facility, 20.0, 30.0);
    service.query().locate(scene::TagId{1}, 30.0);
    service.query().locate(registry.objects().front(), 30.0);
    service.query().inventory(facility, 30.0);

    std::array<std::uint64_t, kPhaseCount> calls{};
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      calls[i] = phase_totals(kAllPhases[i]).calls;
    }
    return calls;
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  // Markers sit on the orchestrating thread, so the enter counts are a
  // pure function of the workload — identical at any worker count. (The
  // profiler's own samples, when active, live in a separate ring and never
  // feed these counters.)
  EXPECT_EQ(serial, parallel);
  const auto at = [&serial](Phase phase) {
    return serial[static_cast<std::size_t>(phase)];
  };
  if (!kCompiledOut) {
    // 1 bulk ingest + 20 single-batch ingests, plus one store ingest per
    // feed pass; one route + one merge each.
    EXPECT_EQ(at(Phase::kStoreIngest), 24u);
    EXPECT_EQ(at(Phase::kStoreRoute), 24u);
    EXPECT_EQ(at(Phase::kStoreMerge), 24u);
    EXPECT_EQ(at(Phase::kFeedPass), 3u);
    EXPECT_EQ(at(Phase::kUploadWire), 3u);
    EXPECT_EQ(at(Phase::kTrackIngest), 3u);
    // One 12-event batch per pass on a clean channel: one frame encode and
    // one strict decode each.
    EXPECT_EQ(at(Phase::kWireCodec), 6u);
    EXPECT_EQ(at(Phase::kCheckpointWrite), 1u);
    EXPECT_EQ(at(Phase::kCheckpointRestore), 1u);
    EXPECT_EQ(at(Phase::kQueryMissing), 1u);
    // locate(tag) and locate(object); inventory and missing answer from
    // the shared sighting helper, not from locate.
    EXPECT_EQ(at(Phase::kQueryLocate), 2u);
    EXPECT_EQ(at(Phase::kQueryInventory), 1u);
    // One model refresh and one monitor block per ingest_pass.
    EXPECT_EQ(at(Phase::kQueryModel), 3u);
    EXPECT_EQ(at(Phase::kFeedMonitor), 3u);
    // The checkpoint's closing digest, the restore's check against it,
    // and the two compared above.
    EXPECT_EQ(at(Phase::kStoreDigest), 4u);
  } else {
    for (const std::uint64_t calls : serial) EXPECT_EQ(calls, 0u);
  }
}

TEST_F(ProfTest, AttributionReportAndJsonNameEveryPhase) {
  obs::set_enabled(true);
  set_attribution_enabled(true);
  reset_attribution();
  {
    const ScopedPhase phase(Phase::kPathEval);
    spin_for(std::chrono::microseconds(200));
  }
  std::ostringstream report;
  write_attribution_report(report);
  std::ostringstream json;
  write_attribution_json(json);
  for (const Phase phase : kAllPhases) {
    EXPECT_NE(report.str().find(phase_name(phase)), std::string::npos);
    EXPECT_NE(json.str().find(std::string("\"") + phase_name(phase) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.str().find("\"groups\""), std::string::npos);
  EXPECT_EQ(json.str().back(), '\n');
}

TEST(ProfFoldTest, FoldSamplesAggregatesIdenticalStacks) {
  // Fabricated addresses: symbolization falls back to stable hex names for
  // addresses outside any mapped symbol, so folding is still exercised
  // end-to-end without a live profiler.
  Sample a;
  a.depth = 4;  // Two handler frames stripped, two retained.
  a.frames[0] = reinterpret_cast<void*>(0x1001);  // "handler"
  a.frames[1] = reinterpret_cast<void*>(0x1002);  // "trampoline"
  a.frames[2] = reinterpret_cast<void*>(0x2000);  // leaf
  a.frames[3] = reinterpret_cast<void*>(0x3000);  // root
  Sample b = a;
  Sample c = a;
  c.frames[2] = reinterpret_cast<void*>(0x2222);
  const auto folded = fold_samples({a, b, c});
  ASSERT_EQ(folded.size(), 2u);
  // Root-first ordering: the root (deepest frame) leads the folded stack.
  EXPECT_EQ(folded.at("0x3000;0x2000"), 2u);
  EXPECT_EQ(folded.at("0x3000;0x2222"), 1u);
}

TEST(ProfFoldTest, HandlerFramesAreStrippedOnlyWhenDeeper) {
  // depth > 2: the top two frames (handler + trampoline) are stripped.
  Sample deep;
  deep.depth = 3;
  deep.frames[0] = reinterpret_cast<void*>(0x1);
  deep.frames[1] = reinterpret_cast<void*>(0x2);
  deep.frames[2] = reinterpret_cast<void*>(0x4000);
  const auto deep_folded = fold_samples({deep});
  ASSERT_EQ(deep_folded.size(), 1u);
  EXPECT_EQ(deep_folded.begin()->first, "0x4000");
  // depth <= 2: the stack never reached past the handler, so nothing is
  // stripped (an all-stripped sample would vanish silently otherwise).
  Sample shallow;
  shallow.depth = 2;
  shallow.frames[0] = reinterpret_cast<void*>(0x5000);
  shallow.frames[1] = reinterpret_cast<void*>(0x6000);
  const auto shallow_folded = fold_samples({shallow});
  ASSERT_EQ(shallow_folded.size(), 1u);
  EXPECT_EQ(shallow_folded.begin()->first, "0x6000;0x5000");
}

TEST(ProfLaneTest, PoolWorkersReportStableLaneIds) {
  EXPECT_EQ(sweep::current_lane(), sweep::kNotALane);
  std::mutex mutex;
  std::vector<std::size_t> seen;
  const auto collect = [&] {
    sweep::parallel_for(
        64, 4, [](std::size_t) {},
        [&](std::size_t, std::size_t lane) {
          const std::size_t own = sweep::current_lane();
          EXPECT_EQ(own, lane);  // A cell's lane is its worker's lane id.
          std::lock_guard lock(mutex);
          seen.push_back(own);
        });
  };
  collect();
  collect();  // A second call reuses lane ids 0..3, not 4..7.
  ASSERT_EQ(seen.size(), 128u);
  for (const std::size_t lane : seen) EXPECT_LT(lane, 4u);
}

TEST_F(ProfTest, PoolPublishesPerLaneMetrics) {
  obs::set_enabled(true);
  sweep::parallel_for(32, 2, [](std::size_t) { spin_for(std::chrono::microseconds(50)); });
  const std::string exposition = obs::registry().exposition();
  if (kCompiledOut) {
    EXPECT_EQ(exposition.find("lane_busy_seconds"), std::string::npos);
    return;
  }
  EXPECT_NE(exposition.find(
                "rfidsim_sweep_pool_lane_busy_seconds{lane=\"0\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find(
                "rfidsim_sweep_pool_lane_idle_seconds{lane=\"1\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find(
                "rfidsim_sweep_pool_lane_queue_wait_seconds{lane=\"0\"}"),
            std::string::npos);
}

TEST_F(ProfTest, StartRefusesWhenHooksAreOff) {
  obs::set_enabled(false);
  EXPECT_FALSE(start());
  EXPECT_FALSE(profiling_active());
}

#if defined(__linux__) && !defined(RFIDSIM_OBS_DISABLED) && !defined(RFIDSIM_TEST_TSAN)

// Burns `cpu` of *thread CPU time* — the clock the sampler's timers run
// on. Wall-clock spins flake on loaded CI runners: a descheduled thread
// accrues no CPU time, so its timer may never expire inside a wall-bound
// window. Bounding by CPU time guarantees expirations per interval.
void burn_thread_cpu(std::chrono::microseconds cpu) {
  auto now_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<long long>(ts.tv_sec) * 1'000'000'000ll + ts.tv_nsec;
  };
  const long long until = now_ns() + cpu.count() * 1000ll;
  volatile std::uint64_t sink = 0;
  while (now_ns() < until) sink = sink + 1;
}

TEST_F(ProfTest, LiveSamplingCapturesStacksUnderLoad) {
  obs::set_enabled(true);
  clear_profile();
  ProfilerConfig config;
  config.interval_usec = 500;
  ASSERT_TRUE(start(config));
  EXPECT_TRUE(profiling_active());
  EXPECT_FALSE(start(config));  // Already active.
  burn_thread_cpu(std::chrono::milliseconds(50));  // >= ~100 expirations.
  stop();
  EXPECT_FALSE(profiling_active());
  EXPECT_GT(samples_recorded(), 0u);
  const std::vector<Sample> samples = samples_snapshot();
  ASSERT_FALSE(samples.empty());
  for (const Sample& sample : samples) {
    EXPECT_GT(sample.depth, 0u);
    EXPECT_LE(sample.depth, kMaxFrames);
  }
  std::ostringstream folded;
  write_folded(folded);
  EXPECT_FALSE(folded.str().empty());
  clear_profile();
  EXPECT_TRUE(samples_snapshot().empty());
}

TEST_F(ProfTest, PoolWorkersCarryLaneIdsInSamples) {
  obs::set_enabled(true);
  clear_profile();
  ProfilerConfig config;
  config.interval_usec = 500;
  sweep::parallel_for(2, 2, [](std::size_t) {});  // Workers register before start(): arm path.
  ASSERT_TRUE(start(config));
  sweep::parallel_for(8, 2, [](std::size_t) { burn_thread_cpu(std::chrono::milliseconds(10)); });
  stop();
  bool saw_lane = false;
  for (const Sample& sample : samples_snapshot()) {
    if (sample.lane != kNoLane) {
      EXPECT_LT(sample.lane, 2u);
      saw_lane = true;
    }
  }
  EXPECT_TRUE(saw_lane);
  clear_profile();
}

// Crash-style stress in a forked child (the repo's flight-recorder fork
// pattern): SIGPROF firing at full rate into threads doing allocation,
// locking, and attribution work must neither deadlock nor corrupt the
// rings. The child's exit code is the verdict; a signal-death or a
// timeout fails the waitpid assertions.
TEST(ProfForkTest, SigprofUnderLoadSurvivesInAChild) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    obs::set_enabled(true);
    set_attribution_enabled(true);
    ProfilerConfig config;
    config.interval_usec = 200;  // Aggressive: ~5 kHz per thread.
    if (!start(config)) std::_Exit(2);
    std::atomic<bool> stop_flag{false};
    std::vector<std::thread> workers;
    std::mutex mutex;
    std::uint64_t shared = 0;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([&] {
        register_thread(kNoLane);
        while (!stop_flag.load(std::memory_order_relaxed)) {
          const ScopedPhase phase(Phase::kGen2Inventory);
          std::vector<std::uint64_t> churn(256, 1);  // Allocator traffic.
          std::lock_guard lock(mutex);
          for (const std::uint64_t v : churn) shared += v;
        }
      });
    }
    burn_thread_cpu(std::chrono::milliseconds(100));
    stop_flag.store(true, std::memory_order_relaxed);
    for (std::thread& w : workers) w.join();
    stop();
    if (samples_recorded() == 0) std::_Exit(3);
    if (shared == 0) std::_Exit(4);
    std::_Exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

#else  // !(__linux__ && obs && !tsan)

TEST_F(ProfTest, SamplingDegeneratesToNoOpsHere) {
  obs::set_enabled(true);
  // Non-Linux, compiled-out, or TSan build: start() refuses, every query
  // returns empty, and dumps still produce well-formed (empty) output.
  if (kCompiledOut || !profiling_active()) {
    EXPECT_EQ(samples_dropped(), 0u);
    std::ostringstream folded;
    write_folded(folded);
    SUCCEED();
  }
}

#endif

TEST_F(ProfTest, DumpProfileWritesAtomically) {
  const std::string path = "prof_test_dump.folded";
  EXPECT_TRUE(dump_profile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(dump_profile("no_such_dir/prof_test_dump.folded"));
  std::remove(path.c_str());
}

TEST_F(ProfTest, DumpAttributionWritesJson) {
  obs::set_enabled(true);
  set_attribution_enabled(true);
  reset_attribution();
  {
    const ScopedPhase phase(Phase::kStoreMerge);
    spin_for(std::chrono::microseconds(100));
  }
  const std::string path = "prof_test_attribution.json";
  ASSERT_TRUE(dump_attribution(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"attribution\":"), std::string::npos);
  EXPECT_NE(content.str().find("\"store_merge\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfidsim::obs::prof
