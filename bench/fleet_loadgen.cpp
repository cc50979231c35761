// fleet_loadgen — five-million-event load generator for the fleet store
// (BENCH_FLEET.json).
//
// Drives >= 5M synthetic read events from four facilities through
// fleet::TrackingStore under increasing thread counts, with obs on and
// off, and with the batch arrival order reversed — and requires every
// configuration to produce the bit-identical store digest and query
// answers before any timing is trusted (the store's determinism contract,
// enforced the same way perf_baseline enforces sweep_matches_serial).
// The record lands in the same rfidsim-bench-v1 trajectory: bench_regress
// gates BENCH_FLEET.json -> current run in CI.
//
// On top of raw ingest, this binary times and *verifies* the PR-6
// durability path end to end:
//
//   - wire codec throughput: encode/decode every batch of one facility
//     as checksummed binary frames, reporting bytes per event;
//   - checkpoint/restore: full snapshot, incremental snapshot (unchanged
//     shards elided), and a restore whose digest must match;
//   - kill-and-recover matrix: ingest half, checkpoint, "crash", restore
//     under {1,2,4} threads x obs {on,off}, finish ingesting — every
//     cell must land on the uninterrupted run's digest bit for bit;
//   - BER-sweep ablation (the paper's R_C-ablation style, applied to the
//     uplink): wire bit-error rates {0, 1e-6, 1e-5, 1e-4}, batch size 32
//     — zero corrupt frames may reach the store undetected, and NAK
//     retransmission must recover >= 99% of affected batches.
//
// For the CI crash-recovery smoke the binary also runs as its own fault
// injector: `--crash-after-half <path>` ingests the first half of the
// stream, writes a full checkpoint, and dies via _Exit (no destructors —
// a real crash, except the checkpoint already hit the disk);
// `--restore-from <path>` rebuilds from those bytes, ingests the second
// half, and exits nonzero unless the digest matches an uninterrupted run.
//
// The event stream is generated directly (a pure function of --seed)
// rather than through the portal simulator: the store is the unit under
// test here, and this machine should spend its wall clock on ingest, not
// on RF physics. Batches carry realistic transport damage — ~2% are
// re-delivered whole (duplicates) and ~10% arrive after their pass window
// (late timeline repairs) — so the timed path is the defended path.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/table.hpp"
#include "fault/wire_corruptor.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/query.hpp"
#include "fleet/store.hpp"
#include "system/uploader.hpp"
#include "track/manifest.hpp"
#include "track/registry.hpp"
#include "wire/batch_codec.hpp"
#include "wire/wire.hpp"

using namespace rfidsim;
using bench::Entry;
using bench::wall_seconds;

namespace {

/// High-water resident set of this process, in bytes (0 if unknown).
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // Already bytes.
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ULL;  // KiB.
#endif
#else
  return 0;
#endif
}

// Workload shape: 4 facilities x 25 passes x 50 batches x 1000 events
// = 5,000,000 events over 40,000 tags (~125 sightings per timeline),
// plus ~2% whole-batch re-deliveries.
constexpr std::uint32_t kFacilities = 4;
constexpr std::size_t kPasses = 25;
constexpr std::size_t kBatchesPerPass = 50;
constexpr std::size_t kEventsPerBatch = 1000;
constexpr std::uint64_t kTagCount = 40000;
constexpr double kPassWindowS = 10.0;

/// Generates the full batch sequence — a pure function of `seed`. Each
/// (facility, pass) gets a forked stream, so the content is independent
/// of generation order.
std::vector<fleet::FacilityBatch> generate_batches(std::uint64_t seed) {
  std::vector<fleet::FacilityBatch> batches;
  batches.reserve(kFacilities * kPasses * kBatchesPerPass + 256);
  const Rng root(seed);
  for (std::uint32_t facility = 0; facility < kFacilities; ++facility) {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      Rng rng = root.fork(facility * 1000 + pass);
      const double begin_s = static_cast<double>(pass) * kPassWindowS;
      for (std::size_t b = 0; b < kBatchesPerPass; ++b) {
        fleet::FacilityBatch batch;
        batch.facility = facility;
        // Deterministic provenance id, as an uploader would mint it. The
        // whole-batch re-deliveries below copy it — a re-delivery is the
        // *same* batch, so its provenance trail stays one chain.
        batch.batch_id = obs::provenance_batch_id(
            facility, pass * kBatchesPerPass + b);
        batch.events.reserve(kEventsPerBatch);
        for (std::size_t e = 0; e < kEventsPerBatch; ++e) {
          sys::ReadEvent ev;
          ev.tag = scene::TagId{
              static_cast<std::uint64_t>(rng.uniform_int(1, kTagCount))};
          ev.time_s = begin_s + rng.uniform(0.0, kPassWindowS);
          ev.reader_index = static_cast<std::size_t>(rng.uniform_int(0, 2));
          ev.antenna_index = static_cast<std::size_t>(rng.uniform_int(0, 3));
          batch.events.push_back(ev);
        }
        batch.sent_time_s = begin_s + kPassWindowS;
        // ~10% of batches arrive after the window (retry backoff): their
        // sightings repair timelines that later passes already extended.
        batch.arrival_time_s = rng.bernoulli(0.1)
                                   ? batch.sent_time_s + 2.0 * kPassWindowS
                                   : batch.sent_time_s;
        batches.push_back(std::move(batch));
      }
    }
  }
  // ~2% of batches are re-delivered whole at the end of the stream; the
  // store must absorb them as pure duplicates.
  const std::size_t original = batches.size();
  for (std::size_t b = 0; b < original; b += 50) batches.push_back(batches[b]);
  return batches;
}

/// Digest over a deterministic sample of query answers: locate over every
/// 37th tag at three probe times, plus one manifest reconciliation. Must
/// be bit-identical across every store configuration.
std::uint64_t query_digest(const fleet::TrackingStore& store,
                           const track::ObjectRegistry& registry) {
  fleet::QueryService query(store, registry);
  fleet::FacilityModel model;
  model.reader_read_rates = {0.8, 0.7, 0.6};
  model.reader_live = {true, true, true};
  for (std::uint32_t f = 0; f < kFacilities; ++f) query.set_facility_model(f, model);

  std::uint64_t hash = kFnvBasis;
  const double horizon = static_cast<double>(kPasses) * kPassWindowS;
  for (std::uint64_t tag = 1; tag <= kTagCount; tag += 37) {
    for (const double t : {horizon * 0.25, horizon * 0.5, horizon}) {
      const fleet::LocateResult r = query.locate(scene::TagId{tag}, t);
      hash = fnv1a(hash, r.found ? 1 : 0);
      hash = fnv1a(hash, r.facility);
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.time_s));
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.confidence));
    }
  }
  track::Manifest manifest;
  for (std::uint64_t i = 0; i < 500; ++i) {
    manifest.expected.insert(registry.objects()[i]);
  }
  const fleet::MissingReport report =
      query.missing(manifest, 0, horizon - kPassWindowS, horizon);
  hash = fnv1a(hash, report.present.size());
  hash = fnv1a(hash, report.missed_reads.size());
  hash = fnv1a(hash, report.absent.size());
  hash = fnv1a(hash, report.unexpected.size());
  for (const fleet::Reconciliation& item : report.items) {
    hash = fnv1a(hash, item.object.value);
    hash = fnv1a(hash, static_cast<std::uint64_t>(item.verdict));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(item.posterior_present));
  }
  return hash;
}

std::string human_bytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", static_cast<double>(bytes) / (1u << 20));
  } else {
    std::snprintf(buf, sizeof buf, "%.1f KiB", static_cast<double>(bytes) / (1u << 10));
  }
  return buf;
}

bool write_file(const char* path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool read_file(const char* path, std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return false;
  }
  out.resize(static_cast<std::size_t>(size));
  const bool ok = out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

/// Uninterrupted-reference digest: serial ingest of the whole stream.
std::uint64_t reference_digest(const std::vector<fleet::FacilityBatch>& batches) {
  fleet::TrackingStore store;
  store.ingest(batches);
  return store.digest();
}

/// CI crash smoke, part 1: ingest the first half, checkpoint it durably,
/// then die like a process that never got to shut down.
[[noreturn]] void crash_after_half(const std::vector<fleet::FacilityBatch>& batches,
                                   const char* path) {
  const std::size_t split = batches.size() / 2;
  fleet::TrackingStore store;
  for (std::size_t b = 0; b < split; ++b) store.ingest(batches[b]);
  fleet::Checkpointer checkpointer;
  const std::vector<std::uint8_t> snapshot = checkpointer.full(store);
  if (!write_file(path, snapshot)) {
    std::fprintf(stderr, "fleet_loadgen: cannot write checkpoint to %s\n", path);
    std::_Exit(3);
  }
  // The flight recorder is the crash's black box: dump the provenance tail
  // (its newest record is the checkpoint's own) before dying. _Exit runs no
  // handlers, so this explicit dump is the only one the "crash" leaves.
  const std::string flight_path = std::string(path) + ".flight.jsonl";
  if (obs::dump_flight_recorder(flight_path)) {
    std::printf("crash-after-half: flight-recorder dump -> %s (%llu records)\n",
                flight_path.c_str(),
                static_cast<unsigned long long>(obs::provenance_log().recorded()));
  } else {
    std::fprintf(stderr, "fleet_loadgen: cannot write flight dump to %s\n",
                 flight_path.c_str());
    std::_Exit(3);
  }
  std::printf("crash-after-half: ingested %zu/%zu batches, checkpoint %s (%zu bytes, "
              "digest %016llx) -> simulated crash (_Exit)\n",
              split, batches.size(), path, snapshot.size(),
              static_cast<unsigned long long>(store.digest()));
  std::fflush(stdout);
  std::_Exit(0);  // No destructors, no flushes beyond the checkpoint: a crash.
}

/// CI crash smoke, part 2: restore from the checkpoint a "crashed" run
/// left behind, ingest the second half, and demand the uninterrupted
/// run's digest bit for bit.
int restore_from(const std::vector<fleet::FacilityBatch>& batches, const char* path) {
  std::vector<std::uint8_t> snapshot;
  if (!read_file(path, snapshot)) {
    std::fprintf(stderr, "fleet_loadgen: cannot read checkpoint from %s\n", path);
    return 3;
  }
  const std::size_t split = batches.size() / 2;
  fleet::TrackingStore store = [&] {
    try {
      return fleet::restore_checkpoint(snapshot);
    } catch (const fleet::CheckpointError& e) {
      std::fprintf(stderr, "fleet_loadgen: restore failed (%s): %s\n",
                   fleet::checkpoint_error_name(e.kind()), e.what());
      std::_Exit(4);
    }
  }();
  for (std::size_t b = split; b < batches.size(); ++b) store.ingest(batches[b]);
  const std::uint64_t got = store.digest();
  const std::uint64_t want = reference_digest(batches);
  std::printf("restore-from: %s (%zu bytes) + second half -> digest %016llx, "
              "uninterrupted %016llx: %s\n",
              path, snapshot.size(), static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want),
              got == want ? "MATCH" : "MISMATCH");
  return got == want ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Session session(argc, argv, {"--crash-after-half", "--restore-from"});
  // A real crash (SIGSEGV/SIGABRT/...) dumps the provenance tail here before
  // the default handler takes over — the bench run's black box.
  obs::install_crash_handler("fleet_loadgen.crash.flight.jsonl");
  const char* out_path = session.positional().empty()
                             ? "BENCH_FLEET.json"
                             : session.positional().back().c_str();
  const char* crash_path = session.flag("--crash-after-half");
  const char* restore_path = session.flag("--restore-from");

  bench::banner("fleet_loadgen - sharded store ingest + wire/checkpoint durability",
                "Drives 5.1M events from 4 facilities through the fleet store\n"
                "at several thread counts, times the wire codec and the\n"
                "checkpoint/restore path, and kill-tests recovery; every\n"
                "configuration must land on bit-identical digests.");

  const std::vector<fleet::FacilityBatch> batches = generate_batches(session.seed());
  std::size_t total_events = 0;
  for (const auto& b : batches) total_events += b.events.size();
  std::printf("generated %zu batches, %zu events (seed %llu)\n\n", batches.size(),
              total_events, static_cast<unsigned long long>(session.seed()));

  // CI fault-injection modes: do only the crash half or the recovery half.
  if (crash_path != nullptr) crash_after_half(batches, crash_path);
  if (restore_path != nullptr) return restore_from(batches, restore_path);

  track::ObjectRegistry registry;
  for (std::uint64_t i = 1; i <= kTagCount; ++i) {
    const track::ObjectId object = registry.add_object("obj-" + std::to_string(i));
    registry.bind_tag(scene::TagId{i}, object);
  }

  std::vector<Entry> entries;
  bool have_serial = false;
  std::uint64_t serial_digest = 0;
  std::uint64_t serial_query = 0;
  bool fleet_digest_matches = true;
  double serial_s = 0.0;

  auto run_ingest = [&](const std::string& name, std::size_t threads,
                        const std::string& note,
                        const std::vector<fleet::FacilityBatch>& input) {
    fleet::StoreConfig config;
    config.threads = threads;
    fleet::TrackingStore store(config);
    const double wall = wall_seconds([&] { store.ingest(input); });
    const std::uint64_t digest = store.digest();
    const std::uint64_t qdigest = query_digest(store, registry);
    if (!have_serial) {
      have_serial = true;
      serial_digest = digest;
      serial_query = qdigest;
      serial_s = wall;
      entries.push_back({name, wall, total_events, "", 0.0, note});
    } else {
      fleet_digest_matches =
          fleet_digest_matches && digest == serial_digest && qdigest == serial_query;
      entries.push_back({name, wall, total_events, "fleet_ingest_serial",
                         serial_s / wall, note});
    }
    std::printf("%-24s %.3fs  digest %016llx  queries %016llx\n", name.c_str(), wall,
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(qdigest));
    return store.stats();
  };

  const fleet::StoreStats stats =
      run_ingest("fleet_ingest_serial", 1,
                 "5.1M events, 1 thread, arena timelines + counting-sort routing "
                 "(PR 7; 1.69s -> 0.94s vs PR-6 per-EPC node maps on the 1-core "
                 "reference box)",
                 batches);
  run_ingest("fleet_ingest_2t", 2, "same batches, 2 threads", batches);
  run_ingest("fleet_ingest_4t", 4, "same batches, 4 threads", batches);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw > 4) {
    run_ingest("fleet_ingest_" + std::to_string(hw) + "t", hw,
               "same batches, hardware concurrency", batches);
  }
  if (session.threads() > 0 && session.threads() != 1 && session.threads() != 2 &&
      session.threads() != 4 && session.threads() != hw) {
    run_ingest("fleet_ingest_" + std::to_string(session.threads()) + "t",
               session.threads(), "same batches, --threads override", batches);
  }

  // Arrival-order invariance: the identical multiset of batches, reversed.
  {
    std::vector<fleet::FacilityBatch> reversed(batches.rbegin(), batches.rend());
    run_ingest("fleet_ingest_reversed", 1, "same batches, arrival order reversed",
               reversed);
  }

  // Obs differential: hooks off must change nothing but the wall clock.
  {
    const bool saved = obs::enabled();
    obs::set_enabled(false);
    run_ingest("fleet_ingest_obs_off", 1, "1 thread, observability disabled",
               batches);
    obs::set_enabled(saved);
  }

  // --- Wire codec throughput: facility 0's whole stream, framed. ---
  {
    std::vector<std::vector<std::uint8_t>> frames;
    std::size_t wire_events = 0;
    const double encode_s = wall_seconds([&] {
      for (const fleet::FacilityBatch& b : batches) {
        if (b.facility != 0) continue;
        wire_events += b.events.size();
        frames.push_back(wire::encode_event_batch_frame(b));
      }
    });
    std::size_t framed_bytes = 0;
    for (const auto& f : frames) framed_bytes += f.size();
    std::size_t decoded_events = 0;
    bool decode_clean = true;
    const double decode_s = wall_seconds([&] {
      for (const auto& f : frames) {
        const wire::DecodeResult res = wire::next_frame(f, 0);
        if (!res.ok) {
          decode_clean = false;
          continue;
        }
        const auto decoded = wire::decode_event_batch(res.frame);
        if (!decoded.has_value()) {
          decode_clean = false;
          continue;
        }
        decoded_events += decoded->events.size();
      }
    });
    fleet_digest_matches = fleet_digest_matches && decode_clean &&
                           decoded_events == wire_events;
    const double bytes_per_event =
        static_cast<double>(framed_bytes) / static_cast<double>(wire_events);
    char note[96];
    std::snprintf(note, sizeof note, "%.1f bytes/event framed (%zu frames)",
                  bytes_per_event, frames.size());
    entries.push_back({"fleet_wire_encode", encode_s, wire_events, "", 0.0, note});
    entries.push_back({"fleet_wire_decode", decode_s, wire_events, "", 0.0,
                       "strict decode + CRC of the same frames"});
    std::printf("%-24s %.3fs  %s\n", "fleet_wire_encode", encode_s, note);
    std::printf("%-24s %.3fs  %zu events recovered %s\n", "fleet_wire_decode",
                decode_s, decoded_events, decode_clean ? "cleanly" : "WITH ERRORS");
  }

  // --- Checkpoint / restore timing on the fully-loaded store. ---
  {
    fleet::TrackingStore store;
    const std::size_t split = batches.size() / 2;
    for (std::size_t b = 0; b < split; ++b) store.ingest(batches[b]);
    fleet::Checkpointer checkpointer;
    (void)checkpointer.full(store);  // Baseline for the incremental below.
    for (std::size_t b = split; b < batches.size(); ++b) store.ingest(batches[b]);

    std::vector<std::uint8_t> incremental_snap;
    const double inc_s = wall_seconds(
        [&] { incremental_snap = checkpointer.incremental(store); });
    const fleet::CheckpointStats inc_stats = checkpointer.last_stats();

    std::vector<std::uint8_t> full_snap;
    const double full_s = wall_seconds([&] { full_snap = checkpointer.full(store); });
    const fleet::CheckpointStats full_stats = checkpointer.last_stats();

    fleet::TrackingStore restored({64, 1});
    double restore_s = 0.0;
    bool restore_ok = true;
    try {
      restore_s = wall_seconds(
          [&] { restored = fleet::restore_checkpoint(full_snap); });
    } catch (const fleet::CheckpointError& e) {
      restore_ok = false;
      std::fprintf(stderr, "restore_checkpoint failed (%s): %s\n",
                   fleet::checkpoint_error_name(e.kind()), e.what());
    }
    restore_ok = restore_ok && restored.digest() == store.digest() &&
                 store.digest() == serial_digest;
    fleet_digest_matches = fleet_digest_matches && restore_ok;

    char full_note[96], inc_note[96];
    std::snprintf(full_note, sizeof full_note, "%s, %zu shards",
                  human_bytes(full_stats.bytes).c_str(), full_stats.shards_written);
    std::snprintf(inc_note, sizeof inc_note, "%s, %zu shards written, %zu skipped",
                  human_bytes(inc_stats.bytes).c_str(), inc_stats.shards_written,
                  inc_stats.shards_skipped);
    entries.push_back({"fleet_checkpoint_full", full_s,
                       static_cast<std::size_t>(stats.accepted), "", 0.0, full_note});
    entries.push_back({"fleet_checkpoint_incremental", inc_s,
                       static_cast<std::size_t>(stats.accepted), "", 0.0, inc_note});
    entries.push_back({"fleet_restore", restore_s,
                       static_cast<std::size_t>(stats.accepted), "", 0.0,
                       restore_ok ? "digest bit-identical" : "DIGEST MISMATCH"});
    std::printf("%-24s %.3fs  %s\n", "fleet_checkpoint_full", full_s, full_note);
    std::printf("%-24s %.3fs  %s\n", "fleet_checkpoint_incremental", inc_s, inc_note);
    std::printf("%-24s %.3fs  %s\n", "fleet_restore", restore_s,
                restore_ok ? "digest bit-identical" : "DIGEST MISMATCH (BUG)");
  }

  // --- Kill-and-recover matrix: crash mid-ingest under every thread and
  // obs configuration; recovery must land on the uninterrupted digest. ---
  bool crash_recovery_matches = true;
  std::uint64_t matrix_checkpoint_sequence = 0;
  {
    const std::size_t split = batches.size() / 2;
    fleet::TrackingStore first_half;
    for (std::size_t b = 0; b < split; ++b) first_half.ingest(batches[b]);
    fleet::Checkpointer checkpointer;
    const std::vector<std::uint8_t> snapshot = checkpointer.full(first_half);
    matrix_checkpoint_sequence = checkpointer.last_stats().sequence;

    TextTable recovery({"threads", "obs", "restore + finish (s)", "digest"});
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const bool obs_on : {true, false}) {
        const bool saved = obs::enabled();
        obs::set_enabled(obs_on);
        double wall = 0.0;
        bool ok = true;
        try {
          fleet::TrackingStore store({64, 1});
          wall = wall_seconds([&] {
            store = fleet::restore_checkpoint(snapshot, threads);
            std::vector<fleet::FacilityBatch> tail(batches.begin() + split,
                                                   batches.end());
            store.ingest(tail);
          });
          ok = store.digest() == serial_digest;
        } catch (const fleet::CheckpointError& e) {
          ok = false;
          std::fprintf(stderr, "kill-and-recover (%zu threads): %s\n", threads,
                       e.what());
        }
        obs::set_enabled(saved);
        crash_recovery_matches = crash_recovery_matches && ok;
        recovery.add_row({std::to_string(threads), obs_on ? "on" : "off",
                          std::to_string(wall), ok ? "match" : "MISMATCH"});
      }
    }
    std::printf("\nkill-and-recover: checkpoint at %zu/%zu batches (%zu bytes), "
                "then restore + finish under each configuration:\n",
                split, batches.size(), snapshot.size());
    bench::print_table(recovery);
    std::printf("crash recovery digests %s\n\n",
                crash_recovery_matches ? "IDENTICAL to the uninterrupted run"
                                       : "MISMATCH (durability contract broken, BUG)");
  }

  // --- Flight recorder: dump the black box after the kill-and-recover
  // matrix and check its provenance tail names the matrix's checkpoint —
  // i.e. a post-mortem reader could tell which snapshot the crash left. ---
  bool flight_recorder_ok = true;
  if (obs::hooks_enabled()) {
    const char* flight_path = "fleet_loadgen.flight.jsonl";
    flight_recorder_ok = obs::dump_flight_recorder(flight_path);
    const obs::ProvenanceRecord* last_checkpoint = nullptr;
    const std::vector<obs::ProvenanceRecord> trail =
        obs::provenance_log().snapshot();
    for (const obs::ProvenanceRecord& rec : trail) {
      if (rec.hop == obs::BatchHop::kCheckpointed) last_checkpoint = &rec;
    }
    flight_recorder_ok = flight_recorder_ok && last_checkpoint != nullptr &&
                         last_checkpoint->value == matrix_checkpoint_sequence;
    std::printf("flight recorder: dump %s (%llu records, %llu dropped); last "
                "checkpoint hop seq %lld vs matrix seq %llu: %s\n\n",
                flight_path,
                static_cast<unsigned long long>(obs::provenance_log().recorded()),
                static_cast<unsigned long long>(obs::provenance_log().dropped()),
                last_checkpoint == nullptr
                    ? -1LL
                    : static_cast<long long>(last_checkpoint->value),
                static_cast<unsigned long long>(matrix_checkpoint_sequence),
                flight_recorder_ok ? "MATCH" : "MISMATCH (BUG)");
  } else {
    std::printf("flight recorder: obs hooks disabled, dump check skipped\n\n");
  }

  // --- BER-sweep ablation: corruption detection and NAK recovery vs wire
  // bit-error rate, in the paper's R_C-ablation style. ---
  std::uint64_t wire_undetected = 0;
  double wire_min_recovered = 1.0;
  {
    sys::EventLog wire_log;
    for (std::size_t b = 0; b < 200 && b < batches.size(); ++b) {
      wire_log.insert(wire_log.end(), batches[b].events.begin(),
                      batches[b].events.end());
    }
    TextTable ablation({"bit error rate", "frames", "corrupt", "recovered",
                        "quarantined", "recovered frac", "undetected"});
    const double rates[] = {0.0, 1e-6, 1e-5, 1e-4};
    for (const double ber : rates) {
      sys::UploaderConfig config;
      config.batch_size = 32;
      fault::WireCorruptorConfig corruption;
      corruption.bit_error_rate = ber;
      fault::WireCorruptor corruptor(corruption);
      sys::EventUploader uploader(config);
      Rng rng(session.seed() ^ 0xBE5EED);
      double wall = 0.0;
      wall = wall_seconds([&] {
        (void)uploader.upload_wire(wire_log, 0, rng, ber > 0.0 ? &corruptor : nullptr);
      });
      const sys::WireUploadStats& ws = uploader.wire_stats();
      const std::uint64_t affected = ws.batches_recovered + ws.batches_quarantined;
      const double recovered_frac =
          affected == 0 ? 1.0
                        : static_cast<double>(ws.batches_recovered) /
                              static_cast<double>(affected);
      wire_undetected += ws.undetected_corruptions;
      wire_min_recovered = std::min(wire_min_recovered, recovered_frac);
      char rate_label[32], frac_label[32];
      std::snprintf(rate_label, sizeof rate_label, "%.0e", ber);
      std::snprintf(frac_label, sizeof frac_label, "%.4f", recovered_frac);
      ablation.add_row({rate_label, std::to_string(ws.frames_sent),
                        std::to_string(ws.corrupt_frames),
                        std::to_string(ws.batches_recovered),
                        std::to_string(ws.batches_quarantined), frac_label,
                        std::to_string(ws.undetected_corruptions)});
      if (ber == 1e-4) {
        char note[96];
        std::snprintf(note, sizeof note,
                      "BER 1e-4: %llu NAKs, %.4f of affected batches recovered",
                      static_cast<unsigned long long>(ws.nak_retransmits),
                      recovered_frac);
        entries.push_back({"fleet_wire_ber_1e4", wall, wire_log.size(), "", 0.0,
                           note});
      }
    }
    std::printf("wire BER ablation (%zu events, batch size 32, NAK budget %zu):\n",
                wire_log.size(), sys::UploaderConfig{}.max_nak_retransmits);
    bench::print_table(ablation);
    std::printf("undetected corruptions: %llu (must be 0); worst recovered "
                "fraction: %.4f (must be >= 0.99)\n\n",
                static_cast<unsigned long long>(wire_undetected),
                wire_min_recovered);
  }
  const bool wire_gates_pass = wire_undetected == 0 && wire_min_recovered >= 0.99;

  // Query throughput on the serially-built store.
  {
    fleet::TrackingStore store;
    store.ingest(batches);
    fleet::QueryService query(store, registry);
    fleet::FacilityModel model;
    model.reader_read_rates = {0.8, 0.7, 0.6};
    model.reader_live = {true, true, true};
    for (std::uint32_t f = 0; f < kFacilities; ++f) query.set_facility_model(f, model);

    constexpr std::size_t kLocates = 200000;
    double sink = 0.0;
    const double horizon = static_cast<double>(kPasses) * kPassWindowS;
    const double locate_s = wall_seconds([&] {
      for (std::size_t i = 0; i < kLocates; ++i) {
        const std::uint64_t tag = 1 + (i * 7919) % kTagCount;
        sink += query.locate(scene::TagId{tag}, horizon).time_s;
      }
    });
    entries.push_back({"fleet_query_locate", locate_s, kLocates, "", 0.0,
                       "point locate over 40k timelines"});

    track::Manifest manifest;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      manifest.expected.insert(registry.objects()[i]);
    }
    constexpr std::size_t kRecons = 20;
    std::size_t verdicts = 0;
    const double missing_s = wall_seconds([&] {
      for (std::size_t i = 0; i < kRecons; ++i) {
        const fleet::MissingReport report = query.missing(
            manifest, static_cast<fleet::FacilityId>(i % kFacilities),
            horizon - kPassWindowS, horizon);
        verdicts += report.items.size();
      }
    });
    entries.push_back({"fleet_query_missing", missing_s, verdicts, "", 0.0,
                       "2000-object manifest reconciliation x20"});
    if (sink == 42.0) std::puts("");
  }

  // --- End-to-end visibility latency: the earliest-event -> watermark-
  // visible interval per batch, replayed from the generated stream (a pure
  // function of the seed, so the quantiles are deterministic and gate-able
  // by bench_regress). A batch becomes queryable at the later of its
  // backend arrival and its pass-window close; latency is measured from
  // the batch's earliest event time rather than its send time — an on-time
  // batch sends exactly at window close, which would collapse sent ->
  // visible to zero and fall outside the trajectory's wall_s > 0 contract.
  {
    obs::Histogram latency(obs::HistogramSpec{1e-3, 4.0, 16});
    std::size_t late = 0;
    for (const fleet::FacilityBatch& b : batches) {
      const double window_end_s = b.sent_time_s;  // Sent at window close.
      const double visible_s = std::max(window_end_s, b.arrival_time_s);
      double earliest_s = visible_s;
      for (const sys::ReadEvent& ev : b.events) {
        earliest_s = std::min(earliest_s, ev.time_s);
      }
      latency.observe(visible_s - earliest_s);
      if (b.arrival_time_s > b.sent_time_s) ++late;
      if (obs::hooks_enabled() && b.batch_id != 0) {
        obs::provenance_log().record({b.batch_id, obs::BatchHop::kVisible,
                                      b.facility, b.events.size(), visible_s});
      }
    }
    const double p50 = latency.quantile(0.50);
    const double p95 = latency.quantile(0.95);
    const double p99 = latency.quantile(0.99);
    char note[96];
    std::snprintf(note, sizeof note,
                  "event -> watermark-visible, %zu batches (%zu late)",
                  batches.size(), late);
    entries.push_back({"fleet_latency_p50", p50, batches.size(), "", 0.0, note});
    entries.push_back({"fleet_latency_p95", p95, batches.size(), "", 0.0,
                       "95th percentile of the same distribution"});
    entries.push_back({"fleet_latency_p99", p99, batches.size(), "", 0.0,
                       "99th percentile of the same distribution"});
    std::printf("visibility latency (%zu batches, %zu late): p50 %.3fs  "
                "p95 %.3fs  p99 %.3fs\n\n",
                batches.size(), late, p50, p95, p99);
  }

  std::printf("store: %llu accepted, %llu duplicates, %llu repairs, "
              "%llu late batches; digests %s\n\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.duplicates),
              static_cast<unsigned long long>(stats.repairs),
              static_cast<unsigned long long>(stats.late_batches),
              fleet_digest_matches ? "IDENTICAL across all configurations"
                                   : "MISMATCH (determinism contract broken, BUG)");

  TextTable t({"benchmark", "wall (s)", "cells", "vs baseline"});
  for (const Entry& e : entries) {
    t.add_row({e.name, std::to_string(e.wall_s), std::to_string(e.cells),
               e.baseline.empty() ? "-" : (std::to_string(e.speedup) + "x " + e.baseline)});
  }
  bench::print_table(t);
  std::printf("peak RSS: %s\n", human_bytes(peak_rss_bytes()).c_str());

  bench::write_json(
      out_path, 9,
      {{"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
       {"peak_rss_bytes", std::to_string(peak_rss_bytes())},
       {"fleet_digest_matches", bench::json_bool(fleet_digest_matches)},
       {"crash_recovery_matches", bench::json_bool(crash_recovery_matches)},
       {"flight_recorder_ok", bench::json_bool(flight_recorder_ok)},
       {"wire_undetected_corruptions", std::to_string(wire_undetected)},
       {"wire_min_recovered_fraction", std::to_string(wire_min_recovered)}},
      entries);
  std::printf("\nwrote %s\n", out_path);
  return fleet_digest_matches && crash_recovery_matches && flight_recorder_ok &&
                 wire_gates_pass
             ? 0
             : 1;
}
