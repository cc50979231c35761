// The pipeline workloads.
//
// Each workload drives the public layer calls in pipeline order —
// reliability::run_repeated_parallel (sweep/scene/gen2/system) ->
// fleet::FacilityFeed::process_pass (uploader/wire/track/monitor) ->
// fleet::TrackingStore::ingest -> QueryService::set_facility_model ->
// QueryService / Checkpointer — the sequence FleetService::ingest_pass
// bundles, unbundled so that the benchmark can time each layer from
// outside.
//
// Work is cut into epochs. An epoch starts from an empty store, runs a
// fixed, seeded
// sequence of passes and queries, and ends with the outputs the reference
// check compares: the store digest, a digest of every query answer, and
// each facility's mean tracking reliability. Every epoch of a run does the
// same work, so every epoch must produce the same outputs, and those must
// equal the serial reference (1 thread, obs off) bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "synth.hpp"
#include "trace.hpp"
#include "wire/batch_codec.hpp"

namespace pipebench {

enum class WorkloadKind { kPortalFleet, kBackhaulIngest };

const char* workload_name(WorkloadKind kind);
std::optional<WorkloadKind> parse_workload(std::string_view name);

/// Work sizes. full() is what the benchmark runs; small() keeps the same
/// shape at test-suite cost.
struct Scale {
  // portal_fleet: blocks per facility per epoch, passes per simulate call.
  std::uint32_t portal_blocks = 16;
  std::uint32_t portal_block_passes = 4;
  std::uint32_t portal_audit_every = 16;  ///< Passes between checkpoint + inventory.
  // backhaul_ingest: passes per facility per epoch.
  std::uint32_t backhaul_passes = 75;
  std::size_t backhaul_audit_locates = 2000;
  std::size_t manifest_objects = 2000;
  SynthShape shape;

  static Scale full() { return {}; }
  static Scale small();
};

/// How one epoch executes. Only wall-clock behaviour depends on this,
/// never an output.
struct Exec {
  std::size_t sim_threads = 2;   ///< run_repeated_parallel workers.
  std::size_t store_threads = 0; ///< TrackingStore ingest threads; 0 = the workload's.
  Tracer* tracer = nullptr;      ///< Span recording (traced run only).
  /// When set, the delivered batches of every 8th pass are moved here,
  /// once the store has ingested them, for the wire codec probe.
  std::vector<rfidsim::wire::EventBatch>* wire_sample = nullptr;
};

/// What the reference check compares.
struct Outputs {
  std::uint64_t store_digest = 0;
  std::uint64_t query_digest = 0;
  std::vector<double> facility_rc;  ///< Mean tracking reliability per facility.

  friend bool operator==(const Outputs&, const Outputs&) = default;
};

/// Per-layer tallies of one epoch, taken from the layers' public results.
struct Tallies {
  std::uint64_t sim_passes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_delivered = 0;
  std::uint64_t nak_retransmits = 0;
  std::uint64_t lost_batches = 0;
  std::uint64_t quarantined_batches = 0;
  std::uint64_t late_batches = 0;
  std::uint64_t quarantined_records = 0;
  std::uint64_t store_calls = 0;
  std::uint64_t store_events = 0;
  std::uint64_t store_accepted = 0;
  std::uint64_t store_duplicates = 0;
  std::uint64_t store_repairs = 0;
  std::uint64_t sightings = 0;
  double heap_bytes = 0.0;  ///< Heap growth of the epoch, less the wire sample.
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t shards_written = 0;
  std::uint64_t shards_skipped = 0;
  std::uint64_t locates = 0;
  double digest_s = 0.0;    ///< The closing TrackingStore::digest() call.
};

struct EpochResult {
  Outputs outputs;
  std::size_t passes = 0;
  std::size_t queries = 0;
  std::size_t failed = 0;  ///< Passes or queries that threw or failed their check.
  std::uint64_t events_offered = 0;  ///< Events handed to TrackingStore::ingest.
  double wall_s = 0.0;   ///< The timed pipeline phase: the throughput denominator.
  double epoch_s = 0.0;  ///< wall_s plus the closing audit, if any: the traced wall.
  std::vector<double> pass_latency_s;
  std::vector<double> locate_s;
  std::vector<double> missing_s;
  std::vector<double> inventory_s;
  std::vector<double> checkpoint_s;
  Tallies tallies;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// TrackingStore ingest threads this workload runs with.
  virtual std::size_t store_threads() const = 0;
  virtual EpochResult run_epoch(const Exec& exec) const = 0;
};

/// Operation accounting of a run. An operation is a pass or a query; it
/// fails when it throws or fails its own check, and every operation of an
/// epoch whose outputs differ from the reference counts as failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
OpCount count_operations(const std::vector<EpochResult>& epochs, const Outputs& reference);

/// A traced epoch whose layer spans [span_begin, span_end) cover less than
/// kMinCoverage of its wall fails every one of its operations: its
/// per-layer shares would not add up to the end-to-end time.
void check_coverage(EpochResult& epoch, const Tracer& tracer, std::size_t span_begin,
                    std::size_t span_end);

/// portal_fleet's glue: moves a simulated pass onto its own window of the
/// shared timeline. Rounding is monotone, so an event inside the simulated
/// window stays inside the shifted one.
void time_shift(sys::EventLog& log, double shift_s);

/// The last inventory round of a simulated pass may finish after
/// PortalConfig::end_time_s (by ~20 ms on the cart scenarios), so the
/// back end's pass window runs this far past the nominal end.
inline constexpr double kPortalWindowSlackS = 0.5;

/// Set-up: builds scenarios, generates inputs and preloads the store.
std::unique_ptr<Workload> make_workload(WorkloadKind kind, std::uint64_t seed,
                                        const Scale& scale);

}  // namespace pipebench
