#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fleet/checkpoint.hpp"
#include "fleet/feed.hpp"
#include "fleet/query.hpp"
#include "fleet/store.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "track/manifest.hpp"
#include "track/registry.hpp"

namespace pipebench {

namespace fleet = rfidsim::fleet;
namespace reliability = rfidsim::reliability;
namespace track = rfidsim::track;
using rfidsim::Rng;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint32_t kFacilities = 4;
constexpr std::size_t kShards = 64;
/// Spacing of consecutive portal passes on the shared timeline; longer
/// than a 5 s cart pass plus its window slack, so windows never overlap.
constexpr double kPortalSpacingS = 8.0;
/// Held-back passes arrive this many windows late (backhaul_ingest).
constexpr std::uint32_t kLateWindows = 3;
constexpr double kZipfExponent = 1.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bytes the allocator currently holds for the process (0 when unknown).
double heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
#else
  return 0.0;
#endif
}

/// FNV-1a over every answer the epoch's queries returned.
class AnswerDigest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffULL;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Synthetic fleets bind tag i to its own object, as fleet_loadgen does.
track::ObjectRegistry synthetic_registry(std::uint64_t tags) {
  track::ObjectRegistry registry;
  for (std::uint64_t i = 1; i <= tags; ++i) {
    const track::ObjectId object = registry.add_object("obj-" + std::to_string(i));
    registry.bind_tag(rfidsim::scene::TagId{i}, object);
  }
  return registry;
}

/// `count` distinct objects spread over the registry.
track::Manifest sampled_manifest(const track::ObjectRegistry& registry, std::size_t count,
                                 std::uint64_t seed) {
  const std::vector<track::ObjectId>& objects = registry.objects();
  track::Manifest manifest;
  const std::size_t n = objects.size();
  const std::size_t offset = static_cast<std::size_t>(seed % n);
  for (std::size_t j = 0; manifest.expected.size() < std::min(count, n); ++j) {
    manifest.expected.insert(objects[(offset + j * 7919) % n]);
  }
  return manifest;
}

Rng feed_rng(std::uint64_t seed, std::uint32_t facility, std::uint64_t pass, bool refeed) {
  return Rng(seed ^ 0xFEEDULL).fork(facility).fork(pass * 2 + (refeed ? 1 : 0));
}

/// The per-epoch pipeline state every workload shares: feeds, store,
/// query service and checkpointer, plus the timing and answer bookkeeping.
class Pipeline {
 public:
  Pipeline(const Exec& exec, EpochResult& out, fleet::TrackingStore store,
           const track::ObjectRegistry& registry, fleet::Checkpointer checkpointer)
      : exec_(exec),
        out_(out),
        store_(std::move(store)),
        query_(store_, registry),
        checkpointer_(std::move(checkpointer)) {}

  void add_feed(fleet::FeedConfig config) {
    feeds_.push_back(std::make_unique<fleet::FacilityFeed>(std::move(config)));
  }
  fleet::FacilityFeed& feed(std::uint32_t facility) { return *feeds_[facility]; }

  /// One pass: feed -> store -> query model. Latency runs from `handoff`
  /// until the store ingest that carries the pass returns. The pass fails
  /// if a layer throws, if a corrupt frame slipped past the decoder, or if
  /// the store was not offered exactly the validated events. Transport
  /// loss and record quarantine are modelled outcomes, not failures.
  void carry_pass(std::uint32_t pass_id, std::uint32_t facility, const sys::EventLog& raw,
                  double begin_s, double end_s, Rng& rng, Clock::time_point handoff) {
    ++out_.passes;
    try {
      fleet::FacilityFeed& f = feed(facility);
      const std::uint64_t undetected_before = f.wire_stats().undetected_corruptions;
      const std::uint64_t events_before = store_.stats().events;
      fleet::FeedPassResult result;
      {
        const Span span(exec_.tracer, Layer::kFeed, pass_id);
        result = f.process_pass(raw, begin_s, end_s, rng);
      }
      {
        const Span span(exec_.tracer, Layer::kStore, pass_id);
        store_.ingest(result.batches);
      }
      out_.pass_latency_s.push_back(seconds_since(handoff));
      {
        const Span span(exec_.tracer, Layer::kQueryModel, pass_id);
        query_.set_facility_model(facility, f.model());
      }
      ++out_.tallies.store_calls;
      std::uint64_t offered = 0;
      for (const fleet::FacilityBatch& batch : result.batches) offered += batch.events.size();
      out_.events_offered += offered;
      const bool ok = f.wire_stats().undetected_corruptions == undetected_before &&
                      store_.stats().events == events_before + offered;
      if (!ok) ++out_.failed;
      if (exec_.wire_sample != nullptr && pass_id % 8 == 0) {
        // Moved, not copied: the store is done with the batches.
        for (fleet::FacilityBatch& batch : result.batches) {
          sample_bytes_ += static_cast<double>(batch.events.capacity() * sizeof(sys::ReadEvent));
          exec_.wire_sample->push_back(rfidsim::wire::EventBatch{
              batch.facility, batch.sent_time_s, batch.arrival_time_s, std::move(batch.events)});
        }
      }
    } catch (const std::exception&) {
      ++out_.failed;
    }
  }

  /// R_C of the facility's current reliability model (0 before any pass).
  double model_rc(std::uint32_t facility) const {
    const fleet::FacilityModel* model = query_.facility_model(facility);
    return model != nullptr ? model->identification_rc() : 0.0;
  }

  template <typename Key>
  void locate(Key key, double t, std::uint32_t pass_id) {
    ++out_.queries;
    ++out_.tallies.locates;
    try {
      const Span span(exec_.tracer, Layer::kLocate, pass_id);
      const auto t0 = Clock::now();
      const fleet::LocateResult r = query_.locate(key, t);
      out_.locate_s.push_back(seconds_since(t0));
      answers_.add(static_cast<std::uint64_t>(r.found));
      answers_.add(static_cast<std::uint64_t>(r.facility));
      answers_.add(r.time_s);
      answers_.add(r.confidence);
      const bool ok = !r.found || (r.time_s <= t && r.facility < kFacilities &&
                                   r.confidence >= 0.0 && r.confidence <= 1.0);
      if (!ok) ++out_.failed;
    } catch (const std::exception&) {
      ++out_.failed;
    }
  }

  /// Returns the number of manifest objects present in the window.
  std::size_t missing(const track::Manifest& manifest, std::uint32_t facility, double begin_s,
                      double end_s, std::uint32_t pass_id) {
    ++out_.queries;
    try {
      const Span span(exec_.tracer, Layer::kMissing, pass_id);
      const auto t0 = Clock::now();
      const fleet::MissingReport report = query_.missing(manifest, facility, begin_s, end_s);
      out_.missing_s.push_back(seconds_since(t0));
      answers_.add(static_cast<std::uint64_t>(report.present.size()));
      answers_.add(static_cast<std::uint64_t>(report.missed_reads.size()));
      answers_.add(static_cast<std::uint64_t>(report.absent.size()));
      answers_.add(static_cast<std::uint64_t>(report.unexpected.size()));
      for (const fleet::Reconciliation& item : report.items) {
        answers_.add(item.object.value);
        answers_.add(static_cast<std::uint64_t>(item.verdict));
        answers_.add(item.posterior_present);
      }
      if (report.items.size() != manifest.expected.size()) ++out_.failed;
      return report.present.size();
    } catch (const std::exception&) {
      ++out_.failed;
      return 0;
    }
  }

  void inventory(std::uint32_t facility, double t, std::uint32_t pass_id) {
    ++out_.queries;
    try {
      const Span span(exec_.tracer, Layer::kInventory, pass_id);
      const auto t0 = Clock::now();
      const std::vector<track::ObjectId> objects = query_.inventory(facility, t);
      out_.inventory_s.push_back(seconds_since(t0));
      answers_.add(static_cast<std::uint64_t>(objects.size()));
      for (const track::ObjectId& object : objects) answers_.add(object.value);
      if (!std::is_sorted(objects.begin(), objects.end())) ++out_.failed;
    } catch (const std::exception&) {
      ++out_.failed;
    }
  }

  /// Checkpoint sizes join the answer digest; a checkpoint that throws or
  /// does not account for every shard fails the pass that wrote it.
  void checkpoint(std::uint32_t pass_id) {
    try {
      const Span span(exec_.tracer, Layer::kCheckpoint, pass_id);
      const auto t0 = Clock::now();
      const std::vector<std::uint8_t> bytes = checkpointer_.incremental(store_);
      out_.checkpoint_s.push_back(seconds_since(t0));
      const fleet::CheckpointStats& stats = checkpointer_.last_stats();
      answers_.add(static_cast<std::uint64_t>(bytes.size()));
      answers_.add(static_cast<std::uint64_t>(stats.shards_written));
      ++out_.tallies.checkpoints;
      out_.tallies.checkpoint_bytes += bytes.size();
      out_.tallies.shards_written += stats.shards_written;
      out_.tallies.shards_skipped += stats.shards_skipped;
      if (bytes.empty() || stats.shards_written + stats.shards_skipped != kShards) {
        ++out_.failed;
      }
    } catch (const std::exception&) {
      ++out_.failed;
    }
  }

  /// Closes the epoch: reference outputs and the per-layer tallies.
  void finish(std::vector<double> facility_rc, double heap_before) {
    const auto t0 = Clock::now();
    out_.outputs.store_digest = store_.digest();
    out_.tallies.digest_s = seconds_since(t0);
    out_.outputs.query_digest = answers_.value();
    out_.outputs.facility_rc = std::move(facility_rc);

    Tallies& t = out_.tallies;
    const fleet::StoreStats& s = store_.stats();
    t.store_events = s.events;
    t.store_accepted = s.accepted;
    t.store_duplicates = s.duplicates;
    t.store_repairs = s.repairs;
    t.sightings = store_.sighting_count();
    t.heap_bytes = heap_in_use() - heap_before - sample_bytes_;
    for (const auto& f : feeds_) {
      const sys::WireUploadStats& wire = f->wire_stats();
      t.frames_sent += wire.frames_sent;
      t.bytes_sent += wire.bytes_sent;
      t.nak_retransmits += wire.nak_retransmits;
      t.quarantined_batches += wire.batches_quarantined;
      t.lost_batches += f->upload_stats().batches_lost;
      t.events_delivered += f->upload_stats().events_delivered;
      t.late_batches += f->totals().late_batches;
      t.quarantined_records += f->totals().quarantined_records;
    }
  }

 private:
  const Exec& exec_;
  EpochResult& out_;
  fleet::TrackingStore store_;
  fleet::QueryService query_;
  fleet::Checkpointer checkpointer_;
  std::vector<std::unique_ptr<fleet::FacilityFeed>> feeds_;
  AnswerDigest answers_;
  double sample_bytes_ = 0.0;  ///< Heap held by the wire sample.
};

std::size_t threads_or(std::size_t requested, std::size_t fallback) {
  return requested != 0 ? requested : fallback;
}

// ------------------------------------------------------------ portal_fleet

/// The paper as a system: the 12-box cart, tagged on two faces (Table 3),
/// passes four facilities — (a) one antenna, single session; (b) two
/// facing antennas; (c) two antennas with K=3 interleaved sessions; (d)
/// two dense-mode readers with seeded reader crashes.
class PortalFleet final : public Workload {
 public:
  PortalFleet(std::uint64_t seed, const Scale& scale) : seed_(seed), scale_(scale) {
    const reliability::CalibrationProfile cal =
        reliability::CalibrationProfile::paper2006();
    for (std::uint32_t f = 0; f < kFacilities; ++f) {
      reliability::ObjectScenarioOptions opt;
      opt.tag_faces = {rfidsim::scene::BoxFace::Front, rfidsim::scene::BoxFace::SideNear};
      opt.portal.antenna_count = f == 0 ? 1 : 2;
      if (f == 2) opt.portal.strategy.mode = sys::InventoryMode::kMultiSession;
      if (f == 3) {
        opt.portal.reader_count = 2;
        opt.portal.dense_reader_mode = true;
      }
      facilities_.push_back(reliability::make_object_tracking_scenario(opt, cal));
      if (f == 3) facilities_.back().portal.faults.reader = {2.0, 0.5};
    }
    for (const track::ObjectId& object : registry().objects()) {
      manifest_.expected.insert(object);
    }
  }

  std::size_t store_threads() const override { return 1; }

  EpochResult run_epoch(const Exec& exec) const override {
    EpochResult out;
    const double heap_before = heap_in_use();
    Pipeline p(exec, out,
               fleet::TrackingStore({kShards, threads_or(exec.store_threads, store_threads())}),
               registry(), fleet::Checkpointer{});
    for (std::uint32_t f = 0; f < kFacilities; ++f) p.add_feed(feed_config(f));

    const std::uint32_t block = scale_.portal_block_passes;
    const double objects = static_cast<double>(registry().object_count());
    std::vector<double> rc_sum(kFacilities, 0.0);
    std::uint32_t pass_id = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t b = 0; b < scale_.portal_blocks; ++b) {
      for (std::uint32_t f = 0; f < kFacilities; ++f) {
        const reliability::Scenario& sc = facilities_[f];
        const auto handoff = Clock::now();
        reliability::RepeatedRuns runs;
        try {
          const Span span(exec.tracer, Layer::kReliability, pass_id);
          runs = reliability::run_repeated_parallel(
              sc, block, Rng(seed_ ^ 0x5107ULL).fork(f).fork(b).seed(), exec.sim_threads);
        } catch (const std::exception&) {
          out.passes += block;
          out.failed += block;
          pass_id += block;
          continue;
        }
        out.tallies.sim_passes += block;
        for (std::uint32_t i = 0; i < block; ++i) {
          const Span root(exec.tracer, Layer::kPass, pass_id);
          const std::uint32_t k = b * block + i;
          // Each pass gets its own window on the shared timeline.
          const double shift = static_cast<double>(k * kFacilities + f) * kPortalSpacingS;
          sys::EventLog& log = runs.logs[i];
          time_shift(log, shift);
          out.tallies.sim_events += log.size();
          const double begin_s = shift + sc.portal.start_time_s;
          const double end_s = shift + sc.portal.end_time_s + kPortalWindowSlackS;
          Rng rng = feed_rng(seed_, f, k, false);
          p.carry_pass(pass_id, f, log, begin_s, end_s, rng, handoff);
          rc_sum[f] += static_cast<double>(p.missing(manifest_, f, begin_s, end_s, pass_id)) /
                       objects;
          for (const track::ObjectId& object : registry().objects()) {
            p.locate(object, end_s, pass_id);
          }
          if ((pass_id + 1) % scale_.portal_audit_every == 0) {
            p.inventory(f, end_s, pass_id);
            p.checkpoint(pass_id);
          }
          ++pass_id;
        }
      }
    }
    out.wall_s = seconds_since(t0);
    out.epoch_s = out.wall_s;
    const double passes = static_cast<double>(scale_.portal_blocks * block);
    for (double& rc : rc_sum) rc /= passes;
    p.finish(std::move(rc_sum), heap_before);
    return out;
  }

 private:
  const track::ObjectRegistry& registry() const { return facilities_.front().registry; }

  fleet::FeedConfig feed_config(std::uint32_t f) const {
    const reliability::Scenario& sc = facilities_[f];
    fleet::FeedConfig config;
    config.facility = f;
    config.objects_total = registry().object_count();
    config.ingest.reader_count = sc.portal.readers.size();
    config.ingest.antenna_count = sc.scene.antennas.size();
    config.ingest.registry = &registry();
    return config;
  }

  std::uint64_t seed_;
  Scale scale_;
  std::vector<reliability::Scenario> facilities_;
  track::Manifest manifest_;
};

// --------------------------------------------------------- backhaul_ingest

/// All ingest, no physics: seeded raw logs from four facilities over lossy,
/// bit-flipping uplinks, with held-back and re-fed passes, into a 2-thread
/// store. An audit of the loaded store (a checkpoint, locates,
/// reconciliation, inventory) closes each epoch, outside the throughput
/// wall.
class BackhaulIngest final : public Workload {
 public:
  BackhaulIngest(std::uint64_t seed, const Scale& scale)
      : seed_(seed),
        scale_(scale),
        registry_(synthetic_registry(scale.shape.tags)),
        manifest_(sampled_manifest(registry_, scale.manifest_objects, seed)),
        schedule_(damaged_schedule(seed, kFacilities, scale.backhaul_passes, 0.10, kLateWindows,
                                   0.02)),
        audit_tags_(zipf_tags(seed, scale.backhaul_audit_locates, scale.shape.tags,
                              kZipfExponent)) {
    logs_.resize(kFacilities);
    for (std::uint32_t f = 0; f < kFacilities; ++f) {
      for (std::uint32_t k = 0; k < scale.backhaul_passes; ++k) {
        logs_[f].push_back(synth_pass_log(seed, f, k, scale.shape));
      }
    }
  }

  std::size_t store_threads() const override { return 2; }

  EpochResult run_epoch(const Exec& exec) const override {
    EpochResult out;
    const double heap_before = heap_in_use();
    Pipeline p(exec, out,
               fleet::TrackingStore({kShards, threads_or(exec.store_threads, store_threads())}),
               registry_, fleet::Checkpointer{});
    for (std::uint32_t f = 0; f < kFacilities; ++f) {
      fleet::FeedConfig config;
      config.facility = f;
      config.objects_total = scale_.shape.events_per_pass;
      config.uploader.batch_size = 128;
      config.uploader.loss_probability = 0.01;
      config.ingest.reader_count = scale_.shape.readers;
      config.ingest.antenna_count = scale_.shape.antennas;
      config.ingest.registry = &registry_;
      config.wire_corruption.bit_error_rate = 1e-5;
      p.add_feed(config);
    }

    const double window = scale_.shape.window_s;
    std::vector<double> rc_sum(kFacilities, 0.0);
    std::vector<double> rc_n(kFacilities, 0.0);
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < schedule_.size(); ++i) {
      const Delivery& d = schedule_[i];
      const Span root(exec.tracer, Layer::kPass, i);
      const auto handoff = Clock::now();
      const double begin_s = static_cast<double>(d.pass) * window;
      Rng rng = feed_rng(seed_, d.facility, d.pass, d.refeed);
      p.carry_pass(i, d.facility, logs_[d.facility][d.pass], begin_s, begin_s + window, rng,
                   handoff);
      rc_sum[d.facility] += p.model_rc(d.facility);
      rc_n[d.facility] += 1.0;
    }
    out.wall_s = seconds_since(t0);
    // Audit of the loaded store, outside the throughput wall: only its
    // latency samples are reported.
    const auto audit_id = static_cast<std::uint32_t>(schedule_.size());
    p.checkpoint(audit_id);
    const double horizon = static_cast<double>(scale_.backhaul_passes + kLateWindows) * window;
    for (const std::uint64_t tag : audit_tags_) {
      p.locate(rfidsim::scene::TagId{tag}, horizon, audit_id);
    }
    const double last_begin = static_cast<double>(scale_.backhaul_passes - 1) * window;
    for (std::uint32_t f = 0; f < kFacilities; ++f) {
      p.missing(manifest_, f, last_begin, last_begin + window, audit_id);
      p.inventory(f, horizon, audit_id);
    }
    out.epoch_s = seconds_since(t0);
    for (std::uint32_t f = 0; f < kFacilities; ++f) rc_sum[f] /= std::max(1.0, rc_n[f]);
    p.finish(std::move(rc_sum), heap_before);
    return out;
  }

 private:
  std::uint64_t seed_;
  Scale scale_;
  track::ObjectRegistry registry_;
  track::Manifest manifest_;
  std::vector<Delivery> schedule_;
  std::vector<std::uint64_t> audit_tags_;
  std::vector<std::vector<sys::EventLog>> logs_;  ///< [facility][pass]
};

}  // namespace

OpCount count_operations(const std::vector<EpochResult>& epochs, const Outputs& reference) {
  OpCount count;
  for (const EpochResult& e : epochs) {
    const std::uint64_t ops = e.passes + e.queries;
    count.attempted += ops;
    count.failed += e.outputs == reference ? e.failed : ops;
  }
  return count;
}

void check_coverage(EpochResult& epoch, const Tracer& tracer, std::size_t span_begin,
                    std::size_t span_end) {
  if (tracer.layer_seconds(span_begin, span_end) < kMinCoverage * epoch.epoch_s) {
    epoch.failed = epoch.passes + epoch.queries;
  }
}

void time_shift(sys::EventLog& log, double shift_s) {
  for (sys::ReadEvent& ev : log) ev.time_s += shift_s;
}

Scale Scale::small() {
  Scale s;
  s.portal_blocks = 2;
  s.portal_block_passes = 2;
  s.portal_audit_every = 4;
  s.backhaul_passes = 6;
  s.backhaul_audit_locates = 100;
  s.manifest_objects = 200;
  s.shape.tags = 2000;
  s.shape.events_per_pass = 300;
  return s;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPortalFleet: return "portal_fleet";
    case WorkloadKind::kBackhaulIngest: return "backhaul_ingest";
  }
  return "?";
}

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind kind : {WorkloadKind::kPortalFleet, WorkloadKind::kBackhaulIngest}) {
    if (name == workload_name(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<Workload> make_workload(WorkloadKind kind, std::uint64_t seed,
                                        const Scale& scale) {
  switch (kind) {
    case WorkloadKind::kPortalFleet: return std::make_unique<PortalFleet>(seed, scale);
    case WorkloadKind::kBackhaulIngest: return std::make_unique<BackhaulIngest>(seed, scale);
  }
  return nullptr;
}

}  // namespace pipebench
