#include "fleet/store.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/radix_sort.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "sweep/sweep.hpp"

namespace rfidsim::fleet {

namespace {

/// Sightings travel through the routing phase paired with their EPC (the
/// timeline key carries the EPC once stored, so Sighting itself omits it).
struct RoutedSighting {
  std::uint64_t epc = 0;
  Sighting sighting;
};

/// Prefetch distances for walks that hop between cold timelines (the
/// merge and digest()): each timeline's vector header is fetched
/// kHeaderAhead steps early, and its sightings, through the header
/// fetched by then, kDataAhead steps early.
constexpr std::size_t kHeaderAhead = 16;
constexpr std::size_t kDataAhead = 8;

}  // namespace

bool sighting_less(const Sighting& a, const Sighting& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.facility != b.facility) return a.facility < b.facility;
  if (a.reader != b.reader) return a.reader < b.reader;
  return a.antenna < b.antenna;
}

TrackingStore::TrackingStore(StoreConfig config) : config_(config) {
  require(config_.shard_count > 0, "TrackingStore: shard count must be positive");
  shards_.resize(config_.shard_count);
}

std::size_t TrackingStore::shard_of(scene::TagId tag) const {
  // Mixed, so shards fill independently of how the simulation allocated
  // ids (sequential ids would otherwise pile consecutive tags into one).
  return static_cast<std::size_t>(splitmix64(tag.value) % config_.shard_count);
}

namespace {
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
}  // namespace

void TrackingStore::rehash(Shard& shard, std::size_t capacity) const {
  shard.index.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t slot = 0; slot < shard.epcs.size(); ++slot) {
    std::size_t h = static_cast<std::size_t>(splitmix64(shard.epcs[slot])) & mask;
    while (shard.index[h] != 0) h = (h + 1) & mask;
    shard.index[h] = static_cast<std::uint32_t>(slot + 1);
  }
}

std::size_t TrackingStore::find_slot(const Shard& shard, std::uint64_t epc) const {
  if (shard.index.empty()) return kNoSlot;
  const std::size_t mask = shard.index.size() - 1;
  std::size_t h = static_cast<std::size_t>(splitmix64(epc)) & mask;
  while (true) {
    const std::uint32_t entry = shard.index[h];
    if (entry == 0) return kNoSlot;
    if (shard.epcs[entry - 1] == epc) return entry - 1;
    h = (h + 1) & mask;
  }
}

std::size_t TrackingStore::find_or_create(Shard& shard, std::uint64_t epc) const {
  // Grow at 0.7 load (including the slot about to be claimed).
  if ((shard.epcs.size() + 1) * 10 >= shard.index.size() * 7) {
    rehash(shard, std::max<std::size_t>(16, shard.index.size() * 2));
  }
  const std::size_t mask = shard.index.size() - 1;
  std::size_t h = static_cast<std::size_t>(splitmix64(epc)) & mask;
  while (true) {
    const std::uint32_t entry = shard.index[h];
    if (entry == 0) break;
    if (shard.epcs[entry - 1] == epc) return entry - 1;
    h = (h + 1) & mask;
  }
  const std::size_t slot = shard.epcs.size();
  shard.index[h] = static_cast<std::uint32_t>(slot + 1);
  shard.epcs.push_back(epc);
  shard.timelines.emplace_back();
  shard.sorted = false;
  return slot;
}

void TrackingStore::ensure_sorted(const Shard& shard) const {
  if (shard.sorted) return;
  // EPCs are distinct within a shard, so the EPC order is unique.
  std::vector<RadixItem> ranks(shard.epcs.size());
  for (std::size_t slot = 0; slot < ranks.size(); ++slot) {
    ranks[slot] = {shard.epcs[slot], slot};
  }
  radix_sort(ranks);
  shard.by_epc.resize(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    shard.by_epc[i] = static_cast<std::uint32_t>(ranks[i].index);
  }
  shard.sorted = true;
}

void TrackingStore::merge_into(Shard& shard, std::vector<Sighting>& timeline,
                               const Sighting& s) {
  if (timeline.empty() || sighting_less(timeline.back(), s)) {
    timeline.push_back(s);
    ++shard.sightings;
    return;
  }
  // s sorts at or before the tail, so pos is never end(): an insert here
  // is always a repair.
  const auto pos = std::lower_bound(timeline.begin(), timeline.end(), s, sighting_less);
  if (*pos == s) {
    ++shard.duplicates;
    return;
  }
  ++shard.repairs;
  timeline.insert(pos, s);
  ++shard.sightings;
}

void TrackingStore::ingest(const FacilityBatch& batch) {
  ingest(std::span<const FacilityBatch>(&batch, 1));
}

void TrackingStore::ingest(std::span<const FacilityBatch> batches) {
  const obs::prof::ScopedPhase ingest_phase(obs::prof::Phase::kStoreIngest);
  const std::size_t shard_count = config_.shard_count;
  const StoreStats before = stats_;

  // Phase 1 — route: batch b groups its events by shard with a stable
  // counting sort into ONE flat array plus a shard-offset table, instead of
  // shard_count separate bucket vectors per batch (the per-batch allocation
  // churn that made 2-thread ingest slower than serial). Stability keeps
  // the within-batch event order per shard, so the merge phase sees the
  // exact event sequence the bucket version produced. Cell b writes only
  // routed[b]; determinism per the sweep contract.
  struct RoutedBatch {
    std::vector<RoutedSighting> events;     ///< Grouped by shard, stable.
    std::vector<std::uint32_t> offsets;     ///< [shard, shard+1) event range.
    bool out_of_range = false;  ///< An index exceeds kMaxSightingIndex.
  };
  std::vector<RoutedBatch> routed(batches.size());
  // Phase markers sit on this orchestrating thread: parallel_for blocks
  // until its cells drain, so the route/merge self-times are the phases'
  // wall-clock spans and the call counts stay thread-count-independent.
  std::optional<obs::prof::ScopedPhase> phase;
  phase.emplace(obs::prof::Phase::kStoreRoute);
  sweep::parallel_for(batches.size(), config_.threads, [&](std::size_t b) {
    const FacilityBatch& batch = batches[b];
    RoutedBatch& rb = routed[b];
    const std::size_t n = batch.events.size();
    std::vector<std::uint32_t> shard_of_event(n);
    rb.offsets.assign(shard_count + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto shard = static_cast<std::uint32_t>(
          splitmix64(batch.events[i].tag.value) % shard_count);
      shard_of_event[i] = shard;
      ++rb.offsets[shard + 1];
    }
    for (std::size_t s = 0; s < shard_count; ++s) rb.offsets[s + 1] += rb.offsets[s];
    rb.events.resize(n);
    std::vector<std::uint32_t> cursor(rb.offsets.begin(), rb.offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const sys::ReadEvent& ev = batch.events[i];
      rb.out_of_range |= ev.reader_index > kMaxSightingIndex ||
                         ev.antenna_index > kMaxSightingIndex;
      rb.events[cursor[shard_of_event[i]]++] =
          {ev.tag.value, Sighting{ev.time_s, batch.facility,
                                  static_cast<std::uint16_t>(ev.reader_index),
                                  static_cast<std::uint16_t>(ev.antenna_index)}};
    }
  });
  phase.reset();
  // Cells must not throw, so they only flag; no shard has been touched yet.
  for (const RoutedBatch& rb : routed) {
    require(!rb.out_of_range,
            "TrackingStore::ingest: reader or antenna index exceeds 0xFFFF");
  }

  // Phase 2 — merge: shard s folds in its slice of every batch, in batch
  // order. Cell s touches only shards_[s]; no two cells share a timeline,
  // so the parallel merge is race-free and order-deterministic.
  phase.emplace(obs::prof::Phase::kStoreMerge);
  sweep::parallel_for(shard_count, config_.threads, [&](std::size_t s) {
    Shard& shard = shards_[s];
    std::size_t n = 0;
    for (const RoutedBatch& rb : routed) n += rb.offsets[s + 1] - rb.offsets[s];
    if (n == 0) return;
    // Resolve every event's slot first, in caller order: creating a
    // timeline can reallocate shard.timelines, so no timeline reference
    // may be held until the last slot exists.
    std::vector<std::uint32_t> slots;
    slots.reserve(n);
    for (const RoutedBatch& rb : routed) {
      for (std::size_t k = rb.offsets[s]; k < rb.offsets[s + 1]; ++k) {
        slots.push_back(static_cast<std::uint32_t>(find_or_create(shard, rb.events[k].epc)));
      }
    }
    // Then merge in caller order, which keeps the repair and duplicate
    // tallies exact. A call often holds about one event per timeline, so
    // each merge touches a cold timeline: prefetch its header and its tail.
    std::size_t i = 0;
    for (const RoutedBatch& rb : routed) {
      for (std::size_t k = rb.offsets[s]; k < rb.offsets[s + 1]; ++k, ++i) {
        if (i + kHeaderAhead < n) __builtin_prefetch(&shard.timelines[slots[i + kHeaderAhead]]);
        if (i + kDataAhead < n) {
          const std::vector<Sighting>& ahead = shard.timelines[slots[i + kDataAhead]];
          if (!ahead.empty()) __builtin_prefetch(&ahead.back());
        }
        merge_into(shard, shard.timelines[slots[i]], rb.events[k].sighting);
      }
    }
    // One version bump per ingest that routed anything here (even if every
    // event deduplicated away — the checkpoint diff only needs "may have
    // changed", and counters did change).
    ++shard.version;
  });
  phase.reset();

  stats_.batches += batches.size();
  const bool hooked = obs::hooks_enabled();
  for (const FacilityBatch& batch : batches) {
    stats_.events += batch.events.size();
    if (batch.arrival_time_s > batch.sent_time_s) ++stats_.late_batches;
    // Merge hop, recorded serially in batch order (the parallel phases
    // above own no deterministic order to record from). Batch granularity:
    // one record per batch, nothing in the per-event hot path.
    if (hooked && batch.batch_id != 0) {
      obs::provenance_log().record({batch.batch_id, obs::BatchHop::kMerged,
                                    batch.facility, batch.events.size(),
                                    batch.arrival_time_s});
    }
  }
  std::uint64_t accepted = 0, duplicates = 0, repairs = 0;
  for (const Shard& shard : shards_) {
    accepted += shard.sightings;
    duplicates += shard.duplicates;
    repairs += shard.repairs;
  }
  stats_.accepted = accepted;
  stats_.duplicates = duplicates;
  stats_.repairs = repairs;

  if (obs::hooks_enabled()) publish_metrics(before);
}

const std::vector<Sighting>* TrackingStore::timeline(scene::TagId tag) const {
  const Shard& shard = shards_[shard_of(tag)];
  const std::size_t slot = find_slot(shard, tag.value);
  return slot == kNoSlot ? nullptr : &shard.timelines[slot];
}

std::optional<Sighting> TrackingStore::last_sighting_at(scene::TagId tag,
                                                        double t) const {
  const std::vector<Sighting>* tl = timeline(tag);
  if (tl == nullptr) return std::nullopt;
  const Sighting probe{t, 0, 0, 0};
  // upper_bound over time only: first sighting strictly after t.
  const auto pos = std::upper_bound(tl->begin(), tl->end(), probe,
                                    [](const Sighting& a, const Sighting& b) {
                                      return a.time_s < b.time_s;
                                    });
  if (pos == tl->begin()) return std::nullopt;
  return *(pos - 1);
}

std::vector<scene::TagId> TrackingStore::tags() const {
  std::vector<scene::TagId> out;
  out.reserve(tag_count());
  for (const Shard& shard : shards_) {
    for (const std::uint64_t epc : shard.epcs) out.push_back(scene::TagId{epc});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t TrackingStore::tag_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.epcs.size();
  return n;
}

std::size_t TrackingStore::sighting_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.sightings;
  return n;
}

std::size_t TrackingStore::shard_depth(std::size_t shard) const {
  return shards_.at(shard).sightings;
}

TrackingStore::ShardCounters TrackingStore::shard_counters(std::size_t shard) const {
  const Shard& s = shards_.at(shard);
  return ShardCounters{s.sightings, s.duplicates, s.repairs, s.version};
}

std::uint64_t TrackingStore::shard_version(std::size_t shard) const {
  return shards_.at(shard).version;
}

void TrackingStore::visit_shard(
    std::size_t shard,
    const std::function<void(std::uint64_t, const std::vector<Sighting>&)>& fn) const {
  const Shard& s = shards_.at(shard);
  ensure_sorted(s);
  for (const std::uint32_t slot : s.by_epc) fn(s.epcs[slot], s.timelines[slot]);
}

void TrackingStore::restore_shard(
    std::size_t shard,
    std::vector<std::pair<std::uint64_t, std::vector<Sighting>>> timelines,
    const ShardCounters& counters) {
  Shard& s = shards_.at(shard);
  s.epcs.clear();
  s.timelines.clear();
  s.epcs.reserve(timelines.size());
  s.timelines.reserve(timelines.size());
  // Input is ascending by EPC, so slot order doubles as EPC order.
  for (auto& [epc, tl] : timelines) {
    s.epcs.push_back(epc);
    s.timelines.push_back(std::move(tl));
  }
  std::size_t capacity = 16;
  while (s.epcs.size() * 10 >= capacity * 7) capacity *= 2;
  rehash(s, capacity);
  s.by_epc.clear();
  s.sorted = false;
  s.sightings = counters.sightings;
  s.duplicates = counters.duplicates;
  s.repairs = counters.repairs;
  s.version = counters.version;
}

std::uint64_t TrackingStore::digest() const {
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kStoreDigest);
  // Gather every timeline across shards and walk them in ascending-EPC
  // order, so the digest is independent of shard count and assignment.
  // EPCs are distinct across shards, so the order is unique.
  std::vector<const std::vector<Sighting>*> timelines;
  timelines.reserve(tag_count());
  std::vector<RadixItem> by_epc;
  by_epc.reserve(tag_count());
  for (const Shard& shard : shards_) {
    for (std::size_t slot = 0; slot < shard.epcs.size(); ++slot) {
      by_epc.push_back({shard.epcs[slot], timelines.size()});
      timelines.push_back(&shard.timelines[slot]);
    }
  }
  radix_sort(by_epc);
  // The walk hops between shards' cold timelines.
  const auto timeline_at = [&](std::size_t i) { return timelines[by_epc[i].index]; };
  std::uint64_t hash = kFnvBasis;
  for (std::size_t i = 0; i < by_epc.size(); ++i) {
    if (i + kHeaderAhead < by_epc.size()) __builtin_prefetch(timeline_at(i + kHeaderAhead));
    if (i + kDataAhead < by_epc.size()) __builtin_prefetch(timeline_at(i + kDataAhead)->data());
    const std::vector<Sighting>* tl = timeline_at(i);
    hash = fnv1a(hash, by_epc[i].key);
    hash = fnv1a(hash, tl->size());
    for (const Sighting& s : *tl) {
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(s.time_s));
      hash = fnv1a(hash, (static_cast<std::uint64_t>(s.facility) << 32) |
                             (static_cast<std::uint64_t>(s.reader) << 16) | s.antenna);
    }
  }
  return hash;
}

void TrackingStore::publish_metrics(const StoreStats& before) const {
  static const struct Metrics {
    obs::Counter& batches = obs::counter("fleet.store.batches");
    obs::Counter& events = obs::counter("fleet.store.events");
    obs::Counter& accepted = obs::counter("fleet.store.accepted");
    obs::Counter& duplicates = obs::counter("fleet.store.duplicates");
    obs::Counter& repairs = obs::counter("fleet.store.repairs");
    obs::Counter& late_batches = obs::counter("fleet.store.late_batches");
    obs::Gauge& tags = obs::gauge("fleet.store.tags");
    obs::Gauge& sightings = obs::gauge("fleet.store.sightings");
    obs::Gauge& shard_depth_max = obs::gauge("fleet.store.shard_depth_max");
  } m;
  m.batches.add(stats_.batches - before.batches);
  m.events.add(stats_.events - before.events);
  m.accepted.add(stats_.accepted - before.accepted);
  m.duplicates.add(stats_.duplicates - before.duplicates);
  m.repairs.add(stats_.repairs - before.repairs);
  m.late_batches.add(stats_.late_batches - before.late_batches);
  m.tags.set(static_cast<double>(tag_count()));
  m.sightings.set(static_cast<double>(stats_.accepted));
  std::size_t depth_max = 0;
  for (const Shard& shard : shards_) {
    depth_max = std::max(depth_max, static_cast<std::size_t>(shard.sightings));
  }
  m.shard_depth_max.set(static_cast<double>(depth_max));
}

}  // namespace rfidsim::fleet
