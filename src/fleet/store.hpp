// rfidsim::fleet — sharded multi-facility tracking store.
//
// The paper's end goal is the *application*: knowing which object went
// where, built on unreliable portal reads hardened by redundancy
// (R_C = 1 - prod(1 - P_i)). TrackingStore is the backend of that
// application: it absorbs validated read-event batches from any number of
// facilities and maintains one custody timeline per EPC — the ordered
// sequence of sightings the locate/inventory/missing queries answer from.
//
// Sharding: timelines are partitioned by a pure hash of the EPC into a
// fixed number of shards. A bulk ingest first routes every event to its
// shard (cells = batches, each writing only its own routing slot), then
// merges each shard independently (cells = shards, each touching only its
// own timelines) — both phases ride rfidsim::sweep, so the engine's
// determinism contract applies end to end:
//
//   DETERMINISM CONTRACT: the store's final state is a pure function of
//   the multiset of ingested batches. Within a shard, batches apply in
//   caller order; across shards there is no shared state. Thread count,
//   scheduling, and obs on/off can never change a stored bit — and since
//   insertion is sorted and duplicate-idempotent, neither can the
//   *arrival order* of batches: late and re-delivered uploads converge to
//   the same timelines (digest() makes that checkable in one number).
//
// Late/duplicate handling: uploader retries deliver batches late and
// middleware re-delivers them whole. Sightings insert in time-sorted
// position (a late batch repairs the middle of a timeline, counted in
// stats().repairs) and an exactly-identical sighting is dropped as a
// duplicate, so re-ingesting a batch is a no-op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "scene/tag.hpp"
#include "wire/batch_codec.hpp"

namespace rfidsim::fleet {

/// Index of one facility (portal installation) in the fleet.
using FacilityId = std::uint32_t;

/// One accepted read of one tag, as the store keeps it: where and when the
/// tag was seen and through which infrastructure. RSSI is deliberately not
/// retained — custody queries never need it, and dropping it keeps a
/// million-sighting store lean. Reader and antenna indices are 16-bit, the
/// range digest() folds without aliasing (kMaxSightingIndex).
struct Sighting {
  double time_s = 0.0;
  FacilityId facility = 0;
  std::uint16_t reader = 0;
  std::uint16_t antenna = 0;

  friend bool operator==(const Sighting&, const Sighting&) = default;
};
static_assert(sizeof(Sighting) == 16);

/// Largest reader or antenna index a Sighting holds. ingest() throws on an
/// event beyond it; restore rejects a sighting beyond it.
inline constexpr std::size_t kMaxSightingIndex = 0xFFFF;

/// Total order used for timeline storage: chronological, with a stable
/// infrastructure tie-break so equal-time sightings from different paths
/// keep one canonical order regardless of arrival order.
bool sighting_less(const Sighting& a, const Sighting& b);

/// One validated batch from one facility feed: the batch the upload hop
/// delivered, validated in place. Its batch_id never enters timelines or
/// digest() — stored truth stays a pure function of the sighting multiset.
using FacilityBatch = wire::EventBatch;

struct StoreConfig {
  /// Timeline shards. More shards = finer ingest parallelism; the stored
  /// state and digest are independent of the count.
  std::size_t shard_count = 64;
  /// Worker threads for bulk ingest and for encoding checkpoint shards: 0
  /// means hardware concurrency, 1 forces the serial path. Results,
  /// checkpoint bytes included, are identical either way.
  std::size_t threads = 1;
};

/// Deterministic ingest tallies (pure functions of the batch sequence).
struct StoreStats {
  std::uint64_t batches = 0;
  std::uint64_t events = 0;        ///< Events offered across all batches.
  std::uint64_t accepted = 0;      ///< Distinct sightings stored.
  std::uint64_t duplicates = 0;    ///< Exact re-deliveries dropped.
  std::uint64_t repairs = 0;       ///< Insertions not at a timeline's tail.
  std::uint64_t late_batches = 0;  ///< Batches with arrival > sent time.
};

/// The sharded custody store. Construct once per backend; feed batches via
/// ingest(); query timelines at any point between ingests.
class TrackingStore {
 public:
  explicit TrackingStore(StoreConfig config = {});

  /// Routes and merges a sequence of batches (applied in the given order
  /// within each shard). Safe to call repeatedly; not concurrently. Throws
  /// ConfigError, leaving the store untouched, if any event's reader or
  /// antenna index exceeds kMaxSightingIndex.
  void ingest(std::span<const FacilityBatch> batches);
  /// One batch, ingested in place (no copy).
  void ingest(const FacilityBatch& batch);

  /// The stored timeline of one tag, time-sorted; nullptr when the tag has
  /// never been sighted. The pointer is valid until the next ingest().
  const std::vector<Sighting>* timeline(scene::TagId tag) const;

  /// Latest sighting of `tag` at or before `t`, if any.
  std::optional<Sighting> last_sighting_at(scene::TagId tag, double t) const;

  /// All sighted tags, ascending by EPC (gathers across shards).
  std::vector<scene::TagId> tags() const;

  std::size_t tag_count() const;
  std::size_t sighting_count() const;

  /// FNV-1a digest over every timeline in ascending-EPC order: one number
  /// that must be bit-identical across thread counts, shard counts, batch
  /// arrival orders, and obs on/off/compiled-out.
  std::uint64_t digest() const;

  const StoreStats& stats() const { return stats_; }
  const StoreConfig& config() const { return config_; }

  /// Sightings held by one shard (shard-depth gauges and balance tests).
  std::size_t shard_depth(std::size_t shard) const;
  std::size_t shard_of(scene::TagId tag) const;

  // --- Checkpoint/restore surface (fleet/checkpoint.*) -----------------
  //
  // The snapshot layer reads shards through these accessors and rebuilds
  // them through restore_shard/restore_stats. Restore replaces state
  // wholesale; it is not an ingest path and performs no validation beyond
  // structure — the checkpoint reader owns integrity (CRC, shard filing,
  // counters, digest).

  /// Per-shard bookkeeping the checkpoint must carry so a restored store's
  /// stats() stay faithful. `version` is a monotonic mutation counter
  /// (bumped once per ingest() that touched the shard) — the incremental
  /// checkpoint writer diffs it to skip unchanged shards.
  struct ShardCounters {
    std::uint64_t sightings = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t repairs = 0;
    std::uint64_t version = 0;
  };
  ShardCounters shard_counters(std::size_t shard) const;
  std::uint64_t shard_version(std::size_t shard) const;

  /// Visits one shard's timelines in ascending-EPC order.
  void visit_shard(std::size_t shard,
                   const std::function<void(std::uint64_t epc,
                                            const std::vector<Sighting>&)>& fn) const;

  /// Replaces one shard's contents wholesale. `timelines` must be sorted
  /// ascending by EPC, each EPC must belong to `shard`, and each timeline
  /// must be in sighting_less order (the checkpoint wrote them that way;
  /// the checkpoint reader checks the filing and trusts the digest check
  /// to catch the rest).
  void restore_shard(
      std::size_t shard,
      std::vector<std::pair<std::uint64_t, std::vector<Sighting>>> timelines,
      const ShardCounters& counters);

  /// Restores the shard-independent ingest tallies.
  void restore_stats(const StoreStats& stats) { stats_ = stats; }

 private:
  /// Arena-style shard: timelines live in one dense vector (slot order =
  /// first-sighting order) reached through an open-addressing EPC index —
  /// no per-EPC tree nodes to allocate, rebalance, or pointer-chase during
  /// ingest. Ascending-EPC iteration (visit_shard) ranks a slot permutation
  /// lazily and digest() ranks every shard's slots globally, both with the
  /// radix sort of common/radix_sort.hpp; tags() sorts the raw EPCs. EPCs
  /// are distinct, so each order is the per-EPC-node implementation's, and
  /// every externally visible order — and therefore every digest — is
  /// unchanged.
  struct Shard {
    /// Open addressing, power-of-two capacity, linear probing; entries are
    /// slot + 1 (0 = empty). Keyed by the same SplitMix64 mix() that picks
    /// the shard.
    std::vector<std::uint32_t> index;
    std::vector<std::uint64_t> epcs;               ///< Per slot, insertion order.
    std::vector<std::vector<Sighting>> timelines;  ///< Parallel to epcs.
    /// Ascending-EPC slot permutation for visit_shard, rebuilt lazily.
    mutable std::vector<std::uint32_t> by_epc;
    mutable bool sorted = true;
    std::uint64_t sightings = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t repairs = 0;
    /// Mutation epoch for incremental checkpoints.
    std::uint64_t version = 0;
  };

  /// Timeline slot for `epc`, creating an empty timeline on first sight.
  std::size_t find_or_create(Shard& shard, std::uint64_t epc) const;
  /// Existing slot for `epc`, or npos.
  std::size_t find_slot(const Shard& shard, std::uint64_t epc) const;
  void rehash(Shard& shard, std::size_t capacity) const;
  void ensure_sorted(const Shard& shard) const;

  /// Merges one sighting into its (already resolved) timeline: appended
  /// when it sorts after the tail, else placed by lower_bound — dropped
  /// when an identical sighting is already stored, counted as a repair
  /// when inserted before the tail.
  static void merge_into(Shard& shard, std::vector<Sighting>& timeline,
                         const Sighting& s);
  void publish_metrics(const StoreStats& before) const;

  StoreConfig config_;
  std::vector<Shard> shards_;
  StoreStats stats_;
};

}  // namespace rfidsim::fleet
