#include "obs/provenance.hpp"

#include "common/hash.hpp"

namespace rfidsim::obs {

const char* batch_hop_name(BatchHop hop) {
  switch (hop) {
    case BatchHop::kEnqueued: return "enqueued";
    case BatchHop::kEncoded: return "encoded";
    case BatchHop::kNak: return "nak";
    case BatchHop::kDelivered: return "delivered";
    case BatchHop::kLost: return "lost";
    case BatchHop::kQuarantined: return "quarantined";
    case BatchHop::kValidated: return "validated";
    case BatchHop::kLate: return "late";
    case BatchHop::kStale: return "stale";
    case BatchHop::kMerged: return "merged";
    case BatchHop::kCheckpointed: return "checkpointed";
    case BatchHop::kRestored: return "restored";
    case BatchHop::kVisible: return "visible";
  }
  return "?";
}

std::uint64_t provenance_batch_id(std::uint32_t facility, std::uint64_t sequence) {
  // SplitMix64 finalizer over (facility, sequence) — the same mixing the
  // store uses for shard routing. The +1 keeps the (0, 0) batch away from
  // the reserved "no id" value; the final "| 1"-style guard is unnecessary
  // because the finalizer maps only one input to 0 and we shifted off it.
  const std::uint64_t z =
      splitmix64((static_cast<std::uint64_t>(facility) << 40) + sequence + 1);
  return z == 0 ? 1 : z;
}

ProvenanceLog::ProvenanceLog(std::size_t capacity) : ring_(capacity) {}

void ProvenanceLog::record(const ProvenanceRecord& rec) {
  if (!hooks_enabled()) return;
  const bool wrapped = ring_.push(rec);
  static Counter& records = obs::counter("obs.provenance.records");
  records.add(1);
  if (wrapped) {
    static Counter& drops = obs::counter("obs.provenance.dropped_records");
    drops.add(1);
  }
}

std::vector<ProvenanceRecord> ProvenanceLog::snapshot() const {
  std::vector<ProvenanceRecord> out;
  ring_.snapshot(out);
  return out;
}

std::vector<ProvenanceRecord> ProvenanceLog::history(std::uint64_t batch_id) const {
  std::vector<ProvenanceRecord> out;
  for (const ProvenanceRecord& rec : snapshot()) {
    if (rec.batch_id == batch_id) out.push_back(rec);
  }
  return out;
}

std::uint64_t ProvenanceLog::recorded() const { return ring_.written(); }

std::uint64_t ProvenanceLog::dropped() const { return ring_.dropped(); }

void ProvenanceLog::clear() { ring_.clear(); }

ProvenanceLog& provenance_log() {
  static ProvenanceLog instance;
  return instance;
}

}  // namespace rfidsim::obs
