// Benchmark-side span recorder.
//
// The benchmark wraps every call it makes into a layer of the pipeline in
// a Span. Spans live in memory (name, start, end, parent, pass id) and are
// written out once the run ends, so tracing costs two clock reads and one
// vector append per call. A null Tracer turns every Span into a no-op: the
// untraced run that reports the end-to-end metrics takes no clock reads
// beyond its own latency samples.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace pipebench {

/// The layer a span is charged to. kPass is the root of one pipeline pass;
/// every other kind is a call into one layer.
enum class Layer : std::uint8_t {
  kPass,
  kReliability,     ///< reliability::run_repeated_parallel (sweep/scene/gen2/system).
  kFeed,            ///< fleet::FacilityFeed::process_pass (uploader/wire/track/monitor).
  kStore,           ///< fleet::TrackingStore::ingest.
  kQueryModel,      ///< QueryService::set_facility_model(feed.model()).
  kLocate,          ///< QueryService::locate.
  kMissing,         ///< QueryService::missing.
  kInventory,       ///< QueryService::inventory.
  kCheckpoint,      ///< Checkpointer::incremental.
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> names = {
      "pass",        "reliability",       "fleet.feed",         "fleet.store",
      "fleet.query.model", "fleet.query.locate", "fleet.query.missing",
      "fleet.query.inventory", "fleet.checkpoint"};
  return names[static_cast<std::size_t>(layer)];
}

inline bool is_root(Layer layer) { return layer == Layer::kPass; }

/// Share of a traced epoch's wall its layer spans must cover, so that the
/// per-layer shares add up to the end-to-end time.
inline constexpr double kMinCoverage = 0.95;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index of the enclosing span, -1 for none.
  Layer layer = Layer::kPass;
  std::uint32_t pass = 0;    ///< Pass the span belongs to.
};

/// Per-layer seconds over a range of spans.
using LayerSeconds = std::array<double, kLayerCount>;

class Tracer {
 public:
  std::size_t open(Layer layer, std::uint32_t pass) {
    SpanRecord rec;
    rec.layer = layer;
    rec.pass = pass;
    rec.parent = stack_.empty() ? -1 : stack_.back();
    const std::size_t index = spans_.size();
    stack_.push_back(static_cast<std::int32_t>(index));
    rec.start_ns = now_ns();
    spans_.push_back(rec);
    return index;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer over spans [begin, end): each span's duration
  /// minus the part its direct children cover.
  LayerSeconds self_seconds(std::size_t begin, std::size_t end) const {
    LayerSeconds out{};
    for (std::size_t i = begin; i < end; ++i) {
      const SpanRecord& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      out[static_cast<std::size_t>(s.layer)] += dur;
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= begin) {
        out[static_cast<std::size_t>(spans_[static_cast<std::size_t>(s.parent)].layer)] -= dur;
      }
    }
    return out;
  }

  /// Seconds covered by layer (non-root) spans in [begin, end). Layer spans
  /// never nest inside one another, so their durations add up.
  double layer_seconds(std::size_t begin, std::size_t end) const {
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      if (!is_root(spans_[i].layer)) {
        total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
      }
    }
    return total;
  }

  /// Chrome trace_event JSON (open in Perfetto or chrome://tracing). At
  /// most `limit` spans are written; the rest are counted in the metadata.
  void write_chrome(std::ostream& out, std::size_t limit) const {
    const std::size_t n = spans_.size() < limit ? spans_.size() : limit;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":" << spans_.size()
        << ",\"written\":" << n << "},\"traceEvents\":[\n";
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans_[i];
      out << "{\"name\":\"" << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << static_cast<double>(s.start_ns - t0) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"pass\":" << s.pass << ",\"parent\":" << s.parent << "}}"
          << (i + 1 < n ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; does nothing when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, std::uint32_t pass)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(layer, pass) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace pipebench
