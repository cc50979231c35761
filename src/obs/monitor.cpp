#include "obs/monitor.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rfidsim::obs {

SlidingWindowRate::SlidingWindowRate(std::size_t window) {
  require(window > 0, "SlidingWindowRate: window must be positive");
  ring_.resize(window);
}

void SlidingWindowRate::add(std::uint64_t successes, std::uint64_t trials) {
  require(successes <= trials, "SlidingWindowRate: successes exceed trials");
  PassCounts& slot = ring_[next_];
  if (filled_ == ring_.size()) {
    success_sum_ -= slot.successes;
    trial_sum_ -= slot.trials;
  } else {
    ++filled_;
  }
  slot = PassCounts{successes, trials};
  next_ = (next_ + 1) % ring_.size();
  success_sum_ += successes;
  trial_sum_ += trials;
}

double SlidingWindowRate::rate() const {
  if (trial_sum_ == 0) return 0.0;
  return static_cast<double>(success_sum_) / static_cast<double>(trial_sum_);
}

ProportionInterval SlidingWindowRate::wilson(double z) const {
  return wilson_interval(success_sum_, trial_sum_, z);
}

void SlidingWindowRate::reset() {
  std::fill(ring_.begin(), ring_.end(), PassCounts{});
  next_ = 0;
  filled_ = 0;
  success_sum_ = 0;
  trial_sum_ = 0;
}

EwmaDetector::EwmaDetector(EwmaConfig config) : config_(config) {
  require(config_.lambda > 0.0 && config_.lambda <= 1.0,
          "EwmaDetector: lambda must be in (0, 1]");
}

double EwmaDetector::update(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = config_.lambda * x + (1.0 - config_.lambda) * value_;
  }
  return value_;
}

void EwmaDetector::reset() {
  value_ = 0.0;
  seeded_ = false;
}

CusumDetector::CusumDetector(CusumConfig config) : config_(config) {
  require(config_.threshold > 0.0, "CusumDetector: threshold must be positive");
}

double CusumDetector::update(double x) {
  value_ = std::max(0.0, value_ + x - config_.reference);
  return value_;
}

void CusumDetector::reset() { value_ = 0.0; }

const char* alert_type_name(AlertType type) {
  switch (type) {
    case AlertType::kReaderDegraded: return "reader_degraded";
    case AlertType::kModelDivergence: return "model_divergence";
    case AlertType::kSilence: return "silence";
    case AlertType::kWireCorruption: return "wire_corruption";
    case AlertType::kStaleBatch: return "stale_batch";
    case AlertType::kWatermarkStalled: return "watermark_stalled";
  }
  return "?";
}

ReliabilityMonitor::ReliabilityMonitor(MonitorConfig config)
    : config_(config), portal_(config.window_passes) {
  require(config_.window_passes > 0, "ReliabilityMonitor: window_passes must be positive");
}

void ReliabilityMonitor::raise(AlertType type, std::uint64_t pass, int reader,
                               double value, double threshold,
                               const char* detector) {
  alerts_.push_back(Alert{.type = type,
                          .pass = pass,
                          .reader = reader,
                          .value = value,
                          .threshold = threshold,
                          .detector = detector});
  // The counter is observability, not detection: it obeys the master obs
  // switch.
  if (hooks_enabled()) {
    obs::counter("obs.monitor.alerts", {{"type", alert_type_name(type)}}).add(1);
  }
}

void ReliabilityMonitor::observe_pass(const PassObservation& obs) {
  require(obs.objects_identified <= obs.objects_total,
          "ReliabilityMonitor: identified objects exceed total");
  if (passes_ == 0) {
    readers_.clear();
    readers_.reserve(obs.readers.size());
    for (std::size_t r = 0; r < obs.readers.size(); ++r) {
      readers_.push_back(ReaderState{.seen = SlidingWindowRate(config_.window_passes),
                                     .ewma = EwmaDetector(config_.ewma),
                                     .cusum = CusumDetector(config_.cusum)});
    }
  }
  require(obs.readers.size() == readers_.size(),
          "ReliabilityMonitor: reader count changed mid-stream");

  const std::uint64_t pass = passes_++;

  portal_.add(obs.objects_identified, obs.objects_total);

  std::uint64_t max_rounds = 0;
  for (const ReaderPassObservation& r : obs.readers) {
    max_rounds = std::max(max_rounds, r.rounds);
  }

  const bool warmed = pass + 1 > config_.warmup_passes;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    const ReaderPassObservation& in = obs.readers[r];
    ReaderState& state = readers_[r];
    state.seen.add(in.objects_seen, obs.objects_total);

    // Healthy-throughput baseline: each reader's mean rounds per pass over
    // the warm-up passes, frozen when warm-up ends. Measuring the deficit
    // against the reader's *own* past — not the current fastest reader —
    // keeps common-mode degradation (all readers crashing together)
    // visible; the relative form would read it as "everyone is the
    // fastest" and see nothing.
    if (!warmed) state.warmup_rounds += in.rounds;
    if (pass + 1 == config_.warmup_passes) {
      state.baseline_rounds = static_cast<double>(state.warmup_rounds) /
                              static_cast<double>(config_.warmup_passes);
    }

    // Round deficit: the fraction of the baseline throughput the reader
    // failed to deliver this pass (clamped at 0 — running faster than the
    // baseline is not a fault). Falls back to the fastest-reader-relative
    // form until the baseline exists.
    double deficit;
    if (state.baseline_rounds > 0.0) {
      deficit = std::max(
          0.0, 1.0 - static_cast<double>(in.rounds) / state.baseline_rounds);
    } else {
      deficit = max_rounds == 0 ? 0.0
                                : 1.0 - static_cast<double>(in.rounds) /
                                            static_cast<double>(max_rounds);
    }
    const double ewma = state.ewma.update(deficit);
    const double cusum = state.cusum.update(deficit);

    // Silence is unambiguous and exempt from warm-up: the portal ran
    // rounds (or this reader used to), this reader ran none.
    if (in.rounds == 0 && (max_rounds > 0 || state.baseline_rounds > 0.0)) {
      if (!state.silent_latched) {
        state.silent_latched = true;
        raise(AlertType::kSilence, pass, static_cast<int>(r), 0.0, 0.0, "silence");
      }
    } else {
      state.silent_latched = false;
    }

    const bool drifted = state.cusum.alarmed() || state.ewma.alarmed();
    if (warmed && drifted) {
      if (!state.degraded_latched) {
        state.degraded_latched = true;
        if (state.cusum.alarmed()) {
          raise(AlertType::kReaderDegraded, pass, static_cast<int>(r), cusum,
                config_.cusum.threshold, "cusum");
        } else {
          raise(AlertType::kReaderDegraded, pass, static_cast<int>(r), ewma,
                config_.ewma.threshold, "ewma");
        }
      }
    } else if (!drifted) {
      state.degraded_latched = false;
    }
  }

  // Model check: the independence prediction must stay inside the
  // observed Wilson interval (plus margin). Persistent escape means
  // correlated failure modes the model cannot represent.
  if (warmed && portal_.trials() >= config_.min_window_objects) {
    const double predicted = predicted_rc();
    const ProportionInterval ci = portal_.wilson(config_.wilson_z);
    const double lo = ci.lower - config_.divergence_margin;
    const double hi = ci.upper + config_.divergence_margin;
    const bool diverged = predicted < lo || predicted > hi;
    if (diverged) {
      if (!divergence_latched_) {
        divergence_latched_ = true;
        raise(AlertType::kModelDivergence, pass, -1, predicted,
              predicted > hi ? hi : lo, "model");
      }
    } else {
      divergence_latched_ = false;
    }
  }
}

const Alert* ReliabilityMonitor::first_alert(AlertType type, int reader) const {
  for (const Alert& a : alerts_) {
    if (a.type == type && a.reader == reader) return &a;
  }
  return nullptr;
}

const Alert* ReliabilityMonitor::first_alert(AlertType type) const {
  for (const Alert& a : alerts_) {
    if (a.type == type) return &a;
  }
  return nullptr;
}

ProportionInterval ReliabilityMonitor::observed_rc_interval() const {
  return portal_.wilson(config_.wilson_z);
}

double ReliabilityMonitor::predicted_rc() const {
  double miss_all = 1.0;
  for (const ReaderState& r : readers_) miss_all *= 1.0 - r.seen.rate();
  return 1.0 - miss_all;
}

double ReliabilityMonitor::reader_read_rate(std::size_t reader) const {
  require(reader < readers_.size(), "ReliabilityMonitor: reader index out of range");
  return readers_[reader].seen.rate();
}

double ReliabilityMonitor::reader_ewma(std::size_t reader) const {
  require(reader < readers_.size(), "ReliabilityMonitor: reader index out of range");
  return readers_[reader].ewma.value();
}

double ReliabilityMonitor::reader_cusum(std::size_t reader) const {
  require(reader < readers_.size(), "ReliabilityMonitor: reader index out of range");
  return readers_[reader].cusum.value();
}

double ReliabilityMonitor::reader_baseline_rounds(std::size_t reader) const {
  require(reader < readers_.size(), "ReliabilityMonitor: reader index out of range");
  return readers_[reader].baseline_rounds;
}

void ReliabilityMonitor::observe_transport(const TransportObservation& obs) {
  // Transport passes are indexed independently of portal passes: callers
  // may start the wire hop before (or without) ever feeding observe_pass.
  const std::uint64_t pass = transport_passes_++;

  const bool corrupted = obs.corrupt_frames > 0 || obs.quarantined_batches > 0;
  if (corrupted) {
    if (!wire_corruption_latched_) {
      wire_corruption_latched_ = true;
      const double fraction =
          obs.frames == 0 ? 1.0
                          : static_cast<double>(obs.corrupt_frames) /
                                static_cast<double>(obs.frames);
      raise(AlertType::kWireCorruption, pass, -1, fraction, 0.0, "wire");
    }
  } else {
    wire_corruption_latched_ = false;
  }

  if (obs.stale_batches > 0) {
    if (!stale_latched_) {
      stale_latched_ = true;
      raise(AlertType::kStaleBatch, pass, -1,
            static_cast<double>(obs.stale_batches), 0.0, "stale");
    }
  } else {
    stale_latched_ = false;
  }
}

void ReliabilityMonitor::observe_watermark(const WatermarkObservation& obs) {
  // Watermark passes are indexed independently, like transport passes:
  // callers may track freshness without ever feeding observe_pass.
  const std::uint64_t pass = watermark_passes_++;
  const bool advanced = obs.watermark_s > watermark_s_;
  const bool window_moved = pass == 0 || obs.window_end_s > watermark_window_end_s_;
  if (advanced) watermark_s_ = obs.watermark_s;
  watermark_window_end_s_ = std::max(watermark_window_end_s_, obs.window_end_s);

  if (advanced) {
    watermark_streak_ = 0;
    watermark_latched_ = false;
  } else if (window_moved) {
    // The window moved on but no newer events reached stored truth: one
    // more stalled pass. A pass where the window itself did not move says
    // nothing about freshness and leaves the streak alone.
    ++watermark_streak_;
    if (!watermark_latched_ && watermark_streak_ >= config_.watermark_stall_passes) {
      watermark_latched_ = true;
      raise(AlertType::kWatermarkStalled, pass, -1,
            static_cast<double>(watermark_streak_),
            static_cast<double>(config_.watermark_stall_passes), "watermark");
    }
  }
}

double ReliabilityMonitor::watermark_age_s() const {
  if (watermark_s_ < 0.0) return std::numeric_limits<double>::infinity();
  return watermark_window_end_s_ - watermark_s_;
}

void ReliabilityMonitor::reset() {
  readers_.clear();
  portal_.reset();
  alerts_.clear();
  passes_ = 0;
  transport_passes_ = 0;
  watermark_passes_ = 0;
  watermark_s_ = -1.0;
  watermark_window_end_s_ = 0.0;
  watermark_streak_ = 0;
  divergence_latched_ = false;
  wire_corruption_latched_ = false;
  stale_latched_ = false;
  watermark_latched_ = false;
}

}  // namespace rfidsim::obs
