// Wire-level corruption: what the physical uplink does to framed bytes.
//
// fault::corrupt_log / corrupt_csv model middleware damage to *records*;
// this models the layer below — the serial cable, the flaky radio hop,
// the store-and-forward daemon that tears a connection down mid-frame.
// Damage is bit- and frame-level, which is exactly what the wire module's
// CRC-16 framing is built to catch:
//
//   * independent bit flips at a configurable bit-error rate (thermal
//     noise, marginal cabling) — sampled with geometric gap skipping, so
//     a megabyte at BER 1e-6 costs a handful of draws, not 8M;
//   * burst errors (brownouts, connector chatter): a run of consecutive
//     bytes replaced with noise;
//   * truncation: the frame loses a uniform tail (torn connection).
//
// Deterministic given the Rng state, and — load-bearing for callers'
// digest contracts — a default-constructed (all-zero) config is a strict
// identity that draws nothing from the Rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace rfidsim::fault {

struct WireCorruptorConfig {
  /// Probability each transmitted bit flips independently.
  double bit_error_rate = 0.0;
  /// Probability a frame suffers one noise burst.
  double burst_probability = 0.0;
  /// Burst length is uniform in [1, burst_max_bytes].
  std::size_t burst_max_bytes = 8;
  /// Probability a frame loses a uniform-length tail (at least one byte).
  double truncate_probability = 0.0;
};

/// What the corruptor actually did — ground truth for calibrating the
/// decoder's detection counters against.
struct WireCorruptionStats {
  std::size_t frames = 0;          ///< Frames offered.
  std::size_t frames_damaged = 0;  ///< Frames with >= 1 flip/burst/cut.
  std::size_t bits_flipped = 0;
  std::size_t bursts = 0;
  std::size_t truncated = 0;
};

class WireCorruptor {
 public:
  explicit WireCorruptor(WireCorruptorConfig config = {});

  /// True when the config can never damage anything (all rates zero); in
  /// that case corrupt_frame() never touches `rng`.
  bool identity() const { return identity_; }

  /// Damages one frame's bytes in place (flips, burst, truncation).
  /// Returns true if the frame was altered.
  bool corrupt_frame(std::vector<std::uint8_t>& frame, Rng& rng);

  const WireCorruptionStats& stats() const { return stats_; }
  void reset() { stats_ = WireCorruptionStats{}; }
  const WireCorruptorConfig& config() const { return config_; }

 private:
  WireCorruptorConfig config_;
  WireCorruptionStats stats_;
  bool identity_ = true;
};

}  // namespace rfidsim::fault
