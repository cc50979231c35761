#include "fault/wire_corruptor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rfidsim::fault {

namespace {

/// Geometric gap to the next flipped bit for independent per-bit error
/// probability `p`: floor(log(1-u) / log(1-p)). One draw per *flip*
/// instead of one per bit, which is what makes BER sweeps over megabytes
/// affordable. Returned unfloored as a double: below a BER of about 1e-18
/// the quotient can pass 2^64, where converting it to an integer is
/// undefined, so the caller compares it with the bits left first.
double next_gap(double p, Rng& rng) {
  const double u = rng.uniform();
  return std::log1p(-u) / std::log1p(-p);
}

}  // namespace

WireCorruptor::WireCorruptor(WireCorruptorConfig config) : config_(config) {
  require(config_.bit_error_rate >= 0.0 && config_.bit_error_rate < 1.0,
          "WireCorruptor: bit_error_rate must be in [0, 1)");
  require(config_.burst_probability >= 0.0 && config_.burst_probability <= 1.0,
          "WireCorruptor: burst_probability must be in [0, 1]");
  require(config_.truncate_probability >= 0.0 && config_.truncate_probability <= 1.0,
          "WireCorruptor: truncate_probability must be in [0, 1]");
  require(config_.burst_max_bytes > 0,
          "WireCorruptor: burst_max_bytes must be positive");
  identity_ = config_.bit_error_rate == 0.0 && config_.burst_probability == 0.0 &&
              config_.truncate_probability == 0.0;
}

bool WireCorruptor::corrupt_frame(std::vector<std::uint8_t>& frame, Rng& rng) {
  ++stats_.frames;
  if (identity_ || frame.empty()) return false;
  bool damaged = false;

  // Independent bit flips via geometric gap skipping.
  if (config_.bit_error_rate > 0.0) {
    const std::uint64_t total_bits = static_cast<std::uint64_t>(frame.size()) * 8;
    // `bit` is the first bit whose fate is undecided; a gap that reaches
    // the end of the frame ends the flips and is never converted.
    std::uint64_t bit = 0;
    for (double gap = next_gap(config_.bit_error_rate, rng);
         gap < static_cast<double>(total_bits - bit);
         gap = next_gap(config_.bit_error_rate, rng)) {
      bit += static_cast<std::uint64_t>(gap);
      frame[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      ++stats_.bits_flipped;
      damaged = true;
      ++bit;
    }
  }

  // One noise burst: consecutive bytes replaced with random garbage.
  if (config_.burst_probability > 0.0 && rng.bernoulli(config_.burst_probability)) {
    const std::size_t len = std::min(
        frame.size(), static_cast<std::size_t>(rng.uniform_int(
                          1, static_cast<std::int64_t>(config_.burst_max_bytes))));
    const std::size_t begin = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size() - len)));
    for (std::size_t i = 0; i < len; ++i) {
      frame[begin + i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    ++stats_.bursts;
    damaged = true;
  }

  // Torn connection: lose a uniform tail (always at least one byte, never
  // the whole frame — a zero-length delivery is a lost batch, which the
  // uploader's loss model already owns).
  if (config_.truncate_probability > 0.0 &&
      rng.bernoulli(config_.truncate_probability) && frame.size() > 1) {
    const std::size_t keep = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(frame.size() - 1)));
    frame.resize(keep);
    ++stats_.truncated;
    damaged = true;
  }

  if (damaged) ++stats_.frames_damaged;
  return damaged;
}

}  // namespace rfidsim::fault
