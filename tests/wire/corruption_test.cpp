#include "fault/wire_corruptor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "wire/batch_codec.hpp"
#include "wire/wire.hpp"

namespace rfidsim::fault {
namespace {

std::vector<std::uint8_t> test_frame(std::size_t payload_bytes) {
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return wire::make_frame(wire::OpCode::kEventBatch, payload);
}

TEST(WireCorruptorTest, DefaultConfigIsStrictIdentityAndDrawsNothing) {
  WireCorruptor corruptor;
  ASSERT_TRUE(corruptor.identity());
  Rng rng(42), untouched(42);
  std::vector<std::uint8_t> frame = test_frame(64);
  const std::vector<std::uint8_t> original = frame;
  EXPECT_FALSE(corruptor.corrupt_frame(frame, rng));
  EXPECT_EQ(frame, original);
  // Load-bearing for digest contracts: the identity path must not consume
  // a single draw, so downstream RNG sequences are unchanged.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(WireCorruptorTest, DeterministicGivenSeed) {
  WireCorruptorConfig cfg;
  cfg.bit_error_rate = 1e-3;
  cfg.burst_probability = 0.1;
  cfg.truncate_probability = 0.05;
  WireCorruptor c1(cfg), c2(cfg);
  Rng a(7), b(7);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> f1 = test_frame(256);
    std::vector<std::uint8_t> f2 = test_frame(256);
    c1.corrupt_frame(f1, a);
    c2.corrupt_frame(f2, b);
    EXPECT_EQ(f1, f2) << "frame " << i;
  }
  EXPECT_EQ(c1.stats().bits_flipped, c2.stats().bits_flipped);
  EXPECT_EQ(c1.stats().frames_damaged, c2.stats().frames_damaged);
}

class WireCorruptorBerTest : public ::testing::TestWithParam<double> {};

TEST_P(WireCorruptorBerTest, FlipsRoughlyTheExpectedCount) {
  WireCorruptorConfig cfg;
  cfg.bit_error_rate = GetParam();
  WireCorruptor corruptor(cfg);
  Rng rng(123);
  const std::size_t frames = 400;
  const std::size_t frame_bytes = 512 + wire::kFrameOverhead;
  for (std::size_t i = 0; i < frames; ++i) {
    std::vector<std::uint8_t> frame = test_frame(512);
    corruptor.corrupt_frame(frame, rng);
  }
  const double expected =
      cfg.bit_error_rate * static_cast<double>(frames * frame_bytes * 8);
  const double got = static_cast<double>(corruptor.stats().bits_flipped);
  // At 1e-3, ~1640 expected flips; 4 sigma ~ 160. The tiny rates expect
  // none: their geometric gaps overflow any integer type and must end the
  // frame, not wrap to zero and flip every bit.
  EXPECT_NEAR(got, expected, 4.0 * std::sqrt(expected));
}

INSTANTIATE_TEST_SUITE_P(BitErrorRates, WireCorruptorBerTest,
                         ::testing::Values(1e-3, 1e-19, 1e-25, 1e-300));

TEST(WireCorruptorTest, TruncationAlwaysLeavesAtLeastOneByte) {
  WireCorruptorConfig cfg;
  cfg.truncate_probability = 1.0;
  WireCorruptor corruptor(cfg);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> frame = test_frame(16);
    const std::size_t before = frame.size();
    corruptor.corrupt_frame(frame, rng);
    EXPECT_GE(frame.size(), 1u);
    EXPECT_LT(frame.size(), before);
  }
  EXPECT_EQ(corruptor.stats().truncated, 100u);
}

// --- Detection: every injected fault class must be *classified* by the
// decoder, not merely break something. ---

TEST(WireDetectionTest, TruncationIsClassifiedAsTruncated) {
  WireCorruptorConfig cfg;
  cfg.truncate_probability = 1.0;
  WireCorruptor corruptor(cfg);
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> frame = test_frame(64);
    corruptor.corrupt_frame(frame, rng);
    const wire::DecodeResult res = wire::next_frame(frame, 0);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.error, wire::DecodeErrorKind::kTruncated) << "iteration " << i;
  }
}

TEST(WireDetectionTest, BurstsAndFlipsAreAlwaysDetected) {
  WireCorruptorConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.burst_probability = 0.3;
  WireCorruptor corruptor(cfg);
  Rng rng(22);
  std::size_t damaged = 0, detected = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> frame = test_frame(256);
    const std::vector<std::uint8_t> original = frame;
    if (!corruptor.corrupt_frame(frame, rng)) continue;
    if (frame == original) continue;  // Burst noise can rewrite a byte to itself.
    ++damaged;
    const wire::DecodeResult res = wire::next_frame(frame, 0);
    if (!res.ok) {
      ++detected;
      continue;
    }
    // A decode that "succeeds" must be byte-identical payload — anything
    // else is an undetected corruption, which CRC-16 makes astronomically
    // unlikely at these damage rates.
    ASSERT_EQ(res.frame.payload_size, 256u);
  }
  ASSERT_GT(damaged, 50u);
  EXPECT_EQ(detected, damaged);
}

TEST(WireDetectionTest, EveryOffsetSingleBitFlipOnRealBatchIsDetected) {
  // The acceptance bar: zero corrupt frames may reach the store
  // undetected. For single-bit damage CRC-16 guarantees it — prove it at
  // every bit offset of a real encoded batch frame.
  wire::EventBatch batch;
  batch.facility = 3;
  batch.sent_time_s = 12.5;
  for (std::uint64_t i = 0; i < 24; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{1 + (i % 6)};
    ev.time_s = 12.0 + 0.02 * static_cast<double>(i);
    ev.reader_index = i % 3;
    batch.events.push_back(ev);
  }
  const std::vector<std::uint8_t> frame = wire::encode_event_batch_frame(batch);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const wire::DecodeResult res = wire::next_frame(damaged, 0);
    EXPECT_FALSE(res.ok) << "undetected flip at bit " << bit;
  }
}

TEST(WireDetectionTest, DecoderNeverCrashesOnHeavilyDamagedFrames) {
  // Fuzz-style hammering: arbitrary damage, decoder must classify and
  // resynchronize without reading out of bounds (ASan-checked in CI).
  WireCorruptorConfig cfg;
  cfg.bit_error_rate = 0.02;
  cfg.burst_probability = 0.5;
  cfg.burst_max_bytes = 32;
  cfg.truncate_probability = 0.3;
  WireCorruptor corruptor(cfg);
  Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> frame = test_frame(1 + (i % 300));
    corruptor.corrupt_frame(frame, rng);
    std::size_t offset = 0;
    while (offset < frame.size()) {
      const wire::DecodeResult res = wire::next_frame(frame, offset);
      if (res.ok) {
        const auto decoded = wire::decode_event_batch(res.frame);
        (void)decoded;  // May or may not parse; must not crash.
      }
      ASSERT_GT(res.next_offset, offset);
      offset = res.next_offset;
    }
  }
}

}  // namespace
}  // namespace rfidsim::fault
