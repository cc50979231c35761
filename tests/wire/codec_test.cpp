#include "wire/batch_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "wire/wire.hpp"

namespace rfidsim::wire {
namespace {

/// A batch that looks like real portal traffic: a small tag population
/// re-read many times, monotone timestamps, jittery RSSI.
EventBatch make_batch(Rng& rng, std::size_t events, std::size_t tag_pool) {
  EventBatch batch;
  batch.facility = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
  batch.sent_time_s = rng.uniform(0.0, 1000.0);
  batch.arrival_time_s = batch.sent_time_s + rng.uniform(0.0, 2.0);
  double t = batch.sent_time_s - 1.0;
  for (std::size_t i = 0; i < events; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{
        static_cast<std::uint64_t>(rng.uniform_int(1, static_cast<std::int64_t>(tag_pool)))};
    t += rng.uniform(0.0, 0.01);
    ev.time_s = t;
    ev.reader_index = static_cast<std::size_t>(rng.uniform_int(0, 3));
    ev.antenna_index = static_cast<std::size_t>(rng.uniform_int(0, 7));
    ev.rssi = DbmPower{-60.0 + rng.gaussian(0.0, 4.0)};
    batch.events.push_back(ev);
  }
  return batch;
}

TEST(BatchCodecTest, RoundTripsBitForBit) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const EventBatch batch = make_batch(rng, 1 + static_cast<std::size_t>(trial) * 3, 16);
    const std::vector<std::uint8_t> payload = encode_event_batch(batch);
    const auto decoded = decode_event_batch(payload.data(), payload.size());
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_TRUE(*decoded == batch) << "trial " << trial;
  }
}

TEST(BatchCodecTest, RoundTripsEmptyBatch) {
  EventBatch batch;
  batch.facility = 7;
  batch.sent_time_s = 3.25;
  batch.arrival_time_s = 3.5;
  const std::vector<std::uint8_t> payload = encode_event_batch(batch);
  const auto decoded = decode_event_batch(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == batch);
}

TEST(BatchCodecTest, BatchIdStaysOffTheWire) {
  // The provenance id is plumbing: stamping one changes no frame byte, so
  // it can never change which bits a lossy channel flips.
  Rng rng(11);
  const EventBatch batch = make_batch(rng, 24, 8);
  EventBatch stamped = batch;
  stamped.batch_id = 0x9e3779b97f4a7c15ull;
  EXPECT_EQ(encode_event_batch_frame(stamped), encode_event_batch_frame(batch));
  EXPECT_TRUE(stamped == batch);
  const std::vector<std::uint8_t> payload = encode_event_batch(stamped);
  const auto decoded = decode_event_batch(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->batch_id, 0u);
  EXPECT_TRUE(*decoded == stamped);
}

TEST(BatchCodecTest, RoundTripsHostileDoubles) {
  // Bit-pattern delta encoding must be lossless for *any* double, not just
  // friendly ones: negative zero, denormals, infinities, huge magnitudes.
  EventBatch batch;
  batch.facility = 1;
  batch.sent_time_s = -0.0;
  batch.arrival_time_s = std::numeric_limits<double>::infinity();
  const double times[] = {0.0, -0.0, 1e-308, -1e-308, 1e308,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::infinity()};
  std::uint64_t tag = 1;
  for (const double t : times) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{tag++};
    ev.time_s = t;
    ev.rssi = DbmPower{-1e30};
    batch.events.push_back(ev);
  }
  const std::vector<std::uint8_t> payload = encode_event_batch(batch);
  const auto decoded = decode_event_batch(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == batch);
}

TEST(BatchCodecTest, DictionaryCompressesRepeatedTags) {
  // 256 re-reads of 4 tags: the EPC dictionary pays for each tag value
  // once, so the pooled batch must encode well below the same events
  // carrying 256 distinct wide EPCs — the dictionary is the point.
  Rng rng(7);
  const EventBatch batch = make_batch(rng, 256, 4);
  const std::vector<std::uint8_t> pooled = encode_event_batch(batch);
  EventBatch spread = batch;
  for (std::size_t i = 0; i < spread.events.size(); ++i) {
    // 2^54-spaced EPCs: even delta-encoded, each dictionary entry costs
    // ~8 varint bytes, where the 4-tag pool pays for 4 entries total.
    spread.events[i].tag =
        scene::TagId{0x0100000000000000ull + i * 0x0040000000000000ull};
  }
  const std::vector<std::uint8_t> wide = encode_event_batch(spread);
  EXPECT_LT(pooled.size() + 1024, wide.size());
}

/// A batch built to need the longest encodings: EPCs near 0 and 2^64,
/// reader and antenna indices that take 10-byte varints, and time and
/// RSSI bit patterns (the hostile doubles plus arbitrary bits) whose
/// deltas do too.
EventBatch hostile_batch(Rng& rng, std::size_t events) {
  const auto any_bits = [&rng] {
    return static_cast<std::uint64_t>(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                                      std::numeric_limits<std::int64_t>::max()));
  };
  const double doubles[] = {0.0, -0.0, 1e-308, -1e-308, 1e308,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -1e30};
  const auto pick_double = [&] {
    return rng.bernoulli(0.5) ? doubles[rng.uniform_int(0, 8)]
                              : std::bit_cast<double>(any_bits());
  };
  const std::uint64_t epcs[] = {0, 1, ~0ull, ~0ull - 1, 1ull << 63};
  const std::uint64_t indices[] = {0, 127, 128, ~0ull, ~0ull >> 1};
  EventBatch batch;
  batch.facility = static_cast<std::uint32_t>(any_bits());
  batch.sent_time_s = pick_double();
  batch.arrival_time_s = pick_double();
  for (std::size_t i = 0; i < events; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{rng.bernoulli(0.5) ? epcs[rng.uniform_int(0, 4)] : any_bits()};
    ev.time_s = pick_double();
    ev.reader_index = static_cast<std::size_t>(
        rng.bernoulli(0.5) ? indices[rng.uniform_int(0, 4)] : any_bits());
    ev.antenna_index = static_cast<std::size_t>(
        rng.bernoulli(0.5) ? indices[rng.uniform_int(0, 4)] : any_bits());
    ev.rssi = DbmPower{pick_double()};
    batch.events.push_back(ev);
  }
  return batch;
}

TEST(BatchCodecTest, FrameBuiltInPlaceEqualsFramedPayload) {
  // encode_event_batch_frame writes the payload straight into the frame
  // through a buffer sized for the worst case; its bytes must equal
  // framing the separately encoded payload, for ordinary and for
  // maximally wide batches alike.
  Rng rng(2026);
  for (int trial = 0; trial < 120; ++trial) {
    const auto events = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const EventBatch batch =
        trial % 2 == 0 ? make_batch(rng, events, 1 + events / 4) : hostile_batch(rng, events);
    const std::vector<std::uint8_t> payload = encode_event_batch(batch);
    EXPECT_EQ(encode_event_batch_frame(batch), make_frame(OpCode::kEventBatch, payload))
        << "trial " << trial;
    const auto decoded = decode_event_batch(payload.data(), payload.size());
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_TRUE(*decoded == batch) << "trial " << trial;
  }
}

TEST(BatchCodecTest, FrameRoundTripThroughDecoder) {
  Rng rng(11);
  const EventBatch batch = make_batch(rng, 32, 8);
  const std::vector<std::uint8_t> frame = encode_event_batch_frame(batch);
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.frame.opcode, OpCode::kEventBatch);
  const auto decoded = decode_event_batch(res.frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == batch);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(BatchCodecTest, FrameBytesArePinned) {
  // Unsorted tags, one tag read twice, and the extreme EPCs 0 and 2^64-1:
  // the dictionary order and every event's index into it are on the wire,
  // so a change in how the encoder ranks tags shows here byte for byte.
  EventBatch batch;
  batch.facility = 3;
  batch.sent_time_s = 12.5;
  batch.arrival_time_s = 12.75;
  const auto read = [](std::uint64_t tag, double t, std::size_t reader,
                       std::size_t antenna, double rssi) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{tag};
    ev.time_s = t;
    ev.reader_index = reader;
    ev.antenna_index = antenna;
    ev.rssi = DbmPower{rssi};
    return ev;
  };
  batch.events = {read(900, 12.0, 1, 0, -55.5), read(~0ull, 12.125, 0, 2, -61.25),
                  read(0, 12.25, 2, 1, -58.0), read(900, 12.375, 1, 1, -55.0),
                  read(17, 12.5, 3, 0, -70.0)};
  EXPECT_EQ(hex(encode_event_batch_frame(batch)),
            "017c00000022010300000000000029400000000000802940040011f3"
            "06fbf8ffffffffffffff0105020100ffffffffffff7fffffffffffff"
            "9fb47f03000280808080808020808080808080f00200020180808080"
            "808020ffffffffffffcf0102010180808080808020ffffffffffffbf"
            "01010300808080808080208080808080808006ef88");
}

TEST(BatchCodecTest, RejectsTrailingBytes) {
  Rng rng(13);
  const EventBatch batch = make_batch(rng, 8, 4);
  std::vector<std::uint8_t> payload = encode_event_batch(batch);
  payload.push_back(0x00);
  EXPECT_FALSE(decode_event_batch(payload.data(), payload.size()).has_value());
}

TEST(BatchCodecTest, RejectsEveryTruncation) {
  Rng rng(17);
  const EventBatch batch = make_batch(rng, 16, 6);
  const std::vector<std::uint8_t> payload = encode_event_batch(batch);
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(decode_event_batch(payload.data(), keep).has_value())
        << "accepted a " << keep << "-byte prefix of " << payload.size();
  }
}

TEST(BatchCodecTest, StrictDecodeNeverCrashesOnBitFlips) {
  // The payload decoder (below the CRC — this is what a CRC collision
  // would expose it to) must classify or survive every single-bit flip,
  // never crash. Run under ASan/UBSan in CI.
  Rng rng(19);
  const EventBatch batch = make_batch(rng, 24, 8);
  const std::vector<std::uint8_t> payload = encode_event_batch(batch);
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = payload;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (!decode_event_batch(damaged.data(), damaged.size()).has_value()) {
      ++rejected;
    }
  }
  // Most flips land in varints/counts and must be rejected; flips inside a
  // raw double bit pattern decode to a different-but-valid batch (that is
  // the CRC's job to catch, one layer up).
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rfidsim::wire
