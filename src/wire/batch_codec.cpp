#include "wire/batch_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rfidsim::wire {

bool operator==(const EventBatch& a, const EventBatch& b) {
  using std::bit_cast;
  if (a.facility != b.facility ||
      bit_cast<std::uint64_t>(a.sent_time_s) != bit_cast<std::uint64_t>(b.sent_time_s) ||
      bit_cast<std::uint64_t>(a.arrival_time_s) !=
          bit_cast<std::uint64_t>(b.arrival_time_s) ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const sys::ReadEvent& x = a.events[i];
    const sys::ReadEvent& y = b.events[i];
    if (x.tag != y.tag ||
        bit_cast<std::uint64_t>(x.time_s) != bit_cast<std::uint64_t>(y.time_s) ||
        x.reader_index != y.reader_index || x.antenna_index != y.antenna_index ||
        bit_cast<std::uint64_t>(x.rssi.value()) !=
            bit_cast<std::uint64_t>(y.rssi.value())) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> encode_event_batch(const EventBatch& batch) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + batch.events.size() * 12);
  put_varint(out, batch.facility);
  put_u64le(out, std::bit_cast<std::uint64_t>(batch.sent_time_s));
  put_u64le(out, std::bit_cast<std::uint64_t>(batch.arrival_time_s));

  // EPC dictionary: distinct tag ids, ascending, delta-encoded.
  std::vector<std::uint64_t> dict;
  dict.reserve(batch.events.size());
  for (const sys::ReadEvent& ev : batch.events) dict.push_back(ev.tag.value);
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  put_varint(out, dict.size());
  std::uint64_t prev_epc = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    put_varint(out, i == 0 ? dict[0] : dict[i] - prev_epc);
    prev_epc = dict[i];
  }

  put_varint(out, batch.events.size());
  std::uint64_t prev_time_bits = std::bit_cast<std::uint64_t>(batch.sent_time_s);
  std::uint64_t prev_rssi_bits = 0;
  for (const sys::ReadEvent& ev : batch.events) {
    const auto it = std::lower_bound(dict.begin(), dict.end(), ev.tag.value);
    put_varint(out, static_cast<std::uint64_t>(it - dict.begin()));
    put_varint(out, ev.reader_index);
    put_varint(out, ev.antenna_index);
    const std::uint64_t time_bits = std::bit_cast<std::uint64_t>(ev.time_s);
    const std::uint64_t rssi_bits = std::bit_cast<std::uint64_t>(ev.rssi.value());
    put_varint_signed(out, static_cast<std::int64_t>(time_bits - prev_time_bits));
    put_varint_signed(out, static_cast<std::int64_t>(rssi_bits - prev_rssi_bits));
    prev_time_bits = time_bits;
    prev_rssi_bits = rssi_bits;
  }
  return out;
}

std::vector<std::uint8_t> encode_event_batch_frame(const EventBatch& batch) {
  return make_frame(OpCode::kEventBatch, encode_event_batch(batch));
}

std::optional<EventBatch> decode_event_batch(const std::uint8_t* payload,
                                             std::size_t size) {
  Reader in{payload, size, 0};
  EventBatch batch;
  std::uint64_t facility = 0;
  if (!in.get_varint(facility) || facility > 0xFFFFFFFFull) return std::nullopt;
  batch.facility = static_cast<std::uint32_t>(facility);
  std::uint64_t sent_bits = 0, arrival_bits = 0;
  if (!in.get_u64le(sent_bits) || !in.get_u64le(arrival_bits)) return std::nullopt;
  batch.sent_time_s = std::bit_cast<double>(sent_bits);
  batch.arrival_time_s = std::bit_cast<double>(arrival_bits);

  std::uint64_t dict_size = 0;
  if (!in.get_varint(dict_size)) return std::nullopt;
  // A dictionary entry costs at least one byte on the wire; a count beyond
  // the remaining payload is malformed, not a huge allocation.
  if (dict_size > size - in.pos) return std::nullopt;
  std::vector<std::uint64_t> dict(static_cast<std::size_t>(dict_size));
  std::uint64_t prev_epc = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    std::uint64_t delta = 0;
    if (!in.get_varint(delta)) return std::nullopt;
    if (i > 0 && (delta == 0 || delta > ~prev_epc)) return std::nullopt;
    prev_epc = i == 0 ? delta : prev_epc + delta;
    dict[i] = prev_epc;
  }

  std::uint64_t count = 0;
  if (!in.get_varint(count)) return std::nullopt;
  // Each event costs at least 5 bytes (five varints).
  if (count > (size - in.pos) / 5 + 1) return std::nullopt;
  batch.events.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev_time_bits = sent_bits;
  std::uint64_t prev_rssi_bits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t dict_index = 0, reader = 0, antenna = 0;
    std::int64_t time_delta = 0, rssi_delta = 0;
    if (!in.get_varint(dict_index) || !in.get_varint(reader) ||
        !in.get_varint(antenna) || !in.get_varint_signed(time_delta) ||
        !in.get_varint_signed(rssi_delta)) {
      return std::nullopt;
    }
    if (dict_index >= dict.size()) return std::nullopt;
    sys::ReadEvent ev;
    ev.tag = scene::TagId{dict[static_cast<std::size_t>(dict_index)]};
    ev.reader_index = static_cast<std::size_t>(reader);
    ev.antenna_index = static_cast<std::size_t>(antenna);
    prev_time_bits += static_cast<std::uint64_t>(time_delta);
    prev_rssi_bits += static_cast<std::uint64_t>(rssi_delta);
    ev.time_s = std::bit_cast<double>(prev_time_bits);
    ev.rssi = DbmPower{std::bit_cast<double>(prev_rssi_bits)};
    batch.events.push_back(ev);
  }
  if (!in.done()) return std::nullopt;  // Trailing bytes: malformed.
  return batch;
}

std::optional<EventBatch> decode_event_batch(const FrameView& frame) {
  if (frame.opcode != OpCode::kEventBatch) return std::nullopt;
  return decode_event_batch(frame.payload, frame.payload_size);
}

}  // namespace rfidsim::wire
