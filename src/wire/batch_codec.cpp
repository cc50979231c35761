#include "wire/batch_codec.hpp"

#include <bit>

#include "common/radix_sort.hpp"

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

namespace {

/// Appends `batch`'s payload to `out`, written through one pointer into
/// room sized for the worst case and then trimmed to what was written.
void append_event_batch(std::vector<std::uint8_t>& out, const EventBatch& batch) {
  // EPC dictionary: distinct tag ids, ascending, delta-encoded. Ranking
  // the events by tag yields the dictionary and every event's index into
  // it in one walk.
  const std::size_t count = batch.events.size();
  std::vector<RadixItem> by_tag(count);
  for (std::size_t i = 0; i < count; ++i) by_tag[i] = {batch.events[i].tag.value, i};
  radix_sort(by_tag);
  std::vector<std::uint64_t> dict;
  dict.reserve(count);
  std::vector<std::size_t> dict_index(count);
  for (const auto& [tag, event] : by_tag) {
    if (dict.empty() || dict.back() != tag) dict.push_back(tag);
    dict_index[event] = dict.size() - 1;
  }

  // Facility, dictionary size and event count are varints, the two times
  // raw u64s; each dictionary entry is one varint and each event five.
  const std::size_t worst =
      16 + kMaxVarintBytes * (3 + dict.size()) + 5 * kMaxVarintBytes * count;
  const std::size_t begin = out.size();
  out.resize(begin + worst);
  std::uint8_t* p = out.data() + begin;
  p = write_varint(p, batch.facility);
  p = write_u64le(p, std::bit_cast<std::uint64_t>(batch.sent_time_s));
  p = write_u64le(p, std::bit_cast<std::uint64_t>(batch.arrival_time_s));
  p = write_varint(p, dict.size());
  std::uint64_t prev_epc = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    p = write_varint(p, i == 0 ? dict[0] : dict[i] - prev_epc);
    prev_epc = dict[i];
  }

  p = write_varint(p, count);
  std::uint64_t prev_time_bits = std::bit_cast<std::uint64_t>(batch.sent_time_s);
  std::uint64_t prev_rssi_bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const sys::ReadEvent& ev = batch.events[i];
    p = write_varint(p, dict_index[i]);
    p = write_varint(p, ev.reader_index);
    p = write_varint(p, ev.antenna_index);
    const std::uint64_t time_bits = std::bit_cast<std::uint64_t>(ev.time_s);
    const std::uint64_t rssi_bits = std::bit_cast<std::uint64_t>(ev.rssi.value());
    p = write_varint(p, zigzag(static_cast<std::int64_t>(time_bits - prev_time_bits)));
    p = write_varint(p, zigzag(static_cast<std::int64_t>(rssi_bits - prev_rssi_bits)));
    prev_time_bits = time_bits;
    prev_rssi_bits = rssi_bits;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

}  // namespace

std::vector<std::uint8_t> encode_event_batch(const EventBatch& batch) {
  std::vector<std::uint8_t> out;
  append_event_batch(out, batch);
  return out;
}

std::vector<std::uint8_t> encode_event_batch_frame(const EventBatch& batch) {
  std::vector<std::uint8_t> out;
  const std::size_t frame = open_frame(out, OpCode::kEventBatch);
  append_event_batch(out, batch);
  close_frame(out, frame);
  return out;
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
