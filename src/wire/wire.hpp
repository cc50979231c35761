// rfidsim::wire — checksummed binary framing for the reader-to-backend path.
//
// Until now the uplink shipped CSV text over an idealized channel, so
// fault-layer corruption was row mangling and detection meant "the parser
// choked". Real readers speak compact binary framing — the ThingMagic
// Mercury API that SNIPPETS.md documents is the canonical example — and
// real corruption is bit-level: a flipped bit in a serial stream, a burst
// from a brownout, a torn-down connection mid-frame. This module is that
// wire: every payload travels inside a framed, CRC-16-protected envelope,
// and the decoder *classifies* every way a frame can be bad instead of
// guessing.
//
// Frame layout (Mercury-style, widened for batch payloads):
//
//   ┌────────┬─────────┬────────┬─────────┬──────────────┬─────────┐
//   │  SOH   │ Length  │ OpCode │ Version │   Payload    │  CRC-16 │
//   │ 1 byte │ 4 bytes │ 1 byte │ 1 byte  │  LEN bytes   │ 2 bytes │
//   │  0x01  │ LE u32  │        │         │              │ BE      │
//   └────────┴─────────┴────────┴─────────┴──────────────┴─────────┘
//
// As in the Mercury protocol, the length field counts payload bytes only
// (total frame size = LEN + kFrameOverhead) and the CRC covers everything
// from the length field through the end of the payload — the header byte
// is excluded so it can serve as a pure resynchronization mark. The CRC is
// CRC-16-CCITT (poly 0x1021, init 0xFFFF), stored big-endian, which is the
// ThingMagic convention.
//
// Decode contract: next_frame() never throws and never reads out of
// bounds. A good frame yields a FrameView into the buffer; a bad one
// yields a typed DecodeErrorKind plus the offset at which to resume
// scanning — the decoder resynchronizes by hunting for the next SOH byte,
// so one corrupt frame costs one frame, not the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfidsim::wire {

/// Frame sync byte: ASCII SOH ("start of heading").
inline constexpr std::uint8_t kSoh = 0x01;

/// Bytes of envelope around the payload: SOH(1) + length(4) + opcode(1) +
/// version(1) + CRC(2).
inline constexpr std::size_t kFrameOverhead = 9;

/// Payload size cap. Large enough for a checkpoint shard chunk, small
/// enough that a corrupted length field cannot make the decoder reserve
/// gigabytes: any length beyond this is classified kBadLength.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

/// Frame types. Values are sparse on purpose (a flipped bit in the opcode
/// should usually land on an unknown opcode, not another valid one).
enum class OpCode : std::uint8_t {
  kEventBatch = 0x22,       ///< One uploaded event batch (batch_codec).
  kCheckpointHeader = 0x60, ///< Store snapshot: stats + shard roster.
  kCheckpointShard = 0x61,  ///< Store snapshot: one shard's timelines.
  kCheckpointEnd = 0x62,    ///< Store snapshot: closing digest.
};

/// Payload format revision carried by every frame. Decoders accept only
/// versions they know; anything else is kUnknownVersion (forward
/// compatibility is explicit, never silent).
inline constexpr std::uint8_t kWireVersion = 1;

/// Why a frame failed to decode. The taxonomy is the observable corruption
/// surface: each kind gets its own counter so an ablation can attribute
/// damage, and tests can assert that a given injected fault is detected
/// *as what it is*.
enum class DecodeErrorKind : std::uint8_t {
  kBadMagic = 0,        ///< Byte at the read position is not SOH.
  kTruncated = 1,       ///< Buffer ends inside the envelope or payload.
  kBadLength = 2,       ///< Length field exceeds kMaxPayloadBytes.
  kBadCrc = 3,          ///< CRC mismatch over length..payload.
  kUnknownVersion = 4,  ///< Version byte the decoder does not speak.
  kUnknownOpcode = 5,   ///< Opcode outside the known set.
  kBadPayload = 6,      ///< Envelope fine, payload malformed (codec layer).
};

/// Stable lower-snake name ("bad_crc", "truncated", ...) for counters,
/// alerts, and log lines.
const char* decode_error_name(DecodeErrorKind kind);

/// One successfully framed region of a byte buffer (payload points into
/// the caller's buffer; valid while the buffer is).
struct FrameView {
  OpCode opcode{};
  std::uint8_t version = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

/// Result of one next_frame() step.
struct DecodeResult {
  bool ok = false;
  FrameView frame;             ///< Valid when ok.
  DecodeErrorKind error{};     ///< Valid when !ok.
  /// Offset at which to continue scanning: one past the consumed frame
  /// when ok; the next SOH at or after the failure point (or the buffer
  /// end) when !ok — the resynchronization contract.
  std::size_t next_offset = 0;
};

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF), table-driven, eight bytes per
/// step (slice-by-8). This is the checksum the ThingMagic framing uses over
/// length..payload.
std::uint16_t crc16(const std::uint8_t* data, std::size_t size);
std::uint16_t crc16(const std::vector<std::uint8_t>& data);

/// Starts a frame at the end of `out`: SOH, a length placeholder, the
/// opcode and the version. Whatever the caller appends next is the
/// payload. Returns the frame's offset in `out`, for close_frame.
std::size_t open_frame(std::vector<std::uint8_t>& out, OpCode opcode,
                       std::uint8_t version = kWireVersion);

/// Finishes the frame open_frame started at `frame_offset`: patches its
/// length field with the payload bytes appended since and appends the CRC.
/// Throws ConfigError if the payload exceeds kMaxPayloadBytes.
void close_frame(std::vector<std::uint8_t>& out, std::size_t frame_offset);

/// Appends one complete frame (envelope + payload + CRC) to `out`.
/// Throws ConfigError, leaving `out` untouched, if `payload` exceeds
/// kMaxPayloadBytes.
void append_frame(std::vector<std::uint8_t>& out, OpCode opcode,
                  const std::vector<std::uint8_t>& payload,
                  std::uint8_t version = kWireVersion);

/// Convenience: one frame as its own buffer.
std::vector<std::uint8_t> make_frame(OpCode opcode,
                                     const std::vector<std::uint8_t>& payload,
                                     std::uint8_t version = kWireVersion);

/// Decodes the frame starting at `offset`. Never throws; see DecodeResult
/// for the resynchronization contract. `offset == size` yields a
/// kTruncated result with next_offset == size (the natural end-of-stream).
DecodeResult next_frame(const std::uint8_t* data, std::size_t size,
                        std::size_t offset);
DecodeResult next_frame(const std::vector<std::uint8_t>& buffer,
                        std::size_t offset = 0);

// --- Varint primitives (shared by batch and checkpoint codecs) ---------
//
// LEB128 unsigned varints and zigzag-mapped signed varints: the compact
// integer encoding the payload codecs build on. Reads are bounds- and
// length-checked (max 10 bytes), returning false on malformed input
// instead of throwing — the codec layer turns that into kBadPayload.

/// Longest varint encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `value` as a varint at `out`, which must have room for
/// kMaxVarintBytes, and returns one past the last byte written. The one
/// varint encoder: put_varint wraps it.
inline std::uint8_t* write_varint(std::uint8_t* out, std::uint64_t value) {
  while (value >= 0x80u) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80u;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_varint_signed(std::vector<std::uint8_t>& out, std::int64_t value);

/// Cursor over a payload for checked reads.
struct Reader {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  bool done() const { return pos >= size; }
  bool get_varint(std::uint64_t& value);
  bool get_varint_signed(std::int64_t& value);
  bool get_u8(std::uint8_t& value);
  /// Raw little-endian u64 (used for the checkpoint digest field, where
  /// varint encoding would save nothing on a uniformly random hash).
  bool get_u64le(std::uint64_t& value);
};

/// Writes `value` as 8 little-endian bytes at `out` and returns one past
/// them. put_u64le wraps it.
inline std::uint8_t* write_u64le(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) *out++ = static_cast<std::uint8_t>(value >> (8 * i));
  return out;
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Zigzag mapping for signed deltas (0,-1,1,-2,... -> 0,1,2,3,...).
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Inline: the batch decoder reads five varints per event.
inline bool Reader::get_varint(std::uint64_t& value) {
  std::uint64_t result = 0;
  for (std::size_t shift = 0; shift < 70; shift += 7) {
    if (pos >= size) return false;
    const std::uint8_t byte = data[pos++];
    if (shift == 63 && (byte & 0xFEu)) return false;  // Overflows 64 bits.
    result |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      value = result;
      return true;
    }
  }
  return false;  // More than 10 continuation bytes.
}

inline bool Reader::get_varint_signed(std::int64_t& value) {
  std::uint64_t raw = 0;
  if (!get_varint(raw)) return false;
  value = unzigzag(raw);
  return true;
}

}  // namespace rfidsim::wire
