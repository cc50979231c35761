// The one sort kernel of the ingest path: a stable LSD radix sort of
// (u64 key, index) pairs, and the order-preserving map that gives a double
// a u64 key. The wire encoder ranks a frame's tags with it (the EPC
// dictionary), the feed ranks a pass's reads by time (transport dedup and
// silence gaps), and the store ranks EPCs for its digest and checkpoints.
//
// Stability is the contract: items with equal keys keep their input order.
// Each caller builds its items in index order, so the result is exactly
// the order a sort of (key, index) pairs gives.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfidsim {

/// One item to rank: its key, and the caller's index of what it stands for.
struct RadixItem {
  std::uint64_t key = 0;
  std::uint64_t index = 0;
};

/// Maps `x` onto a u64 with the same order: a < b iff radix_key(a) <
/// radix_key(b), and a == b iff radix_key(a) == radix_key(b), so -0.0 and
/// +0.0 get one key. NaN is outside the contract (it has no place in the
/// order); callers validate their values before ranking them.
inline std::uint64_t radix_key(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
  // A negative value flips every bit, so a larger magnitude ranks lower; a
  // non-negative one sets the sign bit, so it ranks above every negative.
  return bits ^ ((0 - (bits >> 63)) | (std::uint64_t{1} << 63));
}

/// Sorts `items` by key, stably. One counting pass per byte digit, least
/// significant first, skipping every digit on which all keys agree (read
/// off the OR and the AND of the keys): tag ids below 2^16 pay for two
/// digits, not eight.
inline void radix_sort(std::vector<RadixItem>& items) {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const RadixItem& item : items) {
    any |= item.key;
    all &= item.key;
  }
  const std::uint64_t varying = any & ~all;
  if (varying == 0) return;
  std::vector<RadixItem> scratch(items.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::size_t offsets[256] = {};
    for (const RadixItem& item : items) ++offsets[(item.key >> shift) & 0xff];
    std::size_t next = 0;
    for (std::size_t& offset : offsets) {
      const std::size_t count = offset;
      offset = next;
      next += count;
    }
    for (const RadixItem& item : items) scratch[offsets[(item.key >> shift) & 0xff]++] = item;
    items.swap(scratch);
  }
}

}  // namespace rfidsim
