// The two hashes the simulator shares: the SplitMix64 finalizer (RNG fork
// seeds, store shard routing, provenance batch ids) and a 64-bit FNV-1a
// fold (store and query digests).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rfidsim {

/// SplitMix64 finalizer: a bijective 64-bit mix that spreads consecutive
/// inputs across the whole range.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Start value of an fnv1a() fold. Not the canonical FNV-1a basis
/// (14695981039346656037): every published digest was computed from this
/// one, so it stays.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Folds the eight little-endian bytes of `value` into `hash` (FNV-1a).
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace rfidsim
