#include "common/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rfidsim {
namespace {

/// Ranks `keys` with radix_sort and with std::stable_sort by key, and
/// compares the whole permutation: ties must keep their input order.
void expect_matches_stable_sort(const std::vector<std::uint64_t>& keys) {
  std::vector<RadixItem> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) items[i] = {keys[i], i};
  std::vector<RadixItem> reference = items;
  std::stable_sort(reference.begin(), reference.end(),
                   [](const RadixItem& a, const RadixItem& b) { return a.key < b.key; });
  radix_sort(items);
  ASSERT_EQ(items.size(), reference.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].index, reference[i].index) << "rank " << i;
    ASSERT_EQ(items[i].key, reference[i].key) << "rank " << i;
  }
}

TEST(RadixSortTest, MatchesStableSortOnEveryKeySetAndSize) {
  using KeyGen = std::function<std::uint64_t(Rng&)>;
  const std::vector<std::pair<std::string, KeyGen>> key_sets{
      {"random 64-bit", [](Rng& rng) { return rng.next_u64(); }},
      {"many duplicates",
       [](Rng& rng) { return static_cast<std::uint64_t>(rng.uniform_int(0, 7)) * 0x0101'0101'0101ull; }},
      {"all equal", [](Rng&) { return std::uint64_t{0xdead'beef'0000'0042ull}; }},
      {"top byte only",
       [](Rng& rng) { return (rng.next_u64() & 0xff00'0000'0000'0000ull) | 0x1234'5678ull; }},
      {"bottom byte only",
       [](Rng& rng) { return 0xabcd'0000'0000'0000ull | (rng.next_u64() & 0xff); }},
  };
  for (const auto& [name, gen] : key_sets) {
    for (const std::size_t n : {0, 1, 2, 31, 32, 128, 129, 4000, 70000}) {
      SCOPED_TRACE(testing::Message() << name << ", n = " << n);
      Rng rng(1000 + n);
      std::vector<std::uint64_t> keys(n);
      for (std::uint64_t& key : keys) key = gen(rng);
      expect_matches_stable_sort(keys);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RadixSortTest, DoubleKeysKeepOrderAndEquality) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<double> values{-0.0,  0.0,   kDenorm, -kDenorm, 1e-300, -1e-300,
                             kMax,  -kMax,  kInf,    -kInf,    1.0,    -1.0};
  Rng rng(20070626);
  for (int i = 0; i < 2000; ++i) {
    // Arbitrary bit patterns (NaN excluded) and ordinary pass times.
    const double bits = std::bit_cast<double>(rng.next_u64());
    if (!std::isnan(bits)) values.push_back(bits);
    values.push_back(rng.uniform(-10.0, 10.0));
  }
  for (const double a : values) {
    for (const double b : {values[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(values.size()) - 1))],
                           -0.0, 0.0, kDenorm, -kInf, kInf, a}) {
      ASSERT_EQ(a < b, radix_key(a) < radix_key(b)) << a << " vs " << b;
      ASSERT_EQ(a == b, radix_key(a) == radix_key(b)) << a << " vs " << b;
    }
  }
  EXPECT_EQ(radix_key(-0.0), radix_key(0.0));
}

TEST(RadixSortTest, SignedZerosTieAndKeepInputOrder) {
  // -0.0 == +0.0, so a stable sort by time keeps them in input order.
  const std::vector<double> times{0.5, 0.0, -0.0, -1e-300, 0.0, -0.0};
  std::vector<RadixItem> items(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) items[i] = {radix_key(times[i]), i};
  radix_sort(items);
  std::vector<std::uint64_t> order;
  for (const RadixItem& item : items) order.push_back(item.index);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1, 2, 4, 5, 0}));
}

}  // namespace
}  // namespace rfidsim
