// Reference outputs of one epoch at the default seed, per workload.
//
// A run at the default seed must reproduce these bit for bit (they are
// thread-count and obs invariant). Regenerate them only when the workload
// definition itself changes: run `pipebench --workload <name> --seed 1`
// and copy the values of the `reference` line it prints.
#pragma once

#include <array>
#include <cstdint>

namespace pipebench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct GoldenOutputs {
  const char* workload;
  std::uint64_t store_digest;
  std::uint64_t query_digest;
  std::array<double, 4> facility_rc;
};

inline constexpr std::array<GoldenOutputs, 2> kGolden = {{
    {"portal_fleet", 0x54d54a026ed6b70fULL, 0xb62067727ec8dda9ULL,
     {0.96744791666666641, 0.99479166666666652, 0.99739583333333337, 0.98958333333333337}},
    {"backhaul_ingest", 0x1b8eb1a7e33abd32ULL, 0xa021aba665420372ULL,
     {0.56693760267832771, 0.61612416422539662, 0.60535999952284736, 0.61559795148650853}},
}};

}  // namespace pipebench
