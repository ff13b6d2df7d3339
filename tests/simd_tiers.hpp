// Per-tier registration of the bitwise oracle suites: a TEST_P over
// simd::Tier instantiated with host_tiers() runs once for every SIMD tier
// this CPU executes, so an AVX-512 host also runs the AVX2 and scalar
// bodies through the same kernel tables production dispatches through.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "util/simd.hpp"

namespace fedra {

namespace simd {
/// Prints a tier by name in gtest messages.
inline void PrintTo(Tier tier, std::ostream* os) { *os << tier_name(tier); }
}  // namespace simd

/// Every tier up to and including simd::host_tier().
inline std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers;
  for (std::size_t t = 0; t <= static_cast<std::size_t>(simd::host_tier());
       ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

/// Names each instantiation after its tier ("scalar", "avx2", "avx512f").
inline std::string tier_test_name(
    const ::testing::TestParamInfo<simd::Tier>& info) {
  return simd::tier_name(info.param);
}

}  // namespace fedra

/// Registers the TEST_Ps of `suite` once per tier the host executes.
#define FEDRA_INSTANTIATE_PER_TIER(suite)                            \
  INSTANTIATE_TEST_SUITE_P(Tiers, suite,                             \
                           ::testing::ValuesIn(::fedra::host_tiers()), \
                           ::fedra::tier_test_name)
