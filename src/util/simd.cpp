#include "util/simd.hpp"

namespace fedra::simd {

namespace {

Tier detect() {
#if defined(__x86_64__) && defined(__GNUC__)
  // Static initializers may ask before the runtime has probed the CPU.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Tier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

}  // namespace

Tier host_tier() {
  static const Tier tier = detect();
  return tier;
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kAvx512: return "avx512f";
    case Tier::kAvx2: return "avx2";
    case Tier::kScalar: break;
  }
  return "scalar";
}

}  // namespace fedra::simd
