// The one SIMD dispatch mechanism of the library.
//
// A vectorized kernel is written once, as an always-inline scalar loop
// (its `*_reference` oracle runs the same body), and compiled once per
// tier by thin wrappers that differ only in the instruction set the
// compiler may vectorize it with. src/CMakeLists.txt builds every library
// with -ffp-contract=off, so no tier can fuse a multiply and an add into
// one FMA: each tier rounds exactly the operations the body spells out,
// and all tiers are bit-identical to the scalar body. Each kernel module
// (tensor/ops, nn/fused, sim/fleet_pricing) keeps one table of kernels
// indexed by Tier; production runs the host_tier() entry and the tests run
// every entry the host can execute.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
/// Compiles one function for an x86 ISA extension ("avx2", "avx512f").
#define FEDRA_TARGET(isa) __attribute__((target(isa)))
#else
#define FEDRA_TARGET(isa)
#endif

/// Inlines a kernel body into each tier wrapper, so the body is compiled
/// for the wrapper's ISA.
#define FEDRA_ALWAYS_INLINE inline __attribute__((always_inline))

namespace fedra::simd {

/// Instruction-set tiers, narrowest first; the index of each module's
/// kernel table. Off x86-64 every tier compiles for the baseline ISA.
enum class Tier { kScalar, kAvx2, kAvx512 };
inline constexpr std::size_t kNumTiers = 3;

/// Widest tier this CPU executes, detected once per process.
Tier host_tier();

/// "scalar", "avx2" or "avx512f".
const char* tier_name(Tier tier);

/// Tier table of one elementwise kernel: `Body`, an always-inline loop,
/// compiled for the baseline ISA, for AVX2 and for AVX-512F.
template <auto Body>
struct PerTier;

template <class... Args, void (*Body)(Args...)>
struct PerTier<Body> {
  using Fn = void (*)(Args...);
  static void scalar(Args... args) { Body(args...); }
  FEDRA_TARGET("avx2") static void avx2(Args... args) { Body(args...); }
  FEDRA_TARGET("avx512f") static void avx512(Args... args) {
    Body(args...);
  }
  static constexpr Fn at(Tier tier) {
    return tier == Tier::kAvx512 ? &avx512
           : tier == Tier::kAvx2 ? &avx2
                                 : &scalar;
  }
};

}  // namespace fedra::simd
