// Vectorized fleet pricing kernels — Eqs. (1)/(6) and the deadline-solver
// per-device math evaluated across structure-of-arrays device columns.
//
// Each kernel is one scalar loop, compiled once per SIMD tier through
// util/simd.hpp and dispatched to the host's tier. The `*_reference`
// functions run the same loop for the baseline ISA: they are the oracle
// the property tests and the fleet bench compare against. Every tier is
// bit-identical to the oracle for every input, NaN and ±inf included: the
// loops are pure element-wise maps (no cross-lane reductions, so SIMD
// width never touches summation order), their clamps are selects with
// std::clamp's semantics, and the libraries are built with
// -ffp-contract=off, so no tier fuses a multiply and an add.
//
// All functions take raw column pointers (length n) rather than spans so
// tests can poison the padding beyond n and assert the kernels never read
// or write it. No output column may overlap any other column of the same
// call: the kernels are compiled on that assumption (`__restrict`).
#pragma once

#include <cstddef>

#include "util/simd.hpp"

namespace fedra::fleet {

/// Compute-side pricing for n devices: clamps the requested frequency to
/// [min_freq_fraction * max, max] (DeviceProfile semantics), then
/// t_cmp = tau*c*D / f (Eq. 1) and E_cmp = tau*alpha*c*D*f^2 (Eq. 6).
/// Output columns freq_hz / compute_time / compute_energy (length n).
void price_compute(std::size_t n, double tau, double min_freq_fraction,
                   const double* cycles_per_bit, const double* dataset_bits,
                   const double* capacitance, const double* max_freq_hz,
                   const double* freqs_in, double* freq_hz,
                   double* compute_time, double* compute_energy);
/// Scalar oracle for price_compute (bitwise target of every tier).
void price_compute_reference(std::size_t n, double tau,
                             double min_freq_fraction,
                             const double* cycles_per_bit,
                             const double* dataset_bits,
                             const double* capacitance,
                             const double* max_freq_hz,
                             const double* freqs_in, double* freq_hz,
                             double* compute_time, double* compute_energy);

/// Minimal feasible frequency per device to finish computing by `deadline`
/// given estimated comm times: f = tau*c*D / (deadline - est), devices
/// that cannot make it run at max, all clamped to [floor, max]. The
/// vector path of sched's freqs_for_deadline.
void deadline_freqs(std::size_t n, double tau, double min_freq_fraction,
                    double deadline, const double* cycles_per_bit,
                    const double* dataset_bits, const double* max_freq_hz,
                    const double* est_comm_times, double* freqs_out);
void deadline_freqs_reference(std::size_t n, double tau,
                              double min_freq_fraction, double deadline,
                              const double* cycles_per_bit,
                              const double* dataset_bits,
                              const double* max_freq_hz,
                              const double* est_comm_times,
                              double* freqs_out);

/// Predicted per-device completion time (t_cmp + est) and round energy
/// (E_cmp + e*est) under estimated comm times — the per-device terms of
/// sched's predicted_cost, whose reduction stays a sequential scalar sum.
void predicted_terms(std::size_t n, double tau, const double* cycles_per_bit,
                     const double* dataset_bits, const double* capacitance,
                     const double* tx_power_w, const double* est_comm_times,
                     const double* freqs_hz, double* time_out,
                     double* energy_out);
void predicted_terms_reference(std::size_t n, double tau,
                               const double* cycles_per_bit,
                               const double* dataset_bits,
                               const double* capacitance,
                               const double* tx_power_w,
                               const double* est_comm_times,
                               const double* freqs_hz, double* time_out,
                               double* energy_out);

/// The three kernels as compiled for one SIMD tier. The functions above
/// run the host tier's entry; tests run every tier the host executes.
struct PricingKernels {
  decltype(&fleet::price_compute) price_compute;
  decltype(&fleet::deadline_freqs) deadline_freqs;
  decltype(&fleet::predicted_terms) predicted_terms;
};
const PricingKernels& pricing_kernels(simd::Tier tier);

/// Widest tier this CPU dispatches to: "avx512f", "avx2", or "scalar"
/// (bench reporting; tier choice never affects bits).
const char* simd_tier();

}  // namespace fedra::fleet
