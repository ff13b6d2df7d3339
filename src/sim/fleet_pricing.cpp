#include "sim/fleet_pricing.hpp"

namespace fedra::fleet {

namespace {

// ---- Kernel bodies -----------------------------------------------------
//
// Operation-for-operation the DeviceProfile member math: the clamp is
// std::clamp(f, frac*max, max) spelled out on values, t_cmp is
// ((tau*c)*D)/f, E_cmp is ((((tau*alpha)*c)*D)*f)*f — matching
// compute_time()/compute_energy() left-to-right evaluation so the columnar
// path is bit-exact against the per-device AoS loop. Selects instead of
// branches let every tier vectorize them; lanes are independent devices.

/// std::clamp(v, lo, hi) by value, NaN semantics included.
FEDRA_ALWAYS_INLINE double clamp(double v, double lo, double hi) {
  return v < lo ? lo : (hi < v ? hi : v);
}

FEDRA_ALWAYS_INLINE void price_compute_body(
    std::size_t n, double tau, double min_freq_fraction,
    const double* __restrict cycles_per_bit,
    const double* __restrict dataset_bits,
    const double* __restrict capacitance,
    const double* __restrict max_freq_hz, const double* __restrict freqs_in,
    double* __restrict freq_hz, double* __restrict compute_time,
    double* __restrict compute_energy) {
  for (std::size_t i = 0; i < n; ++i) {
    const double f = clamp(freqs_in[i], min_freq_fraction * max_freq_hz[i],
                           max_freq_hz[i]);
    freq_hz[i] = f;
    compute_time[i] = tau * cycles_per_bit[i] * dataset_bits[i] / f;
    compute_energy[i] =
        tau * capacitance[i] * cycles_per_bit[i] * dataset_bits[i] * f * f;
  }
}

FEDRA_ALWAYS_INLINE void deadline_freqs_body(
    std::size_t n, double tau, double min_freq_fraction, double deadline,
    const double* __restrict cycles_per_bit,
    const double* __restrict dataset_bits,
    const double* __restrict max_freq_hz,
    const double* __restrict est_comm_times, double* __restrict freqs_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double budget = deadline - est_comm_times[i];
    // A device that cannot make the deadline runs flat out.
    const double f = budget <= 0.0
                         ? max_freq_hz[i]
                         : tau * cycles_per_bit[i] * dataset_bits[i] / budget;
    freqs_out[i] =
        clamp(f, min_freq_fraction * max_freq_hz[i], max_freq_hz[i]);
  }
}

FEDRA_ALWAYS_INLINE void predicted_terms_body(
    std::size_t n, double tau, const double* __restrict cycles_per_bit,
    const double* __restrict dataset_bits,
    const double* __restrict capacitance, const double* __restrict tx_power_w,
    const double* __restrict est_comm_times,
    const double* __restrict freqs_hz, double* __restrict time_out,
    double* __restrict energy_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double tcmp = tau * cycles_per_bit[i] * dataset_bits[i] / freqs_hz[i];
    time_out[i] = tcmp + est_comm_times[i];
    const double ce = tau * capacitance[i] * cycles_per_bit[i] *
                      dataset_bits[i] * freqs_hz[i] * freqs_hz[i];
    energy_out[i] = ce + tx_power_w[i] * est_comm_times[i];
  }
}

constexpr PricingKernels kernels_for(simd::Tier tier) {
  return {simd::PerTier<&price_compute_body>::at(tier),
          simd::PerTier<&deadline_freqs_body>::at(tier),
          simd::PerTier<&predicted_terms_body>::at(tier)};
}

constexpr PricingKernels kKernels[simd::kNumTiers] = {
    kernels_for(simd::Tier::kScalar), kernels_for(simd::Tier::kAvx2),
    kernels_for(simd::Tier::kAvx512)};

const PricingKernels& host_kernels() {
  static const PricingKernels& k = pricing_kernels(simd::host_tier());
  return k;
}

}  // namespace

const PricingKernels& pricing_kernels(simd::Tier tier) {
  return kKernels[static_cast<std::size_t>(tier)];
}

const char* simd_tier() { return simd::tier_name(simd::host_tier()); }

void price_compute(std::size_t n, double tau, double min_freq_fraction,
                   const double* cycles_per_bit, const double* dataset_bits,
                   const double* capacitance, const double* max_freq_hz,
                   const double* freqs_in, double* freq_hz,
                   double* compute_time, double* compute_energy) {
  host_kernels().price_compute(n, tau, min_freq_fraction, cycles_per_bit,
                               dataset_bits, capacitance, max_freq_hz,
                               freqs_in, freq_hz, compute_time,
                               compute_energy);
}

void price_compute_reference(std::size_t n, double tau,
                             double min_freq_fraction,
                             const double* cycles_per_bit,
                             const double* dataset_bits,
                             const double* capacitance,
                             const double* max_freq_hz,
                             const double* freqs_in, double* freq_hz,
                             double* compute_time, double* compute_energy) {
  price_compute_body(n, tau, min_freq_fraction, cycles_per_bit, dataset_bits,
                     capacitance, max_freq_hz, freqs_in, freq_hz,
                     compute_time, compute_energy);
}

void deadline_freqs(std::size_t n, double tau, double min_freq_fraction,
                    double deadline, const double* cycles_per_bit,
                    const double* dataset_bits, const double* max_freq_hz,
                    const double* est_comm_times, double* freqs_out) {
  host_kernels().deadline_freqs(n, tau, min_freq_fraction, deadline,
                                cycles_per_bit, dataset_bits, max_freq_hz,
                                est_comm_times, freqs_out);
}

void deadline_freqs_reference(std::size_t n, double tau,
                              double min_freq_fraction, double deadline,
                              const double* cycles_per_bit,
                              const double* dataset_bits,
                              const double* max_freq_hz,
                              const double* est_comm_times,
                              double* freqs_out) {
  deadline_freqs_body(n, tau, min_freq_fraction, deadline, cycles_per_bit,
                      dataset_bits, max_freq_hz, est_comm_times, freqs_out);
}

void predicted_terms(std::size_t n, double tau, const double* cycles_per_bit,
                     const double* dataset_bits, const double* capacitance,
                     const double* tx_power_w, const double* est_comm_times,
                     const double* freqs_hz, double* time_out,
                     double* energy_out) {
  host_kernels().predicted_terms(n, tau, cycles_per_bit, dataset_bits,
                                 capacitance, tx_power_w, est_comm_times,
                                 freqs_hz, time_out, energy_out);
}

void predicted_terms_reference(std::size_t n, double tau,
                               const double* cycles_per_bit,
                               const double* dataset_bits,
                               const double* capacitance,
                               const double* tx_power_w,
                               const double* est_comm_times,
                               const double* freqs_hz, double* time_out,
                               double* energy_out) {
  predicted_terms_body(n, tau, cycles_per_bit, dataset_bits, capacitance,
                       tx_power_w, est_comm_times, freqs_hz, time_out,
                       energy_out);
}

}  // namespace fedra::fleet
