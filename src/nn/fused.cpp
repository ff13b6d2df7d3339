#include "nn/fused.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace fedra {

namespace {

// ---------------------------------------------------------------------------
// The saturating-exp operation DAG. Per element:
//   clamp -> x*log2(e) -> magic-number round-to-nearest -> two-term
//   Cody-Waite reduction r = x - n*ln2 -> degree-12 Horner polynomial ->
//   scale by 2^n in two halves (n1 = n>>1, n2 = n-n1) assembled from raw
//   exponent bits.
// The two-half scaling keeps every 2^k factor a normal number for the
// whole clamped range (n in [-1075, 1023]), so even results that underflow
// to denormals round identically everywhere.
// ---------------------------------------------------------------------------

constexpr double kExpLo = -745.0;  ///< exp underflows to 0 just below
constexpr double kExpHi = 709.0;   ///< exp overflows to inf just above
constexpr double kLog2e = 1.4426950408889634074;
constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51
// Cody-Waite ln2 split; the head has 21 trailing zero bits, so n*kLn2Hi is
// exact for |n| <= 2^20 and the reduction loses nothing.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// exp(r) for |r| <= ln2/2 as the degree-12 Taylor polynomial (truncation
// error ~2e-16 relative, below one ulp), evaluated in Horner order.
constexpr double kExpC[13] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
};
constexpr double kTanhSat = 19.0625;  ///< tanh(x) rounds to 1.0 beyond this
constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// 2^k from raw exponent bits; k in [-538, 512] is always a normal number.
FEDRA_ALWAYS_INLINE double exp2k(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

/// exp(clamp(x)) for non-NaN x (the element functions keep NaN out, so
/// the float-to-int conversion below is always defined).
FEDRA_ALWAYS_INLINE double exp_core(double x) {
  double xc = x < kExpLo ? kExpLo : x;
  xc = xc > kExpHi ? kExpHi : xc;
  const double t = xc * kLog2e;
  const double tm = t + kMagic;
  const double nd = tm - kMagic;  // round-to-nearest-even integer
  const int n = static_cast<int>(nd);
  double r = xc - nd * kLn2Hi;
  r = r - nd * kLn2Lo;
  double p = kExpC[12];
#pragma GCC unroll 12
  for (int k = 11; k >= 0; --k) p = p * r + kExpC[k];
  const int n1 = n >> 1;
  const int n2 = n - n1;
  return (p * exp2k(n1)) * exp2k(n2);
}

// Element functions: a NaN input is replaced by 0 before the core and
// selected back at the end, so NaN propagates unchanged on every tier.

FEDRA_ALWAYS_INLINE double exp_elem(double x) {
  const bool nan = x != x;
  const double e = exp_core(nan ? 0.0 : x);
  return nan ? x : e;
}

FEDRA_ALWAYS_INLINE double tanh_elem(double x) {
  const bool nan = x != x;
  const double a = std::fabs(nan ? 0.0 : x);
  const double e = exp_core(2.0 * a);
  const double t = (e - 1.0) / (e + 1.0);
  const double sat = a > kTanhSat ? 1.0 : t;
  const double s =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(sat) |
                            (std::bit_cast<std::uint64_t>(x) & kSignBit));
  return nan ? x : s;
}

FEDRA_ALWAYS_INLINE double sigmoid_elem(double x) {
  const bool nan = x != x;
  const double a = std::fabs(nan ? 0.0 : x);
  const double e = exp_core(-a);
  const double d = 1.0 + e;
  const double s = x < 0.0 ? e / d : 1.0 / d;
  return nan ? x : s;
}

// ---------------------------------------------------------------------------
// Kernel bodies. Maps allow out == x, so they take no __restrict.
// ---------------------------------------------------------------------------

FEDRA_ALWAYS_INLINE void exp_body(const double* x, double* out,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_elem(x[i]);
}

FEDRA_ALWAYS_INLINE void tanh_body(const double* x, double* out,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_elem(x[i]);
}

FEDRA_ALWAYS_INLINE void sigmoid_body(const double* x, double* out,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = sigmoid_elem(x[i]);
}

FEDRA_ALWAYS_INLINE void relu_body(const double* x, double* out,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0 ? x[i] : 0.0;
}

FEDRA_ALWAYS_INLINE void leaky_relu_body(const double* x, double slope,
                                         double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : slope * x[i];
  }
}

FEDRA_ALWAYS_INLINE void relu_backward_body(const double* g, const double* x,
                                            double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) grad_in[i] = x[i] <= 0.0 ? 0.0 : g[i];
}

FEDRA_ALWAYS_INLINE void leaky_relu_backward_body(const double* g,
                                                  const double* x,
                                                  double slope,
                                                  double* grad_in,
                                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = x[i] <= 0.0 ? slope * g[i] : g[i];
  }
}

FEDRA_ALWAYS_INLINE void tanh_backward_body(const double* g, const double* y,
                                            double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) grad_in[i] = g[i] * (1.0 - y[i] * y[i]);
}

FEDRA_ALWAYS_INLINE void sigmoid_backward_body(const double* g,
                                               const double* y,
                                               double* grad_in,
                                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = g[i] * (y[i] * (1.0 - y[i]));
  }
}

// Fused backward rows: dpre and the running column sum in one sweep.
// Row-ascending accumulation into cs matches col_sum_into.

FEDRA_ALWAYS_INLINE void tanh_backward_row_body(const double* g,
                                                const double* y, double* d,
                                                double* cs, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (1.0 - y[j] * y[j]);
    d[j] = v;
    cs[j] += v;
  }
}

FEDRA_ALWAYS_INLINE void sigmoid_backward_row_body(const double* g,
                                                   const double* y, double* d,
                                                   double* cs,
                                                   std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (y[j] * (1.0 - y[j]));
    d[j] = v;
    cs[j] += v;
  }
}

constexpr FusedKernels kernels_for(simd::Tier t) {
  return {simd::PerTier<&exp_body>::at(t),
          simd::PerTier<&tanh_body>::at(t),
          simd::PerTier<&sigmoid_body>::at(t),
          simd::PerTier<&relu_body>::at(t),
          simd::PerTier<&leaky_relu_body>::at(t),
          simd::PerTier<&relu_backward_body>::at(t),
          simd::PerTier<&leaky_relu_backward_body>::at(t),
          simd::PerTier<&tanh_backward_body>::at(t),
          simd::PerTier<&sigmoid_backward_body>::at(t),
          simd::PerTier<&tanh_backward_row_body>::at(t),
          simd::PerTier<&sigmoid_backward_row_body>::at(t)};
}

constexpr FusedKernels kKernels[simd::kNumTiers] = {
    kernels_for(simd::Tier::kScalar), kernels_for(simd::Tier::kAvx2),
    kernels_for(simd::Tier::kAvx512)};

const FusedKernels& host() {
  static const FusedKernels& k = fused_kernels(simd::host_tier());
  return k;
}

}  // namespace

const FusedKernels& fused_kernels(simd::Tier tier) {
  return kKernels[static_cast<std::size_t>(tier)];
}

double fast_exp_reference(double x) { return exp_elem(x); }
double fast_tanh_reference(double x) { return tanh_elem(x); }
double fast_sigmoid_reference(double x) { return sigmoid_elem(x); }

void fast_exp_map(const double* x, double* out, std::size_t n) {
  host().exp_map(x, out, n);
}

void fast_tanh_map(const double* x, double* out, std::size_t n) {
  host().tanh_map(x, out, n);
}

void fast_sigmoid_map(const double* x, double* out, std::size_t n) {
  host().sigmoid_map(x, out, n);
}

void relu_map(const double* x, double* out, std::size_t n) {
  host().relu_map(x, out, n);
}

void relu_map_reference(const double* x, double* out, std::size_t n) {
  relu_body(x, out, n);
}

void leaky_relu_map(const double* x, double slope, double* out,
                    std::size_t n) {
  host().leaky_relu_map(x, slope, out, n);
}

void leaky_relu_map_reference(const double* x, double slope, double* out,
                              std::size_t n) {
  leaky_relu_body(x, slope, out, n);
}

void relu_backward_map(const double* g, const double* x, double* grad_in,
                       std::size_t n) {
  host().relu_backward_map(g, x, grad_in, n);
}

void relu_backward_map_reference(const double* g, const double* x,
                                 double* grad_in, std::size_t n) {
  relu_backward_body(g, x, grad_in, n);
}

void leaky_relu_backward_map(const double* g, const double* x, double slope,
                             double* grad_in, std::size_t n) {
  host().leaky_relu_backward_map(g, x, slope, grad_in, n);
}

void leaky_relu_backward_map_reference(const double* g, const double* x,
                                       double slope, double* grad_in,
                                       std::size_t n) {
  leaky_relu_backward_body(g, x, slope, grad_in, n);
}

void tanh_backward_map(const double* g, const double* y, double* grad_in,
                       std::size_t n) {
  host().tanh_backward_map(g, y, grad_in, n);
}

void tanh_backward_map_reference(const double* g, const double* y,
                                 double* grad_in, std::size_t n) {
  tanh_backward_body(g, y, grad_in, n);
}

void sigmoid_backward_map(const double* g, const double* y, double* grad_in,
                          std::size_t n) {
  host().sigmoid_backward_map(g, y, grad_in, n);
}

void sigmoid_backward_map_reference(const double* g, const double* y,
                                    double* grad_in, std::size_t n) {
  sigmoid_backward_body(g, y, grad_in, n);
}

// ---------------------------------------------------------------------------
// Fused passes.
// ---------------------------------------------------------------------------

namespace {

void bias_act(const Matrix& pre, const Matrix& bias, FusedAct act,
              Matrix& out, const FusedKernels& k) {
  FEDRA_EXPECTS(&out != &pre);
  FEDRA_EXPECTS(bias.rows() == 1 && bias.cols() == pre.cols());
  out.resize_reuse(pre.rows(), pre.cols());
  const std::size_t cols = pre.cols();
  const double* b = bias.data();
  for (std::size_t i = 0; i < pre.rows(); ++i) {
    const double* p = pre.data() + i * cols;
    double* o = out.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) o[j] = p[j] + b[j];
  }
  const auto map = act == FusedAct::Tanh ? k.tanh_map : k.sigmoid_map;
  map(out.data(), out.data(), out.size());
}

void act_backward_colsum(const Matrix& g, const Matrix& y, FusedAct act,
                         Matrix& dpre, Matrix& colsum,
                         const FusedKernels& k) {
  FEDRA_EXPECTS(g.same_shape(y));
  dpre.resize_reuse(y.rows(), y.cols());
  colsum.resize_reuse(1, y.cols());
  colsum.set_zero();
  const auto row = act == FusedAct::Tanh ? k.tanh_backward_colsum_row
                                         : k.sigmoid_backward_colsum_row;
  const std::size_t cols = y.cols();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    row(g.data() + i * cols, y.data() + i * cols, dpre.data() + i * cols,
        colsum.data(), cols);
  }
}

}  // namespace

void bias_act_into(const Matrix& pre, const Matrix& bias, FusedAct act,
                   Matrix& out) {
  bias_act(pre, bias, act, out, host());
}

void bias_act_into_reference(const Matrix& pre, const Matrix& bias,
                             FusedAct act, Matrix& out) {
  bias_act(pre, bias, act, out, fused_kernels(simd::Tier::kScalar));
}

void act_backward_colsum_into(const Matrix& g, const Matrix& y, FusedAct act,
                              Matrix& dpre, Matrix& colsum) {
  act_backward_colsum(g, y, act, dpre, colsum, host());
}

void act_backward_colsum_into_reference(const Matrix& g, const Matrix& y,
                                        FusedAct act, Matrix& dpre,
                                        Matrix& colsum) {
  act_backward_colsum(g, y, act, dpre, colsum,
                      fused_kernels(simd::Tier::kScalar));
}

}  // namespace fedra
