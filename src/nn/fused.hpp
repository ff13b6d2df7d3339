// Fused / vectorized elementwise kernels for the NN training hot path.
//
// Two techniques, each the only production path:
//
//  * Fast activations: exp-based tanh/sigmoid/softmax-exp evaluated by a
//    shared polynomial operation DAG. Every map here is one scalar loop,
//    compiled once per SIMD tier through util/simd.hpp and dispatched to
//    the host's tier; the libraries are built with -ffp-contract=off, so
//    every tier runs the same per-element operation sequence (mul then
//    add, never FMA) and is bit-identical to the `*_reference` oracle,
//    which runs the same loop for the baseline ISA, on every input
//    including NaN / ±0 / denormals, and for any batch composition. The
//    fast activations are NOT bit-identical to libm (absolute error
//    < ~1e-15, checked against libm by tests/test_fused_kernels.cpp); the
//    goldens are recorded with them.
//
//  * Pass fusion on the Sequential workspace path: dense+bias+activation
//    forward in one sweep, and the dGrad·dAct derivative map fused with
//    the bias-gradient column sum on backward. Fusion only regroups
//    traversals, never the per-element arithmetic, so it is bit-identical
//    to the layer-by-layer Sequential::forward/backward (enforced by
//    tests/test_fused_kernels.cpp against those and the *_reference
//    oracles).
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"
#include "util/simd.hpp"

namespace fedra {

/// Activation kinds the pass-fusion engine understands. Only
/// output-derivative activations qualify: their backward reads the
/// activation OUTPUT y, so the fused forward never needs to keep the
/// pre-activation alive (ReLU-family backward reads the input x and has
/// different NaN semantics through y, so it stays on the unfused path).
enum class FusedAct { Tanh, Sigmoid };

// ---------------------------------------------------------------------------
// Vectorized transcendental maps (in-place allowed, i.e. out may equal x).
// Each `_reference` evaluates the same operation DAG for one element.
// ---------------------------------------------------------------------------

/// Saturating exp: the argument is clamped to [-745, 709] (full double
/// range of finite exp results), so the map never produces inf from
/// finite input. NaN propagates.
void fast_exp_map(const double* x, double* out, std::size_t n);
double fast_exp_reference(double x);

void fast_tanh_map(const double* x, double* out, std::size_t n);
double fast_tanh_reference(double x);

void fast_sigmoid_map(const double* x, double* out, std::size_t n);
double fast_sigmoid_reference(double x);

// ---------------------------------------------------------------------------
// ReLU-family forward maps and activation derivative maps.
// ---------------------------------------------------------------------------

void relu_map(const double* x, double* out, std::size_t n);
void relu_map_reference(const double* x, double* out, std::size_t n);

void leaky_relu_map(const double* x, double slope, double* out,
                    std::size_t n);
void leaky_relu_map_reference(const double* x, double slope, double* out,
                              std::size_t n);

/// grad_in[i] = g[i] for x[i] > 0 (or NaN), else 0 — the ReLU backward.
void relu_backward_map(const double* g, const double* x, double* grad_in,
                       std::size_t n);
void relu_backward_map_reference(const double* g, const double* x,
                                 double* grad_in, std::size_t n);

void leaky_relu_backward_map(const double* g, const double* x, double slope,
                             double* grad_in, std::size_t n);
void leaky_relu_backward_map_reference(const double* g, const double* x,
                                       double slope, double* grad_in,
                                       std::size_t n);

/// grad_in[i] = g[i] * (1 - y[i]*y[i]) — tanh derivative from the output.
void tanh_backward_map(const double* g, const double* y, double* grad_in,
                       std::size_t n);
void tanh_backward_map_reference(const double* g, const double* y,
                                 double* grad_in, std::size_t n);

/// grad_in[i] = g[i] * (y[i] * (1 - y[i])) — sigmoid derivative.
void sigmoid_backward_map(const double* g, const double* y, double* grad_in,
                          std::size_t n);
void sigmoid_backward_map_reference(const double* g, const double* y,
                                    double* grad_in, std::size_t n);

// ---------------------------------------------------------------------------
// Fused passes (Sequential workspace path).
// ---------------------------------------------------------------------------

/// out = act(pre + bias), one sweep: the bias broadcast is folded into
/// the activation pass instead of mutating `pre` in place first.
/// Bit-identical to add_row_broadcast + the activation's forward map
/// (same two ops per element, in the same order). `bias` is 1 x cols;
/// `out` must not alias `pre`.
void bias_act_into(const Matrix& pre, const Matrix& bias, FusedAct act,
                   Matrix& out);
void bias_act_into_reference(const Matrix& pre, const Matrix& bias,
                             FusedAct act, Matrix& out);

/// dpre = g ⊙ act'(y) and colsum[j] = Σ_i dpre(i, j) in one traversal.
/// Column sums accumulate rows in ascending order — exactly the order
/// col_sum_into uses on the separately materialized dpre, so the fused
/// bias gradient is bit-identical to the unfused one. `colsum` is
/// re-dimensioned to 1 x cols.
void act_backward_colsum_into(const Matrix& g, const Matrix& y, FusedAct act,
                              Matrix& dpre, Matrix& colsum);
void act_backward_colsum_into_reference(const Matrix& g, const Matrix& y,
                                        FusedAct act, Matrix& dpre,
                                        Matrix& colsum);

/// Every map above, and the fused backward row, as compiled for one SIMD
/// tier. The maps and fused passes above run the host tier's entry; the
/// `*_reference` passes run the scalar entry; tests run every tier the host
/// executes.
struct FusedKernels {
  decltype(&fast_exp_map) exp_map;
  decltype(&fast_tanh_map) tanh_map;
  decltype(&fast_sigmoid_map) sigmoid_map;
  decltype(&fedra::relu_map) relu_map;
  decltype(&fedra::leaky_relu_map) leaky_relu_map;
  decltype(&fedra::relu_backward_map) relu_backward_map;
  decltype(&fedra::leaky_relu_backward_map) leaky_relu_backward_map;
  decltype(&fedra::tanh_backward_map) tanh_backward_map;
  decltype(&fedra::sigmoid_backward_map) sigmoid_backward_map;
  /// One row of act_backward_colsum_into: d = g ⊙ act'(y), cs += d.
  void (*tanh_backward_colsum_row)(const double* g, const double* y,
                                   double* d, double* cs, std::size_t n);
  void (*sigmoid_backward_colsum_row)(const double* g, const double* y,
                                      double* d, double* cs, std::size_t n);
};
const FusedKernels& fused_kernels(simd::Tier tier);

}  // namespace fedra
