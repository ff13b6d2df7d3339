// Oracle wall for the fused/vectorized activation kernels (nn/fused.hpp):
// every SIMD map must be bitwise-equal to its *_reference scalar oracle on
// every lane — including tile-straddling lengths, degenerate and prime
// shapes, NaN/±0/denormal/saturation inputs — and the fused
// forward/backward pairing of the workspace path must match the
// layer-by-layer Sequential::forward/backward bit for bit.
#include "nn/fused.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "simd_tiers.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Lengths that stop mid-lane for both 4-wide (AVX2) and 8-wide (AVX-512)
// kernels, plus degenerate and prime sizes.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                13, 16, 17, 31, 32, 33, 61, 64, 67, 127};

// Inputs that exercise every special path: clamps, saturation, signed
// zero, denormals, infinities, NaN — then a dense random fill.
std::vector<double> adversarial_inputs(std::size_t n, std::uint64_t seed) {
  const double specials[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1e-308,
      -1e-308,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      709.0,
      710.0,
      -745.0,
      -746.0,
      1000.0,
      -1000.0,
      19.0,
      19.0625,
      19.1,
      -19.1,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
  };
  std::vector<double> v(n);
  Rng rng(seed);
  const std::size_t num_specials = sizeof(specials) / sizeof(specials[0]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < num_specials) {
      v[i] = specials[i];
    } else {
      v[i] = rng.uniform(-30.0, 30.0);
    }
  }
  return v;
}

void expect_lanes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << " lane " << i << " of " << n << " (x bits mismatch: got "
        << got[i] << " want " << want[i] << ")";
  }
}

/// The dispatching entry points production calls. The fused backward
/// rows have no entry point of their own; act_backward_colsum_into runs
/// the host table's.
FusedKernels public_kernels() {
  const FusedKernels& host = fused_kernels(simd::host_tier());
  return {&fast_exp_map,
          &fast_tanh_map,
          &fast_sigmoid_map,
          &relu_map,
          &leaky_relu_map,
          &relu_backward_map,
          &leaky_relu_backward_map,
          &tanh_backward_map,
          &sigmoid_backward_map,
          host.tanh_backward_colsum_row,
          host.sigmoid_backward_colsum_row};
}

void expect_transcendental_map_matches(
    void (*map)(const double*, double*, std::size_t),
    double (*reference)(double), std::uint64_t seed, const char* what) {
  for (std::size_t n : kLengths) {
    auto x = adversarial_inputs(n, seed + n);
    std::vector<double> got(n), want(n);
    map(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = reference(x[i]);
    expect_lanes_equal(got, want, what, n);
  }
}

void expect_relu_family_matches(const FusedKernels& k) {
  const double slope = 0.03;
  for (std::size_t n : kLengths) {
    auto x = adversarial_inputs(n, 400 + n);
    auto g = adversarial_inputs(n, 500 + n);
    std::vector<double> got(n), want(n);

    k.relu_map(x.data(), got.data(), n);
    relu_map_reference(x.data(), want.data(), n);
    expect_lanes_equal(got, want, "relu", n);

    k.leaky_relu_map(x.data(), slope, got.data(), n);
    leaky_relu_map_reference(x.data(), slope, want.data(), n);
    expect_lanes_equal(got, want, "leaky_relu", n);

    k.relu_backward_map(g.data(), x.data(), got.data(), n);
    relu_backward_map_reference(g.data(), x.data(), want.data(), n);
    expect_lanes_equal(got, want, "relu_backward", n);

    k.leaky_relu_backward_map(g.data(), x.data(), slope, got.data(), n);
    leaky_relu_backward_map_reference(g.data(), x.data(), slope, want.data(),
                                      n);
    expect_lanes_equal(got, want, "leaky_relu_backward", n);
  }
}

void expect_activation_backward_matches(const FusedKernels& k) {
  for (std::size_t n : kLengths) {
    auto g = adversarial_inputs(n, 600 + n);
    // Backward reads the forward OUTPUT y: feed it the actual range of
    // each activation (plus NaN, which must propagate).
    auto pre = adversarial_inputs(n, 700 + n);
    std::vector<double> y_tanh(n), y_sig(n);
    fast_tanh_map(pre.data(), y_tanh.data(), n);
    fast_sigmoid_map(pre.data(), y_sig.data(), n);

    std::vector<double> got(n), want(n);
    k.tanh_backward_map(g.data(), y_tanh.data(), got.data(), n);
    tanh_backward_map_reference(g.data(), y_tanh.data(), want.data(), n);
    expect_lanes_equal(got, want, "tanh_backward", n);

    k.sigmoid_backward_map(g.data(), y_sig.data(), got.data(), n);
    sigmoid_backward_map_reference(g.data(), y_sig.data(), want.data(), n);
    expect_lanes_equal(got, want, "sigmoid_backward", n);
  }
}

TEST(FusedKernels, ExpMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(&fast_exp_map, &fast_exp_reference, 100,
                                    "fast_exp");
}

TEST(FusedKernels, TanhMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(&fast_tanh_map, &fast_tanh_reference,
                                    200, "fast_tanh");
}

TEST(FusedKernels, SigmoidMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(&fast_sigmoid_map,
                                    &fast_sigmoid_reference, 300,
                                    "fast_sigmoid");
}

TEST(FusedKernels, ReluFamilyMatchesReferenceEveryLane) {
  expect_relu_family_matches(public_kernels());
}

TEST(FusedKernels, ActivationBackwardMatchesReferenceEveryLane) {
  expect_activation_backward_matches(public_kernels());
}

// The same oracle checks for every tier's compiled kernels, through the
// table the entry points above dispatch into.
class FusedKernelTiers : public ::testing::TestWithParam<simd::Tier> {};

TEST_P(FusedKernelTiers, ExpMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(fused_kernels(GetParam()).exp_map,
                                    &fast_exp_reference, 100, "fast_exp");
}

TEST_P(FusedKernelTiers, TanhMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(fused_kernels(GetParam()).tanh_map,
                                    &fast_tanh_reference, 200, "fast_tanh");
}

TEST_P(FusedKernelTiers, SigmoidMatchesReferenceEveryLane) {
  expect_transcendental_map_matches(fused_kernels(GetParam()).sigmoid_map,
                                    &fast_sigmoid_reference, 300,
                                    "fast_sigmoid");
}

TEST_P(FusedKernelTiers, ReluFamilyMatchesReferenceEveryLane) {
  expect_relu_family_matches(fused_kernels(GetParam()));
}

TEST_P(FusedKernelTiers, ActivationBackwardMatchesReferenceEveryLane) {
  expect_activation_backward_matches(fused_kernels(GetParam()));
}

// The fused backward rows (dpre and the running column sum) against the
// reference pass, on ragged shapes with adversarial gradients.
TEST_P(FusedKernelTiers, BackwardColsumRowsMatchReference) {
  const FusedKernels& k = fused_kernels(GetParam());
  for (FusedAct act : {FusedAct::Tanh, FusedAct::Sigmoid}) {
    const auto row = act == FusedAct::Tanh ? k.tanh_backward_colsum_row
                                           : k.sigmoid_backward_colsum_row;
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      for (std::size_t cols : kLengths) {
        Matrix g(rows, cols), pre(rows, cols), bias(1, cols);
        const auto gv = adversarial_inputs(rows * cols, 800 + cols);
        const auto pv = adversarial_inputs(rows * cols, 900 + cols);
        for (std::size_t i = 0; i < g.size(); ++i) {
          g.data()[i] = gv[i];
          pre.data()[i] = pv[i];
        }
        Matrix y;
        bias_act_into_reference(pre, bias, act, y);

        Matrix dpre(rows, cols), cs(1, cols, 0.0);
        for (std::size_t i = 0; i < rows; ++i) {
          row(g.data() + i * cols, y.data() + i * cols,
              dpre.data() + i * cols, cs.data(), cols);
        }
        Matrix dpre_ref, cs_ref;
        act_backward_colsum_into_reference(g, y, act, dpre_ref, cs_ref);
        for (std::size_t i = 0; i < dpre.size(); ++i) {
          ASSERT_EQ(bits(dpre.data()[i]), bits(dpre_ref.data()[i]))
              << "dpre " << rows << "x" << cols << " element " << i;
        }
        for (std::size_t j = 0; j < cols; ++j) {
          ASSERT_EQ(bits(cs.data()[j]), bits(cs_ref.data()[j]))
              << "colsum " << rows << "x" << cols << " column " << j;
        }
      }
    }
  }
}

FEDRA_INSTANTIATE_PER_TIER(FusedKernelTiers);

// Saturation boundary: tanh must pin to exactly ±1.0 past the threshold
// and NaN must survive every kernel.
TEST(FusedKernels, TanhSaturationAndNanSemantics) {
  EXPECT_EQ(fast_tanh_reference(20.0), 1.0);
  EXPECT_EQ(fast_tanh_reference(-20.0), -1.0);
  EXPECT_EQ(fast_tanh_reference(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_TRUE(std::isnan(
      fast_tanh_reference(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(
      fast_exp_reference(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(
      fast_sigmoid_reference(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fast_exp_reference(-1000.0), fast_exp_reference(-745.0));
  EXPECT_EQ(fast_exp_reference(1000.0), fast_exp_reference(709.0));
  // Signed zero must round-trip: tanh(-0.0) = -0.0.
  EXPECT_EQ(bits(fast_tanh_reference(-0.0)), bits(-0.0));
  EXPECT_EQ(bits(fast_tanh_reference(0.0)), bits(0.0));
}

// Dense+activation pair fusion must be a pure scheduling change: the same
// network, same data, same seeds, through the fused forward_cached /
// backward_cached vs the layer-by-layer forward / backward, must produce
// bit-identical outputs AND gradients — across prime/degenerate shapes
// that straddle the GEMM tiles.
TEST(FusedKernels, FusedPassMatchesLayerByLayer) {
  struct Shape {
    std::size_t batch, in, hidden, out;
  };
  const Shape shapes[] = {
      {1, 1, 1, 1}, {1, 3, 5, 2}, {7, 13, 11, 3}, {17, 8, 16, 4},
      {3, 31, 29, 7},
  };
  for (Activation act : {Activation::Tanh, Activation::Sigmoid}) {
    for (const Shape& sh : shapes) {
      auto make_net = [&] {
        Rng rng(1234);
        return Mlp({sh.in, sh.hidden, sh.out}, act, rng);
      };
      Matrix input(sh.batch, sh.in);
      Matrix grad_out(sh.batch, sh.out);
      Rng data_rng(4321);
      for (std::size_t i = 0; i < input.size(); ++i) {
        input.data()[i] = data_rng.uniform(-2.0, 2.0);
      }
      for (std::size_t i = 0; i < grad_out.size(); ++i) {
        grad_out.data()[i] = data_rng.uniform(-1.0, 1.0);
      }

      auto grads_of = [](Mlp& net) {
        std::vector<Matrix> grads;
        for (Matrix* g : net.grads()) grads.push_back(*g);
        return grads;
      };
      Mlp fused_net = make_net();
      Workspace ws;
      const Matrix out_on = fused_net.forward_cached(input, ws);
      const Matrix gin_on = fused_net.backward_cached(grad_out, ws);
      const std::vector<Matrix> grads_on = grads_of(fused_net);

      Mlp oracle_net = make_net();
      const Matrix out_off = oracle_net.forward(input);
      const Matrix gin_off = oracle_net.backward(grad_out);
      const std::vector<Matrix> grads_off = grads_of(oracle_net);

      ASSERT_EQ(out_on.size(), out_off.size());
      for (std::size_t i = 0; i < out_on.size(); ++i) {
        ASSERT_EQ(bits(out_on.data()[i]), bits(out_off.data()[i]))
            << "forward element " << i;
      }
      ASSERT_EQ(gin_on.size(), gin_off.size());
      for (std::size_t i = 0; i < gin_on.size(); ++i) {
        ASSERT_EQ(bits(gin_on.data()[i]), bits(gin_off.data()[i]))
            << "input-grad element " << i;
      }
      ASSERT_EQ(grads_on.size(), grads_off.size());
      for (std::size_t m = 0; m < grads_on.size(); ++m) {
        ASSERT_EQ(grads_on[m].size(), grads_off[m].size());
        for (std::size_t i = 0; i < grads_on[m].size(); ++i) {
          ASSERT_EQ(bits(grads_on[m].data()[i]), bits(grads_off[m].data()[i]))
              << "param grad " << m << " element " << i;
        }
      }
    }
  }
}

// bias_act_into and act_backward_colsum_into (the fused row kernels) must
// match their references on ragged shapes.
TEST(FusedKernels, FusedRowKernelsMatchReference) {
  for (FusedAct act : {FusedAct::Tanh, FusedAct::Sigmoid}) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                             std::size_t{16}}) {
      for (std::size_t cols : {std::size_t{1}, std::size_t{5}, std::size_t{13},
                               std::size_t{32}}) {
        Rng rng(900 + rows * 64 + cols);
        Matrix pre(rows, cols), bias(1, cols), g(rows, cols);
        for (std::size_t i = 0; i < pre.size(); ++i) {
          pre.data()[i] = rng.uniform(-3.0, 3.0);
        }
        for (std::size_t i = 0; i < bias.size(); ++i) {
          bias.data()[i] = rng.uniform(-1.0, 1.0);
        }
        for (std::size_t i = 0; i < g.size(); ++i) {
          g.data()[i] = rng.uniform(-1.0, 1.0);
        }

        Matrix out(rows, cols), out_ref(rows, cols);
        bias_act_into(pre, bias, act, out);
        bias_act_into_reference(pre, bias, act, out_ref);
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(bits(out.data()[i]), bits(out_ref.data()[i]))
              << "bias_act " << rows << "x" << cols << " element " << i;
        }

        Matrix dpre(rows, cols), dpre_ref(rows, cols);
        Matrix cs(1, cols), cs_ref(1, cols);
        act_backward_colsum_into(g, out, act, dpre, cs);
        act_backward_colsum_into_reference(g, out_ref, act, dpre_ref, cs_ref);
        for (std::size_t i = 0; i < dpre.size(); ++i) {
          ASSERT_EQ(bits(dpre.data()[i]), bits(dpre_ref.data()[i]))
              << "dpre " << rows << "x" << cols << " element " << i;
        }
        for (std::size_t i = 0; i < cs.size(); ++i) {
          ASSERT_EQ(bits(cs.data()[i]), bits(cs_ref.data()[i]))
              << "colsum " << rows << "x" << cols << " element " << i;
        }
      }
    }
  }
}

// The fast activations are observable (they legitimately differ from
// libm in the last bits) but must stay accurate: within ~1e-15 of libm,
// the accuracy reference, across the working range, exact at 0.
TEST(FusedKernels, FastActivationsTrackLibm) {
  EXPECT_EQ(fast_exp_reference(0.0), 1.0);
  EXPECT_EQ(bits(fast_tanh_reference(0.0)), bits(0.0));
  EXPECT_EQ(fast_sigmoid_reference(0.0), 0.5);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-25.0, 25.0);
    const double e = fast_exp_reference(x);
    const double t = fast_tanh_reference(x);
    const double s = fast_sigmoid_reference(x);
    EXPECT_NEAR(e, std::exp(x), 2e-15 * std::exp(x) + 1e-300) << "exp " << x;
    EXPECT_NEAR(t, std::tanh(x), 1e-15) << "tanh " << x;
    EXPECT_NEAR(s, 1.0 / (1.0 + std::exp(-x)), 1e-15) << "sigmoid " << x;
  }
}

}  // namespace
}  // namespace fedra
