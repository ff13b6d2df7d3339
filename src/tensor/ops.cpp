#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace fedra {

namespace {

// ---- Blocked GEMM ------------------------------------------------------
//
// All three products (A*B, A^T*B, A*B^T) share one blocked engine: an
// MR x NR register tile of C accumulated over one k block, with the B
// operand packed into contiguous (kc x nr) panels and the A operand read
// through (row, k) strides that encode whether A is traversed row-major
// (A*B, A*B^T) or column-major (A^T*B). Tiling regroups only (i, j) work;
// each C element still receives its k terms one at a time in ascending-k
// order starting from +0.0, which is what keeps the blocked kernels
// bit-identical to the reference loops (and the golden trajectory valid).
//
// The full register tile is one scalar body compiled once per SIMD tier
// (util/simd.hpp): 8x8 for AVX-512F, 4x8 for AVX2, 4x4 for the baseline
// ISA. Vectorized lanes hold distinct j columns, so per-element term order
// is untouched, and -ffp-contract=off keeps each term a separate multiply
// and add (a fused a*b+c rounds once instead of twice).
constexpr std::size_t kKC = 128;  ///< k extent of a cache block
constexpr std::size_t kNC = 256;  ///< j extent of a cache block (packed B)
// kNC must be a multiple of every tier's NR so pack panels never overflow.
static_assert(kNC % 8 == 0 && kNC % 4 == 0);

/// Products below this flop count run serial even when a pool is offered.
constexpr std::size_t kParallelMinFlops = 64 * 64 * 64;

/// How gemm_blocked reads the B operand when packing a (kc x nc) block.
enum class BPack {
  kColumns,  ///< panel[kk][jj] = B[k0+kk][j0+jj]  (A*B, A^T*B)
  kRows,     ///< panel[kk][jj] = B[j0+jj][k0+kk]  (A*B^T: B rows are the
             ///<                                   contraction streams)
};

/// Copies one (kc x nc) block of B into panels of NR columns so the
/// micro-kernel streams it with unit stride. Pure data movement — packing
/// never touches the accumulation order.
template <std::size_t NR>
void pack_b_block(const double* b, std::size_t ldb, BPack mode,
                  std::size_t k0, std::size_t j0, std::size_t kc,
                  std::size_t nc, double* pack) {
  for (std::size_t jp = 0; jp * NR < nc; ++jp) {
    const std::size_t nr = std::min(NR, nc - jp * NR);
    double* dst = pack + jp * kc * NR;  // earlier panels are always full
    const std::size_t j = j0 + jp * NR;
    if (mode == BPack::kColumns) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const double* src = b + (k0 + kk) * ldb + j;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[kk * nr + jj] = src[jj];
      }
    } else {
      for (std::size_t jj = 0; jj < nr; ++jj) {
        const double* src = b + (j + jj) * ldb + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * nr + jj] = src[kk];
      }
    }
  }
}

/// Full register tile: acc[ii][jj] += a(ii, kk) * panel[kk][jj] for kk
/// ascending, on top of the partial sums C already holds from earlier k
/// blocks. Fully unrolled fixed trip counts let each tier keep the tile in
/// vector registers; the per-element term order is exactly the reference
/// kernel's.
template <std::size_t MR, std::size_t NR>
FEDRA_ALWAYS_INLINE void micro_full_generic(std::size_t kc, const double* a,
                                            std::size_t a_rs,
                                            std::size_t a_cs,
                                            const double* bp, double* c,
                                            std::size_t ldc) {
  double acc[MR][NR];
#pragma GCC unroll 8
  for (std::size_t ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 8
    for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] = c[ii * ldc + jj];
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* b = bp + kk * NR;
#pragma GCC unroll 8
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const double av = a[ii * a_rs + kk * a_cs];
#pragma GCC unroll 8
      for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] += av * b[jj];
    }
  }
#pragma GCC unroll 8
  for (std::size_t ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 8
    for (std::size_t jj = 0; jj < NR; ++jj) c[ii * ldc + jj] = acc[ii][jj];
  }
}

void micro_full_scalar(std::size_t kc, const double* a, std::size_t a_rs,
                       std::size_t a_cs, const double* bp, double* c,
                       std::size_t ldc) {
  micro_full_generic<4, 4>(kc, a, a_rs, a_cs, bp, c, ldc);
}

FEDRA_TARGET("avx2")
void micro_full_avx2(std::size_t kc, const double* a, std::size_t a_rs,
                     std::size_t a_cs, const double* bp, double* c,
                     std::size_t ldc) {
  micro_full_generic<4, 8>(kc, a, a_rs, a_cs, bp, c, ldc);
}

FEDRA_TARGET("avx512f")
void micro_full_avx512(std::size_t kc, const double* a, std::size_t a_rs,
                       std::size_t a_cs, const double* bp, double* c,
                       std::size_t ldc) {
  micro_full_generic<8, 8>(kc, a, a_rs, a_cs, bp, c, ldc);
}

/// Boundary tile (mr < MR or nr < NR): scalar with runtime bounds and the
/// same accumulation order, so row partitions and odd shapes stay
/// bit-exact no matter which tier handles the full tiles.
void micro_edge(std::size_t mr, std::size_t nr, std::size_t kc,
                const double* a, std::size_t a_rs, std::size_t a_cs,
                const double* bp, double* c, std::size_t ldc) {
  double acc[8][8];  // max tile across all tiers
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] = c[ii * ldc + jj];
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* b = bp + kk * nr;
    for (std::size_t ii = 0; ii < mr; ++ii) {
      const double av = a[ii * a_rs + kk * a_cs];
      for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * b[jj];
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) c[ii * ldc + jj] = acc[ii][jj];
  }
}

using MicroFullFn = void (*)(std::size_t, const double*, std::size_t,
                             std::size_t, const double*, double*,
                             std::size_t);

/// Blocked driver: C(m x p) += Aop * Bop with contraction length kdim,
/// where Aop(i, k) = a[i*a_rs + k*a_cs] and Bop is packed per `mode`.
/// C must be zero-initialized (or hold valid partial sums). Safe to call
/// on disjoint row ranges from multiple threads.
template <std::size_t MR, std::size_t NR, MicroFullFn MicroFull>
void gemm_blocked_impl(std::size_t m, std::size_t kdim, std::size_t p,
                       const double* a, std::size_t a_rs, std::size_t a_cs,
                       const double* b, std::size_t ldb, BPack mode,
                       double* c, std::size_t ldc) {
  if (m == 0 || kdim == 0 || p == 0) return;
  thread_local std::vector<double> pack_buf;  // plain heap: not a tensor
  if (pack_buf.size() < kKC * kNC) pack_buf.resize(kKC * kNC);
  for (std::size_t k0 = 0; k0 < kdim; k0 += kKC) {
    const std::size_t kc = std::min(kKC, kdim - k0);
    for (std::size_t j0 = 0; j0 < p; j0 += kNC) {
      const std::size_t nc = std::min(kNC, p - j0);
      pack_b_block<NR>(b, ldb, mode, k0, j0, kc, nc, pack_buf.data());
      for (std::size_t i0 = 0; i0 < m; i0 += MR) {
        const std::size_t mr = std::min(MR, m - i0);
        const double* abase = a + i0 * a_rs + k0 * a_cs;
        for (std::size_t jp = 0; jp * NR < nc; ++jp) {
          const std::size_t nr = std::min(NR, nc - jp * NR);
          const double* bp = pack_buf.data() + jp * kc * NR;
          double* ct = c + i0 * ldc + j0 + jp * NR;
          if (mr == MR && nr == NR) {
            MicroFull(kc, abase, a_rs, a_cs, bp, ct, ldc);
          } else {
            micro_edge(mr, nr, kc, abase, a_rs, a_cs, bp, ct, ldc);
          }
        }
      }
    }
  }
}

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, const double*,
                        std::size_t, std::size_t, const double*, std::size_t,
                        BPack, double*, std::size_t);

/// The blocked engine per SIMD tier. Tier choice affects only throughput,
/// never bits — all tiers share the per-element ascending-k order.
constexpr GemmFn kGemm[simd::kNumTiers] = {
    gemm_blocked_impl<4, 4, micro_full_scalar>,
    gemm_blocked_impl<4, 8, micro_full_avx2>,
    gemm_blocked_impl<8, 8, micro_full_avx512>,
};

GemmFn host_gemm() {
  static const GemmFn gemm =
      kGemm[static_cast<std::size_t>(simd::host_tier())];
  return gemm;
}

void check_matmul_shapes(const Matrix& a, const Matrix& b, const Matrix& c) {
  FEDRA_EXPECTS(&c != &a && &c != &b);
  (void)a;
  (void)b;
  (void)c;
}

}  // namespace

void gemm_into(GemmOp op, const Matrix& a, const Matrix& b, Matrix& c,
               simd::Tier tier) {
  check_matmul_shapes(a, b, c);
  const GemmFn gemm = kGemm[static_cast<std::size_t>(tier)];
  switch (op) {
    case GemmOp::kAB:
      FEDRA_EXPECTS(a.cols() == b.rows());
      c.resize_reuse(a.rows(), b.cols());
      c.set_zero();
      gemm(a.rows(), a.cols(), b.cols(), a.data(), a.cols(), 1, b.data(),
           b.cols(), BPack::kColumns, c.data(), c.cols());
      break;
    case GemmOp::kAtB:
      FEDRA_EXPECTS(a.rows() == b.rows());
      c.resize_reuse(a.cols(), b.cols());
      c.set_zero();
      // Output row i is column i of A: consecutive output rows sit 1
      // apart, consecutive k terms a full A row apart.
      gemm(a.cols(), a.rows(), b.cols(), a.data(), 1, a.cols(), b.data(),
           b.cols(), BPack::kColumns, c.data(), c.cols());
      break;
    case GemmOp::kABt:
      FEDRA_EXPECTS(a.cols() == b.cols());
      c.resize_reuse(a.rows(), b.rows());
      c.set_zero();
      // B rows are the contraction streams; pack them k-major so the
      // micro-kernel reads one contiguous line per k step.
      gemm(a.rows(), a.cols(), b.rows(), a.data(), a.cols(), 1, b.data(),
           b.cols(), BPack::kRows, c.data(), c.cols());
      break;
  }
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_into(GemmOp::kAB, a, b, c, simd::host_tier());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_parallel_into(const Matrix& a, const Matrix& b, Matrix& c,
                          ThreadPool& pool) {
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  // Parallelizing tiny products costs more than it saves.
  if (pool.size() <= 1 || a.rows() * n * p < kParallelMinFlops) {
    matmul_into(a, b, c);
    return;
  }
  FEDRA_EXPECTS(a.cols() == b.rows());
  check_matmul_shapes(a, b, c);
  c.resize_reuse(a.rows(), b.cols());
  c.set_zero();
  // Row-partitioned: each chunk runs the full blocked kernel on its rows.
  // A C element depends only on its own A row and all of B, so the chunk
  // boundaries cannot change any per-element accumulation — output is
  // bit-identical for every pool size and chunking.
  const GemmFn gemm = host_gemm();
  pool.parallel_for_chunks(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    gemm(hi - lo, n, p, a.data() + lo * n, n, 1, b.data(), p,
         BPack::kColumns, c.data() + lo * p, p);
  });
}

Matrix matmul_parallel(const Matrix& a, const Matrix& b, ThreadPool& pool) {
  Matrix c;
  matmul_parallel_into(a, b, c, pool);
  return c;
}

void matmul_auto_into(const Matrix& a, const Matrix& b, Matrix& c) {
  ThreadPool& pool = global_pool();
  if (pool.size() > 1 &&
      a.rows() * a.cols() * b.cols() >= kParallelMinFlops) {
    matmul_parallel_into(a, b, c, pool);
  } else {
    matmul_into(a, b, c);
  }
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_into(GemmOp::kAtB, a, b, c, simd::host_tier());
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(a, b, c);
  return c;
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_into(GemmOp::kABt, a, b, c, simd::host_tier());
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_a_bt_into(a, b, c);
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    double* crow = c.data() + i * p;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = arow[k];
      const double* brow = b.data() + k * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_at_b_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  for (std::size_t k = 0; k < m; ++k) {
    const double* arow = a.data() + k * n;
    const double* brow = b.data() + k * p;
    for (std::size_t i = 0; i < n; ++i) {
      const double aki = arow[i];
      double* crow = c.data() + i * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_a_bt_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * n;
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += arow[k] * brow[k];
      c(i, j) = acc;
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c += b;
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c -= b;
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.hadamard_inplace(b);
  return c;
}

Matrix scale(const Matrix& a, double s) {
  Matrix c = a;
  c *= s;
  return c;
}

void axpy(double a, const Matrix& x, Matrix& y) {
  FEDRA_EXPECTS(x.same_shape(y));
  const double* xd = x.data();
  double* yd = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) yd[i] += a * xd[i];
}

Matrix apply(const Matrix& a, const std::function<double(double)>& f) {
  Matrix c = a;
  apply_inplace(c, f);
  return c;
}

void apply_inplace(Matrix& a, const std::function<double(double)>& f) {
  for (auto& x : a.flat()) x = f(x);
}

void add_row_broadcast(Matrix& a, const Matrix& bias) {
  FEDRA_EXPECTS(bias.rows() == 1 && bias.cols() == a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] += bias[j];
  }
}

void col_sum_into(const Matrix& a, Matrix& s) {
  FEDRA_EXPECTS(&s != &a);
  s.resize_reuse(1, a.cols());
  s.set_zero();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) s[j] += row[j];
  }
}

Matrix col_sum(const Matrix& a) {
  Matrix s;
  col_sum_into(a, s);
  return s;
}

Matrix row_sum(const Matrix& a) {
  Matrix s(a.rows(), 1);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    const double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j];
    s[i] = acc;
  }
  return s;
}

double sum(const Matrix& a) {
  double acc = 0.0;
  for (double x : a.flat()) acc += x;
  return acc;
}

double frobenius_norm(const Matrix& a) {
  double acc = 0.0;
  for (double x : a.flat()) acc += x * x;
  return std::sqrt(acc);
}

double dot(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.size() == b.size());
  double acc = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) acc += ad[i] * bd[i];
  return acc;
}

std::size_t argmax_row(const Matrix& a, std::size_t r) {
  FEDRA_EXPECTS(r < a.rows() && a.cols() > 0);
  auto row = a.row(r);
  std::size_t best = 0;
  for (std::size_t j = 1; j < row.size(); ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.same_shape(b));
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

void clip_inplace(Matrix& a, double lo, double hi) {
  FEDRA_EXPECTS(lo <= hi);
  for (auto& x : a.flat()) x = std::clamp(x, lo, hi);
}

}  // namespace fedra
