// Gaussian elimination's kernels A-C for double, one set per SIMD rung
// (the quotient argument, the guard and the rung table are in gauss.hpp).
//
// Each kernel is a sequence of `eliminate` steps, x_i -= a_i * y / c over
// a block of rows, plus kernel B's `rescale` of X'; kernel C takes its
// steps on the block's transpose, so they span whole rows as B's do
// (gauss.hpp). The FMA rungs inline one body of each under
// target("avx512f") or target("avx2,fma"), so the compiler vectorizes it
// at that width; the generic rung is the division loop of the templates
// in gauss.hpp. `ge_double_rung` picks a rung once per process through
// plain function pointers, as closure's loops do.
//
// The library builds with -ffp-contract=off, which forbids the compiler
// to fuse a multiply and an add it was asked to round separately. The
// std::fma calls here are not such a contraction: each is one rounding
// the code asks for, and the quotient they build is exact (gauss.hpp).

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/backend.hpp"
#include "linalg/gauss.hpp"

namespace tcu::linalg::ge_detail {

namespace {

// The guard of the fast quotient (gauss.hpp): factors a and y, and the
// divisor c and the numerator of X'.
constexpr double kFactorLo = 0x1p-250;
constexpr double kFactorHi = 0x1p250;
constexpr double kQuotientLo = 0x1p-500;
constexpr double kQuotientHi = 0x1p500;

/// The calling thread's scratch array of at least `n` T, on a cache
/// line. It grows to the largest size its thread asked for and is reused.
template <typename T>
T* scratch(std::size_t n) {
  thread_local std::vector<T, CacheLineAllocator<T>> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

/// |v| in [lo, hi]; false for NaN.
[[gnu::always_inline]] inline bool within(double v, double lo, double hi) {
  const double m = std::fabs(v);
  return (m >= lo) & (m <= hi);
}

/// Every |p[j]| in [lo, hi], branch-free so the scan vectorizes.
[[gnu::always_inline]] inline bool all_within(const double* p, std::size_t n,
                                              double lo, double hi) {
  unsigned ok = 1;  // a bool accumulator does not vectorise
  for (std::size_t j = 0; j < n; ++j) ok &= within(p[j], lo, hi);
  return ok != 0;
}

/// RN(num / c) from r = RN(1 / c): two residual corrections of num * r.
[[gnu::always_inline]] inline double quotient(double num, double c,
                                              double r) {
  double q = num * r;
  q = std::fma(std::fma(-q, c, num), r, q);
  return std::fma(std::fma(-q, c, num), r, q);
}

[[gnu::always_inline]] inline void eliminate_row_fast(
    double* __restrict x, const double* __restrict y, std::size_t n, double a,
    double c, double r) {
  for (std::size_t j = 0; j < n; ++j) x[j] -= quotient(a * y[j], c, r);
}

[[gnu::always_inline]] inline void eliminate_row_div(
    double* __restrict x, const double* __restrict y, std::size_t n, double a,
    double c) {
  for (std::size_t j = 0; j < n; ++j) x[j] -= a * y[j] / c;
}

/// GeDoubleRung::eliminate on an FMA rung: the guard on c and y once,
/// on a once per row.
[[gnu::always_inline]] inline void eliminate_body(
    double* x, std::size_t ldx, const double* a, std::size_t lda,
    std::size_t rows, const double* y, std::size_t n, double c) {
  if (n == 0) return;
  const bool fast = within(c, kQuotientLo, kQuotientHi) &&
                    all_within(y, n, kFactorLo, kFactorHi);
  const double r = 1.0 / c;
  for (std::size_t i = 0; i < rows; ++i) {
    const double ai = a[i * lda];
    if (fast && within(ai, kFactorLo, kFactorHi)) {
      eliminate_row_fast(x + i * ldx, y, n, ai, c, r);
    } else {
      eliminate_row_div(x + i * ldx, y, n, ai, c);
    }
  }
}

/// GeDoubleRung::rescale on an FMA rung. The numerator is -x: written
/// as 0 - q, a zero quotient would come out +0 where -x / c gives -0.
[[gnu::always_inline]] inline void rescale_body(double* __restrict out,
                                                const double* __restrict x,
                                                std::size_t n, double c) {
  if (within(c, kQuotientLo, kQuotientHi) &&
      all_within(x, n, kQuotientLo, kQuotientHi)) {
    const double r = 1.0 / c;
    for (std::size_t j = 0; j < n; ++j) out[j] = quotient(-x[j], c, r);
  } else {
    for (std::size_t j = 0; j < n; ++j) out[j] = -x[j] / c;
  }
}

// Kernels A-C of gauss.hpp, each update loop one `eliminate` per pivot.

[[gnu::always_inline]] inline void kernel_a_body(MatrixView<double> X) {
  const std::size_t s = X.rows, ld = X.stride;
  double* d = X.data;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    eliminate_body(d + (k + 1) * ld + k + 1, ld, d + (k + 1) * ld + k, ld,
                   s - k - 1, d + k * ld + k + 1, s - k - 1, d[k * ld + k]);
  }
}

[[gnu::always_inline]] inline void kernel_b_body(MatrixView<double> X,
                                                 ConstMatrixView<double> Y,
                                                 MatrixView<double> Xp) {
  const std::size_t s = X.rows, ld = X.stride, ldy = Y.stride;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    eliminate_body(X.data + (k + 1) * ld, ld, Y.data + (k + 1) * ldy + k, ldy,
                   s - k - 1, X.data + k * ld, s, Y.data[k * ldy + k]);
  }
  for (std::size_t i = 0; i < s; ++i) {
    rescale_body(Xp.data + i * Xp.stride, X.data + i * ld, s,
                 Y.data[i * ldy + i]);
  }
}

/// dst = src^T for s x s blocks of strides ldd and lds.
[[gnu::always_inline]] inline void transpose_block(double* __restrict dst,
                                                   std::size_t ldd,
                                                   const double* __restrict src,
                                                   std::size_t lds,
                                                   std::size_t s) {
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) dst[j * ldd + i] = src[i * lds + j];
  }
}

/// Kernel C on Z = X^T, in the calling thread's scratch block: pivot k's
/// updates X(i, j) -= X(i, k) * Y(k, j) / Y(k, k) are, on Z, the s-k-1
/// full-width rows j > k less Y(k, j) times row k, so C runs kernel B's
/// shape rather than s short rows that each pay the guard and a partial
/// vector. RN(a * y) commutes and every quotient is exact on either path,
/// so the bits are the row-major loop's.
[[gnu::always_inline]] inline void kernel_c_body(MatrixView<double> X,
                                                 ConstMatrixView<double> Y) {
  const std::size_t s = X.rows, ldy = Y.stride;
  double* z = scratch<double>(s * (s + 1));
  double* redo = z + s * s;  // one row's redone entries
  std::size_t* redone = scratch<std::size_t>(s);
  transpose_block(z, s, X.data, X.stride, s);
  for (std::size_t k = 0; k + 1 < s; ++k) {
    double* rows = z + (k + 1) * s;
    const std::size_t n = s - k - 1;
    const double* a = Y.data + k * ldy + k + 1;
    const double* y = z + k * s;
    const double c = Y.data[k * ldy + k];
    if (all_within(y, s, kFactorLo, kFactorHi)) {
      eliminate_body(rows, s, a, 1, n, y, s, c);
      continue;
    }
    // A factor y_i outside the guard (X's zero last row, say) would send
    // every row down the division loop. Only column i takes it: a fast
    // row keeps that entry's division result, runs the fast loop, whose
    // entry i may be inexact, and puts the result back. (Writing the
    // results back after all the rows stalls the next pivot's loads on
    // the scalar stores.)
    std::size_t count = 0;
    for (std::size_t i = 0; i < s; ++i) {
      if (!within(y[i], kFactorLo, kFactorHi)) redone[count++] = i;
    }
    const bool fast = within(c, kQuotientLo, kQuotientHi);
    const double r = 1.0 / c;
    for (std::size_t j = 0; j < n; ++j) {
      double* x = rows + j * s;
      if (!fast || !within(a[j], kFactorLo, kFactorHi)) {
        eliminate_row_div(x, y, s, a[j], c);
        continue;
      }
      for (std::size_t q = 0; q < count; ++q) {
        redo[q] = x[redone[q]] - a[j] * y[redone[q]] / c;
      }
      eliminate_row_fast(x, y, s, a[j], c, r);
      for (std::size_t q = 0; q < count; ++q) x[redone[q]] = redo[q];
    }
  }
  transpose_block(X.data, X.stride, z, s, s);
}

// The generic rung: the division loops.

void eliminate_div(double* x, std::size_t ldx, const double* a,
                   std::size_t lda, std::size_t rows, const double* y,
                   std::size_t n, double c) {
  for (std::size_t i = 0; i < rows; ++i) {
    eliminate_row_div(x + i * ldx, y, n, a[i * lda], c);
  }
}

void rescale_div(double* out, const double* x, std::size_t n, double c) {
  for (std::size_t j = 0; j < n; ++j) out[j] = -x[j] / c;
}

constexpr GeDoubleRung kGeneric{
    "generic",
    {kernel_a<double>, kernel_b<double>, kernel_c<double>},
    eliminate_div,
    rescale_div};

// One FMA rung: each body inlined under the rung's target attribute.
#define TCU_GE_RUNG(rung, ATTR)                                               \
  namespace rung {                                                           \
  ATTR void eliminate(double* x, std::size_t ldx, const double* a,           \
                      std::size_t lda, std::size_t rows, const double* y,    \
                      std::size_t n, double c) {                             \
    eliminate_body(x, ldx, a, lda, rows, y, n, c);                           \
  }                                                                          \
  ATTR void rescale(double* out, const double* x, std::size_t n, double c) { \
    rescale_body(out, x, n, c);                                              \
  }                                                                          \
  ATTR void kernel_a(MatrixView<double> X) { kernel_a_body(X); }             \
  ATTR void kernel_b(MatrixView<double> X, ConstMatrixView<double> Y,        \
                     MatrixView<double> Xp) {                                \
    kernel_b_body(X, Y, Xp);                                                 \
  }                                                                          \
  ATTR void kernel_c(MatrixView<double> X, ConstMatrixView<double> Y) {      \
    kernel_c_body(X, Y);                                                     \
  }                                                                          \
  constexpr GeDoubleRung kRung{                                              \
      #rung, {kernel_a, kernel_b, kernel_c}, eliminate, rescale};            \
  }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCU_GE_X86 1
TCU_GE_RUNG(avx512, __attribute__((target("avx512f"))))
TCU_GE_RUNG(avx2, __attribute__((target("avx2,fma"))))

/// The avx2 rung fuses, so besides the micro backend's AVX2 check it
/// needs FMA3, which AVX2 does not imply.
bool has_avx2_fma() {
  static const bool has = backend_detail::micro_has_avx2() &&
                          __builtin_cpu_supports("fma") != 0;
  return has;
}
#endif
#undef TCU_GE_RUNG

}  // namespace

std::vector<GeDoubleRung> ge_double_rungs() {
  std::vector<GeDoubleRung> rungs;
#ifdef TCU_GE_X86
  if (backend_detail::micro_has_avx512()) rungs.push_back(avx512::kRung);
  if (has_avx2_fma()) rungs.push_back(avx2::kRung);
#endif
  rungs.push_back(kGeneric);
  return rungs;
}

const GeDoubleRung& ge_double_rung() {
  static const GeDoubleRung chosen = ge_double_rungs().front();
  return chosen;
}

}  // namespace tcu::linalg::ge_detail
