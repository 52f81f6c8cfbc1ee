// Gaussian elimination's kernels A-C for double, one set per SIMD rung
// (the quotient argument, the guard and the rung table are in gauss.hpp).
//
// Each kernel is a sequence of `eliminate` steps, x_i -= a_i * y / c over
// a block of rows, plus kernel B's `rescale` of X'. The FMA rungs inline
// one body of each under target("avx512f") or target("avx2,fma"), so the
// compiler vectorizes it at that width; the generic rung is the division
// loop of the templates in gauss.hpp. `ge_double_rung` picks a rung once
// per process through plain function pointers, as closure's loops do.
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

[[gnu::always_inline]] inline void kernel_c_body(MatrixView<double> X,
                                                 ConstMatrixView<double> Y) {
  const std::size_t s = X.rows, ld = X.stride, ldy = Y.stride;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    eliminate_body(X.data + k + 1, ld, X.data + k, ld, s,
                   Y.data + k * ldy + k + 1, s - k - 1, Y.data[k * ldy + k]);
  }
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
