// Tests for Gaussian elimination without pivoting (§4.2, Theorem 4): the
// blocked TCU forward phase must agree with the Figure 2 triple loop on
// the row-echelon upper triangle, solve systems correctly end-to-end via
// back substitution, and charge the Theorem 4 cost. Every double kernel
// rung must return the division loop's bits, step by step and for whole
// eliminations, serial and pooled.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/costs.hpp"
#include "core/pool.hpp"
#include "linalg/gauss.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::MatrixView;
using tcu::PoolExecutor;
using tcu::linalg::ge_detail::ge_double_rungs;
using tcu::linalg::ge_detail::GeDoubleRung;
using tcu::linalg::back_substitute;
using tcu::linalg::ge_forward_naive;
using tcu::linalg::ge_forward_tcu;
using tcu::linalg::make_augmented;

/// Random diagonally-dominant system of d equations (safe without pivots).
Matrix<double> random_system(std::size_t d, std::uint64_t seed,
                             std::vector<double>* rhs = nullptr) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> A(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    double row_sum = 0;
    for (std::size_t j = 0; j < d; ++j) {
      A(i, j) = rng.uniform(-1, 1);
      row_sum += std::abs(A(i, j));
    }
    A(i, i) = row_sum + 1.0;
  }
  if (rhs) {
    rhs->resize(d);
    for (auto& x : *rhs) x = rng.uniform(-1, 1);
  }
  return A;
}

std::vector<double> residual(const Matrix<double>& A,
                             const std::vector<double>& x,
                             const std::vector<double>& b) {
  std::vector<double> r(b.size());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    double acc = -b[i];
    for (std::size_t j = 0; j < A.cols(); ++j) acc += A(i, j) * x[j];
    r[i] = acc;
  }
  return r;
}

class GaussSweep : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t>> {};

TEST_P(GaussSweep, UpperTriangleMatchesNaive) {
  const auto [m, r] = GetParam();
  const std::size_t s = tcu::exact_sqrt(m);
  if (r % s != 0) GTEST_SKIP();
  std::vector<double> b;
  auto A = random_system(r - 1, 9000 + m + r, &b);
  auto c_naive = make_augmented<double>(A.view(), b, r);
  auto c_tcu = c_naive;

  Counters ram;
  ge_forward_naive(c_naive.view(), ram);
  Device<double> dev({.m = m});
  ge_forward_tcu(dev, c_tcu.view());

  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = i; j < r; ++j) {
      ASSERT_NEAR(c_tcu(i, j), c_naive(i, j), 1e-8)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST_P(GaussSweep, SolvesTheSystem) {
  const auto [m, r] = GetParam();
  const std::size_t s = tcu::exact_sqrt(m);
  if (r % s != 0) GTEST_SKIP();
  std::vector<double> b;
  auto A = random_system(r - 1, 9500 + m + r, &b);
  auto c = make_augmented<double>(A.view(), b, r);

  Device<double> dev({.m = m});
  ge_forward_tcu(dev, c.view());
  Counters back;
  auto x = back_substitute<double>(c.view(), back);
  ASSERT_EQ(x.size(), r - 1);
  // The first r-1 unknowns solve the original system (padding unknowns
  // are the appended trivial equations).
  std::vector<double> x_orig(x.begin(), x.begin() + (A.rows()));
  for (double res : residual(A, x_orig, b)) {
    EXPECT_NEAR(res, 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GaussSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 16, 64),
                       ::testing::Values<std::size_t>(16, 32, 64)));

TEST(Gauss, NaiveSolvesSmallKnownSystem) {
  // x + y = 3, x - y = 1  =>  x = 2, y = 1.
  Matrix<double> c(3, 3, 0.0);
  c(0, 0) = 1;
  c(0, 1) = 1;
  c(0, 2) = 3;
  c(1, 0) = 1;
  c(1, 1) = -1;
  c(1, 2) = 1;
  Counters ctr;
  ge_forward_naive(c.view(), ctr);
  auto x = back_substitute<double>(c.view(), ctr);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Gauss, MakeAugmentedLayout) {
  Matrix<double> A(2, 2);
  A(0, 0) = 4;
  A(0, 1) = 1;
  A(1, 0) = 2;
  A(1, 1) = 5;
  auto c = make_augmented<double>(A.view(), {7.0, 8.0}, 6);
  EXPECT_DOUBLE_EQ(c(0, 0), 4);
  EXPECT_DOUBLE_EQ(c(0, 5), 7);
  EXPECT_DOUBLE_EQ(c(1, 5), 8);
  EXPECT_DOUBLE_EQ(c(2, 2), 1);  // appended trivial equation
  EXPECT_DOUBLE_EQ(c(4, 4), 1);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(c(5, j), 0);
}

TEST(Gauss, MakeAugmentedValidation) {
  Matrix<double> A(2, 3);
  EXPECT_THROW((void)make_augmented<double>(A.view(), {1.0, 2.0}, 6),
               std::invalid_argument);
  Matrix<double> B(2, 2);
  EXPECT_THROW((void)make_augmented<double>(B.view(), {1.0, 2.0}, 2),
               std::invalid_argument);
}

TEST(Gauss, TcuRequiresDivisibleDimension) {
  Device<double> dev({.m = 16});
  Matrix<double> c(10, 10, 1.0);
  EXPECT_THROW(ge_forward_tcu(dev, c.view()), std::invalid_argument);
}

TEST(Gauss, KernelCostsCountTheFigure4Loops) {
  // The closed forms are the only source of GE's kernel A-C CPU charges,
  // so each must equal its Figure 4 loop nest's innermost-update count.
  using namespace tcu::linalg::ge_detail;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    std::uint64_t a = 0, b = s * s, c = 0;  // B also rescales its s x s strip
    for (std::uint64_t k = 0; k + 1 < s; ++k) {
      for (std::uint64_t i = k + 1; i < s; ++i) {
        for (std::uint64_t j = k + 1; j < s; ++j) ++a;
        for (std::uint64_t j = 0; j < s; ++j) ++b;
      }
    }
    for (std::uint64_t k = 0; k < s; ++k) {
      for (std::uint64_t i = 0; i < s; ++i) {
        for (std::uint64_t j = k + 1; j < s; ++j) ++c;
      }
    }
    EXPECT_EQ(kernel_a_cost(s), a) << "s=" << s;
    EXPECT_EQ(kernel_b_cost(s), b) << "s=" << s;
    EXPECT_EQ(kernel_c_cost(s), c) << "s=" << s;
  }
}

TEST(Gauss, TensorCallsMatchBlockedSchedule) {
  // Kernel D issues one tall call per trailing block column per outer
  // iteration: sum over k of (t - 1 - k) calls, t = r/s.
  const std::size_t m = 16, s = 4, r = 32, t = r / s;
  std::vector<double> b;
  auto A = random_system(r - 1, 777, &b);
  auto c = make_augmented<double>(A.view(), b, r);
  Device<double> dev({.m = m, .latency = 5});
  ge_forward_tcu(dev, c.view());
  std::uint64_t expected_calls = 0;
  for (std::size_t k = 0; k + 1 < t; ++k) expected_calls += t - 1 - k;
  EXPECT_EQ(dev.counters().tensor_calls, expected_calls);
}

TEST(Gauss, CostTracksTheorem4AcrossSizes) {
  std::vector<double> predicted, measured;
  for (std::size_t r : {32u, 64u, 128u, 256u}) {
    std::vector<double> b;
    auto A = random_system(r - 1, 880 + r, &b);
    auto c = make_augmented<double>(A.view(), b, r);
    Device<double> dev({.m = 16, .latency = 20});
    ge_forward_tcu(dev, c.view());
    predicted.push_back(tcu::costs::thm4_gauss(
        static_cast<double>(r) * r, 16.0, 20.0));
    measured.push_back(static_cast<double>(dev.counters().time()));
  }
  EXPECT_LT(tcu::util::ratio_spread(predicted, measured), 3.0);
  auto fit = tcu::util::fit_power_law(predicted, measured);
  EXPECT_NEAR(fit.exponent, 1.0, 0.15);
}

TEST(Gauss, TcuFasterThanNaiveInModelTime) {
  const std::size_t r = 128;
  std::vector<double> b;
  auto A = random_system(r - 1, 999, &b);
  auto c1 = make_augmented<double>(A.view(), b, r);
  auto c2 = c1;
  Counters ram;
  ge_forward_naive(c1.view(), ram);
  Device<double> dev({.m = 256});
  ge_forward_tcu(dev, c2.view());
  EXPECT_LT(dev.counters().time(), ram.time());
}

// ------------------------------------------------- exact quotients

/// Bitwise equality, which tells -0 from +0, except that any two NaNs
/// match: when both operands of a product are NaN, IEEE 754 leaves open
/// whose payload and sign the result carries, and the compiler may
/// commute the operands of a * y in either loop.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Random sign, 52 random mantissa bits and an exponent in [lo, hi].
double random_double(tcu::util::Xoshiro256& rng, int lo, int hi) {
  const std::uint64_t bits = rng();
  const double mantissa = 1.0 + static_cast<double>(bits >> 12) * 0x1p-52;
  const double v = std::ldexp(mantissa, static_cast<int>(rng.uniform_int(lo, hi)));
  return (bits & 1) != 0 ? -v : v;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// `values` and their negations.
std::vector<double> with_negations(std::vector<double> values) {
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  return values;
}

/// Factors a and y at and one ulp past the guard's edges, zeros,
/// subnormals, infinities and NaN, and a few ordinary values.
std::vector<double> special_factors() {
  return with_negations({0.0, 0x1p-250, std::nextafter(0x1p-250, 0.0),
                         0x1p250, std::nextafter(0x1p250, kInf), 0x1p-251,
                         std::numeric_limits<double>::denorm_min(),
                         0x1.8p-1030, kInf, kNaN, 1.0, 1.5,
                         0x1.fffffffffffffp-1, 3.0});
}

/// Divisors c at and one ulp past the guard's edges, and the same kinds
/// of values as the factors.
std::vector<double> special_divisors() {
  return with_negations({0x1p-500, std::nextafter(0x1p-500, 0.0), 0x1p500,
                         std::nextafter(0x1p500, kInf), 0.0,
                         std::numeric_limits<double>::denorm_min(), kInf,
                         kNaN, 1.0, 3.0, 0x1.fffffffffffffp0});
}

/// The division loop `rung.eliminate` must match, on copies.
void eliminate_by_division(std::vector<double>& x, std::size_t ldx,
                           const std::vector<double>& a, std::size_t rows,
                           const std::vector<double>& y, std::size_t n,
                           double c) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) x[i * ldx + j] -= a[i] * y[j] / c;
  }
}

/// Count of entries whose bits differ.
std::size_t mismatches(const std::vector<double>& got,
                       const std::vector<double>& want) {
  std::size_t bad = 0;
  for (std::size_t q = 0; q < got.size(); ++q) bad += !same_bits(got[q], want[q]);
  return bad;
}

TEST(GaussQuotient, RungsIncludeGenericLast) {
  const auto rungs = ge_double_rungs();
  ASSERT_FALSE(rungs.empty());
  EXPECT_STREQ(rungs.back().name, "generic");
  EXPECT_STREQ(tcu::linalg::ge_detail::ge_double_rung().name,
               rungs.front().name);
}

TEST(GaussQuotient, EveryRungMatchesDivisionOnRandomTriples) {
  // More than 10M (a, y, c) triples per rung, every one inside the guard:
  // random signs, full mantissas, exponents across the guard's range.
  // x starts at +0, so each result is exactly minus the quotient. Row
  // lengths cycle through 1..17, covering every remainder of 8 and 4.
  constexpr std::size_t kRows = 32, kMaxN = 17, kTriples = 10'000'000;
  for (const GeDoubleRung& rung : ge_double_rungs()) {
    tcu::util::Xoshiro256 rng(4242);
    std::vector<double> a(kRows), y(kMaxN), got(kRows * kMaxN),
        want(kRows * kMaxN);
    std::size_t triples = 0, bad = 0;
    for (std::size_t call = 0; triples < kTriples; ++call) {
      const std::size_t n = 1 + call % kMaxN;
      const double c = random_double(rng, -500, 499);
      for (double& v : y) v = random_double(rng, -250, 249);
      for (double& v : a) v = random_double(rng, -250, 249);
      std::fill(got.begin(), got.end(), 0.0);
      std::fill(want.begin(), want.end(), 0.0);
      rung.eliminate(got.data(), kMaxN, a.data(), 1, kRows, y.data(), n, c);
      eliminate_by_division(want, kMaxN, a, kRows, y, n, c);
      bad += mismatches(got, want);
      triples += kRows * n;
    }
    EXPECT_EQ(bad, 0u) << rung.name << ": " << triples << " triples";
  }
}

TEST(GaussQuotient, EveryRungMatchesDivisionAtTheGuardEdges) {
  // Every combination of special factor, divisor and x, one element each,
  // so the guard sees exactly that triple.
  const auto factors = special_factors();
  const auto divisors = special_divisors();
  for (const GeDoubleRung& rung : ge_double_rungs()) {
    std::size_t bad = 0;
    for (const double c : divisors) {
      for (const double a : factors) {
        for (const double y : factors) {
          for (const double x : {0.0, -0.0, 1.0, -2.5, 0x1p-300}) {
            std::vector<double> got{x}, want{x};
            rung.eliminate(got.data(), 1, &a, 1, 1, &y, 1, c);
            eliminate_by_division(want, 1, {a}, 1, {y}, 1, c);
            bad += mismatches(got, want);
          }
        }
      }
    }
    EXPECT_EQ(bad, 0u) << rung.name;
  }
}

TEST(GaussQuotient, EveryRungMatchesDivisionRowByRow) {
  // Rows of length 1..17 whose a is each special factor (the per-row
  // guard), under ordinary and special divisors; then the same with one
  // special y first or last (the per-pivot guard).
  const auto factors = special_factors();
  auto divisors = special_divisors();
  tcu::util::Xoshiro256 rng(77);
  for (int i = 0; i < 8; ++i) divisors.push_back(random_double(rng, -500, 499));
  for (const GeDoubleRung& rung : ge_double_rungs()) {
    std::size_t bad = 0;
    for (std::size_t n = 1; n <= 17; ++n) {
      std::vector<double> a = factors;
      for (int i = 0; i < 4; ++i) a.push_back(random_double(rng, -250, 249));
      const std::size_t rows = a.size();
      std::vector<double> y(n), x(rows * n);
      for (double& v : y) v = random_double(rng, -250, 249);
      for (double& v : x) v = random_double(rng, -60, 60);
      for (const double c : divisors) {
        for (const std::size_t spoil : {n, std::size_t{0}, n - 1}) {
          for (const double special : spoil == n ? std::vector<double>{1.0}
                                                 : factors) {
            std::vector<double> yy = y;
            if (spoil < n) yy[spoil] = special;
            std::vector<double> got = x, want = x;
            rung.eliminate(got.data(), n, a.data(), 1, rows, yy.data(), n, c);
            eliminate_by_division(want, n, a, rows, yy, n, c);
            bad += mismatches(got, want);
          }
        }
      }
    }
    EXPECT_EQ(bad, 0u) << rung.name;
  }
}

TEST(GaussQuotient, EveryRungRescalesLikeDivision) {
  // X' = -X / diag(Y), one row at a time: rows of length 1..17 inside
  // the guard, all +0, all -0, and with one special entry at each place
  // (x = ±0 among them), under ordinary and special divisors.
  const auto factors = special_factors();
  auto divisors = special_divisors();
  tcu::util::Xoshiro256 rng(78);
  for (int i = 0; i < 8; ++i) divisors.push_back(random_double(rng, -500, 499));
  for (const GeDoubleRung& rung : ge_double_rungs()) {
    std::size_t bad = 0;
    for (std::size_t n = 1; n <= 17; ++n) {
      std::vector<std::vector<double>> rows{std::vector<double>(n, 0.0),
                                            std::vector<double>(n, -0.0)};
      std::vector<double> x(n);
      for (double& v : x) v = random_double(rng, -500, 499);
      rows.push_back(x);
      for (std::size_t at = 0; at < n; ++at) {
        for (const double special : factors) {
          rows.push_back(x);
          rows.back()[at] = special;
        }
      }
      for (const double c : divisors) {
        for (const auto& row : rows) {
          std::vector<double> got(n), want(n);
          rung.rescale(got.data(), row.data(), n, c);
          for (std::size_t j = 0; j < n; ++j) want[j] = -row[j] / c;
          bad += mismatches(got, want);
        }
      }
    }
    EXPECT_EQ(bad, 0u) << rung.name;
  }
}

/// An s x s block at stride ld (columns past s hold -1): ordinary values
/// with a sprinkling of zeros or, when hostile, exponents across -300..300
/// with zeros and subnormals, so the FMA rungs leave the guard often.
Matrix<double> random_block(std::size_t s, std::size_t ld, bool hostile,
                            tcu::util::Xoshiro256& rng) {
  Matrix<double> b(s, ld, -1.0);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      const double u = rng.uniform();
      b(i, j) = !hostile ? (u < 0.05 ? 0.0 : random_double(rng, -8, 8))
                : u < 0.1  ? 0.0
                : u < 0.12 ? 0x1.8p-1040
                           : random_double(rng, -300, 300);
    }
  }
  return b;
}

bool same_bits(const Matrix<double>& got, const Matrix<double>& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return false;
  for (std::size_t q = 0; q < got.size(); ++q) {
    if (!same_bits(got.data()[q], want.data()[q])) return false;
  }
  return true;
}

TEST(GaussQuotient, EveryRungsKernelsMatchTheTemplates) {
  // Kernels A-C of each rung against the division templates, s = 1..17
  // and perfbench's s = 64, on contiguous blocks and on blocks inside
  // wider matrices (whose extra columns must not change), with ordinary
  // and hostile values.
  using namespace tcu::linalg::ge_detail;
  tcu::util::Xoshiro256 rng(79);
  std::vector<std::size_t> sides;
  for (std::size_t s = 1; s <= 17; ++s) sides.push_back(s);
  sides.push_back(64);
  for (const GeDoubleRung& rung : ge_double_rungs()) {
    for (const std::size_t s : sides) {
      for (const std::size_t ld : {s, s + 5}) {
        for (const bool hostile : {false, true}) {
          const std::string what = std::string(rung.name) +
                                   " s=" + std::to_string(s) +
                                   " ld=" + std::to_string(ld) +
                                   (hostile ? " hostile" : "");
          const Matrix<double> x0 = random_block(s, ld, hostile, rng);
          const Matrix<double> y = random_block(s, ld, hostile, rng);
          const auto block = [s](Matrix<double>& m) {
            return m.subview(0, 0, s, s);
          };
          const auto y_block = y.view().subview(0, 0, s, s);
          Matrix<double> got = x0, want = x0;
          rung.kernels.a(block(got));
          kernel_a(block(want));
          EXPECT_TRUE(same_bits(got, want)) << what << " A";

          got = x0;
          want = x0;
          Matrix<double> got_p(s, ld, -2.0), want_p(s, ld, -2.0);
          rung.kernels.b(block(got), y_block, block(got_p));
          kernel_b(block(want), y_block, block(want_p));
          EXPECT_TRUE(same_bits(got, want) && same_bits(got_p, want_p))
              << what << " B";

          got = x0;
          want = x0;
          rung.kernels.c(block(got), y_block);
          kernel_c(block(want), y_block);
          EXPECT_TRUE(same_bits(got, want)) << what << " C";
        }
      }
    }
  }
}

// ---------------------------------------- whole eliminations, bit for bit

/// Figure 4 as it ran before strip-major storage and the FMA rungs: the
/// serial GEP order on row-major blocks with the template (division)
/// kernels and one tall D call per trailing block column. Returns the
/// charges.
Counters ge_division_reference(MatrixView<double> X, std::size_t m) {
  using namespace tcu::linalg::ge_detail;
  Device<double> dev({.m = m});
  const std::size_t r = X.rows, s = dev.tile_dim(), t = r / s;
  Matrix<double> xp(r, s);
  const auto block = [X, s](std::size_t i, std::size_t j) {
    return X.subview(i * s, j * s, s, s);
  };
  const auto xp_j = [&xp, s](std::size_t j) {
    return xp.subview(j * s, 0, s, s);
  };
  for (std::size_t k = 0; k < t; ++k) {
    kernel_a(block(k, k));
    dev.charge_cpu(kernel_a_cost(s));
    for (std::size_t j = k + 1; j < t; ++j) {
      kernel_b(block(k, j), block(k, k), xp_j(j));
      dev.charge_cpu(kernel_b_cost(s));
    }
    for (std::size_t i = k + 1; i < t; ++i) {
      kernel_c(block(i, k), block(k, k));
      dev.charge_cpu(kernel_c_cost(s));
    }
    const std::size_t top = (k + 1) * s;
    for (std::size_t j = k + 1; j < t; ++j) {
      dev.gemm_resident(tcu::linalg::ge_panel_key(k, j),
                        X.subview(top, k * s, r - top, s), xp_j(j),
                        X.subview(top, j * s, r - top, s),
                        /*accumulate=*/true);
    }
  }
  return dev.counters();
}

/// A system whose entries span exponents -300..300, a tenth of them zero
/// and a few subnormal: the elimination leaves the guard often.
Matrix<double> hostile_matrix(std::size_t r, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> x(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      const double u = rng.uniform();
      x(i, j) = u < 0.1    ? 0.0
                : u < 0.12 ? 0x1.8p-1040
                           : random_double(rng, -300, 300);
    }
  }
  return x;
}

void expect_same_charges(const Counters& got, const Counters& want,
                         bool evictions, const std::string& what) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
  EXPECT_EQ(got.latency_saved, want.latency_saved) << what;
  EXPECT_EQ(got.tagged_calls, want.tagged_calls) << what;
  EXPECT_EQ(got.cpu_ops, want.cpu_ops) << what;
  if (evictions) {
    EXPECT_EQ(got.evictions, want.evictions) << what;
  }
}

TEST(GaussBits, SerialAndPooledMatchTheDivisionKernels) {
  // s = 3, 4, 8 and 10, on a diagonally dominant augmented system (with
  // trivial equations, so zero rows) and on a hostile one: the inline
  // elimination and pools of 1, 3 and 4 units return the reference's
  // bits and charges.
  struct Case {
    std::size_t m, r;
  };
  for (const Case c : {Case{9, 21}, Case{16, 28}, Case{64, 64}, Case{100, 60}}) {
    std::vector<double> b;
    const auto A = random_system(c.r - 3, 3100 + c.r, &b);
    for (const Matrix<double>& input :
         {make_augmented<double>(A.view(), b, c.r), hostile_matrix(c.r, c.m)}) {
      Matrix<double> want = input;
      const Counters charges = ge_division_reference(want.view(), c.m);
      const std::string at = "m=" + std::to_string(c.m);

      Matrix<double> got = input;
      Device<double> dev({.m = c.m});
      ge_forward_tcu(dev, got.view());
      EXPECT_TRUE(same_bits(got, want)) << at << " inline";
      expect_same_charges(dev.counters(), charges, true, at + " inline");

      for (const std::size_t p : {1u, 3u, 4u}) {
        DevicePool<double> pool(p, {.m = c.m});
        PoolExecutor<double> exec(pool);
        Matrix<double> pooled = input;
        tcu::linalg::ge_forward_tcu_pool(exec, pooled.view());
        EXPECT_TRUE(same_bits(pooled, want)) << at << " p=" << p;
        expect_same_charges(pool.aggregate(), charges, false,
                            at + " p=" + std::to_string(p));
      }
    }
  }
}

TEST(GaussBits, StridedViewLeavesItsNeighboursAlone) {
  // A view into a wider matrix takes the packed path: the reference's
  // bits inside, every entry outside untouched.
  constexpr double kOutside = -123.25;
  const std::size_t m = 16, r = 20;
  std::vector<double> b;
  const auto A = random_system(r - 1, 3300, &b);
  const auto input = make_augmented<double>(A.view(), b, r);
  Matrix<double> want = input;
  const Counters charges = ge_division_reference(want.view(), m);
  for (const bool pooled : {false, true}) {
    Matrix<double> big(r + 3, r + 7, kOutside);
    const auto view = big.subview(1, 4, r, r);
    tcu::copy(input.view(), view);
    if (pooled) {
      DevicePool<double> pool(3, {.m = m});
      PoolExecutor<double> exec(pool);
      tcu::linalg::ge_forward_tcu_pool(exec, view);
      expect_same_charges(pool.aggregate(), charges, false, "pooled");
    } else {
      Device<double> dev({.m = m});
      ge_forward_tcu(dev, view);
      expect_same_charges(dev.counters(), charges, true, "inline");
    }
    for (std::size_t i = 0; i < big.rows(); ++i) {
      for (std::size_t j = 0; j < big.cols(); ++j) {
        const bool inside = i >= 1 && i < r + 1 && j >= 4 && j < r + 4;
        ASSERT_TRUE(same_bits(big(i, j), inside ? want(i - 1, j - 4) : kOutside))
            << "pooled=" << pooled << " (" << i << "," << j << ")";
      }
    }
  }
}

/// An executor that forwards to `inner` but throws from its `throw_at`-th
/// submit (counting from 1). Every task it forwards sleeps briefly, so
/// tasks are still in flight when the submit throws, and counts itself in
/// `running` and `finished`.
template <typename Inner>
struct ThrowingExecutor {
  Inner& inner;
  std::size_t throw_at;
  std::size_t submits = 0;
  std::atomic<int> running{0};
  std::atomic<int> finished{0};

  const Device<double>& unit0() const { return inner.unit0(); }
  std::size_t size() const { return inner.size(); }
  void charge_cpu(std::uint64_t ops) { inner.charge_cpu(ops); }
  void evict_all() { inner.evict_all(); }
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    inner.for_each_lane(std::forward<Fn>(fn));
  }
  tcu::RoundReport join() { return inner.join(); }

  tcu::TaskTicket submit(tcu::TaskSpec spec,
                         std::function<void(Device<double>&)> task) {
    if (++submits == throw_at) throw std::runtime_error("submit");
    return inner.submit(std::move(spec),
                        [this, task = std::move(task)](Device<double>& unit) {
                          running.fetch_add(1);
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(200));
                          task(unit);
                          finished.fetch_add(1);
                          running.fetch_sub(1);
                        });
  }
};

TEST(GaussBits, ThrowingSubmitJoinsTheRoundAndRestoresRowMajor) {
  // A submit that throws mid-round: the round's submitted tasks finish
  // before the call returns, none runs after, and the caller gets its
  // buffer back row-major — the inline run of the same prefix of the
  // schedule, bit for bit; a throw at the second submit leaves kernel A's
  // block (0, 0) and the input everywhere else. The executor then runs a
  // whole elimination bit-identically.
  using namespace tcu::linalg::ge_detail;
  const std::size_t m = 16, r = 32, s = 4;  // t = 8: 92 tasks
  std::vector<double> b;
  const auto A = random_system(r - 1, 3400, &b);
  const auto input = make_augmented<double>(A.view(), b, r);
  Matrix<double> want = input;
  ge_division_reference(want.view(), m);
  DevicePool<double> pool(3, {.m = m});
  PoolExecutor<double> exec(pool);
  for (const std::size_t throw_at : {2u, 40u}) {
    const std::string at = "throw_at=" + std::to_string(throw_at);
    Matrix<double> prefix = input;
    {
      Device<double> dev({.m = m});
      tcu::InlineExecutor<double> inline_exec(dev);
      ThrowingExecutor<tcu::InlineExecutor<double>> thrower{inline_exec,
                                                            throw_at};
      EXPECT_THROW(ge_forward(thrower, prefix.view()), std::runtime_error);
    }
    if (throw_at == 2) {
      Matrix<double> a_only = input;
      kernel_a(a_only.subview(0, 0, s, s));
      EXPECT_TRUE(same_bits(prefix, a_only)) << at;
    }
    Matrix<double> got = input;
    ThrowingExecutor<PoolExecutor<double>> thrower{exec, throw_at};
    EXPECT_THROW(ge_forward(thrower, got.view()), std::runtime_error);
    const int finished = thrower.finished.load();
    EXPECT_EQ(thrower.running.load(), 0) << at;
    EXPECT_EQ(static_cast<std::size_t>(finished), throw_at - 1) << at;
    EXPECT_TRUE(same_bits(got, prefix)) << at;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(thrower.finished.load(), finished) << at;

    Matrix<double> again = input;
    tcu::linalg::ge_forward_tcu_pool(exec, again.view());
    EXPECT_TRUE(same_bits(again, want)) << at;
  }
}

}  // namespace
