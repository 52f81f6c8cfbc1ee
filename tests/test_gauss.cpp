// Tests for Gaussian elimination without pivoting (§4.2, Theorem 4): the
// blocked TCU forward phase must agree with the Figure 2 triple loop on
// the row-echelon upper triangle, solve systems correctly end-to-end via
// back substitution, and charge the Theorem 4 cost.

#include <gtest/gtest.h>

#include "core/costs.hpp"
#include "linalg/gauss.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
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

}  // namespace
