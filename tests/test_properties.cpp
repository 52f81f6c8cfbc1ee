// Property-based tests: algebraic identities that must hold across the
// whole library, swept over model parameters (m, ℓ) and problem sizes
// with parameterized gtest. These complement the per-module oracles: an
// identity violated for *any* parameter combination indicates a model or
// accounting bug even when individual results look plausible.

#include <gtest/gtest.h>

#include <complex>

#include "core/precision.hpp"
#include "dft/dft.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "intmul/mul.hpp"
#include "linalg/dense.hpp"
#include "linalg/strassen.hpp"
#include "systolic/engine.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using Complex = std::complex<double>;

Matrix<double> rand_mat(std::size_t r, std::size_t c, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

void expect_close(const Matrix<double>& a, const Matrix<double>& b,
                  double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), tol);
    }
  }
}

// --------------------------------------------------- matmul ring axioms

class MatmulAlgebra : public ::testing::TestWithParam<
                          std::tuple<std::size_t, std::size_t>> {};

TEST_P(MatmulAlgebra, Associativity) {
  const auto [m, d] = GetParam();
  Device<double> dev({.m = m});
  auto a = rand_mat(d, d, 10 + d + m);
  auto b = rand_mat(d, d, 20 + d + m);
  auto c = rand_mat(d, d, 30 + d + m);
  auto left = tcu::linalg::matmul_tcu(
      dev, tcu::linalg::matmul_tcu(dev, a.view(), b.view()).view(),
      c.view());
  auto right = tcu::linalg::matmul_tcu(
      dev, a.view(),
      tcu::linalg::matmul_tcu(dev, b.view(), c.view()).view());
  expect_close(left, right, 1e-9 * static_cast<double>(d));
}

TEST_P(MatmulAlgebra, DistributivityOverAddition) {
  const auto [m, d] = GetParam();
  Device<double> dev({.m = m});
  auto a = rand_mat(d, d, 40 + d + m);
  auto b = rand_mat(d, d, 50 + d + m);
  auto c = rand_mat(d, d, 60 + d + m);
  Matrix<double> bc(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) bc(i, j) = b(i, j) + c(i, j);
  }
  auto lhs = tcu::linalg::matmul_tcu(dev, a.view(), bc.view());
  auto ab = tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  auto ac = tcu::linalg::matmul_tcu(dev, a.view(), c.view());
  Matrix<double> rhs(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) rhs(i, j) = ab(i, j) + ac(i, j);
  }
  expect_close(lhs, rhs, 1e-10 * static_cast<double>(d));
}

TEST_P(MatmulAlgebra, TransposeAntiHomomorphism) {
  // (AB)^T = B^T A^T.
  const auto [m, d] = GetParam();
  Device<double> dev({.m = m});
  auto a = rand_mat(d, d, 70 + d + m);
  auto b = rand_mat(d, d, 80 + d + m);
  auto ab_t = tcu::transposed(
      tcu::linalg::matmul_tcu(dev, a.view(), b.view()).view());
  auto bt = tcu::transposed(b.view());
  auto at = tcu::transposed(a.view());
  auto bt_at = tcu::linalg::matmul_tcu(dev, bt.view(), at.view());
  expect_close(ab_t, bt_at, 1e-10 * static_cast<double>(d));
}

TEST_P(MatmulAlgebra, StrassenAgreesWithBlocked) {
  const auto [m, d] = GetParam();
  Device<double> dev1({.m = m}), dev2({.m = m});
  auto a = rand_mat(d, d, 90 + d + m);
  auto b = rand_mat(d, d, 95 + d + m);
  auto blocked = tcu::linalg::matmul_tcu(dev1, a.view(), b.view());
  auto strassen =
      tcu::linalg::matmul_strassen_tcu(dev2, a.view(), b.view(), {.p0 = 7});
  expect_close(blocked, strassen, 1e-9 * static_cast<double>(d));
}

INSTANTIATE_TEST_SUITE_P(
    Params, MatmulAlgebra,
    ::testing::Combine(::testing::Values<std::size_t>(16, 64, 256),
                       ::testing::Values<std::size_t>(24, 64)));

// ------------------------------------------------ engine interchangeability

class EngineEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalence, AllEnginesProduceSameProducts) {
  const std::size_t m = GetParam();
  const std::size_t s = tcu::exact_sqrt(m);
  auto a = rand_mat(3 * s + 1, s, 100 + m);
  auto b = rand_mat(s, s, 110 + m);
  Device<double> reference({.m = m});
  auto sys = tcu::systolic::make_systolic_device<double>({.m = m});
  Device<double> weak({.m = m, .allow_tall = false},
                      tcu::systolic::output_stationary_engine<double>());
  auto c1 = reference.multiply(a, b);
  auto c2 = sys.multiply(a, b);
  auto c3 = weak.multiply(a, b);
  expect_close(c1, c2, 1e-11);
  expect_close(c1, c3, 1e-11);
  // Cost charges agree between reference and systolic tall devices.
  EXPECT_EQ(reference.counters().tensor_time, sys.counters().tensor_time);
}

INSTANTIATE_TEST_SUITE_P(TileAreas, EngineEquivalence,
                         ::testing::Values(4, 16, 64, 256));

// ----------------------------------------------------- DFT signal theorems

class DftTheorems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftTheorems, CircularShiftBecomesModulation) {
  // DFT(x shifted by s)[k] = DFT(x)[k] * exp(-2 pi i s k / n).
  const std::size_t n = GetParam();
  tcu::util::Xoshiro256 rng(200 + n);
  tcu::dft::CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const std::size_t shift = n / 3 + 1;
  tcu::dft::CVec shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + shift) % n];
  Device<Complex> dev({.m = 64});
  auto fx = tcu::dft::dft_tcu(dev, x);
  auto fs = tcu::dft::dft_tcu(dev, shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = 2.0 * std::numbers::pi *
                         static_cast<double>((shift * k) % n) /
                         static_cast<double>(n);
    const Complex phase{std::cos(angle), std::sin(angle)};
    EXPECT_NEAR(std::abs(fs[k] - fx[k] * phase), 0.0, 1e-8);
  }
}

TEST_P(DftTheorems, ConvolutionTheoremHolds) {
  // DFT(a (*) b) = DFT(a) . DFT(b), checked through the public pieces.
  const std::size_t n = GetParam();
  tcu::util::Xoshiro256 rng(300 + n);
  tcu::dft::CVec a(n), b(n);
  for (auto& v : a) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : b) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  Device<Complex> dev({.m = 64});
  auto conv = tcu::dft::circular_convolve_tcu(dev, a, b);
  auto f_conv = tcu::dft::dft_tcu(dev, conv);
  auto fa = tcu::dft::dft_tcu(dev, a);
  auto fb = tcu::dft::dft_tcu(dev, b);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(f_conv[k] - fa[k] * fb[k]), 0.0, 1e-7);
  }
}

TEST_P(DftTheorems, ConjugateSymmetryForRealSignals) {
  const std::size_t n = GetParam();
  tcu::util::Xoshiro256 rng(400 + n);
  tcu::dft::CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), 0.0};
  Device<Complex> dev({.m = 64});
  auto fx = tcu::dft::dft_tcu(dev, x);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(fx[k] - std::conj(fx[n - k])), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, DftTheorems,
                         ::testing::Values(12, 32, 63, 128));

// -------------------------------------------------------- graph properties

class ClosureProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClosureProperties, ClosureIsIdempotent) {
  const std::size_t n = GetParam();
  auto adj = tcu::graph::random_digraph(n, 0.08, 500 + n);
  Device<tcu::graph::Vert> dev({.m = 16});
  auto once = adj;
  tcu::graph::closure_tcu(dev, once.view());
  auto twice = once;
  tcu::graph::closure_tcu(dev, twice.view());
  EXPECT_TRUE(once == twice);
}

TEST_P(ClosureProperties, ClosureIsMonotone) {
  // Adding an edge can only add reachable pairs.
  const std::size_t n = GetParam();
  auto adj = tcu::graph::random_digraph(n, 0.05, 600 + n);
  auto more = adj;
  more(0, n - 1) = 1;
  Device<tcu::graph::Vert> dev({.m = 16});
  auto c1 = adj;
  auto c2 = more;
  tcu::graph::closure_tcu(dev, c1.view());
  tcu::graph::closure_tcu(dev, c2.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(c2(i, j), c1(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClosureProperties,
                         ::testing::Values(6, 20, 40));

// ------------------------------------------------------- bignum invariants

TEST(BigIntProperties, MultiplicationLengthAndMonotonicity) {
  tcu::util::Xoshiro256 rng(700);
  Device<std::int64_t> dev({.m = 64});
  for (int trial = 0; trial < 15; ++trial) {
    const auto bits_a = static_cast<std::size_t>(rng.uniform_int(2, 700));
    const auto bits_b = static_cast<std::size_t>(rng.uniform_int(2, 700));
    const auto a = tcu::intmul::BigInt::random_bits(bits_a, rng);
    const auto b = tcu::intmul::BigInt::random_bits(bits_b, rng);
    const auto p = tcu::intmul::mul_schoolbook_tcu(dev, a, b);
    // bitlen(ab) in {bitlen a + bitlen b - 1, bitlen a + bitlen b}.
    EXPECT_GE(p.bit_length(), bits_a + bits_b - 1);
    EXPECT_LE(p.bit_length(), bits_a + bits_b);
    // ab >= a and ab >= b for b, a >= 1.
    EXPECT_GE(p, a);
    EXPECT_GE(p, b);
  }
}

TEST(BigIntProperties, KaratsubaIdentityCrossCheck) {
  // (a + b)^2 = a^2 + 2ab + b^2 across algorithms.
  tcu::util::Xoshiro256 rng(701);
  Device<std::int64_t> dev({.m = 64});
  const auto a = tcu::intmul::BigInt::random_bits(500, rng);
  const auto b = tcu::intmul::BigInt::random_bits(460, rng);
  const auto sum = a + b;
  const auto lhs = tcu::intmul::mul_karatsuba_tcu(dev, sum, sum);
  const auto ab = tcu::intmul::mul_schoolbook_tcu(dev, a, b);
  const auto rhs = tcu::intmul::mul_karatsuba_tcu(dev, a, a) + ab + ab +
                   tcu::intmul::mul_schoolbook_tcu(dev, b, b);
  EXPECT_EQ(lhs.to_hex(), rhs.to_hex());
}

// -------------------------------------------------- quantization properties

TEST(QuantizeProperties, IdempotentAndMonotone) {
  tcu::util::Xoshiro256 rng(800);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.uniform(-1000, 1000);
    const int bits = static_cast<int>(rng.uniform_int(1, 40));
    const double q = tcu::quantize(x, bits);
    // Idempotence: quantizing a representable value is a no-op.
    EXPECT_EQ(tcu::quantize(q, bits), q);
    // Widening never loses what narrowing kept.
    EXPECT_EQ(tcu::quantize(q, bits + 5), q);
    // Relative error bounded by the mantissa step.
    if (x != 0.0) {
      EXPECT_LE(std::abs(q - x) / std::abs(x), std::ldexp(1.0, -bits - 1));
    }
  }
}

TEST(QuantizeProperties, PreservesSignAndOrder) {
  tcu::util::Xoshiro256 rng(801);
  for (int trial = 0; trial < 100; ++trial) {
    const double x = rng.uniform(-10, 10);
    const double y = rng.uniform(-10, 10);
    const double qx = tcu::quantize(x, 8);
    const double qy = tcu::quantize(y, 8);
    if (x > 0) {
      EXPECT_GE(qx, 0.0);
    }
    if (x < 0) {
      EXPECT_LE(qx, 0.0);
    }
    if (qx > qy) {
      EXPECT_GT(x, y);  // rounding is monotone
    }
  }
}

// ----------------------------------------------- cost-accounting invariants

class CostInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostInvariants, TimeDecomposesExactly) {
  const std::size_t m = GetParam();
  Device<double> dev({.m = m, .latency = 11});
  auto a = rand_mat(40, 40, 900 + m);
  auto b = rand_mat(40, 40, 910 + m);
  (void)tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  const auto& c = dev.counters();
  EXPECT_EQ(c.time(), c.tensor_time + c.cpu_ops);
  EXPECT_EQ(c.latency_time, c.tensor_calls * 11u);
  EXPECT_GE(c.tensor_time, c.latency_time);
  // MACs = sum of n*m over calls = tensor_rows * m.
  EXPECT_EQ(c.tensor_macs, c.tensor_rows * m);
}

TEST_P(CostInvariants, WeakModeNeverCheaper) {
  const std::size_t m = GetParam();
  Device<double> tall({.m = m, .latency = 9});
  Device<double> weak({.m = m, .latency = 9, .allow_tall = false});
  auto a = rand_mat(48, 48, 920 + m);
  auto b = rand_mat(48, 48, 930 + m);
  (void)tcu::linalg::matmul_tcu(tall, a.view(), b.view());
  (void)tcu::linalg::matmul_tcu(weak, a.view(), b.view());
  EXPECT_LE(tall.counters().time(), weak.counters().time());
}

INSTANTIATE_TEST_SUITE_P(TileAreas, CostInvariants,
                         ::testing::Values(4, 16, 64, 144, 256));

}  // namespace
