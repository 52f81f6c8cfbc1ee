// Unit tests for the core module: matrices/views, counters, the Device
// cost contract (tall vs weak charging, latency accounting, shape
// validation), traces, and the complex-via-real GEMM wrappers.

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <utility>

#include "core/complex_gemm.hpp"
#include "core/costs.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::ConstMatrixView;
using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using tcu::MatrixView;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             tcu::util::Xoshiro256& rng) {
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

Matrix<double> reference_product(const Matrix<double>& a,
                                 const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return c;
}

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, ConstructionAndIndexing) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = -5;
  EXPECT_EQ(m(1, 2), -5);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  auto eye = Matrix<double>::identity(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, SubviewSharesStorage) {
  Matrix<int> m(4, 4, 0);
  auto v = m.subview(1, 1, 2, 2);
  v(0, 0) = 42;
  EXPECT_EQ(m(1, 1), 42);
  EXPECT_EQ(v.stride, 4u);
}

TEST(Matrix, SubviewOutOfRangeThrows) {
  Matrix<int> m(4, 4, 0);
  EXPECT_THROW((void)m.subview(2, 2, 3, 1), std::out_of_range);
  EXPECT_THROW((void)m.subview(0, 3, 1, 2), std::out_of_range);
}

TEST(Matrix, CopyAndMaterializeRoundTrip) {
  tcu::util::Xoshiro256 rng(1);
  auto m = random_matrix(5, 7, rng);
  auto copy = tcu::materialize(ConstMatrixView<double>(m.view()));
  EXPECT_TRUE(m == copy);
}

TEST(Matrix, TransposedIsInvolution) {
  tcu::util::Xoshiro256 rng(2);
  auto m = random_matrix(3, 6, rng);
  auto tt = tcu::transposed(tcu::transposed(m.view()).view());
  EXPECT_TRUE(m == tt);
}

TEST(Matrix, StorageIsCacheLineAligned) {
  // 512 x 512 is a large chunk, which glibc starts 16 bytes past a line.
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {3, 5},
                             {7, 13},
                             {512, 512}}) {
    Matrix<double> m(r, c, 1.0);
    EXPECT_TRUE(line_aligned(m.data())) << r << "x" << c;
    const Matrix<double> copy(m);
    EXPECT_TRUE(line_aligned(copy.data())) << r << "x" << c;
    Matrix<double> assigned(r + 2, c + 3, 0.0);
    assigned = m;
    EXPECT_TRUE(line_aligned(assigned.data())) << r << "x" << c;
    EXPECT_TRUE(assigned == m);
    const Matrix<double> moved(std::move(assigned));
    EXPECT_TRUE(line_aligned(moved.data())) << r << "x" << c;
    EXPECT_TRUE(line_aligned(tcu::materialize(m.view()).data()));
    EXPECT_TRUE(line_aligned(tcu::transposed(m.view()).data()));
  }
  for (std::size_t n : {1u, 9u}) {
    EXPECT_TRUE(line_aligned(Matrix<float>::identity(n).data())) << n;
  }
}

TEST(Matrix, EqualityDetectsDifferences) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b(2, 2, 1);
  EXPECT_TRUE(a == b);
  b(1, 1) = 2;
  EXPECT_FALSE(a == b);
}

// -------------------------------------------------------------- Counters

TEST(Counters, TensorChargeFormula) {
  Counters c;
  c.charge_tensor_call(/*n=*/100, /*sqrt_m=*/16, /*latency=*/50);
  EXPECT_EQ(c.tensor_calls, 1u);
  EXPECT_EQ(c.tensor_rows, 100u);
  EXPECT_EQ(c.tensor_time, 100u * 16u + 50u);
  EXPECT_EQ(c.tensor_macs, 100u * 256u);
  EXPECT_EQ(c.latency_time, 50u);
  EXPECT_EQ(c.time(), c.tensor_time);
}

TEST(Counters, TimeSumsCpuAndTensor) {
  Counters c;
  c.charge_cpu(123);
  c.charge_tensor_call(16, 16, 10);
  EXPECT_EQ(c.time(), 123u + 16u * 16u + 10u);
}

TEST(Counters, AccumulateOperator) {
  Counters a, b;
  a.charge_cpu(5);
  b.charge_tensor_call(16, 4, 1);
  a += b;
  EXPECT_EQ(a.cpu_ops, 5u);
  EXPECT_EQ(a.tensor_calls, 1u);
  EXPECT_EQ(a.tensor_time, 16u * 4u + 1u);
}

TEST(Counters, ResetClearsEverything) {
  Counters c;
  c.charge_cpu(9);
  c.charge_tensor_call(8, 8, 2);
  c.reset();
  EXPECT_EQ(c.time(), 0u);
  EXPECT_EQ(c.tensor_calls, 0u);
}

// ---------------------------------------------------------------- Device

TEST(Device, RejectsNonSquareM) {
  EXPECT_THROW(Device<double>({.m = 12}), std::invalid_argument);
  EXPECT_THROW(Device<double>({.m = 0}), std::invalid_argument);
}

TEST(Device, TileDimIsSqrtM) {
  Device<double> dev({.m = 256});
  EXPECT_EQ(dev.tile_dim(), 16u);
  EXPECT_EQ(dev.m(), 256u);
}

TEST(Device, GemmMatchesReference) {
  tcu::util::Xoshiro256 rng(3);
  Device<double> dev({.m = 64});
  auto a = random_matrix(24, 8, rng);
  auto b = random_matrix(8, 8, rng);
  auto c = dev.multiply(a, b);
  auto expect = reference_product(a, b);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), expect(i, j), 1e-12);
    }
  }
}

TEST(Device, GemmAccumulates) {
  tcu::util::Xoshiro256 rng(4);
  Device<double> dev({.m = 16});
  auto a = random_matrix(4, 4, rng);
  auto b = random_matrix(4, 4, rng);
  Matrix<double> c(4, 4, 1.0);
  dev.gemm(a.view(), b.view(), c.view(), /*accumulate=*/true);
  auto expect = reference_product(a, b);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), expect(i, j) + 1.0, 1e-12);
    }
  }
}

TEST(Device, TallCallChargesOnce) {
  Device<double> dev({.m = 16, .latency = 100});
  Matrix<double> a(40, 4, 1.0), b(4, 4, 1.0), c(40, 4);
  dev.gemm(a.view(), b.view(), c.view());
  EXPECT_EQ(dev.counters().tensor_calls, 1u);
  EXPECT_EQ(dev.counters().tensor_time, 40u * 4u + 100u);
  EXPECT_EQ(dev.counters().latency_time, 100u);
}

TEST(Device, WeakModeSplitsTallCalls) {
  Device<double> dev({.m = 16, .latency = 100, .allow_tall = false});
  Matrix<double> a(40, 4, 1.0), b(4, 4, 1.0), c(40, 4);
  dev.gemm(a.view(), b.view(), c.view());
  EXPECT_EQ(dev.counters().tensor_calls, 10u);
  EXPECT_EQ(dev.counters().tensor_time, 10u * (16u + 100u));
}

TEST(Device, WeakModeMatchesTallResults) {
  tcu::util::Xoshiro256 rng(5);
  Device<double> tall({.m = 64});
  Device<double> weak({.m = 64, .allow_tall = false});
  auto a = random_matrix(32, 8, rng);
  auto b = random_matrix(8, 8, rng);
  auto c1 = tall.multiply(a, b);
  auto c2 = weak.multiply(a, b);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(c1(i, j), c2(i, j));
    }
  }
}

TEST(Device, ShortOperandChargedAsFullTile) {
  Device<double> dev({.m = 64, .latency = 7});
  Matrix<double> a(3, 8, 1.0), b(8, 8, 1.0), c(3, 8);
  dev.gemm(a.view(), b.view(), c.view());
  // The pipeline depth cannot be shortened: charged as an 8-row call.
  EXPECT_EQ(dev.counters().tensor_time, 8u * 8u + 7u);
}

TEST(Device, ShapeValidation) {
  Device<double> dev({.m = 16});
  Matrix<double> a(8, 4), b(4, 4), c(8, 4);
  Matrix<double> bad_b(3, 4), bad_a(8, 3), bad_c(7, 4);
  EXPECT_THROW(dev.gemm(a.view(), bad_b.view(), c.view()),
               std::invalid_argument);
  EXPECT_THROW(dev.gemm(bad_a.view(), b.view(), c.view()),
               std::invalid_argument);
  EXPECT_THROW(dev.gemm(a.view(), b.view(), bad_c.view()),
               std::invalid_argument);
  // gemm_resident rejects the same shapes before touching the resident set.
  dev.gemm_resident(7, a.view(), b.view(), c.view());
  EXPECT_THROW(dev.gemm_resident(9, a.view(), bad_b.view(), c.view()),
               std::invalid_argument);
  EXPECT_THROW(dev.gemm_resident(9, bad_a.view(), b.view(), c.view()),
               std::invalid_argument);
  EXPECT_THROW(dev.gemm_resident(9, a.view(), b.view(), bad_c.view()),
               std::invalid_argument);
  EXPECT_TRUE(dev.tile_cache().contains(7));
  EXPECT_FALSE(dev.tile_cache().contains(9));
  EXPECT_EQ(dev.counters().tensor_calls, 1u);
}

TEST(Device, TraceRecordsShapes) {
  Device<double> dev({.m = 16});
  dev.enable_trace();
  Matrix<double> a(12, 4, 1.0), b(4, 4, 1.0), c(12, 4);
  dev.gemm(a.view(), b.view(), c.view());
  dev.gemm(a.view(), b.view(), c.view(), true);
  ASSERT_EQ(dev.trace().size(), 2u);
  EXPECT_EQ(dev.trace().ops[0].n, 12u);
  EXPECT_EQ(dev.trace().ops[0].s, 4u);
  EXPECT_FALSE(dev.trace().ops[0].accumulate);
  EXPECT_TRUE(dev.trace().ops[1].accumulate);
  EXPECT_EQ(dev.trace().words_touched(), 2u * (2u * 12u * 4u + 16u));
}

TEST(Device, ResetClearsCountersAndTrace) {
  Device<double> dev({.m = 16});
  dev.enable_trace();
  Matrix<double> a(4, 4, 1.0), b(4, 4, 1.0), c(4, 4);
  dev.gemm(a.view(), b.view(), c.view());
  dev.reset();
  EXPECT_EQ(dev.counters().time(), 0u);
  EXPECT_EQ(dev.trace().size(), 0u);
}

TEST(Device, IntegerEngineIsExact) {
  Device<std::int64_t> dev({.m = 16});
  Matrix<std::int64_t> a(8, 4), b(4, 4);
  tcu::util::Xoshiro256 rng(6);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.uniform_int(-100, 100);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b(i, j) = rng.uniform_int(-100, 100);
  }
  auto c = dev.multiply(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::int64_t acc = 0;
      for (std::size_t k = 0; k < 4; ++k) acc += a(i, k) * b(k, j);
      EXPECT_EQ(c(i, j), acc);
    }
  }
}

TEST(TensorCallCost, MatchesChargeFormula) {
  EXPECT_EQ(tcu::tensor_call_cost(100, 256, 5), 100u * 16u + 5u);
  EXPECT_EQ(tcu::tensor_call_cost(2, 256, 5), 16u * 16u + 5u);
}

// ------------------------------------------------- integer square roots

TEST(ExactSqrt, SmallValues) {
  EXPECT_EQ(tcu::exact_sqrt(0), 0u);
  EXPECT_EQ(tcu::exact_sqrt(1), 1u);
  EXPECT_EQ(tcu::exact_sqrt(4), 2u);
  EXPECT_EQ(tcu::exact_sqrt(256), 16u);
  EXPECT_THROW(tcu::exact_sqrt(2), std::invalid_argument);
  EXPECT_THROW(tcu::exact_sqrt(255), std::invalid_argument);
  EXPECT_THROW(tcu::exact_sqrt(257), std::invalid_argument);
}

// Above 2^52 the double conversion is lossy, so a float sqrt round-trip is
// only as exact as the platform's libm; the integer Newton iteration must
// classify these boundaries correctly regardless.
TEST(ExactSqrt, PerfectSquaresAboveDoublePrecision) {
  const std::uint64_t roots[] = {
      (1ull << 26) + 1,        // r^2 just over 2^52
      (1ull << 27) - 1,
      (1ull << 31) + 12345,
      3037000499ull,           // floor(sqrt(2^63))
      4294967295ull,           // 2^32 - 1: r^2 = 2^64 - 2^33 + 1
  };
  for (const std::uint64_t r : roots) {
    const auto v = static_cast<std::size_t>(r * r);
    EXPECT_EQ(tcu::exact_sqrt(v), r) << "r=" << r;
    EXPECT_THROW(tcu::exact_sqrt(v - 1), std::invalid_argument) << r;
    EXPECT_THROW(tcu::exact_sqrt(v + 1), std::invalid_argument) << r;
  }
}

TEST(ExactSqrt, IsqrtFloorAtBoundaries) {
  EXPECT_EQ(tcu::isqrt(0), 0u);
  EXPECT_EQ(tcu::isqrt(3), 1u);
  EXPECT_EQ(tcu::isqrt(8), 2u);
  EXPECT_EQ(tcu::isqrt((1ull << 52) - 1), 67108863u);
  EXPECT_EQ(tcu::isqrt(~std::size_t{0}), 4294967295u);  // 2^64 - 1
  for (std::uint64_t r = 67108860; r < 67108870; ++r) {  // around 2^26
    EXPECT_EQ(tcu::isqrt(r * r), r);
    EXPECT_EQ(tcu::isqrt(r * r + 1), r);
    EXPECT_EQ(tcu::isqrt(r * r - 1), r - 1);
  }
}

// ------------------------------------------------- complex GEMM wrappers

class ComplexGemmTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ComplexGemmTest, FourMultMatchesNativeComplex) {
  const std::size_t s = GetParam();
  tcu::util::Xoshiro256 rng(7 + s);
  Device<double> real_dev({.m = s * s});
  Matrix<std::complex<double>> a(3 * s, s), b(s, s), c(3 * s, s);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      a(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  tcu::complex_gemm_4m(real_dev, a.view(), b.view(), c.view());
  EXPECT_EQ(real_dev.counters().tensor_calls, 4u);

  Device<std::complex<double>> cplx_dev({.m = s * s});
  auto expect = cplx_dev.multiply(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      EXPECT_NEAR(std::abs(c(i, j) - expect(i, j)), 0.0, 1e-10);
    }
  }
}

TEST_P(ComplexGemmTest, ThreeMultMatchesFourMult) {
  const std::size_t s = GetParam();
  tcu::util::Xoshiro256 rng(17 + s);
  Device<double> dev4({.m = s * s}), dev3({.m = s * s});
  Matrix<std::complex<double>> a(2 * s, s), b(s, s), c4(2 * s, s),
      c3(2 * s, s);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      a(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  tcu::complex_gemm_4m(dev4, a.view(), b.view(), c4.view());
  tcu::complex_gemm_3m(dev3, a.view(), b.view(), c3.view());
  EXPECT_EQ(dev3.counters().tensor_calls, 3u);
  EXPECT_LT(dev3.counters().tensor_time, dev4.counters().tensor_time);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      EXPECT_NEAR(std::abs(c3(i, j) - c4(i, j)), 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ComplexGemmTest,
                         ::testing::Values(2, 4, 8, 16));

// ------------------------------------------------------------ util/stats

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.5));
  }
  auto fit = tcu::util::fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
  EXPECT_NEAR(fit.coeff, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, RatioSpreadOfProportionalSeriesIsOne) {
  std::vector<double> xs{1, 2, 3}, ys{2, 4, 6};
  EXPECT_NEAR(tcu::util::ratio_spread(xs, ys), 1.0, 1e-12);
}

TEST(Stats, GeometricMeanRatio) {
  std::vector<double> xs{1, 1}, ys{2, 8};
  EXPECT_NEAR(tcu::util::geometric_mean_ratio(xs, ys), 4.0, 1e-12);
}

TEST(Stats, FitRejectsDegenerateInput) {
  EXPECT_THROW(tcu::util::fit_power_law({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(tcu::util::fit_power_law({1, 1}, {2, 2}),
               std::invalid_argument);
  EXPECT_THROW(tcu::util::fit_power_law({1, -2}, {2, 2}),
               std::invalid_argument);
}

// -------------------------------------------------------------- costs.hpp

TEST(Costs, Omega0OfStandardAndStrassen) {
  EXPECT_NEAR(tcu::costs::omega0(8, 4), 1.5, 1e-12);
  EXPECT_NEAR(tcu::costs::omega0(7, 4), std::log(7.0) / std::log(4.0), 1e-12);
}

TEST(Costs, Thm2ReducesToWorkTermWithoutLatency) {
  const double n = 1 << 16;
  EXPECT_NEAR(tcu::costs::thm2_dense(n, 256, 0),
              std::pow(n, 1.5) / 16.0, 1e-6);
}

TEST(Costs, Thm1StandardMatchesThm2WorkTerm) {
  const double n = 1 << 14;
  // With p0 = 8 (omega0 = 3/2) and l = 0 Theorem 1 reduces to n^1.5/sqrt(m).
  EXPECT_NEAR(tcu::costs::thm1_strassen(n, 256, 0, 8, 4),
              std::pow(n / 256.0, 1.5) * 256.0, 1e-6);
}

}  // namespace
