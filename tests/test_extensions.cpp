// Tests for the extensions beyond the paper's core theorems: scan and
// reduction primitives (the [9]-style kernels), triangle counting via
// trace(A^3)/6, the limited-precision engine (§6 open question), and the
// multi-unit device pool (§3.1's deferred parallelism).

#include <gtest/gtest.h>

#include "core/pool.hpp"
#include "core/precision.hpp"
#include "graph/generators.hpp"
#include "graph/triangles.hpp"
#include "linalg/parallel.hpp"
#include "primitives/primitives.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;

// ------------------------------------------------------------ primitives

class ScanSweep : public ::testing::TestWithParam<
                      std::tuple<std::size_t, std::size_t>> {};

TEST_P(ScanSweep, ReduceMatchesSequentialSum) {
  const auto [n, m] = GetParam();
  tcu::util::Xoshiro256 rng(100 + n + m);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.uniform(-1, 1);
  Counters ram;
  const double expect = tcu::primitives::reduce_ram(data, ram);
  Device<double> dev({.m = m});
  EXPECT_NEAR(tcu::primitives::reduce_tcu(dev, data), expect, 1e-9);
  if (n > 1) {
    EXPECT_GT(dev.counters().tensor_calls, 0u);
  }
}

TEST_P(ScanSweep, InclusiveScanMatchesSequential) {
  const auto [n, m] = GetParam();
  tcu::util::Xoshiro256 rng(200 + n + m);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.uniform(-1, 1);
  Counters ram;
  const auto expect = tcu::primitives::inclusive_scan_ram(data, ram);
  Device<double> dev({.m = m});
  const auto got = tcu::primitives::inclusive_scan_tcu(dev, data);
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i], expect[i], 1e-8) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ScanSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 16, 100, 1000,
                                                      4096),
                       ::testing::Values<std::size_t>(16, 64)));

TEST(Primitives, EmptyInputs) {
  Device<double> dev({.m = 16});
  EXPECT_DOUBLE_EQ(tcu::primitives::reduce_tcu(dev, {}), 0.0);
  EXPECT_TRUE(tcu::primitives::inclusive_scan_tcu(dev, {}).empty());
}

TEST(Primitives, ReduceLatencyIsLogarithmic) {
  // n = s^3 collapses in 3 rounds: tensor calls O(log_m n), not O(n/m).
  Device<double> dev({.m = 256, .latency = 1000});
  std::vector<double> data(16 * 16 * 16, 1.0);
  EXPECT_NEAR(tcu::primitives::reduce_tcu(dev, data), 4096.0, 1e-9);
  EXPECT_LE(dev.counters().tensor_calls, 3u);
}

// ------------------------------------------------------------- triangles

TEST(Triangles, KnownSmallGraphs) {
  Device<std::int64_t> dev({.m = 16});
  // Triangle graph K3.
  auto k3 = tcu::graph::cycle_graph(3);
  EXPECT_EQ(tcu::graph::count_triangles_tcu(dev, k3.view()), 1u);
  // C4 has no triangles.
  auto c4 = tcu::graph::cycle_graph(4);
  EXPECT_EQ(tcu::graph::count_triangles_tcu(dev, c4.view()), 0u);
  // K4 has 4 triangles.
  Matrix<std::int64_t> k4(4, 4, 1);
  for (std::size_t i = 0; i < 4; ++i) k4(i, i) = 0;
  EXPECT_EQ(tcu::graph::count_triangles_tcu(dev, k4.view()), 4u);
}

class TriangleSweep : public ::testing::TestWithParam<
                          std::tuple<std::size_t, double>> {};

TEST_P(TriangleSweep, MatchesEnumerationOracle) {
  const auto [n, p] = GetParam();
  auto g = tcu::graph::random_connected_graph(n, p, 300 + n);
  Counters ram;
  const auto expect = tcu::graph::count_triangles_ram(g.view(), ram);
  Device<std::int64_t> dev({.m = 64});
  EXPECT_EQ(tcu::graph::count_triangles_tcu(dev, g.view()), expect);
  // Strassen path agrees too.
  Device<std::int64_t> dev7({.m = 64});
  EXPECT_EQ(tcu::graph::count_triangles_tcu(dev7, g.view(),
                                            {.use_strassen = true}),
            expect);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, TriangleSweep,
    ::testing::Combine(::testing::Values<std::size_t>(8, 24, 64),
                       ::testing::Values(0.1, 0.3, 0.8)));

TEST(Triangles, RejectsMalformedInput) {
  Device<std::int64_t> dev({.m = 16});
  Matrix<std::int64_t> loop(3, 3, 0);
  loop(0, 0) = 1;
  EXPECT_THROW((void)tcu::graph::count_triangles_tcu(dev, loop.view()),
               std::invalid_argument);
  Matrix<std::int64_t> asym(3, 3, 0);
  asym(0, 1) = 1;
  EXPECT_THROW((void)tcu::graph::count_triangles_tcu(dev, asym.view()),
               std::invalid_argument);
}

// -------------------------------------------------------------- precision

TEST(Precision, QuantizeBasics) {
  EXPECT_DOUBLE_EQ(tcu::quantize(0.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(tcu::quantize(1.0, 10), 1.0);     // powers of two exact
  EXPECT_DOUBLE_EQ(tcu::quantize(-0.5, 4), -0.5);
  EXPECT_DOUBLE_EQ(tcu::quantize(3.141592653589793, 52), 3.141592653589793);
  EXPECT_THROW((void)tcu::quantize(1.5, 0), std::invalid_argument);
}

TEST(Precision, QuantizeRoundsToGrid) {
  // With 2 significand bits the representable values around 1 are
  // {1, 1.25, 1.5, 1.75, 2}: 1.3 rounds to 1.25, 1.4 to 1.5.
  EXPECT_DOUBLE_EQ(tcu::quantize(1.3, 2), 1.25);
  EXPECT_DOUBLE_EQ(tcu::quantize(1.4, 2), 1.5);
  EXPECT_DOUBLE_EQ(tcu::quantize(-1.3, 2), -1.25);
}

TEST(Precision, ErrorShrinksWithMantissaWidth) {
  tcu::util::Xoshiro256 rng(41);
  Matrix<double> a(64, 8), b(8, 8);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 8; ++j) a(i, j) = rng.uniform(-1, 1);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) b(i, j) = rng.uniform(-1, 1);
  }
  Device<double> exact({.m = 64});
  auto reference = exact.multiply(a, b);
  double prev_err = 1e9;
  for (int bits : {6, 10, 17, 30}) {
    Device<double> quant({.m = 64},
                         tcu::limited_precision_engine(
                             {.input_mantissa = bits, .acc_mantissa = 30}));
    auto got = quant.multiply(a, b);
    const double err = tcu::max_abs_diff(got.view(), reference.view());
    EXPECT_LT(err, prev_err * 1.01) << "bits=" << bits;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);
}

TEST(Precision, Fp16InputErrorIsBounded) {
  // fp16 inputs / fp32 accumulate on unit-range data: error stays around
  // s * 2^-11 per output, far from catastrophic.
  tcu::util::Xoshiro256 rng(42);
  Matrix<double> a(128, 16), b(16, 16);
  for (std::size_t i = 0; i < 128; ++i) {
    for (std::size_t j = 0; j < 16; ++j) a(i, j) = rng.uniform(-1, 1);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) b(i, j) = rng.uniform(-1, 1);
  }
  Device<double> exact({.m = 256});
  Device<double> tc_like({.m = 256}, tcu::limited_precision_engine({}));
  const double err = tcu::max_abs_diff(tc_like.multiply(a, b).view(),
                                       exact.multiply(a, b).view());
  EXPECT_GT(err, 0.0);       // precision is actually limited
  EXPECT_LT(err, 16 * 1e-2);  // but far from catastrophic
}

TEST(Precision, ModelCostUnchanged) {
  // Precision is an engine property; the (m, l) charge is identical.
  Matrix<double> a(32, 4, 1.0), b(4, 4, 1.0), c(32, 4);
  Device<double> exact({.m = 16, .latency = 7});
  Device<double> quant({.m = 16, .latency = 7},
                       tcu::limited_precision_engine({}));
  exact.gemm(a.view(), b.view(), c.view());
  quant.gemm(a.view(), b.view(), c.view());
  EXPECT_EQ(exact.counters().tensor_time, quant.counters().tensor_time);
}

// ------------------------------------------------------------ device pool

TEST(DevicePool, ConstructionAndNaming) {
  DevicePool<double> pool(4, {.m = 16, .name = "tc"});
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.unit(0).name(), "tc#0");
  EXPECT_EQ(pool.unit(3).name(), "tc#3");
  EXPECT_THROW(DevicePool<double>(0, {.m = 16}), std::invalid_argument);
}

TEST(DevicePool, LeastLoadedBalances) {
  DevicePool<double> pool(2, {.m = 16});
  Matrix<double> a(8, 4, 1.0), b(4, 4, 1.0), c(8, 4);
  pool.least_loaded().gemm(a.view(), b.view(), c.view());
  auto& second = pool.least_loaded();
  EXPECT_EQ(second.counters().tensor_calls, 0u);  // the other unit
  second.gemm(a.view(), b.view(), c.view());
  EXPECT_EQ(pool.unit(0).counters().tensor_calls, 1u);
  EXPECT_EQ(pool.unit(1).counters().tensor_calls, 1u);
}

TEST(DevicePool, MakespanIsMaxUnitPlusCpu) {
  DevicePool<double> pool(2, {.m = 16, .latency = 5});
  Matrix<double> a(16, 4, 1.0), b(4, 4, 1.0), c(16, 4);
  pool.unit(0).gemm(a.view(), b.view(), c.view());  // 64 + 5
  pool.charge_cpu(100);
  EXPECT_EQ(pool.makespan(), 64u + 5u + 100u);
  EXPECT_EQ(pool.total_tensor_time(), 64u + 5u);
}

class PoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSweep, ParallelMatmulMatchesSingleUnit) {
  const std::size_t units = GetParam();
  tcu::util::Xoshiro256 rng(50 + units);
  const std::size_t d = 64;
  Matrix<double> a(d, d), b(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  DevicePool<double> pool(units, {.m = 64, .latency = 16});
  tcu::PoolExecutor<double> exec(pool);
  auto c_pool = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  Device<double> single({.m = 64, .latency = 16});
  auto c_single = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_NEAR(c_pool(i, j), c_single(i, j), 1e-12);
    }
  }
  // Strips divide evenly here: makespan ~ single time / units.
  const double speedup = static_cast<double>(single.counters().time()) /
                         static_cast<double>(pool.makespan());
  EXPECT_GT(speedup, 0.9 * static_cast<double>(units));
}

INSTANTIATE_TEST_SUITE_P(Units, PoolSweep, ::testing::Values(1, 2, 4, 8));

TEST(DevicePool, ParallelMatmulValidatesShapes) {
  DevicePool<double> pool(2, {.m = 16});
  tcu::PoolExecutor<double> exec(pool);
  // Ragged rows no longer throw: the final partial strip is padded in
  // worker-local scratch, bit-identical to the single-device path.
  Matrix<double> a(10, 8, 1.0), b(8, 8, 2.0);
  auto c_pool = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  Device<double> single({.m = 16});
  auto c_single = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  EXPECT_EQ(c_pool, c_single);
  // Genuine shape mismatches still throw, in every mode, before any task
  // is submitted: c's 6 columns span two tiles, so the split_chains
  // branch would run on the mismatched operands if validation came later.
  Matrix<double> c(8, 6), d(5, 8);
  const Counters before = pool.aggregate();
  for (const auto& opts :
       {tcu::linalg::PoolMatmulOptions{},
        tcu::linalg::PoolMatmulOptions{.affinity = true,
                                       .split_chains = true}}) {
    EXPECT_THROW(
        (void)tcu::linalg::matmul_tcu_pool(exec, c.view(), d.view(), opts),
        std::invalid_argument);
    exec.join();  // would run anything the failed call had submitted
    EXPECT_EQ(pool.aggregate().tensor_calls, before.tensor_calls);
    EXPECT_EQ(pool.aggregate().cpu_ops, before.cpu_ops);
  }
}

TEST(DevicePool, WorkConservation) {
  // Total tensor time across units equals the single-device total.
  tcu::util::Xoshiro256 rng(61);
  const std::size_t d = 128;
  Matrix<double> a(d, d, 1.0), b(d, d, 1.0);
  DevicePool<double> pool(4, {.m = 256, .latency = 3});
  tcu::PoolExecutor<double> exec(pool);
  (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  Device<double> single({.m = 256, .latency = 3});
  (void)tcu::linalg::matmul_tcu(single, a.view(), b.view());
  EXPECT_EQ(pool.total_tensor_time(), single.counters().tensor_time);
}

}  // namespace
