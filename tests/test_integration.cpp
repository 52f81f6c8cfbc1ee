// Cross-module integration tests: pipelines that exercise several
// libraries together, the way a downstream user would compose them.

#include <gtest/gtest.h>

#include <complex>

#include "core/pool.hpp"
#include "core/precision.hpp"
#include "dft/dft.hpp"
#include "extmem/extmem.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "intmul/mul.hpp"
#include "linalg/dense.hpp"
#include "linalg/gauss.hpp"
#include "linalg/parallel.hpp"
#include "linalg/sparse.hpp"
#include "linalg/strassen.hpp"
#include "systolic/engine.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using Complex = std::complex<double>;

// GE solve, residual verified with a tensor-unit product.
TEST(Integration, SolveSystemAndVerifyResidualOnDevice) {
  const std::size_t r = 64;
  tcu::util::Xoshiro256 rng(1);
  Matrix<double> A(r - 1, r - 1);
  std::vector<double> b(r - 1);
  for (std::size_t i = 0; i < r - 1; ++i) {
    double row = 0;
    for (std::size_t j = 0; j < r - 1; ++j) {
      A(i, j) = rng.uniform(-1, 1);
      row += std::abs(A(i, j));
    }
    A(i, i) = row + 1.0;
    b[i] = rng.uniform(-1, 1);
  }
  Device<double> dev({.m = 256});
  auto c = tcu::linalg::make_augmented<double>(A.view(), b, r);
  tcu::linalg::ge_forward_tcu(dev, c.view());
  Counters back;
  auto x = tcu::linalg::back_substitute<double>(c.view(), back);

  // Residual A x - b via the device: x as a column matrix.
  Matrix<double> xm(r - 1, 1);
  for (std::size_t i = 0; i + 1 < r; ++i) xm(i, 0) = x[i];
  auto ax = tcu::linalg::matmul_tcu(dev, A.view(), xm.view());
  for (std::size_t i = 0; i + 1 < r; ++i) {
    EXPECT_NEAR(ax(i, 0), b[i], 1e-8);
  }
}

// Integer multiplication two ways: the Theorem 9 Toeplitz product vs a
// DFT-based limb convolution (convolution theorem across modules).
TEST(Integration, IntegerProductViaDftConvolution) {
  tcu::util::Xoshiro256 rng(2);
  const auto a = tcu::intmul::BigInt::random_bits(600, rng);
  const auto b = tcu::intmul::BigInt::random_bits(600, rng);
  Device<std::int64_t> idev({.m = 64});
  const auto expect = tcu::intmul::mul_schoolbook_tcu(idev, a, b);

  // Limb polynomials convolved via the TCU DFT, then carried.
  const std::size_t conv = a.limb_count() + b.limb_count() - 1;
  std::size_t n = 1;
  while (n < conv) n *= 2;
  tcu::dft::CVec fa(n, Complex{}), fb(n, Complex{});
  for (std::size_t i = 0; i < a.limb_count(); ++i) fa[i] = a.limbs()[i];
  for (std::size_t i = 0; i < b.limb_count(); ++i) fb[i] = b.limbs()[i];
  Device<Complex> cdev({.m = 64});
  auto prod = tcu::dft::circular_convolve_tcu(cdev, fa, fb);
  std::vector<tcu::intmul::BigInt::Limb> limbs;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < conv; ++i) {
    carry += static_cast<std::uint64_t>(std::llround(prod[i].real()));
    limbs.push_back(static_cast<tcu::intmul::BigInt::Limb>(carry & 0xFFFF));
    carry >>= 16;
  }
  while (carry != 0) {
    limbs.push_back(static_cast<tcu::intmul::BigInt::Limb>(carry & 0xFFFF));
    carry >>= 16;
  }
  const auto got = tcu::intmul::BigInt::from_limbs(std::move(limbs));
  EXPECT_EQ(got.to_hex(), expect.to_hex());
}

// Transitive closure by repeated boolean squaring with device products
// agrees with the blocked Figure 7 algorithm.
TEST(Integration, ClosureByRepeatedSquaringAgrees) {
  const std::size_t n = 48;
  auto adj = tcu::graph::random_digraph(n, 0.06, 3);
  auto blocked = adj;
  Device<tcu::graph::Vert> dev({.m = 64});
  tcu::graph::closure_tcu(dev, blocked.view());

  // d <- d OR d*d until fixpoint, products on the device.
  auto cur = adj;
  for (std::size_t round = 0; round < n; ++round) {
    auto sq = tcu::linalg::matmul_tcu(dev, cur.view(), cur.view());
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const tcu::graph::Vert v = (sq(i, j) > 0 || cur(i, j) > 0) ? 1 : 0;
        if (v != cur(i, j)) changed = true;
        cur(i, j) = v;
      }
    }
    if (!changed) break;
  }
  EXPECT_TRUE(cur == blocked);
}

// The Seidel recursion's trace replays on the external-memory machine at
// M = 3m with I/Os proportional to its tensor time (Theorem 12 glue).
TEST(Integration, SeidelTraceReplaysInExternalMemory) {
  auto g = tcu::graph::random_connected_graph(32, 0.2, 4);
  Device<std::int64_t> dev({.m = 16, .allow_tall = false});
  dev.enable_trace();
  (void)tcu::graph::apsd_seidel(dev, g.view());
  const auto ios = tcu::extmem::simulate_trace_io(dev.trace(), 16);
  EXPECT_EQ(ios, tcu::extmem::trace_io_closed_form(dev.trace(), 16));
  EXPECT_EQ(ios, 3 * dev.counters().tensor_time);  // l = 0 here
}

// The cycle-level systolic engine can drive the whole DFT pipeline.
TEST(Integration, DftOnSystolicEngineMatchesReference) {
  const std::size_t n = 256;
  tcu::util::Xoshiro256 rng(5);
  tcu::dft::CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto sys = tcu::systolic::make_systolic_device<Complex>({.m = 64});
  Device<Complex> ref({.m = 64});
  auto y1 = tcu::dft::dft_tcu(sys, x);
  auto y2 = tcu::dft::dft_tcu(ref, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y1[i] - y2[i]), 0.0, 1e-9);
  }
  EXPECT_GT(sys.counters().systolic_cycles, 0u);
  EXPECT_EQ(sys.counters().tensor_time, ref.counters().tensor_time);
}

// Strassen recursion inside the sparse compress-multiply-recover path.
TEST(Integration, SparseWithStrassenKernelMatchesNaive) {
  tcu::util::Xoshiro256 rng(6);
  std::vector<tcu::linalg::SparseEntry<std::int64_t>> ea, eb;
  for (int t = 0; t < 80; ++t) {
    ea.push_back({static_cast<std::size_t>(rng.uniform_int(0, 39)),
                  static_cast<std::size_t>(rng.uniform_int(0, 39)),
                  rng.uniform_int(1, 5)});
    eb.push_back({static_cast<std::size_t>(rng.uniform_int(0, 39)),
                  static_cast<std::size_t>(rng.uniform_int(0, 39)),
                  rng.uniform_int(1, 5)});
  }
  auto A = tcu::linalg::SparseMatrix<std::int64_t>::from_entries(
      40, 40, std::move(ea));
  auto B = tcu::linalg::SparseMatrix<std::int64_t>::from_entries(
      40, 40, std::move(eb));
  Counters ram;
  auto expect = tcu::linalg::spmm_naive(A, B, ram);
  Device<std::int64_t> dev({.m = 16});
  auto got = tcu::linalg::spmm_tcu(
      dev, A, B, {.z_hint = expect.nnz(), .seed = 5, .use_strassen = true});
  EXPECT_TRUE(got.to_dense() == expect.to_dense());
}

// A multi-unit pool running the products inside a larger pipeline
// produces identical numerics.
TEST(Integration, PoolProductsMatchSingleDeviceInPipeline) {
  tcu::util::Xoshiro256 rng(7);
  const std::size_t d = 96;
  Matrix<double> a(d, d), b(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  tcu::DevicePool<double> pool(3, {.m = 256, .latency = 10});
  tcu::PoolExecutor<double> exec(pool);
  Device<double> single({.m = 256, .latency = 10});
  auto c1 = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  auto c2 = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  // Chain a second product to make it a pipeline.
  auto d1 = tcu::linalg::matmul_tcu_pool(exec, c1.view(), a.view());
  auto d2 = tcu::linalg::matmul_tcu(single, c2.view(), a.view());
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_NEAR(d1(i, j), d2(i, j), 1e-9);
    }
  }
  EXPECT_LT(pool.makespan(), single.counters().time());
}

// Reduced-precision engine inside the blocked matmul: error grows with
// the reduction depth but stays linear in d for unit-range data.
TEST(Integration, QuantizedBlockedMatmulErrorScalesLinearly) {
  double prev = 0.0;
  tcu::util::Xoshiro256 rng(8);
  auto make = [&](std::size_t d) {
    Matrix<double> x(d, d);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(-1, 1);
    }
    return x;
  };
  for (std::size_t d : {32u, 128u}) {
    auto a = make(d);
    auto b = make(d);
    Device<double> exact({.m = 256});
    Device<double> quant({.m = 256}, tcu::limited_precision_engine({}));
    auto c1 = tcu::linalg::matmul_tcu(exact, a.view(), b.view());
    auto c2 = tcu::linalg::matmul_tcu(quant, a.view(), b.view());
    const double err = tcu::max_abs_diff(c1.view(), c2.view());
    EXPECT_LT(err, static_cast<double>(d) * 1e-2);
    EXPECT_GT(err, prev / 50.0);  // error does grow with depth
    prev = err;
  }
}

}  // namespace
