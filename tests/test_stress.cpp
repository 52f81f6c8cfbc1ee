// Stress and edge-regime tests: larger instances and awkward parameter
// corners that the per-module suites keep small for speed.

#include <gtest/gtest.h>

#include <cstdlib>

#include "check/contract.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "extmem/extmem.hpp"
#include "fault/fault.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "intmul/mul.hpp"
#include "linalg/gauss.hpp"
#include "linalg/parallel.hpp"
#include "nn/layers.hpp"
#include "primitives/primitives.hpp"
#include "stencil/stencil.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using Complex = tcu::dft::Complex;

TEST(Stress, BluesteinOnLargePrimeLengths) {
  // 1009 and 2003 are prime >> sqrt(m): the whole transform goes through
  // the chirp-z reduction onto power-of-two convolutions.
  for (std::size_t n : {1009u, 2003u}) {
    tcu::util::Xoshiro256 rng(n);
    tcu::dft::CVec x(n);
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    Device<Complex> dev({.m = 64});
    auto y = tcu::dft::dft_tcu(dev, x);
    auto back = tcu::dft::dft_tcu(dev, y, /*inverse=*/true);
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(back[i] - x[i]));
    }
    EXPECT_LT(worst, 1e-8) << "n=" << n;
    // Spot-check a few bins against the direct definition.
    for (std::size_t k : std::vector<std::size_t>{0, 1, n / 2, n - 1}) {
      Complex direct{};
      for (std::size_t j = 0; j < n; ++j) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>((j * k) % n) /
                             static_cast<double>(n);
        direct += x[j] * Complex{std::cos(angle), std::sin(angle)};
      }
      EXPECT_NEAR(std::abs(y[k] - direct), 0.0, 1e-7) << "bin " << k;
    }
  }
}

TEST(Stress, HundredKilobitThreeWayDifferential) {
  tcu::util::Xoshiro256 rng(99);
  const auto a = tcu::intmul::BigInt::random_bits(100000, rng);
  const auto b = tcu::intmul::BigInt::random_bits(99991, rng);
  Counters ram;
  Device<std::int64_t> dev({.m = 256});
  const auto r1 = tcu::intmul::mul_schoolbook_ram(a, b, ram);
  const auto r2 = tcu::intmul::mul_schoolbook_tcu(dev, a, b);
  const auto r3 = tcu::intmul::mul_karatsuba_tcu(dev, a, b);
  const auto r4 = tcu::intmul::mul_karatsuba_ram(a, b, ram, 16);
  EXPECT_TRUE(r1 == r2);
  EXPECT_TRUE(r1 == r3);
  EXPECT_TRUE(r1 == r4);
  EXPECT_EQ(r1.bit_length(), 100000u + 99991u);
}

TEST(Stress, MachineWordOracleSweep) {
  // Exhaustive-ish differential against native 128-bit arithmetic.
  tcu::util::Xoshiro256 rng(101);
  Device<std::int64_t> dev({.m = 16});
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint64_t>(rng());
    const auto b = static_cast<std::uint64_t>(rng());
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(a) * b;
    const auto hi = static_cast<std::uint64_t>(wide >> 64);
    const auto lo = static_cast<std::uint64_t>(wide);
    auto expect = tcu::intmul::BigInt(hi).shifted_limbs(4) +
                  tcu::intmul::BigInt(lo);
    auto got = tcu::intmul::mul_schoolbook_tcu(
        dev, tcu::intmul::BigInt(a), tcu::intmul::BigInt(b));
    ASSERT_EQ(got.to_hex(), expect.to_hex()) << a << " * " << b;
  }
}

TEST(Stress, NaiveMatmulIoDegradesWithoutBlocking) {
  // The naive loop's I/O count scales as d^3 once a row of B no longer
  // fits: exponent ~3 with a much larger constant than the blocked one.
  std::vector<double> ds, naive_ios, blocked_ios;
  for (std::size_t d : {24u, 48u, 96u}) {
    ds.push_back(static_cast<double>(d));
    naive_ios.push_back(
        static_cast<double>(tcu::extmem::matmul_io_naive(d, 48, 1)));
    blocked_ios.push_back(
        static_cast<double>(tcu::extmem::matmul_io_blocked(d, 48, 1)));
  }
  auto fit = tcu::util::fit_power_law(ds, naive_ios);
  EXPECT_NEAR(fit.exponent, 3.0, 0.2);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GT(naive_ios[i], blocked_ios[i]);
  }
}

TEST(Stress, PoolWithMoreUnitsThanStrips) {
  // 2 output strips on 8 units: 6 units idle, speedup capped at 2,
  // results still exact.
  tcu::util::Xoshiro256 rng(111);
  const std::size_t d = 32;  // 2 strips at s = 16
  Matrix<double> a(d, d), b(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  tcu::DevicePool<double> pool(8, {.m = 256, .latency = 5});
  tcu::PoolExecutor<double> exec(pool);
  auto c1 = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  Device<double> single({.m = 256, .latency = 5});
  auto c2 = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_NEAR(c1(i, j), c2(i, j), 1e-12);
    }
  }
  const double speedup = static_cast<double>(single.counters().time()) /
                         static_cast<double>(pool.makespan());
  EXPECT_NEAR(speedup, 2.0, 0.05);
  std::size_t busy = 0;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    busy += pool.unit(u).counters().tensor_calls > 0;
  }
  EXPECT_EQ(busy, 2u);
}

TEST(Stress, SeidelOnPathGraphMaxDepth) {
  // A path graph has the largest diameter, driving the deepest recursion.
  const std::size_t n = 96;
  Matrix<std::int64_t> adj(n, n, 0);
  for (std::size_t i = 0; i + 1 < n; ++i) adj(i, i + 1) = adj(i + 1, i) = 1;
  Device<std::int64_t> dev({.m = 64});
  auto d = tcu::graph::apsd_seidel(dev, adj.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto expect = static_cast<std::int64_t>(
          i > j ? i - j : j - i);
      ASSERT_EQ(d(i, j), expect);
    }
  }
}

TEST(Stress, DeviceWithM1IsDegenerateButConsistent) {
  // m = 1: the "tensor unit" multiplies scalars; everything still works
  // and the charge is n per call.
  Device<double> dev({.m = 1, .latency = 2});
  Matrix<double> a(5, 1), b(1, 1), c(5, 1);
  for (std::size_t i = 0; i < 5; ++i) a(i, 0) = static_cast<double>(i);
  b(0, 0) = 3.0;
  dev.gemm(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(c(i, 0), 3.0 * static_cast<double>(i));
  }
  EXPECT_EQ(dev.counters().tensor_time, 5u * 1u + 2u);
}

TEST(Stress, HundredRoundChaosUnderSeededFaults) {
  // 100 rounds of every pooled workload on persistent executors with the
  // contract checker attached and a seeded fault plan injecting a low
  // transient rate plus one mid-run permanent death. GE, the stencil's
  // batched DFT levels, transitive closure, and the Mlp pass all submit
  // tasks that wait on `after` tickets, so transients, the quarantine,
  // and the deferred dep-waits of the recovery path all land inside
  // dependency-ordered rounds. Every round's output must be
  // bit-identical to a fault-free serial reference, and the checker
  // guarantees no stale resident sets survive any recovery bracket (it
  // audits every lane mirror at every strict join). Seed
  // overridable via TCU_FAULT_SEED so the CI fault leg replays the chaos
  // under a pinned-but-different schedule.
  std::uint64_t seed = 20260808;
  if (const char* env = std::getenv("TCU_FAULT_SEED"); env && *env) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const std::uint64_t ell = 3;
  const auto fill = [](Matrix<double>& x, std::uint64_t s) {
    tcu::util::Xoshiro256 rng(s);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) x(i, j) = rng.uniform(-1, 1);
    }
  };

  tcu::DevicePool<double> dpool(4, {.m = 16, .latency = ell});
  tcu::check::ScopedCheck<double> dcheck(dpool);
  tcu::fault::FaultPlan dplan(
      seed, {.transient_rate = 0.004,
             .max_rate_transients_per_unit = 25,
             .death_at = {{2, 500}}});
  tcu::fault::ScopedInjection<double> dinject(dpool, dplan);
  tcu::PoolExecutor<double> dexec(dpool);

  tcu::DevicePool<Complex> cpool(4, {.m = 16, .latency = ell});
  tcu::check::ScopedCheck<Complex> ccheck(cpool);
  tcu::fault::FaultPlan cplan(
      seed + 1,
      {.transient_rate = 0.004, .max_rate_transients_per_unit = 25});
  tcu::fault::ScopedInjection<Complex> cinject(cpool, cplan);
  tcu::PoolExecutor<Complex> cexec(cpool);

  tcu::DevicePool<tcu::graph::Vert> vpool(4, {.m = 16, .latency = ell});
  tcu::check::ScopedCheck<tcu::graph::Vert> vcheck(vpool);
  tcu::fault::FaultPlan vplan(
      seed + 2,
      {.transient_rate = 0.004, .max_rate_transients_per_unit = 25});
  tcu::fault::ScopedInjection<tcu::graph::Vert> vinject(vpool, vplan);
  tcu::PoolExecutor<tcu::graph::Vert> vexec(vpool);

  tcu::nn::Mlp mlp;
  {
    tcu::util::Xoshiro256 rng(7000);
    for (int l = 0; l < 2; ++l) {
      Matrix<double> wts(16, 16);
      for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t j = 0; j < 16; ++j) wts(i, j) = rng.uniform(-1, 1);
      }
      std::vector<double> bias(16);
      for (auto& v : bias) v = rng.uniform(-1, 1);
      mlp.add_layer(tcu::nn::DenseLayer(wts, bias));
    }
  }

  const auto w = tcu::stencil::heat_kernel(0.1, 0.05);
  for (std::uint64_t round = 0; round < 100; ++round) {
    {  // matmul: affinity chains over B-tile keys.
      Matrix<double> a(24, 24), b(24, 24);
      fill(a, 1000 + round);
      fill(b, 2000 + round);
      auto got = tcu::linalg::matmul_tcu_pool(dexec, a.view(), b.view());
      Device<double> ref({.m = 16, .latency = ell});
      auto expect = tcu::linalg::matmul_tcu(ref, a.view(), b.view());
      ASSERT_EQ(got, expect) << "matmul, round " << round;
    }
    {  // Gaussian elimination: in-place panels over pivot-tagged tiles.
      Matrix<double> got(24, 24), expect(24, 24);
      fill(got, 3000 + round);
      expect = got;
      tcu::linalg::ge_forward_tcu_pool(dexec, got.view());
      Device<double> ref({.m = 16, .latency = ell});
      tcu::linalg::ge_forward_tcu(ref, expect.view());
      ASSERT_EQ(got, expect) << "GE, round " << round;
    }
    {  // conv2d: im2col strips with resident filter tiles.
      Matrix<double> input(2 * 8, 8), filters(3, 2 * 2 * 2);
      fill(input, 4000 + round);
      fill(filters, 5000 + round);
      auto got = tcu::nn::conv2d_tcu_pool(dexec, input.view(), 2,
                                          filters.view(), 2, 2);
      Device<double> ref({.m = 16, .latency = ell});
      auto expect =
          tcu::nn::conv2d_tcu(ref, input.view(), 2, filters.view(), 2, 2);
      ASSERT_EQ(got, expect) << "conv2d, round " << round;
    }
    {  // stencil: batched DFT levels with shared Fourier-tile keys.
      Matrix<double> grid(12, 10);
      fill(grid, 6000 + round);
      auto got = tcu::stencil::stencil_tcu_pool(cexec, grid.view(), w, 2);
      Device<Complex> ref({.m = 16, .latency = ell});
      auto expect = tcu::stencil::stencil_tcu(ref, grid.view(), w, 2);
      ASSERT_EQ(got, expect) << "stencil, round " << round;
    }
    {  // Mlp pass: one task per strip, its products then its bias/ReLU.
      Matrix<double> batch(8, 16);
      fill(batch, 7000 + round);
      auto got = mlp.forward(dexec, batch.view());
      Device<double> ref({.m = 16, .latency = ell});
      auto expect = mlp.forward(ref, batch.view());
      ASSERT_EQ(got, expect) << "mlp, round " << round;
    }
    {  // transitive closure: the full true-dependence task graph.
      auto adj = tcu::graph::random_digraph(24, 0.12, 8000 + round);
      tcu::graph::AdjMatrix expect = adj;
      tcu::graph::closure_tcu(vexec, adj.view());
      Device<tcu::graph::Vert> ref({.m = 16, .latency = ell});
      tcu::graph::closure_tcu(ref, expect.view());
      ASSERT_EQ(adj, expect) << "closure, round " << round;
    }
  }

  // The plan actually bit: transients fired on both pools, and unit 2 of
  // the double pool died mid-run, was quarantined with its cache mirror
  // dropped, and the pool finished every remaining round at p - 1.
  EXPECT_GT(dplan.transients_injected(), 0u);
  EXPECT_GT(cplan.transients_injected(), 0u);
  EXPECT_EQ(dplan.permanent_trips(), 1u);
  const auto& stats = dexec.fault_stats();
  EXPECT_EQ(stats.quarantined, std::vector<std::size_t>{2});
  EXPECT_EQ(dexec.healthy_units(), 3u);
  EXPECT_GT(stats.retried + stats.redealt, 0u);
  EXPECT_EQ(dpool.unit(2).tile_cache().size(), 0u);
  EXPECT_EQ(cexec.healthy_units(), 4u);
  EXPECT_GT(vplan.transients_injected(), 0u);
  EXPECT_EQ(vexec.healthy_units(), 4u);
  dcheck.verify();
  ccheck.verify();
  vcheck.verify();
}

TEST(Stress, LargeScanAgainstKahanReference) {
  const std::size_t n = 1 << 18;
  tcu::util::Xoshiro256 rng(131);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.uniform(-1, 1);
  Device<double> dev({.m = 256});
  auto got = tcu::primitives::inclusive_scan_tcu(dev, data);
  // Kahan-compensated reference to keep the oracle itself accurate.
  double sum = 0, comp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = data[i] - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
    ASSERT_NEAR(got[i], sum, 1e-7) << "at " << i;
  }
}

}  // namespace
