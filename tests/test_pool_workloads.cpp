// The last three tensor workloads on the pool — stencils (Theorem 8),
// Gaussian-elimination kernel-D panels (Theorem 4), conv2d/im2col — and
// the residency-tagging bugfixes on their serial paths:
//   * serial-vs-pool bit-identical outputs at p = 1/2/4/8 for all three,
//     with aggregate counters matching exactly (GE) or modulo the
//     documented chunked-call latency relation (stencil, conv2d: the
//     chunk split re-pays or re-saves exactly l per extra tensor call,
//     and a 1-unit pool matches serial in every field);
//   * 10-run determinism and ragged/degenerate shapes (fewer strips than
//     units, k = 1 stencils, 1x1 conv kernels);
//   * closed-form resident-hit counts on the *serial* paths: conv2d's
//     filter bank pays its load latency once per tile (not per call
//     touching it), GE's kernel D loads X'_j once per (k, j) with the
//     weak-model column panel streaming past it for free, and
//     `matmul_batch_shared_b` keeps a shared B resident across calls.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "linalg/batch.hpp"
#include "linalg/gauss.hpp"
#include "nn/layers.hpp"
#include "stencil/stencil.hpp"
#include "stencil/stencil1d.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using Complex = tcu::stencil::Complex;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

/// Integer-valued doubles: sums/products stay exact, so reassociating
/// schedules (split_chains) still compare bit-for-bit.
Matrix<double> random_int_matrix(std::size_t r, std::size_t c,
                                 std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out(i, j) = static_cast<double>(rng.uniform_int(-3, 3));
    }
  }
  return out;
}

/// Every counter field the pool determinism contract covers, including
/// the residency split (resident_hits / latency_saved). Only evictions
/// are exempt: the aggregate count is schedule-dependent (each active
/// lane's first insertion fills an empty cache without displacing).
void expect_counters_identical(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls);
  EXPECT_EQ(got.tensor_rows, want.tensor_rows);
  EXPECT_EQ(got.tensor_time, want.tensor_time);
  EXPECT_EQ(got.tensor_macs, want.tensor_macs);
  EXPECT_EQ(got.latency_time, want.latency_time);
  EXPECT_EQ(got.resident_hits, want.resident_hits);
  EXPECT_EQ(got.latency_saved, want.latency_saved);
  EXPECT_EQ(got.cpu_ops, want.cpu_ops);
}

/// The chunked-call relation of the row-split pool paths (stencil,
/// conv2d): everything except the latency split matches serial exactly,
/// and every extra tensor call introduced by chunking accounts exactly
/// one extra l — paid on a first touch or saved on a resident hit.
void expect_counters_match_chunked(const Counters& agg, const Counters& ref,
                                   std::uint64_t ell) {
  EXPECT_EQ(agg.tensor_macs, ref.tensor_macs);
  EXPECT_EQ(agg.tensor_rows, ref.tensor_rows);
  EXPECT_EQ(agg.cpu_ops, ref.cpu_ops);
  EXPECT_EQ(agg.tensor_time - agg.latency_time,
            ref.tensor_time - ref.latency_time);
  EXPECT_GE(agg.tensor_calls, ref.tensor_calls);
  EXPECT_EQ(agg.latency_time + agg.latency_saved,
            ref.latency_time + ref.latency_saved +
                (agg.tensor_calls - ref.tensor_calls) * ell);
}

// ---------------------------------------------------------------- stencil

TEST(StencilPool, MatchesSerialAtEveryUnitCount) {
  const std::size_t k = 4;
  const std::uint64_t ell = 7;
  auto w = tcu::stencil::heat_kernel(0.1, 0.05);
  auto grid = random_matrix(12, 10, 100);  // ragged against k

  Device<Complex> single({.m = 16, .latency = ell});
  auto expect = tcu::stencil::stencil_tcu(single, grid.view(), w, k);
  EXPECT_GT(single.counters().resident_hits, 0u);  // levels share W_n

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<Complex> pool(p, {.m = 16, .latency = ell});
    PoolExecutor<Complex> exec(pool);
    auto got = tcu::stencil::stencil_tcu_pool(exec, grid.view(), w, k);
    EXPECT_EQ(got, expect) << "p=" << p;  // bit-identical, not just close
    const Counters agg = pool.aggregate();
    expect_counters_match_chunked(agg, single.counters(), ell);
    EXPECT_GT(agg.resident_hits, 0u) << "p=" << p;
    if (p == 1) expect_counters_identical(agg, single.counters());
  }
}

TEST(StencilPool, OneDimensionalMatchesSerial) {
  const std::size_t k = 3;
  const std::uint64_t ell = 5;
  const std::array<double, 3> w{0.25, 0.5, 0.25};
  std::vector<double> signal(37);
  tcu::util::Xoshiro256 rng(110);
  for (auto& v : signal) v = rng.uniform(-1, 1);

  Device<Complex> single({.m = 16, .latency = ell});
  auto expect = tcu::stencil::stencil1d_tcu(single, signal, w, k);
  EXPECT_GT(single.counters().resident_hits, 0u);

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<Complex> pool(p, {.m = 16, .latency = ell});
    PoolExecutor<Complex> exec(pool);
    auto got = tcu::stencil::stencil1d_tcu_pool(exec, signal, w, k);
    EXPECT_EQ(got, expect) << "p=" << p;
    expect_counters_match_chunked(pool.aggregate(), single.counters(), ell);
    if (p == 1) {
      expect_counters_identical(pool.aggregate(), single.counters());
    }
  }
}

TEST(StencilPool, DegenerateShapes) {
  auto w = tcu::stencil::heat_kernel(0.2, 0.2);
  // k = 1: the weight matrix is the kernel itself, blocks are 1x1 with
  // 3x3 neighbourhoods; grid smaller than the unit count at p = 8.
  auto grid = random_matrix(3, 2, 120);
  Device<Complex> single({.m = 16, .latency = 3});
  auto expect = tcu::stencil::stencil_tcu(single, grid.view(), w, 1);
  DevicePool<Complex> pool(8, {.m = 16, .latency = 3});
  PoolExecutor<Complex> exec(pool);
  auto got = tcu::stencil::stencil_tcu_pool(exec, grid.view(), w, 1);
  EXPECT_EQ(got, expect);
  expect_counters_match_chunked(pool.aggregate(), single.counters(), 3);

  // Sanity against the direct sweep (numerically, not bit-wise).
  Counters ram;
  auto direct = tcu::stencil::stencil_direct(grid.view(), w, 1, ram);
  for (std::size_t i = 0; i < direct.rows(); ++i) {
    for (std::size_t j = 0; j < direct.cols(); ++j) {
      EXPECT_NEAR(got(i, j), direct(i, j), 1e-9);
    }
  }
}

TEST(StencilPool, DeterministicAcrossRuns) {
  const std::size_t k = 2;
  auto w = tcu::stencil::heat_kernel(0.1, 0.1);
  auto grid = random_matrix(8, 8, 130);
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    Matrix<double> first;
    std::vector<std::uint64_t> first_times;
    for (int run = 0; run < 10; ++run) {
      DevicePool<Complex> pool(p, {.m = 16, .latency = 11});
      PoolExecutor<Complex> exec(pool);
      auto got = tcu::stencil::stencil_tcu_pool(exec, grid.view(), w, k);
      std::vector<std::uint64_t> times;
      for (std::size_t u = 0; u < pool.size(); ++u) {
        times.push_back(pool.unit(u).counters().tensor_time);
      }
      if (run == 0) {
        first = got;
        first_times = times;
      }
      EXPECT_EQ(got, first) << "p=" << p << " run=" << run;
      EXPECT_EQ(times, first_times) << "p=" << p << " run=" << run;
    }
  }
}

// ----------------------------------------------------------------- gauss

Matrix<double> random_augmented(std::size_t r, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  const std::size_t d = r - 1;
  Matrix<double> A(d, d);
  std::vector<double> b(d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) A(i, j) = rng.uniform(-1, 1);
    A(i, i) += 4.0;  // diagonally dominant: elimination stays stable
    b[i] = rng.uniform(-1, 1);
  }
  return tcu::linalg::make_augmented<double>(A.view(), b, r);
}

TEST(GaussPool, MatchesSerialBitExactlyTallAndWeak) {
  const std::size_t r = 32;  // t = 8 blocks at m = 16
  const std::uint64_t ell = 13;
  auto c0 = random_augmented(r, 200);
  for (bool tall : {true, false}) {
    typename Device<double>::Config cfg{
        .m = 16, .latency = ell, .allow_tall = tall};
    Device<double> dev(cfg);
    Matrix<double> serial = c0;
    tcu::linalg::ge_forward_tcu(dev, serial.view());

    for (std::size_t p : {1u, 2u, 4u, 8u}) {
      DevicePool<double> pool(p, cfg);
      Matrix<double> got = c0;
      PoolExecutor<double> exec(pool);
      tcu::linalg::ge_forward_tcu_pool(exec, got.view());
      EXPECT_EQ(got, serial) << "tall=" << tall << " p=" << p;
      // Every key is unique per (k, j), so dealing can neither create
      // nor destroy hits: the aggregate matches serial in every field.
      expect_counters_identical(pool.aggregate(), dev.counters());
    }
  }
}

TEST(GaussPool, SerialWeakModeHitsMatchTheorem4ClosedForm) {
  // Weak model, r = 32, s = 4, t = 8: per pivot k the panel of
  // u = t-1-k block columns splits into u square calls each, the first
  // paying X'_j's load and the remaining u-1 streaming past it resident.
  const std::size_t r = 32, s = 4, t = r / s;
  const std::uint64_t ell = 9;
  auto c = random_augmented(r, 210);
  Device<double> dev({.m = s * s, .latency = ell, .allow_tall = false});
  tcu::linalg::ge_forward_tcu(dev, c.view());

  std::uint64_t loads = 0, hits = 0, calls = 0;
  for (std::size_t u = 1; u < t; ++u) {
    loads += u;          // one load per block column j
    hits += u * (u - 1); // the rest of the column panel reuses it
    calls += u * u;
  }
  EXPECT_EQ(dev.counters().tensor_calls, calls);
  EXPECT_EQ(dev.counters().latency_time, loads * ell);
  EXPECT_EQ(dev.counters().resident_hits, hits);
  EXPECT_EQ(dev.counters().latency_saved, hits * ell);
}

TEST(GaussPool, SerialTallModeLatencyUnchangedAndKeysCallLocal) {
  // Tall mode: one call per (k, j), one load each — tagging must not
  // change the Theorem 4 latency. Running twice on one device must not
  // produce phantom hits either (X' changes content between calls; the
  // entry evict_all re-anchors the call-local keys).
  const std::size_t r = 32;
  const std::uint64_t ell = 9;
  auto c0 = random_augmented(r, 220);
  Device<double> dev({.m = 16, .latency = ell});
  Matrix<double> c = c0;
  tcu::linalg::ge_forward_tcu(dev, c.view());
  const Counters once = dev.counters();
  EXPECT_EQ(once.resident_hits, 0u);
  EXPECT_EQ(once.latency_time, once.tensor_calls * ell);

  Matrix<double> again = c0;
  tcu::linalg::ge_forward_tcu(dev, again.view());
  EXPECT_EQ(dev.counters().resident_hits, 0u);  // no phantom reuse
  EXPECT_EQ(dev.counters().latency_time, 2 * once.latency_time);
  EXPECT_EQ(again, c);
}

TEST(GaussPool, SolvesTheSystem) {
  const std::size_t r = 16;
  auto c = random_augmented(r, 230);
  Matrix<double> reference = c;
  Counters naive;
  tcu::linalg::ge_forward_naive(reference.view(), naive);

  DevicePool<double> pool(3, {.m = 16, .latency = 2});
  PoolExecutor<double> exec(pool);
  tcu::linalg::ge_forward_tcu_pool(exec, c.view());
  Counters back;
  auto x_pool = tcu::linalg::back_substitute(c.view().as_const(), back);
  auto x_ref = tcu::linalg::back_substitute(reference.view().as_const(), back);
  ASSERT_EQ(x_pool.size(), x_ref.size());
  for (std::size_t i = 0; i < x_pool.size(); ++i) {
    EXPECT_NEAR(x_pool[i], x_ref[i], 1e-8) << i;
  }
}

TEST(GaussPool, DeterministicAcrossRuns) {
  const std::size_t r = 24;
  auto c0 = random_augmented(r, 240);
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    Matrix<double> first;
    std::vector<std::uint64_t> first_times;
    for (int run = 0; run < 10; ++run) {
      DevicePool<double> pool(p, {.m = 16, .latency = 5});
      PoolExecutor<double> exec(pool);
      Matrix<double> got = c0;
      tcu::linalg::ge_forward_tcu_pool(exec, got.view());
      std::vector<std::uint64_t> times;
      for (std::size_t u = 0; u < pool.size(); ++u) {
        times.push_back(pool.unit(u).counters().tensor_time);
      }
      if (run == 0) {
        first = got;
        first_times = times;
      }
      EXPECT_EQ(got, first) << "p=" << p << " run=" << run;
      EXPECT_EQ(times, first_times) << "p=" << p << " run=" << run;
    }
  }
}

// ---------------------------------------------------------------- conv2d

struct ConvFixture {
  std::size_t channels_in = 2, kh = 2, kw = 2;
  Matrix<double> input, filters;

  ConvFixture()
      : input(random_int_matrix(2 * 6, 7, 300)),   // 2 channels of 6 x 7
        filters(random_int_matrix(3, 2 * 2 * 2, 301)) {}
};

TEST(ConvPool, MatchesSerialAtEveryUnitCount) {
  ConvFixture f;
  const std::uint64_t ell = 17;
  Device<double> single({.m = 16, .latency = ell});
  auto expect = tcu::nn::conv2d_tcu(single, f.input.view(), f.channels_in,
                                    f.filters.view(), f.kh, f.kw);

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = ell});
    PoolExecutor<double> exec(pool);
    auto got = tcu::nn::conv2d_tcu_pool(exec, f.input.view(), f.channels_in,
                                        f.filters.view(), f.kh, f.kw);
    EXPECT_EQ(got, expect) << "p=" << p;
    expect_counters_match_chunked(pool.aggregate(), single.counters(), ell);
    if (p == 1) {
      expect_counters_identical(pool.aggregate(), single.counters());
    }
  }
}

TEST(ConvPool, SerialBankResidencyClosedForm) {
  // oh*ow = 30 -> rows_p = 32; patch = 8 -> 2 tiles; cout = 3 -> 1 strip:
  // the bank spans 2 tiles. With capacity >= 2 the bank is loaded once
  // *ever* across repeated layers against the same filters — the load
  // latency is charged per tile, not per call touching the bank.
  ConvFixture f;
  const std::uint64_t ell = 23;
  const int calls = 3;
  const std::uint64_t tiles = 2;
  Device<double> dev({.m = 16, .latency = ell, .resident_tiles = 2});
  Matrix<double> out;
  for (int r = 0; r < calls; ++r) {
    out = tcu::nn::conv2d_tcu(dev, f.input.view(), f.channels_in,
                              f.filters.view(), f.kh, f.kw);
  }
  EXPECT_EQ(dev.counters().latency_time, tiles * ell);
  EXPECT_EQ(dev.counters().resident_hits, tiles * (calls - 1));
  EXPECT_EQ(dev.counters().latency_saved, tiles * (calls - 1) * ell);

  // Same filters, fresh untagged-era accounting would have paid
  // tiles * calls * ell; the single-call charges are unchanged.
  Device<double> fresh({.m = 16, .latency = ell});
  (void)tcu::nn::conv2d_tcu(fresh, f.input.view(), f.channels_in,
                            f.filters.view(), f.kh, f.kw);
  EXPECT_EQ(fresh.counters().latency_time, tiles * ell);
}

TEST(ConvPool, SerialWeakModeSharesTileAcrossTheTallSplit) {
  // Weak model: each bank tile's tall stream splits into rows_p / s = 8
  // square calls; only the first pays l, the remaining 7 hit.
  ConvFixture f;
  const std::uint64_t ell = 11;
  Device<double> dev({.m = 16, .latency = ell, .allow_tall = false});
  (void)tcu::nn::conv2d_tcu(dev, f.input.view(), f.channels_in,
                            f.filters.view(), f.kh, f.kw);
  const std::uint64_t tiles = 2, split = 8;
  EXPECT_EQ(dev.counters().tensor_calls, tiles * split);
  EXPECT_EQ(dev.counters().latency_time, tiles * ell);
  EXPECT_EQ(dev.counters().resident_hits, tiles * (split - 1));
  EXPECT_EQ(dev.counters().latency_saved, tiles * (split - 1) * ell);
}

TEST(ConvPool, SplitChainsServeBanksDeeperThanTheCache) {
  // patch = 2*2*4 = 16 -> 4 bank tiles, one output strip. At c = 2 the
  // fused chain thrashes; split_chains gives each of 2 lanes a 2-tile
  // share that fits, so the second call is all hits.
  const std::size_t cin = 2, kh = 2, kw = 4;
  auto input = random_int_matrix(cin * 6, 8, 310);
  auto filters = random_int_matrix(3, cin * kh * kw, 311);
  const std::uint64_t ell = 19;

  Device<double> single({.m = 16, .latency = ell});
  auto expect = tcu::nn::conv2d_tcu(single, input.view(), cin,
                                    filters.view(), kh, kw);

  DevicePool<double> pool(2, {.m = 16, .latency = ell, .resident_tiles = 2});
  PoolExecutor<double> exec(pool);
  Matrix<double> got;
  for (int r = 0; r < 2; ++r) {
    got = tcu::nn::conv2d_tcu_pool(
        exec, input.view(), cin, filters.view(), kh, kw,
        {.affinity = true, .split_chains = true});
  }
  // Integer-valued inputs: the CPU combine's reassociation stays exact.
  EXPECT_EQ(got, expect);
  const Counters agg = pool.aggregate();
  const std::uint64_t tiles = 4;
  EXPECT_EQ(agg.latency_time, tiles * ell);      // each tile loaded once
  EXPECT_EQ(agg.resident_hits, tiles);           // second call all hits
  EXPECT_EQ(agg.latency_saved, tiles * ell);
  EXPECT_GT(pool.unit(0).counters().tensor_calls, 0u);
  EXPECT_GT(pool.unit(1).counters().tensor_calls, 0u);
}

TEST(ConvPool, SplitChainsOnAOneTileBankKeepsTheRowBlocks) {
  // patch = 1*2*2 = 4 = sqrt(m): the bank is one tile deep, so
  // split_chains has no chain to split and must run the default
  // schedule — the im2col rows split into p row blocks (64 rows = 16
  // row tiles here, 2 output strips) — with the same outputs and the
  // same counters on every unit, including the residency split of a
  // second call against the same filters.
  const std::size_t cin = 1, kh = 2, kw = 2;
  auto input = random_int_matrix(cin * 9, 9, 330);
  auto filters = random_int_matrix(5, cin * kh * kw, 331);
  const std::uint64_t ell = 13;
  const Device<double>::Config cfg{
      .m = 16, .latency = ell, .resident_tiles = 2};

  for (std::size_t p : {1u, 2u, 4u}) {
    DevicePool<double> base_pool(p, cfg);
    DevicePool<double> split_pool(p, cfg);
    PoolExecutor<double> base_exec(base_pool);
    PoolExecutor<double> split_exec(split_pool);
    Matrix<double> base, split;
    for (int r = 0; r < 2; ++r) {
      base = tcu::nn::conv2d_tcu_pool(base_exec, input.view(), cin,
                                      filters.view(), kh, kw);
      split = tcu::nn::conv2d_tcu_pool(
          split_exec, input.view(), cin, filters.view(), kh, kw,
          {.affinity = true, .split_chains = true});
    }
    EXPECT_EQ(split, base) << "p=" << p;
    for (std::size_t u = 0; u < p; ++u) {
      const Counters& got = split_pool.unit(u).counters();
      const Counters& want = base_pool.unit(u).counters();
      expect_counters_identical(got, want);
      EXPECT_EQ(got.evictions, want.evictions) << "p=" << p << " u=" << u;
    }
    expect_counters_identical(split_pool.cpu(), base_pool.cpu());
  }
}

TEST(ConvPool, OneByOneKernelAndFewerStripsThanUnits) {
  // 1x1 kernel, single channel: patch = 1 pads to one tile, the output
  // is the input scaled — and the 3x3 grid gives fewer row chunks than
  // the 8 units.
  auto input = random_int_matrix(3, 3, 320);
  auto filters = random_int_matrix(1, 1, 321);
  Device<double> single({.m = 16, .latency = 5});
  auto expect = tcu::nn::conv2d_tcu(single, input.view(), 1, filters.view(),
                                    1, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(expect(i, j), input(i, j) * filters(0, 0));
    }
  }
  DevicePool<double> pool(8, {.m = 16, .latency = 5});
  PoolExecutor<double> exec(pool);
  auto got = tcu::nn::conv2d_tcu_pool(exec, input.view(), 1, filters.view(),
                                      1, 1);
  EXPECT_EQ(got, expect);
  expect_counters_match_chunked(pool.aggregate(), single.counters(), 5);
}

TEST(ConvPool, MatchesRamReference) {
  ConvFixture f;
  Counters ram;
  auto oracle = tcu::nn::conv2d_ram(f.input.view(), f.channels_in,
                                    f.filters.view(), f.kh, f.kw, ram);
  DevicePool<double> pool(3, {.m = 16, .latency = 7});
  PoolExecutor<double> exec(pool);
  auto got = tcu::nn::conv2d_tcu_pool(exec, f.input.view(), f.channels_in,
                                      f.filters.view(), f.kh, f.kw);
  ASSERT_EQ(got.rows(), oracle.rows());
  ASSERT_EQ(got.cols(), oracle.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got(i, j), oracle(i, j));  // integer-valued: exact
    }
  }
}

TEST(ConvPool, DeterministicAcrossRuns) {
  ConvFixture f;
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    Matrix<double> first;
    std::vector<std::uint64_t> first_times;
    for (int run = 0; run < 10; ++run) {
      DevicePool<double> pool(p, {.m = 16, .latency = 9});
      PoolExecutor<double> exec(pool);
      auto got = tcu::nn::conv2d_tcu_pool(exec, f.input.view(),
                                          f.channels_in, f.filters.view(),
                                          f.kh, f.kw);
      std::vector<std::uint64_t> times;
      for (std::size_t u = 0; u < pool.size(); ++u) {
        times.push_back(pool.unit(u).counters().tensor_time);
      }
      if (run == 0) {
        first = got;
        first_times = times;
      }
      EXPECT_EQ(got, first) << "p=" << p << " run=" << run;
      EXPECT_EQ(times, first_times) << "p=" << p << " run=" << run;
    }
  }
}

// ------------------------------------------------- batched shared-B fix

TEST(BatchSharedB, SerialKeepsSharedWeightsResidentAcrossCalls) {
  // 2x2 tile grid of weights, capacity covering all 4: the previously
  // untagged product re-loaded (and invalidated) everything per call;
  // now the second and third calls are all hits.
  const std::size_t s = 4;
  const std::uint64_t ell = 31;
  const int calls = 3;
  auto b = random_matrix(2 * s, 2 * s, 400);
  std::vector<Matrix<double>> batch;
  for (int t = 0; t < 3; ++t) batch.push_back(random_matrix(s, 2 * s, 410 + t));

  Device<double> dev({.m = s * s, .latency = ell, .resident_tiles = 4});
  for (int r = 0; r < calls; ++r) {
    (void)tcu::linalg::matmul_batch_shared_b(dev, batch, b.view());
  }
  EXPECT_EQ(dev.counters().latency_time, 4 * ell);
  EXPECT_EQ(dev.counters().resident_hits, 4u * (calls - 1));
  EXPECT_EQ(dev.counters().latency_saved, 4 * (calls - 1) * ell);

  // At the default capacity 1 the four-tile stream thrashes: the PR 2
  // reload-per-call accounting is unchanged.
  Device<double> c1({.m = s * s, .latency = ell});
  for (int r = 0; r < calls; ++r) {
    (void)tcu::linalg::matmul_batch_shared_b(c1, batch, b.view());
  }
  EXPECT_EQ(c1.counters().resident_hits, 0u);
  EXPECT_EQ(c1.counters().latency_time, 4 * calls * ell);
}

}  // namespace
