// Pool-parallel algorithm paths (Strassen, transitive closure, APSD,
// DFT) against their single-device counterparts: identical output bits
// and identical aggregate counters — the determinism contract of the
// worker-thread runtime extended beyond dense matmul. The DFT is the one
// documented exception: splitting its single tall call per level across p
// units re-pays the Fourier-tile load latency per unit, so everything
// except the latency term matches (and a 1-unit pool matches exactly).

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "intmul/mul.hpp"
#include "linalg/strassen.hpp"
#include "poly/poly_mul.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

/// Random digraph adjacency, a closure input.
tcu::graph::AdjMatrix random_digraph(std::size_t n, double p,
                                     std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  tcu::graph::AdjMatrix adj(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform(0, 1) < p) adj(i, j) = 1;
    }
  }
  return adj;
}

/// Random connected undirected graph: a ring plus random chords.
Matrix<std::int64_t> random_connected(std::size_t n, double p,
                                      std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<std::int64_t> adj(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    adj(i, j) = adj(j, i) = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform(0, 1) < p) adj(i, j) = adj(j, i) = 1;
    }
  }
  return adj;
}

/// calls, rows, tensor_time, macs, latency, hits, latency_saved,
/// evictions, tagged_calls, cpu_ops, systolic_cycles.
using Fields = std::array<std::uint64_t, 11>;

Fields fields(const Counters& c) {
  return {c.tensor_calls,  c.tensor_rows,   c.tensor_time,
          c.tensor_macs,   c.latency_time,  c.resident_hits,
          c.latency_saved, c.evictions,     c.tagged_calls,
          c.cpu_ops,       c.systolic_cycles};
}

/// Every Counters field, residency included.
void expect_counters_eq(const Counters& got, const Counters& want) {
  EXPECT_TRUE(got == want) << "got  " << testing::PrintToString(fields(got))
                           << "\nwant " << testing::PrintToString(fields(want));
}

TEST(PoolAlgos, StrassenPoolMatchesSerialBitExactly) {
  for (int p0 : {7, 8}) {
    for (std::size_t units : {1u, 3u}) {
      const std::size_t d = 32;
      auto a = random_matrix(d, d, 100 + p0);
      auto b = random_matrix(d, d, 200 + p0);
      Device<double> dev({.m = 16, .latency = 9});
      auto expect = tcu::linalg::matmul_strassen_tcu(dev, a.view(), b.view(),
                                                     {.p0 = p0});
      DevicePool<double> pool(units, {.m = 16, .latency = 9});
      PoolExecutor<double> exec(pool);
      auto got = tcu::linalg::matmul_strassen_tcu_pool(exec, a.view(),
                                                       b.view(), {.p0 = p0});
      EXPECT_EQ(got, expect) << "p0=" << p0 << " units=" << units;
      expect_counters_eq(pool.aggregate(), dev.counters());
    }
  }
}

TEST(PoolAlgos, StrassenPoolHandlesPaddedSizes) {
  const std::size_t d = 20;  // pads to 32
  auto a = random_matrix(d, d, 300);
  auto b = random_matrix(d, d, 301);
  Device<double> dev({.m = 16, .latency = 4});
  auto expect = tcu::linalg::matmul_strassen_tcu(dev, a.view(), b.view());
  DevicePool<double> pool(2, {.m = 16, .latency = 4});
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_strassen_tcu_pool(exec, a.view(), b.view());
  EXPECT_EQ(got, expect);
  expect_counters_eq(pool.aggregate(), dev.counters());
}

TEST(PoolAlgos, StrassenPoolSplitsWorkAcrossUnits) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 310);
  auto b = random_matrix(d, d, 311);
  Device<double> dev({.m = 16, .latency = 2});
  (void)tcu::linalg::matmul_strassen_tcu(dev, a.view(), b.view());
  DevicePool<double> pool(4, {.m = 16, .latency = 2});
  PoolExecutor<double> exec(pool);
  (void)tcu::linalg::matmul_strassen_tcu_pool(exec, a.view(), b.view());
  for (std::size_t u = 0; u < pool.size(); ++u) {
    EXPECT_GT(pool.unit(u).counters().tensor_calls, 0u) << "unit " << u;
  }
  EXPECT_LT(pool.makespan(), dev.counters().time());
}

TEST(PoolAlgos, ClosurePoolMatchesSerial) {
  for (std::size_t n : {24u, 30u}) {  // 30: exercises the padded path
    auto adj = random_digraph(n, 0.15, 400 + n);
    tcu::graph::AdjMatrix serial_d = adj;
    Device<tcu::graph::Vert> dev({.m = 64, .latency = 7});
    tcu::graph::closure_tcu(dev, serial_d.view());

    tcu::graph::AdjMatrix pool_d = adj;
    DevicePool<tcu::graph::Vert> pool(3, {.m = 64, .latency = 7});
    PoolExecutor<tcu::graph::Vert> exec(pool);
    tcu::graph::closure_tcu(exec, pool_d.view());

    EXPECT_EQ(pool_d, serial_d) << "n=" << n;
    expect_counters_eq(pool.aggregate(), dev.counters());
    EXPECT_EQ(pool_d, tcu::graph::closure_bfs_oracle(adj.view())) << "n=" << n;
  }
}

TEST(PoolAlgos, ClosurePoolReusedExecutorAcrossCalls) {
  // One persistent executor across two closure computations is
  // bit-identical to one fresh executor per computation.
  auto adj = random_digraph(32, 0.1, 500);
  DevicePool<tcu::graph::Vert> pool_a(2, {.m = 64, .latency = 3});
  DevicePool<tcu::graph::Vert> pool_b(2, {.m = 64, .latency = 3});

  tcu::graph::AdjMatrix da1 = adj, da2 = adj, db1 = adj, db2 = adj;
  PoolExecutor<tcu::graph::Vert> exec(pool_a);
  tcu::graph::closure_tcu(exec, da1.view());
  tcu::graph::closure_tcu(exec, da2.view());
  {
    PoolExecutor<tcu::graph::Vert> e(pool_b);
    tcu::graph::closure_tcu(e, db1.view());
  }
  {
    PoolExecutor<tcu::graph::Vert> e(pool_b);
    tcu::graph::closure_tcu(e, db2.view());
  }

  EXPECT_EQ(da1, db1);
  EXPECT_EQ(da2, db2);
  for (std::size_t u = 0; u < pool_a.size(); ++u) {
    expect_counters_eq(pool_a.unit(u).counters(),
                       pool_b.unit(u).counters());
  }
}

TEST(PoolAlgos, ApsdPoolMatchesSerial) {
  for (bool strassen : {false, true}) {
    const std::size_t n = 18;
    auto adj = random_connected(n, 0.1, 600);
    Device<std::int64_t> dev({.m = 16, .latency = 5});
    auto expect = tcu::graph::apsd_seidel(dev, adj.view(),
                                          {.use_strassen = strassen});
    DevicePool<std::int64_t> pool(3, {.m = 16, .latency = 5});
    PoolExecutor<std::int64_t> exec(pool);
    auto got = tcu::graph::apsd_seidel(exec, adj.view(),
                                       {.use_strassen = strassen});
    EXPECT_EQ(got, expect) << "strassen=" << strassen;
    expect_counters_eq(pool.aggregate(), dev.counters());

    Counters oracle_counters;
    auto bfs = tcu::graph::apsd_bfs(adj.view(), oracle_counters);
    EXPECT_EQ(got, bfs) << "strassen=" << strassen;
  }
}

TEST(PoolAlgos, DftPoolOneUnitMatchesSerialExactly) {
  using tcu::dft::Complex;
  tcu::util::Xoshiro256 rng(700);
  Matrix<Complex> serial_batch(3, 24);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t j = 0; j < 24; ++j) {
      serial_batch(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  Matrix<Complex> pool_batch = serial_batch;

  Device<Complex> dev({.m = 16, .latency = 11});
  tcu::dft::dft_batch_tcu(dev, serial_batch.view());

  DevicePool<Complex> pool(1, {.m = 16, .latency = 11});
  PoolExecutor<Complex> exec(pool);
  tcu::dft::dft_batch_tcu(exec, pool_batch.view());

  EXPECT_EQ(pool_batch, serial_batch);
  expect_counters_eq(pool.aggregate(), dev.counters());
}

TEST(PoolAlgos, DftPoolMultiUnitMatchesSerialModuloReloadLatency) {
  using tcu::dft::Complex;
  tcu::util::Xoshiro256 rng(701);
  const std::size_t b = 4, len = 40;
  Matrix<Complex> serial_batch(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      serial_batch(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  Matrix<Complex> pool_batch = serial_batch;

  Device<Complex> dev({.m = 16, .latency = 11});
  tcu::dft::dft_batch_tcu(dev, serial_batch.view());

  DevicePool<Complex> pool(3, {.m = 16, .latency = 11});
  PoolExecutor<Complex> exec(pool);
  tcu::dft::dft_batch_tcu(exec, pool_batch.view());

  // Bit-identical outputs: the row split does not change any FP op order.
  EXPECT_EQ(pool_batch, serial_batch);
  const Counters agg = pool.aggregate();
  const Counters& ref = dev.counters();
  // Everything but the per-unit tile re-load latency matches exactly.
  EXPECT_EQ(agg.tensor_macs, ref.tensor_macs);
  EXPECT_EQ(agg.tensor_rows, ref.tensor_rows);
  EXPECT_EQ(agg.cpu_ops, ref.cpu_ops);
  EXPECT_EQ(agg.tensor_time - agg.latency_time,
            ref.tensor_time - ref.latency_time);
  EXPECT_GE(agg.latency_time, ref.latency_time);
  // The overhead is exactly l per extra chunk.
  EXPECT_EQ(agg.latency_time - ref.latency_time,
            (agg.tensor_calls - ref.tensor_calls) * 11u);
}

// Weak-model units charge l per square call either way, and the pool's
// chunk boundaries fall on tile multiples, so the chunked schedule's
// counters match the serial ones in EVERY field — including latency.
TEST(PoolAlgos, DftPoolWeakModeMatchesSerialExactly) {
  using tcu::dft::Complex;
  tcu::util::Xoshiro256 rng(703);
  const std::size_t b = 3, len = 48;
  Matrix<Complex> serial_batch(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      serial_batch(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  Matrix<Complex> pool_batch = serial_batch;
  typename Device<Complex>::Config cfg{
      .m = 16, .latency = 13, .allow_tall = false};

  Device<Complex> dev(cfg);
  tcu::dft::dft_batch_tcu(dev, serial_batch.view());

  DevicePool<Complex> pool(2, cfg);
  PoolExecutor<Complex> exec(pool);
  tcu::dft::dft_batch_tcu(exec, pool_batch.view());

  EXPECT_EQ(pool_batch, serial_batch);
  expect_counters_eq(pool.aggregate(), dev.counters());
  EXPECT_EQ(pool.aggregate().tensor_calls, dev.counters().tensor_calls);
}

Matrix<tcu::dft::Complex> random_complex(std::size_t r, std::size_t c,
                                         std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<tcu::dft::Complex> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  return out;
}

// The pooled inverse batch, 2-D transform and both convolutions on their
// own (the stencils reach them only with affinity on): at p = 1 and
// p = 3, with affinity on and off, over a Bluestein length (13 > sqrt(m),
// prime) and a 5 x 9 shape, outputs equal the Device& entry's bit for
// bit, and at p = 1 so does every counter field. Each entry point's
// arena truncation runs here under real worker threads.
TEST(PoolAlgos, DftEntryPointsOnThePoolMatchTheDeviceEntry) {
  using tcu::dft::Complex;
  using tcu::dft::CVec;
  const Device<Complex>::Config cfg{
      .m = 16, .latency = 11, .resident_tiles = 2};
  const Matrix<Complex> x = random_complex(5, 9, 720);
  const Matrix<Complex> kernel = random_complex(5, 9, 721);
  const Matrix<Complex> prime_rows = random_complex(3, 13, 722);
  const Matrix<Complex> ab = random_complex(2, 13, 723);
  const CVec a(&ab(0, 0), &ab(0, 0) + 13), b(&ab(1, 0), &ab(1, 0) + 13);
  for (const bool affinity : {false, true}) {
    const tcu::dft::DftOptions opts{.affinity = affinity};
    for (const std::size_t p : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << "affinity=" << affinity
                                      << " p=" << p);
      Device<Complex> dev(cfg);
      DevicePool<Complex> pool(p, cfg);
      PoolExecutor<Complex> exec(pool);

      Matrix<Complex> want = prime_rows, got = prime_rows;
      tcu::dft::idft_batch_tcu(dev, want.view(), opts);
      tcu::dft::idft_batch_tcu(exec, got.view(), opts);
      EXPECT_EQ(got, want);
      EXPECT_EQ(tcu::dft::dft2_tcu(exec, x.view(), false, opts),
                tcu::dft::dft2_tcu(dev, x.view(), false, opts));
      EXPECT_EQ(tcu::dft::dft2_tcu(exec, prime_rows.view(), true, opts),
                tcu::dft::dft2_tcu(dev, prime_rows.view(), true, opts));
      EXPECT_EQ(tcu::dft::circular_convolve_tcu(exec, a, b, opts),
                tcu::dft::circular_convolve_tcu(dev, a, b, opts));
      EXPECT_EQ(
          tcu::dft::circular_convolve2_tcu(exec, x.view(), kernel.view(),
                                           opts),
          tcu::dft::circular_convolve2_tcu(dev, x.view(), kernel.view(),
                                           opts));
      if (p == 1) expect_counters_eq(pool.aggregate(), dev.counters());
    }
  }
}

// Karatsuba's call tree is Strassen-shaped: the unrolled top levels run
// (and charge) on the shared CPU, the recorded subtree products are dealt
// across units, and the product plus the aggregate counters must be
// bit-identical to the serial Theorem 10 recursion at every unit count.
TEST(PoolAlgos, KaratsubaIntmulPoolMatchesSerialBitExactly) {
  tcu::util::Xoshiro256 rng(800);
  const auto a = tcu::intmul::BigInt::random_bits(4096, rng);
  const auto b = tcu::intmul::BigInt::random_bits(3500, rng);

  Device<std::int64_t> dev({.m = 64, .latency = 9});
  const auto expect = tcu::intmul::mul_karatsuba_tcu(dev, a, b);

  for (std::size_t units : {1u, 2u, 4u}) {
    DevicePool<std::int64_t> pool(units, {.m = 64, .latency = 9});
    PoolExecutor<std::int64_t> exec(pool);
    const auto got = tcu::intmul::mul_karatsuba_tcu_pool(exec, a, b);
    EXPECT_EQ(got, expect) << "units=" << units;
    expect_counters_eq(pool.aggregate(), dev.counters());
    if (units > 1) {
      // The subtrees really spread out.
      EXPECT_GT(pool.unit(1).counters().tensor_calls, 0u);
    }
  }
}

TEST(PoolAlgos, KaratsubaPolyPoolMatchesSerialBitExactly) {
  tcu::util::Xoshiro256 rng(810);
  // Integer-valued coefficients: Karatsuba's reassociation stays exact,
  // so the TCU routes can be compared bit-for-bit and against RAM.
  std::vector<double> a(300), b(257);
  for (auto& v : a) v = static_cast<double>(rng.uniform_int(-9, 9));
  for (auto& v : b) v = static_cast<double>(rng.uniform_int(-9, 9));

  Counters ram_counters;
  const auto oracle = tcu::poly::multiply_ram(a, b, ram_counters);

  Device<double> dev({.m = 16, .latency = 5});
  const auto expect = tcu::poly::multiply_karatsuba_tcu(dev, a, b);
  EXPECT_EQ(expect, oracle);  // exact: integer-valued inputs

  for (std::size_t units : {1u, 3u}) {
    DevicePool<double> pool(units, {.m = 16, .latency = 5});
    PoolExecutor<double> exec(pool);
    const auto got = tcu::poly::multiply_karatsuba_tcu_pool(exec, a, b);
    EXPECT_EQ(got, expect) << "units=" << units;
    expect_counters_eq(pool.aggregate(), dev.counters());
  }

  // The RAM Karatsuba agrees too (same reassociation, exact values).
  Counters kara_ram;
  EXPECT_EQ(tcu::poly::multiply_karatsuba_ram(a, b, kara_ram), oracle);
  EXPECT_GT(kara_ram.cpu_ops, 0u);
}

TEST(PoolAlgos, KaratsubaPoolReusedExecutorAcrossProducts) {
  tcu::util::Xoshiro256 rng(820);
  const auto a = tcu::intmul::BigInt::random_bits(2048, rng);
  const auto b = tcu::intmul::BigInt::random_bits(2048, rng);
  const auto c = tcu::intmul::BigInt::random_bits(1024, rng);

  DevicePool<std::int64_t> pool_reused(2, {.m = 64, .latency = 3});
  DevicePool<std::int64_t> pool_fresh(2, {.m = 64, .latency = 3});
  tcu::intmul::BigInt r1, r2, f1, f2;
  {
    PoolExecutor<std::int64_t> exec(pool_reused);
    r1 = tcu::intmul::mul_karatsuba_tcu_pool(exec, a, b);
    r2 = tcu::intmul::mul_karatsuba_tcu_pool(exec, r1, c);
  }
  {
    PoolExecutor<std::int64_t> exec1(pool_fresh);
    f1 = tcu::intmul::mul_karatsuba_tcu_pool(exec1, a, b);
  }
  {
    PoolExecutor<std::int64_t> exec2(pool_fresh);
    f2 = tcu::intmul::mul_karatsuba_tcu_pool(exec2, f1, c);
  }
  EXPECT_EQ(r1, f1);
  EXPECT_EQ(r2, f2);
  for (std::size_t u = 0; u < pool_reused.size(); ++u) {
    expect_counters_eq(pool_reused.unit(u).counters(),
                       pool_fresh.unit(u).counters());
  }
}

TEST(PoolAlgos, DftPoolInverseRoundTrips) {
  using tcu::dft::Complex;
  tcu::util::Xoshiro256 rng(702);
  const std::size_t b = 2, len = 32;
  Matrix<Complex> batch(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      batch(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  Matrix<Complex> original = batch;
  DevicePool<Complex> pool(2, {.m = 16, .latency = 3});
  PoolExecutor<Complex> exec(pool);
  tcu::dft::dft_batch_tcu(exec, batch.view());
  tcu::dft::idft_batch_tcu(exec, batch.view());
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      EXPECT_NEAR(batch(r, j).real(), original(r, j).real(), 1e-9);
      EXPECT_NEAR(batch(r, j).imag(), original(r, j).imag(), 1e-9);
    }
  }
}

// ------------------------------------- golden Device& recursion entries

/// FNV-style hash of the bit patterns of a run's outputs.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    std::uint64_t bits;
    if constexpr (std::is_floating_point_v<T>) {
      bits = std::bit_cast<std::uint64_t>(static_cast<double>(v));
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    h = (h ^ bits) * 0x100000001b3ull;
  }
  template <typename T>
  void add(const Matrix<T>& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) add(m(i, j));
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    for (const T& x : v) add(x);
  }
  void add(const tcu::intmul::BigInt& v) { add(v.limbs()); }
};

/// What two successive calls on one device left behind: the hash of both
/// outputs and the counters after each call.
struct GoldenRun {
  std::uint64_t hash = 0;
  Fields first{};
  Fields second{};
};

template <typename T, typename Call>
GoldenRun run_twice(const typename Device<T>::Config& cfg, Call call) {
  Device<T> dev(cfg);
  BitHash h;
  GoldenRun run;
  for (Fields* after : {&run.first, &run.second}) {
    h.add(call(dev));
    *after = fields(dev.counters());
  }
  run.hash = h.h;
  return run;
}

struct GoldenCase {
  const char* name;
  GoldenRun (*run)();
  GoldenRun want;
};

template <std::size_t d, int p0, bool weak = false>
GoldenRun strassen_run() {
  const auto a = random_matrix(d, d, 1000 + d);
  const auto b = random_matrix(d, d, 1100 + d);
  const Device<double>::Config cfg =
      weak ? Device<double>::Config{.m = 16, .latency = 9,
                                    .allow_tall = false, .resident_tiles = 4}
           : Device<double>::Config{.m = 16, .latency = 9};
  return run_twice<double>(cfg, [&](Device<double>& dev) {
    return tcu::linalg::matmul_strassen_tcu(dev, a.view(), b.view(),
                                            {.p0 = p0});
  });
}

template <bool strassen>
GoldenRun apsd_run() {
  const auto adj = random_connected(18, 0.1, 1200);
  return run_twice<std::int64_t>(
      {.m = 16, .latency = 5}, [&](Device<std::int64_t>& dev) {
        return tcu::graph::apsd_seidel(dev, adj.view(),
                                       {.use_strassen = strassen});
      });
}

GoldenRun intmul_run() {
  tcu::util::Xoshiro256 rng(1300);
  const auto a = tcu::intmul::BigInt::random_bits(4096, rng);
  const auto b = tcu::intmul::BigInt::random_bits(3500, rng);
  return run_twice<std::int64_t>(
      {.m = 64, .latency = 9}, [&](Device<std::int64_t>& dev) {
        return tcu::intmul::mul_karatsuba_tcu(dev, a, b);
      });
}

GoldenRun poly_run() {
  tcu::util::Xoshiro256 rng(1400);
  std::vector<double> a(300), b(257);
  for (auto& v : a) v = static_cast<double>(rng.uniform_int(-9, 9));
  for (auto& v : b) v = static_cast<double>(rng.uniform_int(-9, 9));
  return run_twice<double>({.m = 16, .latency = 5}, [&](Device<double>& dev) {
    return tcu::poly::multiply_karatsuba_tcu(dev, a, b);
  });
}

// Every charge and output bit of the Strassen, APSD and Karatsuba Device&
// entry points, after each of two successive calls on one device. A
// change meant to move them recaptures a row from the paste-ready line
// its failure prints.
const GoldenCase kGolden[] = {
    {"strassen p0=7 d=32", strassen_run<32, 7>,
     {0x98988281be30d221ull,
      {196, 1568, 8036, 25088, 1764, 0, 0, 0, 0, 23168, 0},
      {392, 3136, 16072, 50176, 3528, 0, 0, 0, 0, 46336, 0}}},
    {"strassen p0=8 d=32", strassen_run<32, 8>,
     {0xc288879febcd43c5ull,
      {256, 2048, 10496, 32768, 2304, 0, 0, 0, 0, 14336, 0},
      {512, 4096, 20992, 65536, 4608, 0, 0, 0, 0, 28672, 0}}},
    {"strassen p0=7 d=20 (padded)", strassen_run<20, 7>,
     {0x79724e1592c82dc1ull,
      {196, 1568, 8036, 25088, 1764, 0, 0, 0, 0, 23568, 0},
      {392, 3136, 16072, 50176, 3528, 0, 0, 0, 0, 47136, 0}}},
    {"strassen p0=8 d=20 (padded)", strassen_run<20, 8>,
     {0xc9bd1ba33c289efdull,
      {256, 2048, 10496, 32768, 2304, 0, 0, 0, 0, 14736, 0},
      {512, 4096, 20992, 65536, 4608, 0, 0, 0, 0, 29472, 0}}},
    {"strassen p0=7 d=32 weak c=4", strassen_run<32, 7, true>,
     {0x98988281be30d221ull,
      {392, 1568, 9800, 25088, 3528, 0, 0, 0, 0, 23168, 0},
      {784, 3136, 19600, 50176, 7056, 0, 0, 0, 0, 46336, 0}}},
    {"apsd n=18", apsd_run<false>,
     {0x3e4caba4ecd86861ull,
      {150, 2700, 11550, 43200, 750, 0, 0, 0, 0, 18468, 0},
      {300, 5400, 23100, 86400, 1500, 0, 0, 0, 0, 36936, 0}}},
    {"apsd n=18 strassen", apsd_run<true>,
     {0x3e4caba4ecd86861ull,
      {1176, 9408, 43512, 150528, 5880, 0, 0, 0, 0, 145812, 0},
      {2352, 18816, 87024, 301056, 11760, 0, 0, 0, 0, 291624, 0}}},
    {"mul_karatsuba_tcu 4096x3500 bits", intmul_run,
     {0x81c9938558fea1full,
      {48, 1520, 12592, 97280, 432, 0, 0, 0, 0, 49924, 0},
      {96, 3040, 25184, 194560, 864, 0, 0, 0, 0, 99848, 0}}},
    {"multiply_karatsuba_tcu 300x257", poly_run,
     {0x562e431e6a533805ull,
      {234, 3510, 15210, 56160, 1170, 0, 0, 0, 0, 88948, 0},
      {468, 7020, 30420, 112320, 2340, 0, 0, 0, 0, 177896, 0}}},
};

std::string paste_line(const GoldenRun& r) {
  std::ostringstream line;
  line << "{0x" << std::hex << r.hash << "ull" << std::dec;
  for (const Fields* after : {&r.first, &r.second}) {
    line << ", {";
    for (std::size_t i = 0; i < after->size(); ++i) {
      line << (i ? ", " : "") << (*after)[i];
    }
    line << "}";
  }
  line << "}";
  return line.str();
}

TEST(RecursionGolden, DeviceEntryPointsKeepEveryCounterAndBit) {
  for (const GoldenCase& g : kGolden) {
    const GoldenRun got = g.run();
    EXPECT_EQ(got.hash, g.want.hash) << g.name << ": got " << paste_line(got);
    EXPECT_EQ(got.first, g.want.first) << g.name << ": got "
                                       << paste_line(got);
    EXPECT_EQ(got.second, g.want.second) << g.name << ": got "
                                         << paste_line(got);
  }
}

}  // namespace
