// Backend equivalence: the GemmBackend seam must be invisible to the
// model. Every backend runs beneath the same Device::issue() accounting,
// so swapping sim -> micro (-> blas when compiled in) changes only the
// wall clock: integral and — because the micro kernel keeps the
// reference k-summation order with no FMA — floating outputs are
// bit-identical, and every Counters field matches exactly. BLAS
// reassociates, so its float/double outputs are bounded-ulp instead.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "check/contract.hpp"
#include "core/backend.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::BackendKind;
using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::InlineExecutor;
using tcu::Matrix;
using tcu::PoolExecutor;

template <typename T = double>
Matrix<T> random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<T> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<T>(rng.uniform(-1, 1));
    }
  }
  return m;
}

Matrix<std::int64_t> random_int_matrix(std::size_t r, std::size_t c,
                                       std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<std::int64_t> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform_int(-9, 9);
  }
  return m;
}

void expect_counters_equal(const Counters& got, const Counters& want,
                           const std::string& what) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.cpu_ops, want.cpu_ops) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
  EXPECT_EQ(got.latency_saved, want.latency_saved) << what;
  EXPECT_EQ(got.evictions, want.evictions) << what;
  EXPECT_EQ(got.tagged_calls, want.tagged_calls) << what;
}

// ------------------------------------------------------------- selection

TEST(BackendSelect, ParserAndNamesRoundTrip) {
  EXPECT_EQ(tcu::parse_backend_kind("sim"), BackendKind::kSim);
  EXPECT_EQ(tcu::parse_backend_kind("micro"), BackendKind::kMicro);
  EXPECT_EQ(tcu::parse_backend_kind("blas"), BackendKind::kBlas);
  EXPECT_THROW(tcu::parse_backend_kind("cuda"), std::invalid_argument);
  EXPECT_THROW(tcu::parse_backend_kind(""), std::invalid_argument);
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kSim), "sim");
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kMicro), "micro");
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kBlas), "blas");
}

TEST(BackendSelect, DefaultIsSimAndEnvOverrides) {
  unsetenv("TCU_BACKEND");
  {
    Device<double> dev({.m = 16});
    EXPECT_STREQ(dev.backend_name(), "sim");
  }
  setenv("TCU_BACKEND", "micro", 1);
  {
    Device<double> dev({.m = 16});
    EXPECT_STREQ(dev.backend_name(), "micro");
  }
  // An explicit kind wins over the env.
  {
    Device<double> dev({.m = 16, .backend = BackendKind::kSim});
    EXPECT_STREQ(dev.backend_name(), "sim");
  }
  setenv("TCU_BACKEND", "warp9", 1);
  EXPECT_THROW(Device<double>({.m = 16}), std::invalid_argument);
  unsetenv("TCU_BACKEND");
}

TEST(BackendSelect, UnavailableBlasFailsLoudly) {
  if (tcu::backend_available(BackendKind::kBlas)) {
    GTEST_SKIP() << "built with TCU_BLAS; unavailability path not reachable";
  }
  EXPECT_THROW(Device<double>({.m = 16, .backend = BackendKind::kBlas}),
               std::invalid_argument);
}

TEST(BackendSelect, EngineCtorStaysOnTheSeam) {
  Device<double> dev({.m = 16}, tcu::Device<double>::reference_engine());
  EXPECT_STREQ(dev.backend_name(), "engine");
  EXPECT_THROW(Device<double>({.m = 16}, tcu::Device<double>::Engine{}),
               std::invalid_argument);
}

// ------------------------------------------------- serial bit-identity

template <typename T>
void serial_identity_case(const Matrix<T>& a, const Matrix<T>& b) {
  Device<T> sim({.m = 64, .latency = 5, .backend = BackendKind::kSim});
  Device<T> micro({.m = 64, .latency = 5, .backend = BackendKind::kMicro});
  InlineExecutor<T> on_sim(sim), on_micro(micro);
  auto c_sim = tcu::linalg::matmul_tcu_pool(on_sim, a.view(), b.view(),
                                            {.affinity = true});
  auto c_micro = tcu::linalg::matmul_tcu_pool(on_micro, a.view(), b.view(),
                                              {.affinity = true});
  EXPECT_EQ(c_sim, c_micro);  // bitwise: micro keeps the k order, no FMA
  expect_counters_equal(micro.counters(), sim.counters(), "serial micro");
}

TEST(BackendEquivalence, MicroMatchesSimSerial) {
  // Aligned and ragged shapes: the ragged path exercises the micro
  // kernel's partial register blocks (n, s not multiples of kMR/kNR).
  serial_identity_case(random_matrix(32, 32, 501), random_matrix(32, 32, 502));
  serial_identity_case(random_matrix(40, 24, 503), random_matrix(24, 40, 504));
  serial_identity_case(random_int_matrix(32, 32, 505),
                       random_int_matrix(32, 32, 506));
  serial_identity_case(random_int_matrix(27, 19, 507),
                       random_int_matrix(19, 33, 508));
}

// ------------------------------------------------------ micro SIMD rungs

/// A micro SIMD rung entry point (core/backend.hpp's backend_detail).
template <typename T>
using RungGemm = void (*)(const T*, std::size_t, const T*, std::size_t, T*,
                          std::size_t, std::size_t, std::size_t, bool);

struct Rung {
  const char* name;
  bool (*present)();
  RungGemm<double> gemm_double;
  RungGemm<float> gemm_float;

  template <typename T>
  void run(tcu::ConstMatrixView<T> a, tcu::ConstMatrixView<T> b,
           tcu::MatrixView<T> c, bool accumulate) const {
    RungGemm<T> gemm;
    if constexpr (std::is_same_v<T, double>) {
      gemm = gemm_double;
    } else {
      gemm = gemm_float;
    }
    gemm(a.data, a.stride, b.data, b.stride, c.data, c.stride, a.rows,
         b.rows, accumulate);
  }
};

void PrintTo(const Rung& rung, std::ostream* os) { *os << rung.name; }

// Runs the sim loop and a rung on strided operands: views cut out of
// larger matrices at an offset, so every row stride exceeds s. With
// `contiguous`, the operands are whole matrices instead (every stride is
// s), the dense panels a strip-major tall call hands the kernel. The
// whole output matrices are compared, so a store past the view's edge
// fails too.
template <typename T>
void kernel_case(const Rung& rung, std::size_t n, std::size_t s,
                 std::uint64_t seed, bool contiguous = false) {
  const std::size_t pad = contiguous ? 0 : 1;
  const auto a = random_matrix<T>(n + 2 * pad, s + 3 * pad, seed);
  const auto b = random_matrix<T>(s + pad, s + 5 * pad, seed + 1);
  auto c_sim = random_matrix<T>(n + 2 * pad, s + 7 * pad, seed + 2);
  auto c_rung = c_sim;
  Counters unused;
  tcu::SimBackend<T> sim;
  for (const bool accumulate : {false, true}) {
    sim.run(a.subview(pad, 2 * pad, n, s), b.subview(pad, 3 * pad, s, s),
            c_sim.subview(pad, 4 * pad, n, s), accumulate, unused);
    rung.run<T>(a.subview(pad, 2 * pad, n, s), b.subview(pad, 3 * pad, s, s),
                c_rung.subview(pad, 4 * pad, n, s), accumulate);
    EXPECT_EQ(c_sim, c_rung) << rung.name << " n=" << n << " s=" << s
                             << " accumulate=" << accumulate
                             << " contiguous=" << contiguous;
  }
}

template <typename T, typename Dot>
Matrix<T> product_by(std::size_t n, std::size_t s, Dot dot) {
  Matrix<T> c(n, s);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < s; ++j) c(i, j) = dot(i, j);
  }
  return c;
}

template <typename T>
void rounding_trap_case(const Rung& rung) {
  // n = 7, s = 21 reaches the 4-row blocks, the row tail, and the scalar
  // column tail for both types and rungs; the avx2 one-vector block for
  // double; and the avx512 rung's one-vector block for float and its ymm
  // tail for double.
  constexpr std::size_t n = 7;
  constexpr std::size_t s = 21;
  // (1 + e)^2 = 1 + 2e + e^2 with e^2 below half an ulp of 1: the product
  // rounds it away, a fused multiply-add keeps it.
  const T e = std::ldexp(T{1}, -(std::numeric_limits<T>::digits / 2 + 1));
  const T big = static_cast<T>(1e16);  // absorbs an addend of 0.5
  Matrix<T> a(n, s), b(s, s);
  for (std::size_t j = 0; j < s; ++j) {
    b(0, j) = 1;
    b(1, j) = 1 + e;
    b(2, j) = 1;
    b(3, j) = 1;
  }
  for (std::size_t i = 0; i < n; i += 2) {  // in k order the sum is 0.5
    a(i, 0) = big;
    a(i, 1) = T{0.5};
    a(i, 2) = -big;
    a(i, 3) = T{0.5};
  }
  for (std::size_t i = 1; i < n; i += 2) {  // -1 exposes the product's rounding
    a(i, 0) = -1;
    a(i, 1) = 1 + e;
  }
  Matrix<T> c_sim(n, s), c_rung(n, s);
  Counters unused;
  tcu::SimBackend<T>().run(a.view(), b.view(), c_sim.view(), false, unused);
  rung.run<T>(a.view(), b.view(), c_rung.view(), false);

  // The input separates the reference order from a fused multiply-add and
  // from two reassociations, so the bitwise check below catches a kernel
  // that fuses or reorders the k sum.
  const auto fused = product_by<T>(n, s, [&](std::size_t i, std::size_t j) {
    T acc{};
    for (std::size_t k = 0; k < s; ++k) acc = std::fma(a(i, k), b(k, j), acc);
    return acc;
  });
  const auto even_odd = product_by<T>(n, s, [&](std::size_t i, std::size_t j) {
    T part[2] = {T{}, T{}};
    for (std::size_t k = 0; k < s; ++k) part[k % 2] += a(i, k) * b(k, j);
    return part[0] + part[1];
  });
  const auto paired = product_by<T>(n, s, [&](std::size_t i, std::size_t j) {
    T acc{};
    for (std::size_t k = 0; k + 1 < s; k += 2) {
      acc += a(i, k) * b(k, j) + a(i, k + 1) * b(k + 1, j);
    }
    return acc + a(i, s - 1) * b(s - 1, j);  // s is odd: the last k alone
  });
  EXPECT_NE(c_sim, fused);
  EXPECT_NE(c_sim, even_odd);
  EXPECT_NE(c_sim, paired);
  EXPECT_EQ(c_sim, c_rung) << rung.name;
}

class MicroRung : public ::testing::TestWithParam<Rung> {};

TEST_P(MicroRung, KernelTailsMatchReference) {
  // Runs on every rung the CPU has, not just the one MicroBackend picks,
  // so the AVX2 rung stays covered on AVX-512 hosts.
  const Rung& rung = GetParam();
  if (!rung.present()) GTEST_SKIP() << rung.name << " not on this CPU";
  // Every branch of both rungs for both element types: n % 4 in {0, 1, 3}
  // for the row tail, and for the columns every remainder of the rung's
  // block. avx2 vectors hold 4 doubles or 8 floats in 2-vector blocks;
  // avx512 ones hold 8 or 16 in 4-vector blocks (32 doubles, 64 floats).
  // For double on avx512, s = 96 leaves no zmm vector past the blocks,
  // 72 one, 80 and 112 two, 56 and 120 three; 12, 20 and 25 end on a ymm
  // vector or scalars. For float, 64 leaves none, 80 one, 96 two, 112
  // three, and 56, 72 and 120 end on a ymm vector. Non-multiples of 4
  // (7, 25) take the scalar column tail on every rung.
  for (const std::size_t n : {4u, 5u, 7u, 13u}) {
    for (const std::size_t s : {4u, 7u, 8u, 12u, 16u, 20u, 24u, 25u, 40u,
                                48u, 56u, 64u, 72u, 80u, 96u, 112u, 120u}) {
      kernel_case<double>(rung, n, s, 600 + 10 * n + s);
      kernel_case<float>(rung, n, s, 700 + 10 * n + s);
    }
  }
  // The tall call the Mlp benchmark issues, on a strided 512-wide
  // operand (row-major activations) and on contiguous panels (ld = s,
  // strip-major activations).
  kernel_case<double>(rung, 512, 64, 800);
  kernel_case<float>(rung, 512, 64, 801);
  kernel_case<double>(rung, 512, 64, 802, /*contiguous=*/true);
  kernel_case<float>(rung, 512, 64, 803, /*contiguous=*/true);
  // An input on which fusing or reordering the k sum changes the bits.
  rounding_trap_case<double>(rung);
  rounding_trap_case<float>(rung);
}

INSTANTIATE_TEST_SUITE_P(
    BackendEquivalence, MicroRung,
    ::testing::Values(
        Rung{"avx512", &tcu::backend_detail::micro_has_avx512,
             &tcu::backend_detail::micro_gemm_avx512<double>,
             &tcu::backend_detail::micro_gemm_avx512<float>},
        Rung{"avx2", &tcu::backend_detail::micro_has_avx2,
             &tcu::backend_detail::micro_gemm_avx2<double>,
             &tcu::backend_detail::micro_gemm_avx2<float>}),
    [](const ::testing::TestParamInfo<Rung>& info) {
      return std::string(info.param.name);
    });

TEST(BackendSelect, MicroSimdNameIsTheWidestRung) {
  const std::string name = tcu::micro_simd_name();
  if (tcu::backend_detail::micro_has_avx512()) {
    EXPECT_EQ(name, "avx512");
  } else if (tcu::backend_detail::micro_has_avx2()) {
    EXPECT_EQ(name, "avx2");
  } else {
    EXPECT_EQ(name, "none");
  }
  EXPECT_EQ(tcu::micro_simd_active(), name != "none");
}

// --------------------------------------------------- pooled bit-identity

TEST(BackendEquivalence, MicroMatchesSimAcrossPoolSizes) {
  const auto a = random_matrix(64, 64, 801);
  const auto b = random_matrix(64, 64, 802);
  Device<double> serial({.m = 64, .latency = 7, .backend = BackendKind::kSim});
  // Untagged serial schedule: the pool's default dealing is untagged too,
  // so every Counters field (residency included) must match bitwise.
  const auto expect = tcu::linalg::matmul_tcu(serial, a.view(), b.view());

  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(
        p, {.m = 64, .latency = 7, .backend = BackendKind::kMicro});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    const auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    EXPECT_EQ(got, expect) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "micro pool p=" + std::to_string(p));
    check.verify();
  }
}

// --------------------------------------------------------------- closure

/// Byte equality: unlike ==, tells +0 from -0 and compares NaN payloads.
bool same_bits(const tcu::graph::AdjMatrix& a,
               const tcu::graph::AdjMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(tcu::graph::Vert)) == 0;
}

TEST(BackendEquivalence, ClosureSameBitsOnEveryBackend) {
  // Closure's kernel D sums 0/1 floats, so every sum is an exact integer
  // and every backend, serial or pooled, must give Figure 5's bits. Each
  // n is off a multiple of s, so the padded path runs, and s = 8 takes the
  // float kernel's one-vector tail. The complete digraph (self-loops
  // included) drives every full kernel D sum to s + 1 before the clamp;
  // the holes graph's sinks and sources leave pivot rows and columns
  // empty, so the boolean kernels skip rows.
  using tcu::graph::AdjMatrix;
  using tcu::graph::Vert;
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{64, 21},
                             {256, 40},
                             {4096, 100}}) {
    const AdjMatrix sparse = tcu::graph::random_digraph(
        n, 4.0 / static_cast<double>(n), 1000 + n);
    const AdjMatrix complete(n, n, 1);
    AdjMatrix holes = tcu::graph::random_digraph(n, 0.3, 1100 + n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i % 3 == 0 || j % 5 == 0) holes(i, j) = 0;
      }
    }
    for (const auto& [name, adj] : {std::pair{"sparse", &sparse},
                                    {"complete", &complete},
                                    {"holes", &holes}}) {
      const std::string at =
          std::string(name) + " n=" + std::to_string(n) +
          " m=" + std::to_string(m);
      AdjMatrix naive = *adj;
      Counters ram;
      tcu::graph::closure_naive(naive.view(), ram);
      ASSERT_TRUE(same_bits(naive, tcu::graph::closure_bfs_oracle(
                                       adj->view())))
          << at;
      Device<Vert> ref({.m = m, .latency = 7, .backend = BackendKind::kSim});
      AdjMatrix want = *adj;
      tcu::graph::closure_tcu(ref, want.view());
      EXPECT_TRUE(same_bits(want, naive)) << at;
      for (const BackendKind kind :
           {BackendKind::kSim, BackendKind::kMicro, BackendKind::kBlas}) {
        if (!tcu::backend_available(kind)) continue;
        const std::string on = at + " " + tcu::backend_kind_name(kind);
        Device<Vert> dev({.m = m, .latency = 7, .backend = kind});
        AdjMatrix serial = *adj;
        tcu::graph::closure_tcu(dev, serial.view());
        EXPECT_TRUE(same_bits(serial, want)) << on;
        expect_counters_equal(dev.counters(), ref.counters(), on);

        DevicePool<Vert> pool(3, {.m = m, .latency = 7, .backend = kind});
        PoolExecutor<Vert> exec(pool);
        AdjMatrix pooled = *adj;
        tcu::graph::closure_tcu(exec, pooled.view());
        EXPECT_TRUE(same_bits(pooled, want)) << on << " p=3";
        expect_counters_equal(pool.aggregate(), ref.counters(), on + " p=3");
      }
    }
  }
}

TEST(BackendEquivalence, ClosureAtBenchmarkShapeMatchesBfs) {
  // perfbench's closure_dag shape: 512 vertices of out-degree 4, s = 64,
  // so every clamp and OR row is whole zmm vectors. closure_naive shares
  // the boolean kernels with closure_tcu, so BFS is the oracle here.
  using tcu::graph::AdjMatrix;
  using tcu::graph::Vert;
  const std::size_t n = 512;
  const AdjMatrix adj = tcu::graph::random_digraph(n, 4.0 / n, 1);
  const AdjMatrix want = tcu::graph::closure_bfs_oracle(adj.view());
  const Device<Vert>::Config config{.m = 4096,
                                    .latency = 256,
                                    .allow_tall = true,
                                    .resident_tiles = 1,
                                    .backend = BackendKind::kMicro};
  Device<Vert> dev(config);
  AdjMatrix serial = adj;
  tcu::graph::closure_tcu(dev, serial.view());
  EXPECT_TRUE(same_bits(serial, want));

  DevicePool<Vert> pool(3, config);
  PoolExecutor<Vert> exec(pool);
  AdjMatrix pooled = adj;
  tcu::graph::closure_tcu(exec, pooled.view());
  EXPECT_TRUE(same_bits(pooled, want));
  expect_counters_equal(pool.aggregate(), dev.counters(), "p=3");
}

// ------------------------------------------------------------------ blas

#ifdef TCU_BLAS
TEST(BackendEquivalence, BlasBoundedUlpWithIdenticalCounters) {
  const auto a = random_matrix(48, 48, 901);
  const auto b = random_matrix(48, 48, 902);
  Device<double> sim({.m = 64, .latency = 5, .backend = BackendKind::kSim});
  Device<double> blas({.m = 64, .latency = 5, .backend = BackendKind::kBlas});
  InlineExecutor<double> on_sim(sim), on_blas(blas);
  const auto c_sim = tcu::linalg::matmul_tcu_pool(on_sim, a.view(), b.view(),
                                                  {.affinity = true});
  const auto c_blas = tcu::linalg::matmul_tcu_pool(
      on_blas, a.view(), b.view(), {.affinity = true});
  ASSERT_EQ(c_sim.rows(), c_blas.rows());
  ASSERT_EQ(c_sim.cols(), c_blas.cols());
  for (std::size_t i = 0; i < c_sim.rows(); ++i) {
    for (std::size_t j = 0; j < c_sim.cols(); ++j) {
      // Reassociated dot products of length 48 over values in [-1, 1]:
      // a few ulps of 48; 1e-12 absolute is orders of magnitude of slack.
      EXPECT_NEAR(c_sim(i, j), c_blas(i, j), 1e-12) << i << "," << j;
    }
  }
  expect_counters_equal(blas.counters(), sim.counters(), "serial blas");
}

TEST(BackendEquivalence, BlasPoolCountersMatchAcrossP) {
  const auto a = random_matrix(64, 64, 903);
  const auto b = random_matrix(64, 64, 904);
  Device<double> serial({.m = 64, .latency = 7, .backend = BackendKind::kSim});
  const auto expect = tcu::linalg::matmul_tcu(serial, a.view(), b.view());
  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(
        p, {.m = 64, .latency = 7, .backend = BackendKind::kBlas});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    const auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    ASSERT_EQ(got.rows(), expect.rows());
    for (std::size_t i = 0; i < got.rows(); ++i) {
      for (std::size_t j = 0; j < got.cols(); ++j) {
        EXPECT_NEAR(got(i, j), expect(i, j), 1e-12);
      }
    }
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "blas pool p=" + std::to_string(p));
    check.verify();
  }
}
#endif  // TCU_BLAS

}  // namespace
