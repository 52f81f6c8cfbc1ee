// Tests for the Theorem 7 DFT: agreement with the naive O(n^2) oracle for
// smooth, prime and mixed lengths (exercising the Cooley-Tukey and
// Bluestein paths), inverse round trips, Parseval's identity, batching,
// 2-D transforms, the convolution theorem, the (n + l) log_m n cost, and
// golden counters and output bits for the Device& entry points.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <sstream>

#include "core/costs.hpp"
#include "dft/dft.hpp"
#include "stencil/stencil.hpp"
#include "stencil/stencil1d.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using tcu::dft::Complex;
using tcu::dft::CVec;

CVec random_signal(std::size_t n, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

void expect_close(const CVec& a, const CVec& b, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, tol) << "at " << i;
  }
}

class DftLengthSweep : public ::testing::TestWithParam<
                           std::tuple<std::size_t, std::size_t>> {};

TEST_P(DftLengthSweep, MatchesNaive) {
  const auto [n, m] = GetParam();
  Device<Complex> dev({.m = m});
  auto x = random_signal(n, 4000 + n + m);
  Counters ram;
  auto expect = tcu::dft::dft_naive(x, ram);
  auto got = tcu::dft::dft_tcu(dev, x);
  expect_close(got, expect, 1e-8);
}

TEST_P(DftLengthSweep, InverseRoundTrip) {
  const auto [n, m] = GetParam();
  Device<Complex> dev({.m = m});
  auto x = random_signal(n, 5000 + n + m);
  auto y = tcu::dft::dft_tcu(dev, x);
  auto back = tcu::dft::dft_tcu(dev, y, /*inverse=*/true);
  expect_close(back, x, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, DftLengthSweep,
    ::testing::Combine(
        // Powers of the tile, smooth composites, primes (Bluestein), and
        // sizes with prime factors larger than sqrt(m).
        ::testing::Values<std::size_t>(1, 2, 3, 8, 16, 31, 60, 64, 97, 128,
                                       100, 256, 360),
        ::testing::Values<std::size_t>(4, 16, 64)));

TEST(Dft, ImpulseTransformsToAllOnes) {
  Device<Complex> dev({.m = 16});
  CVec x(32, Complex{});
  x[0] = 1.0;
  auto y = tcu::dft::dft_tcu(dev, x);
  for (const auto& v : y) EXPECT_NEAR(std::abs(v - Complex{1.0, 0.0}), 0, 1e-10);
}

TEST(Dft, LinearityHolds) {
  Device<Complex> dev({.m = 16});
  auto x1 = random_signal(48, 61);
  auto x2 = random_signal(48, 62);
  const Complex alpha{0.7, -0.2};
  CVec mix(48);
  for (std::size_t i = 0; i < 48; ++i) mix[i] = x1[i] + alpha * x2[i];
  auto y1 = tcu::dft::dft_tcu(dev, x1);
  auto y2 = tcu::dft::dft_tcu(dev, x2);
  auto ym = tcu::dft::dft_tcu(dev, mix);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_NEAR(std::abs(ym[i] - (y1[i] + alpha * y2[i])), 0.0, 1e-9);
  }
}

TEST(Dft, ParsevalIdentity) {
  Device<Complex> dev({.m = 64});
  auto x = random_signal(120, 71);
  auto y = tcu::dft::dft_tcu(dev, x);
  double ex = 0, ey = 0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : y) ey += std::norm(v);
  EXPECT_NEAR(ey, ex * 120.0, 1e-6);
}

TEST(Dft, BatchMatchesIndividualTransforms) {
  Device<Complex> dev({.m = 16}), dev_single({.m = 16});
  const std::size_t b = 5, n = 64;
  Matrix<Complex> batch(b, n);
  std::vector<CVec> singles(b);
  for (std::size_t r = 0; r < b; ++r) {
    singles[r] = random_signal(n, 80 + r);
    for (std::size_t j = 0; j < n; ++j) batch(r, j) = singles[r][j];
  }
  tcu::dft::dft_batch_tcu(dev, batch.view());
  for (std::size_t r = 0; r < b; ++r) {
    auto y = tcu::dft::dft_tcu(dev_single, singles[r]);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(std::abs(batch(r, j) - y[j]), 0.0, 1e-9);
    }
  }
}

TEST(Dft, BatchSharesTensorCallsAcrossRows) {
  // The tall-operand trick: a 16-row batch must use the same number of
  // tensor calls as a 1-row transform, not 16x as many.
  const std::size_t n = 256;
  Device<Complex> dev1({.m = 16}), dev16({.m = 16});
  Matrix<Complex> one(1, n), many(16, n);
  for (std::size_t j = 0; j < n; ++j) one(0, j) = Complex{1.0, 0.0};
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t j = 0; j < n; ++j) many(r, j) = Complex{1.0, 0.0};
  }
  tcu::dft::dft_batch_tcu(dev1, one.view());
  tcu::dft::dft_batch_tcu(dev16, many.view());
  EXPECT_EQ(dev1.counters().tensor_calls, dev16.counters().tensor_calls);
}

TEST(Dft, FftRamMatchesNaive) {
  Counters c1, c2;
  auto x = random_signal(128, 91);
  auto expect = tcu::dft::dft_naive(x, c1);
  auto got = tcu::dft::fft_ram(x, c2);
  expect_close(got, expect, 1e-9);
  EXPECT_LT(c2.cpu_ops, c1.cpu_ops);  // n log n beats n^2
}

TEST(Dft, FftRamRejectsNonPowerOfTwo) {
  Counters c;
  EXPECT_THROW((void)tcu::dft::fft_ram(random_signal(12, 1), c),
               std::invalid_argument);
}

TEST(Dft, FftRamInverseRoundTrip) {
  Counters c;
  auto x = random_signal(64, 93);
  auto back = tcu::dft::fft_ram(tcu::dft::fft_ram(x, c), c, true);
  expect_close(back, x, 1e-10);
}

TEST(Dft2, MatchesRowColumnNaive) {
  Device<Complex> dev({.m = 16});
  const std::size_t r = 12, c = 20;
  Matrix<Complex> x(r, c);
  tcu::util::Xoshiro256 rng(101);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      x(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  auto got = tcu::dft::dft2_tcu(dev, x.view());
  // Oracle: naive DFT of rows then columns.
  Counters ctr;
  Matrix<Complex> oracle(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    CVec row(c);
    for (std::size_t j = 0; j < c; ++j) row[j] = x(i, j);
    auto tr = tcu::dft::dft_naive(row, ctr);
    for (std::size_t j = 0; j < c; ++j) oracle(i, j) = tr[j];
  }
  for (std::size_t j = 0; j < c; ++j) {
    CVec col(r);
    for (std::size_t i = 0; i < r; ++i) col[i] = oracle(i, j);
    auto tc2 = tcu::dft::dft_naive(col, ctr);
    for (std::size_t i = 0; i < r; ++i) oracle(i, j) = tc2[i];
  }
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      EXPECT_NEAR(std::abs(got(i, j) - oracle(i, j)), 0.0, 1e-8);
    }
  }
}

TEST(Dft2, InverseRoundTrip) {
  Device<Complex> dev({.m = 16});
  Matrix<Complex> x(9, 15);
  tcu::util::Xoshiro256 rng(111);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      x(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  auto y = tcu::dft::dft2_tcu(dev, x.view());
  auto back = tcu::dft::dft2_tcu(dev, y.view(), /*inverse=*/true);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      EXPECT_NEAR(std::abs(back(i, j) - x(i, j)), 0.0, 1e-8);
    }
  }
}

TEST(Convolution, MatchesDirectCircularConvolution) {
  Device<Complex> dev({.m = 16});
  const std::size_t n = 24;
  auto a = random_signal(n, 121);
  auto b = random_signal(n, 122);
  auto got = tcu::dft::circular_convolve_tcu(dev, a, b);
  for (std::size_t i = 0; i < n; ++i) {
    Complex direct{};
    for (std::size_t j = 0; j < n; ++j) direct += a[j] * b[(i + n - j) % n];
    EXPECT_NEAR(std::abs(got[i] - direct), 0.0, 1e-8);
  }
}

TEST(Convolution, LengthMismatchThrows) {
  Device<Complex> dev({.m = 16});
  EXPECT_THROW((void)tcu::dft::circular_convolve_tcu(
                   dev, random_signal(8, 1), random_signal(9, 2)),
               std::invalid_argument);
}

TEST(Convolution, TwoDimensionalMatchesDirect) {
  Device<Complex> dev({.m = 16});
  const std::size_t n = 8;
  Matrix<Complex> a(n, n), k(n, n);
  tcu::util::Xoshiro256 rng(131);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = {rng.uniform(-1, 1), 0.0};
      k(i, j) = {rng.uniform(-1, 1), 0.0};
    }
  }
  auto got = tcu::dft::circular_convolve2_tcu(dev, a.view(), k.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Complex direct{};
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < n; ++q) {
          direct += k(p, q) * a((i + n - p) % n, (j + n - q) % n);
        }
      }
      EXPECT_NEAR(std::abs(got(i, j) - direct), 0.0, 1e-7);
    }
  }
}

TEST(DftCost, TracksTheorem7AcrossSizes) {
  std::vector<double> predicted, measured;
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    Device<Complex> dev({.m = 256, .latency = 50});
    auto x = random_signal(n, 140 + n);
    (void)tcu::dft::dft_tcu(dev, x);
    predicted.push_back(tcu::costs::thm7_dft(
        static_cast<double>(n), 256.0, 50.0));
    measured.push_back(static_cast<double>(dev.counters().time()));
  }
  EXPECT_LT(tcu::util::ratio_spread(predicted, measured), 3.0);
  auto fit = tcu::util::fit_power_law(predicted, measured);
  EXPECT_NEAR(fit.exponent, 1.0, 0.2);
}

TEST(DftCost, LatencyPaidPerLevelNotPerSubvector) {
  // n = 4096 with m = 256 has 2 levels of 16-point transforms plus a
  // final level: tensor calls should be O(log_m n), not O(n/sqrt(m)).
  Device<Complex> dev({.m = 256, .latency = 1000});
  auto x = random_signal(4096, 151);
  (void)tcu::dft::dft_tcu(dev, x);
  EXPECT_LE(dev.counters().tensor_calls, 4u);
}

TEST(DftCost, TcuBeatsNaiveModelTime) {
  const std::size_t n = 4096;
  Device<Complex> dev({.m = 256});
  Counters ram;
  auto x = random_signal(n, 161);
  (void)tcu::dft::dft_tcu(dev, x);
  (void)tcu::dft::dft_naive(x, ram);
  EXPECT_LT(dev.counters().time(), ram.time());
}

// ------------------------------------------- golden Device& entry points

/// FNV-style hash of the bit patterns of a run's outputs.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double v) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ull;
  }
  void add(Complex v) {
    add(v.real());
    add(v.imag());
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
};

Matrix<Complex> random_batch(std::size_t b, std::size_t len,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<Complex> out(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      out(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  return out;
}

/// `calls` successive in-place batched transforms of one b x len batch.
template <std::size_t b, std::size_t len, bool affinity, int calls = 1>
std::uint64_t batch_run(Device<Complex>& dev) {
  Matrix<Complex> batch = random_batch(b, len, 900 + len);
  for (int i = 0; i < calls; ++i) {
    tcu::dft::dft_batch_tcu(dev, batch.view(), {.affinity = affinity});
  }
  BitHash h;
  h.add(batch);
  return h.h;
}

struct GoldenCase {
  const char* name;
  Device<Complex>::Config cfg;
  std::uint64_t (*run)(Device<Complex>&);
  std::uint64_t hash;
  /// calls, rows, tensor_time, macs, latency, hits, latency_saved,
  /// evictions, tagged_calls, cpu_ops, systolic_cycles.
  std::array<std::uint64_t, 11> counters;
};

std::array<std::uint64_t, 11> fields(const Counters& c) {
  return {c.tensor_calls,  c.tensor_rows,   c.tensor_time,
          c.tensor_macs,   c.latency_time,  c.resident_hits,
          c.latency_saved, c.evictions,     c.tagged_calls,
          c.cpu_ops,       c.systolic_cycles};
}

using Cfg = Device<Complex>::Config;
const Cfg kTall{.m = 16, .latency = 11};
const Cfg kTall4{.m = 16, .latency = 11, .resident_tiles = 4};
const Cfg kWeak{.m = 16, .latency = 11, .allow_tall = false};

// Every charge and output bit of the Device& entry points (m = 16,
// l = 11). A change meant to move them recaptures a row from the
// paste-ready `hash, {fields}` line its failure prints.
const GoldenCase kGolden[] = {
    {"smooth b=3 len=24", kTall, batch_run<3, 24, false>,
     0xf73106cd456aa3b6ull, {3, 78, 345, 1248, 33, 0, 0, 0, 0, 749, 0}},
    {"base case b=5 len=3", kTall, batch_run<5, 3, false>,
     0x7611388979076238ull, {1, 5, 31, 80, 11, 0, 0, 0, 0, 39, 0}},
    {"bluestein b=2 len=13", kTall, batch_run<2, 13, false>,
     0xe91286ceadaeb6e7ull, {9, 160, 739, 2560, 99, 0, 0, 0, 0, 1927, 0}},
    {"weak b=3 len=24", kWeak, batch_run<3, 24, false>,
     0xf73106cd456aa3b6ull, {20, 80, 540, 1280, 220, 0, 0, 0, 0, 749, 0}},
    {"smooth x2", kTall, batch_run<3, 24, false, 2>,
     0x34e5cdb21bdfdddull, {6, 156, 690, 2496, 66, 0, 0, 0, 0, 1498, 0}},
    {"smooth affinity x2 c=4", kTall4, batch_run<3, 24, true, 2>,
     0x34e5cdb21bdfdddull, {6, 156, 657, 2496, 33, 3, 33, 0, 6, 1498, 0}},
    {"bluestein affinity x2", kTall, batch_run<2, 13, true, 2>,
     0x50ef74349d543344ull, {18, 320, 1412, 5120, 132, 6, 66, 11, 18, 3854, 0}},
    {"weak affinity x2 c=4", Cfg{.m = 16, .latency = 11, .allow_tall = false,
                                 .resident_tiles = 4},
     batch_run<3, 24, true, 2>,
     0x34e5cdb21bdfdddull, {40, 160, 673, 2560, 33, 37, 407, 0, 40, 1498, 0}},
    {"idft b=2 len=12 affinity", kTall,
     [](Device<Complex>& dev) {
       Matrix<Complex> batch = random_batch(2, 12, 910);
       tcu::dft::idft_batch_tcu(dev, batch.view(), {.affinity = true});
       BitHash h;
       h.add(batch);
       return h.h;
     },
     0x67cb2d2d59c33fa6ull, {2, 14, 78, 224, 22, 0, 0, 1, 2, 217, 0}},
    {"dft2 5x9", kTall,
     [](Device<Complex>& dev) {
       const Matrix<Complex> x = random_batch(5, 9, 911);
       BitHash h;
       h.add(tcu::dft::dft2_tcu(dev, x.view()));
       return h.h;
     },
     0x70582e8fb919feceull, {8, 182, 816, 2912, 88, 0, 0, 0, 0, 2736, 0}},
    {"circular_convolve len=12", kTall,
     [](Device<Complex>& dev) {
       const CVec a = random_signal(12, 912), b = random_signal(12, 913);
       BitHash h;
       h.add(tcu::dft::circular_convolve_tcu(dev, a, b));
       return h.h;
     },
     0x1109fed8638a8bbeull, {4, 22, 132, 352, 44, 0, 0, 0, 0, 302, 0}},
    {"circular_convolve2 6x8 affinity", kTall4,
     [](Device<Complex>& dev) {
       const Matrix<Complex> a = random_batch(6, 8, 914);
       const Matrix<Complex> k = random_batch(6, 8, 915);
       BitHash h;
       h.add(tcu::dft::circular_convolve2_tcu(dev, a.view(), k.view(),
                                              {.affinity = true}));
       return h.h;
     },
     0xcf15484cccc4084aull, {12, 228, 945, 3648, 33, 9, 99, 0, 12, 2499, 0}},
    {"stencil_tcu 20x17 k=3 x2", kTall,
     [](Device<Complex>& dev) {
       tcu::util::Xoshiro256 rng(916);
       Matrix<double> grid(20, 17);
       for (std::size_t i = 0; i < 20; ++i) {
         for (std::size_t j = 0; j < 17; ++j) grid(i, j) = rng.uniform(0, 1);
       }
       BitHash h;
       for (int call = 0; call < 2; ++call) {
         h.add(tcu::stencil::stencil_tcu(
             dev, grid.view(), tcu::stencil::heat_kernel(0.1, 0.05), 3));
       }
       return h.h;
     },
     0xd1acd4826c30ab89ull,
     {72, 19512, 78598, 312192, 550, 22, 242, 49, 72, 249532, 0}},
    {"stencil1d_tcu n=37 k=4", kTall,
     [](Device<Complex>& dev) {
       tcu::util::Xoshiro256 rng(917);
       std::vector<double> signal(37);
       for (auto& v : signal) v = rng.uniform(0, 1);
       BitHash h;
       h.add(tcu::stencil::stencil1d_tcu(dev, signal, {0.25, 0.5, 0.25}, 4));
       return h.h;
     },
     0x6d8c4bb5d2d7207bull, {14, 192, 878, 3072, 110, 4, 44, 9, 14, 2791, 0}},
};

TEST(DftGolden, DeviceEntryPointsKeepEveryCounterAndBit) {
  for (const GoldenCase& g : kGolden) {
    Device<Complex> dev(g.cfg);
    const std::uint64_t hash = g.run(dev);
    const auto got = fields(dev.counters());
    std::ostringstream line;
    line << std::hex << "0x" << hash << "ull, {" << std::dec;
    for (std::size_t i = 0; i < got.size(); ++i) {
      line << (i ? ", " : "") << got[i];
    }
    line << "}";
    EXPECT_EQ(hash, g.hash) << g.name << ": got " << line.str();
    EXPECT_EQ(got, g.counters) << g.name << ": got " << line.str();
  }
}

}  // namespace
