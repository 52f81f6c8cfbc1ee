// Tile-major storage (TiledMatrix): packing, zero padding, tile and
// strip contiguity, and the tiled matmul paths' bit-identity against the
// row-major Theorem 2 schedule. The layout exists so the resident B tiles
// DenseLayer streams, and the pooled Mlp's strip-major activations, reach
// the device as contiguous blocks; these tests pin the invariants the
// linalg/nn layers rely on, serially and through the all-tiled pooled
// `matmul_tcu_pool_strips` path the pooled Mlp forward runs, up to the
// benchmark's Mlp shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>
#include <tuple>
#include <utility>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "fault/fault.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using tcu::ConstMatrixView;
using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::InlineExecutor;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::TiledMatrix;

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

void expect_counters_equal(const Counters& got, const Counters& want,
                           const std::string& what,
                           bool compare_evictions = true) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.cpu_ops, want.cpu_ops) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
  EXPECT_EQ(got.latency_saved, want.latency_saved) << what;
  // Evictions depend on lane placement, so pool-vs-serial comparisons
  // exclude them (as every bench match predicate does).
  if (compare_evictions) {
    EXPECT_EQ(got.evictions, want.evictions) << what;
  }
}

// ----------------------------------------------------------------- layout

TEST(TiledMatrix, PackRoundTripsAlignedAndRagged) {
  for (const auto& [r, c, s] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{16, 16, 4},
                                {15, 7, 4},
                                {4, 4, 4},
                                {1, 9, 8}}) {
    const auto src = random_matrix(r, c, 100 + r * 31 + c);
    const auto packed = TiledMatrix<double>::pack(src.view(), s);
    EXPECT_EQ(packed.rows(), r);
    EXPECT_EQ(packed.cols(), c);
    EXPECT_EQ(packed.tile_dim(), s);
    EXPECT_EQ(packed.tile_rows(), (r + s - 1) / s);
    EXPECT_EQ(packed.tile_cols(), (c + s - 1) / s);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        EXPECT_EQ(packed.at(i, j), src(i, j)) << r << "x" << c << " s=" << s;
      }
    }
  }
}

TEST(TiledMatrix, PaddingStaysZero) {
  const auto src = random_matrix(5, 6, 200);
  const auto packed = TiledMatrix<double>::pack(src.view(), 4);
  // Edge tiles carry the padding: beyond the logical region every element
  // a tile view exposes must be exactly zero, or the padded tile calls
  // would pollute the product.
  for (std::size_t ti = 0; ti < packed.tile_rows(); ++ti) {
    for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
      const auto tile = packed.tile_view(ti, tj);
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const std::size_t gi = ti * 4 + i, gj = tj * 4 + j;
          if (gi < packed.rows() && gj < packed.cols()) {
            EXPECT_EQ(tile(i, j), src(gi, gj));
          } else {
            EXPECT_EQ(tile(i, j), 0.0) << gi << "," << gj;
          }
        }
      }
    }
  }
}

/// The packer before it copied row segments: one element at a time.
TiledMatrix<double> pack_elementwise(const Matrix<double>& src,
                                     std::size_t s) {
  TiledMatrix<double> out(src.rows(), src.cols(), s);
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) out.at(i, j) = src(i, j);
  }
  return out;
}

TEST(TiledMatrix, RowSegmentPackMatchesElementwisePack) {
  // Every tile, padding included, must hold the element-wise packer's
  // bits; the padding of the ragged shapes must be exactly zero. A
  // strided source (a subview) checks that the packer honors its stride.
  for (const auto& [r, c, s] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{16, 16, 4},
                                {15, 7, 4},
                                {1, 9, 8},
                                {70, 130, 64},
                                {128, 128, 64}}) {
    const auto big = random_matrix(r + 3, c + 5, 400 + r * 7 + c);
    const auto src = tcu::materialize(big.subview(1, 2, r, c));
    const auto got = TiledMatrix<double>::pack(big.subview(1, 2, r, c), s);
    const auto want = pack_elementwise(src, s);
    for (std::size_t tj = 0; tj < got.tile_cols(); ++tj) {
      for (std::size_t ti = 0; ti < got.tile_rows(); ++ti) {
        const auto g = got.tile_view(ti, tj);
        const auto w = want.tile_view(ti, tj);
        for (std::size_t i = 0; i < s; ++i) {
          for (std::size_t j = 0; j < s; ++j) {
            EXPECT_EQ(g(i, j), w(i, j)) << r << "x" << c << " s=" << s;
            if (ti * s + i >= r || tj * s + j >= c) {
              EXPECT_EQ(g(i, j), 0.0) << r << "x" << c << " s=" << s;
            }
          }
        }
      }
    }
  }
}

TEST(TiledMatrix, StripViewIsTheContiguousTileColumn) {
  // strip_view(tj) is the logical rows of tile column tj as one dense
  // panel: stride s, every row s elements after the previous one, first
  // element on a cache line, padding columns zero.
  for (const auto& [r, c, s] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{16, 16, 4},
                                {15, 7, 4},
                                {512, 512, 64},
                                {500, 130, 64}}) {
    const auto src = random_matrix(r, c, 500 + r + c);
    auto packed = TiledMatrix<double>::pack(src.view(), s);
    for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
      const tcu::MatrixView<double> strip = packed.strip_view(tj);
      const ConstMatrixView<double> cstrip =
          static_cast<const TiledMatrix<double>&>(packed).strip_view(tj);
      EXPECT_EQ(strip.rows, r);
      EXPECT_EQ(strip.cols, s);
      EXPECT_EQ(strip.stride, s);
      EXPECT_EQ(strip.data, packed.tile_data(0, tj));
      EXPECT_EQ(cstrip.data, strip.data);
      if (s * s * sizeof(double) % 64 == 0) {
        EXPECT_TRUE(line_aligned(strip.data)) << r << "x" << c << " " << tj;
      }
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          const std::size_t gj = tj * s + j;
          EXPECT_EQ(strip(i, j), gj < c ? src(i, gj) : 0.0)
              << r << "x" << c << " (" << i << "," << gj << ")";
        }
      }
    }
  }
}

TEST(TiledMatrix, TilesAreContiguousAndStripMajor) {
  const auto src = random_matrix(12, 8, 201);
  const auto packed = TiledMatrix<double>::pack(src.view(), 4);
  ASSERT_EQ(packed.tile_rows(), 3u);
  ASSERT_EQ(packed.tile_cols(), 2u);
  const double* base = packed.tile_data(0, 0);
  for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
    for (std::size_t ti = 0; ti < packed.tile_rows(); ++ti) {
      const auto tile = packed.tile_view(ti, tj);
      EXPECT_EQ(tile.rows, packed.tile_dim());
      EXPECT_EQ(tile.cols, packed.tile_dim());
      EXPECT_EQ(tile.stride, packed.tile_dim());  // dense: stride == cols
      EXPECT_EQ(tile.data, packed.tile_data(ti, tj));
      // Strip-major: tile-column tj's tiles sit back to back, s*s
      // elements apart, after every tile of the columns before it.
      EXPECT_EQ(tile.data, base + (tj * packed.tile_rows() + ti) * 4 * 4);
    }
  }
}

TEST(TiledMatrix, StorageIsCacheLineAligned) {
  const auto aligned = [](const TiledMatrix<double>& t) {
    return line_aligned(t.tile_view(0, 0).data);
  };
  for (const auto& [r, c, s] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{1, 1, 1},
                                {5, 6, 4},
                                {15, 7, 3},
                                {64, 64, 8}}) {
    const TiledMatrix<double> fresh(r, c, s);
    EXPECT_TRUE(aligned(fresh)) << r << "x" << c << " s=" << s;
    const auto packed = TiledMatrix<double>::pack(
        random_matrix(r, c, 300 + r).view(), s);
    EXPECT_TRUE(aligned(packed)) << r << "x" << c << " s=" << s;
    TiledMatrix<double> copy(packed);
    EXPECT_TRUE(aligned(copy)) << r << "x" << c << " s=" << s;
    const TiledMatrix<double> moved(std::move(copy));
    EXPECT_TRUE(aligned(moved)) << r << "x" << c << " s=" << s;
    // A tile of whole lines keeps every tile on a line boundary.
    if (s * s * sizeof(double) % 64 == 0) {
      for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
        for (std::size_t ti = 0; ti < packed.tile_rows(); ++ti) {
          EXPECT_TRUE(line_aligned(packed.tile_view(ti, tj).data))
              << ti << "," << tj;
        }
      }
    }
  }
}

/// Every share of transpose_segments over `data`, each with its own
/// carry: in reverse share order on this thread, or all at once, one
/// thread per share.
template <typename T>
void run_shares(T* data, std::size_t rows, std::size_t cols, std::size_t seg,
                std::size_t shares, bool concurrent) {
  std::vector<T> carry(shares * seg);
  const auto share = [&](std::size_t w) {
    tcu::transpose_segments(data, rows, cols, seg, w, shares,
                            carry.data() + w * seg);
  };
  if (!concurrent) {
    for (std::size_t w = shares; w-- > 0;) share(w);
    return;
  }
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < shares; ++w) threads.emplace_back(share, w);
  for (std::thread& th : threads) th.join();
}

/// transpose_segments on one share over n x (t * s) matrices of distinct
/// values: the forward transpose leaves TiledMatrix::pack's storage, read
/// through tile_view and strip_view, and the transpose with the shape
/// swapped restores the input, also for a row count that is not a
/// multiple of s.
template <typename T>
void check_transpose_segments() {
  for (const std::size_t s : {1u, 4u, 64u}) {
    for (const std::size_t t : {1u, 2u, 8u}) {
      for (const std::size_t n : {s, 3 * s, std::size_t{7}}) {
        const std::string what = "n=" + std::to_string(n) + " t=" +
                                 std::to_string(t) + " s=" + std::to_string(s);
        Matrix<T> src(n, t * s);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < t * s; ++j) {
            src(i, j) = static_cast<T>(i * t * s + j);
          }
        }
        Matrix<T> work = src;
        run_shares(work.data(), n, t, s, 1, false);
        if (n % s == 0) {
          const auto packed = TiledMatrix<T>::pack(src.view(), s);
          for (std::size_t tj = 0; tj < t; ++tj) {
            const ConstMatrixView<T> want = packed.strip_view(tj);
            const ConstMatrixView<T> got(work.data() + tj * n * s, n, s, s);
            for (std::size_t i = 0; i < n; ++i) {
              for (std::size_t j = 0; j < s; ++j) {
                ASSERT_EQ(got(i, j), want(i, j)) << what;
              }
            }
            for (std::size_t ti = 0; ti < n / s; ++ti) {
              const ConstMatrixView<T> tile = packed.tile_view(ti, tj);
              ASSERT_EQ(work.data() + (tile.data - packed.tile_data(0, 0)),
                        &got(ti * s, 0))
                  << what;
              for (std::size_t i = 0; i < s; ++i) {
                for (std::size_t j = 0; j < s; ++j) {
                  ASSERT_EQ(got(ti * s + i, j), tile(i, j)) << what;
                }
              }
            }
          }
        }
        run_shares(work.data(), t, n, s, 1, false);
        EXPECT_TRUE(work == src) << what;
      }
    }
  }
}

TEST(TiledMatrix, TransposeSegmentsIsThePackInPlace) {
  check_transpose_segments<float>();
  check_transpose_segments<double>();
}

/// Longest cycle of transpose_segments' permutation of a rows x cols
/// grid of segments.
std::size_t longest_cycle(std::size_t rows, std::size_t cols) {
  const std::size_t count = rows * cols;
  std::vector<char> seen(count, 0);
  std::size_t longest = 0;
  for (std::size_t start = 0; start < count; ++start) {
    std::size_t length = 0;
    for (std::size_t q = start; !seen[q]; q = (q % rows) * cols + q / rows) {
      seen[q] = 1;
      ++length;
    }
    longest = std::max(longest, length);
  }
  return longest;
}

TEST(TiledMatrix, TransposeSegmentSharesMoveEveryCycleOnce) {
  // For 1-5 shares, run in reverse order or concurrently, the shares
  // together give shares = 1's transpose and `pack`'s storage, and the
  // shares of the swapped shape restore the input: n a multiple of s and
  // not, t = 1, 2, 8, 16, and 29 x 16, whose 464 segments fall into
  // cycles of up to 231 (463 is prime).
  constexpr std::size_t s = 4;
  struct Shape {
    std::size_t n, t;
  };
  std::vector<Shape> shapes;
  for (const std::size_t t : {1u, 2u, 8u, 16u}) {
    shapes.push_back({3 * s, t});
    shapes.push_back({2 * s + 3, t});
  }
  shapes.push_back({29, 16});
  ASSERT_EQ(longest_cycle(29, 16), 231u);
  for (const Shape sh : shapes) {
    Matrix<float> src(sh.n, sh.t * s);
    for (std::size_t q = 0; q < src.size(); ++q) {
      src.data()[q] = static_cast<float>(q);
    }
    Matrix<float> want = src;
    run_shares(want.data(), sh.n, sh.t, s, 1, false);
    if (sh.n % s == 0) {
      const auto packed = TiledMatrix<float>::pack(src.view(), s);
      ASSERT_TRUE(std::equal(want.data(), want.data() + want.size(),
                             packed.strip_view(0).data));
    }
    for (std::size_t shares = 1; shares <= 5; ++shares) {
      for (const bool concurrent : {false, true}) {
        const std::string what =
            "n=" + std::to_string(sh.n) + " t=" + std::to_string(sh.t) +
            " shares=" + std::to_string(shares) +
            (concurrent ? " threads" : " reversed");
        Matrix<float> work = src;
        run_shares(work.data(), sh.n, sh.t, s, shares, concurrent);
        EXPECT_TRUE(work == want) << what;
        run_shares(work.data(), sh.t, sh.n, s, shares, concurrent);
        EXPECT_TRUE(work == src) << what;
      }
    }
  }
}

/// Run `body` through `with_strip_major` on `exec` for a contiguous
/// aligned matrix (permuted in place), a ragged one and an aligned view
/// into a wider matrix (both packed). The body must see `pack`'s storage;
/// what it writes must reach the caller row-major, and when it throws the
/// caller must get row-major data back: its writes permuted back in
/// place, the untouched input when packed. Columns beside a view are
/// never touched.
template <typename Exec>
void check_with_strip_major(Exec& exec, const std::string& where) {
  constexpr std::size_t s = 4;
  constexpr double kOutside = -7.0;
  struct Case {
    std::size_t n, rows, cols, r0, c0;
  };
  for (const Case c : {Case{12, 12, 12, 0, 0}, Case{10, 10, 10, 0, 0},
                       Case{8, 11, 13, 2, 3}, Case{116, 116, 116, 0, 0}}) {
    const auto input = random_matrix(c.n, c.n, 320 + c.n);
    const std::size_t np = (c.n + s - 1) / s * s;
    const bool in_place = c.cols == c.n && c.n % s == 0;
    for (const bool throws : {false, true}) {
      const std::string what = where + " n=" + std::to_string(c.n) +
                               " throws=" + std::to_string(throws);
      Matrix<double> big(c.rows, c.cols, kOutside);
      const auto d = big.subview(c.r0, c.c0, c.n, c.n);
      tcu::copy(input.view(), d);
      const auto body = [&](double* strips, std::size_t side) {
        ASSERT_EQ(side, np);
        const auto want = TiledMatrix<double>::pack(input.view(), s);
        const double* packed = want.strip_view(0).data;
        for (std::size_t q = 0; q < np * np; ++q) {
          ASSERT_EQ(strips[q], packed[q]) << what << " q=" << q;
          strips[q] += 1000.0;
        }
        if (throws) throw std::runtime_error("body");
      };
      if (throws) {
        EXPECT_THROW(tcu::with_strip_major(exec, d, s, body),
                     std::runtime_error);
      } else {
        tcu::with_strip_major(exec, d, s, body);
      }
      const bool written = !throws || in_place;
      for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t j = 0; j < c.cols; ++j) {
          const bool inside = i >= c.r0 && i < c.r0 + c.n && j >= c.c0 &&
                              j < c.c0 + c.n;
          const double want =
              !inside ? kOutside
                      : input(i - c.r0, j - c.c0) + (written ? 1000.0 : 0.0);
          ASSERT_EQ(big(i, j), want) << what << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

/// One round of chained tensor tasks, each writing its own output;
/// returns the lane the dealer gave each task.
std::vector<std::size_t> deal_round(PoolExecutor<double>& exec,
                                    std::uint64_t seed) {
  const std::size_t s = exec.unit0().tile_dim();
  const auto a = random_matrix(3 * s, s, seed);
  const auto b = random_matrix(s, s, seed + 1);
  std::vector<Matrix<double>> out(9, Matrix<double>(3 * s, s));
  const std::uint64_t cost =
      tcu::linalg::detail::strip_tile_cost(exec.unit0(), 3 * s, true);
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t key = tcu::make_tile_key(0x7e57, i % 3);
    lanes.push_back(exec.submit({.cost = cost, .chain = {key}},
                                [&, key, i](Device<double>& unit) {
                                  unit.gemm_resident(key, a.view(), b.view(),
                                                     out[i].view(), false);
                                })
                        .unit);
  }
  exec.join();
  return lanes;
}

TEST(TiledMatrix, WithStripMajorRunsOnThePackAndRestoresRowMajor) {
  {
    Device<double> dev({.m = 16});
    InlineExecutor<double> exec(dev);
    check_with_strip_major(exec, "inline");
    EXPECT_EQ(dev.counters(), Counters{});
  }
  for (const std::size_t p : {1u, 3u}) {
    DevicePool<double> pool(p, {.m = 16});
    PoolExecutor<double> exec(pool);
    check_with_strip_major(exec, "p=" + std::to_string(p));
    EXPECT_EQ(pool.aggregate(), Counters{});
  }
  // Unit 1 dies on its first call and is quarantined: the permutation
  // runs on the caller and the two healthy lanes.
  DevicePool<double> pool(3, {.m = 16});
  tcu::fault::FaultPlan plan(7, {.death_at = {{1, 0}}});
  tcu::fault::ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);
  deal_round(exec, 900);
  ASSERT_TRUE(exec.quarantined(1));
  std::vector<int> ran(3, 0);
  exec.for_each_lane([&ran](std::size_t share, std::size_t shares) {
    ASSERT_EQ(shares, 3u);
    ++ran[share];
  });
  EXPECT_EQ(ran, std::vector<int>({1, 1, 1}));
  check_with_strip_major(exec, "quarantined");
}

TEST(TiledMatrix, ForEachLaneLeavesCountersAndDealingAlone) {
  // Twin executors run the same two rounds; one runs `for_each_lane`
  // between them. Every unit's counters match after each round, and the
  // second round is dealt to the same lanes.
  DevicePool<double> pool_a(3, {.m = 16, .latency = 5});
  DevicePool<double> pool_b(3, {.m = 16, .latency = 5});
  PoolExecutor<double> a(pool_a), b(pool_b);
  EXPECT_EQ(deal_round(a, 910), deal_round(b, 910));
  std::vector<int> ran(4, 0);
  a.for_each_lane([&ran](std::size_t share, std::size_t shares) {
    ASSERT_EQ(shares, 4u);
    ++ran[share];
  });
  EXPECT_EQ(ran, std::vector<int>({1, 1, 1, 1}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pool_a.unit(i).counters(), pool_b.unit(i).counters()) << i;
  }
  EXPECT_EQ(deal_round(a, 920), deal_round(b, 920));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pool_a.unit(i).counters(), pool_b.unit(i).counters()) << i;
  }
}

TEST(TiledMatrix, InvalidShapesThrow) {
  EXPECT_THROW(TiledMatrix<double>(4, 4, 0), std::invalid_argument);
}

// ------------------------------------------------------- serial identity

TEST(TiledMatmul, BTiledMatchesRowMajorBitwise) {
  // Aligned shapes: the all-tiled product must charge and compute exactly
  // what the row-major resident product does — same tall calls, same k
  // order, same counters (keys differ: tile addresses vs row-major
  // addresses — identity structure, not values, is what matters). Both
  // run inline on one device.
  const auto a = random_matrix(32, 16, 300);
  const auto b = random_matrix(16, 24, 301);
  Device<double> row({.m = 16, .latency = 5, .resident_tiles = 2});
  Device<double> tiled({.m = 16, .latency = 5, .resident_tiles = 2});
  const auto packed = TiledMatrix<double>::pack(b.view(), 4);

  InlineExecutor<double> on_row(row), on_tiled(tiled);
  const auto c_row = tcu::linalg::matmul_tcu_pool(on_row, a.view(), b.view(),
                                                  {.affinity = true});
  TiledMatrix<double> c_tiled(32, 24, 4);
  tcu::linalg::matmul_tcu_pool_strips(
      on_tiled, TiledMatrix<double>::pack(a.view(), 4), packed, c_tiled,
      /*after=*/{}, {.affinity = true});
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      EXPECT_EQ(c_tiled.at(i, j), c_row(i, j));
    }
  }
  expect_counters_equal(tiled.counters(), row.counters(), "B-tiled serial");
}

// --------------------------------------------------------- pool identity

TEST(TiledMatmul, PooledBTiledMatchesSerialAcrossP) {
  // The all-tiled pooled product (tile-major A, B and C) against the
  // row-major resident product run inline on one device: same bits, same
  // charges at every p.
  const auto a = random_matrix(48, 16, 306);
  const auto b = random_matrix(16, 32, 307);
  Device<double> serial({.m = 16, .latency = 5});
  const auto packed = TiledMatrix<double>::pack(b.view(), 4);
  Matrix<double> c_serial(48, 32, 0.0);
  InlineExecutor<double> inline_exec(serial);
  tcu::linalg::matmul_tcu_pool_into(inline_exec, a.view(), b.view(),
                                    c_serial.view(), {.affinity = true});
  const auto a_tiled = TiledMatrix<double>::pack(a.view(), 4);

  for (const std::size_t p : {1u, 2u, 4u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = 5});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    TiledMatrix<double> c_pool(48, 32, 4);
    const auto strips = tcu::linalg::matmul_tcu_pool_strips(
        exec, a_tiled, packed, c_pool, /*after=*/{}, {.affinity = true});
    EXPECT_EQ(strips.size(), packed.tile_cols());
    exec.join();
    for (std::size_t i = 0; i < 48; ++i) {
      for (std::size_t j = 0; j < 32; ++j) {
        EXPECT_EQ(c_pool.at(i, j), c_serial(i, j)) << "p=" << p;
      }
    }
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "all-tiled pool p=" + std::to_string(p),
                          /*compare_evictions=*/false);
    check.verify();
  }
}

TEST(TiledMatmul, MismatchedTileDimThrows) {
  DevicePool<double> pool(2, {.m = 16, .latency = 5});
  PoolExecutor<double> exec(pool);
  const auto a = TiledMatrix<double>::pack(random_matrix(16, 16, 311).view(), 8);
  const auto b = TiledMatrix<double>::pack(random_matrix(16, 16, 310).view(), 8);
  TiledMatrix<double> c(16, 16, 8);
  // Tile dims agree with each other but not with the units' sqrt(16).
  EXPECT_THROW((void)tcu::linalg::matmul_tcu_pool_strips(
                   exec, a, b, c, /*after=*/{}),
               std::invalid_argument);
  // Operands whose tile dims disagree, or whose shapes are ragged.
  const auto a4 = TiledMatrix<double>::pack(random_matrix(16, 16, 312).view(), 4);
  TiledMatrix<double> c4(16, 16, 4);
  EXPECT_THROW((void)tcu::linalg::matmul_tcu_pool_strips(
                   exec, a4, b, c4, /*after=*/{}),
               std::invalid_argument);
  const auto b4 = TiledMatrix<double>::pack(random_matrix(16, 16, 313).view(), 4);
  const auto ragged = TiledMatrix<double>::pack(random_matrix(14, 16, 314).view(), 4);
  TiledMatrix<double> c_ragged(14, 16, 4);
  EXPECT_THROW((void)tcu::linalg::matmul_tcu_pool_strips(
                   exec, ragged, b4, c_ragged, /*after=*/{}),
               std::invalid_argument);
  exec.join();  // nothing was submitted
}

// ------------------------------------------- the benchmark's pooled Mlp

/// perfbench's Mlp contract (perfbench/workloads.hpp): identical work,
/// and every load the serial call paid is paid or saved on the pool.
void expect_mlp_contract(const Counters& got, const Counters& ref,
                         const std::string& what) {
  EXPECT_EQ(got.tensor_calls, ref.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, ref.tensor_rows) << what;
  EXPECT_EQ(got.tensor_macs, ref.tensor_macs) << what;
  EXPECT_EQ(got.cpu_ops, ref.cpu_ops) << what;
  EXPECT_EQ(got.tensor_time - got.latency_time,
            ref.tensor_time - ref.latency_time) << what;
  EXPECT_EQ(got.latency_time + got.latency_saved,
            ref.latency_time + ref.latency_saved) << what;
}

TEST(TiledMlp, PooledForwardAtTheBenchmarkShapeMatchesSerial) {
  // mlp_infer's model on the micro backend: 3 layers of 512 x 512,
  // m = 4096 (s = 64), 64 resident tiles per lane, l = 256. The aligned
  // batch of 512 takes the strip-major activations; the ragged batch of
  // 500 keeps the row-major path. Both must give the bits of the forward
  // run inline on one device and meet perfbench's Mlp counter contract
  // against it.
  constexpr std::size_t kWidth = 512;
  tcu::util::Xoshiro256 rng(901);
  tcu::nn::Mlp mlp;
  for (int l = 0; l < 3; ++l) {
    std::vector<double> bias(kWidth);
    for (auto& v : bias) v = rng.uniform(-0.1, 0.1);
    mlp.add_layer(tcu::nn::DenseLayer(random_matrix(kWidth, kWidth, 910 + l),
                                      std::move(bias)));
  }
  const Device<double>::Config unit{.m = 4096,
                                    .latency = 256,
                                    .allow_tall = true,
                                    .resident_tiles = 64,
                                    .backend = tcu::BackendKind::kMicro};
  for (const std::size_t rows : {512u, 500u}) {
    const auto batch = random_matrix(rows, kWidth, 920 + rows);
    // Capacity 1: the inline forward pays every weight load, the
    // baseline the pool's latency split is conserved against.
    Device<double>::Config serial_unit = unit;
    serial_unit.resident_tiles = 1;
    Device<double> serial(serial_unit);
    const auto expect = mlp.forward(serial, batch.view());
    for (const std::size_t p : {1u, 3u}) {
      DevicePool<double> pool(p, unit);
      PoolExecutor<double> exec(pool);
      const std::string what =
          "rows=" + std::to_string(rows) + " p=" + std::to_string(p);
      EXPECT_EQ(mlp.forward(exec, batch.view()), expect) << what;
      expect_mlp_contract(pool.aggregate(), serial.counters(), what);
      if (rows % 64 == 0 && p > 1) {
        // Warm calls: resident weight tiles hit, and the strip-major
        // activation buffers of the previous call are gone.
        for (int call = 1; call < 3; ++call) {
          EXPECT_EQ(mlp.forward(exec, batch.view()), expect)
              << what << " call " << call;
        }
      }
    }
  }
}

}  // namespace
