// Tile-major storage (TiledMatrix): packing, zero padding, tile and
// strip contiguity, and the Mlp's strip-major layers' bit-identity against
// the row-major Theorem 2 schedule. The layout exists so the resident B
// tiles DenseLayer streams, and the pooled Mlp's strip-major activations,
// reach the device as contiguous blocks; these tests pin the invariants
// the linalg/nn layers rely on, serially and through the pooled Mlp
// forward, up to the benchmark's Mlp shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
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
  // not, t = 1, 2, 8, 16, 29 x 16, whose 464 segments fall into cycles
  // of up to 231 (463 is prime), GE's 1024 x 16 and 20 x 48, a grid
  // wider than it is tall.
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
  shapes.push_back({1024, 16});
  shapes.push_back({20, 48});
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

// ------------------------------------------- the Mlp's strip-major layers

/// An Mlp whose layer l maps widths[l] to widths[l + 1] features.
tcu::nn::Mlp make_mlp(const std::vector<std::size_t>& widths,
                      std::uint64_t seed) {
  tcu::nn::Mlp mlp;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    const auto bias = random_matrix(1, widths[l + 1], seed + 2 * l + 1);
    mlp.add_layer(tcu::nn::DenseLayer(
        random_matrix(widths[l], widths[l + 1], seed + 2 * l),
        std::vector<double>(bias.data(), bias.data() + bias.cols())));
  }
  return mlp;
}

TEST(TiledMlp, StripMajorLayersMatchRowMajorLayersBitwise) {
  // Aligned shapes: the Mlp's strip-major layers (the batch read in
  // place, then strip-major activations) must compute and charge exactly
  // what the row-major DenseLayer forwards do, run one after the other:
  // same tall calls, same keys, same k order, all 11 counter fields.
  constexpr std::size_t kRows = 32;
  const std::vector<std::size_t> widths = {16, 24, 8};
  const auto batch = random_matrix(kRows, widths.front(), 300);
  std::vector<tcu::nn::DenseLayer> layers;
  tcu::nn::Mlp mlp;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    layers.emplace_back(random_matrix(widths[l], widths[l + 1], 301 + l),
                        std::vector<double>(widths[l + 1], 0.25 - 0.5 * l));
    mlp.add_layer(layers.back());
  }
  const Device<double>::Config cfg{.m = 16, .latency = 5,
                                   .resident_tiles = 2};
  Device<double> row(cfg), tiled(cfg);
  Matrix<double> expect = tcu::materialize(batch.view());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    expect = layers[l].forward(row, expect.view(),
                               /*relu=*/l + 1 < layers.size());
  }
  EXPECT_EQ(mlp.forward(tiled, batch.view()), expect);
  EXPECT_EQ(tiled.counters(), row.counters());
}

TEST(TiledMlp, PooledStripMajorLayersMatchSerialAcrossP) {
  // The pooled strip-major forward against the same forward run inline on
  // one device, under the contract checker: same bits, same charges at
  // every p.
  const auto mlp = make_mlp({16, 32, 16}, 306);
  const auto batch = random_matrix(48, 16, 305);
  Device<double> serial({.m = 16, .latency = 5});
  const auto expect = mlp.forward(serial, batch.view());
  for (const std::size_t p : {1u, 2u, 4u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = 5});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    EXPECT_EQ(mlp.forward(exec, batch.view()), expect) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "strip-major pool p=" + std::to_string(p),
                          /*compare_evictions=*/false);
    check.verify();
  }
}

TEST(TiledMlp, StridedBatchMatchesContiguousCopy) {
  // The first layer reads the caller's batch in place, so a batch that is
  // a view into a wider matrix must give the forward of its contiguous
  // copy: the same bits and every counter field, inline and on twin
  // pools at p = 1 and 3. The columns beside the view are never written.
  for (const auto& [rows, widths] :
       {std::pair<std::size_t, std::vector<std::size_t>>{16, {16, 12, 8}},
        {13, {10, 7, 5}}}) {
    const auto mlp = make_mlp(widths, 330 + rows);
    const std::size_t in = widths.front();
    const auto wide = random_matrix(rows, in + 7, 340 + rows);
    const auto view = wide.view().subview(0, 3, rows, in);
    const Matrix<double> copy = tcu::materialize(view);
    const std::string what = "rows=" + std::to_string(rows);
    {
      Device<double> a({.m = 16, .latency = 5, .resident_tiles = 4});
      Device<double> b({.m = 16, .latency = 5, .resident_tiles = 4});
      EXPECT_EQ(mlp.forward(a, view), mlp.forward(b, copy.view())) << what;
      EXPECT_EQ(a.counters(), b.counters()) << what;
    }
    for (const std::size_t p : {1u, 3u}) {
      DevicePool<double> pool_a(p, {.m = 16, .latency = 5,
                                    .resident_tiles = 4});
      DevicePool<double> pool_b(p, {.m = 16, .latency = 5,
                                    .resident_tiles = 4});
      PoolExecutor<double> a(pool_a), b(pool_b);
      for (int call = 0; call < 2; ++call) {
        const std::string tag = what + " p=" + std::to_string(p) +
                                " call=" + std::to_string(call);
        EXPECT_EQ(mlp.forward(a, view), mlp.forward(b, copy.view())) << tag;
        EXPECT_EQ(pool_a.cpu(), pool_b.cpu()) << tag;
        for (std::size_t u = 0; u < p; ++u) {
          EXPECT_EQ(pool_a.unit(u).counters(), pool_b.unit(u).counters())
              << tag << " unit " << u;
        }
      }
    }
    EXPECT_TRUE(wide == random_matrix(rows, in + 7, 340 + rows)) << what;
  }
}

TEST(TiledMlp, RaggedLayersChargeTheirEpilogues) {
  // Ragged shapes keep the row-major path: each layer charges its
  // padding (what the same product charges alone) plus rows x cols of
  // epilogue, twice that with ReLU, on top of one copy of the batch.
  constexpr std::size_t kRows = 13;
  const std::vector<std::size_t> widths = {10, 7, 9, 5};
  const auto mlp = make_mlp(widths, 350);
  const auto batch = random_matrix(kRows, widths.front(), 351);
  std::uint64_t want = kRows * widths.front();
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    Device<double> alone({.m = 16});
    InlineExecutor<double> exec(alone);
    (void)tcu::linalg::matmul_tcu_pool(
        exec, Matrix<double>(kRows, widths[l]).view(),
        Matrix<double>(widths[l], widths[l + 1]).view(), {.affinity = true});
    const bool relu = l + 2 < widths.size();
    want += alone.counters().cpu_ops + kRows * widths[l + 1] * (relu ? 2 : 1);
  }
  Device<double> dev({.m = 16});
  (void)mlp.forward(dev, batch.view());
  EXPECT_EQ(dev.counters().cpu_ops, want);
  DevicePool<double> pool(3, {.m = 16});
  PoolExecutor<double> exec(pool);
  (void)mlp.forward(exec, batch.view());
  EXPECT_EQ(pool.aggregate().cpu_ops, want);
  EXPECT_EQ(pool.cpu().cpu_ops, kRows * widths.front());
}

TEST(TiledMlp, RowMajorEntryPointsRejectMismatchedShapes) {
  // Shape errors surface before anything is submitted.
  DevicePool<double> pool(2, {.m = 16, .latency = 5});
  PoolExecutor<double> exec(pool);
  const auto a = random_matrix(8, 12, 310);
  const auto b = random_matrix(8, 8, 311);
  Matrix<double> c(8, 8);
  EXPECT_THROW(tcu::linalg::matmul_tcu_pool_strips(exec, a.view(), b.view(),
                                                   c.view()),
               std::invalid_argument);
  Matrix<double> c_wide(8, 12);
  EXPECT_THROW(tcu::linalg::matmul_tcu_pool_strips(exec, b.view(), b.view(),
                                                   c_wide.view()),
               std::invalid_argument);
  const tcu::nn::DenseLayer layer(random_matrix(8, 4, 312),
                                  std::vector<double>(4, 0.0));
  Matrix<double> out(8, 4);
  EXPECT_THROW((void)layer.submit_forward(exec, a.view(), out.view(), true, {}),
               std::invalid_argument);
  EXPECT_THROW((void)layer.submit_forward(exec, b.view(), c.view(), true, {}),
               std::invalid_argument);
  exec.join();
  EXPECT_EQ(pool.aggregate(), Counters{});
}

// ------------------------------------------- the benchmark's pooled Mlp

constexpr std::size_t kBenchWidth = 512;

/// mlp_infer's model on the micro backend: 3 layers of 512 x 512,
/// m = 4096 (s = 64), 64 resident tiles per lane, l = 256.
tcu::nn::Mlp benchmark_mlp() {
  tcu::util::Xoshiro256 rng(901);
  tcu::nn::Mlp mlp;
  for (int l = 0; l < 3; ++l) {
    std::vector<double> bias(kBenchWidth);
    for (auto& v : bias) v = rng.uniform(-0.1, 0.1);
    mlp.add_layer(tcu::nn::DenseLayer(
        random_matrix(kBenchWidth, kBenchWidth, 910 + l), std::move(bias)));
  }
  return mlp;
}

const Device<double>::Config kBenchUnit{.m = 4096,
                                        .latency = 256,
                                        .allow_tall = true,
                                        .resident_tiles = 64,
                                        .backend = tcu::BackendKind::kMicro};

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
  // The aligned batch of 512 takes the strip-major activations; the
  // ragged batch of 500 keeps the row-major path. Both must give the bits
  // of the forward run inline on one device and meet perfbench's Mlp
  // counter contract against it.
  const auto mlp = benchmark_mlp();
  for (const std::size_t rows : {512u, 500u}) {
    const auto batch = random_matrix(rows, kBenchWidth, 920 + rows);
    // Capacity 1: the inline forward pays every weight load, the
    // baseline the pool's latency split is conserved against.
    Device<double>::Config serial_unit = kBenchUnit;
    serial_unit.resident_tiles = 1;
    Device<double> serial(serial_unit);
    const auto expect = mlp.forward(serial, batch.view());
    for (const std::size_t p : {1u, 3u}) {
      DevicePool<double> pool(p, kBenchUnit);
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

/// Records the first weight-tile key of every task its unit runs, which
/// names the task's output strip.
class StripRecorder : public tcu::check::UnitObserver {
 public:
  void on_gemm(std::uint64_t, bool, const Counters&,
               const std::vector<std::uint64_t>&) override {}
  void on_task_begin(const std::vector<std::uint64_t>* chain, std::uint64_t,
                     bool, bool) override {
    strips.push_back(chain != nullptr ? chain->front() : 0);
  }
  std::vector<std::uint64_t> strips;
};

/// Field-wise `after - before` of the fields a warm call is held to.
Counters call_delta(const Counters& after, const Counters& before) {
  Counters d;
  d.tensor_calls = after.tensor_calls - before.tensor_calls;
  d.tensor_time = after.tensor_time - before.tensor_time;
  d.resident_hits = after.resident_hits - before.resident_hits;
  d.evictions = after.evictions - before.evictions;
  d.cpu_ops = after.cpu_ops - before.cpu_ops;
  return d;
}

TEST(TiledMlp, WarmBenchmarkCallsRunOneTaskPerStrip) {
  // mlp_infer's pooled calls at p = 3. Every output strip is one task
  // that runs its 8 products and then its own bias/ReLU, and the first
  // layer reads the batch in place, so a warm call charges no shared CPU,
  // hits on every tensor call, evicts nothing, and charges each unit
  // exactly the epilogues of the strips it ran: 512 x 64 per strip, twice
  // that with ReLU. Each unit runs 8 strips of 262,144 tensor time; the
  // busiest also runs 458,752 of epilogues (six ReLU strips and two of
  // the last layer's), so every warm call's makespan is 2,555,904.
  const auto mlp = benchmark_mlp();
  const auto batch = random_matrix(kBenchWidth, kBenchWidth, 1432);
  // The inline forward runs the strips in submit order, 8 per layer:
  // that names each strip's layer, and so its epilogue.
  Device<double> serial(kBenchUnit);
  StripRecorder order;
  serial.set_observer(&order);
  const auto expect = mlp.forward(serial, batch.view());
  serial.set_observer(nullptr);
  ASSERT_EQ(order.strips.size(), 24u);
  std::map<std::uint64_t, std::uint64_t> epilogue;
  for (std::size_t i = 0; i < order.strips.size(); ++i) {
    epilogue[order.strips[i]] = kBenchWidth * 64 * (i < 16 ? 2 : 1);
  }
  ASSERT_EQ(epilogue.size(), 24u);

  DevicePool<double> pool(3, kBenchUnit);
  std::vector<StripRecorder> ran(3);
  for (std::size_t u = 0; u < 3; ++u) pool.unit(u).set_observer(&ran[u]);
  {
    PoolExecutor<double> exec(pool);
    ASSERT_EQ(mlp.forward(exec, batch.view()), expect) << "cold";
    for (int call = 1; call <= 2; ++call) {
      const std::string what = "warm call " + std::to_string(call);
      std::vector<Counters> before;
      for (std::size_t u = 0; u < 3; ++u) {
        before.push_back(pool.unit(u).counters());
        ran[u].strips.clear();
      }
      const std::uint64_t shared = pool.cpu().cpu_ops;
      EXPECT_EQ(mlp.forward(exec, batch.view()), expect) << what;
      EXPECT_EQ(pool.cpu().cpu_ops, shared) << what;
      std::uint64_t makespan = 0;
      for (std::size_t u = 0; u < 3; ++u) {
        const Counters d = call_delta(pool.unit(u).counters(), before[u]);
        EXPECT_EQ(d.resident_hits, d.tensor_calls) << what << " unit " << u;
        EXPECT_EQ(d.evictions, 0u) << what << " unit " << u;
        std::uint64_t epilogues = 0;
        for (const std::uint64_t key : ran[u].strips) {
          ASSERT_EQ(epilogue.count(key), 1u) << what;
          epilogues += epilogue.at(key);
        }
        EXPECT_EQ(d.cpu_ops, epilogues) << what << " unit " << u;
        makespan = std::max(makespan, d.tensor_time + d.cpu_ops);
      }
      EXPECT_EQ(makespan, 2555904u) << what;
    }
  }
  for (std::size_t u = 0; u < 3; ++u) pool.unit(u).set_observer(nullptr);
}

}  // namespace
