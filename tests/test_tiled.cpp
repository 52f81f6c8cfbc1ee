// Tile-major storage (TiledMatrix): packing, zero padding, tile
// contiguity, and the tiled matmul paths' bit-identity against the
// row-major Theorem 2 schedule. The layout exists so the resident B tiles
// DenseLayer streams reach the device as contiguous blocks; these tests
// pin the invariants the linalg/nn layers rely on, serially and through
// the pooled `matmul_tcu_pool_strips` path the pooled Mlp forward runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::ConstMatrixView;
using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::TiledMatrix;

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
    return reinterpret_cast<std::uintptr_t>(t.tile_view(0, 0).data) % 64 == 0;
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
          EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                        packed.tile_view(ti, tj).data) % 64,
                    0u) << ti << "," << tj;
        }
      }
    }
  }
}

TEST(TiledMatrix, InvalidShapesThrow) {
  EXPECT_THROW(TiledMatrix<double>(4, 4, 0), std::invalid_argument);
}

// ------------------------------------------------------- serial identity

TEST(TiledMatmul, BTiledMatchesRowMajorBitwise) {
  // Aligned shapes: the tile-major B path must charge and compute exactly
  // what the row-major resident path does — same tall calls, same k
  // order, same counters (keys differ: tile addresses vs row-major
  // addresses — identity structure, not values, is what matters).
  const auto a = random_matrix(32, 16, 300);
  const auto b = random_matrix(16, 24, 301);
  Device<double> row({.m = 16, .latency = 5, .resident_tiles = 2});
  Device<double> tiled({.m = 16, .latency = 5, .resident_tiles = 2});
  const auto packed = TiledMatrix<double>::pack(b.view(), 4);

  const auto c_row =
      tcu::linalg::matmul_tcu_resident(row, a.view(), b.view());
  Matrix<double> c_tiled(32, 24, 0.0);
  tcu::linalg::matmul_tcu_resident_into(tiled, a.view(), packed,
                                        c_tiled.view());
  EXPECT_EQ(c_row, c_tiled);
  expect_counters_equal(tiled.counters(), row.counters(), "B-tiled serial");
}

// --------------------------------------------------------- pool identity

TEST(TiledMatmul, PooledBTiledMatchesSerialAcrossP) {
  const auto a = random_matrix(48, 16, 306);
  const auto b = random_matrix(16, 32, 307);
  Device<double> serial({.m = 16, .latency = 5});
  const auto packed = TiledMatrix<double>::pack(b.view(), 4);
  Matrix<double> c_serial(48, 32, 0.0);
  tcu::linalg::matmul_tcu_resident_into(serial, a.view(), packed,
                                        c_serial.view());

  for (const std::size_t p : {1u, 2u, 4u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = 5});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    Matrix<double> c_pool(48, 32, 0.0);
    const auto strips = tcu::linalg::matmul_tcu_pool_strips(
        exec, a.view(), packed, c_pool.view(), /*after=*/{},
        {.affinity = true});
    EXPECT_EQ(strips.size(), packed.tile_cols());
    exec.join();
    EXPECT_EQ(c_pool, c_serial) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "B-tiled pool p=" + std::to_string(p),
                          /*compare_evictions=*/false);
    check.verify();
  }
}

TEST(TiledMatmul, MismatchedTileDimThrows) {
  DevicePool<double> pool(2, {.m = 16, .latency = 5});
  PoolExecutor<double> exec(pool);
  const auto b = random_matrix(16, 16, 310);
  const auto packed = TiledMatrix<double>::pack(b.view(), 8);  // != sqrt(16)
  const auto a = random_matrix(16, 16, 311);
  Matrix<double> c(16, 16, 0.0);
  EXPECT_THROW((void)tcu::linalg::matmul_tcu_pool_strips(
                   exec, a.view(), packed, c.view(), /*after=*/{}),
               std::invalid_argument);
  exec.join();  // nothing was submitted
}

}  // namespace
