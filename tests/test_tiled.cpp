// Tile-major storage (TiledMatrix): packer round-trips, contiguity
// guarantees, and the tiled matmul paths' bit-identity against the
// row-major Theorem 2 schedule. The layout exists so dealt A strips,
// resident B tiles, and written C strips reach the device as contiguous
// blocks; these tests pin the invariants the linalg/nn layers rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/batch.hpp"
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

TEST(TiledMatrix, PackUnpackRoundTripsAlignedAndRagged) {
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
    EXPECT_EQ(packed.padded_rows() % s, 0u);
    EXPECT_EQ(packed.padded_cols() % s, 0u);
    EXPECT_GE(packed.padded_rows(), r);
    EXPECT_GE(packed.padded_cols(), c);
    EXPECT_EQ(packed.pack_cost(), static_cast<std::uint64_t>(r) * c);
    EXPECT_EQ(packed.unpack(), src) << r << "x" << c << " s=" << s;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        EXPECT_EQ(packed.at(i, j), src(i, j));
      }
    }
  }
}

TEST(TiledMatrix, PaddingStaysZero) {
  const auto src = random_matrix(5, 6, 200);
  const auto packed = TiledMatrix<double>::pack(src.view(), 4);
  // Whole strips carry the padding: beyond the logical region every
  // element the strip view exposes must be exactly zero, or the tall
  // padded calls would pollute the product.
  for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
    const auto strip = packed.strip_view(tj);
    for (std::size_t i = 0; i < strip.rows; ++i) {
      for (std::size_t j = 0; j < strip.cols; ++j) {
        const std::size_t gi = i, gj = tj * 4 + j;
        if (gi < packed.rows() && gj < packed.cols()) {
          EXPECT_EQ(strip(i, j), src(gi, gj));
        } else {
          EXPECT_EQ(strip(i, j), 0.0) << gi << "," << gj;
        }
      }
    }
  }
}

TEST(TiledMatrix, TilesAndStripsAreContiguous) {
  const auto src = random_matrix(12, 8, 201);
  const auto packed = TiledMatrix<double>::pack(src.view(), 4);
  ASSERT_EQ(packed.tile_rows(), 3u);
  ASSERT_EQ(packed.tile_cols(), 2u);
  for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
    const auto strip = packed.strip_view(tj);
    EXPECT_EQ(strip.stride, packed.tile_dim());  // dense: stride == cols
    EXPECT_EQ(strip.rows, packed.padded_rows());
    for (std::size_t ti = 0; ti < packed.tile_rows(); ++ti) {
      const auto tile = packed.tile_view(ti, tj);
      EXPECT_EQ(tile.stride, packed.tile_dim());
      EXPECT_EQ(tile.data, packed.tile_data(ti, tj));
      // A strip is its tiles back to back: tile (ti, tj) starts exactly
      // s*s elements after tile (ti-1, tj).
      EXPECT_EQ(tile.data, strip.data + ti * 4 * 4);
    }
  }
}

TEST(TiledMatrix, InvalidShapesThrow) {
  EXPECT_THROW(TiledMatrix<double>(4, 4, 0), std::invalid_argument);
  const auto src = random_matrix(8, 8, 202);
  const auto packed = TiledMatrix<double>::pack(src.view(), 4);
  Matrix<double> wrong(7, 8);
  EXPECT_THROW(packed.unpack_into(wrong.view()), std::invalid_argument);
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

TEST(TiledMatmul, FullyTiledMatchesRowMajor) {
  // Aligned: bit-identical product and counters through TiledMatrix on
  // both sides.
  {
    const auto a = random_matrix(16, 16, 302);
    const auto b = random_matrix(16, 16, 303);
    Device<double> row({.m = 16, .latency = 3});
    Device<double> tiled({.m = 16, .latency = 3});
    const auto pa = TiledMatrix<double>::pack(a.view(), 4);
    const auto pb = TiledMatrix<double>::pack(b.view(), 4);
    const auto c_row =
        tcu::linalg::matmul_tcu_resident(row, a.view(), b.view());
    const auto c_tiled = tcu::linalg::matmul_tcu_resident(tiled, pa, pb);
    EXPECT_EQ(c_tiled.unpack(), c_row);
    expect_counters_equal(tiled.counters(), row.counters(),
                          "fully tiled serial");
  }
  // Ragged: the containers' zero padding stands in for the scratch path;
  // values match exactly (padding contributes exact zeros in the same
  // k-sequential order).
  {
    const auto a = random_matrix(10, 6, 304);
    const auto b = random_matrix(6, 7, 305);
    Device<double> dev({.m = 16, .latency = 3});
    Counters ram;
    const auto expect = tcu::linalg::matmul_naive(a.view(), b.view(), ram);
    const auto pa = TiledMatrix<double>::pack(a.view(), 4);
    const auto pb = TiledMatrix<double>::pack(b.view(), 4);
    const auto got = tcu::linalg::matmul_tcu_resident(dev, pa, pb);
    EXPECT_EQ(got.rows(), 10u);
    EXPECT_EQ(got.cols(), 7u);
    const auto unpacked = got.unpack();
    for (std::size_t i = 0; i < 10; ++i) {
      for (std::size_t j = 0; j < 7; ++j) {
        EXPECT_DOUBLE_EQ(unpacked(i, j), expect(i, j)) << i << "," << j;
      }
    }
  }
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
    tcu::linalg::matmul_tcu_pool_into(exec, a.view(), packed, c_pool.view(),
                                      {.affinity = true});
    EXPECT_EQ(c_pool, c_serial) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "B-tiled pool p=" + std::to_string(p),
                          /*compare_evictions=*/false);
    check.verify();
  }
}

TEST(TiledMatmul, PooledFullyTiledMatchesSerialAcrossP) {
  const auto a = random_matrix(30, 11, 308);  // ragged on purpose
  const auto b = random_matrix(11, 9, 309);
  const auto pa = TiledMatrix<double>::pack(a.view(), 4);
  const auto pb = TiledMatrix<double>::pack(b.view(), 4);
  Device<double> serial({.m = 16, .latency = 5});
  const auto c_serial = tcu::linalg::matmul_tcu_resident(serial, pa, pb);
  const auto expect = c_serial.unpack();

  for (const std::size_t p : {1u, 2u, 4u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = 5});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    TiledMatrix<double> c_pool(pa.rows(), pb.cols(), 4);
    tcu::linalg::matmul_tcu_pool_into(exec, pa, pb, c_pool,
                                      {.affinity = true});
    EXPECT_EQ(c_pool.unpack(), expect) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "fully tiled pool p=" + std::to_string(p),
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
  EXPECT_THROW(tcu::linalg::matmul_tcu_pool_into(exec, a.view(), packed,
                                                 c.view()),
               std::invalid_argument);
}

// ------------------------------------------------------------- batched

TEST(TiledMatmul, BatchSharedBMatchesRowMajorOverload) {
  // Aligned batch: identical numeric results to the row-major pooled
  // batch (the relayout only adds its own charged pack/unpack CPU work).
  std::vector<Matrix<double>> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(random_matrix(8, 16, 400 + static_cast<unsigned>(i)));
  }
  const auto b = random_matrix(16, 16, 404);
  const auto packed = TiledMatrix<double>::pack(b.view(), 4);

  DevicePool<double> pool_row(2, {.m = 16, .latency = 5, .resident_tiles = 8});
  DevicePool<double> pool_tile(2,
                               {.m = 16, .latency = 5, .resident_tiles = 8});
  PoolExecutor<double> exec_row(pool_row);
  PoolExecutor<double> exec_tile(pool_tile);
  const auto got_row =
      tcu::linalg::matmul_batch_shared_b(exec_row, batch, b.view());
  const auto got_tile =
      tcu::linalg::matmul_batch_shared_b(exec_tile, batch, packed);
  ASSERT_EQ(got_row.size(), got_tile.size());
  for (std::size_t i = 0; i < got_row.size(); ++i) {
    EXPECT_EQ(got_row[i], got_tile[i]) << "item " << i;
  }
  // The tensor-side counters agree (the tiled path's extra CPU is the
  // charged pack/unpack relayout, by exactly 2 * pack_cost of the
  // stacked operand plus the product copy the row-major path also pays).
  const Counters row = pool_row.aggregate();
  const Counters tile = pool_tile.aggregate();
  EXPECT_EQ(tile.tensor_calls, row.tensor_calls);
  EXPECT_EQ(tile.tensor_macs, row.tensor_macs);
  EXPECT_EQ(tile.tensor_time, row.tensor_time);
  EXPECT_EQ(tile.latency_time, row.latency_time);
  EXPECT_GT(tile.cpu_ops, row.cpu_ops);  // the relayout is charged work

  // Residency persists across rounds on the tiled path too.
  const auto again =
      tcu::linalg::matmul_batch_shared_b(exec_tile, batch, packed);
  ASSERT_EQ(again.size(), got_tile.size());
  EXPECT_GT(pool_tile.aggregate().resident_hits, tile.resident_hits);
}

}  // namespace
