// Tests for the neural-network layers: dense layers vs hand-computed
// references, MLP composition and a naive-product oracle, conv2d via
// im2col vs the direct sliding window, and the weight-stationary cost
// structure (latency per tile, not per batch item).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pool.hpp"
#include "linalg/batch.hpp"
#include "linalg/dense.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using tcu::nn::conv2d_ram;
using tcu::nn::conv2d_tcu;
using tcu::nn::DenseLayer;
using tcu::nn::Mlp;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

TEST(DenseLayerTest, MatchesHandComputedForward) {
  Matrix<double> w(2, 3);
  w(0, 0) = 1;  w(0, 1) = 2;  w(0, 2) = -1;
  w(1, 0) = 0;  w(1, 1) = 1;  w(1, 2) = 3;
  DenseLayer layer(w, {0.5, -0.5, 0.0});
  Matrix<double> x(1, 2);
  x(0, 0) = 2;
  x(0, 1) = -1;
  Device<double> dev({.m = 16});
  auto y = layer.forward(dev, x.view(), /*relu=*/false);
  // y = [2*1 + (-1)*0 + 0.5, 2*2 + (-1)*1 - 0.5, 2*(-1) + (-1)*3 + 0]
  EXPECT_NEAR(y(0, 0), 2.5, 1e-12);
  EXPECT_NEAR(y(0, 1), 2.5, 1e-12);
  EXPECT_NEAR(y(0, 2), -5.0, 1e-12);
}

TEST(DenseLayerTest, ReluClampsNegatives) {
  Matrix<double> w = Matrix<double>::identity(2);
  DenseLayer layer(w, {0.0, 0.0});
  Matrix<double> x(1, 2);
  x(0, 0) = -3.0;
  x(0, 1) = 4.0;
  Device<double> dev({.m = 16});
  auto y = layer.forward(dev, x.view(), /*relu=*/true);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 4.0);
}

TEST(DenseLayerTest, ValidatesShapes) {
  EXPECT_THROW(DenseLayer(Matrix<double>(2, 3), {1.0}),
               std::invalid_argument);
  DenseLayer layer(Matrix<double>(4, 2), {0.0, 0.0});
  Device<double> dev({.m = 16});
  Matrix<double> bad(1, 3);
  EXPECT_THROW((void)layer.forward(dev, bad.view()), std::invalid_argument);
}

TEST(DenseLayerTest, BatchStreamsThroughResidentWeights) {
  // Doubling the batch must not change the tensor-call count (only rows
  // streamed): the weight tiles stay resident.
  auto w = random_matrix(32, 32, 1);
  DenseLayer layer(w, std::vector<double>(32, 0.0));
  Device<double> dev_small({.m = 256, .latency = 100});
  Device<double> dev_large({.m = 256, .latency = 100});
  (void)layer.forward(dev_small, random_matrix(64, 32, 2).view());
  (void)layer.forward(dev_large, random_matrix(128, 32, 3).view());
  EXPECT_EQ(dev_small.counters().tensor_calls,
            dev_large.counters().tensor_calls);
  EXPECT_EQ(dev_small.counters().latency_time,
            dev_large.counters().latency_time);
}

TEST(MlpTest, ComposesLayersAndValidatesWidths) {
  Mlp mlp;
  mlp.add_layer(DenseLayer(random_matrix(8, 16, 11),
                           std::vector<double>(16, 0.1)));
  mlp.add_layer(DenseLayer(random_matrix(16, 4, 12),
                           std::vector<double>(4, -0.1)));
  EXPECT_EQ(mlp.depth(), 2u);
  EXPECT_THROW(mlp.add_layer(DenseLayer(random_matrix(5, 3, 13),
                                        std::vector<double>(3, 0.0))),
               std::invalid_argument);
  Device<double> dev({.m = 16});
  auto out = mlp.forward(dev, random_matrix(10, 8, 14).view());
  EXPECT_EQ(out.rows(), 10u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(MlpTest, EmptyNetworkThrows) {
  Mlp mlp;
  Device<double> dev({.m = 16});
  Matrix<double> x(1, 4);
  EXPECT_THROW((void)mlp.forward(dev, x.view()), std::invalid_argument);
}

TEST(MlpTest, RejectsABatchOfTheWrongWidth) {
  // A 16 -> 16 -> 16 Mlp at sqrt(m) = 4 given batches narrower and wider
  // than 16, with aligned rows (the path that reads the batch in place)
  // and ragged rows (the path that copies it): every call throws before
  // any work is charged, on a Device and on a pool, and both still run a
  // batch of the right width afterwards.
  Mlp mlp;
  mlp.add_layer(DenseLayer(random_matrix(16, 16, 61),
                           std::vector<double>(16, 0.1)));
  mlp.add_layer(DenseLayer(random_matrix(16, 16, 62),
                           std::vector<double>(16, -0.1)));
  Device<double> dev({.m = 16});
  tcu::DevicePool<double> pool(3, {.m = 16});
  tcu::PoolExecutor<double> exec(pool);
  for (const std::size_t rows : {16u, 13u}) {
    for (const std::size_t cols : {8u, 12u, 20u, 24u}) {
      const auto bad = random_matrix(rows, cols, 63);
      EXPECT_THROW((void)mlp.forward(dev, bad.view()), std::invalid_argument)
          << rows << " x " << cols;
      EXPECT_THROW((void)mlp.forward(exec, bad.view()), std::invalid_argument)
          << rows << " x " << cols;
    }
  }
  EXPECT_EQ(dev.counters(), Counters{});
  EXPECT_EQ(pool.aggregate(), Counters{});
  const auto good = random_matrix(16, 16, 64);
  EXPECT_EQ(mlp.forward(exec, good.view()), mlp.forward(dev, good.view()));
}

TEST(MlpTest, MatchesNaiveOracle) {
  // The forward against an independent reference: matmul_naive plus bias
  // and ReLU (none after the last layer), layer by layer, on an aligned
  // and a ragged shape, inline on one device and on a 3-lane pool.
  const auto check = [](std::size_t rows,
                        const std::vector<std::size_t>& widths) {
    Mlp mlp;
    Matrix<double> expect = random_matrix(rows, widths.front(), 40);
    const Matrix<double> batch = expect;
    Counters naive;
    for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
      const auto w = random_matrix(widths[l], widths[l + 1], 41 + l);
      const auto bias = random_matrix(1, widths[l + 1], 51 + l);
      mlp.add_layer(DenseLayer(
          w, std::vector<double>(bias.data(), bias.data() + bias.cols())));
      expect =
          tcu::linalg::matmul_naive<double>(expect.view(), w.view(), naive);
      for (std::size_t i = 0; i < expect.rows(); ++i) {
        for (std::size_t j = 0; j < expect.cols(); ++j) {
          expect(i, j) += bias(0, j);
          if (l + 2 < widths.size()) {
            expect(i, j) = std::max(expect(i, j), 0.0);
          }
        }
      }
    }
    Device<double> dev({.m = 16});
    tcu::DevicePool<double> pool(3, {.m = 16});
    tcu::PoolExecutor<double> exec(pool);
    for (const auto& got :
         {mlp.forward(dev, batch.view()), mlp.forward(exec, batch.view())}) {
      ASSERT_EQ(got.rows(), expect.rows());
      ASSERT_EQ(got.cols(), expect.cols());
      for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
          ASSERT_NEAR(got(i, j), expect(i, j), 1e-12) << rows;
        }
      }
    }
  };
  check(16, {16, 12, 8, 4});  // every shape a multiple of sqrt(m) = 4
  check(13, {10, 7, 5});      // ragged batch rows and layer widths
}

class ConvSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

TEST_P(ConvSweep, Im2colMatchesDirect) {
  const auto [h, cin, cout, kk] = GetParam();
  const std::size_t w = h + 3;
  auto input = random_matrix(cin * h, w, 100 + h + cin);
  auto filters = random_matrix(cout, cin * kk * kk, 200 + cout + kk);
  Device<double> dev({.m = 64});
  auto got = conv2d_tcu(dev, input.view(), cin, filters.view(), kk, kk);
  Counters ram;
  auto expect = conv2d_ram(input.view(), cin, filters.view(), kk, kk, ram);
  ASSERT_EQ(got.rows(), expect.rows());
  ASSERT_EQ(got.cols(), expect.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_NEAR(got(i, j), expect(i, j), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Combine(::testing::Values<std::size_t>(6, 10, 16),  // h
                       ::testing::Values<std::size_t>(1, 3),       // cin
                       ::testing::Values<std::size_t>(1, 4),       // cout
                       ::testing::Values<std::size_t>(1, 3)));     // k

TEST(Conv, IdentityFilterCopiesChannel) {
  const std::size_t h = 5, w = 5;
  auto input = random_matrix(h, w, 31);
  Matrix<double> filters(1, 9, 0.0);
  filters(0, 4) = 1.0;  // centre tap of a 3x3 kernel
  Device<double> dev({.m = 16});
  auto out = conv2d_tcu(dev, input.view(), 1, filters.view(), 3, 3);
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(out(i, j), input(i + 1, j + 1), 1e-12);
    }
  }
}

TEST(Conv, ValidatesShapes) {
  Device<double> dev({.m = 16});
  auto input = random_matrix(10, 8, 41);
  auto filters = random_matrix(2, 9, 42);
  EXPECT_THROW((void)conv2d_tcu(dev, input.view(), 3, filters.view(), 3, 3),
               std::invalid_argument);  // 10 rows not divisible by 3
  EXPECT_THROW((void)conv2d_tcu(dev, input.view(), 1, filters.view(), 3, 2),
               std::invalid_argument);  // bank width mismatch
  EXPECT_THROW(
      (void)conv2d_tcu(dev, input.view(), 1,
                       random_matrix(2, 121, 43).view(), 11, 11),
      std::invalid_argument);  // kernel larger than input
}

TEST(BatchSharedB, MatchesPerItemProducts) {
  Device<double> dev({.m = 64}), ref({.m = 64});
  auto b = random_matrix(8, 8, 51);
  std::vector<Matrix<double>> batch;
  for (int t = 0; t < 5; ++t) batch.push_back(random_matrix(16, 8, 60 + t));
  auto out = tcu::linalg::matmul_batch_shared_b(dev, batch, b.view());
  ASSERT_EQ(out.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    auto expect = tcu::linalg::matmul_tcu(ref, batch[t].view(), b.view());
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t j = 0; j < 8; ++j) {
        ASSERT_NEAR(out[t](i, j), expect(i, j), 1e-12);
      }
    }
  }
  // One tall call for the whole batch (single weight tile here).
  EXPECT_EQ(dev.counters().tensor_calls, 1u);
}

// The asymmetry property (§3, property 3): growing the batch must not add
// latency charges — l is paid per resident weight tile, never per item.
TEST(BatchSharedB, ChargesLatencyPerWeightTileNotPerItem) {
  const std::uint64_t ell = 1000;
  const std::size_t s = 8;  // m = 64
  auto b = random_matrix(2 * s, 2 * s, 90);  // 2x2 grid of weight tiles
  std::vector<std::uint64_t> latency_seen;
  for (const std::size_t items : {1u, 3u, 9u}) {
    Device<double> dev({.m = s * s, .latency = ell});
    std::vector<Matrix<double>> batch;
    for (std::size_t t = 0; t < items; ++t) {
      batch.push_back(random_matrix(2 * s, 2 * s, 91 + t));
    }
    (void)tcu::linalg::matmul_batch_shared_b(dev, batch, b.view());
    // 4 weight tiles -> 4 tall calls -> exactly 4 * l of latency.
    EXPECT_EQ(dev.counters().tensor_calls, 4u) << items;
    EXPECT_EQ(dev.counters().latency_time, 4u * ell) << items;
    latency_seen.push_back(dev.counters().latency_time);
  }
  EXPECT_EQ(latency_seen[0], latency_seen[1]);
  EXPECT_EQ(latency_seen[1], latency_seen[2]);
}

TEST(BatchSharedB, ValidatesShapes) {
  Device<double> dev({.m = 16});
  auto b = random_matrix(4, 4, 71);
  std::vector<Matrix<double>> mixed{random_matrix(4, 4, 72),
                                    random_matrix(5, 4, 73)};
  EXPECT_THROW(
      (void)tcu::linalg::matmul_batch_shared_b(dev, mixed, b.view()),
      std::invalid_argument);
  EXPECT_TRUE(
      tcu::linalg::matmul_batch_shared_b(dev, {}, b.view()).empty());
}

}  // namespace
