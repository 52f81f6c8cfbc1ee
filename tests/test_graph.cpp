// Tests for the graph algorithms: transitive closure (Figure 7 blocked
// version vs Figure 5 and a BFS oracle, Theorem 5 cost) and Seidel APSD
// (vs BFS distances, Theorem 6 cost, connectivity precondition).

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "core/costs.hpp"
#include "fault/fault.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using tcu::graph::AdjMatrix;
using tcu::graph::apsd_bfs;
using tcu::graph::apsd_seidel;
using tcu::graph::closure_bfs_oracle;
using tcu::graph::closure_naive;
using tcu::graph::closure_tcu;
using tcu::graph::cycle_graph;
using tcu::graph::random_connected_graph;
using tcu::graph::random_digraph;
using tcu::graph::Vert;

// ------------------------------------------------------ transitive closure

class ClosureSweep : public ::testing::TestWithParam<
                         std::tuple<std::size_t, double, std::size_t>> {};

TEST_P(ClosureSweep, BlockedMatchesNaiveAndOracle) {
  const auto [n, p, m] = GetParam();
  auto adj = random_digraph(n, p, 5000 + n + m);
  auto d_naive = adj;
  auto d_tcu = adj;
  Counters ram;
  closure_naive(d_naive.view(), ram);
  Device<Vert> dev({.m = m});
  closure_tcu(dev, d_tcu.view());
  EXPECT_TRUE(d_naive == d_tcu);
  auto oracle = closure_bfs_oracle(adj.view());
  EXPECT_TRUE(d_tcu == oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ClosureSweep,
    ::testing::Combine(::testing::Values<std::size_t>(8, 17, 32, 48),
                       ::testing::Values(0.02, 0.1, 0.4),
                       ::testing::Values<std::size_t>(16, 64)));

TEST(Closure, EmptyGraphStaysEmpty) {
  AdjMatrix adj(12, 12, 0);
  Device<Vert> dev({.m = 16});
  closure_tcu(dev, adj.view());
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) EXPECT_EQ(adj(i, j), 0);
  }
}

TEST(Closure, CompleteDigraphIsFixedPoint) {
  AdjMatrix adj(10, 10, 1);
  for (std::size_t i = 0; i < 10; ++i) adj(i, i) = 0;
  auto d = adj;
  Device<Vert> dev({.m = 16});
  closure_tcu(dev, d.view());
  // Every vertex lies on a 2-cycle, so the closure is all ones.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) EXPECT_EQ(d(i, j), 1);
  }
}

TEST(Closure, DirectedPathClosesToUpperTriangle) {
  const std::size_t n = 9;
  AdjMatrix adj(n, n, 0);
  for (std::size_t i = 0; i + 1 < n; ++i) adj(i, i + 1) = 1;
  Device<Vert> dev({.m = 4});
  closure_tcu(dev, adj.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(adj(i, j), i < j ? 1 : 0) << i << "," << j;
    }
  }
}

TEST(Closure, NonSquareThrows) {
  AdjMatrix bad(4, 5, 0);
  Device<Vert> dev({.m = 16});
  EXPECT_THROW(closure_tcu(dev, bad.view()), std::invalid_argument);
  Counters c;
  EXPECT_THROW(closure_naive(bad.view(), c), std::invalid_argument);
}

TEST(Closure, RejectsNonBooleanEntries) {
  // With a(0,1) = 2, a boolean AND (2 & 1 == 0) would drop the path
  // 0 -> 1 -> 2 that BFS finds; NaN and 0.5 are no edge weights either.
  tcu::DevicePool<Vert> pool(3, {.m = 4});
  tcu::PoolExecutor<Vert> exec(pool);
  Device<Vert> dev({.m = 4});
  for (const Vert bad : {Vert{2}, Vert{0.5},
                         std::numeric_limits<Vert>::quiet_NaN()}) {
    AdjMatrix adj(3, 3, 0);
    adj(0, 1) = bad;
    adj(1, 2) = 1;
    EXPECT_EQ(closure_bfs_oracle(adj.view())(0, 2), 1);
    Counters ram;
    EXPECT_THROW(closure_naive(adj.view(), ram), std::invalid_argument);
    EXPECT_THROW(closure_tcu(dev, adj.view()), std::invalid_argument);
    EXPECT_THROW(closure_tcu(exec, adj.view()), std::invalid_argument);
    EXPECT_EQ(ram.cpu_ops, 0u);
  }
  // At n = 40 a row is two full 16-float vectors and an 8-float tail:
  // bad entries at the start of each full vector, inside the tail and at
  // its end.
  constexpr Vert kInf = std::numeric_limits<Vert>::infinity();
  for (const Vert bad : {Vert{2}, Vert{0.5}, Vert{-1}, kInf, -kInf,
                         std::numeric_limits<Vert>::quiet_NaN()}) {
    for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 0},
                               {7, 16},
                               {20, 33},
                               {39, 39}}) {
      AdjMatrix adj = random_digraph(40, 0.1, 70);
      adj(i, j) = bad;
      Counters ram;
      EXPECT_THROW(closure_naive(adj.view(), ram), std::invalid_argument)
          << bad << " at " << i << "," << j;
      EXPECT_THROW(closure_tcu(dev, adj.view()), std::invalid_argument)
          << bad << " at " << i << "," << j;
      EXPECT_THROW(closure_tcu(exec, adj.view()), std::invalid_argument)
          << bad << " at " << i << "," << j;
      EXPECT_EQ(ram.cpu_ops, 0u);
    }
  }
  EXPECT_EQ(dev.counters().time(), 0u);
  EXPECT_EQ(pool.aggregate().time(), 0u);

  // -0.0 equals 0, so it is accepted and is no edge.
  const AdjMatrix plain = random_digraph(40, 0.1, 71);
  AdjMatrix signed_zeros = plain;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (signed_zeros(i, j) == 0) signed_zeros(i, j) = -Vert{0};
    }
  }
  const AdjMatrix want = closure_bfs_oracle(plain.view());
  AdjMatrix d_naive = signed_zeros, d_dev = signed_zeros,
            d_pool = signed_zeros;
  Counters ram;
  closure_naive(d_naive.view(), ram);
  closure_tcu(dev, d_dev.view());
  closure_tcu(exec, d_pool.view());
  EXPECT_TRUE(d_naive == want);
  EXPECT_TRUE(d_dev == want);
  EXPECT_TRUE(d_pool == want);
}

TEST(Closure, RejectsTileTooWideForExactSums) {
  // s = 2^24: a kernel D sum could reach s + 1, which float rounds.
  AdjMatrix adj(3, 3, 0);
  Device<Vert> dev({.m = std::size_t{1} << 48});
  EXPECT_THROW(closure_tcu(dev, adj.view()), std::invalid_argument);
}

/// Runs closure_tcu on `d` inline on one device, or on a 3-unit pool
/// when `pooled`, and returns the counters it charged.
Counters run_closure(bool pooled, std::size_t m, tcu::MatrixView<Vert> d) {
  if (!pooled) {
    Device<Vert> dev({.m = m});
    closure_tcu(dev, d);
    return dev.counters();
  }
  tcu::DevicePool<Vert> pool(3, {.m = m});
  tcu::PoolExecutor<Vert> exec(pool);
  closure_tcu(exec, d);
  return pool.aggregate();
}

void expect_same_charges(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls);
  EXPECT_EQ(got.tensor_rows, want.tensor_rows);
  EXPECT_EQ(got.tensor_time, want.tensor_time);
  EXPECT_EQ(got.tensor_macs, want.tensor_macs);
  EXPECT_EQ(got.latency_time, want.latency_time);
  EXPECT_EQ(got.cpu_ops, want.cpu_ops);
}

TEST(Closure, StridedViewLeavesItsNeighboursAlone) {
  // A view into a wider matrix (stride > cols), tile-aligned (n = 64) and
  // ragged (n = 50) at s = 16: the closure must not touch the columns
  // beside it, and must give the bits and charges of a contiguous run.
  constexpr Vert kOutside = 7;
  for (const std::size_t n : {64u, 50u}) {
    const AdjMatrix adj = random_digraph(n, 0.05, 80 + n);
    const AdjMatrix want = closure_bfs_oracle(adj.view());
    for (const bool pooled : {false, true}) {
      AdjMatrix contiguous = adj;
      const Counters contiguous_charges =
          run_closure(pooled, 256, contiguous.view());
      ASSERT_TRUE(contiguous == want) << "n=" << n << " pooled=" << pooled;

      AdjMatrix big(n + 5, n + 11, kOutside);
      const auto view = big.subview(2, 3, n, n);
      tcu::copy(adj.view(), view);
      const Counters charges = run_closure(pooled, 256, view);
      expect_same_charges(charges, contiguous_charges);
      for (std::size_t i = 0; i < big.rows(); ++i) {
        for (std::size_t j = 0; j < big.cols(); ++j) {
          const bool inside = i >= 2 && i < n + 2 && j >= 3 && j < n + 3;
          ASSERT_EQ(big(i, j), inside ? want(i - 2, j - 3) : kOutside)
              << "n=" << n << " pooled=" << pooled << " (" << i << "," << j
              << ")";
        }
      }
    }
  }
}

TEST(Closure, RaggedSizeChargesThePaddingCopies) {
  // 100 vertices at s = 16 pad to np = 112: the charges are the padded
  // matrix's closure plus np^2 (copy in) and n^2 (copy out).
  const std::size_t n = 100, np = 112;
  const AdjMatrix adj = random_digraph(n, 0.03, 90);
  AdjMatrix padded(np, np, 0);
  tcu::copy(adj.view(), padded.subview(0, 0, n, n));
  for (const bool pooled : {false, true}) {
    AdjMatrix d = adj;
    const Counters charges = run_closure(pooled, 256, d.view());
    AdjMatrix d_padded = padded;
    Counters want = run_closure(pooled, 256, d_padded.view());
    want.cpu_ops += np * np + n * n;
    expect_same_charges(charges, want);
    EXPECT_TRUE(d == closure_bfs_oracle(adj.view())) << "pooled=" << pooled;
  }
}

TEST(Closure, ThrowingRoundLeavesTheInputRowMajor) {
  // Every unit dies at its first tensor call, so the round throws after
  // pivot 0's CPU kernels ran on the in-place strip-major copy. The
  // caller must get row-major data back: the closure only adds edges, so
  // every entry lies between the input and its closure.
  const std::size_t n = 64;
  const AdjMatrix adj = random_digraph(n, 0.05, 95);
  const AdjMatrix closed = closure_bfs_oracle(adj.view());
  const auto expect_between = [&](const AdjMatrix& d, const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(adj(i, j) <= d(i, j) && d(i, j) <= closed(i, j))
            << what << " (" << i << "," << j << ")";
      }
    }
  };
  tcu::fault::FaultPlan plan(1, {.death_at = {{0, 0}, {1, 0}, {2, 0}}});
  {
    AdjMatrix d = adj;
    Device<Vert> dev({.m = 256});
    dev.set_fault_injector(plan.injector(0));
    EXPECT_THROW(closure_tcu(dev, d.view()), tcu::fault::PermanentUnitFault);
    expect_between(d, "inline");
  }
  {
    AdjMatrix d = adj;
    tcu::DevicePool<Vert> pool(3, {.m = 256});
    tcu::fault::ScopedInjection<Vert> inject(pool, plan);
    tcu::PoolExecutor<Vert> exec(pool);
    EXPECT_THROW(closure_tcu(exec, d.view()), tcu::fault::PermanentUnitFault);
    expect_between(d, "pooled");
  }
}

TEST(Closure, CostTracksTheorem5AcrossSizes) {
  std::vector<double> predicted, measured;
  for (std::size_t n : {32u, 64u, 128u}) {
    auto adj = random_digraph(n, 0.05, 6000 + n);
    Device<Vert> dev({.m = 16, .latency = 10});
    closure_tcu(dev, adj.view());
    predicted.push_back(
        tcu::costs::thm5_closure(static_cast<double>(n), 16.0, 10.0));
    measured.push_back(static_cast<double>(dev.counters().time()));
  }
  EXPECT_LT(tcu::util::ratio_spread(predicted, measured), 3.0);
}

TEST(Closure, TensorTimeBeatsNaiveCpuTime) {
  const std::size_t n = 96;
  auto adj = random_digraph(n, 0.1, 61);
  auto d1 = adj;
  auto d2 = adj;
  Counters ram;
  closure_naive(d1.view(), ram);
  Device<Vert> dev({.m = 256});
  closure_tcu(dev, d2.view());
  EXPECT_LT(dev.counters().time(), ram.time());
}

// ------------------------------------------------------------ Seidel APSD

class ApsdSweep : public ::testing::TestWithParam<
                      std::tuple<std::size_t, double, std::size_t>> {};

TEST_P(ApsdSweep, MatchesBfsDistances) {
  const auto [n, p, m] = GetParam();
  auto adj = random_connected_graph(n, p, 7000 + n + m);
  Counters ram;
  auto expect = apsd_bfs(adj.view(), ram);
  Device<std::int64_t> dev({.m = m});
  auto got = apsd_seidel(dev, adj.view());
  EXPECT_TRUE(got == expect);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ApsdSweep,
    ::testing::Combine(::testing::Values<std::size_t>(5, 16, 33, 64),
                       ::testing::Values(0.05, 0.3),
                       ::testing::Values<std::size_t>(16, 64)));

TEST(Apsd, CycleGraphDistances) {
  const std::size_t n = 24;
  auto adj = cycle_graph(n);
  Device<std::int64_t> dev({.m = 16});
  auto d = apsd_seidel(dev, adj.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t fwd = (j + n - i) % n;
      const auto expect = static_cast<std::int64_t>(std::min(fwd, n - fwd));
      EXPECT_EQ(d(i, j), expect) << i << "," << j;
    }
  }
}

TEST(Apsd, StrassenVariantMatches) {
  auto adj = random_connected_graph(40, 0.15, 71);
  Device<std::int64_t> dev1({.m = 16}), dev2({.m = 16});
  auto d1 = apsd_seidel(dev1, adj.view(), {.use_strassen = false});
  auto d2 = apsd_seidel(dev2, adj.view(), {.use_strassen = true});
  EXPECT_TRUE(d1 == d2);
}

TEST(Apsd, SingleVertexAndEdge) {
  Matrix<std::int64_t> one(1, 1, 0);
  Device<std::int64_t> dev({.m = 16});
  auto d1 = apsd_seidel(dev, one.view());
  EXPECT_EQ(d1(0, 0), 0);

  Matrix<std::int64_t> pair(2, 2, 0);
  pair(0, 1) = pair(1, 0) = 1;
  auto d2 = apsd_seidel(dev, pair.view());
  EXPECT_EQ(d2(0, 1), 1);
  EXPECT_EQ(d2(1, 0), 1);
}

TEST(Apsd, DisconnectedGraphThrows) {
  Matrix<std::int64_t> adj(6, 6, 0);
  adj(0, 1) = adj(1, 0) = 1;  // two components
  adj(3, 4) = adj(4, 3) = 1;
  Device<std::int64_t> dev({.m = 16});
  EXPECT_THROW((void)apsd_seidel(dev, adj.view()), std::invalid_argument);
}

TEST(Apsd, RejectsMalformedAdjacency) {
  Device<std::int64_t> dev({.m = 16});
  Matrix<std::int64_t> selfloop(3, 3, 0);
  selfloop(1, 1) = 1;
  EXPECT_THROW((void)apsd_seidel(dev, selfloop.view()),
               std::invalid_argument);
  Matrix<std::int64_t> asym(3, 3, 0);
  asym(0, 1) = 1;
  EXPECT_THROW((void)apsd_seidel(dev, asym.view()), std::invalid_argument);
  Matrix<std::int64_t> nonbool(3, 3, 0);
  nonbool(0, 1) = nonbool(1, 0) = 2;
  EXPECT_THROW((void)apsd_seidel(dev, nonbool.view()),
               std::invalid_argument);
}

TEST(Apsd, CostTracksTheorem6AcrossSizes) {
  std::vector<double> predicted, measured;
  for (std::size_t n : {32u, 64u, 128u}) {
    auto adj = random_connected_graph(n, 0.1, 7200 + n);
    Device<std::int64_t> dev({.m = 16, .latency = 5});
    (void)apsd_seidel(dev, adj.view());
    predicted.push_back(
        tcu::costs::thm6_apsd(static_cast<double>(n), 16.0, 5.0));
    measured.push_back(static_cast<double>(dev.counters().time()));
  }
  // O-bound check: ratio bounded above; denser graphs converge faster
  // than the worst case so the band is wider than for Theta results.
  EXPECT_LT(tcu::util::ratio_spread(predicted, measured), 8.0);
}

}  // namespace
