// Multi-tile LRU residency and chain-aware affinity scheduling:
//   * TileCache semantics — LRU eviction order, hit promotion, capacity-1
//     degeneracy to the original single resident slot;
//   * Device accounting — untagged calls invalidate the whole set,
//     evictions are counted only under capacity pressure, weak-model
//     splits share their tile's residency;
//   * PoolExecutor chain dealing — 10-run determinism at p = 1/2/4/8,
//     full-chain residency once capacity covers a lane's working set
//     (each weight tile's load latency paid exactly once per lane),
//     LRU thrash below it, and the split_chains mode that re-parallelizes
//     deep chains at tile granularity with a CPU combine;
//   * a CPU task between two chained tasks leaves the lane's prediction
//     mirror intact, so the second chain's hit is predicted and realized;
//   * evict_all — explicit invalidation on device and executor, and the
//     executor's re-anchoring after a worker exception.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::TaskTicket;
using tcu::TileCache;

/// Integer-valued doubles: every sum/product below is exact in double, so
/// reassociating schedules (split_chains) still compare bit-for-bit.
Matrix<double> random_int_matrix(std::size_t r, std::size_t c,
                                 std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out(i, j) = static_cast<double>(rng.uniform_int(-4, 4));
    }
  }
  return out;
}

TEST(TileCache, LruEvictionOrderAndHitPromotion) {
  TileCache cache(3);
  EXPECT_EQ(cache.capacity(), 3u);
  bool evicted = false;

  EXPECT_FALSE(cache.touch(1, &evicted));
  EXPECT_FALSE(evicted);
  EXPECT_FALSE(cache.touch(2, &evicted));
  EXPECT_FALSE(cache.touch(3, &evicted));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.entries(), (std::vector<std::uint64_t>{1, 2, 3}));

  // A hit promotes to MRU without eviction.
  EXPECT_TRUE(cache.touch(1, &evicted));
  EXPECT_FALSE(evicted);
  EXPECT_EQ(cache.entries(), (std::vector<std::uint64_t>{2, 3, 1}));
  EXPECT_EQ(cache.mru(), 1u);

  // A miss at capacity evicts the LRU entry (2, not the older-inserted 1).
  EXPECT_FALSE(cache.touch(4, &evicted));
  EXPECT_TRUE(evicted);
  EXPECT_EQ(cache.entries(), (std::vector<std::uint64_t>{3, 1, 4}));
  EXPECT_FALSE(cache.contains(2));

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.mru(), 0u);
}

TEST(TileCache, CapacityOneIsTheSingleSlotModel) {
  TileCache cache(1);
  EXPECT_FALSE(cache.touch(7));
  EXPECT_TRUE(cache.touch(7));
  bool evicted = false;
  EXPECT_FALSE(cache.touch(8, &evicted));  // displaces 7
  EXPECT_TRUE(evicted);
  EXPECT_FALSE(cache.contains(7));
  EXPECT_EQ(cache.mru(), 8u);
  EXPECT_THROW(TileCache(0), std::invalid_argument);
}

TEST(Residency, DeviceMembershipHitsAndEvictionCounts) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c(4, 4);

  dev.gemm_resident(1, a.view(), b.view(), c.view());  // load
  dev.gemm_resident(2, a.view(), b.view(), c.view());  // load, set {1, 2}
  EXPECT_EQ(dev.counters().latency_time, 10u);
  EXPECT_EQ(dev.counters().evictions, 0u);

  dev.gemm_resident(1, a.view(), b.view(), c.view());  // membership hit
  EXPECT_EQ(dev.counters().resident_hits, 1u);
  EXPECT_EQ(dev.counters().latency_saved, 5u);
  EXPECT_EQ(dev.counters().latency_time, 10u);
  EXPECT_EQ(dev.resident_key(), 1u);  // MRU after the hit

  dev.gemm_resident(3, a.view(), b.view(), c.view());  // evicts LRU = 2
  EXPECT_EQ(dev.counters().evictions, 1u);
  EXPECT_FALSE(dev.tile_cache().contains(2));
  EXPECT_TRUE(dev.tile_cache().contains(1));

  dev.gemm_resident(2, a.view(), b.view(), c.view());  // miss: evicts 1
  EXPECT_EQ(dev.counters().evictions, 2u);
  EXPECT_EQ(dev.counters().resident_hits, 1u);
}

TEST(Residency, UntaggedGemmInvalidatesTheWholeSet) {
  Device<double> dev({.m = 16, .latency = 3, .resident_tiles = 4});
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c(4, 4);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    dev.gemm_resident(key, a.view(), b.view(), c.view());
  }
  EXPECT_EQ(dev.tile_cache().size(), 3u);

  {
    // This drop is the behavior under test, not a tagging bug.
    tcu::check::AllowUntaggedClobber allow_clobber;
    dev.gemm(a.view(), b.view(), c.view());  // untagged: drops everything
  }
  EXPECT_EQ(dev.tile_cache().size(), 0u);
  EXPECT_EQ(dev.resident_key(), 0u);
  // No eviction counted: invalidation is not capacity pressure.
  EXPECT_EQ(dev.counters().evictions, 0u);

  // Every key must now reload and pay l again.
  const std::uint64_t before = dev.counters().latency_time;
  dev.gemm_resident(2, a.view(), b.view(), c.view());
  EXPECT_EQ(dev.counters().latency_time, before + 3u);
}

TEST(Residency, DeviceEvictAllDropsResidencyWithoutCountingEvictions) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 4});
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c(4, 4);
  dev.gemm_resident(1, a.view(), b.view(), c.view());
  dev.gemm_resident(2, a.view(), b.view(), c.view());
  dev.evict_all();
  EXPECT_EQ(dev.tile_cache().size(), 0u);
  EXPECT_EQ(dev.counters().evictions, 0u);
  dev.gemm_resident(1, a.view(), b.view(), c.view());
  EXPECT_EQ(dev.counters().resident_hits, 0u);  // reload, not a hit
}

// Weak-model splits: the square calls of one tall gemm_resident share the
// tile, so only the first pays l — and with capacity > 1 a revisited tile
// is *all* hits, while the LRU set tracks multi-tile working sets.
TEST(Residency, WeakModelSplitHitAccounting) {
  Device<double> dev({.m = 16,
                      .latency = 7,
                      .allow_tall = false,
                      .resident_tiles = 2});
  const std::size_t s = dev.tile_dim();  // 4
  Matrix<double> a(3 * s, s, 1.0), b(s, s, 2.0), c(3 * s, s);

  dev.gemm_resident(1, a.view(), b.view(), c.view());  // 3 square calls
  EXPECT_EQ(dev.counters().tensor_calls, 3u);
  EXPECT_EQ(dev.counters().latency_time, 7u);   // one load for the split
  EXPECT_EQ(dev.counters().resident_hits, 2u);  // calls 2 and 3 share it
  EXPECT_EQ(dev.counters().latency_saved, 14u);

  dev.gemm_resident(2, a.view(), b.view(), c.view());  // second tile
  EXPECT_EQ(dev.counters().latency_time, 14u);
  EXPECT_EQ(dev.counters().evictions, 0u);  // both fit at c = 2

  dev.gemm_resident(1, a.view(), b.view(), c.view());  // fully resident
  EXPECT_EQ(dev.counters().latency_time, 14u);
  EXPECT_EQ(dev.counters().resident_hits, 2u + 2u + 3u);
  EXPECT_EQ(dev.counters().latency_saved, 7u * 7u);

  dev.gemm_resident(3, a.view(), b.view(), c.view());  // evicts LRU = 2
  EXPECT_EQ(dev.counters().evictions, 1u);
  EXPECT_FALSE(dev.tile_cache().contains(2));
}

/// Shared fixture shapes: B spans k = 4 tiles per strip (deep weights),
/// one strip per lane, repeated rounds through one persistent executor.
struct ChainSetup {
  static constexpr std::size_t kM = 64;        // s = 8
  static constexpr std::uint64_t kEll = 100;
  static constexpr int kRounds = 4;

  std::size_t s = 8;
  std::size_t strips;
  Matrix<double> a, b;

  explicit ChainSetup(std::size_t lanes)
      : strips(lanes),
        a(random_int_matrix(16, 4 * 8, 11)),
        b(random_int_matrix(4 * 8, lanes * 8, 12)) {}
};

// Capacity >= the chain length k: after the first round every strip's
// whole chain is resident on its lane, so each weight tile's load latency
// is paid exactly once per lane; capacities below k thrash (the classic
// LRU sequential-scan pathology) and save nothing — but outputs and
// everything except the latency split stay bit-identical throughout.
TEST(Residency, FullChainResidencyOnceCapacityCoversTheChain) {
  const std::size_t p = 2;
  ChainSetup setup(p);
  const std::size_t k = 4;

  // Serial untagged reference: reloads every tile every round.
  Device<double> single({.m = ChainSetup::kM, .latency = ChainSetup::kEll});
  Matrix<double> expect;
  for (int r = 0; r < ChainSetup::kRounds; ++r) {
    expect = tcu::linalg::matmul_tcu(single, setup.a.view(), setup.b.view());
  }

  for (std::size_t c : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(p, {.m = ChainSetup::kM,
                                .latency = ChainSetup::kEll,
                                .resident_tiles = c});
    PoolExecutor<double> exec(pool);
    Matrix<double> got;
    for (int r = 0; r < ChainSetup::kRounds; ++r) {
      got = tcu::linalg::matmul_tcu_pool(exec, setup.a.view(), setup.b.view(),
                                         {.affinity = true});
    }
    EXPECT_EQ(got, expect) << "c=" << c;

    const Counters agg = pool.aggregate();
    EXPECT_EQ(agg.tensor_macs, single.counters().tensor_macs) << "c=" << c;
    EXPECT_EQ(agg.tensor_calls, single.counters().tensor_calls) << "c=" << c;
    // The latency split is exact: saved + paid = the reload-always total.
    EXPECT_EQ(agg.latency_time + agg.latency_saved,
              single.counters().latency_time)
        << "c=" << c;

    const std::uint64_t tiles = k * setup.strips;
    if (c >= k) {
      // Each tile loaded once ever; all later visits hit.
      EXPECT_EQ(agg.latency_time, tiles * ChainSetup::kEll) << "c=" << c;
      EXPECT_EQ(agg.resident_hits, tiles * (ChainSetup::kRounds - 1))
          << "c=" << c;
      EXPECT_EQ(agg.evictions, 0u) << "c=" << c;
    } else {
      // k > c: the chain cycles through the cache and never hits.
      EXPECT_EQ(agg.resident_hits, 0u) << "c=" << c;
      EXPECT_EQ(agg.latency_time, single.counters().latency_time)
          << "c=" << c;
      EXPECT_GT(agg.evictions, 0u) << "c=" << c;
    }
  }
}

// Chain-aware dealing is decided on the submitting thread against the
// mirrored caches, so per-unit counters and outputs cannot depend on OS
// interleaving: ten fresh runs at every p and c = 4 are identical.
TEST(Residency, ChainAwareDealingDeterministicAcrossRuns) {
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    ChainSetup setup(8);  // 8 strips: divides every lane count
    std::vector<std::vector<std::uint64_t>> unit_times;
    std::vector<std::uint64_t> hit_counts;
    Matrix<double> first;
    for (int run = 0; run < 10; ++run) {
      DevicePool<double> pool(p, {.m = ChainSetup::kM,
                                  .latency = ChainSetup::kEll,
                                  .resident_tiles = 4});
      PoolExecutor<double> exec(pool);
      Matrix<double> got;
      for (int r = 0; r < ChainSetup::kRounds; ++r) {
        got = tcu::linalg::matmul_tcu_pool(exec, setup.a.view(),
                                           setup.b.view(),
                                           {.affinity = true});
      }
      if (run == 0) first = got;
      EXPECT_EQ(got, first) << "p=" << p << " run=" << run;
      std::vector<std::uint64_t> times;
      for (std::size_t u = 0; u < pool.size(); ++u) {
        times.push_back(pool.unit(u).counters().tensor_time);
      }
      unit_times.push_back(std::move(times));
      hit_counts.push_back(pool.aggregate().resident_hits);
    }
    for (int run = 1; run < 10; ++run) {
      EXPECT_EQ(unit_times[run], unit_times[0]) << "p=" << p;
      EXPECT_EQ(hit_counts[run], hit_counts[0]) << "p=" << p;
    }
  }
}

// Capacity 1 must reproduce the single-slot model: single-tile chains
// still hit across rounds (the PR 2 contract), while a k = 4 chain can
// only thrash — its entry tile is never the lane's exit tile.
TEST(Residency, CapacityOneMatchesSingleSlotModel) {
  const std::size_t p = 2;
  const std::uint64_t ell = ChainSetup::kEll;
  const int rounds = ChainSetup::kRounds;

  // Single-tile chains: B is one tile row -> k = 1, the PR 2 shape.
  {
    auto a = random_int_matrix(16, 8, 21);
    auto b = random_int_matrix(8, p * 8, 22);
    DevicePool<double> pool(p, {.m = 64, .latency = ell});  // default c = 1
    PoolExecutor<double> exec(pool);
    for (int r = 0; r < rounds; ++r) {
      (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                         {.affinity = true});
    }
    const Counters agg = pool.aggregate();
    EXPECT_EQ(agg.resident_hits,
              p * static_cast<std::uint64_t>(rounds - 1));
    EXPECT_EQ(agg.latency_time, p * ell);
    EXPECT_EQ(agg.latency_saved, p * (rounds - 1) * ell);
  }

  // k = 4 chains at c = 1: zero hits, exactly the single-slot behavior.
  {
    ChainSetup setup(p);
    DevicePool<double> pool(p, {.m = ChainSetup::kM,
                                .latency = ell,
                                .resident_tiles = 1});
    PoolExecutor<double> exec(pool);
    for (int r = 0; r < rounds; ++r) {
      (void)tcu::linalg::matmul_tcu_pool(exec, setup.a.view(),
                                         setup.b.view(), {.affinity = true});
    }
    EXPECT_EQ(pool.aggregate().resident_hits, 0u);
  }
}

// split_chains re-parallelizes a deep chain at tile granularity: each
// tile task is routed back to the lane holding its tile, so a lane's
// *share* of the chain only has to fit the cache (c >= k / p), not the
// whole chain. The CPU combine keeps outputs p- and run-deterministic —
// and exact here, because the inputs are integer-valued.
TEST(Residency, SplitChainsServeDeepWeightsBelowChainCapacity) {
  const std::size_t p = 2;
  const std::uint64_t ell = ChainSetup::kEll;
  const int rounds = ChainSetup::kRounds;
  const std::size_t k = 4;
  auto a = random_int_matrix(16, k * 8, 31);
  auto b = random_int_matrix(k * 8, 8, 32);  // ONE strip: k-deep chain

  // Reference: untagged serial product (integer inputs -> exact equality
  // even though the split combine reassociates the accumulation).
  Device<double> single({.m = 64, .latency = ell});
  Matrix<double> expect;
  for (int r = 0; r < rounds; ++r) {
    expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  }

  // Whole-chain dealing at c = 2 < k: one lane does everything (a single
  // strip cannot parallelize) and the chain thrashes its cache.
  DevicePool<double> pool_whole(p, {.m = 64,
                                    .latency = ell,
                                    .resident_tiles = 2});
  {
    PoolExecutor<double> exec(pool_whole);
    Matrix<double> got;
    for (int r = 0; r < rounds; ++r) {
      got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                         {.affinity = true});
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(pool_whole.aggregate().resident_hits, 0u);
  }

  // Tile-split dealing at the same c = 2: each lane owns k / p = 2 tiles,
  // which fit, so every round after the first is all hits.
  DevicePool<double> pool_split(p, {.m = 64,
                                    .latency = ell,
                                    .resident_tiles = 2});
  {
    PoolExecutor<double> exec(pool_split);
    Matrix<double> got;
    for (int r = 0; r < rounds; ++r) {
      got = tcu::linalg::matmul_tcu_pool(
          exec, a.view(), b.view(),
          {.affinity = true, .split_chains = true});
    }
    EXPECT_EQ(got, expect);
    const Counters agg = pool_split.aggregate();
    EXPECT_EQ(agg.resident_hits, k * static_cast<std::uint64_t>(rounds - 1));
    EXPECT_EQ(agg.latency_time, k * ell);  // each tile loaded once ever
    EXPECT_EQ(agg.latency_saved, k * (rounds - 1) * ell);
    // Same tensor work as the fused schedule — the split only moves the
    // accumulate into the shared CPU combine.
    EXPECT_EQ(agg.tensor_calls, single.counters().tensor_calls);
    EXPECT_EQ(agg.tensor_macs, single.counters().tensor_macs);
    // And both lanes actually shared the chain.
    EXPECT_GT(pool_split.unit(0).counters().tensor_calls, 0u);
    EXPECT_GT(pool_split.unit(1).counters().tensor_calls, 0u);
  }

  // Split mode on one unit is the determinism baseline: same bits.
  DevicePool<double> pool_one(1, {.m = 64,
                                  .latency = ell,
                                  .resident_tiles = 2});
  {
    PoolExecutor<double> exec(pool_one);
    Matrix<double> got;
    for (int r = 0; r < rounds; ++r) {
      got = tcu::linalg::matmul_tcu_pool(
          exec, a.view(), b.view(),
          {.affinity = true, .split_chains = true});
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(pool_one.aggregate().tensor_macs,
              pool_split.aggregate().tensor_macs);
    EXPECT_EQ(pool_one.aggregate().cpu_ops, pool_split.aggregate().cpu_ops);
  }
}

// Ragged shapes through the split path: padded partials and the CPU
// combine must agree with the untagged serial product exactly (integer
// inputs) for both tall and weak units.
TEST(Residency, SplitChainsHandleRaggedShapes) {
  auto a = random_int_matrix(13, 22, 41);
  auto b = random_int_matrix(22, 9, 42);
  for (bool tall : {true, false}) {
    typename Device<double>::Config cfg{
        .m = 16, .latency = 19, .allow_tall = tall, .resident_tiles = 2};
    Device<double> single(cfg);
    auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());
    DevicePool<double> pool(3, cfg);
    PoolExecutor<double> exec(pool);
    auto got = tcu::linalg::matmul_tcu_pool(
        exec, a.view(), b.view(), {.affinity = true, .split_chains = true});
    EXPECT_EQ(got, expect) << "tall=" << tall;
    EXPECT_EQ(pool.aggregate().tensor_macs, single.counters().tensor_macs)
        << "tall=" << tall;
    EXPECT_EQ(pool.aggregate().tensor_calls, single.counters().tensor_calls)
        << "tall=" << tall;
  }
}

TEST(Residency, ExecutorEvictAllForcesReloads) {
  const std::size_t p = 2;
  ChainSetup setup(p);
  DevicePool<double> pool(p, {.m = ChainSetup::kM,
                              .latency = ChainSetup::kEll,
                              .resident_tiles = 4});
  PoolExecutor<double> exec(pool);
  (void)tcu::linalg::matmul_tcu_pool(exec, setup.a.view(), setup.b.view(),
                                     {.affinity = true});
  (void)tcu::linalg::matmul_tcu_pool(exec, setup.a.view(), setup.b.view(),
                                     {.affinity = true});
  const std::uint64_t hits_before = pool.aggregate().resident_hits;
  EXPECT_GT(hits_before, 0u);

  exec.evict_all();
  for (std::size_t u = 0; u < pool.size(); ++u) {
    EXPECT_EQ(pool.unit(u).tile_cache().size(), 0u) << "unit " << u;
  }
  // The next round reloads everything: no new hits in it...
  (void)tcu::linalg::matmul_tcu_pool(exec, setup.a.view(), setup.b.view(),
                                     {.affinity = true});
  EXPECT_EQ(pool.aggregate().resident_hits, hits_before);
  // ...and the round after that is fully resident again.
  (void)tcu::linalg::matmul_tcu_pool(exec, setup.a.view(), setup.b.view(),
                                     {.affinity = true});
  EXPECT_GT(pool.aggregate().resident_hits, hits_before);
}

// A worker exception abandons its declared chain, so join() re-anchors
// prediction and unit state at the empty set (Device::evict_all) before
// rethrowing — the mirror can never drift from the units.
TEST(Residency, JoinEvictsAllResidencyAfterWorkerException) {
  DevicePool<double> pool(2, {.m = 16, .latency = 5, .resident_tiles = 4});
  PoolExecutor<double> exec(pool);
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c(4, 4);
  exec.submit({.cost = 21, .chain = {77}}, [&](Device<double>& unit) {
    unit.gemm_resident(77, a.view(), b.view(), c.view());
  });
  exec.join();
  EXPECT_TRUE(pool.unit(0).tile_cache().contains(77));

  exec.submit({.cost = 21, .chain = {78}}, [](Device<double>&) {
    throw std::runtime_error("chain abandoned");
  });
  EXPECT_THROW(exec.join(), std::runtime_error);
  for (std::size_t u = 0; u < pool.size(); ++u) {
    EXPECT_EQ(pool.unit(u).tile_cache().size(), 0u) << "unit " << u;
  }
  // The executor still runs and predicts correctly after recovery: the
  // tile reloads (no phantom hit from the pre-exception state).
  exec.submit({.cost = 21, .chain = {77}}, [&](Device<double>& unit) {
    unit.gemm_resident(77, a.view(), b.view(), c.view());
  });
  exec.join();
  EXPECT_EQ(pool.unit(0).counters().resident_hits, 0u);
}

// A CPU task issues no tensor calls, so the dealer must leave its lane's
// prediction mirror alone: the chained task after it still sees its tile
// resident there. The costs make that hit decide the placement — without
// it the third task would go to lane 0 — and the checker holds the task
// to the predicted hit.
TEST(Residency, CpuTaskKeepsTheLaneMirrorForTheNextChain) {
  DevicePool<double> pool(2, {.m = 16, .latency = 5, .resident_tiles = 2});
  tcu::check::ScopedCheck<double> check(pool);
  PoolExecutor<double> exec(pool);
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c1(4, 4), c3(4, 4);
  const std::uint64_t k = 77;
  // Lane 0 takes a 30-op CPU task (tie), so the chained task goes to the
  // idle lane 1: projections 30 / 21 (4 * 4 + l).
  exec.submit({.cost = 30, .cpu = true},
              [](Device<double>& unit) { unit.charge_cpu(30); });
  const TaskTicket first =
      exec.submit({.cost = 21, .chain = {k}}, [&](Device<double>& unit) {
        unit.gemm_resident(k, a.view(), b.view(), c1.view());
      });
  // The CPU task follows onto lane 1 (21 < 30): projections 30 / 33.
  const TaskTicket cpu = exec.submit(
      {.cost = 12, .cpu = true},
      [](Device<double>& unit) { unit.charge_cpu(12); });
  // Lane 1 completes at 33 + 21 - l = 49 with the hit, lane 0 at 51.
  const TaskTicket third =
      exec.submit({.cost = 21, .chain = {k}}, [&](Device<double>& unit) {
        unit.gemm_resident(k, a.view(), b.view(), c3.view());
      });
  EXPECT_EQ(first.unit, 1u);
  EXPECT_EQ(cpu.unit, 1u);
  EXPECT_EQ(third.unit, 1u);
  exec.join();
  EXPECT_EQ(pool.unit(1).counters().resident_hits, 1u);
  EXPECT_EQ(pool.unit(0).counters().tensor_calls, 0u);
  EXPECT_EQ(c3, c1);
  check.verify();
}

// Mlp forwards through one executor: with capacity covering every
// layer's per-lane chain, repeated forwards pay each weight tile's load
// exactly once per lane (the deep-weights serving contract).
TEST(Residency, MlpForwardsKeepLayerChainsResident) {
  const std::size_t p = 2;
  const std::size_t s = 8;
  const std::uint64_t ell = 50;
  const int rounds = 3;
  tcu::util::Xoshiro256 rng(61);

  // Two layers: 4-tile chains (32 -> 16) then p-tile chains (16 -> 16).
  tcu::nn::Mlp mlp;
  {
    auto w1 = random_int_matrix(4 * s, p * s, 62);
    auto w2 = random_int_matrix(p * s, p * s, 63);
    std::vector<double> bias1(p * s), bias2(p * s);
    for (auto& v : bias1) v = static_cast<double>(rng.uniform_int(-2, 2));
    for (auto& v : bias2) v = static_cast<double>(rng.uniform_int(-2, 2));
    mlp.add_layer(tcu::nn::DenseLayer(w1, bias1));
    mlp.add_layer(tcu::nn::DenseLayer(w2, bias2));
  }
  auto batch = random_int_matrix(2 * s, 4 * s, 64);

  Device<double> single({.m = 64, .latency = ell});
  Matrix<double> expect;
  for (int r = 0; r < rounds; ++r) {
    expect = mlp.forward(single, batch.view());
  }

  // Per-lane working set: 4 tiles (layer 1) + p tiles (layer 2).
  const std::size_t c = 4 + p;
  DevicePool<double> pool(p, {.m = 64, .latency = ell, .resident_tiles = c});
  PoolExecutor<double> exec(pool);
  Matrix<double> got;
  for (int r = 0; r < rounds; ++r) {
    got = mlp.forward(exec, batch.view());
  }
  EXPECT_EQ(got, expect);

  const Counters agg = pool.aggregate();
  const std::uint64_t tiles = 4 * p + p * p;  // all weight tiles
  EXPECT_EQ(agg.latency_time, tiles * ell);  // once per lane, ever
  EXPECT_EQ(agg.resident_hits, tiles * (rounds - 1));
  EXPECT_EQ(agg.latency_saved, tiles * (rounds - 1) * ell);
  EXPECT_EQ(agg.tensor_macs, single.counters().tensor_macs);
  EXPECT_EQ(agg.latency_time + agg.latency_saved,
            single.counters().latency_time);
}

}  // namespace
