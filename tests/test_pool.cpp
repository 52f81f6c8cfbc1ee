// Tests for the worker-thread pool runtime (PoolExecutor): deterministic
// counters under real thread interleaving, exception propagation out of
// worker threads, bit-exact agreement with the single-device blocked
// matmul, and the pool paths through the batch and nn layers.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "check/contract.hpp"
#include "core/pool.hpp"
#include "linalg/batch.hpp"
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

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

// The schedule is decided on the submitting thread against projected
// costs, so per-unit counters must not depend on how the OS interleaves
// the workers: ten fresh runs produce identical per-unit totals.
TEST(PoolRuntime, CountersDeterministicAcrossRuns) {
  const std::size_t d = 96;
  auto a = random_matrix(d, d, 1);
  auto b = random_matrix(d, d, 2);

  std::vector<std::vector<std::uint64_t>> unit_times;
  std::vector<std::uint64_t> aggregates;
  Matrix<double> first;
  for (int run = 0; run < 10; ++run) {
    DevicePool<double> pool(3, {.m = 256, .latency = 7});
    PoolExecutor<double> exec(pool);
    auto c = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    if (run == 0) first = c;
    std::vector<std::uint64_t> times;
    for (std::size_t u = 0; u < pool.size(); ++u) {
      times.push_back(pool.unit(u).counters().tensor_time);
    }
    unit_times.push_back(std::move(times));
    aggregates.push_back(pool.aggregate().tensor_time);
    EXPECT_EQ(c, first);  // numerics independent of interleaving too
  }
  for (int run = 1; run < 10; ++run) {
    EXPECT_EQ(unit_times[run], unit_times[0]) << "run " << run;
    EXPECT_EQ(aggregates[run], aggregates[0]) << "run " << run;
  }
}

// A 1-unit pool must execute the exact same call sequence as the serial
// blocked algorithm: identical output bits and identical counters.
TEST(PoolRuntime, OneUnitPoolMatchesSerialBitExactly) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 3);
  auto b = random_matrix(d, d, 4);

  Device<double> single({.m = 64, .latency = 11});
  Matrix<double> c_single(d, d, 0.0);
  tcu::linalg::matmul_tcu_into(single, a.view(), b.view(), c_single.view());

  DevicePool<double> pool(1, {.m = 64, .latency = 11});
  PoolExecutor<double> exec(pool);
  auto c_pool = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());

  EXPECT_EQ(c_pool, c_single);  // exact ==, not near: same FP op order
  const Counters& su = single.counters();
  const Counters& pu = pool.unit(0).counters();
  EXPECT_EQ(pu.tensor_calls, su.tensor_calls);
  EXPECT_EQ(pu.tensor_rows, su.tensor_rows);
  EXPECT_EQ(pu.tensor_time, su.tensor_time);
  EXPECT_EQ(pu.tensor_macs, su.tensor_macs);
  EXPECT_EQ(pu.latency_time, su.latency_time);
  EXPECT_EQ(pool.makespan(), su.tensor_time);
}

// Aggregated pool counters equal the serial device's for any unit count:
// the same gemm calls run, just distributed.
TEST(PoolRuntime, AggregateCountersMatchSerialSchedule) {
  const std::size_t d = 128;
  auto a = random_matrix(d, d, 5);
  auto b = random_matrix(d, d, 6);
  Device<double> single({.m = 256, .latency = 13});
  (void)tcu::linalg::matmul_tcu(single, a.view(), b.view());
  for (std::size_t units : {2u, 4u, 8u}) {
    DevicePool<double> pool(units, {.m = 256, .latency = 13});
    PoolExecutor<double> exec(pool);
    (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    const Counters agg = pool.aggregate();
    EXPECT_EQ(agg.tensor_calls, single.counters().tensor_calls);
    EXPECT_EQ(agg.tensor_time, single.counters().tensor_time);
    EXPECT_EQ(agg.latency_time, single.counters().latency_time);
    EXPECT_EQ(agg.tensor_macs, single.counters().tensor_macs);
  }
}

// Weak-model units charge (m + l) per square call, not (rows*s + l) per
// tall call; the projected dealing must mirror that or the schedule (and
// with it per-unit counters) would drift from the serial greedy loop.
TEST(PoolRuntime, WeakModePoolMatchesSerialScheduleWithPreload) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 8);
  auto b = random_matrix(d, d, 9);
  typename Device<double>::Config cfg{
      .m = 64, .latency = 21, .allow_tall = false};

  // Preload unit 1 with ~1.9 strips' worth of weak-model work (976 rows
  // -> 122 calls of m+l = 10370). Under the correct weak cost (5440 per
  // strip) unit 1 still wins 2 of the 8 strips; under the tall-formula
  // cost (4264) the projection sees ~2.4 strips of preload and hands
  // unit 1 only 1 — so a mis-projection changes per-unit counters here.
  Matrix<double> tall(976, 8, 1.0), tiny(8, 8, 1.0), tall_c(976, 8);

  // Serial greedy reference: execute strips one by one on least_loaded.
  DevicePool<double> serial(3, cfg);
  serial.unit(1).gemm(tall.view(), tiny.view(), tall_c.view());
  {
    const std::size_t s = serial.unit(0).tile_dim();
    Matrix<double> c(d, d, 0.0);
    for (std::size_t jb = 0; jb < d; jb += s) {
      Device<double>& unit = serial.least_loaded();
      for (std::size_t kb = 0; kb < d; kb += s) {
        unit.gemm(a.subview(0, kb, d, s), b.subview(kb, jb, s, s),
                  c.subview(0, jb, d, s), kb != 0);
      }
    }
  }

  DevicePool<double> pool(3, cfg);
  pool.unit(1).gemm(tall.view(), tiny.view(), tall_c.view());
  PoolExecutor<double> exec(pool);
  (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());

  for (std::size_t u = 0; u < pool.size(); ++u) {
    EXPECT_EQ(pool.unit(u).counters().tensor_time,
              serial.unit(u).counters().tensor_time)
        << "unit " << u;
    EXPECT_EQ(pool.unit(u).counters().tensor_calls,
              serial.unit(u).counters().tensor_calls)
        << "unit " << u;
  }
}

TEST(PoolRuntime, ExceptionFromWorkerPropagatesAtJoin) {
  DevicePool<double> pool(2, {.m = 16});
  PoolExecutor<double> exec(pool);
  exec.submit({.cost = 1}, [](Device<double>&) {
    throw std::runtime_error("worker boom");
  });
  EXPECT_THROW(exec.join(), std::runtime_error);
  // The error is consumed: a subsequent join is clean and the executor
  // still drains new work.
  std::atomic<int> ran{0};
  exec.submit({.cost = 1}, [&](Device<double>&) { ran.fetch_add(1); });
  EXPECT_NO_THROW(exec.join());
  EXPECT_EQ(ran.load(), 1);
}

TEST(PoolRuntime, FirstOfManyExceptionsWinsAndAllTasksStillRun) {
  DevicePool<double> pool(2, {.m = 16});
  PoolExecutor<double> exec(pool);
  std::atomic<int> ran{0};
  for (int t = 0; t < 8; ++t) {
    exec.submit({.cost = 1}, [&ran](Device<double>&) {
      ran.fetch_add(1);
      throw std::invalid_argument("each task throws");
    });
  }
  EXPECT_THROW(exec.join(), std::invalid_argument);
  EXPECT_EQ(ran.load(), 8);  // a throwing task does not stall its lane
}

TEST(PoolRuntime, ForEachLaneRethrowsOnceEveryShareHasRun) {
  // A throwing share, on a lane or on the caller, surfaces from
  // for_each_lane only after all four shares ran; the executor then
  // drains new work.
  DevicePool<double> pool(3, {.m = 16});
  PoolExecutor<double> exec(pool);
  for (const std::size_t thrower : {0u, 2u}) {
    std::atomic<int> ran{0};
    const auto share = [&](std::size_t w, std::size_t) {
      ran.fetch_add(1);
      if (w == thrower) throw std::runtime_error("share boom");
    };
    EXPECT_THROW(exec.for_each_lane(share), std::runtime_error);
    EXPECT_EQ(ran.load(), 4) << thrower;
  }
  std::atomic<int> ran{0};
  exec.submit({.cost = 1}, [&](Device<double>&) { ran.fetch_add(1); });
  EXPECT_NO_THROW(exec.join());
  EXPECT_EQ(ran.load(), 1);
}

TEST(PoolRuntime, SubmitDealsGreedilyByProjectedCost) {
  DevicePool<double> pool(2, {.m = 16});
  PoolExecutor<double> exec(pool);
  auto deal = [&exec](std::uint64_t cost) {
    return exec.submit({.cost = cost}, [](Device<double>&) {}).unit;
  };
  // Costs 10, 1, 1: unit 0 takes the heavy task, unit 1 both light ones.
  EXPECT_EQ(deal(10), 0u);
  EXPECT_EQ(deal(1), 1u);
  EXPECT_EQ(deal(1), 1u);
  EXPECT_EQ(deal(1), 1u);  // 2 < 10
  EXPECT_EQ(deal(8), 1u);  // 3 < 10
  EXPECT_EQ(deal(1), 0u);  // 10 < 11
  exec.join();
}

TEST(PoolRuntime, BatchSharedBPoolMatchesSingleDevice) {
  auto b = random_matrix(8, 8, 7);
  std::vector<Matrix<double>> batch;
  for (int t = 0; t < 4; ++t) batch.push_back(random_matrix(8, 8, 20 + t));

  Device<double> dev({.m = 64, .latency = 9});
  auto expect = tcu::linalg::matmul_batch_shared_b(dev, batch, b.view());

  DevicePool<double> pool(2, {.m = 64, .latency = 9});
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_batch_shared_b(exec, batch, b.view());

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], expect[t]);
  }
  // Same stacked schedule: latency still charged per weight tile.
  EXPECT_EQ(pool.aggregate().latency_time, dev.counters().latency_time);
  EXPECT_EQ(pool.aggregate().tensor_calls, dev.counters().tensor_calls);
}

// Ragged stacked shapes can't strip-deal; the pool overload must fall
// back to the padded single-unit path instead of throwing, so the two
// overloads stay behaviorally interchangeable.
TEST(PoolRuntime, BatchSharedBPoolFallsBackOnRaggedShapes) {
  auto b = random_matrix(4, 4, 8);  // 4 < sqrt(m) = 8: ragged everywhere
  std::vector<Matrix<double>> batch{random_matrix(4, 4, 9),
                                    random_matrix(4, 4, 10)};
  Device<double> dev({.m = 64, .latency = 5});
  auto expect = tcu::linalg::matmul_batch_shared_b(dev, batch, b.view());
  DevicePool<double> pool(2, {.m = 64, .latency = 5});
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_batch_shared_b(exec, batch, b.view());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t t = 0; t < got.size(); ++t) EXPECT_EQ(got[t], expect[t]);
}

// The ragged pool path's worker-local scratch must charge exactly what
// the single-device ragged path charges — aggregate counters, not just
// output bits, in both tall and weak modes.
TEST(PoolRuntime, RaggedPoolMatmulMatchesSerialCounters) {
  auto a = random_matrix(13, 22, 14);
  auto b = random_matrix(22, 9, 15);
  for (bool tall : {true, false}) {
    typename Device<double>::Config cfg{
        .m = 16, .latency = 19, .allow_tall = tall};
    Device<double> single(cfg);
    auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());
    DevicePool<double> pool(3, cfg);
    PoolExecutor<double> exec(pool);
    auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    EXPECT_EQ(got, expect) << "tall=" << tall;
    const Counters agg = pool.aggregate();
    const Counters& ref = single.counters();
    EXPECT_EQ(agg.tensor_calls, ref.tensor_calls) << "tall=" << tall;
    EXPECT_EQ(agg.tensor_rows, ref.tensor_rows) << "tall=" << tall;
    EXPECT_EQ(agg.tensor_time, ref.tensor_time) << "tall=" << tall;
    EXPECT_EQ(agg.tensor_macs, ref.tensor_macs) << "tall=" << tall;
    EXPECT_EQ(agg.latency_time, ref.latency_time) << "tall=" << tall;
    EXPECT_EQ(agg.cpu_ops, ref.cpu_ops) << "tall=" << tall;
  }
}

// Persistent mode: one executor dealing two rounds (join between them)
// must be bit-identical — outputs and per-unit counters — to two fresh
// executors, because join() reseeds the projections from the live units.
TEST(PoolRuntime, PersistentExecutorReuseMatchesFreshExecutors) {
  const std::size_t d = 96;
  auto a = random_matrix(d, d, 11);
  auto b = random_matrix(d, d, 12);
  typename Device<double>::Config cfg{.m = 256, .latency = 17};

  DevicePool<double> pool_reused(3, cfg);
  PoolExecutor<double> exec(pool_reused);
  auto r1 = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  auto r2 = tcu::linalg::matmul_tcu_pool(exec, b.view(), a.view());

  DevicePool<double> pool_fresh(3, cfg);
  Matrix<double> f1, f2;
  {
    PoolExecutor<double> e(pool_fresh);
    f1 = tcu::linalg::matmul_tcu_pool(e, a.view(), b.view());
  }
  {
    PoolExecutor<double> e(pool_fresh);
    f2 = tcu::linalg::matmul_tcu_pool(e, b.view(), a.view());
  }

  EXPECT_EQ(r1, f1);
  EXPECT_EQ(r2, f2);
  for (std::size_t u = 0; u < pool_reused.size(); ++u) {
    const Counters& ru = pool_reused.unit(u).counters();
    const Counters& fu = pool_fresh.unit(u).counters();
    EXPECT_EQ(ru.tensor_calls, fu.tensor_calls) << "unit " << u;
    EXPECT_EQ(ru.tensor_time, fu.tensor_time) << "unit " << u;
    EXPECT_EQ(ru.tensor_macs, fu.tensor_macs) << "unit " << u;
    EXPECT_EQ(ru.latency_time, fu.latency_time) << "unit " << u;
  }
}

// The resident-tile model on a single device: a tagged call whose key
// matches the resident operand skips the load latency and counts a hit;
// untagged calls displace the resident tile.
TEST(PoolRuntime, DeviceResidentTileSkipsLatencyOnHit) {
  Device<double> dev({.m = 16, .latency = 5});
  Matrix<double> a(4, 4, 1.0), b(4, 4, 2.0), c(4, 4);

  dev.gemm_resident(42, a.view(), b.view(), c.view());  // load
  EXPECT_EQ(dev.counters().latency_time, 5u);
  EXPECT_EQ(dev.counters().resident_hits, 0u);

  dev.gemm_resident(42, a.view(), b.view(), c.view());  // hit
  EXPECT_EQ(dev.counters().latency_time, 5u);
  EXPECT_EQ(dev.counters().resident_hits, 1u);
  EXPECT_EQ(dev.counters().latency_saved, 5u);
  EXPECT_EQ(dev.resident_key(), 42u);

  dev.gemm_resident(43, a.view(), b.view(), c.view());  // new tile: load
  EXPECT_EQ(dev.counters().latency_time, 10u);

  {
    // This drop is the behavior under test, not a tagging bug.
    tcu::check::AllowUntaggedClobber allow_clobber;
    dev.gemm(a.view(), b.view(), c.view());  // untagged: displaces
  }
  EXPECT_EQ(dev.resident_key(), 0u);
  dev.gemm_resident(43, a.view(), b.view(), c.view());  // reload
  EXPECT_EQ(dev.counters().latency_time, 20u);
  EXPECT_EQ(dev.counters().resident_hits, 1u);
}

// Affinity scheduling end to end: a steady stream of batches against one
// resident B pays each tile's load latency once, not once per round. The
// dealer routes every strip back to the lane holding its tile, the
// devices' resident-hit counters record the savings, and the outputs stay
// bit-identical to the single-device schedule.
TEST(PoolRuntime, AffinityServesResidentTilesAcrossRounds) {
  const std::uint64_t ell = 100;
  auto b = random_matrix(8, 16, 70);  // s = 8: two single-tile strips
  std::vector<Matrix<double>> batch;
  for (int t = 0; t < 4; ++t) batch.push_back(random_matrix(8, 8, 80 + t));
  const int rounds = 5;

  Device<double> single({.m = 64, .latency = ell});
  DevicePool<double> pool(2, {.m = 64, .latency = ell});
  PoolExecutor<double> exec(pool);
  for (int r = 0; r < rounds; ++r) {
    auto expect = tcu::linalg::matmul_batch_shared_b(single, batch, b.view());
    auto got = tcu::linalg::matmul_batch_shared_b(exec, batch, b.view());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t t = 0; t < got.size(); ++t) EXPECT_EQ(got[t], expect[t]);
  }

  const Counters agg = pool.aggregate();
  // 2 tiles loaded in round 1; every later round hits both.
  EXPECT_EQ(agg.resident_hits, 2u * (rounds - 1));
  EXPECT_EQ(agg.latency_saved, 2u * (rounds - 1) * ell);
  EXPECT_EQ(agg.latency_time, 2u * ell);
  // PR 1's dealer (the single-device reference) reloads B every round.
  EXPECT_EQ(single.counters().latency_time, 2u * rounds * ell);
  EXPECT_LT(agg.latency_time, single.counters().latency_time);
  // The saving is pure latency: everything else matches the serial totals.
  EXPECT_EQ(agg.tensor_macs, single.counters().tensor_macs);
  EXPECT_EQ(agg.tensor_calls, single.counters().tensor_calls);
  EXPECT_EQ(agg.tensor_time + agg.latency_saved,
            single.counters().tensor_time);
}

TEST(PoolRuntime, MlpForwardPoolMatchesSingleDevice) {
  tcu::util::Xoshiro256 rng(31);
  const std::size_t width = 16;
  tcu::nn::Mlp mlp;
  for (int l = 0; l < 3; ++l) {
    auto w = random_matrix(width, width, 40 + l);
    std::vector<double> bias(width);
    for (auto& v : bias) v = rng.uniform(-1, 1);
    mlp.add_layer(tcu::nn::DenseLayer(w, bias));
  }
  auto batch = random_matrix(32, width, 50);

  Device<double> dev({.m = 16, .latency = 3});
  auto expect = mlp.forward(dev, batch.view());

  DevicePool<double> pool(4, {.m = 16, .latency = 3});
  PoolExecutor<double> exec(pool);
  auto got = mlp.forward(exec, batch.view());

  EXPECT_EQ(got, expect);
  EXPECT_EQ(pool.aggregate().tensor_calls, dev.counters().tensor_calls);
  EXPECT_EQ(pool.aggregate().tensor_time, dev.counters().tensor_time);
  // With 4 units sharing the strips the critical path shrinks.
  EXPECT_LT(pool.makespan(), dev.counters().time());
}

}  // namespace
