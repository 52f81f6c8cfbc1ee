// Fault injection and PoolExecutor self-healing (src/fault/fault.hpp):
//
//   * a faulted call charges nothing — counters, residency, and output
//     untouched, so retries are bit-identical to first attempts;
//   * transient faults retry in place, then redeal to healthy lanes, and
//     recovered rounds reproduce the fault-free outputs bit-for-bit;
//   * permanent death quarantines the unit and the pool degrades to
//     p - f without losing a round; the executor stays usable across
//     rounds after quarantine;
//   * spawn faults degrade construction to the workers that started;
//   * retry exhaustion and all-units-dead rethrow, with the executor
//     left reusable (the historical error contract);
//   * RoundReports and cumulative fault_stats are deterministic given
//     (seed, plan) — same counts at p = 1/2/4/8 across repeated runs;
//   * stragglers add wall-clock latency only: counters bit-identical.
//
// The CI fault leg re-runs this suite (and the whole build) under
// ASan+UBSan with -DTCU_CHECK=ON and TCU_FAULT_SEED pinned, so every
// recovery path is also a contract-checker audit.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/pool.hpp"
#include "fault/fault.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::RoundReport;
using tcu::TaskTicket;
using tcu::fault::FaultPlan;
using tcu::fault::FaultSpec;
using tcu::fault::ScopedInjection;

/// Seed for fault plans: TCU_FAULT_SEED when set (the CI fault leg pins
/// it so the whole suite replays one plan), else the given default.
std::uint64_t fault_seed(std::uint64_t fallback) {
  const char* env = std::getenv("TCU_FAULT_SEED");
  if (!env || !*env) return fallback;
  return std::strtoull(env, nullptr, 10);
}

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

void expect_counters_identical(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls);
  EXPECT_EQ(got.tensor_rows, want.tensor_rows);
  EXPECT_EQ(got.tensor_time, want.tensor_time);
  EXPECT_EQ(got.tensor_macs, want.tensor_macs);
  EXPECT_EQ(got.latency_time, want.latency_time);
  EXPECT_EQ(got.resident_hits, want.resident_hits);
  EXPECT_EQ(got.latency_saved, want.latency_saved);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.cpu_ops, want.cpu_ops);
}

// ------------------------------------------------------------- injection

TEST(FaultInjection, FaultedCallChargesNothing) {
  FaultPlan plan(fault_seed(7), {.transient_at = {{0, 0}}});
  Device<double> dev({.m = 16, .latency = 5});
  dev.set_fault_injector(plan.injector(0));
  auto a = random_matrix(4, 4, 1);
  auto b = random_matrix(4, 4, 2);
  Matrix<double> c(4, 4, 0.0);

  EXPECT_THROW(dev.gemm(a.view(), b.view(), c.view()),
               tcu::fault::TransientFault);
  // Zero side effects: no charges, no residency, no output writes.
  EXPECT_EQ(dev.counters().tensor_calls, 0u);
  EXPECT_EQ(dev.counters().tensor_time, 0u);
  EXPECT_EQ(dev.tile_cache().size(), 0u);
  EXPECT_EQ(c, Matrix<double>(4, 4, 0.0));

  // The next call (index 1) is clean and behaves as a first attempt.
  dev.gemm(a.view(), b.view(), c.view());
  Device<double> ref({.m = 16, .latency = 5});
  auto expect = tcu::linalg::matmul_tcu(ref, a.view(), b.view());
  EXPECT_EQ(c, expect);
  expect_counters_identical(dev.counters(), ref.counters());
  EXPECT_EQ(plan.calls(0), 2u);
  EXPECT_EQ(plan.transients_injected(), 1u);
  dev.set_fault_injector(nullptr);
}

TEST(FaultInjection, DeadUnitFailsEveryCall) {
  FaultPlan plan(fault_seed(7), {.death_at = {{0, 1}}});
  Device<double> dev({.m = 16});
  dev.set_fault_injector(plan.injector(0));
  auto a = random_matrix(4, 4, 3);
  auto b = random_matrix(4, 4, 4);
  Matrix<double> c(4, 4, 0.0);
  dev.gemm(a.view(), b.view(), c.view());  // call 0: fine
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(dev.gemm(a.view(), b.view(), c.view()),
                 tcu::fault::PermanentUnitFault);
  }
  EXPECT_EQ(dev.counters().tensor_calls, 1u);
  EXPECT_EQ(plan.permanent_trips(), 1u);
  dev.set_fault_injector(nullptr);
}

// -------------------------------------------------------------- recovery

TEST(FaultRecovery, TransientRetriesInPlaceBitIdentical) {
  const std::size_t d = 64;  // 4 strips at s = 16
  auto a = random_matrix(d, d, 10);
  auto b = random_matrix(d, d, 11);
  Device<double> single({.m = 256, .latency = 7});
  auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());

  DevicePool<double> pool(4, {.m = 256, .latency = 7});
  // Unit 0's second call faults once; the retry re-runs the whole strip.
  FaultPlan plan(fault_seed(7), {.transient_at = {{0, 1}}});
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());

  EXPECT_EQ(got, expect);
  const RoundReport& stats = exec.fault_stats();
  EXPECT_EQ(stats.transient_faults, 1u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.redealt, 0u);
  EXPECT_TRUE(stats.quarantined.empty());
  EXPECT_EQ(exec.healthy_units(), 4u);
}

TEST(FaultRecovery, PermanentDeathRedealsQuarantinesAndStaysUsable) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 20);
  auto b = random_matrix(d, d, 21);
  Device<double> single({.m = 256, .latency = 3});
  auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());

  DevicePool<double> pool(4, {.m = 256, .latency = 3});
  FaultPlan plan(fault_seed(7), {.death_at = {{1, 0}}});  // dies instantly
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);

  auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  EXPECT_EQ(got, expect);
  const RoundReport& stats = exec.fault_stats();
  EXPECT_EQ(stats.permanent_faults, 1u);
  EXPECT_GE(stats.redealt, 1u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0], 1u);
  EXPECT_EQ(exec.healthy_units(), 3u);
  EXPECT_TRUE(exec.quarantined(1));
  // The dead unit charged nothing (it died before its first charge) and
  // holds no residency the dealer could mispredict.
  EXPECT_EQ(pool.unit(1).counters().tensor_calls, 0u);
  EXPECT_EQ(pool.unit(1).tile_cache().size(), 0u);

  // Quarantine-then-recover: the same executor keeps serving rounds on
  // the survivors, bit-identical to fault-free.
  for (int round = 0; round < 3; ++round) {
    auto a2 = random_matrix(d, d, 30 + static_cast<std::uint64_t>(round));
    auto b2 = random_matrix(d, d, 40 + static_cast<std::uint64_t>(round));
    Device<double> ref({.m = 256, .latency = 3});
    auto want = tcu::linalg::matmul_tcu(ref, a2.view(), b2.view());
    auto out = tcu::linalg::matmul_tcu_pool(exec, a2.view(), b2.view());
    EXPECT_EQ(out, want) << "round " << round;
  }
  EXPECT_EQ(exec.fault_stats().permanent_faults, 1u);  // no new faults
}

TEST(FaultRecovery, RetryExhaustionRethrowsAndExecutorRecovers) {
  DevicePool<double> pool(2, {.m = 16, .latency = 1});
  auto a = random_matrix(4, 4, 50);
  auto b = random_matrix(4, 4, 51);
  {
    FaultPlan plan(fault_seed(7), {.transient_rate = 1.0});  // every call
    ScopedInjection<double> inject(pool, plan);
    PoolExecutor<double> exec(pool);
    Matrix<double> c(4, 4, 0.0);
    exec.submit({.cost = 16 + 1}, [&](Device<double>& dev) {
      dev.gemm(a.view(), b.view(), c.view());
    });
    EXPECT_THROW(exec.join(), tcu::fault::TransientFault);
    // kMaxAttempts executions were burned: same-lane retry, then redeal,
    // then the redealt lane's retry — all faulted.
    EXPECT_EQ(plan.transients_injected(), 4u);
    EXPECT_EQ(c, Matrix<double>(4, 4, 0.0));  // no partial charge/output

    // The executor survives the rethrow: once the plan detaches, the
    // next round is clean.
  }
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  Device<double> ref({.m = 16, .latency = 1});
  EXPECT_EQ(got, tcu::linalg::matmul_tcu(ref, a.view(), b.view()));
}

TEST(FaultRecovery, ExhaustionIsDecidedBeforeAnyRedealInTheWave) {
  // A redeal wave holding both a salvageable task and an exhausted one
  // must rethrow *before* re-enqueueing anything: once a task is back on
  // a lane its worker is live again, and the rethrow path's
  // reseed/evict_all may only touch unit state while every worker is
  // idle — and the re-dealt task would outlive the throw, leaking work
  // past the barrier.
  DevicePool<double> pool(2, {.m = 16, .latency = 1});
  // Unit 0 dies instantly; unit 1 faults calls 0-1 (task X's first
  // visit) and 3-6 (tasks C and X after the redeal).
  FaultPlan plan(fault_seed(7),
                 {.transient_at = {{1, 0}, {1, 1}, {1, 3}, {1, 4}, {1, 5},
                                   {1, 6}},
                  .death_at = {{0, 0}}});
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);

  auto a = random_matrix(4, 4, 80);
  auto b = random_matrix(4, 4, 81);
  Matrix<double> ck(4, 4, 0.0), cc(4, 4, 0.0), cx(4, 4, 0.0);
  // K (serial 1) kills unit 0; C (serial 2) drains off the dead lane
  // with no attempts consumed; X (serial 3) burns its budget on unit 1.
  // The declared costs steer the greedy dealer: K (0) ties onto lane 0,
  // C (1) ties onto lane 0 again, and X (17) takes lane 1 (0 < 1).
  const TaskTicket k = exec.submit({.cost = 0}, [&](Device<double>& dev) {
    dev.gemm(a.view(), b.view(), ck.view());
  });
  const TaskTicket c = exec.submit({.cost = 1}, [&](Device<double>& dev) {
    dev.gemm(a.view(), b.view(), cc.view());
  });
  const TaskTicket x = exec.submit({.cost = 17}, [&](Device<double>& dev) {
    dev.gemm(a.view(), b.view(), cx.view());
  });
  ASSERT_EQ(k.unit, 0u);
  ASSERT_EQ(c.unit, 0u);
  ASSERT_EQ(x.unit, 1u);
  // Wave 1: K trips unit 0's death, C drains, X faults twice. The redeal
  // sends K, C, X to unit 1 (calls 2-6): K completes, C fails twice
  // (attempts = 2, salvageable), X fails twice more (attempts = 4,
  // exhausted). The barrier must surface X without redealing C.
  EXPECT_THROW(exec.join(), tcu::fault::TransientFault);

  // C was never re-enqueued: unit 1 saw exactly calls 0-6, and C's
  // output was never written (a leaked redeal would complete cleanly at
  // call 7 and write it after join threw).
  EXPECT_EQ(plan.calls(1), 7u);
  EXPECT_EQ(cc, Matrix<double>(4, 4, 0.0));
  EXPECT_EQ(cx, Matrix<double>(4, 4, 0.0));
  Device<double> ref({.m = 16, .latency = 1});
  auto expect = tcu::linalg::matmul_tcu(ref, a.view(), b.view());
  EXPECT_EQ(ck, expect);  // K's redeal completed before the exhaustion

  // The failed round's bookkeeping still lands in the lifetime stats.
  const RoundReport& stats = exec.fault_stats();
  EXPECT_EQ(stats.transient_faults, 6u);
  EXPECT_EQ(stats.permanent_faults, 1u);
  EXPECT_EQ(stats.retried, 3u);
  EXPECT_EQ(stats.redealt, 3u);
  EXPECT_EQ(stats.drained, 1u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0], 0u);
  EXPECT_EQ(stats.healthy_units, 1u);

  // Reusable after the rethrow: the next round runs clean on the
  // survivor (no triggers remain past call 6).
  Matrix<double> cy(4, 4, 0.0);
  exec.submit({.cost = 16 + 1}, [&](Device<double>& dev) {
    dev.gemm(a.view(), b.view(), cy.view());
  });
  const RoundReport round = exec.join();
  EXPECT_FALSE(round.faulted());
  EXPECT_EQ(cy, expect);
}

TEST(FaultRecovery, AllUnitsDeadRethrows) {
  DevicePool<double> pool(2, {.m = 16});
  FaultPlan plan(fault_seed(7), {.death_at = {{0, 0}, {1, 0}}});
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);
  auto a = random_matrix(4, 4, 60);
  auto b = random_matrix(4, 4, 61);
  Matrix<double> c(4, 4, 0.0);
  exec.submit({.cost = 16}, [&](Device<double>& dev) {
    dev.gemm(a.view(), b.view(), c.view());
  });
  EXPECT_THROW(exec.join(), tcu::fault::PermanentUnitFault);
  EXPECT_EQ(exec.healthy_units(), 0u);
  // Further submits are refused outright: there is nowhere to run.
  EXPECT_THROW(exec.submit({.cost = 16}, [](Device<double>&) {}),
               tcu::fault::PermanentUnitFault);
}

TEST(FaultRecovery, NonFaultExceptionsKeepTheHistoricalContract) {
  // A plain task exception must still rethrow at join untouched by the
  // recovery machinery (no retry, no redeal, no quarantine).
  DevicePool<double> pool(2, {.m = 16});
  PoolExecutor<double> exec(pool);
  exec.submit({.cost = 1}, [](Device<double>&) {
    throw std::runtime_error("task bug");
  });
  EXPECT_THROW(exec.join(), std::runtime_error);
  const RoundReport& stats = exec.fault_stats();
  EXPECT_EQ(stats.transient_faults, 0u);
  EXPECT_EQ(stats.redealt, 0u);
  EXPECT_EQ(exec.healthy_units(), 2u);
}

// ----------------------------------------------------------- spawn faults

TEST(SpawnFault, DegradesToSpawnedWorkers) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 70);
  auto b = random_matrix(d, d, 71);
  Device<double> single({.m = 256, .latency = 2});
  auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());

  DevicePool<double> pool(4, {.m = 256, .latency = 2});
  FaultPlan plan(fault_seed(7), {.spawn_fail = {1, 3}});
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);
  EXPECT_EQ(exec.spawn_failures(), 2u);
  EXPECT_EQ(exec.healthy_units(), 2u);
  EXPECT_TRUE(exec.quarantined(1));
  EXPECT_TRUE(exec.quarantined(3));

  auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
  EXPECT_EQ(got, expect);
  // The unspawned units never ran anything.
  EXPECT_EQ(pool.unit(1).counters().tensor_calls, 0u);
  EXPECT_EQ(pool.unit(3).counters().tensor_calls, 0u);
  RoundReport report = exec.join();
  EXPECT_EQ(report.spawn_failures, 2u);
  EXPECT_EQ(report.healthy_units, 2u);
}

TEST(SpawnFault, AllWorkersFailingToSpawnThrows) {
  DevicePool<double> pool(2, {.m = 16});
  FaultPlan plan(fault_seed(7), {.spawn_fail = {0, 1}});
  ScopedInjection<double> inject(pool, plan);
  EXPECT_THROW(PoolExecutor<double> exec(pool), tcu::fault::SpawnFault);
}

// ------------------------------------------------------------ determinism

TEST(FaultDeterminism, ReportsIdenticalAcrossRunsAtEveryUnitCount) {
  const std::size_t d = 96;  // 6 strips at s = 16
  auto a = random_matrix(d, d, 90);
  auto b = random_matrix(d, d, 91);
  Device<double> single({.m = 256, .latency = 4});
  auto expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    // Transients only: a death at p = 1 would leave no healthy unit.
    const FaultSpec spec{.transient_rate = 0.08,
                         .max_rate_transients_per_unit = 2};
    RoundReport first;
    Counters first_agg;
    std::string first_outcome;
    for (int run = 0; run < 10; ++run) {
      DevicePool<double> pool(p, {.m = 256, .latency = 4});
      FaultPlan plan(fault_seed(7), spec);
      ScopedInjection<double> inject(pool, plan);
      PoolExecutor<double> exec(pool);
      // At an unlucky (seed, p) the plan can fault one task kMaxAttempts
      // times and exhaust recovery. That outcome must be exactly as
      // deterministic as a clean one: the same rethrow message, recovery
      // bookkeeping, and aggregate counters on every run.
      std::string outcome = "recovered";
      try {
        auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
        ASSERT_EQ(got, expect) << "p=" << p << " run=" << run;
      } catch (const tcu::fault::FaultError& err) {
        outcome = err.what();
      }
      const RoundReport stats = exec.fault_stats();
      const Counters agg = pool.aggregate();
      if (run == 0) {
        first = stats;
        first_agg = agg;
        first_outcome = outcome;
      } else {
        EXPECT_EQ(outcome, first_outcome);
        EXPECT_EQ(stats.transient_faults, first.transient_faults);
        EXPECT_EQ(stats.permanent_faults, first.permanent_faults);
        EXPECT_EQ(stats.retried, first.retried);
        EXPECT_EQ(stats.redealt, first.redealt);
        EXPECT_EQ(stats.drained, first.drained);
        EXPECT_EQ(stats.quarantined, first.quarantined);
        EXPECT_EQ(stats.healthy_units, first.healthy_units);
        expect_counters_identical(agg, first_agg);
      }
    }
  }
}

TEST(FaultDeterminism, StragglersPerturbNothingButWallClock) {
  const std::size_t d = 64;
  auto a = random_matrix(d, d, 95);
  auto b = random_matrix(d, d, 96);

  DevicePool<double> clean_pool(2, {.m = 256, .latency = 6});
  PoolExecutor<double> clean_exec(clean_pool);
  auto expect = tcu::linalg::matmul_tcu_pool(clean_exec, a.view(), b.view());

  DevicePool<double> pool(2, {.m = 256, .latency = 6});
  FaultPlan plan(fault_seed(7),
                 {.stragglers = {0}, .straggle_us = 100});
  ScopedInjection<double> inject(pool, plan);
  PoolExecutor<double> exec(pool);
  auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());

  EXPECT_EQ(got, expect);
  expect_counters_identical(pool.aggregate(), clean_pool.aggregate());
  EXPECT_EQ(exec.fault_stats().transient_faults, 0u);
  EXPECT_GT(plan.calls(0), 0u);  // the straggler did run work
}

}  // namespace
