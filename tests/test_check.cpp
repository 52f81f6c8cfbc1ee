// The contract checker checked: every seeded violation class must be
// caught (wrong/over-declared/reordered chains, missing tags, untagged
// clobbers, conservation-law breaks, stale resident sets after worker
// failures, diverged join mirrors), and the real workloads — serial and
// pool, tall and weak, at p = 1/2/4/8 — must run green under a checker,
// proving the library itself honors the contracts it documents.
//
// `ScopedCheck` attaches explicitly, so this suite exercises the checker
// in every build; a -DTCU_CHECK=ON build additionally runs the *other*
// suites under auto-attached checkers.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "linalg/batch.hpp"
#include "linalg/dense.hpp"
#include "linalg/gauss.hpp"
#include "linalg/parallel.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::check::AllowUntaggedClobber;
using tcu::check::ContractError;
using tcu::check::ScopedCheck;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

/// 4x4 operands for a device with m = 16 (s = 4).
struct SmallOps {
  Matrix<double> a{4, 4, 1.0};
  Matrix<double> b{4, 4, 2.0};
  Matrix<double> c{4, 4, 0.0};
};

// ---------------------------------------------------------- seeded bugs

TEST(CheckViolations, OverDeclaredChainIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1, 2};
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  // The task ends having issued 1 of its 2 declared calls.
  EXPECT_THROW(check.unit(0).on_task_end(/*failed=*/false), ContractError);
}

TEST(CheckViolations, ReorderedChainIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1, 2};
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm_resident(2, ops.a.view(), ops.b.view(), ops.c.view());
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_THROW(check.unit(0).on_task_end(/*failed=*/false), ContractError);
}

TEST(CheckViolations, MissingTagInDeclaredTaskIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1};
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm(ops.a.view(), ops.b.view(), ops.c.view());  // should be tagged
  EXPECT_THROW(check.unit(0).on_task_end(/*failed=*/false), ContractError);
}

TEST(CheckViolations, TaggedCallInPlainSubmitTaskIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  check.unit(0).on_task_begin(nullptr, 0, /*affine=*/false,
                              /*hits_valid=*/true);
  dev.gemm_resident(5, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_THROW(check.unit(0).on_task_end(/*failed=*/false), ContractError);
}

TEST(CheckViolations, UntaggedClobberIsFlaggedUnlessAllowlisted) {
  SmallOps ops;
  {
    Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
    ScopedCheck<double> check(dev);
    dev.gemm_resident(7, ops.a.view(), ops.b.view(), ops.c.view());
    EXPECT_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()),
                 ContractError);
  }
  {
    Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
    ScopedCheck<double> check(dev);
    dev.gemm_resident(7, ops.a.view(), ops.b.view(), ops.c.view());
    AllowUntaggedClobber allow;
    EXPECT_NO_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()));
    check.verify();
  }
}

TEST(CheckViolations, DeclaredUntaggedEntrySanctionsTheClobber) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{5, 0};  // 0 = declared untagged
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm_resident(5, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_NO_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()));
  EXPECT_NO_THROW(check.unit(0).on_task_end(/*failed=*/false));
  check.verify();
}

TEST(CheckViolations, ConservationLawBreakIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  // Corrupt the books: latency charged with no call to account for it.
  dev.counters().latency_time += 3;
  EXPECT_THROW(
      dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view()),
      ContractError);
}

TEST(CheckViolations, PredictedHitsMismatchIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1};
  // The dealer promises one hit, but the cache is cold: the task loads.
  check.unit(0).on_task_begin(&chain, /*predicted_hits=*/1, /*affine=*/true,
                              /*hits_valid=*/true);
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_THROW(check.unit(0).on_task_end(/*failed=*/false), ContractError);
}

TEST(CheckViolations, StaleResidentSetAfterFailedTaskIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1, 2};
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  check.unit(0).on_task_end(/*failed=*/true);  // chain abandoned mid-flight
  // Any call before the evict_all re-anchor works on state the scheduler
  // can no longer vouch for.
  EXPECT_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()),
               ContractError);
}

TEST(CheckViolations, EvictAllReanchorsAfterFailedTask) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  const std::vector<std::uint64_t> chain{1};
  check.unit(0).on_task_begin(&chain, 0, /*affine=*/true, /*hits_valid=*/true);
  dev.gemm_resident(1, ops.a.view(), ops.b.view(), ops.c.view());
  check.unit(0).on_task_end(/*failed=*/true);
  dev.evict_all();  // what PoolExecutor::join does on the error path
  EXPECT_NO_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()));
  check.verify();
}

TEST(CheckViolations, DivergedJoinMirrorIsCaught) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  SmallOps ops;
  dev.gemm_resident(7, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_NO_THROW(check.unit(0).on_join({7}));        // mirror agrees
  EXPECT_THROW(check.unit(0).on_join({123}), ContractError);
}

// ------------------------------------------------------- green workloads

TEST(CheckGreen, SerialResidencyWorkloadsPass) {
  // B is 8x12 = 6 tiles; capacity must hold all of them or LRU replays
  // the first pass's eviction order and the second pass never hits.
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 8});
  ScopedCheck<double> check(dev);
  auto a = random_matrix(12, 8, 1);
  auto b = random_matrix(8, 12, 2);
  tcu::InlineExecutor<double> exec(dev);
  auto r1 = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                         {.affinity = true});
  auto r2 = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                         {.affinity = true});
  EXPECT_EQ(r1, r2);
  EXPECT_GT(dev.counters().resident_hits, 0u);
  // The untagged baseline allowlists its own cold stream.
  (void)tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  check.verify();
  EXPECT_GT(check.unit(0).checked_calls(), 0u);
}

TEST(CheckGreen, WeakModeSplitAccountingPasses) {
  Device<double> dev({.m = 16,
                      .latency = 5,
                      .allow_tall = false,
                      .resident_tiles = 2});
  ScopedCheck<double> check(dev);
  Matrix<double> a(12, 4, 1.0), b(4, 4, 2.0), c(12, 4, 0.0);
  dev.gemm_resident(9, a.view(), b.view(), c.view());  // load + 2 shared
  dev.gemm_resident(9, a.view(), b.view(), c.view());  // all 3 hit
  EXPECT_EQ(dev.counters().resident_hits, 5u);
  check.verify();
  EXPECT_EQ(check.unit(0).checked_calls(), 2u);
}

TEST(CheckGreen, SerialGaussAndMlpPass) {
  Device<double> dev({.m = 16, .latency = 6, .resident_tiles = 3});
  ScopedCheck<double> check(dev);

  auto x = random_matrix(16, 16, 3);
  tcu::linalg::ge_forward_tcu(dev, x.view());

  tcu::nn::Mlp mlp;
  mlp.add_layer(tcu::nn::DenseLayer(random_matrix(8, 8, 4),
                                    std::vector<double>(8, 0.1)));
  mlp.add_layer(tcu::nn::DenseLayer(random_matrix(8, 4, 5),
                                    std::vector<double>(4, 0.0)));
  auto batch = random_matrix(8, 8, 6);
  (void)mlp.forward(dev, batch.view());
  (void)mlp.forward(dev, batch.view());  // weight tiles hit on revisit
  check.verify();
  EXPECT_GT(check.unit(0).checked_calls(), 0u);
}

TEST(CheckGreen, SerialDftBothModesPass) {
  tcu::dft::CplxDevice dev({.m = 16, .latency = 5, .resident_tiles = 2});
  ScopedCheck<tcu::dft::Complex> check(dev);
  tcu::util::Xoshiro256 rng(7);
  Matrix<tcu::dft::Complex> batch(4, 12);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      batch(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  tcu::dft::dft_batch_tcu(dev, batch.view(), {.affinity = true});
  tcu::dft::idft_batch_tcu(dev, batch.view(), {.affinity = true});
  tcu::dft::dft_batch_tcu(dev, batch.view(), {});  // Theorem 7 untagged
  check.verify();
  EXPECT_GT(check.unit(0).checked_calls(), 0u);
}

TEST(CheckGreen, PoolWorkloadsPassAtEveryUnitCount) {
  auto a = random_matrix(24, 8, 11);
  auto b = random_matrix(8, 12, 12);
  std::vector<Matrix<double>> batch;
  for (int t = 0; t < 3; ++t) batch.push_back(random_matrix(8, 8, 20 + t));
  auto shared_b = random_matrix(8, 8, 30);

  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(p, {.m = 16, .latency = 7, .resident_tiles = 2});
    ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);

    (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                       {.affinity = true});
    (void)tcu::linalg::matmul_tcu_pool(
        exec, a.view(), b.view(), {.affinity = true, .split_chains = true});
    (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                       {.affinity = false});
    (void)tcu::linalg::matmul_batch_shared_b(exec, batch, shared_b.view());

    auto x = random_matrix(16, 16, 40);
    tcu::linalg::ge_forward_tcu_pool(exec, x.view());

    check.verify();
    std::uint64_t calls = 0;
    for (std::size_t u = 0; u < check.size(); ++u) {
      calls += check.unit(u).checked_calls();
    }
    EXPECT_GT(calls, 0u) << "p=" << p;
  }
}

TEST(CheckGreen, PoolDftPassesAtEveryUnitCount) {
  tcu::util::Xoshiro256 rng(13);
  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<tcu::dft::Complex> pool(p, {.m = 16, .latency = 5,
                                      .resident_tiles = 2});
    ScopedCheck<tcu::dft::Complex> check(pool);
    PoolExecutor<tcu::dft::Complex> exec(pool);
    Matrix<tcu::dft::Complex> batch(8, 12);
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = 0; j < 12; ++j) {
        batch(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      }
    }
    tcu::dft::dft_batch_tcu(exec, batch.view(), {.affinity = true});
    tcu::dft::dft_batch_tcu(exec, batch.view(), {});
    check.verify();
  }
}

TEST(CheckGreen, ExecutorRecoversAfterWorkerFailure) {
  auto a = random_matrix(24, 8, 50);
  auto b = random_matrix(8, 12, 51);
  DevicePool<double> pool(2, {.m = 16, .latency = 7, .resident_tiles = 2});
  ScopedCheck<double> check(pool);
  PoolExecutor<double> exec(pool);

  (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                     {.affinity = true});
  exec.submit({.cost = 10, .chain = {99}}, [](Device<double>&) {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(exec.join(), std::runtime_error);  // the original error

  // The error-path evict_all re-anchored every unit: later rounds green.
  (void)tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                     {.affinity = true});
  check.verify();
}

// ----------------------------------------------------- TCU_CHECK builds

TEST(CheckAutoAttach, MatchesBuildConfiguration) {
  Device<double> dev({.m = 16, .latency = 5, .resident_tiles = 2});
#ifdef TCU_CHECK
  EXPECT_NE(dev.observer(), nullptr);
  SmallOps ops;
  dev.gemm_resident(7, ops.a.view(), ops.b.view(), ops.c.view());
  EXPECT_THROW(dev.gemm(ops.a.view(), ops.b.view(), ops.c.view()),
               ContractError);
#else
  EXPECT_EQ(dev.observer(), nullptr);
#endif
}

}  // namespace
