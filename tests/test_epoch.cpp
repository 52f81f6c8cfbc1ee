// The task-dependency runtime: per-task `after` tickets and the
// completion ledger — plus the pooled schedules of every workload built
// on them (transitive closure, Gaussian elimination, batched DFT, Mlp
// inference). An "epoch" here is one round between strict joins.
//
// Contracts pinned here:
//   * raw runtime ordering: explicit `after` chains serialize
//     cross-lane reads, a fan-in reader waits for every writer it names,
//     and submit rejects every ticket outside the current round (null,
//     pre-join, not yet issued) without corrupting the executor — on
//     the pool and on the inline executor alike, and a task that throws
//     on the inline executor loses its round and re-anchors residency;
//   * 10-run determinism at p = 1/2/4/8 for all four pooled workloads,
//     down to every per-unit counter field (the dealer schedules off
//     declared costs, never wall time), with outputs bit-identical to
//     the serial device;
//   * a 1-unit pool matches a single device in every aggregate counter
//     field (closure, GE, affinity DFT, and the Mlp, conv2d and shared-B
//     batch, whose Device& entry points run the pooled schedule inline);
//   * the contract checker stays green across every workload's round
//     (each lane's mirror is validated at the strict join).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "linalg/batch.hpp"
#include "linalg/gauss.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::InlineExecutor;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::TaskSpec;
using tcu::TaskTicket;
using Complex = tcu::dft::Complex;
using Vert = tcu::graph::Vert;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = rng.uniform(-1, 1);
  }
  return out;
}

Matrix<Complex> random_cbatch(std::size_t b, std::size_t len,
                              std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<Complex> out(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      out(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  return out;
}

/// An Mlp whose layer l maps widths[l] to widths[l + 1] features.
tcu::nn::Mlp make_mlp(const std::vector<std::size_t>& widths = {16, 16, 16,
                                                                16}) {
  tcu::util::Xoshiro256 rng(77);
  tcu::nn::Mlp mlp;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    auto w = random_matrix(widths[l], widths[l + 1], 70 + l);
    std::vector<double> bias(widths[l + 1]);
    for (auto& v : bias) v = rng.uniform(-1, 1);
    mlp.add_layer(tcu::nn::DenseLayer(w, bias));
  }
  return mlp;
}

/// Every field, bitwise — the determinism contract covers the full
/// counter vector including the residency split and evictions (two runs
/// of the same schedule make identical placement decisions).
void expect_counters_bitwise(const Counters& got, const Counters& want,
                             const std::string& what) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.cpu_ops, want.cpu_ops) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
  EXPECT_EQ(got.latency_saved, want.latency_saved) << what;
  EXPECT_EQ(got.evictions, want.evictions) << what;
  EXPECT_EQ(got.tagged_calls, want.tagged_calls) << what;
}

/// Per-unit counters plus the shared-CPU stream, in one flat vector.
template <typename T>
std::vector<Counters> snapshot(const DevicePool<T>& pool) {
  std::vector<Counters> out;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    out.push_back(pool.unit(u).counters());
  }
  out.push_back(pool.cpu());
  return out;
}

void expect_snapshots_bitwise(const std::vector<Counters>& got,
                              const std::vector<Counters>& want,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_counters_bitwise(got[i], want[i],
                            what + " stream " + std::to_string(i));
  }
}

// ---------------------------------------------------------------- runtime

TEST(EpochRuntime, DepChainSerializesCrossLaneReads) {
  DevicePool<double> pool(4, {.m = 16, .latency = 3});
  PoolExecutor<double> exec(pool);
  // Task i extends the value task i-1 wrote. The varying costs spread
  // the chain across lanes, so without the dep the reads would race;
  // the ledger must serialize them regardless of placement.
  std::vector<std::uint64_t> slots(33, 0);
  slots[0] = 1;
  TaskTicket prev{};
  for (std::size_t i = 1; i < slots.size(); ++i) {
    TaskSpec spec{.cost = 1 + (i % 3), .cpu = true};
    if (i > 1) spec.after.push_back(prev);
    prev = exec.submit(std::move(spec), [&slots, i](Device<double>& unit) {
      slots[i] = slots[i - 1] + 1;
      unit.charge_cpu(1);
    });
  }
  exec.join();
  EXPECT_EQ(slots.back(), slots.size());
  // The chain touched more than one lane — the ordering above was the
  // ledger's doing, not an accident of single-lane FIFO.
  std::size_t busy = 0;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    busy += pool.unit(u).counters().cpu_ops > 0;
  }
  EXPECT_GT(busy, 1u);
}

TEST(EpochRuntime, FanInReaderWaitsForEveryWriter) {
  DevicePool<double> pool(4, {.m = 16, .latency = 3});
  PoolExecutor<double> exec(pool);
  // Four writers land on four lanes; one reader names all four tickets —
  // the all-to-all stage ordering the DFT levels and Mlp layers use. The
  // writers are slow, so a reader that started early would miss parts.
  std::vector<std::uint64_t> parts(4, 0);
  std::vector<TaskTicket> writers;
  for (std::size_t u = 0; u < parts.size(); ++u) {
    writers.push_back(exec.submit(
        {.cost = 5, .cpu = true}, [&parts, u](Device<double>& unit) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          parts[u] = u + 1;
          unit.charge_cpu(5);
        }));
  }
  std::vector<std::size_t> lanes;
  for (const TaskTicket& t : writers) lanes.push_back(t.unit);
  std::sort(lanes.begin(), lanes.end());
  EXPECT_EQ(lanes, (std::vector<std::size_t>{0, 1, 2, 3}));
  std::uint64_t total = 0;
  exec.submit({.cost = 1, .after = writers, .cpu = true},
              [&](Device<double>& unit) {
                for (const auto v : parts) total += v;
                unit.charge_cpu(1);
              });
  exec.join();
  EXPECT_EQ(total, 10u);
}

// ------------------------------------------------------ submit contract

/// One executor of each kind over 16-element tiles, with the cpu_ops it
/// has charged so far.
template <typename Exec>
struct ExecutorRig;

template <>
struct ExecutorRig<PoolExecutor<double>> {
  DevicePool<double> pool{2, {.m = 16, .latency = 3}};
  PoolExecutor<double> exec{pool};
  std::uint64_t cpu_ops() const { return pool.aggregate().cpu_ops; }
};

template <>
struct ExecutorRig<InlineExecutor<double>> {
  Device<double> dev{{.m = 16, .latency = 3}};
  InlineExecutor<double> exec{dev};
  std::uint64_t cpu_ops() const { return dev.counters().cpu_ops; }
};

/// Both executors enforce one submit contract, so a schedule written
/// against it runs pooled or inline.
template <typename Exec>
class SubmitContract : public ::testing::Test {
 protected:
  ExecutorRig<Exec> rig_;
};

using Executors =
    ::testing::Types<PoolExecutor<double>, InlineExecutor<double>>;
TYPED_TEST_SUITE(SubmitContract, Executors);

TYPED_TEST(SubmitContract, RejectsEveryTicketOutsideTheEpoch) {
  auto& exec = this->rig_.exec;
  std::atomic<std::uint64_t> ran{0};
  std::uint64_t accepted = 0;
  const auto submit = [&](std::vector<TaskTicket> after) {
    const TaskTicket t = exec.submit(
        {.cost = 1, .after = std::move(after), .cpu = true},
        [&ran](Device<double>& unit) {
          ran.fetch_add(1);
          unit.charge_cpu(1);
        });
    ++accepted;
    return t;
  };
  TaskTicket last;
  // Each case sets up the executor and returns a ticket no dependency
  // may name: the null ticket, one a join already ordered, or one that
  // could never retire.
  const std::vector<std::pair<std::string, std::function<TaskTicket()>>>
      cases = {
          {"default-constructed", [] { return TaskTicket{}; }},
          {"issued before join",
           [&] {
             const TaskTicket old = submit({});
             exec.join();
             last = submit({});
             return old;
           }},
          {"not yet issued",
           [&] { return TaskTicket{.serial = last.serial + 1}; }},
      };
  for (const auto& [what, make_bad] : cases) {
    last = submit({});
    const TaskTicket bad = make_bad();
    // ASSERTs: an accepted bad dep or a leaked serial would stall the
    // joins below, so fail before them (the destructor unblocks waiters).
    ASSERT_THROW(submit({bad}), std::invalid_argument) << what;
    // The rejection leaked no serial: the next ticket follows `last`.
    const TaskTicket next = submit({last});
    ASSERT_EQ(next.serial, last.serial + 1) << what;
    // A dependent of the accepted tasks still runs.
    submit({last, next});
    exec.join();
    EXPECT_EQ(ran.load(), accepted) << what;
  }
}

TYPED_TEST(SubmitContract, CpuTaskWithChainIsRejectedBeforeItsSerial) {
  auto& exec = this->rig_.exec;
  bool ran = false;
  const TaskTicket t0 =
      exec.submit({.cost = 1, .cpu = true},
                  [](Device<double>& unit) { unit.charge_cpu(1); });
  // A CPU task issues no tensor calls, so it cannot realize the hits a
  // declared chain would be credited with.
  EXPECT_THROW(exec.submit({.cost = 1, .chain = {7}, .cpu = true},
                           [&ran](Device<double>&) { ran = true; }),
               std::invalid_argument);
  // The rejection allocated no serial: the next ticket follows t0.
  const TaskTicket t1 =
      exec.submit({.cost = 1, .after = {t0}, .cpu = true},
                  [](Device<double>& unit) { unit.charge_cpu(1); });
  EXPECT_EQ(t1.serial, t0.serial + 1);
  exec.join();
  EXPECT_FALSE(ran);
  EXPECT_EQ(this->rig_.cpu_ops(), 2u);
}

TEST(InlineExecutorFailure, ThrowingTaskRethrowsAndReanchorsResidency) {
  Device<double> dev({.m = 16, .latency = 3, .resident_tiles = 2});
  tcu::check::ScopedCheck<double> check(dev);
  InlineExecutor<double> exec(dev);
  const auto a = random_matrix(8, 4, 1);
  const auto b = random_matrix(4, 4, 2);
  Matrix<double> c(8, 4, 0.0);
  const TaskTicket before =
      exec.submit({.cost = 1, .cpu = true},
                  [](Device<double>& unit) { unit.charge_cpu(1); });
  // The task leaves key 7 resident, then fails before finishing its chain.
  EXPECT_THROW(exec.submit({.cost = 1, .chain = {7, 8}},
                           [&](Device<double>& unit) {
                             unit.gemm_resident(7, a.view(), b.view(),
                                                c.view());
                             throw std::runtime_error("task failed");
                           }),
               std::runtime_error);
  EXPECT_TRUE(dev.tile_cache().entries().empty());
  // The round is lost, as a failed pool round is: its tickets expired.
  EXPECT_THROW(exec.submit({.cost = 1, .after = {before}, .cpu = true},
                           [](Device<double>&) {}),
               std::invalid_argument);
  // Residency was re-anchored, so the checker sees no stale resident set.
  EXPECT_NO_THROW(dev.gemm_resident(9, a.view(), b.view(), c.view()));
  check.verify();
  EXPECT_GT(check.unit(0).checked_calls(), 0u);
}

// ----------------------------------------------------- 10-run determinism

TEST(EpochDeterminism, ClosureTenRunsEveryUnitCount) {
  auto adj = tcu::graph::random_digraph(24, 0.15, 424);
  tcu::graph::AdjMatrix serial_d = adj;
  Device<Vert> dev({.m = 64, .latency = 7});
  tcu::graph::closure_tcu(dev, serial_d.view());

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    std::vector<Counters> first;
    for (int run = 0; run < 10; ++run) {
      tcu::graph::AdjMatrix d = adj;
      DevicePool<Vert> pool(p, {.m = 64, .latency = 7});
      PoolExecutor<Vert> exec(pool);
      tcu::graph::closure_tcu(exec, d.view());
      ASSERT_EQ(d, serial_d) << "p=" << p << " run=" << run;
      auto snap = snapshot(pool);
      if (run == 0) {
        first = std::move(snap);
      } else {
        expect_snapshots_bitwise(
            snap, first, "closure p=" + std::to_string(p));
      }
    }
  }
}

TEST(EpochDeterminism, GaussTenRunsEveryUnitCount) {
  auto x = random_matrix(24, 24, 520);
  Matrix<double> serial_x = x;
  Device<double> dev({.m = 16, .latency = 5});
  tcu::linalg::ge_forward_tcu(dev, serial_x.view());

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    std::vector<Counters> first;
    for (int run = 0; run < 10; ++run) {
      Matrix<double> got = x;
      DevicePool<double> pool(p, {.m = 16, .latency = 5});
      PoolExecutor<double> exec(pool);
      tcu::linalg::ge_forward_tcu_pool(exec, got.view());
      ASSERT_EQ(got, serial_x) << "p=" << p << " run=" << run;
      auto snap = snapshot(pool);
      if (run == 0) {
        first = std::move(snap);
      } else {
        expect_snapshots_bitwise(snap, first, "GE p=" + std::to_string(p));
      }
    }
  }
}

TEST(EpochDeterminism, DftTenRunsEveryUnitCount) {
  auto batch = random_cbatch(3, 24, 624);
  Matrix<Complex> serial_batch = batch;
  Device<Complex> dev({.m = 16, .latency = 11});
  tcu::dft::dft_batch_tcu(dev, serial_batch.view(), {.affinity = true});

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    std::vector<Counters> first;
    for (int run = 0; run < 10; ++run) {
      Matrix<Complex> got = batch;
      DevicePool<Complex> pool(p, {.m = 16, .latency = 11});
      PoolExecutor<Complex> exec(pool);
      tcu::dft::dft_batch_tcu(exec, got.view(), {.affinity = true});
      ASSERT_EQ(got, serial_batch) << "p=" << p << " run=" << run;
      auto snap = snapshot(pool);
      if (run == 0) {
        first = std::move(snap);
      } else {
        expect_snapshots_bitwise(snap, first, "DFT p=" + std::to_string(p));
      }
    }
  }
}

TEST(EpochDeterminism, MlpTenRunsEveryUnitCount) {
  const auto mlp = make_mlp();
  const auto batch = random_matrix(16, 16, 724);
  Device<double> dev({.m = 16, .latency = 3});
  const auto expect = mlp.forward(dev, batch.view());

  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    std::vector<Counters> first;
    for (int run = 0; run < 10; ++run) {
      DevicePool<double> pool(p, {.m = 16, .latency = 3});
      PoolExecutor<double> exec(pool);
      const auto got = mlp.forward(exec, batch.view());
      ASSERT_EQ(got, expect) << "p=" << p << " run=" << run;
      auto snap = snapshot(pool);
      if (run == 0) {
        first = std::move(snap);
      } else {
        expect_snapshots_bitwise(snap, first, "Mlp p=" + std::to_string(p));
      }
    }
  }
}

// ---------------------------------------------------------------- one unit

TEST(EpochOneUnit, MatchesSerialInEveryField) {
  // With one lane nothing is split or re-dealt: every task runs on unit 0
  // in submit order, so the aggregate (unit + shared CPU) must equal a
  // single device's counters in every field, latency split included.
  {
    auto adj = tcu::graph::random_digraph(24, 0.15, 924);
    tcu::graph::AdjMatrix serial_d = adj, pool_d = adj;
    Device<Vert> dev({.m = 64, .latency = 7});
    tcu::graph::closure_tcu(dev, serial_d.view());
    DevicePool<Vert> pool(1, {.m = 64, .latency = 7});
    PoolExecutor<Vert> exec(pool);
    tcu::graph::closure_tcu(exec, pool_d.view());
    EXPECT_EQ(pool_d, serial_d);
    expect_counters_bitwise(pool.aggregate(), dev.counters(), "closure p=1");
  }
  {
    auto x = random_matrix(24, 24, 925);
    Matrix<double> serial_x = x, pool_x = x;
    Device<double> dev({.m = 16, .latency = 5});
    tcu::linalg::ge_forward_tcu(dev, serial_x.view());
    DevicePool<double> pool(1, {.m = 16, .latency = 5});
    PoolExecutor<double> exec(pool);
    tcu::linalg::ge_forward_tcu_pool(exec, pool_x.view());
    EXPECT_EQ(pool_x, serial_x);
    expect_counters_bitwise(pool.aggregate(), dev.counters(), "GE p=1");
  }
  {
    auto batch = random_cbatch(3, 24, 926);
    Matrix<Complex> serial_b = batch, pool_b = batch;
    Device<Complex> dev({.m = 16, .latency = 11});
    tcu::dft::dft_batch_tcu(dev, serial_b.view(), {.affinity = true});
    DevicePool<Complex> pool(1, {.m = 16, .latency = 11});
    PoolExecutor<Complex> exec(pool);
    tcu::dft::dft_batch_tcu(exec, pool_b.view(), {.affinity = true});
    EXPECT_EQ(pool_b, serial_b);
    expect_counters_bitwise(pool.aggregate(), dev.counters(), "DFT p=1");
  }
  // The dense products' Device& entry points run their pooled schedules
  // on an InlineExecutor. Against a 1-lane pool at tile-cache capacities
  // 1, 2 and 64, over two successive calls (the second starts from the
  // residency the first left), each must match in bits and every field.
  const auto dense_case = [](const std::string& what, const auto& run) {
    for (const std::size_t tiles : {1u, 2u, 64u}) {
      Device<double> dev({.m = 16, .latency = 3, .resident_tiles = tiles});
      DevicePool<double> pool(1,
                              {.m = 16, .latency = 3, .resident_tiles = tiles});
      PoolExecutor<double> exec(pool);
      for (int call = 0; call < 2; ++call) {
        const std::string tag = what + " p=1 tiles=" + std::to_string(tiles) +
                                " call=" + std::to_string(call);
        const auto expect = run(dev);
        EXPECT_EQ(run(exec), expect) << tag;
        expect_counters_bitwise(pool.aggregate(), dev.counters(), tag);
      }
    }
  };
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> mlps = {
      {"Mlp", {16, 16, 16, 16}}, {"Mlp ragged width", {16, 10, 7}}};
  for (const auto& [name, widths] : mlps) {
    const auto mlp = make_mlp(widths);
    for (const std::size_t rows : {16u, 13u}) {
      const auto in = random_matrix(rows, widths.front(), 927);
      dense_case(name + " rows=" + std::to_string(rows),
                 [&](auto& on) { return mlp.forward(on, in.view()); });
    }
  }
  {
    // 2 channels of 6 x 7 through 3 filters of 3 x 3: an 18-tap bank
    // padded to a 5-tile chain.
    const auto input = random_matrix(12, 7, 928);
    const auto filters = random_matrix(3, 18, 929);
    dense_case("conv2d", [&](auto& on) {
      if constexpr (std::is_same_v<std::decay_t<decltype(on)>,
                                   Device<double>>) {
        return tcu::nn::conv2d_tcu(on, input.view(), 2, filters.view(), 3, 3);
      } else {
        return tcu::nn::conv2d_tcu_pool(on, input.view(), 2, filters.view(),
                                        3, 3);
      }
    });
  }
  for (const auto& [rows, inner, cols] :
       {std::tuple{8u, 8u, 12u}, std::tuple{5u, 6u, 7u}}) {
    std::vector<Matrix<double>> batch;
    for (std::uint64_t i = 0; i < 3; ++i) {
      batch.push_back(random_matrix(rows, inner, 930 + i));
    }
    const auto b = random_matrix(inner, cols, 933);
    dense_case("shared-B batch " + std::to_string(rows) + "x" +
                   std::to_string(inner) + "x" + std::to_string(cols),
               [&](auto& on) {
                 return tcu::linalg::matmul_batch_shared_b(on, batch, b.view());
               });
  }
}

// ----------------------------------------------------------------- checker

TEST(EpochCheck, AllWorkloadsPassWithCheckerAttached) {
  // The strict join compares each lane's dealer mirror to the unit's
  // live resident set, and every task's realized hits to the dealer's
  // prediction; any divergence surfaces at the join.
  {
    DevicePool<Vert> pool(4, {.m = 64, .latency = 7});
    tcu::check::ScopedCheck<Vert> check(pool);
    auto adj = tcu::graph::random_digraph(24, 0.15, 1024);
    tcu::graph::AdjMatrix serial_d = adj;
    Device<Vert> dev({.m = 64, .latency = 7});
    tcu::graph::closure_tcu(dev, serial_d.view());
    PoolExecutor<Vert> exec(pool);
    tcu::graph::closure_tcu(exec, adj.view());
    EXPECT_EQ(adj, serial_d);
    check.verify();
  }
  {
    DevicePool<double> pool(4, {.m = 16, .latency = 5});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    auto x = random_matrix(24, 24, 1025);
    Matrix<double> serial_x = x;
    Device<double> dev({.m = 16, .latency = 5});
    tcu::linalg::ge_forward_tcu(dev, serial_x.view());
    tcu::linalg::ge_forward_tcu_pool(exec, x.view());
    EXPECT_EQ(x, serial_x);

    const auto mlp = make_mlp();
    const auto in = random_matrix(16, 16, 1026);
    Device<double> mdev({.m = 16, .latency = 5});
    const auto expect = mlp.forward(mdev, in.view());
    const auto got = mlp.forward(exec, in.view());
    EXPECT_EQ(got, expect);
    check.verify();
  }
  {
    DevicePool<Complex> pool(4, {.m = 16, .latency = 11});
    tcu::check::ScopedCheck<Complex> check(pool);
    PoolExecutor<Complex> exec(pool);
    auto batch = random_cbatch(3, 24, 1027);
    Matrix<Complex> serial_b = batch;
    Device<Complex> dev({.m = 16, .latency = 11});
    tcu::dft::dft_batch_tcu(dev, serial_b.view(), {.affinity = true});
    tcu::dft::dft_batch_tcu(exec, batch.view(), {.affinity = true});
    EXPECT_EQ(batch, serial_b);
    check.verify();
  }
}

}  // namespace
