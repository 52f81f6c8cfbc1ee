// POOL1 — scaling and scheduling of the worker-thread pool runtime.
//
// Two experiments, both emitted to BENCH_pool_scaling.json:
//
// BM_PoolScaling: a dense Theorem 2 multiplication repeated over several
// rounds on a DevicePool of p = 1/2/4/8 units, all rounds through ONE
// persistent PoolExecutor (join() reseeds the projections, so no thread
// churn between rounds). Reports:
//   wall time            — google-benchmark's real time of the run;
//   wall_speedup         — serial single-device wall time / pool wall
//                          time (needs >= p physical cores to approach p);
//   sim_speedup          — single-unit simulated time / pool makespan,
//                          the model-level speedup (machine-independent);
//                          exactly p here: the strips divide evenly;
//   counters_match       — 1 iff the aggregated pool counters are
//                          bit-identical to the serial schedule's.
//
// BM_BatchAffinity: a steady stream of batched products against one
// shared B (the §3 asymmetry workload), comparing PR 1's pure
// least-loaded dealer — which re-loads every B tile each round — against
// the tile-affinity scheduler, which routes each output strip back to the
// lane whose unit still holds its tile and skips the re-load latency
// (Device::gemm_resident). Affinity strictly reduces the simulated
// latency cost; the resident-hit counters prove the savings.

#include <chrono>

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "linalg/batch.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"

namespace {

tcu::bench::PoolBenchJson json_out("pool_scaling");

// 8 or 16 output strips: both divide every benched unit count, so the
// greedy schedule balances exactly and sim_speedup == p.
std::size_t dim() { return tcu::bench::bench_tiny() ? 512 : 1024; }
constexpr std::size_t kM = 4096;  // sqrt(m) = 64 -> 16 output strips
constexpr std::uint64_t kEll = 1024;
constexpr int kRounds = 3;

void BM_PoolScaling(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t d = dim();
  auto a = tcu::bench::random_matrix(d, d, 9100);
  auto b = tcu::bench::random_matrix(d, d, 9200);

  // Serial reference schedule (same number of rounds), timed here so
  // every instance carries its own wall baseline.
  tcu::Device<double> single({.m = kM, .latency = kEll});
  const auto s0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    auto c_single = tcu::linalg::matmul_tcu(single, a.view(), b.view());
    benchmark::DoNotOptimize(c_single.data());
  }
  const auto s1 = std::chrono::steady_clock::now();
  const double serial_wall_seconds =
      std::chrono::duration<double>(s1 - s0).count();

  tcu::DevicePool<double> pool(units, {.m = kM, .latency = kEll});
  double wall_seconds = 0.0;
  for (auto _ : state) {
    pool.reset();
    const auto t0 = std::chrono::steady_clock::now();
    // One executor for all rounds: thread startup is paid once, and each
    // join() reseeds the greedy projections for the next round.
    tcu::PoolExecutor<double> exec(pool);
    for (int r = 0; r < kRounds; ++r) {
      auto c = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
      benchmark::DoNotOptimize(c.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  const tcu::Counters agg = pool.aggregate();
  const tcu::Counters& ref = single.counters();
  const bool match = tcu::bench::counters_match_serial(agg, ref);
  const double sim_speedup =
      static_cast<double>(ref.time()) / static_cast<double>(pool.makespan());

  state.counters["units"] = static_cast<double>(units);
  state.counters["wall_seconds"] = wall_seconds;
  state.counters["wall_speedup"] = serial_wall_seconds / wall_seconds;
  state.counters["sim_speedup"] = sim_speedup;
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  tcu::bench::report(state, agg, static_cast<double>(ref.time()));

  json_out.add({.name = "pool_scaling",
                .p = units,
                .sim_cost = pool.makespan(),
                .sim_speedup = sim_speedup,
                .counters_match = match,
                .extra = {}});
}

void BM_BatchAffinity(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t s = 64;  // sqrt(kM)
  // One output tile per unit: after round 1 every unit holds exactly the
  // tile its strip reuses, so every later round is all hits.
  const std::size_t out_tiles = units;
  const std::size_t batch_items = 8;
  const int rounds = tcu::bench::bench_tiny() ? 4 : 16;

  // B is one tile row (inner dim = sqrt(m)): each output strip is a
  // single-tile chain, the §3 "apply the same model to k vectors" shape.
  auto b = tcu::bench::random_matrix(s, out_tiles * s, 9300);
  std::vector<tcu::Matrix<double>> batch;
  for (std::size_t t = 0; t < batch_items; ++t) {
    batch.push_back(tcu::bench::random_matrix(s, s, 9400 + t));
  }

  // PR 1 dealer: the same batched API with affinity off — least-loaded
  // only, every round re-loads every tile.
  tcu::DevicePool<double> pool_plain(units, {.m = kM, .latency = kEll});
  {
    tcu::PoolExecutor<double> exec(pool_plain);
    for (int r = 0; r < rounds; ++r) {
      auto out = tcu::linalg::matmul_batch_shared_b(exec, batch, b.view(),
                                                    {.affinity = false});
      benchmark::DoNotOptimize(out.data());
    }
  }

  // Affinity dealer: strips chase their resident tiles across rounds.
  tcu::DevicePool<double> pool_affine(units, {.m = kM, .latency = kEll});
  double wall_seconds = 0.0;
  for (auto _ : state) {
    pool_affine.reset();
    const auto t0 = std::chrono::steady_clock::now();
    tcu::PoolExecutor<double> exec(pool_affine);
    for (int r = 0; r < rounds; ++r) {
      auto out = tcu::linalg::matmul_batch_shared_b(exec, batch, b.view());
      benchmark::DoNotOptimize(out.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  const tcu::Counters affine = pool_affine.aggregate();
  const tcu::Counters plain = pool_plain.aggregate();
  // Affinity must strictly reduce the simulated latency cost, the saving
  // must be exactly the recorded hits times l, and — the PR 2 regression
  // guard — the capacity-1 single-tile-chain hit count must stay at its
  // closed form: every strip hits its lane's tile in every round after
  // the first.
  const std::uint64_t expected_hits =
      static_cast<std::uint64_t>(units) * (rounds - 1);
  const bool latency_reduced =
      affine.latency_time < plain.latency_time &&
      affine.latency_time + affine.latency_saved == plain.latency_time &&
      affine.tensor_macs == plain.tensor_macs &&
      affine.resident_hits == expected_hits;

  state.counters["units"] = static_cast<double>(units);
  state.counters["wall_seconds"] = wall_seconds;
  state.counters["latency_plain"] = static_cast<double>(plain.latency_time);
  state.counters["latency_affine"] = static_cast<double>(affine.latency_time);
  state.counters["resident_hits"] = static_cast<double>(affine.resident_hits);
  state.counters["latency_saved"] = static_cast<double>(affine.latency_saved);
  state.counters["sim_speedup"] =
      static_cast<double>(plain.time()) /
      static_cast<double>(pool_affine.makespan());
  state.counters["counters_match"] = latency_reduced ? 1.0 : 0.0;

  json_out.add(
      {.name = "batch_affinity",
       .p = units,
       .cache_capacity = 1,
       .sim_cost = pool_affine.makespan(),
       .sim_speedup = static_cast<double>(plain.time()) /
                      static_cast<double>(pool_affine.makespan()),
       .counters_match = latency_reduced,
       .resident_hits = affine.resident_hits,
       .latency_saved = affine.latency_saved,
       .evictions = affine.evictions,
       .extra = {{"latency_plain", static_cast<double>(plain.latency_time)},
                 {"latency_affine",
                  static_cast<double>(affine.latency_time)}}});
}

}  // namespace

BENCHMARK(BM_PoolScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgNames({"units"})
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_BatchAffinity)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"units"})
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK_MAIN();
