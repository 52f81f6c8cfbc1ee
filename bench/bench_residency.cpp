// POOL3 — multi-tile residency: the cache-capacity sweep behind the LRU
// TileCache and chain-aware affinity dealing. Emitted to
// BENCH_residency.json with cache_capacity / resident_hits /
// latency_saved / evictions columns.
//
// BM_MlpResidency: repeated forwards of an Mlp whose layers span k = 4
// (and, at depth 2, k = p) B-tiles, one reused executor, swept over
// c in {1, 2, 4, 8}. Once c covers a lane's working set, every weight
// tile's load latency is charged exactly once per lane — all later
// rounds are hits, verified by the closed-form latency_saved — while
// below it the chains LRU-thrash and save nothing. Outputs and every
// counter except the latency split stay bit-identical to the serial
// device at every c (c = 1 is the single-slot PR 2 model).
//
// BM_SplitResidency: a deep single-strip product (chain k > c) compared
// between whole-chain dealing — which cannot parallelize one strip and
// thrashes its cache — and split_chains dealing, which spreads the k
// tiles over the lanes so each lane's share fits its cache: each tile's
// load is paid once per owning lane and every later round is all hits.

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "nn/layers.hpp"

namespace {

tcu::bench::PoolBenchJson json_out("residency");

std::size_t units() { return tcu::bench::bench_tiny() ? 2 : 4; }
std::size_t tile_m() { return tcu::bench::bench_tiny() ? 64 : 4096; }
constexpr std::uint64_t kEll = 1024;
int rounds() { return tcu::bench::bench_tiny() ? 4 : 8; }

/// Integer-valued doubles: exact arithmetic, so the split_chains combine
/// (which reassociates sums) still compares bit-for-bit against serial.
tcu::Matrix<double> random_int_valued(std::size_t r, std::size_t c,
                                      std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  tcu::Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out(i, j) = static_cast<double>(rng.uniform_int(-4, 4));
    }
  }
  return out;
}

void BM_MlpResidency(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  const std::size_t p = units();
  const std::size_t m = tile_m();
  const std::size_t s = tcu::exact_sqrt(m);
  const int R = rounds();

  // Layer 1 spans k = 4 B-tiles per strip (in = 4s), one strip per lane
  // (out = p*s); the optional layer 2 spans k = p tiles. A lane's working
  // set is 4 tiles at depth 1 and 4 + p at depth 2.
  tcu::nn::Mlp mlp;
  tcu::util::Xoshiro256 rng(9700);
  std::vector<std::size_t> widths{4 * s, p * s};
  if (depth == 2) widths.push_back(p * s);
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    auto w = random_int_valued(widths[l], widths[l + 1], 9710 + l);
    std::vector<double> bias(widths[l + 1]);
    for (auto& v : bias) v = static_cast<double>(rng.uniform_int(-2, 2));
    mlp.add_layer(tcu::nn::DenseLayer(w, bias));
  }
  auto batch = random_int_valued(2 * s, 4 * s, 9720);

  // Serial reference: untagged device, reloads every tile every round.
  tcu::Device<double> single({.m = m, .latency = kEll});
  tcu::Matrix<double> expect;
  for (int r = 0; r < R; ++r) expect = mlp.forward(single, batch.view());

  tcu::DevicePool<double> pool(p, {.m = m,
                                   .latency = kEll,
                                   .resident_tiles = c});
  tcu::Matrix<double> got;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    pool.reset();
    const auto t0 = std::chrono::steady_clock::now();
    tcu::PoolExecutor<double> exec(pool);
    for (int r = 0; r < R; ++r) got = mlp.forward(exec, batch.view());
    const auto t1 = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  const tcu::Counters agg = pool.aggregate();
  const tcu::Counters& ref = single.counters();
  const std::size_t working_set = depth == 2 ? 4 + p : 4;
  // Total weight tiles across all layers and lanes.
  const std::uint64_t tiles = depth == 2 ? 4 * p + p * p : 4 * p;

  bool match = got == expect && agg.tensor_macs == ref.tensor_macs &&
               agg.tensor_calls == ref.tensor_calls &&
               agg.latency_time + agg.latency_saved == ref.latency_time;
  if (c >= working_set) {
    // The acceptance contract: each weight tile's load latency exactly
    // once per lane; every visit after the first round is a hit.
    match = match && agg.latency_time == tiles * kEll &&
            agg.resident_hits == tiles * static_cast<std::uint64_t>(R - 1) &&
            agg.latency_saved ==
                tiles * static_cast<std::uint64_t>(R - 1) * kEll &&
            agg.evictions == 0;
  } else {
    // Chains longer than the cache LRU-thrash: no hits, full reloads.
    match = match && agg.resident_hits == 0 &&
            agg.latency_time == ref.latency_time;
  }

  state.counters["units"] = static_cast<double>(p);
  state.counters["cache_capacity"] = static_cast<double>(c);
  state.counters["wall_seconds"] = wall_seconds;
  state.counters["resident_hits"] = static_cast<double>(agg.resident_hits);
  state.counters["latency_saved"] = static_cast<double>(agg.latency_saved);
  state.counters["evictions"] = static_cast<double>(agg.evictions);
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  tcu::bench::report(state, agg, static_cast<double>(ref.time()));

  json_out.add({.name = depth == 2 ? "mlp_residency_d2" : "mlp_residency_d1",
                .p = p,
                .cache_capacity = c,
                .sim_cost = pool.makespan(),
                .sim_speedup = static_cast<double>(ref.time()) /
                               static_cast<double>(pool.makespan()),
                .counters_match = match,
                .resident_hits = agg.resident_hits,
                .latency_saved = agg.latency_saved,
                .evictions = agg.evictions,
                .extra = {{"latency_serial",
                           static_cast<double>(ref.latency_time)},
                          {"latency_affine",
                           static_cast<double>(agg.latency_time)}}});
}

void BM_SplitResidency(benchmark::State& state) {
  const std::size_t p = units();
  const std::size_t m = tile_m();
  const std::size_t s = tcu::exact_sqrt(m);
  const int R = rounds();
  const std::size_t k = 2 * p;  // chain depth: 2 tiles per lane when split
  const std::size_t c = 2;      // below k: whole chains must thrash

  auto a = random_int_valued(2 * s, k * s, 9800);
  auto b = random_int_valued(k * s, s, 9801);  // ONE strip

  tcu::Device<double> single({.m = m, .latency = kEll});
  tcu::Matrix<double> expect;
  for (int r = 0; r < R; ++r) {
    expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  }

  // Whole-chain dealing: a single strip is one task — no parallelism and
  // a k-long chain cycling through a c-entry cache.
  tcu::DevicePool<double> pool_whole(p, {.m = m,
                                         .latency = kEll,
                                         .resident_tiles = c});
  tcu::Matrix<double> got_whole;
  {
    tcu::PoolExecutor<double> exec(pool_whole);
    for (int r = 0; r < R; ++r) {
      got_whole = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view(),
                                               {.affinity = true});
    }
  }

  tcu::DevicePool<double> pool_split(p, {.m = m,
                                         .latency = kEll,
                                         .resident_tiles = c});
  tcu::Matrix<double> got_split;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    pool_split.reset();
    const auto t0 = std::chrono::steady_clock::now();
    tcu::PoolExecutor<double> exec(pool_split);
    for (int r = 0; r < R; ++r) {
      got_split = tcu::linalg::matmul_tcu_pool(
          exec, a.view(), b.view(),
          {.affinity = true, .split_chains = true});
    }
    const auto t1 = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  const tcu::Counters whole = pool_whole.aggregate();
  const tcu::Counters split = pool_split.aggregate();
  const tcu::Counters& ref = single.counters();
  const bool match =
      got_whole == expect && got_split == expect &&
      split.tensor_macs == ref.tensor_macs &&
      split.tensor_calls == ref.tensor_calls &&
      // Whole chains thrash at c < k...
      whole.resident_hits == 0 && whole.latency_time == ref.latency_time &&
      // ...while the split pays each tile once per owning lane, ever.
      split.latency_time == k * kEll &&
      split.resident_hits == k * static_cast<std::uint64_t>(R - 1) &&
      split.latency_saved == k * static_cast<std::uint64_t>(R - 1) * kEll;

  state.counters["units"] = static_cast<double>(p);
  state.counters["cache_capacity"] = static_cast<double>(c);
  state.counters["wall_seconds"] = wall_seconds;
  state.counters["resident_hits"] = static_cast<double>(split.resident_hits);
  state.counters["latency_saved"] = static_cast<double>(split.latency_saved);
  state.counters["latency_whole"] = static_cast<double>(whole.latency_time);
  state.counters["latency_split"] = static_cast<double>(split.latency_time);
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  tcu::bench::report(state, split, static_cast<double>(ref.time()));

  json_out.add({.name = "split_residency",
                .p = p,
                .cache_capacity = c,
                .sim_cost = pool_split.makespan(),
                .sim_speedup = static_cast<double>(ref.time()) /
                               static_cast<double>(pool_split.makespan()),
                .counters_match = match,
                .resident_hits = split.resident_hits,
                .latency_saved = split.latency_saved,
                .evictions = split.evictions,
                .extra = {{"latency_whole",
                           static_cast<double>(whole.latency_time)},
                          {"latency_split",
                           static_cast<double>(split.latency_time)}}});
}

}  // namespace

BENCHMARK(BM_MlpResidency)
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({4, 2})->Args({8, 2})
    ->ArgNames({"c", "depth"})
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_SplitResidency)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK_MAIN();
