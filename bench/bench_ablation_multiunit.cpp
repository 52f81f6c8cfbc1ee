// ABL4 — multiple parallel tensor units (§3.1's deferred feature).
//
// Dense Theorem 2 multiplication on a DevicePool of p units: output
// strips are dealt greedily. Reports makespan vs the single-unit time
// (ideal speedup = p when strips >> p), total work conservation, and the
// efficiency loss when the strip count does not divide p.

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "linalg/parallel.hpp"

namespace {

void BM_MultiUnitDense(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto units = static_cast<std::size_t>(state.range(1));
  const auto ell = static_cast<std::uint64_t>(state.range(2));
  auto a = tcu::bench::random_matrix(d, d, 3200 + d);
  auto b = tcu::bench::random_matrix(d, d, 3300 + d);
  tcu::DevicePool<double> pool(units, {.m = 256, .latency = ell});
  for (auto _ : state) {
    pool.reset();
    tcu::PoolExecutor<double> exec(pool);
    auto c = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    benchmark::DoNotOptimize(c.data());
  }
  tcu::Device<double> single({.m = 256, .latency = ell});
  (void)tcu::linalg::matmul_tcu(single, a.view(), b.view());
  const auto makespan = static_cast<double>(pool.makespan());
  const auto single_time = static_cast<double>(single.counters().time());
  state.counters["units"] = static_cast<double>(units);
  state.counters["makespan"] = makespan;
  state.counters["single_unit_time"] = single_time;
  state.counters["speedup"] = single_time / makespan;
  state.counters["efficiency"] =
      single_time / makespan / static_cast<double>(units);
}

}  // namespace

BENCHMARK(BM_MultiUnitDense)
    ->ArgsProduct({{128, 256, 512}, {1, 2, 4, 8, 16}, {0, 1024}})
    ->ArgNames({"d", "units", "l"})
    ->Iterations(1);

BENCHMARK_MAIN();
