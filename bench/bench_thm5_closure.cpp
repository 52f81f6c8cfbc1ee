// THM5 — transitive closure,
// Theta(n^3/sqrt(m) + (n^2/m) l + n^2 sqrt(m)).
//
// Random digraphs across densities; reports ratio vs the closed form and
// speedup over the Figure 5 RAM loop.

#include "bench_common.hpp"
#include "core/costs.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"

namespace {

void BM_ClosureTcu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const double density = static_cast<double>(state.range(2)) / 100.0;
  auto adj = tcu::graph::random_digraph(n, density, 1000 + n + m);
  tcu::Device<tcu::graph::Vert> dev({.m = m, .latency = 32});
  for (auto _ : state) {
    dev.reset();
    auto work = adj;
    tcu::graph::closure_tcu(dev, work.view());
    benchmark::DoNotOptimize(work.data());
  }
  tcu::bench::report(state, dev.counters(),
                     tcu::costs::thm5_closure(static_cast<double>(n),
                                              static_cast<double>(m), 32.0));
  tcu::Counters ram;
  auto work = adj;
  tcu::graph::closure_naive(work.view(), ram);
  state.counters["speedup_vs_ram"] =
      static_cast<double>(ram.time()) /
      static_cast<double>(dev.counters().time());
}

}  // namespace

BENCHMARK(BM_ClosureTcu)
    ->ArgsProduct({{64, 128, 256}, {64, 256}, {2, 10}})
    ->ArgNames({"n", "m", "density_pct"})
    ->Iterations(1);

BENCHMARK_MAIN();
