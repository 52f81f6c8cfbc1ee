// XOVER — where the tensor unit wins and where it loses.
//
// The model discussion (§3.1) implies crossovers in m and l: the TCU's
// n^{3/2}/sqrt(m) work term beats any RAM algorithm for large n, but
// latency-dominated regimes (small problems, huge l) favour the CPU, and
// sub-cubic RAM algorithms (Strassen) narrow the gap. This bench maps the
// frontier for dense MM, DFT and transitive closure.

#include "bench_common.hpp"
#include "dft/dft.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "linalg/strassen.hpp"

namespace {

void BM_DenseCrossover(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto ell = static_cast<std::uint64_t>(state.range(2));
  auto a = tcu::bench::random_matrix(d, d, 2000 + d);
  auto b = tcu::bench::random_matrix(d, d, 2100 + d);
  tcu::Device<double> dev({.m = m, .latency = ell});
  for (auto _ : state) {
    dev.reset();
    auto c = tcu::linalg::matmul_tcu(dev, a.view(), b.view());
    benchmark::DoNotOptimize(c.data());
  }
  tcu::Counters naive, strassen;
  (void)tcu::linalg::matmul_naive<double>(a.view(), b.view(), naive);
  (void)tcu::linalg::matmul_strassen_ram<double>(a.view(), b.view(),
                                                 strassen, 32);
  const auto tcu_time = static_cast<double>(dev.counters().time());
  state.counters["tcu_time"] = tcu_time;
  state.counters["naive_ram_time"] = static_cast<double>(naive.time());
  state.counters["strassen_ram_time"] =
      static_cast<double>(strassen.time());
  state.counters["tcu_wins_vs_naive"] =
      static_cast<double>(naive.time()) > tcu_time ? 1.0 : 0.0;
  state.counters["tcu_wins_vs_strassen"] =
      static_cast<double>(strassen.time()) > tcu_time ? 1.0 : 0.0;
}

void BM_DftCrossover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto ell = static_cast<std::uint64_t>(state.range(2));
  tcu::util::Xoshiro256 rng(2200 + n);
  tcu::dft::CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  tcu::Device<tcu::dft::Complex> dev({.m = m, .latency = ell});
  for (auto _ : state) {
    dev.reset();
    auto y = tcu::dft::dft_tcu(dev, x);
    benchmark::DoNotOptimize(y.data());
  }
  tcu::Counters fft;
  (void)tcu::dft::fft_ram(x, fft);
  const auto tcu_time = static_cast<double>(dev.counters().time());
  state.counters["tcu_time"] = tcu_time;
  state.counters["fft_ram_time"] = static_cast<double>(fft.time());
  state.counters["tcu_wins"] =
      static_cast<double>(fft.time()) > tcu_time ? 1.0 : 0.0;
}

void BM_ClosureCrossover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  auto adj = tcu::graph::random_digraph(n, 0.05, 2300 + n);
  tcu::Device<tcu::graph::Vert> dev({.m = m, .latency = 64});
  for (auto _ : state) {
    dev.reset();
    auto work = adj;
    tcu::graph::closure_tcu(dev, work.view());
    benchmark::DoNotOptimize(work.data());
  }
  tcu::Counters ram;
  auto work = adj;
  tcu::graph::closure_naive(work.view(), ram);
  const auto tcu_time = static_cast<double>(dev.counters().time());
  state.counters["tcu_time"] = tcu_time;
  state.counters["ram_time"] = static_cast<double>(ram.time());
  state.counters["tcu_wins"] =
      static_cast<double>(ram.time()) > tcu_time ? 1.0 : 0.0;
}

}  // namespace

BENCHMARK(BM_DenseCrossover)
    ->ArgsProduct({{32, 64, 128, 256}, {256}, {0, 16384, 262144}})
    ->ArgNames({"d", "m", "l"})
    ->Iterations(1);
BENCHMARK(BM_DftCrossover)
    ->ArgsProduct({{8192, 65536}, {256, 4096, 65536}, {0, 65536}})
    ->ArgNames({"n", "m", "l"})
    ->Iterations(1);
BENCHMARK(BM_ClosureCrossover)
    ->ArgsProduct({{64, 128, 256}, {64, 1024}})
    ->ArgNames({"n", "m"})
    ->Iterations(1);

BENCHMARK_MAIN();
