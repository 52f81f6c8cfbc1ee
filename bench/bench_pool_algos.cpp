// POOL2 — the pool-parallel algorithm paths beyond dense matmul:
// Strassen (Theorem 1 leaves fanned out over units), transitive closure
// (Theorem 5 kernel-D block columns), Seidel APSD (Theorem 6 products),
// the batched DFT (Theorem 7 levels row-split), and the remaining tensor
// workloads — stencils (Theorem 8 batched convolutions), Gaussian
// elimination kernel-D panels (Theorem 4), and conv2d/im2col. Each
// configuration reports the machine-independent signals — pool makespan
// (sim_cost), serial simulated time / makespan (sim_speedup), and
// counters_match, the bit-identity of the pool aggregate with the serial
// schedule — and appends them to BENCH_pool_algos.json. The DFT's
// contract is match-modulo-reload-latency (each unit loads the level's
// Fourier tile once). The stencil and conv2d paths are residency-tagged
// on both sides, so their contract is the chunked-call relation: every
// extra tensor call from the row split accounts exactly one extra l,
// paid on a first touch or saved on a resident hit — and their records
// carry the aggregate residency counters; GE matches serial in every
// field including the residency split.

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "linalg/gauss.hpp"
#include "linalg/strassen.hpp"
#include "nn/layers.hpp"
#include "stencil/stencil.hpp"

namespace {

tcu::bench::PoolBenchJson json_out("pool_algos");

constexpr std::uint64_t kEll = 256;

void record(benchmark::State& state, const char* name, std::size_t units,
            std::uint64_t makespan, const tcu::Counters& ref, bool match) {
  const double sim_speedup =
      static_cast<double>(ref.time()) / static_cast<double>(makespan);
  state.counters["units"] = static_cast<double>(units);
  state.counters["sim_speedup"] = sim_speedup;
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  tcu::bench::report(state, ref, static_cast<double>(ref.time()));
  json_out.add({.name = name,
                .p = units,
                .sim_cost = makespan,
                .sim_speedup = sim_speedup,
                .counters_match = match,
                .extra = {}});
}

void BM_StrassenPool(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t d = tcu::bench::bench_tiny() ? 64 : 256;
  const std::size_t m = tcu::bench::bench_tiny() ? 64 : 1024;
  auto a = tcu::bench::random_matrix(d, d, 9500);
  auto b = tcu::bench::random_matrix(d, d, 9501);

  tcu::Device<double> single({.m = m, .latency = kEll});
  auto expect =
      tcu::linalg::matmul_strassen_tcu(single, a.view(), b.view());

  tcu::DevicePool<double> pool(units, {.m = m, .latency = kEll});
  tcu::Matrix<double> got;
  for (auto _ : state) {
    pool.reset();
    tcu::PoolExecutor<double> exec(pool);
    got = tcu::linalg::matmul_strassen_tcu_pool(exec, a.view(), b.view());
    benchmark::DoNotOptimize(got.data());
  }
  const bool match =
      got == expect &&
      tcu::bench::counters_match_serial(pool.aggregate(), single.counters());
  record(state, "strassen_pool", units, pool.makespan(), single.counters(),
         match);
}

void BM_ClosurePool(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t n = tcu::bench::bench_tiny() ? 96 : 512;
  const std::size_t m = tcu::bench::bench_tiny() ? 256 : 4096;
  auto adj = tcu::graph::random_digraph(n, 4.0 / static_cast<double>(n), 42);

  tcu::graph::AdjMatrix serial_d = adj;
  tcu::Device<tcu::graph::Vert> single({.m = m, .latency = kEll});
  tcu::graph::closure_tcu(single, serial_d.view());

  tcu::DevicePool<tcu::graph::Vert> pool(units, {.m = m, .latency = kEll});
  tcu::graph::AdjMatrix pool_d(0, 0);
  for (auto _ : state) {
    pool.reset();
    pool_d = adj;
    tcu::PoolExecutor<tcu::graph::Vert> exec(pool);
    tcu::graph::closure_tcu(exec, pool_d.view());
    benchmark::DoNotOptimize(pool_d.data());
  }
  const bool match =
      pool_d == serial_d &&
      tcu::bench::counters_match_serial(pool.aggregate(), single.counters());
  record(state, "closure_pool", units, pool.makespan(), single.counters(),
         match);
}

void BM_ApsdPool(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t n = tcu::bench::bench_tiny() ? 48 : 160;
  const std::size_t m = tcu::bench::bench_tiny() ? 64 : 256;
  // Connected undirected graph: ring plus chords.
  tcu::Matrix<std::int64_t> adj(n, n, 0);
  tcu::util::Xoshiro256 rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    adj(i, j) = adj(j, i) = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      if (rng.uniform(0, 1) < 2.0 / static_cast<double>(n)) {
        adj(i, j) = adj(j, i) = 1;
      }
    }
  }

  tcu::Device<std::int64_t> single({.m = m, .latency = kEll});
  auto expect = tcu::graph::apsd_seidel(single, adj.view());

  tcu::DevicePool<std::int64_t> pool(units, {.m = m, .latency = kEll});
  tcu::Matrix<std::int64_t> got;
  for (auto _ : state) {
    pool.reset();
    tcu::PoolExecutor<std::int64_t> exec(pool);
    got = tcu::graph::apsd_seidel(exec, adj.view());
    benchmark::DoNotOptimize(got.data());
  }
  const bool match =
      got == expect &&
      tcu::bench::counters_match_serial(pool.aggregate(), single.counters());
  record(state, "apsd_pool", units, pool.makespan(), single.counters(),
         match);
}

void BM_DftPool(benchmark::State& state) {
  using tcu::dft::Complex;
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t b = tcu::bench::bench_tiny() ? 4 : 16;
  const std::size_t len = tcu::bench::bench_tiny() ? 240 : 4096;
  const std::size_t m = tcu::bench::bench_tiny() ? 16 : 256;
  tcu::util::Xoshiro256 rng(88);
  tcu::Matrix<Complex> input(b, len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      input(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }

  tcu::Matrix<Complex> serial_batch = input;
  tcu::Device<Complex> single({.m = m, .latency = kEll});
  tcu::dft::dft_batch_tcu(single, serial_batch.view());

  tcu::DevicePool<Complex> pool(units, {.m = m, .latency = kEll});
  tcu::Matrix<Complex> pool_batch;
  for (auto _ : state) {
    pool.reset();
    pool_batch = input;
    tcu::PoolExecutor<Complex> exec(pool);
    tcu::dft::dft_batch_tcu(exec, pool_batch.view());
    benchmark::DoNotOptimize(pool_batch.data());
  }
  // Contract: identical bits, identical counters except the per-unit
  // Fourier-tile re-load latency (exactly l per extra chunked call).
  const tcu::Counters agg = pool.aggregate();
  const tcu::Counters& ref = single.counters();
  const bool match =
      pool_batch == serial_batch && agg.tensor_macs == ref.tensor_macs &&
      agg.tensor_rows == ref.tensor_rows && agg.cpu_ops == ref.cpu_ops &&
      agg.tensor_time - agg.latency_time ==
          ref.tensor_time - ref.latency_time &&
      agg.latency_time - ref.latency_time ==
          (agg.tensor_calls - ref.tensor_calls) * kEll;
  record(state, "dft_pool", units, pool.makespan(), single.counters(),
         match);
  state.counters["latency_overhead"] =
      static_cast<double>(agg.latency_time - ref.latency_time);
}

/// The residency-tagged row-split contract shared by the stencil and
/// conv2d pool paths: bit-identical everything except the latency split,
/// whose total (paid + saved) grows by exactly l per extra chunked call.
bool chunked_counters_match(const tcu::Counters& agg,
                            const tcu::Counters& ref) {
  return agg.tensor_macs == ref.tensor_macs &&
         agg.tensor_rows == ref.tensor_rows && agg.cpu_ops == ref.cpu_ops &&
         agg.tensor_time - agg.latency_time ==
             ref.tensor_time - ref.latency_time &&
         agg.tensor_calls >= ref.tensor_calls &&
         agg.latency_time + agg.latency_saved ==
             ref.latency_time + ref.latency_saved +
                 (agg.tensor_calls - ref.tensor_calls) * kEll;
}

void record_residency(benchmark::State& state, const char* name,
                      std::size_t units, std::size_t cache_capacity,
                      std::uint64_t makespan, const tcu::Counters& agg,
                      const tcu::Counters& ref, bool match) {
  const double sim_speedup =
      static_cast<double>(ref.time()) / static_cast<double>(makespan);
  state.counters["units"] = static_cast<double>(units);
  state.counters["sim_speedup"] = sim_speedup;
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  state.counters["resident_hits"] = static_cast<double>(agg.resident_hits);
  state.counters["latency_saved"] = static_cast<double>(agg.latency_saved);
  tcu::bench::report(state, ref, static_cast<double>(ref.time()));
  json_out.add({.name = name,
                .p = units,
                .cache_capacity = cache_capacity,
                .sim_cost = makespan,
                .sim_speedup = sim_speedup,
                .counters_match = match,
                .resident_hits = agg.resident_hits,
                .latency_saved = agg.latency_saved,
                .evictions = agg.evictions,
                .extra = {}});
}

void BM_StencilPool(benchmark::State& state) {
  using Complex = tcu::stencil::Complex;
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = tcu::bench::bench_tiny() ? 20 : 64;
  const std::size_t k = tcu::bench::bench_tiny() ? 4 : 8;
  const std::size_t m = tcu::bench::bench_tiny() ? 16 : 64;
  auto w = tcu::stencil::heat_kernel(0.1, 0.05);
  auto grid = tcu::bench::random_matrix(dim, dim, 9600);

  tcu::Device<Complex> single({.m = m, .latency = kEll});
  auto expect = tcu::stencil::stencil_tcu(single, grid.view(), w, k);

  tcu::DevicePool<Complex> pool(units, {.m = m, .latency = kEll});
  tcu::Matrix<double> got;
  for (auto _ : state) {
    pool.reset();
    tcu::PoolExecutor<Complex> exec(pool);
    got = tcu::stencil::stencil_tcu_pool(exec, grid.view(), w, k);
    benchmark::DoNotOptimize(got.data());
  }
  const tcu::Counters agg = pool.aggregate();
  const bool match = got == expect &&
                     chunked_counters_match(agg, single.counters()) &&
                     agg.resident_hits > 0;
  record_residency(state, "stencil_pool", units, 1, pool.makespan(), agg,
                   single.counters(), match);
}

void BM_GePool(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t m = tcu::bench::bench_tiny() ? 64 : 256;
  const std::size_t r = tcu::bench::bench_tiny() ? 64 : 256;
  tcu::util::Xoshiro256 rng(9650);
  const std::size_t d = r - 1;
  tcu::Matrix<double> A(d, d);
  std::vector<double> b(d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) A(i, j) = rng.uniform(-1, 1);
    A(i, i) += 4.0;
    b[i] = rng.uniform(-1, 1);
  }
  auto c0 = tcu::linalg::make_augmented<double>(A.view(), b, r);

  tcu::Device<double> single({.m = m, .latency = kEll});
  tcu::Matrix<double> serial = c0;
  tcu::linalg::ge_forward_tcu(single, serial.view());

  tcu::DevicePool<double> pool(units, {.m = m, .latency = kEll});
  tcu::Matrix<double> got;
  for (auto _ : state) {
    pool.reset();
    got = c0;
    tcu::PoolExecutor<double> exec(pool);
    tcu::linalg::ge_forward_tcu_pool(exec, got.view());
    benchmark::DoNotOptimize(got.data());
  }
  // Kernel-D keys are unique per (pivot, block column), so the pool
  // aggregate matches serial in every compared field, residency split
  // included (evictions are schedule-dependent and excluded, as in
  // every match predicate).
  const tcu::Counters agg = pool.aggregate();
  const tcu::Counters& ref = single.counters();
  const bool match = got == serial &&
                     tcu::bench::counters_match_serial(agg, ref) &&
                     agg.resident_hits == ref.resident_hits &&
                     agg.latency_saved == ref.latency_saved;
  record_residency(state, "gauss_pool", units, 1, pool.makespan(), agg, ref,
                   match);
}

void BM_Conv2dPool(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t m = tcu::bench::bench_tiny() ? 16 : 64;
  const std::size_t hw = tcu::bench::bench_tiny() ? 13 : 34;
  const std::size_t cin = 2, cout = 4, kk = 3;
  const int rounds = 2;  // repeated layers: the bank stays resident
  auto input = tcu::bench::random_matrix(cin * hw, hw, 9700);
  auto filters = tcu::bench::random_matrix(cout, cin * kk * kk, 9701);
  // Capacity covering the bank chain, on both sides: serial pays each
  // bank tile's load once ever; the pool pays it once per touching lane.
  const std::size_t cache = 8;

  tcu::Device<double> single({.m = m, .latency = kEll,
                              .resident_tiles = cache});
  tcu::Matrix<double> expect;
  for (int r = 0; r < rounds; ++r) {
    expect = tcu::nn::conv2d_tcu(single, input.view(), cin, filters.view(),
                                 kk, kk);
  }

  tcu::DevicePool<double> pool(units, {.m = m, .latency = kEll,
                                       .resident_tiles = cache});
  tcu::Matrix<double> got;
  for (auto _ : state) {
    pool.reset();
    tcu::PoolExecutor<double> exec(pool);
    for (int r = 0; r < rounds; ++r) {
      got = tcu::nn::conv2d_tcu_pool(exec, input.view(), cin, filters.view(),
                                     kk, kk);
    }
    benchmark::DoNotOptimize(got.data());
  }
  const tcu::Counters agg = pool.aggregate();
  const bool match = got == expect &&
                     chunked_counters_match(agg, single.counters()) &&
                     agg.resident_hits > 0 &&
                     single.counters().resident_hits > 0;
  record_residency(state, "conv2d_pool", units, cache, pool.makespan(), agg,
                   single.counters(), match);
}

}  // namespace

BENCHMARK(BM_StrassenPool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_ClosurePool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_ApsdPool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_DftPool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_StencilPool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_GePool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);
BENCHMARK(BM_Conv2dPool)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"units"})
    ->Iterations(1);

BENCHMARK_MAIN();
