// FAULT1 — self-healing pool runtime under injected faults.
//
// One experiment, emitted to BENCH_fault.json: a dense Theorem 2
// multiplication (12 output strips, so p = 4 balances exactly) run for
// two rounds through one persistent PoolExecutor at p = 4 under three
// seeded fault scenarios:
//
//   fault_free     — no plan attached; the baseline. sim_speedup is
//                    exactly 4 and the pool aggregate is bit-identical
//                    to the serial schedule's counters.
//   transient_retry— two exact-trigger transient faults, each landing on
//                    a strip task's FIRST call. A faulted call charges
//                    nothing, so the in-place retry replays the task
//                    from zero progress and outputs, aggregate counters,
//                    and sim_speedup are all unchanged from fault_free;
//                    the RoundReport records the retries. (A mid-chain
//                    transient instead deterministically re-charges the
//                    task's partial prefix — still bit-identical output,
//                    but a larger makespan.)
//   degraded_p3    — unit 3 dies on its first call. Its strips redeal
//                    to the three survivors and both rounds finish at
//                    p - 1: sim_speedup is exactly 3 (12 strips over 3
//                    units), outputs and aggregate counters still
//                    bit-identical to serial (the dead unit never
//                    charged anything).
//
// counters_match for every record: outputs bit-identical to the serial
// reference AND aggregate counters equal to the serial schedule's AND
// the scenario's recovery bookkeeping (retries / quarantine / healthy
// count / exact degraded speedup) came out as modeled. CI's bench smoke
// job fails on any false.

#include <chrono>
#include <cmath>

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "fault/fault.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"

namespace {

tcu::bench::PoolBenchJson json_out("fault");

// 12 output strips at every scale: divisible by p = 4 (fault-free deal)
// and by p - 1 = 3 (after one quarantine), so both speedups are exact.
std::size_t dim() { return tcu::bench::bench_tiny() ? 192 : 768; }
std::size_t bench_m() { return tcu::bench::bench_tiny() ? 256 : 4096; }
constexpr std::size_t kUnits = 4;
constexpr std::uint64_t kEll = 1024;
constexpr int kRounds = 2;

enum Scenario : int { kFaultFree = 0, kTransientRetry = 1, kDegradedP3 = 2 };

void BM_FaultRecovery(benchmark::State& state) {
  const auto scenario = static_cast<Scenario>(state.range(0));
  const std::size_t d = dim();
  auto a = tcu::bench::random_matrix(d, d, 9500);
  auto b = tcu::bench::random_matrix(d, d, 9600);

  // Fault-free serial reference schedule (same rounds).
  tcu::Device<double> single({.m = bench_m(), .latency = kEll});
  tcu::Matrix<double> expect(1, 1);
  for (int r = 0; r < kRounds; ++r) {
    expect = tcu::linalg::matmul_tcu(single, a.view(), b.view());
  }

  tcu::fault::FaultSpec spec;
  switch (scenario) {
    case kFaultFree:
      break;
    case kTransientRetry:
      // Unit call indices 0 and 12 are task starts (12 k-tile calls per
      // strip): the faulted task has no partial progress to re-charge.
      spec.transient_at = {{0, 0}, {2, 12}};
      break;
    case kDegradedP3:
      spec.death_at = {{3, 0}};
      break;
  }

  tcu::DevicePool<double> pool(kUnits, {.m = bench_m(), .latency = kEll});
  tcu::fault::FaultPlan plan(4242, spec);
  tcu::fault::ScopedInjection<double> inject(pool, plan);

  bool outputs_match = true;
  tcu::RoundReport report;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    pool.reset();
    const auto t0 = std::chrono::steady_clock::now();
    tcu::PoolExecutor<double> exec(pool);
    for (int r = 0; r < kRounds; ++r) {
      auto c = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
      outputs_match = outputs_match && c == expect;
      benchmark::DoNotOptimize(c.data());
    }
    report = exec.fault_stats();
    const auto t1 = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  const tcu::Counters agg = pool.aggregate();
  const tcu::Counters& ref = single.counters();
  const double sim_speedup =
      static_cast<double>(ref.time()) / static_cast<double>(pool.makespan());

  // Scenario-specific recovery bookkeeping, on top of bit-identical
  // outputs and the aggregate-counters determinism contract.
  bool recovery_ok = true;
  switch (scenario) {
    case kFaultFree:
      recovery_ok = !report.faulted() && report.healthy_units == kUnits;
      break;
    case kTransientRetry:
      recovery_ok = report.transient_faults == 2 && report.retried == 2 &&
                    report.permanent_faults == 0 &&
                    report.healthy_units == kUnits &&
                    std::abs(sim_speedup - 4.0) < 1e-9;
      break;
    case kDegradedP3:
      recovery_ok = report.permanent_faults == 1 &&
                    report.quarantined == std::vector<std::size_t>{3} &&
                    report.healthy_units == kUnits - 1 &&
                    report.redealt + report.drained >= 1 &&
                    std::abs(sim_speedup - 3.0) < 1e-9;
      break;
  }
  const bool match = outputs_match &&
                     tcu::bench::counters_match_serial(agg, ref) &&
                     recovery_ok;

  state.counters["scenario"] = static_cast<double>(scenario);
  state.counters["wall_seconds"] = wall_seconds;
  state.counters["sim_speedup"] = sim_speedup;
  state.counters["retried"] = static_cast<double>(report.retried);
  state.counters["redealt"] = static_cast<double>(report.redealt);
  state.counters["dead_units"] =
      static_cast<double>(report.quarantined.size());
  state.counters["counters_match"] = match ? 1.0 : 0.0;
  tcu::bench::report(state, agg, static_cast<double>(ref.time()));

  const char* names[] = {"fault_free", "transient_retry", "degraded_p3"};
  json_out.add(
      {.name = names[scenario],
       .p = kUnits,
       .sim_cost = pool.makespan(),
       .sim_speedup = sim_speedup,
       .counters_match = match,
       .extra = {
           {"retried", static_cast<double>(report.retried)},
           {"redealt", static_cast<double>(report.redealt)},
           {"drained", static_cast<double>(report.drained)},
           {"dead_units", static_cast<double>(report.quarantined.size())}}});
}

}  // namespace

BENCHMARK(BM_FaultRecovery)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"scenario"})
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK_MAIN();
