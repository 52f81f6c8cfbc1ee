#pragma once
// Shared helpers for the benchmark harness.
//
// Every bench reports, besides google-benchmark's wall time of the
// *simulation*, the scientific quantities of the reproduction as custom
// counters:
//   sim_time   — Counters::time(), the (m, l)-TCU model running time;
//   predicted  — the paper's closed-form bound for the configuration;
//   ratio      — sim_time / predicted, which a faithful reproduction keeps
//                within a narrow constant band across each sweep (the
//                Theta/O promise);
// plus experiment-specific counters (tensor calls, cycles, I/Os, speedup
// over the RAM baseline, ...). EXPERIMENTS.md records these outputs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/counters.hpp"
#include "core/matrix.hpp"
#include "util/rng.hpp"

namespace tcu::bench {

inline Matrix<double> random_matrix(std::size_t r, std::size_t c,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

inline Matrix<std::int64_t> random_int_matrix(std::size_t r, std::size_t c,
                                              std::uint64_t seed,
                                              std::int64_t lo = -9,
                                              std::int64_t hi = 9) {
  util::Xoshiro256 rng(seed);
  Matrix<std::int64_t> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform_int(lo, hi);
  }
  return m;
}

/// Machine-readable record of one pool-bench configuration. The JSON
/// files (`BENCH_<tag>.json`, one array of these objects) are the
/// cross-PR perf trajectory: `sim_cost` is the pool makespan in model
/// units, `sim_speedup` the serial simulated time divided by it, and
/// `counters_match` the record's headline invariant — for the
/// pool_scaling / pool_algos records, whether the pool aggregate
/// reproduced the serial schedule's counters (the determinism contract;
/// dft_pool uses its documented match-modulo-reload-latency relation);
/// for batch_affinity records, whether affinity strictly reduced the
/// simulated latency with exact hit accounting. CI's bench smoke job
/// fails on any `"counters_match": false`.
struct PoolBenchRecord {
  std::string name;
  std::size_t p = 0;
  /// The units' resident-tile LRU capacity c (Device::Config). 1 is the
  /// single-slot model; the bench_residency sweep varies it.
  std::size_t cache_capacity = 1;
  std::uint64_t sim_cost = 0;
  double sim_speedup = 0.0;
  bool counters_match = false;
  std::uint64_t resident_hits = 0;   ///< aggregate resident-tile hits
  std::uint64_t latency_saved = 0;   ///< latency charges skipped by hits
  std::uint64_t evictions = 0;       ///< LRU displacements under pressure
  /// Extra metric columns (e.g. latency totals).
  std::vector<std::pair<std::string, double>> extra;
};

/// Collects records and writes `BENCH_<tag>.json` at destruction (i.e.
/// at benchmark-process exit for a file-scope instance).
class PoolBenchJson {
 public:
  explicit PoolBenchJson(std::string tag) : tag_(std::move(tag)) {}

  void add(PoolBenchRecord record) { records_.push_back(std::move(record)); }

  ~PoolBenchJson() {
    std::ofstream out("BENCH_" + tag_ + ".json");
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const PoolBenchRecord& r = records_[i];
      out << "  {\"name\": \"" << r.name << "\", \"p\": " << r.p
          << ", \"cache_capacity\": " << r.cache_capacity
          << ", \"sim_cost\": " << r.sim_cost
          << ", \"sim_speedup\": " << r.sim_speedup
          << ", \"counters_match\": " << (r.counters_match ? "true" : "false")
          << ", \"resident_hits\": " << r.resident_hits
          << ", \"latency_saved\": " << r.latency_saved
          << ", \"evictions\": " << r.evictions;
      for (const auto& [key, value] : r.extra) {
        out << ", \"" << key << "\": " << value;
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }

 private:
  std::string tag_;
  std::vector<PoolBenchRecord> records_;
};

/// Problem-size override for the bench smoke job: `TCU_BENCH_SCALE=tiny`
/// shrinks the pool benches to seconds-long sizes while keeping every
/// counters_match assertion meaningful.
inline bool bench_tiny() {
  const char* scale = std::getenv("TCU_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "tiny";
}

/// Aggregate-vs-serial counter equality (the pool determinism contract).
inline bool counters_match_serial(const Counters& agg, const Counters& ref) {
  return agg.tensor_calls == ref.tensor_calls &&
         agg.tensor_rows == ref.tensor_rows &&
         agg.tensor_time == ref.tensor_time &&
         agg.tensor_macs == ref.tensor_macs &&
         agg.latency_time == ref.latency_time &&
         agg.cpu_ops == ref.cpu_ops;
}

/// Standard counter block: model time vs paper prediction.
inline void report(benchmark::State& state, const Counters& counters,
                   double predicted) {
  const auto sim = static_cast<double>(counters.time());
  state.counters["sim_time"] = sim;
  state.counters["predicted"] = predicted;
  state.counters["ratio"] = predicted > 0 ? sim / predicted : 0.0;
  state.counters["tensor_calls"] =
      static_cast<double>(counters.tensor_calls);
  state.counters["latency_time"] =
      static_cast<double>(counters.latency_time);
}

}  // namespace tcu::bench
