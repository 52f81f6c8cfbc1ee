#pragma once
// Simulated-cost accounting for the (m, l)-TCU model.
//
// The model's "running time" (Section 3) is the number of RAM operations
// performed by the CPU plus n*sqrt(m) + l per tensor-unit call. Every
// algorithm in this library charges its exact operation counts here, and
// the benchmark harness compares Counters::time() against the paper's
// closed-form bounds.

#include <cstdint>

namespace tcu {

struct Counters {
  // --- tensor unit ---
  std::uint64_t tensor_calls = 0;     ///< number of tensor-unit invocations
  std::uint64_t tensor_rows = 0;      ///< sum of left-operand row counts n
  std::uint64_t tensor_time = 0;      ///< sum of (n*sqrt(m) + l) charges
  std::uint64_t tensor_macs = 0;      ///< sum of n*m elementary products
  std::uint64_t latency_time = 0;     ///< latency-only portion (loads * l)
  std::uint64_t resident_hits = 0;    ///< calls served by a resident tile
  std::uint64_t latency_saved = 0;    ///< latency charges skipped by hits
  std::uint64_t evictions = 0;        ///< resident tiles displaced by loads
  std::uint64_t tagged_calls = 0;     ///< calls issued with a residency key

  // --- CPU / RAM ---
  std::uint64_t cpu_ops = 0;          ///< unit-cost RAM operations

  // --- optional engine detail ---
  std::uint64_t systolic_cycles = 0;  ///< cycles if the systolic engine ran

  /// Total simulated time in model units.
  std::uint64_t time() const { return tensor_time + cpu_ops; }

  void charge_cpu(std::uint64_t ops) { cpu_ops += ops; }

  void charge_tensor_call(std::uint64_t n, std::uint64_t sqrt_m,
                          std::uint64_t latency) {
    tensor_calls += 1;
    tensor_rows += n;
    tensor_time += n * sqrt_m + latency;
    tensor_macs += n * sqrt_m * sqrt_m;
    latency_time += latency;
  }

  /// A call whose right operand is already resident: the load latency is
  /// not paid again (the paper charges l per tile *load*, §3).
  void charge_resident_hit(std::uint64_t n, std::uint64_t sqrt_m,
                           std::uint64_t latency_skipped) {
    charge_tensor_call(n, sqrt_m, 0);
    resident_hits += 1;
    latency_saved += latency_skipped;
  }

  /// A tile load displaced the least-recently-used resident tile (the
  /// cache was at capacity). Untagged invalidation is not counted — only
  /// genuine capacity pressure.
  void count_eviction() { evictions += 1; }

  void reset() { *this = Counters{}; }

  bool operator==(const Counters&) const = default;

  Counters& operator+=(const Counters& other) {
    tensor_calls += other.tensor_calls;
    tensor_rows += other.tensor_rows;
    tensor_time += other.tensor_time;
    tensor_macs += other.tensor_macs;
    latency_time += other.latency_time;
    resident_hits += other.resident_hits;
    latency_saved += other.latency_saved;
    evictions += other.evictions;
    tagged_calls += other.tagged_calls;
    cpu_ops += other.cpu_ops;
    systolic_cycles += other.systolic_cycles;
    return *this;
  }
};

}  // namespace tcu
