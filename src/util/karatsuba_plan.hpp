#pragma once
// Depth-limited Karatsuba unroll over a DevicePool — the Strassen plan
// pattern of linalg/strassen.hpp applied to Theorem 10's call tree, and
// shared by integer (intmul) and polynomial (poly) multiplication.
//
// Karatsuba's recursion is Strassen-shaped: each node performs linear
// work (splits, operand sums, recombination) and spawns three independent
// half-size products. The top `depth` levels are unrolled on the
// submitting thread: their linear steps run — and are charged to the
// pool's shared CPU — exactly as in the serial recursion, while each
// subtree root below is *recorded*. The recorded subtrees are dealt
// across the pool's worker threads (each worker runs the ordinary serial
// recursion on its unit) and the returned combine closure stitches the
// results bottom-up. Because the same linear steps produce the same
// operand values and every subtree runs the same serial call sequence,
// the product and the aggregate counters are bit-identical to the serial
// recursion — only the split of work over units changes.
//
// `Ops` abstracts the coefficient domain:
//   using Value = ...;                   // a BigInt, a coefficient vector
//   static std::size_t size(const Value&);
//   static Value low(const Value&, std::size_t half);
//   static Value high(const Value&, std::size_t half);
//   static Value add(const Value&, const Value&);
//   static Value sub(const Value&, const Value&);   // a >= b domains only
//   static Value shift(const Value&, std::size_t);  // * base^count
// `karatsuba_serial` below is the one serial recursion every domain
// calls (intmul and poly only supply Ops and a base case), so the
// CPU-charge constants live in exactly two adjacent functions here: the
// serial recursion and the plan that unrolls it.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/pool.hpp"

namespace tcu::util {

/// Serial Karatsuba recursion over `Ops` with a pluggable base-case
/// multiply. This is the single source of the recursion's CPU-charge
/// constants (2n split, 2*half operand sums, 4*half middle correction,
/// 4*half recombination); the plan engine below performs the identical
/// steps split between unroll time and combine time, so the aggregate
/// charges agree node for node.
template <typename Ops, typename MulBase>
typename Ops::Value karatsuba_serial(const typename Ops::Value& a,
                                     const typename Ops::Value& b,
                                     std::size_t threshold,
                                     Counters& counters,
                                     const MulBase& base) {
  using Value = typename Ops::Value;
  const std::size_t n = std::max(Ops::size(a), Ops::size(b));
  if (n <= threshold || n < 2) return base(a, b);
  const std::size_t half = (n + 1) / 2;

  const Value a0 = Ops::low(a, half), a1 = Ops::high(a, half);
  const Value b0 = Ops::low(b, half), b1 = Ops::high(b, half);
  counters.charge_cpu(2 * n);

  Value z0 = karatsuba_serial<Ops>(a0, b0, threshold, counters, base);
  Value z2 = karatsuba_serial<Ops>(a1, b1, threshold, counters, base);
  const Value sa = Ops::add(a0, a1);
  const Value sb = Ops::add(b0, b1);
  counters.charge_cpu(2 * half);
  Value z1 = karatsuba_serial<Ops>(sa, sb, threshold, counters, base);
  z1 = Ops::sub(Ops::sub(z1, z0), z2);
  counters.charge_cpu(4 * half);

  Value out = Ops::add(
      Ops::add(Ops::shift(z2, 2 * half), Ops::shift(z1, half)), z0);
  counters.charge_cpu(4 * half);
  return out;
}

/// Recorded subtree products of one unrolled Karatsuba call tree.
template <typename Ops>
struct KaratsubaPlan {
  using Value = typename Ops::Value;
  std::vector<Value> leaf_a;   ///< left operand per subtree product
  std::vector<Value> leaf_b;   ///< right operand per subtree product
  std::vector<Value> results;  ///< filled by the pool workers
};

/// Unroll depth that yields >= 4 subtrees per unit (3^depth leaves)
/// without recursing past the serial base-case threshold.
inline std::size_t karatsuba_unroll_depth(std::size_t n,
                                          std::size_t threshold,
                                          std::size_t units) {
  std::size_t depth = 0;
  std::uint64_t leaves = 1;
  const std::uint64_t target = 4 * static_cast<std::uint64_t>(units);
  while (leaves < target && n > threshold && n >= 2) {
    n = (n + 1) / 2;
    ++depth;
    leaves *= 3;
  }
  return depth;
}

/// Estimated tensor time of one Karatsuba subtree over n coefficients on
/// `unit` with the banded-Toeplitz schoolbook base (exact for the base
/// case, 3 * est(half) above it). The dealer only needs a deterministic
/// balance signal: the aggregate counters are the same for any placement.
template <typename T>
std::uint64_t karatsuba_toeplitz_cost(const Device<T>& unit, std::size_t n,
                                      std::size_t threshold) {
  if (n <= threshold || n < 2) {
    const std::size_t s = unit.tile_dim();
    const std::size_t np = ((std::max<std::size_t>(n, 1) + s - 1) / s) * s;
    const std::uint64_t strips = (np / s + s - 1) / s;
    return strips * projected_gemm_cost(unit, np + s - 1);
  }
  return 3 * karatsuba_toeplitz_cost(unit, (n + 1) / 2, threshold);
}

/// Unroll the top `depth` levels, recording subtree operands in `plan`;
/// returns the closure that recombines `plan.results` into the product.
/// Linear work is charged to the pool's shared CPU with the same
/// constants as the serial recursion.
template <typename Ops, typename T>
std::function<typename Ops::Value()> karatsuba_plan(
    DevicePool<T>& pool, KaratsubaPlan<Ops>& plan,
    const typename Ops::Value& a, const typename Ops::Value& b,
    std::size_t threshold, std::size_t depth) {
  using Value = typename Ops::Value;
  const std::size_t n = std::max(Ops::size(a), Ops::size(b));
  if (depth == 0 || n <= threshold || n < 2) {
    const std::size_t idx = plan.leaf_a.size();
    plan.leaf_a.push_back(a);
    plan.leaf_b.push_back(b);
    return [&plan, idx] { return std::move(plan.results[idx]); };
  }
  const std::size_t half = (n + 1) / 2;

  Value a0 = Ops::low(a, half), a1 = Ops::high(a, half);
  Value b0 = Ops::low(b, half), b1 = Ops::high(b, half);
  pool.charge_cpu(2 * n);

  auto f0 = karatsuba_plan<Ops>(pool, plan, a0, b0, threshold, depth - 1);
  auto f2 = karatsuba_plan<Ops>(pool, plan, a1, b1, threshold, depth - 1);
  const Value sa = Ops::add(a0, a1);
  const Value sb = Ops::add(b0, b1);
  pool.charge_cpu(2 * half);
  auto f1 = karatsuba_plan<Ops>(pool, plan, sa, sb, threshold, depth - 1);

  return [&pool, half, f0 = std::move(f0), f1 = std::move(f1),
          f2 = std::move(f2)]() -> Value {
    Value z0 = f0();
    Value z2 = f2();
    Value z1 = f1();
    z1 = Ops::sub(Ops::sub(z1, z0), z2);
    pool.charge_cpu(4 * half);
    Value out = Ops::add(
        Ops::add(Ops::shift(z2, 2 * half), Ops::shift(z1, half)), z0);
    pool.charge_cpu(4 * half);
    return out;
  };
}

/// Deal the recorded subtrees across the executor's units and recombine.
/// `leaf(unit, a, b)` runs the domain's serial Karatsuba recursion on one
/// unit; `leaf_cost(a, b)` is the projected simulated tensor time used by
/// the greedy dealer (an estimate is fine — the dealing is deterministic
/// either way, and the aggregate counters are placement-independent).
template <typename Ops, typename T, typename LeafFn, typename CostFn>
typename Ops::Value karatsuba_run_plan(
    PoolExecutor<T>& exec, KaratsubaPlan<Ops>& plan,
    const std::function<typename Ops::Value()>& root, LeafFn leaf,
    CostFn leaf_cost) {
  plan.results.resize(plan.leaf_a.size());
  for (std::size_t idx = 0; idx < plan.leaf_a.size(); ++idx) {
    const std::uint64_t cost = leaf_cost(plan.leaf_a[idx], plan.leaf_b[idx]);
    exec.submit({.cost = cost}, [&plan, idx, leaf](Device<T>& unit) {
      plan.results[idx] = leaf(unit, plan.leaf_a[idx], plan.leaf_b[idx]);
    });
  }
  exec.join();
  return root();
}

}  // namespace tcu::util
