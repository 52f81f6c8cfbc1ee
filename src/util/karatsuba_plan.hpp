#pragma once
// Karatsuba's recursion (Theorem 10), shared by integer (intmul) and
// polynomial (poly) multiplication, serially and on an executor.
//
// Each node splits its operands, spawns three independent half-size
// products and recombines them. The node's linear steps and their CPU
// charges (2n split, 2*half operand sums, 4*half middle correction,
// 4*half recombination) are written once, in `karatsuba_children` and
// `karatsuba_recombine`, and take anything with `charge_cpu`: the serial
// recursion `karatsuba_serial` (every leaf task's body, and the RAM
// baselines on Counters) and the executor unroll `karatsuba_tcu` (a
// recorded-leaf plan, util/leaf_plan.hpp) both call them, so the
// aggregate charges agree node for node.
//
// `Ops` abstracts the coefficient domain:
//   using Value = ...;                   // a BigInt, a coefficient vector
//   static std::size_t size(const Value&);
//   static Value low(const Value&, std::size_t half);
//   static Value high(const Value&, std::size_t half);
//   static Value add(const Value&, const Value&);
//   static Value sub(const Value&, const Value&);   // a >= b domains only
//   static Value shift(const Value&, std::size_t);  // * base^count

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "core/pool.hpp"
#include "util/leaf_plan.hpp"

namespace tcu::util {

/// Operands of at most `threshold` coefficients go to the base case.
inline bool karatsuba_leaf(std::size_t n, std::size_t threshold) {
  return n <= threshold || n < 2;
}

/// Split a and b at `half` and hand the three half-size products to
/// `child(x, y)` in the serial order z0 = a0 b0, z2 = a1 b1,
/// z1 = (a0 + a1)(b0 + b1); returns {z0, z1, z2} as `child` returned them.
template <typename Ops, typename Cpu, typename Child>
auto karatsuba_children(Cpu& cpu, const typename Ops::Value& a,
                        const typename Ops::Value& b, std::size_t n,
                        std::size_t half, Child child) {
  using Value = typename Ops::Value;
  const Value a0 = Ops::low(a, half), a1 = Ops::high(a, half);
  const Value b0 = Ops::low(b, half), b1 = Ops::high(b, half);
  cpu.charge_cpu(2 * n);
  auto z0 = child(a0, b0);
  auto z2 = child(a1, b1);
  const Value sa = Ops::add(a0, a1);
  const Value sb = Ops::add(b0, b1);
  cpu.charge_cpu(2 * half);
  auto z1 = child(sa, sb);
  return std::array<decltype(z0), 3>{std::move(z0), std::move(z1),
                                     std::move(z2)};
}

/// z2 base^(2 half) + (z1 - z0 - z2) base^half + z0.
template <typename Ops, typename Cpu>
typename Ops::Value karatsuba_recombine(Cpu& cpu,
                                        const typename Ops::Value& z0,
                                        typename Ops::Value z1,
                                        const typename Ops::Value& z2,
                                        std::size_t half) {
  z1 = Ops::sub(Ops::sub(z1, z0), z2);
  cpu.charge_cpu(4 * half);
  typename Ops::Value out = Ops::add(
      Ops::add(Ops::shift(z2, 2 * half), Ops::shift(z1, half)), z0);
  cpu.charge_cpu(4 * half);
  return out;
}

/// Serial Karatsuba recursion over `Ops` with a pluggable base-case
/// multiply, charged to `cpu` (a Device or Counters).
template <typename Ops, typename Cpu, typename MulBase>
typename Ops::Value karatsuba_serial(const typename Ops::Value& a,
                                     const typename Ops::Value& b,
                                     std::size_t threshold, Cpu& cpu,
                                     const MulBase& base) {
  using Value = typename Ops::Value;
  const std::size_t n = std::max(Ops::size(a), Ops::size(b));
  if (karatsuba_leaf(n, threshold)) return base(a, b);
  const std::size_t half = (n + 1) / 2;
  auto z = karatsuba_children<Ops>(
      cpu, a, b, n, half, [&](const Value& x, const Value& y) {
        return karatsuba_serial<Ops>(x, y, threshold, cpu, base);
      });
  return karatsuba_recombine<Ops>(cpu, z[0], std::move(z[1]), z[2], half);
}

/// Unroll depth that yields >= 4 subtrees per unit (3^depth leaves)
/// without recursing past the serial base-case threshold.
inline std::size_t karatsuba_unroll_depth(std::size_t n,
                                          std::size_t threshold,
                                          std::size_t units) {
  std::size_t depth = 0;
  std::uint64_t leaves = 1;
  const std::uint64_t target = 4 * static_cast<std::uint64_t>(units);
  while (leaves < target && !karatsuba_leaf(n, threshold)) {
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
  if (karatsuba_leaf(n, threshold)) {
    const std::size_t s = unit.tile_dim();
    const std::size_t np = ((std::max<std::size_t>(n, 1) + s - 1) / s) * s;
    const std::uint64_t strips = (np / s + s - 1) / s;
    return strips * projected_gemm_cost(unit, np + s - 1);
  }
  return 3 * karatsuba_toeplitz_cost(unit, (n + 1) / 2, threshold);
}

/// The top `depth` levels with each subtree below recorded as a leaf
/// task running `karatsuba_serial` over `base(unit, x, y)`.
template <typename Ops, typename Exec, typename Base>
typename LeafPlan<typename Ops::Value>::Deferred karatsuba_unroll(
    Exec& exec, LeafPlan<typename Ops::Value>& plan,
    const typename Ops::Value& a, const typename Ops::Value& b,
    std::size_t threshold, std::size_t depth, const Base& base) {
  using Value = typename Ops::Value;
  const std::size_t n = std::max(Ops::size(a), Ops::size(b));
  if (depth == 0 || karatsuba_leaf(n, threshold)) {
    return plan.record(
        exec, karatsuba_toeplitz_cost(exec.unit0(), n, threshold), a, b,
        [threshold, base](auto& unit, const Value& x, const Value& y) {
          return karatsuba_serial<Ops>(
              x, y, threshold, unit,
              [&](const Value& u, const Value& v) { return base(unit, u, v); });
        });
  }
  const std::size_t half = (n + 1) / 2;
  auto f = karatsuba_children<Ops>(
      exec, a, b, n, half, [&](const Value& x, const Value& y) {
        return karatsuba_unroll<Ops>(exec, plan, x, y, threshold, depth - 1,
                                     base);
      });
  return [&exec, half, f = std::move(f)] {
    return karatsuba_recombine<Ops>(exec, f[0](), f[1](), f[2](), half);
  };
}

/// Theorem 10's call tree on an executor: the top levels are unrolled on
/// the submitting thread, just deep enough to feed every unit several
/// subtrees, and the subtree products are dealt across the units, each
/// running the serial recursion with `base(unit, x, y)` below `threshold`
/// coefficients (0 = 4 sqrt(m)). Product and aggregate counters are those
/// of the serial recursion on one device for every unit count.
template <typename Ops, template <typename> class Exec, typename T,
          typename Base>
typename Ops::Value karatsuba_tcu(Exec<T>& exec, const typename Ops::Value& a,
                                  const typename Ops::Value& b,
                                  std::size_t threshold, const Base& base) {
  using Value = typename Ops::Value;
  if (threshold == 0) threshold = 4 * exec.unit0().tile_dim();
  const std::size_t depth = karatsuba_unroll_depth(
      std::max(Ops::size(a), Ops::size(b)), threshold, exec.size());
  return run_leaf_plan<Value>(exec, [&](LeafPlan<Value>& plan) {
    return karatsuba_unroll<Ops>(exec, plan, a, b, threshold, depth, base);
  });
}

}  // namespace tcu::util
