#pragma once
// Recorded-leaf plans: the executor form of a divide-and-conquer
// recursion whose nodes do linear work and spawn independent products
// (Strassen-like, Theorem 1; Karatsuba, Theorem 10).
//
// The top `depth` levels are unrolled on the submitting thread: their
// linear steps run — and are charged through the executor — exactly as
// in the serial recursion, while each subtree root below is recorded as
// a leaf task that runs the ordinary serial recursion on one unit. The
// unroll returns a deferred value per node; after the join the root's
// deferred stitches the leaf results bottom-up. Because the same linear
// steps produce the same operands and every subtree runs the same serial
// call sequence, the output and the aggregate counters are those of the
// serial recursion — only the split of work over units changes.
//
// A leaf is dealt the moment it is recorded, so an `InlineExecutor` runs
// it right there: a Device& call keeps the serial recursion's call order,
// and each leaf's operands are released once it has run.

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

namespace tcu::util {

template <typename Value>
class LeafPlan {
 public:
  using Deferred = std::function<Value()>;

  /// Deal `leaf(unit, a, b)` to the executor at the projected tensor time
  /// `cost`; the returned deferred yields its result after the join.
  template <typename Exec, typename Leaf>
  Deferred record(Exec& exec, std::uint64_t cost, Value a, Value b,
                  Leaf leaf) {
    Slot& slot = slots_.emplace_back(std::move(a), std::move(b));
    exec.submit({.cost = cost}, [&slot, leaf](auto& unit) {
      slot.result = leaf(unit, slot.a, slot.b);
      // Only after success: a faulted attempt is retried on these.
      slot.a = Value{};
      slot.b = Value{};
    });
    return [&slot] { return std::move(slot.result); };
  }

 private:
  struct Slot {
    Value a, b, result;
  };
  std::deque<Slot> slots_;  ///< stable addresses while leaves run
};

/// Run one unrolled recursion: `unroll(plan)` records the leaves and
/// returns the root's deferred, which is redeemed after the join.
template <typename Value, typename Exec, typename Unroll>
Value run_leaf_plan(Exec& exec, Unroll unroll) {
  LeafPlan<Value> plan;
  typename LeafPlan<Value>::Deferred root;
  try {
    root = unroll(plan);
  } catch (...) {
    // Leaves already dealt write into `plan`: drain them before it goes.
    // The unroll's error is the one rethrown.
    try {
      exec.join();
    } catch (...) {
    }
    throw;
  }
  exec.join();
  return root();
}

}  // namespace tcu::util
