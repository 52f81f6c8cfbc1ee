#pragma once
// The one A/B/C/D schedule behind blocked Gaussian elimination (Figure 4,
// Theorem 4) and blocked transitive closure (Figure 7, Theorem 5): the
// Gaussian Elimination Paradigm (GEP) of Chowdhury & Ramachandran
// (SPAA 2007).
//
// The matrix is cut into t x t blocks of side sqrt(m). Per pivot k,
// kernel A updates the diagonal block (k,k), B(k,j) the pivot-row blocks,
// C(k,i) the pivot-column blocks, and D(k,j) streams the column panel
// past one weight on the tensor unit to update block column j. The two
// workloads differ only in U(k), the indices pivot k updates: every index
// but k (closure), or only the indices after k (GE).
//
// `gep_schedule` submits the whole elimination as one dependency-ordered
// round with a single join. Run on a PoolExecutor it is dealt across the
// units; run on an InlineExecutor each task runs as it is submitted, so
// submit order is the serial loop order. With writer(i,j) the last task
// that wrote block (i,j), each task waits for exactly:
//
//   A(k)    D(k-1, k)                         (the diagonal block)
//   B(k,j)  A(k), writer(k,j) = D(k-1, j)     (the pivot-row block)
//           — except the old pivot column j = k-1: C(k-1, k) wrote it
//           and every D(k-1, x) read it in its column panel, so the
//           overwrite waits for all of them
//   C(k,i)  A(k) [, B(k-1, k) when i = k-1; every other writer is
//           covered through A's dependence]
//   D(k,j)  B(k,j), every C(k,i)              (weight + column panel;
//           the accumulate chain into column j is ordered through
//           B(k,j) -> D(k-1,j))
//
// k-1 is never in GE's U(k), so GE's pivot row and column are never
// rewritten and the write-after-read edges never fire there.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pool.hpp"

namespace tcu::linalg {

/// U(k), the block indices pivot k updates.
enum class GepRange {
  kEveryOffPivot,  ///< every index but k (transitive closure)
  kAfterPivot,     ///< only the indices after k (Gaussian elimination)
};

/// Declared CPU cost of one A, B and C task: exactly the cpu_ops the
/// schedule charges the executing unit for it.
struct GepCosts {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Submit the GEP round over t x t blocks to `exec` and join it.
/// `kernel_a(k)`, `kernel_b(k, j)` and `kernel_c(k, i)` are pure CPU
/// work, charged `costs`; `kernel_d(unit, k, j)` issues D's tensor calls
/// on its unit and charges them itself, as `d_spec(k, j)` — a TaskSpec
/// holding D's cost and chain — declares. When a submit throws, the
/// tasks already submitted are joined before the exception escapes, so
/// no kernel outlives the call.
template <typename Exec, typename KernelA, typename KernelB, typename KernelC,
          typename DSpec, typename KernelD>
void gep_schedule(Exec& exec, std::size_t t, GepRange range, GepCosts costs,
                  KernelA kernel_a, KernelB kernel_b, KernelC kernel_c,
                  DSpec d_spec, KernelD kernel_d) {
  // Calls f(x) for every x in U(k), ascending.
  const auto for_updated = [t, range](std::size_t k, auto&& f) {
    for (std::size_t x = range == GepRange::kEveryOffPivot ? 0 : k + 1; x < t;
         ++x) {
      if (x != k) f(x);
    }
  };
  const auto cpu_task = [&exec](TaskSpec spec, auto kernel) {
    const std::uint64_t cost = spec.cost;
    return exec.submit(std::move(spec), [kernel, cost](auto& unit) {
      kernel();
      unit.charge_cpu(cost);
    });
  };
  std::vector<TaskTicket> b_prev(t), c_prev(t), d_prev(t);
  try {
    for (std::size_t k = 0; k < t; ++k) {
      TaskSpec a_spec{.cost = costs.a, .cpu = true};
      if (k > 0) a_spec.after.push_back(d_prev[k]);
      const TaskTicket a =
          cpu_task(std::move(a_spec), [kernel_a, k] { kernel_a(k); });
      std::vector<TaskTicket> b_now(t), c_now(t);
      for_updated(k, [&](std::size_t j) {
        TaskSpec spec{.cost = costs.b, .after = {a}, .cpu = true};
        if (k > 0 && j == k - 1) {
          spec.after.push_back(c_prev[k]);
          for_updated(k - 1, [&](std::size_t x) {
            spec.after.push_back(d_prev[x]);
          });
        } else if (k > 0) {
          spec.after.push_back(d_prev[j]);
        }
        b_now[j] =
            cpu_task(std::move(spec), [kernel_b, k, j] { kernel_b(k, j); });
      });
      for_updated(k, [&](std::size_t i) {
        TaskSpec spec{.cost = costs.c, .after = {a}, .cpu = true};
        if (k > 0 && i == k - 1) spec.after.push_back(b_prev[k]);
        c_now[i] =
            cpu_task(std::move(spec), [kernel_c, k, i] { kernel_c(k, i); });
      });
      for_updated(k, [&](std::size_t j) {
        TaskSpec spec = d_spec(k, j);
        spec.after.push_back(b_now[j]);
        for_updated(k, [&](std::size_t i) { spec.after.push_back(c_now[i]); });
        d_prev[j] = exec.submit(std::move(spec), [kernel_d, k, j](auto& unit) {
          kernel_d(unit, k, j);
        });
      });
      b_prev = std::move(b_now);
      c_prev = std::move(c_now);
    }
  } catch (...) {
    // Tasks already submitted write the caller's blocks: let them finish
    // before the exception reaches a caller that frees or permutes them.
    try {
      exec.join();
    } catch (...) {
    }
    throw;
  }
  exec.join();
}

}  // namespace tcu::linalg
