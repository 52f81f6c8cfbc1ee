#include "graph/closure.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/contract.hpp"

namespace tcu::graph {

namespace {

/// Uncharged precondition of every entry point: `d` is square and holds
/// only 0 and 1, which also rejects NaN and fractions. A kernel D sum
/// adds at most s = `tile_dim` products to an old entry, all 0/1, so it
/// is exact only while s + 1 fits Vert's significand; `tile_dim` 0 means
/// no tensor products.
void check_adjacency(ConstMatrixView<Vert> d, std::size_t tile_dim) {
  if (d.cols != d.rows) throw std::invalid_argument("closure: square input");
  constexpr std::uint64_t kExactMax = std::uint64_t{1}
                                      << std::numeric_limits<Vert>::digits;
  if (tile_dim + 1 > kExactMax) {
    throw std::invalid_argument(
        "closure: tile side too large for exact kernel D sums");
  }
  for (std::size_t i = 0; i < d.rows; ++i) {
    for (std::size_t j = 0; j < d.cols; ++j) {
      if (d(i, j) != 0 && d(i, j) != 1) {
        throw std::invalid_argument("closure: entries must be 0 or 1");
      }
    }
  }
}

/// X |= P * Q over the boolean semiring, in the Figure 5 k/i/j order.
/// Row i is skipped when its pivot entry P(i, k) is 0; otherwise row k of
/// Q is ORed into it with a branch-free max on 0/1 values, which the
/// compiler vectorises. P and Q may alias X: the pivot column and row do
/// not change during their own k step (X(i,k) |= X(i,k) & X(k,k)), so the
/// output equals the unskipped scalar loop bit for bit.
void or_product(MatrixView<Vert> X, ConstMatrixView<Vert> P,
                ConstMatrixView<Vert> Q) {
  const std::size_t s = P.cols;
  for (std::size_t k = 0; k < s; ++k) {
    const Vert* xk = &Q(k, 0);
    for (std::size_t i = 0; i < X.rows; ++i) {
      if (P(i, k) == 0) continue;
      Vert* xi = &X(i, 0);
      for (std::size_t j = 0; j < X.cols; ++j) xi[j] = std::max(xi[j], xk[j]);
    }
  }
}

// The Figure 7 kernels as pure computations; the caller charges their
// s^3 (or rows*cols for the clamp) CPU cost to whichever counter owns the
// work — the device on the serial path, the executing unit on the pool
// path.

/// Kernel A (Figure 7): boolean closure within the diagonal block.
void kernel_a(MatrixView<Vert> X) { or_product(X, X, X); }

/// Kernel B (Figure 7): X |= Y (diagonal block) times X, boolean.
void kernel_b(MatrixView<Vert> X, ConstMatrixView<Vert> Y) {
  or_product(X, Y, X);
}

/// Kernel C (Figure 7): X |= X times Y (diagonal block), boolean.
void kernel_c(MatrixView<Vert> X, ConstMatrixView<Vert> Y) {
  or_product(X, X, Y);
}

/// Clamp a strip back to 0/1 after an arithmetic D update (lines 5-7 of
/// function D in Figure 7).
void clamp_block(MatrixView<Vert> X) {
  for (std::size_t i = 0; i < X.rows; ++i) {
    for (std::size_t j = 0; j < X.cols; ++j) {
      if (X(i, j) > 1) X(i, j) = 1;
    }
  }
}

void closure_tcu_divisible(Device<Vert>& dev, MatrixView<Vert> X) {
  const std::size_t n = X.rows;
  const std::size_t s = dev.tile_dim();
  const std::size_t t = n / s;
  const std::uint64_t s3 = static_cast<std::uint64_t>(s) * s * s;
  for (std::size_t kb = 0; kb < t; ++kb) {
    auto diag = X.subview(kb * s, kb * s, s, s);
    kernel_a(diag);
    dev.charge_cpu(s3);
    for (std::size_t jb = 0; jb < t; ++jb) {
      if (jb != kb) {
        kernel_b(X.subview(kb * s, jb * s, s, s), diag);
        dev.charge_cpu(s3);
      }
    }
    for (std::size_t ib = 0; ib < t; ++ib) {
      if (ib != kb) {
        kernel_c(X.subview(ib * s, kb * s, s, s), diag);
        dev.charge_cpu(s3);
      }
    }
    // Kernel D: for each block column j != k, load X_kj as the weight
    // matrix and stream the column panel X_ik for all i != k. The panel is
    // contiguous above and below the pivot row — two tall calls.
    for (std::size_t jb = 0; jb < t; ++jb) {
      if (jb == kb) continue;
      auto weight = X.subview(kb * s, jb * s, s, s);
      // The weight block X_kj is overwritten by kernel B every pivot
      // iteration: equal addresses would not mean equal content, so the
      // residency contract forbids tagging it.
      check::AllowUntaggedClobber allow_clobber;
      if (kb > 0) {
        // tcu-lint: untagged-ok(weight block mutated every pivot iteration)
        dev.gemm(X.subview(0, kb * s, kb * s, s), weight,
                 X.subview(0, jb * s, kb * s, s), /*accumulate=*/true);
        clamp_block(X.subview(0, jb * s, kb * s, s));
        dev.charge_cpu(static_cast<std::uint64_t>(kb) * s * s);
      }
      if (kb + 1 < t) {
        const std::size_t top = (kb + 1) * s;
        // tcu-lint: untagged-ok(weight block mutated every pivot iteration)
        dev.gemm(X.subview(top, kb * s, n - top, s), weight,
                 X.subview(top, jb * s, n - top, s), /*accumulate=*/true);
        clamp_block(X.subview(top, jb * s, n - top, s));
        dev.charge_cpu(static_cast<std::uint64_t>(n - top) * s);
      }
    }
  }
}

/// Pool variant: one dependency-ordered round for the whole closure, with
/// a single strict join at the end. Every kernel is a unit task — CPU
/// (A/B/C) or chain-free tensor (D) — and each task declares only the
/// predecessors the pivot panels actually order, so no lane idles on a
/// per-pivot fence. With writer(i,j) = the last pivot's task that wrote
/// block (i,j) (D(k-1,j) for most blocks, B(k-1,j) / C(k-1,i) for the old
/// pivot row and column):
///
///   A(k)    after D(k-1, k)                (the diagonal block)
///   B(k,j)  after A(k), writer(k, j)       (the new pivot-row block)
///   C(k,i)  after A(k) [, B(k-1, k) when i is the old pivot row —
///           every other writer is covered through A's dependence]
///   D(k,j)  after B(k,j), every C(k,i)     (weight + full column panel;
///           the accumulate chain into column j is ordered through
///           B(k,j) -> D(k-1,j) -> B(k-1,j))
///
/// The FP/boolean op order per block is unchanged and each column's
/// accumulates stay in pivot order, so outputs are bit-identical to the
/// serial closure; aggregate counters equal the serial ones because each
/// kernel charges the executing unit exactly what the serial path charges
/// the device (same field sums).
void closure_pool(PoolExecutor<Vert>& exec, MatrixView<Vert> X) {
  const Device<Vert>& unit0 = exec.pool().unit(0);
  const std::size_t n = X.rows;
  const std::size_t s = unit0.tile_dim();
  const std::size_t t = n / s;
  const std::uint64_t s3 = static_cast<std::uint64_t>(s) * s * s;
  std::vector<TaskTicket> b_prev(t), c_prev(t), d_prev(t);
  for (std::size_t kb = 0; kb < t; ++kb) {
    auto diag = X.subview(kb * s, kb * s, s, s);
    TaskSpec a_spec{.cost = s3, .cpu = true};
    if (kb > 0) a_spec.after.push_back(d_prev[kb]);
    const TaskTicket a =
        exec.submit(std::move(a_spec), [diag, s3](Device<Vert>& unit) {
          kernel_a(diag);
          unit.charge_cpu(s3);
        });
    std::vector<TaskTicket> b_now(t), c_now(t);
    for (std::size_t jb = 0; jb < t; ++jb) {
      if (jb == kb) continue;
      TaskSpec b_spec{.cost = s3, .after = {a}, .cpu = true};
      if (kb > 0) {
        if (jb == kb - 1) {
          // The old pivot column: C(k-1, k) wrote this block, and every
          // D(k-1, x) *read* it as part of its column panel — the
          // overwrite must wait for all of them. This also transitively
          // orders D(k, k-1)'s writes into the old pivot column (and its
          // diagonal) behind all of pivot k-1's readers, since each
          // D(k-1, x) depends on B(k-1, x) and every C(k-1, i).
          b_spec.after.push_back(c_prev[kb]);
          for (std::size_t x = 0; x < t; ++x) {
            if (x != kb - 1) b_spec.after.push_back(d_prev[x]);
          }
        } else {
          b_spec.after.push_back(d_prev[jb]);
        }
      }
      auto block = X.subview(kb * s, jb * s, s, s);
      b_now[jb] = exec.submit(
          std::move(b_spec), [block, diag, s3](Device<Vert>& unit) {
            kernel_b(block, diag);
            unit.charge_cpu(s3);
          });
    }
    for (std::size_t ib = 0; ib < t; ++ib) {
      if (ib == kb) continue;
      TaskSpec c_spec{.cost = s3, .after = {a}, .cpu = true};
      if (kb > 0 && ib == kb - 1) c_spec.after.push_back(b_prev[kb]);
      auto block = X.subview(ib * s, kb * s, s, s);
      c_now[ib] = exec.submit(
          std::move(c_spec), [block, diag, s3](Device<Vert>& unit) {
            kernel_c(block, diag);
            unit.charge_cpu(s3);
          });
    }
    std::uint64_t cost = 0;
    if (kb > 0) cost += projected_gemm_cost(unit0, kb * s);
    if (kb + 1 < t) cost += projected_gemm_cost(unit0, n - (kb + 1) * s);
    for (std::size_t jb = 0; jb < t; ++jb) {
      if (jb == kb) continue;
      TaskSpec d_spec{.cost = cost, .after = {b_now[jb]}};
      for (std::size_t ib = 0; ib < t; ++ib) {
        if (ib != kb) d_spec.after.push_back(c_now[ib]);
      }
      d_prev[jb] = exec.submit(
          std::move(d_spec), [X, kb, jb, s, t, n](Device<Vert>& unit) {
            auto weight = X.subview(kb * s, jb * s, s, s);
            if (kb > 0) {
              // tcu-lint: untagged-ok(empty-chain task; weight mutated per pivot)
              unit.gemm(X.subview(0, kb * s, kb * s, s), weight,
                        X.subview(0, jb * s, kb * s, s), /*accumulate=*/true);
              clamp_block(X.subview(0, jb * s, kb * s, s));
              unit.charge_cpu(static_cast<std::uint64_t>(kb) * s * s);
            }
            if (kb + 1 < t) {
              const std::size_t top = (kb + 1) * s;
              // tcu-lint: untagged-ok(empty-chain task; weight mutated per pivot)
              unit.gemm(X.subview(top, kb * s, n - top, s), weight,
                        X.subview(top, jb * s, n - top, s),
                        /*accumulate=*/true);
              clamp_block(X.subview(top, jb * s, n - top, s));
              unit.charge_cpu(static_cast<std::uint64_t>(n - top) * s);
            }
          });
    }
    b_prev = std::move(b_now);
    c_prev = std::move(c_now);
  }
  exec.join();
}

}  // namespace

void closure_naive(MatrixView<Vert> d, Counters& counters) {
  check_adjacency(d, 0);
  const std::size_t n = d.rows;
  or_product(d, d, d);
  // Figure 5 charges one unit per innermost update; it scans every j of a
  // row whose pivot entry is 0, too.
  counters.charge_cpu(static_cast<std::uint64_t>(n) * n * n);
}

void closure_tcu(Device<Vert>& dev, MatrixView<Vert> d) {
  const std::size_t s = dev.tile_dim();
  check_adjacency(d, s);
  const std::size_t n = d.rows;
  if (n == 0) return;
  if (n % s == 0) {
    closure_tcu_divisible(dev, d);
    return;
  }
  // Pad with isolated vertices (no edges): they cannot create paths, so
  // the closure restricted to the original vertices is unchanged.
  const std::size_t np = ((n + s - 1) / s) * s;
  AdjMatrix padded(np, np, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) padded(i, j) = d(i, j);
  }
  dev.charge_cpu(np * np);
  closure_tcu_divisible(dev, padded.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = padded(i, j);
  }
  dev.charge_cpu(n * n);
}

void closure_tcu(PoolExecutor<Vert>& exec, MatrixView<Vert> d) {
  DevicePool<Vert>& pool = exec.pool();
  const std::size_t s = pool.unit(0).tile_dim();
  check_adjacency(d, s);
  const std::size_t n = d.rows;
  if (n == 0) return;
  if (n % s == 0) {
    closure_pool(exec, d);
    return;
  }
  const std::size_t np = ((n + s - 1) / s) * s;
  AdjMatrix padded(np, np, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) padded(i, j) = d(i, j);
  }
  pool.charge_cpu(np * np);
  closure_pool(exec, padded.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = padded(i, j);
  }
  pool.charge_cpu(n * n);
}

AdjMatrix closure_bfs_oracle(ConstMatrixView<Vert> adjacency) {
  const std::size_t n = adjacency.rows;
  if (adjacency.cols != n) {
    throw std::invalid_argument("closure_bfs_oracle: square input");
  }
  AdjMatrix out(n, n, 0);
  std::vector<std::size_t> stack;
  std::vector<char> seen(n);
  for (std::size_t src = 0; src < n; ++src) {
    std::fill(seen.begin(), seen.end(), 0);
    stack.assign(1, src);
    seen[src] = 1;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (std::size_t w = 0; w < n; ++w) {
        if (adjacency(v, w) != 0 && !seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
    for (std::size_t w = 0; w < n; ++w) {
      // Figure 5 semantics: d[i,j] reports reachability including the
      // trivial i = j case whenever a self-loop or cycle produces it; the
      // iterative algorithm keeps d[i,i] = 1 only if it was set or lies on
      // a cycle. BFS marks the source, so mirror that convention: i
      // reaches j if j is seen via at least one edge, or i == j with the
      // initial matrix already having d[i,i] = 1.
      if (w == src) continue;
      out(src, w) = seen[w];
    }
  }
  // Diagonal: v reaches itself through a cycle (some w with v->w and w->v
  // reachable) or an explicit self-loop.
  for (std::size_t v = 0; v < n; ++v) {
    if (adjacency(v, v) != 0) {
      out(v, v) = 1;
      continue;
    }
    for (std::size_t w = 0; w < n && out(v, v) == 0; ++w) {
      if (w != v && adjacency(v, w) != 0 && out(w, v) != 0) out(v, v) = 1;
    }
    // Direct back-edge cycle v->w->v.
    for (std::size_t w = 0; w < n && out(v, v) == 0; ++w) {
      if (w != v && adjacency(v, w) != 0 && adjacency(w, v) != 0) {
        out(v, v) = 1;
      }
    }
  }
  return out;
}

}  // namespace tcu::graph
