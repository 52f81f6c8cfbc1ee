#pragma once
// Gaussian elimination without pivoting in the (m, l)-TCU model (§4.2).
//
// The input is the sqrt(n) x sqrt(n) augmented matrix `c` of Figure 2: the
// first sqrt(n)-1 rows hold a system of sqrt(n)-1 equations (coefficients
// plus right-hand side in the last column); the last row is all zeros.
//
// `ge_forward_naive` is the Theta(r^3) triple loop of Figure 2.
// `ge_forward_tcu` is the blocked algorithm of Figure 4: the matrix is cut
// into sqrt(m) x sqrt(m) blocks; per outer iteration k the diagonal block
// is eliminated in place (kernel A), the row panel is updated and the
// rescaled strip X' prepared (kernel B), the column panel partially
// eliminated (kernel C), and the whole trailing submatrix updated by
// kernel D — the only TCU step: X'_j is loaded as the weight matrix and
// the entire column panel below the diagonal streams through the unit as
// one tall call, giving Theta(n^{3/2}/sqrt(m) + (n/m) l + n sqrt(m))
// (Theorem 4).
//
// Only the upper triangle (the row-echelon output consumed by back
// substitution) is meaningful after the forward phase; below-diagonal
// storage holds partially-transformed multipliers, exactly as in the
// paper's pseudocode which never zeroes it.

#include <cstdint>
#include <type_traits>
#include <stdexcept>
#include <vector>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/parallel.hpp"

namespace tcu::linalg {

/// Key namespace of the kernel-D weight strips (see make_tile_key): the
/// weight of block column j in outer iteration k is X'_j, freshly
/// rewritten every pivot, so its identity is the *pair* (k, j) — never
/// the storage address, which is reused across pivots with different
/// content. Keys are call-local: `ge_forward_tcu` evicts all residency on
/// entry so a previous elimination's keys can never produce phantom hits.
inline constexpr std::uint16_t kGePanelTag = 0x6E47;

inline constexpr std::uint64_t ge_panel_key(std::size_t kb, std::size_t jb) {
  return make_tile_key(kGePanelTag,
                       (static_cast<std::uint64_t>(kb) << 24) | jb);
}

/// Figure 2: unblocked forward elimination, in place; charges one unit per
/// innermost update to `counters`.
template <typename T>
void ge_forward_naive(MatrixView<T> c, Counters& counters) {
  const std::size_t r = c.rows;
  if (c.cols != r) throw std::invalid_argument("ge_forward: square input");
  std::uint64_t updates = 0;
  for (std::size_t k = 0; k + 2 < r; ++k) {
    for (std::size_t i = k + 1; i + 1 < r; ++i) {
      const T factor = -c(i, k) / c(k, k);
      for (std::size_t j = k + 1; j < r; ++j) {
        c(i, j) += factor * c(k, j);
        ++updates;
      }
    }
  }
  counters.charge_cpu(updates);
}

namespace ge_detail {

// The Figure 4 kernels as pure computations returning their update
// counts; the caller charges the cost to whichever counter owns the work
// (the device on the serial path, the shared CPU on the pool path).

/// Kernel A (Figure 4): eliminate within the diagonal block.
template <typename T>
std::uint64_t kernel_a_ops(MatrixView<T> X) {
  const std::size_t s = X.rows;
  std::uint64_t updates = 0;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    for (std::size_t i = k + 1; i < s; ++i) {
      for (std::size_t j = k + 1; j < s; ++j) {
        X(i, j) -= X(i, k) * X(k, j) / X(k, k);
        ++updates;
      }
    }
  }
  return updates;
}

template <typename T>
void kernel_a(Device<T>& dev, MatrixView<T> X) {
  dev.charge_cpu(kernel_a_ops(X));
}

/// Kernel B (Figure 4): update a row-panel block X using the diagonal
/// block Y, then emit the rescaled strip X' = -X / diag(Y) consumed by
/// kernel D as the TCU weight matrix.
template <typename T>
std::uint64_t kernel_b_ops(MatrixView<T> X,
                           std::type_identity_t<ConstMatrixView<T>> Y,
                           MatrixView<T> Xp) {
  const std::size_t s = X.rows;
  std::uint64_t updates = 0;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    for (std::size_t i = k + 1; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        X(i, j) -= Y(i, k) * X(k, j) / Y(k, k);
        ++updates;
      }
    }
  }
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      Xp(i, j) = -X(i, j) / Y(i, i);
      ++updates;
    }
  }
  return updates;
}

template <typename T>
void kernel_b(Device<T>& dev, MatrixView<T> X,
              std::type_identity_t<ConstMatrixView<T>> Y,
              MatrixView<T> Xp) {
  dev.charge_cpu(kernel_b_ops(X, Y, Xp));
}

/// Kernel C (Figure 4): partially eliminate a column-panel block X using
/// the diagonal block Y.
template <typename T>
std::uint64_t kernel_c_ops(MatrixView<T> X,
                           std::type_identity_t<ConstMatrixView<T>> Y) {
  const std::size_t s = X.rows;
  std::uint64_t updates = 0;
  for (std::size_t k = 0; k < s; ++k) {
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = k + 1; j < s; ++j) {
        X(i, j) -= X(i, k) * Y(k, j) / Y(k, k);
        ++updates;
      }
    }
  }
  return updates;
}

template <typename T>
void kernel_c(Device<T>& dev, MatrixView<T> X,
              std::type_identity_t<ConstMatrixView<T>> Y) {
  dev.charge_cpu(kernel_c_ops(X, Y));
}

// Closed-form update counts for the kernels above (the pool path
// needs each task's exact cost before it runs; the *_ops functions
// compute it by doing the work). Verified against the loops:
//   A: sum_{k=0}^{s-2} (s-1-k)^2            = (s-1)s(2s-1)/6
//   B: sum_{k=0}^{s-2} (s-1-k)*s  +  s^2    = s*s(s-1)/2 + s^2
//   C: sum_{k=0}^{s-1} s*(s-1-k)            = s*s(s-1)/2

inline constexpr std::uint64_t kernel_a_cost(std::uint64_t s) {
  return s == 0 ? 0 : (s - 1) * s * (2 * s - 1) / 6;
}

inline constexpr std::uint64_t kernel_b_cost(std::uint64_t s) {
  return s * (s * (s - 1) / 2) + s * s;
}

inline constexpr std::uint64_t kernel_c_cost(std::uint64_t s) {
  return s * (s * (s - 1) / 2);
}

}  // namespace ge_detail

/// Figure 4 / Theorem 4: blocked forward elimination on the TCU, in place.
/// Requires the matrix dimension to be a multiple of sqrt(m) (use
/// `make_augmented` to embed an arbitrary system into such a size).
/// Kernel D tags X'_j as the resident weight of its block column — the
/// Theorem 4 accounting loads each weight once per (k, j) and streams the
/// whole column panel past it, so in the weak model the square calls of
/// one panel share the single load (`Counters::resident_hits` counts the
/// reuse) instead of re-paying l per call as the previously untagged
/// `gemm` did. Tall-mode charges are unchanged (one call, one load).
template <typename T>
void ge_forward_tcu(Device<T>& dev, MatrixView<T> X) {
  const std::size_t r = X.rows;
  const std::size_t s = dev.tile_dim();
  if (X.cols != r) throw std::invalid_argument("ge_forward_tcu: square input");
  if (r % s != 0) {
    throw std::invalid_argument(
        "ge_forward_tcu: dimension must be a multiple of sqrt(m)");
  }
  // The (k, j) keys are call-local: drop any residency a previous
  // elimination left behind so equal keys cannot alias different X'_j.
  dev.evict_all();
  const std::size_t t = r / s;
  // The X' strip of Figure 4, stored tile-contiguous: X'_j is rows
  // [jb·s, jb·s + s), so kernel D's weight is one dense s x s block, not
  // s rows r elements apart (8 KiB apart at r = 1024 doubles, so all in
  // the same L1 sets). Values, keys and charges do not depend on layout.
  Matrix<T> xp(r, s, T{});
  for (std::size_t kb = 0; kb < t; ++kb) {
    ge_detail::kernel_a(dev, X.subview(kb * s, kb * s, s, s));
    for (std::size_t jb = kb + 1; jb < t; ++jb) {
      ge_detail::kernel_b(dev, X.subview(kb * s, jb * s, s, s),
                          X.subview(kb * s, kb * s, s, s),
                          xp.subview(jb * s, 0, s, s));
    }
    for (std::size_t ib = kb + 1; ib < t; ++ib) {
      ge_detail::kernel_c(dev, X.subview(ib * s, kb * s, s, s),
                          X.subview(kb * s, kb * s, s, s));
    }
    if (kb + 1 == t) break;
    // Kernel D: for each trailing block column j, load X'_j as the weight
    // matrix and stream the whole column panel below the diagonal through
    // the tensor unit in one tall call (lines 8-10 of GE-forward).
    const std::size_t top = (kb + 1) * s;
    const std::size_t tall_rows = r - top;
    for (std::size_t jb = kb + 1; jb < t; ++jb) {
      dev.gemm_resident(ge_panel_key(kb, jb),
                        X.subview(top, kb * s, tall_rows, s),
                        xp.subview(jb * s, 0, s, s),
                        X.subview(top, jb * s, tall_rows, s),
                        /*accumulate=*/true);
    }
  }
}

/// Theorem 4 across the pool. Outputs and aggregate counters (including
/// resident_hits/latency: every key is unique per (k, j), so dealing
/// cannot create or destroy hits) are bit-identical to `ge_forward_tcu`
/// at every unit count — except `Counters::evictions`, which is
/// schedule-dependent: each active lane's first insertion fills an empty
/// cache without displacing anything, so the aggregate eviction count
/// shrinks with the number of lanes the panels land on.
///
/// The whole elimination is one dependency-ordered round with a single
/// strict join at the end. Kernels A-C (the pivot row and column) are
/// CPU unit tasks (`.cpu = true`); each trailing block column's kernel-D
/// update — one tall `gemm_resident` on a panel disjoint from every other
/// j — is one task whose chain is its X'_j key. Each task declares only its
/// true predecessors:
///
///   A(k)    after D(k-1, k)                       (the diagonal block)
///   B(k,j)  after A(k), D(k-1, j)                 (row panel + X'_j)
///   C(k,i)  after A(k)          (A retired => D(k-1, k) retired)
///   D(k,j)  after B(k,j), every C(k,i)   (B retired => D(k-1, j)
///           retired, ordering the accumulate chain into column j)
///
/// so pivot k+1's column panel starts the moment its own inputs settle,
/// while trailing columns of pivot k are still streaming on other lanes.
/// The FP schedule per block is unchanged and the D accumulates into each
/// column stay in pivot order, so outputs remain bit-identical to serial.
template <typename T>
void ge_forward_tcu_pool(PoolExecutor<T>& exec, MatrixView<T> X) {
  const Device<T>& unit0 = exec.pool().unit(0);
  const std::size_t r = X.rows;
  const std::size_t s = unit0.tile_dim();
  if (X.cols != r) throw std::invalid_argument("ge_forward_tcu: square input");
  if (r % s != 0) {
    throw std::invalid_argument(
        "ge_forward_tcu: dimension must be a multiple of sqrt(m)");
  }
  exec.evict_all();  // call-local keys, exactly as on the serial path
  const std::size_t t = r / s;
  Matrix<T> xp(r, s, T{});  // tile-contiguous X' strip, as on the serial path
  const std::uint64_t a_cost = ge_detail::kernel_a_cost(s);
  const std::uint64_t b_cost = ge_detail::kernel_b_cost(s);
  const std::uint64_t c_cost = ge_detail::kernel_c_cost(s);
  std::vector<TaskTicket> d_prev(t);  // D(kb-1, jb), indexed by jb
  auto xp_view = xp.view();
  for (std::size_t kb = 0; kb < t; ++kb) {
    TaskSpec a_spec{.cost = a_cost, .cpu = true};
    if (kb > 0) a_spec.after.push_back(d_prev[kb]);
    const TaskTicket a = exec.submit(
        std::move(a_spec), [X, kb, s](Device<T>& unit) {
          unit.charge_cpu(
              ge_detail::kernel_a_ops(X.subview(kb * s, kb * s, s, s)));
        });
    std::vector<TaskTicket> b_tickets(t);
    for (std::size_t jb = kb + 1; jb < t; ++jb) {
      TaskSpec b_spec{.cost = b_cost, .after = {a}, .cpu = true};
      if (kb > 0) b_spec.after.push_back(d_prev[jb]);
      b_tickets[jb] = exec.submit(
          std::move(b_spec), [X, xp_view, kb, jb, s](Device<T>& unit) {
            unit.charge_cpu(ge_detail::kernel_b_ops(
                X.subview(kb * s, jb * s, s, s),
                X.subview(kb * s, kb * s, s, s),
                xp_view.subview(jb * s, 0, s, s)));
          });
    }
    std::vector<TaskTicket> c_tickets;
    for (std::size_t ib = kb + 1; ib < t; ++ib) {
      c_tickets.push_back(exec.submit(
          {.cost = c_cost, .after = {a}, .cpu = true},
          [X, kb, ib, s](Device<T>& unit) {
            unit.charge_cpu(ge_detail::kernel_c_ops(
                X.subview(ib * s, kb * s, s, s),
                X.subview(kb * s, kb * s, s, s)));
          }));
    }
    if (kb + 1 == t) break;
    const std::size_t top = (kb + 1) * s;
    const std::size_t tall_rows = r - top;
    const std::uint64_t cost =
        detail::strip_tile_cost(unit0, tall_rows, /*affinity=*/true);
    for (std::size_t jb = kb + 1; jb < t; ++jb) {
      const std::uint64_t key = ge_panel_key(kb, jb);
      TaskSpec d_spec{
          .cost = cost, .chain = {key}, .after = {b_tickets[jb]}};
      d_spec.after.insert(d_spec.after.end(), c_tickets.begin(),
                          c_tickets.end());
      d_prev[jb] = exec.submit(
          std::move(d_spec),
          [X, xp_view, key, top, tall_rows, kb, jb, s](Device<T>& unit) {
            unit.gemm_resident(key, X.subview(top, kb * s, tall_rows, s),
                               xp_view.subview(jb * s, 0, s, s),
                               X.subview(top, jb * s, tall_rows, s),
                               /*accumulate=*/true);
          });
    }
  }
  exec.join();
}

/// Build the (R x R) augmented matrix of Figure 2 for the system A x = b
/// (A: d x d, b: d), embedding into dimension R >= d + 1 by appending
/// trivial equations x_t = 0, so blocked elimination sees a multiple of
/// sqrt(m). The final row is all zeros per the paper's convention.
template <typename T>
Matrix<T> make_augmented(ConstMatrixView<T> A, const std::vector<T>& b,
                         std::size_t R) {
  const std::size_t d = A.rows;
  if (A.cols != d || b.size() != d) {
    throw std::invalid_argument("make_augmented: A must be d x d, b size d");
  }
  if (R < d + 1) throw std::invalid_argument("make_augmented: R too small");
  Matrix<T> c(R, R, T{});
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) c(i, j) = A(i, j);
    c(i, R - 1) = b[i];
  }
  for (std::size_t i = d; i + 1 < R; ++i) c(i, i) = T{1};
  return c;
}

/// Second phase (§4.2): back substitution on the row-echelon augmented
/// matrix; returns the R-1 unknowns. Theta(R^2), charged to `counters`.
template <typename T>
std::vector<T> back_substitute(ConstMatrixView<T> c, Counters& counters) {
  const std::size_t r = c.rows;
  if (c.cols != r || r < 2) {
    throw std::invalid_argument("back_substitute: square input, r >= 2");
  }
  std::vector<T> x(r - 1, T{});
  std::uint64_t ops = 0;
  for (std::size_t ii = r - 1; ii-- > 0;) {
    T acc = c(ii, r - 1);
    for (std::size_t j = ii + 1; j + 1 < r; ++j) {
      acc -= c(ii, j) * x[j];
      ++ops;
    }
    x[ii] = acc / c(ii, ii);
    ++ops;
  }
  counters.charge_cpu(ops);
  return x;
}

}  // namespace tcu::linalg
