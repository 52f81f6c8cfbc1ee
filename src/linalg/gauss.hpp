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
// (Theorem 4). Serial and pooled, it runs the GEP schedule it shares
// with transitive closure (linalg/gep.hpp), on strip-major storage
// (`with_strip_major`, core/matrix.hpp): permuted in place on every lane
// for a contiguous matrix, packed for a view into a wider one.
//
// Only the upper triangle (the row-echelon output consumed by back
// substitution) is meaningful after the forward phase; below-diagonal
// storage holds partially-transformed multipliers, exactly as in the
// paper's pseudocode which never zeroes it.
//
// Kernels A-C are CPU work made of one step, x -= a * y / c, and for
// double each step's division bounded them. The double kernels
// (gauss.cpp) are compiled once per SIMD rung, one rung picked per
// process by cpuid through plain function pointers (no IFUNC, which a
// sanitizer runtime cannot run before it starts):
//
//   rung     target            quotient of each step
//   avx512   avx512f           8 lanes per zmm, FMA-corrected, below
//   avx2     avx2,fma          4 lanes per ymm, FMA-corrected, below
//   generic  the build's       the division loop (the templates here)
//
// The FMA rungs take r = RN(1 / c) once per pivot and, per element,
// num = RN(a * y) and q = RN(num * r), then twice
// q = fma(fma(-q, c, num), r, q), and x -= q. The residual
// fma(-q, c, num) is exact while q is within a few ulps of num / c;
// the first correction makes q faithful, and Markstein's theorem (IBM J.
// Res. Dev. 34(1), 1990; Muller et al., Handbook of Floating-Point
// Arithmetic, 2nd ed., §4.7) then makes the second one RN(num / c): the
// quotient IEEE division returns, so every output bit equals the
// division loop's. The theorem needs num, q and the residual to stay
// normal and finite, so an FMA rung takes the fast step only when
//   |c| in [2^-500, 2^500]                       (once per pivot),
//   |y| in [2^-250, 2^250] for the pivot row     (once per pivot),
//   |a| in [2^-250, 2^250]                       (once per row),
// and X' = -X / diag(Y) takes num = -x with |x| in [2^-500, 2^500]
// (once per row). That excludes zeros (the residual form returns +0 for a
// -0 numerator), subnormals, infinities and NaN; a row outside the guard
// runs the division loop, which rounds the same on every rung. Any T
// other than double runs the template kernels below.
//
// Kernel B updates s-k-1 full rows of its block per pivot. Kernel C's
// updates X(i, j) -= X(i, k) * Y(k, j) / Y(k, k) touch the columns
// j > k of all s rows, so the FMA rungs run C on the block's transpose
// in a per-thread scratch block: per pivot, s-k-1 full-width rows with
// a_j = Y(k, j) and y the block's column k, as B does, then transpose
// back. A factor of that column outside the guard sends only its own
// column, not every row, to the division loop.

#include <cstdint>
#include <type_traits>
#include <stdexcept>
#include <vector>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/gep.hpp"
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

// The Figure 4 kernels as pure computations. The GEP schedule charges
// each its closed-form update count below to the unit that runs it.

/// Kernel A (Figure 4): eliminate within the diagonal block.
template <typename T>
void kernel_a(MatrixView<T> X) {
  const std::size_t s = X.rows;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    for (std::size_t i = k + 1; i < s; ++i) {
      for (std::size_t j = k + 1; j < s; ++j) {
        X(i, j) -= X(i, k) * X(k, j) / X(k, k);
      }
    }
  }
}

/// Kernel B (Figure 4): update a row-panel block X using the diagonal
/// block Y, then emit the rescaled strip X' = -X / diag(Y) consumed by
/// kernel D as the TCU weight matrix.
template <typename T>
void kernel_b(MatrixView<T> X, std::type_identity_t<ConstMatrixView<T>> Y,
              MatrixView<T> Xp) {
  const std::size_t s = X.rows;
  for (std::size_t k = 0; k + 1 < s; ++k) {
    for (std::size_t i = k + 1; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        X(i, j) -= Y(i, k) * X(k, j) / Y(k, k);
      }
    }
  }
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) Xp(i, j) = -X(i, j) / Y(i, i);
  }
}

/// Kernel C (Figure 4): partially eliminate a column-panel block X using
/// the diagonal block Y.
template <typename T>
void kernel_c(MatrixView<T> X, std::type_identity_t<ConstMatrixView<T>> Y) {
  const std::size_t s = X.rows;
  for (std::size_t k = 0; k < s; ++k) {
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = k + 1; j < s; ++j) {
        X(i, j) -= X(i, k) * Y(k, j) / Y(k, k);
      }
    }
  }
}

// Closed-form update counts of the kernels above, one unit per innermost
// update (tests/test_gauss.cpp checks them against the loops):
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

/// Kernels A-C as plain function pointers.
template <typename T>
struct GeKernels {
  void (*a)(MatrixView<T>);
  void (*b)(MatrixView<T>, ConstMatrixView<T>, MatrixView<T>);
  void (*c)(MatrixView<T>, ConstMatrixView<T>);
};

/// One rung of the double kernels (gauss.cpp), with the two steps every
/// kernel is made of, exposed so tests can check each rung's quotients.
struct GeDoubleRung {
  const char* name;  ///< "avx512", "avx2" or "generic"
  GeKernels<double> kernels;
  /// Rows i < rows: x_i[j] -= a_i * y[j] / c for j < n, where row x_i
  /// starts at x + i * ldx and a_i = a[i * lda]; y, a and the rows are
  /// disjoint.
  void (*eliminate)(double* x, std::size_t ldx, const double* a,
                    std::size_t lda, std::size_t rows, const double* y,
                    std::size_t n, double c);
  /// out[j] = -x[j] / c for j < n (one row of X' = -X / diag(Y)).
  void (*rescale)(double* out, const double* x, std::size_t n, double c);
};

/// The rung this process runs, picked by cpuid on first use: avx512 when
/// the CPU has AVX-512F, else avx2 when it has AVX2 and FMA, else generic.
const GeDoubleRung& ge_double_rung();

/// Every rung this build has and the running CPU supports, widest first;
/// the last is always generic.
std::vector<GeDoubleRung> ge_double_rungs();

/// Kernels A-C for T: the chosen double rung, the templates otherwise.
template <typename T>
GeKernels<T> ge_kernels() {
  if constexpr (std::is_same_v<T, double>) {
    return ge_double_rung().kernels;
  } else {
    return {kernel_a<T>, kernel_b<T>, kernel_c<T>};
  }
}

/// Figure 4 on any executor over the r x r matrix at `X` in strip-major
/// storage (`with_strip_major`): the GEP schedule over the blocks after
/// each pivot. The executor's `unit0` gives the tile side and costs the D
/// tasks. Kernels A-C take tiles; each kernel D is one tall
/// `gemm_resident` of strip k's rows below the diagonal past X'_j into
/// the same rows of strip j, its chain that one key.
template <typename T, typename Exec>
void ge_round(Exec& exec, T* X, std::size_t r) {
  const Device<T>& unit0 = exec.unit0();
  const std::size_t s = unit0.tile_dim();
  // The (k, j) keys are call-local: drop any residency a previous
  // elimination left behind so equal keys cannot alias different X'_j.
  exec.evict_all();
  // The X' strip of Figure 4, stored tile-contiguous: X'_j is rows
  // [jb·s, jb·s + s), so kernel D's weight is one dense s x s block, not
  // s rows r elements apart (8 KiB apart at r = 1024 doubles, so all in
  // the same L1 sets). Values, keys and charges do not depend on layout.
  Matrix<T> xp(r, s, T{});
  const auto xp_j = [xp = xp.view(), s](std::size_t j) {
    return xp.subview(j * s, 0, s, s);
  };
  const auto strip = [X, r, s](std::size_t j) {
    return MatrixView<T>(X + j * r * s, r, s, s);
  };
  const auto block = [strip, s](std::size_t i, std::size_t j) {
    return strip(j).row_block(i * s, s);
  };
  const GeKernels<T> kern = ge_kernels<T>();
  gep_schedule(
      exec, r / s, GepRange::kAfterPivot,
      {.a = kernel_a_cost(s), .b = kernel_b_cost(s), .c = kernel_c_cost(s)},
      [block, kern](std::size_t k) { kern.a(block(k, k)); },
      [block, xp_j, kern](std::size_t k, std::size_t j) {
        kern.b(block(k, j), block(k, k), xp_j(j));
      },
      [block, kern](std::size_t k, std::size_t i) {
        kern.c(block(i, k), block(k, k));
      },
      [&unit0, r, s](std::size_t k, std::size_t j) {
        return TaskSpec{.cost = detail::strip_tile_cost(unit0, r - (k + 1) * s,
                                                        /*affinity=*/true),
                        .chain = {ge_panel_key(k, j)}};
      },
      [strip, xp_j, r, s](Device<T>& unit, std::size_t k, std::size_t j) {
        const std::size_t top = (k + 1) * s;
        unit.gemm_resident(ge_panel_key(k, j), strip(k).row_block(top, r - top),
                           xp_j(j), strip(j).row_block(top, r - top),
                           /*accumulate=*/true);
      });
}

/// Check `X` and run `ge_round` on it in strip-major storage.
template <typename T, typename Exec>
void ge_forward(Exec& exec, MatrixView<T> X) {
  const std::size_t s = exec.unit0().tile_dim();
  if (X.cols != X.rows) {
    throw std::invalid_argument("ge_forward_tcu: square input");
  }
  if (X.rows % s != 0) {
    throw std::invalid_argument(
        "ge_forward_tcu: dimension must be a multiple of sqrt(m)");
  }
  with_strip_major(exec, X, s, [&exec](T* strips, std::size_t r) {
    ge_round(exec, strips, r);
  });
}

}  // namespace ge_detail

/// Figure 4 / Theorem 4: blocked forward elimination on the TCU, in place,
/// the GEP schedule run inline on `dev`. Requires the matrix dimension to
/// be a multiple of sqrt(m) (use `make_augmented` to embed an arbitrary
/// system into such a size). Kernel D tags X'_j as the resident weight of
/// its block column, so in the weak model the square calls of one panel
/// share its single load (`Counters::resident_hits` counts the reuse).
template <typename T>
void ge_forward_tcu(Device<T>& dev, MatrixView<T> X) {
  InlineExecutor<T> exec(dev);
  ge_detail::ge_forward(exec, X);
}

/// Theorem 4 across the pool: the same GEP schedule as one
/// dependency-ordered round with a single strict join. Kernels A-C are
/// CPU unit tasks; each kernel D is one task whose chain is its X'_j key,
/// so pivot k+1's column panel starts once its own inputs settle while
/// pivot k's trailing columns still stream on other lanes. Outputs and
/// aggregate counters (hits included: every key is unique per (k, j)) are
/// bit-identical to `ge_forward_tcu` at every unit count — except
/// `Counters::evictions`: each active lane's first insertion fills an
/// empty cache, so evictions shrink with the number of lanes used.
template <typename T>
void ge_forward_tcu_pool(PoolExecutor<T>& exec, MatrixView<T> X) {
  ge_detail::ge_forward(exec, X);
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
