#include "graph/closure.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/backend.hpp"
#include "linalg/gep.hpp"

namespace tcu::graph {

namespace {

// Closure's CPU loops (the entry check, kernels A-C and D's clamp) have
// one source body each, inlined into one function per SIMD width, and
// `loops()` picks a width once per process by the micro backend's cpuid
// rung: the library builds for baseline x86-64, which alone would leave
// them at SSE2. Plain function pointers need no IFUNC resolver, which a
// sanitizer runtime cannot run before it is initialised.

/// True when every entry of `d` is 0 or 1. Each row is OR-reduced
/// without branches, so the scan vectorises; NaN is unequal to both.
[[gnu::always_inline]] inline bool all_boolean_body(ConstMatrixView<Vert> d) {
  for (std::size_t i = 0; i < d.rows; ++i) {
    const Vert* row = d.data + i * d.stride;
    unsigned bad = 0;  // a bool accumulator does not vectorise
    for (std::size_t j = 0; j < d.cols; ++j) {
      bad |= (row[j] != 0) & (row[j] != 1);
    }
    if (bad != 0) return false;
  }
  return true;
}

/// X |= P * Q over the boolean semiring, in the Figure 5 k/i/j order.
/// Row i is skipped when its pivot entry P(i, k) is 0; otherwise row k of
/// Q is ORed into it with a branch-free max on 0/1 values, compiled at
/// each rung's width (16 floats per zmm on avx512f, 8 per ymm on avx2,
/// 4 per xmm otherwise). P and Q may alias X: the pivot column and row do
/// not change during their own k step (X(i,k) |= X(i,k) & X(k,k)), so the
/// output equals the unskipped scalar loop bit for bit.
[[gnu::always_inline]] inline void or_product_body(MatrixView<Vert> X,
                                                   ConstMatrixView<Vert> P,
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

/// Clamp a strip back to 0/1 after an arithmetic D update (lines 5-7 of
/// function D in Figure 7): x = min(x, 1), branch-free.
[[gnu::always_inline]] inline void clamp_block_body(MatrixView<Vert> X) {
  for (std::size_t i = 0; i < X.rows; ++i) {
    Vert* row = X.data + i * X.stride;
    for (std::size_t j = 0; j < X.cols; ++j) {
      row[j] = std::min(row[j], Vert{1});
    }
  }
}

/// The three loops compiled for one SIMD width.
struct Loops {
  bool (*all_boolean)(ConstMatrixView<Vert>);
  void (*or_product)(MatrixView<Vert>, ConstMatrixView<Vert>,
                     ConstMatrixView<Vert>);
  void (*clamp_block)(MatrixView<Vert>);
};

// One rung: each body inlined under the rung's target attribute `ATTR`.
#define TCU_CLOSURE_RUNG(rung, ATTR)                                    \
  namespace rung {                                                      \
  ATTR bool all_boolean(ConstMatrixView<Vert> d) {                      \
    return all_boolean_body(d);                                         \
  }                                                                     \
  ATTR void or_product(MatrixView<Vert> X, ConstMatrixView<Vert> P,     \
                       ConstMatrixView<Vert> Q) {                       \
    or_product_body(X, P, Q);                                           \
  }                                                                     \
  ATTR void clamp_block(MatrixView<Vert> X) { clamp_block_body(X); }    \
  constexpr Loops kLoops{all_boolean, or_product, clamp_block};         \
  }

TCU_CLOSURE_RUNG(generic, )
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCU_CLOSURE_X86 1
TCU_CLOSURE_RUNG(avx512, __attribute__((target("avx512f"))))
TCU_CLOSURE_RUNG(avx2, __attribute__((target("avx2"))))
#endif
#undef TCU_CLOSURE_RUNG

/// The rung `micro_simd_name()` reports, chosen on first use.
const Loops& loops() {
#ifdef TCU_CLOSURE_X86
  static const Loops chosen = backend_detail::micro_has_avx512() ? avx512::kLoops
                              : backend_detail::micro_has_avx2()
                                  ? avx2::kLoops
                                  : generic::kLoops;
  return chosen;
#else
  return generic::kLoops;
#endif
}

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
  if (!loops().all_boolean(d)) {
    throw std::invalid_argument("closure: entries must be 0 or 1");
  }
}

// The Figure 7 kernels as pure computations; the GEP schedule charges
// their s^3 CPU cost to the unit that runs them.

/// Kernel A (Figure 7): boolean closure within the diagonal block.
void kernel_a(MatrixView<Vert> X) { loops().or_product(X, X, X); }

/// Kernel B (Figure 7): X |= Y (diagonal block) times X, boolean.
void kernel_b(MatrixView<Vert> X, ConstMatrixView<Vert> Y) {
  loops().or_product(X, Y, X);
}

/// Kernel C (Figure 7): X |= X times Y (diagonal block), boolean.
void kernel_c(MatrixView<Vert> X, ConstMatrixView<Vert> Y) {
  loops().or_product(X, X, Y);
}

/// Figure 7 on any executor: the GEP schedule over every off-pivot block
/// of the n x n matrix `X`, n a multiple of the tile side s, held in
/// strip-major storage (TiledMatrix's layout): block column j is one
/// contiguous n x s panel of stride s, and each block a contiguous s x s
/// tile. Kernels A-C read and write tiles. Kernel D(k, j) loads X_kj as
/// the weight matrix and streams the column panel X_ik for all i != k —
/// the rows of strip k above and below the pivot tile, so two tall calls
/// into the same rows of strip j, each followed by its clamp. Every write
/// is thus one contiguous range (a tile, or whole rows of a strip), where
/// on row-major storage each was s-element pieces of rows that other
/// lanes were writing too. X_kj is rewritten by kernel B every pivot, so
/// equal addresses would not mean equal content: D is an untagged,
/// empty-chain task.
template <typename Exec>
void closure_gep(Exec& exec, Vert* X, std::size_t n) {
  const Device<Vert>& unit0 = exec.unit0();
  const std::size_t s = unit0.tile_dim();
  const std::size_t t = n / s;
  const std::uint64_t s3 = static_cast<std::uint64_t>(s) * s * s;
  const auto strip = [X, n, s](std::size_t j) {
    return MatrixView<Vert>(X + j * n * s, n, s, s);
  };
  const auto block = [strip, s](std::size_t i, std::size_t j) {
    return strip(j).row_block(i * s, s);
  };
  linalg::gep_schedule(
      exec, t, linalg::GepRange::kEveryOffPivot, {.a = s3, .b = s3, .c = s3},
      [block](std::size_t k) { kernel_a(block(k, k)); },
      [block](std::size_t k, std::size_t j) {
        kernel_b(block(k, j), block(k, k));
      },
      [block](std::size_t k, std::size_t i) {
        kernel_c(block(i, k), block(k, k));
      },
      [&unit0, n, s, t](std::size_t k, std::size_t) {
        TaskSpec spec;
        if (k > 0) spec.cost += projected_gemm_cost(unit0, k * s);
        if (k + 1 < t) spec.cost += projected_gemm_cost(unit0, n - (k + 1) * s);
        return spec;
      },
      [strip, block, n, s, t](Device<Vert>& unit, std::size_t k,
                              std::size_t j) {
        const auto weight = block(k, j);
        const auto panel = strip(k);
        const auto out = strip(j);
        if (k > 0) {
          // tcu-lint: untagged-ok(empty-chain task; weight mutated per pivot)
          unit.gemm(panel.row_block(0, k * s), weight, out.row_block(0, k * s),
                    /*accumulate=*/true);
          loops().clamp_block(out.row_block(0, k * s));
          unit.charge_cpu(static_cast<std::uint64_t>(k) * s * s);
        }
        if (k + 1 < t) {
          const std::size_t top = (k + 1) * s;
          // tcu-lint: untagged-ok(empty-chain task; weight mutated per pivot)
          unit.gemm(panel.row_block(top, n - top), weight,
                    out.row_block(top, n - top), /*accumulate=*/true);
          loops().clamp_block(out.row_block(top, n - top));
          unit.charge_cpu(static_cast<std::uint64_t>(n - top) * s);
        }
      });
}

/// Both entry points: check `d` and run the closure on `exec` in
/// strip-major storage (`with_strip_major`: in place, on every lane, for
/// a contiguous tile-aligned `d`, packed into a TiledMatrix otherwise).
/// The packed copy's zero padding adds isolated vertices (no edges: they
/// cannot create paths, so the closure restricted to the original
/// vertices is unchanged) up to a multiple of the tile side. The padding
/// copies of a ragged n are charged to the executor's shared CPU; the
/// layout change itself is not a model operation and is never charged.
template <typename Exec>
void closure_padded(Exec& exec, MatrixView<Vert> d) {
  const std::size_t s = exec.unit0().tile_dim();
  check_adjacency(d, s);
  const std::size_t n = d.rows;
  if (n == 0) return;
  const std::size_t np = (n + s - 1) / s * s;
  if (np != n) exec.charge_cpu(np * np);
  with_strip_major(exec, d, s, [&exec](Vert* strips, std::size_t side) {
    closure_gep(exec, strips, side);
  });
  if (np != n) exec.charge_cpu(n * n);
}

}  // namespace

void closure_naive(MatrixView<Vert> d, Counters& counters) {
  check_adjacency(d, 0);
  const std::size_t n = d.rows;
  loops().or_product(d, d, d);
  // Figure 5 charges one unit per innermost update; it scans every j of a
  // row whose pivot entry is 0, too.
  counters.charge_cpu(static_cast<std::uint64_t>(n) * n * n);
}

void closure_tcu(Device<Vert>& dev, MatrixView<Vert> d) {
  InlineExecutor<Vert> exec(dev);
  closure_padded(exec, d);
}

void closure_tcu(PoolExecutor<Vert>& exec, MatrixView<Vert> d) {
  closure_padded(exec, d);
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
