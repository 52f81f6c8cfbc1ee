#pragma once
// Dense multiplication on multiple tensor units (the §3.1/§6 extension).
//
// The Theorem 2 blocked algorithm parallelizes naturally: each output
// column strip (one weight tile column) is an independent chain of tall
// calls, so strips are dealt to units greedily by load. With p units and
// at least p strips the tensor term drops from n^{3/2}/sqrt(m) to
// n^{3/2}/(p sqrt(m)) while each unit still pays l per resident tile —
// measured by the ABL4 ablation bench.
//
// Execution is genuinely parallel: strips are enqueued on a
// `PoolExecutor` (one worker thread per unit) and write disjoint column
// strips of C, so workers never touch the same memory. Dealing happens on
// the calling thread against *projected* loads equal to the exact
// simulated cost each strip will charge, so the assignment — and with it
// every unit's `Counters` — is bit-identical to the historical serial
// execute-then-pick loop regardless of thread interleaving. Every entry
// point takes either executor: on an `InlineExecutor` the same tasks run
// in submit order on one device, which is the serial product.
//
// Two modes extend the PR 1 runtime:
//   * ragged shapes — the final partial strip/tile is zero-padded into
//     worker-local scratch exactly like the single-unit matmul_tcu, so
//     the pool path accepts any dimensions and produces bit-identical
//     outputs and charge totals;
//   * tile affinity — with `PoolMatmulOptions::affinity`, every B tile
//     carries its address as a resident-operand key; the dealer routes a
//     strip to the lane already holding its entry tile and the device
//     skips the re-load latency (`gemm_resident`), which is what makes
//     repeated products against the same weights (batches, nn forwards)
//     cheaper than PR 1's reload-every-call schedule.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/pool.hpp"
#include "linalg/dense.hpp"

namespace tcu::linalg {

struct PoolMatmulOptions {
  /// Tag B tiles with resident-operand keys (their storage address) and
  /// deal strips with tile affinity: every strip declares its full chain
  /// of B-tile keys and the dealer scores lanes by predicted LRU hits.
  /// Off by default: untagged dealing is the pure least-loaded schedule.
  ///
  /// The key is an *identity token*, not a content hash: a resident hit
  /// is only meaningful when the same storage still holds the same tile.
  /// That holds for the intended workloads — long-lived weight matrices
  /// (nn layers, a shared batch B) multiplied repeatedly. A caller that
  /// frees B and reuses the allocation for different data between
  /// affinity calls would inherit stale residency and undercount load
  /// latency; use untagged calls (or fresh pools) for such churn.
  bool affinity = false;

  /// Split each strip's chain at tile granularity: one task per B tile,
  /// each computing a partial product that the shared CPU combines after
  /// the join. This lets a deep B (chain k > 1) both parallelize across
  /// lanes and fit each lane's share of the tiles in a cache with c < k,
  /// so repeated products pay each tile's load once per owning lane
  /// instead of once per strip visit. Opt-in because the partial-sum
  /// combine reassociates the floating-point accumulation: outputs are
  /// run- and p-deterministic (and exact for integral T), but may differ
  /// from the fused chain by rounding. The partials hold k_tiles copies
  /// of C until the join — size the cache (or keep fused chains) for
  /// very deep B instead. Requires `affinity`; ignored for single-tile
  /// chains and by the no-join `matmul_tcu_pool_strips`.
  bool split_chains = false;

  /// Optional identity override for B's tiles (element origin (kb, jb) ->
  /// key): empty means "key by storage address", the right default for a
  /// long-lived B. Callers whose B is a transient repack of long-lived
  /// weights (conv2d's filter bank) key on the underlying storage so
  /// residency survives the repack being rebuilt between calls. Symbolic
  /// keys (`make_tile_key`) must honor the same contract: equal keys,
  /// equal tile content.
  TileKeyFn tile_key = {};
};

namespace detail {

/// Exact tensor time of one tile of a strip chain (left operand rows x s).
/// Untagged chains charge exactly what Device::gemm will
/// (projected_gemm_cost); with affinity the weak-model split shares its
/// resident tile, so the load latency is paid once per tile instead of
/// once per square call — mirroring Device::gemm_resident's charging.
template <typename T>
std::uint64_t strip_tile_cost(const Device<T>& unit, std::uint64_t rows,
                              bool affinity) {
  const auto s = static_cast<std::uint64_t>(unit.tile_dim());
  if (!affinity || unit.allows_tall() || rows <= s) {
    return projected_gemm_cost(unit, rows);
  }
  const std::uint64_t calls = (rows + s - 1) / s;
  return calls * unit.m() + unit.latency();
}

/// One ragged output strip on a pool worker: task-local scratch around
/// the shared per-strip body of the single-unit ragged path
/// (detail::ragged_strip_into), so outputs and counter totals stay
/// bit-identical to serial by construction. `keys` holds the strip's
/// B-tile identities indexed by tile (kb / s); empty = untagged dealing.
template <typename T>
void ragged_strip(Device<T>& unit, ConstMatrixView<T> A, ConstMatrixView<T> B,
                  MatrixView<T> C, std::size_t jb,
                  const std::vector<std::uint64_t>& keys) {
  const std::size_t s = unit.tile_dim();
  Matrix<T> b_tile(s, s, T{});
  Matrix<T> a_strip(A.rows, s, T{});
  Matrix<T> c_strip(A.rows, s, T{});
  ragged_strip_into(
      unit, A, B, C, jb, b_tile, a_strip, c_strip,
      [&unit, &keys, s](std::size_t kb, ConstMatrixView<T> a,
                        ConstMatrixView<T> b, MatrixView<T> c,
                        bool accumulate) {
        if (!keys.empty()) {
          unit.gemm_resident(keys[kb / s], a, b, c, accumulate);
        } else {
          // tcu-lint: untagged-ok(untagged dealing mode; the task declared no chain)
          unit.gemm(a, b, c, accumulate);
        }
      });
}

/// Resident keys of output strip jb's chain: one per tile of B's tile
/// column, in call order; `tile_key` (element origins) if set, else the
/// tile's address in B.
template <typename T>
std::vector<std::uint64_t> strip_chain(ConstMatrixView<T> B, std::size_t jb,
                                       std::size_t s,
                                       const TileKeyFn& tile_key) {
  std::vector<std::uint64_t> chain;
  chain.reserve((B.rows + s - 1) / s);
  for (std::size_t kb = 0; kb < B.rows; kb += s) {
    chain.push_back(tile_key ? tile_key(kb, jb)
                             : reinterpret_cast<std::uintptr_t>(&B(kb, jb)));
  }
  return chain;
}

/// Output strip jb (columns [jb, jb + s)) of C = A * B on one unit: the
/// strip's chain of tall calls through B's tile column, or ragged_strip's
/// padded form when any shape is not tile-aligned. `keys` as in
/// ragged_strip.
template <typename T>
void strip_product(Device<T>& unit, ConstMatrixView<T> A, ConstMatrixView<T> B,
                   MatrixView<T> C, std::size_t jb,
                   const std::vector<std::uint64_t>& keys) {
  const std::size_t s = unit.tile_dim();
  if (A.rows % s || A.cols % s || B.cols % s) {
    ragged_strip(unit, A, B, C, jb, keys);
    return;
  }
  for (std::size_t kb = 0; kb < A.cols; kb += s) {
    if (!keys.empty()) {
      unit.gemm_resident(keys[kb / s], A.subview(0, kb, A.rows, s),
                         B.subview(kb, jb, s, s), C.subview(0, jb, A.rows, s),
                         /*accumulate=*/kb != 0);
    } else {
      // tcu-lint: untagged-ok(untagged dealing mode; the task declared no chain)
      unit.gemm(A.subview(0, kb, A.rows, s), B.subview(kb, jb, s, s),
                C.subview(0, jb, A.rows, s), /*accumulate=*/kb != 0);
    }
  }
}

/// Tile-granular schedule for deep chains (split_chains): one task per
/// (B tile, output strip) pair, submitted tile-major and each declaring
/// its single-tile chain, so the dealer routes every visit to the lane
/// whose cache holds (or will hold) that tile. Each task writes its own
/// padded partial product; the shared CPU combines partials in ascending
/// tile order after the join — a deterministic, p-independent summation
/// (bit-identical to running the same mode on one unit; exact for
/// integral T).
template <template <typename> class Exec, typename T>
void matmul_pool_tile_split(Exec<T>& exec, ConstMatrixView<T> A,
                            ConstMatrixView<T> B, MatrixView<T> C,
                            const TileKeyFn& tile_key) {
  const Device<T>& unit0 = exec.unit0();
  const std::size_t s = unit0.tile_dim();
  const std::size_t p = A.rows, q = A.cols, r = B.cols;
  const std::size_t k_tiles = (q + s - 1) / s;
  const std::size_t strips = (r + s - 1) / s;
  const std::uint64_t tile_cost = strip_tile_cost(unit0, p, /*affinity=*/true);

  // All partials are allocated up front so the tasks' captured pointers
  // stay stable; entry (kb/s)*strips + (jb/s) holds tile (kb, jb)'s
  // padded p x s contribution to strip jb.
  std::vector<Matrix<T>> partials;
  partials.reserve(k_tiles * strips);
  for (std::size_t i = 0; i < k_tiles * strips; ++i) {
    partials.emplace_back(p, s, T{});
  }

  std::size_t ti = 0;
  for (std::size_t kb = 0; kb < q; kb += s) {
    for (std::size_t jb = 0; jb < r; jb += s, ++ti) {
      Matrix<T>* out = &partials[ti];
      const std::uint64_t key =
          tile_key ? tile_key(kb, jb)
                   : reinterpret_cast<std::uintptr_t>(&B(kb, jb));
      auto task = [A, B, out, kb, jb, s, key](Device<T>& unit) {
        const std::size_t kw = std::min(s, A.cols - kb);
        const std::size_t jw = std::min(s, B.cols - jb);
        if (kw == s && jw == s) {
          unit.gemm_resident(key, A.subview(0, kb, A.rows, s),
                             B.subview(kb, jb, s, s), out->view(),
                             /*accumulate=*/false);
          return;
        }
        // Ragged edge tile: zero-pad operands into task-local scratch,
        // charged exactly like the fused ragged path's per-tile work.
        Matrix<T> b_tile(s, s, T{});
        for (std::size_t i = 0; i < kw; ++i) {
          for (std::size_t j = 0; j < jw; ++j) b_tile(i, j) = B(kb + i, jb + j);
        }
        Matrix<T> a_strip(A.rows, s, T{});
        for (std::size_t i = 0; i < A.rows; ++i) {
          for (std::size_t k = 0; k < kw; ++k) a_strip(i, k) = A(i, kb + k);
        }
        unit.charge_cpu(kw * jw + A.rows * kw);
        unit.gemm_resident(key, a_strip.view().as_const(),
                           b_tile.view().as_const(), out->view(),
                           /*accumulate=*/false);
      };
      exec.submit({.cost = tile_cost, .chain = {key}}, std::move(task));
    }
  }
  exec.join();

  // Shared-CPU combine, ascending tile order per strip: the summation
  // order depends only on the tiling, never on the dealing.
  for (std::size_t jb = 0; jb < r; jb += s) {
    const std::size_t jw = std::min(s, r - jb);
    for (std::size_t kb = 0; kb < q; kb += s) {
      const Matrix<T>& part = partials[(kb / s) * strips + (jb / s)];
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < jw; ++j) {
          if (kb == 0) {
            C(i, jb + j) = part(i, j);
          } else {
            C(i, jb + j) += part(i, j);
          }
        }
      }
      exec.charge_cpu(p * jw);
    }
  }
}

/// Shape validation shared by the row-major entry points; runs before
/// anything is submitted.
template <typename T>
void check_pool_shapes(ConstMatrixView<T> A, ConstMatrixView<T> B,
                       MatrixView<T> C) {
  if (A.cols != B.rows) {
    throw std::invalid_argument("matmul_tcu_pool: inner dimensions differ");
  }
  if (C.rows != A.rows || C.cols != B.cols) {
    throw std::invalid_argument("matmul_tcu_pool: output shape mismatch");
  }
}

}  // namespace detail

/// No-join product: submits one task per output column strip and returns
/// WITHOUT joining, so a caller can submit several products (conv2d's row
/// blocks) before one join. Any shapes: the final partial strip is padded
/// in worker-local scratch. With affinity every strip declares its full
/// B-tile chain, one key per B tile in call order. `split_chains` does
/// not apply here (its CPU combine needs the join). The caller owes the
/// executor a join() before the submit thread reads C, and must keep A,
/// B, and C alive until then.
template <template <typename> class Exec, typename T>
void matmul_tcu_pool_strips(Exec<T>& exec,
                            std::type_identity_t<ConstMatrixView<T>> A,
                            std::type_identity_t<ConstMatrixView<T>> B,
                            std::type_identity_t<MatrixView<T>> C,
                            PoolMatmulOptions opts = {}) {
  detail::check_pool_shapes(A, B, C);
  const Device<T>& unit0 = exec.unit0();
  const std::size_t s = unit0.tile_dim();
  const std::size_t p = A.rows, q = A.cols, r = B.cols;
  const std::uint64_t strip_cost =
      ((q + s - 1) / s) * detail::strip_tile_cost(unit0, p, opts.affinity);

  for (std::size_t jb = 0; jb < r; jb += s) {
    std::vector<std::uint64_t> chain;
    if (opts.affinity) chain = detail::strip_chain(B, jb, s, opts.tile_key);
    auto task = [A, B, C, jb, keys = chain](Device<T>& unit) {
      detail::strip_product(unit, A, B, C, jb, keys);
    };
    exec.submit({.cost = strip_cost, .chain = std::move(chain)},
                std::move(task));
  }
}

/// C = A * B dealt across the executor's units, one task per output column
/// strip (matmul_tcu_pool_strips), then a join; any shapes. The
/// caller-owned executor is reused — submit and join only, no thread
/// churn — and the barrier at the end leaves the executor ready for the
/// next round. With `split_chains` (and affinity) deep chains are instead
/// split into per-tile tasks with a CPU combine (see PoolMatmulOptions).
template <template <typename> class Exec, typename T>
void matmul_tcu_pool_into(Exec<T>& exec,
                          std::type_identity_t<ConstMatrixView<T>> A,
                          std::type_identity_t<ConstMatrixView<T>> B,
                          std::type_identity_t<MatrixView<T>> C,
                          PoolMatmulOptions opts = {}) {
  detail::check_pool_shapes(A, B, C);
  const std::size_t s = exec.unit0().tile_dim();
  if (opts.affinity && opts.split_chains && A.cols > s) {
    detail::matmul_pool_tile_split(exec, A, B, C, opts.tile_key);
    return;
  }
  matmul_tcu_pool_strips(exec, A, B, C, opts);
  exec.join();
}

/// Allocating wrapper over the persistent-executor path.
template <template <typename> class Exec, typename T>
Matrix<T> matmul_tcu_pool(Exec<T>& exec,
                          std::type_identity_t<ConstMatrixView<T>> A,
                          std::type_identity_t<ConstMatrixView<T>> B,
                          PoolMatmulOptions opts = {}) {
  Matrix<T> C(A.rows, B.cols, T{});
  matmul_tcu_pool_into(exec, A, B, C.view(), opts);
  return C;
}

}  // namespace tcu::linalg
