#pragma once
// Dense matrix multiplication in the (m, l)-TCU model.
//
// `matmul_tcu` is the blocked algorithm of Theorem 2: the right operand is
// cut into sqrt(m) x sqrt(m) tiles; for each tile the full left column
// strip is streamed through the tensor unit as one tall call, so the
// latency l is paid once per tile — Theta(n^{3/2}/sqrt(m) + (n/m) l) for
// square sqrt(n) x sqrt(n) inputs, and Corollary 1's bound for rectangular
// shapes. `matmul_naive` is the RAM baseline the paper compares against
// (semiring lower-bound discussion in Theorem 2's proof).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"

namespace tcu::linalg {

/// Identity of B's tile at element origin (kb, jb) for residency tagging.
/// An empty function means "key each tile by its storage address" — valid
/// while B is long-lived and unchanged between calls. Callers whose B is a
/// transient repack of long-lived weights (conv2d's im2col filter bank)
/// supply a key derived from the underlying storage instead, so repeated
/// calls keep hitting across rebuilds of the repack.
using TileKeyFn = std::function<std::uint64_t(std::size_t kb, std::size_t jb)>;

/// RAM baseline: definition-based multiplication, charges one unit per
/// multiply-accumulate to `counters`. Works for any p x q times q x r.
template <typename T>
Matrix<T> matmul_naive(ConstMatrixView<T> A, ConstMatrixView<T> B,
                       Counters& counters) {
  if (A.cols != B.rows) {
    throw std::invalid_argument("matmul_naive: inner dimensions differ");
  }
  Matrix<T> C(A.rows, B.cols);
  for (std::size_t i = 0; i < A.rows; ++i) {
    for (std::size_t j = 0; j < B.cols; ++j) {
      T acc{};
      for (std::size_t k = 0; k < A.cols; ++k) acc += A(i, k) * B(k, j);
      C(i, j) = acc;
    }
  }
  counters.charge_cpu(static_cast<std::uint64_t>(A.rows) * B.cols * A.cols);
  return C;
}

namespace detail {

/// One ragged output strip [jb, jb + jw) of the zero-padded Theorem 2
/// path: pad each B tile and the matching A strip into caller-provided
/// scratch, run the chain of tall calls, copy the result out. Shared by
/// the serial path (which reuses one scratch set across strips) and the
/// pool workers (task-local scratch) so their operations and CPU charges
/// cannot drift apart — the pool's bit-identical-to-serial contract
/// depends on it. `do_gemm(kb, a, b, c, accumulate)` issues the tensor
/// call, letting the pool path tag resident-operand keys.
template <typename T, typename GemmFn>
void ragged_strip_into(Device<T>& dev, ConstMatrixView<T> A,
                       ConstMatrixView<T> B, MatrixView<T> C, std::size_t jb,
                       Matrix<T>& b_tile, Matrix<T>& a_strip,
                       Matrix<T>& c_strip, GemmFn&& do_gemm) {
  const std::size_t s = dev.tile_dim();
  const std::size_t p = A.rows, q = A.cols, r = B.cols;
  const std::size_t jw = std::min(s, r - jb);
  c_strip.fill(T{});
  for (std::size_t kb = 0; kb < q; kb += s) {
    const std::size_t kw = std::min(s, q - kb);
    b_tile.fill(T{});
    for (std::size_t i = 0; i < kw; ++i) {
      for (std::size_t j = 0; j < jw; ++j) {
        b_tile(i, j) = B(kb + i, jb + j);
      }
    }
    a_strip.fill(T{});
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t k = 0; k < kw; ++k) a_strip(i, k) = A(i, kb + k);
    }
    dev.charge_cpu(kw * jw + p * kw);
    do_gemm(kb, a_strip.view().as_const(), b_tile.view().as_const(),
            c_strip.view(), /*accumulate=*/kb != 0);
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < jw; ++j) C(i, jb + j) = c_strip(i, j);
  }
  dev.charge_cpu(p * jw);
}

/// The whole Theorem 2 schedule — aligned fast path and ragged scratch
/// path — around a caller-supplied tensor-call body.
/// `do_gemm(kb, jb, a, b, c, accumulate)` issues the call.
template <typename T, typename GemmFn>
void tiled_matmul_into(Device<T>& dev, ConstMatrixView<T> A,
                       ConstMatrixView<T> B, MatrixView<T> C,
                       GemmFn&& do_gemm) {
  if (A.cols != B.rows || C.rows != A.rows || C.cols != B.cols) {
    throw std::invalid_argument("matmul_tcu: shape mismatch");
  }
  const std::size_t s = dev.tile_dim();
  const std::size_t p = A.rows, q = A.cols, r = B.cols;
  const bool ragged = (p % s) || (q % s) || (r % s);

  if (!ragged) {
    for (std::size_t jb = 0; jb < r; jb += s) {
      for (std::size_t kb = 0; kb < q; kb += s) {
        do_gemm(kb, jb, A.subview(0, kb, p, s), B.subview(kb, jb, s, s),
                C.subview(0, jb, p, s), /*accumulate=*/kb != 0);
      }
    }
    return;
  }

  // Ragged path: pad each operand tile/strip into scratch buffers.
  Matrix<T> b_tile(s, s, T{});
  Matrix<T> a_strip(p, s, T{});
  Matrix<T> c_strip(p, s, T{});
  for (std::size_t jb = 0; jb < r; jb += s) {
    ragged_strip_into(
        dev, A, B, C, jb, b_tile, a_strip, c_strip,
        [&do_gemm, jb](std::size_t kb, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, MatrixView<T> c,
                       bool accumulate) {
          do_gemm(kb, jb, a, b, c, accumulate);
        });
  }
}

}  // namespace detail

/// Theorem 2 (and Corollary 1 for rectangular shapes): C += A * B computed
/// by tiling B into sqrt(m) x sqrt(m) blocks and streaming the matching
/// tall strip of A through the unit once per block. Ragged edges are
/// zero-padded into scratch tiles (the paper assumes divisibility; padding
/// only adds lower-order CPU work, charged honestly).
template <typename T>
void matmul_tcu_into(Device<T>& dev, std::type_identity_t<ConstMatrixView<T>> A,
                     std::type_identity_t<ConstMatrixView<T>> B,
                     std::type_identity_t<MatrixView<T>> C) {
  // The untagged Theorem 2 baseline by definition streams every tile
  // cold; benches compare it against the resident-tagged variant, so it
  // must not borrow residency from earlier work either.
  check::AllowUntaggedClobber allow_clobber;
  detail::tiled_matmul_into(
      dev, A, B, C,
      [&dev](std::size_t, std::size_t, ConstMatrixView<T> a,
             ConstMatrixView<T> b, MatrixView<T> c, bool accumulate) {
        // tcu-lint: untagged-ok(Theorem 2 cold-stream baseline)
        dev.gemm(a, b, c, accumulate);
      });
}

/// Allocating wrapper for `matmul_tcu_into`.
template <typename T>
Matrix<T> matmul_tcu(Device<T>& dev, std::type_identity_t<ConstMatrixView<T>> A,
                     std::type_identity_t<ConstMatrixView<T>> B) {
  Matrix<T> C(A.rows, B.cols, T{});
  matmul_tcu_into(dev, A, B, C.view());
  return C;
}

}  // namespace tcu::linalg
