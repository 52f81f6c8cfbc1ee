#pragma once
// Linear (n, k)-stencil computations in the (m, l)-TCU model (§4.6).
//
// A linear stencil updates every cell of a sqrt(n) x sqrt(n) grid as a
// fixed linear combination of its 3x3 neighbourhood (out-of-range cells
// read as zero, matching the paper's zero-block convention); k sweeps are
// applied. The paper's pipeline:
//
//   * Lemma 2 — the unrolled weight matrix W ((2k+1) x (2k+1), with
//     A_k[i,j] = sum_{|a|,|b| <= k} W[k+a, k+b] A[i+a, j+b]) equals the
//     k-th convolution power of the one-step 3x3 kernel. It is computed by
//     repeated squaring of the associated bivariate polynomial, each
//     product a 2-D DFT convolution on the tensor unit:
//     O(k^2 log_m k + l log k).
//   * Lemma 1 — the grid is cut into k x k blocks; each block's 3k x 3k
//     neighbourhood is convolved with W (one circular convolution, no
//     wrap-around affects the centre), and the centre k x k is the result.
//     All Theta(n/k^2) convolutions share the tensor calls of each DFT
//     level through batched transforms (tall left operands).
//   * Theorem 8 — total O(n log_m k + l log k).
//
// `stencil_direct` is the RAM baseline: k explicit sweeps, Theta(nk).
//
// Boundary semantics: the unrolled weight-matrix representation the paper
// builds on is exact for a grid embedded in an infinite zero plane (mass
// leaving the grid in an intermediate sweep may flow back). Both the
// baseline and the TCU pipeline implement these semantics; the baseline
// sweeps a halo of k cells per side to realize them exactly.

#include <complex>
#include <cstdint>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"

namespace tcu::stencil {

using Complex = std::complex<double>;

/// One-step 3x3 kernel; entry (a+1, b+1) weights neighbour (i+a, j+b).
using Kernel3 = Matrix<double>;

/// Discretized 2-D heat equation weights (the paper's running example):
/// cx = alpha dt / dx^2, cy = alpha dt / dy^2.
Kernel3 heat_kernel(double cx, double cy);

/// RAM baseline: k sweeps with zero boundary, Theta(9 n k) charged.
Matrix<double> stencil_direct(ConstMatrixView<double> grid, const Kernel3& w,
                              std::size_t k, Counters& counters);

/// Reference weight-matrix computation: k-fold linear self-convolution of
/// the 3x3 kernel, Theta(k^3) on the RAM (the "trivial" method the paper
/// improves on).
Matrix<double> weight_matrix_unrolled(const Kernel3& w, std::size_t k,
                                      Counters& counters);

/// Lemma 2: the (2k+1) x (2k+1) weight matrix via repeated squaring of
/// the kernel polynomial with DFT convolutions on the tensor unit (on an
/// InlineExecutor over `dev`).
Matrix<double> weight_matrix_tcu(Device<Complex>& dev, const Kernel3& w,
                                 std::size_t k);

/// Lemma 1 + Theorem 8: the full (n, k)-stencil via blocked convolution
/// with batched DFTs. Any grid size (padded to a multiple of k with
/// zeros, which is exact for the zero-boundary semantics). Every DFT
/// level's Fourier tile is residency-tagged (DftOptions::affinity): the
/// Theta(n/k^2) batched transforms re-visit the same levels many times
/// per call, so the tile stays resident instead of reloading — one
/// device shows strictly positive `Counters::resident_hits`. Runs the
/// pipeline of `stencil_tcu_pool` on an InlineExecutor over `dev`.
Matrix<double> stencil_tcu(Device<Complex>& dev,
                           ConstMatrixView<double> grid, const Kernel3& w,
                           std::size_t k);

/// Multi-unit stencil over a caller-owned persistent executor: each DFT
/// level's single tall tensor product is row-chunked across the pool's
/// units, and every chunk declares the level's Fourier-tile key as its
/// chain — so batched transforms pay each level's tile load once per
/// lane while it stays cached, not once per chunk. Outputs are
/// bit-identical to `stencil_tcu` at every unit count, and so is every
/// aggregate counter except the documented chunking effect on the
/// latency split: with `calls` the aggregate tensor-call count and
/// `one` the counters of `stencil_tcu` on one device,
/// `latency_time + latency_saved - one.latency_time ==
/// (calls - one.tensor_calls) * l` (a 1-unit pool matches it in every
/// field).
Matrix<double> stencil_tcu_pool(PoolExecutor<Complex>& exec,
                                ConstMatrixView<double> grid,
                                const Kernel3& w, std::size_t k);

}  // namespace tcu::stencil
