#pragma once
// Graph transitive closure in the (m, l)-TCU model (§4.3, Theorem 5).
//
// `closure_naive` is the Figure 5 iterative algorithm (Floyd-Warshall with
// OR/AND in place of +/x). `closure_tcu` is the Figure 7 blocked version:
// per outer block iteration k, kernel A closes the diagonal block, kernels
// B and C update the row/column panels with boolean operations on the CPU,
// and kernel D updates every trailing block with an ordinary *arithmetic*
// product on the tensor unit followed by a clamp X[i,j] <- min(X[i,j], 1)
// — the paper's observation that D touches blocks disjoint from the pivot
// panels, so plain + and x are safe. Per block column j, X_kj is loaded as
// the weight matrix and the Theta(n) rows of all X_ik blocks (i != k)
// stream through the unit, yielding
// Theta(n^3/sqrt(m) + (n^2/m) l + n^2 sqrt(m)). Both `closure_tcu`
// overloads run one schedule, the GEP graph shared with Gaussian
// elimination (linalg/gep.hpp): inline on a device, or across a pool.
//
// The schedule runs on strip-major storage, `TiledMatrix`'s layout: block
// column j is one contiguous n x sqrt(m) panel, each block a contiguous
// tile, so D's tall calls read and write dense panels and no two lanes
// write rows of the same panel. A contiguous input with n a multiple of
// sqrt(m) is permuted into that layout in place and back after the round
// (no second n x n matrix; the caller never sees strip-major data, also
// when the round throws); a ragged n or a view into a wider matrix is
// packed into a zero-padded TiledMatrix and copied back.
//
// Vertices are 0/1 floats. Kernel D adds at most sqrt(m) products of 0/1
// entries to an old 0/1 entry, so every partial sum is an integer no
// larger than sqrt(m) + 1. Float holds every integer up to 2^24 exactly,
// so the sums are exact in any order: every backend gives the same bits,
// and kernel D runs on the vectorised float kernel. Every entry point
// rejects entries other than 0 and 1, and tile sides too wide for exact
// sums.

#include <cstdint>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"

namespace tcu::graph {

using Vert = float;
using AdjMatrix = Matrix<Vert>;

/// Figure 5: in-place Theta(n^3) transitive closure on the RAM; charges
/// one unit per innermost OR/AND update.
void closure_naive(MatrixView<Vert> d, Counters& counters);

/// Figure 7 / Theorem 5: in-place blocked transitive closure with the
/// trailing (D) updates on the tensor unit, the GEP schedule run inline on
/// `dev`. Any n is accepted: the matrix is padded with isolated vertices
/// up to a multiple of sqrt(m) internally.
void closure_tcu(Device<Vert>& dev, MatrixView<Vert> d);

/// Multi-unit Theorem 5: the same GEP schedule as one dependency-ordered
/// round with a single strict join (linalg/gep.hpp has the dependence
/// graph). Kernels A/B/C are CPU tasks; each kernel D(k, j), two tall
/// GEMM calls plus the clamp into a disjoint column panel, is one
/// chain-free tensor task. Output bits and aggregate counters are
/// identical to the single-device closure_tcu at every unit count.
void closure_tcu(PoolExecutor<Vert>& exec, MatrixView<Vert> d);

/// Reference oracle for tests: reachability by BFS from every vertex.
/// Not cost-charged (it is the ground truth, not a model algorithm).
AdjMatrix closure_bfs_oracle(ConstMatrixView<Vert> adjacency);

}  // namespace tcu::graph
