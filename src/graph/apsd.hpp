#pragma once
// All pairs shortest distances (§4.4, Theorem 6): Seidel's algorithm for
// unweighted undirected graphs on the TCU.
//
// The recursion squares the graph (one matrix product), recursively solves
// APSD on the squared graph, and reconstructs distances with one more
// product C = D^(2) * A plus the degree comparison
//   delta(u,v) = 2 delta2(u,v) - [ C[u,v] < deg(v) * D2[u,v] ].
// There are O(log n) levels and two n x n products per level, each run by
// the Theorem 1 / Theorem 2 kernels, giving
// O((n^2/m)^{omega0} (m + l) log n).
//
// Requires a connected graph (Seidel's precondition); the recursion depth
// is capped at ceil(log2 n) + 1 and a disconnected input raises.

#include <cstdint>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"

namespace tcu::graph {

struct ApsdOptions {
  bool use_strassen = false;  ///< run the products with the p0=7 recursion
};

/// Seidel's APSD on the tensor unit. `adjacency` must be symmetric 0/1
/// with a zero diagonal. Returns the n x n distance matrix. Runs the
/// executor body below inline on `dev`.
Matrix<std::int64_t> apsd_seidel(Device<std::int64_t>& dev,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts = {});

/// Multi-unit Seidel: the recursion levels stay sequential (each level
/// squares the previous one's graph) but the two n x n products per level
/// run across the pool — Theorem 2 strips, or the pool Strassen's leaf
/// fan-out with `use_strassen`. Output and aggregate counters match the
/// single-device apsd_seidel bit-for-bit. One persistent executor serves
/// all O(log n) recursion levels.
Matrix<std::int64_t> apsd_seidel(PoolExecutor<std::int64_t>& exec,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts = {});

/// RAM baseline: BFS from every vertex; Theta(n * (n + E)) charged.
/// Unreachable pairs get distance -1 (used to detect disconnection).
Matrix<std::int64_t> apsd_bfs(ConstMatrixView<std::int64_t> adjacency,
                              Counters& counters);

}  // namespace tcu::graph
