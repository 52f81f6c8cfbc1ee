#pragma once
// Random graph workload generators shared by tests, benches and examples.

#include <cstdint>

#include "core/matrix.hpp"
#include "graph/closure.hpp"
#include "util/rng.hpp"

namespace tcu::graph {

/// G(n, p) directed graph, no self loops, as a closure input.
inline AdjMatrix random_digraph(std::size_t n, double edge_prob,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  AdjMatrix a(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(edge_prob)) a(i, j) = 1;
    }
  }
  return a;
}

/// Connected undirected G(n, p): a random Hamiltonian-ish path guarantees
/// connectivity, then extra edges are sprinkled with probability p.
inline Matrix<std::int64_t> random_connected_graph(std::size_t n,
                                                   double edge_prob,
                                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Matrix<std::int64_t> a(n, n, 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a(i, i + 1) = a(i + 1, i) = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(edge_prob)) a(i, j) = a(j, i) = 1;
    }
  }
  return a;
}

/// Undirected cycle graph C_n: diameter floor(n/2), handy for testing
/// deep Seidel recursions.
inline Matrix<std::int64_t> cycle_graph(std::size_t n) {
  Matrix<std::int64_t> a(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, (i + 1) % n) = 1;
    a((i + 1) % n, i) = 1;
  }
  return a;
}

}  // namespace tcu::graph
