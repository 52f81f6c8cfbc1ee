#include "graph/apsd.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/parallel.hpp"
#include "linalg/strassen.hpp"

namespace tcu::graph {

namespace {

using Mat = Matrix<std::int64_t>;

void check_adjacency(ConstMatrixView<std::int64_t> a) {
  const std::size_t n = a.rows;
  if (a.cols != n || n == 0) {
    throw std::invalid_argument("apsd: adjacency must be square, non-empty");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (a(i, i) != 0) {
      throw std::invalid_argument("apsd: diagonal must be zero");
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      if (a(i, j) != a(j, i) || (a(i, j) != 0 && a(i, j) != 1)) {
        throw std::invalid_argument("apsd: adjacency must be symmetric 0/1");
      }
    }
  }
}

/// n x n product for one recursion level: the p0 = 7 Strassen recursion
/// or the Theorem 2 strips, dealt across the executor's units.
template <typename Exec>
Mat product(Exec& exec, const Mat& a, const Mat& b, const ApsdOptions& opts) {
  if (opts.use_strassen) {
    return linalg::matmul_strassen_tcu_pool(exec, a.view(), b.view(),
                                            {.p0 = 7});
  }
  return linalg::matmul_tcu_pool(exec, a.view(), b.view());
}

template <typename Exec>
bool is_complete(Exec& exec, const Mat& a) {
  const std::size_t n = a.rows();
  exec.charge_cpu(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && a(i, j) != 1) return false;
    }
  }
  return true;
}

template <typename Exec>
Mat seidel_rec(Exec& exec, const Mat& a, std::size_t depth_left,
               const ApsdOptions& opts) {
  const std::size_t n = a.rows();
  if (is_complete(exec, a)) {
    // Base case: distance matrix of the complete graph is A(h) - I, i.e.
    // 1 everywhere off the diagonal.
    Mat d(n, n, 1);
    for (std::size_t i = 0; i < n; ++i) d(i, i) = 0;
    exec.charge_cpu(n * n);
    return d;
  }
  if (depth_left == 0) {
    throw std::invalid_argument("apsd_seidel: graph is not connected");
  }

  // Squared graph: A2[u][v] = 1 iff some w has (u,w), (w,v) in E, or
  // (u,v) already an edge; diagonal forced to zero.
  Mat prod = product(exec, a, a, opts);
  Mat a2(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (prod(i, j) > 0 || a(i, j) == 1)) a2(i, j) = 1;
    }
  }
  exec.charge_cpu(n * n);

  Mat d2 = seidel_rec(exec, a2, depth_left - 1, opts);

  // Reconstruction: C = D2 * A; deg(v) = column sums of A.
  Mat c = product(exec, d2, a, opts);
  std::vector<std::int64_t> deg(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) deg[j] += a(i, j);
  }
  exec.charge_cpu(n * n);

  Mat d(n, n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const bool even = c(u, v) >= deg[v] * d2(u, v);
      d(u, v) = 2 * d2(u, v) - (even ? 0 : 1);
    }
  }
  exec.charge_cpu(n * n);
  return d;
}

template <typename Exec>
Mat seidel(Exec& exec, ConstMatrixView<std::int64_t> adjacency,
           const ApsdOptions& opts) {
  check_adjacency(adjacency);
  const std::size_t n = adjacency.rows;
  if (n == 1) return Mat(1, 1, 0);
  const auto depth = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(n)))) + 1;
  Mat a = materialize(adjacency);
  exec.charge_cpu(n * n);
  return seidel_rec(exec, a, depth, opts);
}

}  // namespace

Matrix<std::int64_t> apsd_seidel(Device<std::int64_t>& dev,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts) {
  InlineExecutor<std::int64_t> exec(dev);
  return seidel(exec, adjacency, opts);
}

Matrix<std::int64_t> apsd_seidel(PoolExecutor<std::int64_t>& exec,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts) {
  return seidel(exec, adjacency, opts);
}

Matrix<std::int64_t> apsd_bfs(ConstMatrixView<std::int64_t> adjacency,
                              Counters& counters) {
  const std::size_t n = adjacency.rows;
  if (adjacency.cols != n) {
    throw std::invalid_argument("apsd_bfs: square input required");
  }
  Mat dist(n, n, -1);
  std::vector<std::size_t> queue(n);
  std::uint64_t ops = 0;
  for (std::size_t src = 0; src < n; ++src) {
    std::size_t head = 0, tail = 0;
    dist(src, src) = 0;
    queue[tail++] = src;
    while (head < tail) {
      const std::size_t v = queue[head++];
      for (std::size_t w = 0; w < n; ++w) {
        ++ops;
        if (adjacency(v, w) != 0 && dist(src, w) < 0) {
          dist(src, w) = dist(src, v) + 1;
          queue[tail++] = w;
        }
      }
    }
  }
  counters.charge_cpu(ops);
  return dist;
}

}  // namespace tcu::graph
