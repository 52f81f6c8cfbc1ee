#include "graph/apsd.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "linalg/dense.hpp"
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

/// Execution context for the Seidel recursion: how to run an n x n product
/// and where the elementwise CPU work is charged. The serial path binds a
/// Device, the pool path a persistent PoolExecutor — the recursion itself
/// (and hence every charge amount and output bit) is shared.
struct SeidelCtx {
  std::function<Mat(const Mat&, const Mat&)> product;
  std::function<void(std::uint64_t)> charge_cpu;
};

bool is_complete(const SeidelCtx& ctx, const Mat& a) {
  const std::size_t n = a.rows();
  ctx.charge_cpu(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && a(i, j) != 1) return false;
    }
  }
  return true;
}

Mat seidel_rec(const SeidelCtx& ctx, const Mat& a, std::size_t depth_left) {
  const std::size_t n = a.rows();
  if (is_complete(ctx, a)) {
    // Base case: distance matrix of the complete graph is A(h) - I, i.e.
    // 1 everywhere off the diagonal.
    Mat d(n, n, 1);
    for (std::size_t i = 0; i < n; ++i) d(i, i) = 0;
    ctx.charge_cpu(n * n);
    return d;
  }
  if (depth_left == 0) {
    throw std::invalid_argument("apsd_seidel: graph is not connected");
  }

  // Squared graph: A2[u][v] = 1 iff some w has (u,w), (w,v) in E, or
  // (u,v) already an edge; diagonal forced to zero.
  Mat prod = ctx.product(a, a);
  Mat a2(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (prod(i, j) > 0 || a(i, j) == 1)) a2(i, j) = 1;
    }
  }
  ctx.charge_cpu(n * n);

  Mat d2 = seidel_rec(ctx, a2, depth_left - 1);

  // Reconstruction: C = D2 * A; deg(v) = column sums of A.
  Mat c = ctx.product(d2, a);
  std::vector<std::int64_t> deg(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) deg[j] += a(i, j);
  }
  ctx.charge_cpu(n * n);

  Mat d(n, n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const bool even = c(u, v) >= deg[v] * d2(u, v);
      d(u, v) = 2 * d2(u, v) - (even ? 0 : 1);
    }
  }
  ctx.charge_cpu(n * n);
  return d;
}

Mat seidel_with_ctx(const SeidelCtx& ctx,
                    ConstMatrixView<std::int64_t> adjacency) {
  check_adjacency(adjacency);
  const std::size_t n = adjacency.rows;
  if (n == 1) return Mat(1, 1, 0);
  const auto depth = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(n)))) + 1;
  Mat a = materialize(adjacency);
  ctx.charge_cpu(n * n);
  return seidel_rec(ctx, a, depth);
}

}  // namespace

Matrix<std::int64_t> apsd_seidel(Device<std::int64_t>& dev,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts) {
  SeidelCtx ctx{
      .product =
          [&dev, opts](const Mat& a, const Mat& b) {
            if (opts.use_strassen) {
              return linalg::matmul_strassen_tcu(dev, a.view(), b.view(),
                                                 {.p0 = 7});
            }
            return linalg::matmul_tcu(dev, a.view(), b.view());
          },
      .charge_cpu = [&dev](std::uint64_t ops) { dev.charge_cpu(ops); },
  };
  return seidel_with_ctx(ctx, adjacency);
}

Matrix<std::int64_t> apsd_seidel(PoolExecutor<std::int64_t>& exec,
                                 ConstMatrixView<std::int64_t> adjacency,
                                 ApsdOptions opts) {
  SeidelCtx ctx{
      .product =
          [&exec, opts](const Mat& a, const Mat& b) {
            if (opts.use_strassen) {
              return linalg::matmul_strassen_tcu_pool(exec, a.view(), b.view(),
                                                      {.p0 = 7});
            }
            return linalg::matmul_tcu_pool(exec, a.view(), b.view());
          },
      .charge_cpu = [&exec](std::uint64_t ops) { exec.charge_cpu(ops); },
  };
  return seidel_with_ctx(ctx, adjacency);
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
