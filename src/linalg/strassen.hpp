#pragma once
// Strassen-like dense multiplication with a TCU base case (Theorem 1).
//
// A Strassen-like algorithm (Ballard et al. [4]) with parameters (n0, p0)
// views a sqrt(n) x sqrt(n) product as an sqrt(n0) x sqrt(n0) product of
// submatrix blocks, performs p0 recursive block products and O(n) linear
// work. The paper plugs the tensor unit in at the bottom: recursion stops
// as soon as a subproblem fits the unit, giving running time
// O((n/m)^{omega0} (m + l)) with omega0 = log_{n0} p0.
//
// Implemented instances, both with n0 = 4 (2x2 block split):
//   * p0 = 8 — the standard recursive algorithm (omega0 = 3/2);
//   * p0 = 7 — Strassen (omega0 = log4 7 ~ 1.4037).
//
// The base case uses the Theorem 2 blocked kernel once the current block
// area is at most n0 * m, exactly the recurrence base in the paper's proof.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pool.hpp"
#include "linalg/dense.hpp"

namespace tcu::linalg {

struct StrassenOptions {
  int p0 = 7;  ///< 7 = Strassen, 8 = standard recursive
};

namespace detail {

template <typename T>
Matrix<T> add_charged(Device<T>& dev, const Matrix<T>& a, const Matrix<T>& b,
                      T sign = T{1}) {
  Matrix<T> out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out(i, j) = a(i, j) + sign * b(i, j);
    }
  }
  dev.charge_cpu(a.rows() * a.cols());
  return out;
}

template <typename T>
Matrix<T> quadrant(Device<T>& dev, ConstMatrixView<T> X, std::size_t qi,
                   std::size_t qj) {
  const std::size_t h = X.rows / 2;
  Matrix<T> out = materialize(X.subview(qi * h, qj * h, h, h));
  dev.charge_cpu(h * h);
  return out;
}

template <typename T>
Matrix<T> strassen_rec(Device<T>& dev, const Matrix<T>& A, const Matrix<T>& B,
                       const StrassenOptions& opts) {
  const std::size_t d = A.rows();
  if (d * d <= 4 * dev.m() || d % 2 != 0) {
    return matmul_tcu(dev, A.view(), B.view());
  }
  auto a11 = quadrant(dev, A.view(), 0, 0), a12 = quadrant(dev, A.view(), 0, 1);
  auto a21 = quadrant(dev, A.view(), 1, 0), a22 = quadrant(dev, A.view(), 1, 1);
  auto b11 = quadrant(dev, B.view(), 0, 0), b12 = quadrant(dev, B.view(), 0, 1);
  auto b21 = quadrant(dev, B.view(), 1, 0), b22 = quadrant(dev, B.view(), 1, 1);
  const std::size_t h = d / 2;
  Matrix<T> C(d, d);
  auto place = [&](const Matrix<T>& block, std::size_t qi, std::size_t qj) {
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < h; ++j) {
        C(qi * h + i, qj * h + j) = block(i, j);
      }
    }
    dev.charge_cpu(h * h);
  };

  if (opts.p0 == 8) {
    auto c11 = add_charged(dev, strassen_rec(dev, a11, b11, opts),
                           strassen_rec(dev, a12, b21, opts));
    auto c12 = add_charged(dev, strassen_rec(dev, a11, b12, opts),
                           strassen_rec(dev, a12, b22, opts));
    auto c21 = add_charged(dev, strassen_rec(dev, a21, b11, opts),
                           strassen_rec(dev, a22, b21, opts));
    auto c22 = add_charged(dev, strassen_rec(dev, a21, b12, opts),
                           strassen_rec(dev, a22, b22, opts));
    place(c11, 0, 0);
    place(c12, 0, 1);
    place(c21, 1, 0);
    place(c22, 1, 1);
    return C;
  }

  // Strassen's seven products.
  auto m1 = strassen_rec(dev, add_charged(dev, a11, a22),
                         add_charged(dev, b11, b22), opts);
  auto m2 = strassen_rec(dev, add_charged(dev, a21, a22), b11, opts);
  auto m3 = strassen_rec(dev, a11, add_charged(dev, b12, b22, T{-1}), opts);
  auto m4 = strassen_rec(dev, a22, add_charged(dev, b21, b11, T{-1}), opts);
  auto m5 = strassen_rec(dev, add_charged(dev, a11, a12), b22, opts);
  auto m6 = strassen_rec(dev, add_charged(dev, a21, a11, T{-1}),
                         add_charged(dev, b11, b12), opts);
  auto m7 = strassen_rec(dev, add_charged(dev, a12, a22, T{-1}),
                         add_charged(dev, b21, b22), opts);

  auto c11 = add_charged(dev, add_charged(dev, m1, m4),
                         add_charged(dev, m7, m5, T{-1}));
  auto c12 = add_charged(dev, m3, m5);
  auto c21 = add_charged(dev, m2, m4);
  auto c22 = add_charged(dev, add_charged(dev, m1, m2, T{-1}),
                         add_charged(dev, m3, m6));
  place(c11, 0, 0);
  place(c12, 0, 1);
  place(c21, 1, 0);
  place(c22, 1, 1);
  return C;
}

}  // namespace detail

/// Deferred-execution form of the Strassen recursion for the pool path.
/// The top `depth` levels of the recursion tree are unrolled on the
/// submitting thread: their linear steps (quadrant extraction, operand
/// sums, combination) are performed — and charged — exactly as in the
/// serial `strassen_rec`, but each subtree root below is *recorded*
/// instead of executed. The recorded subtrees are independent products;
/// the caller deals them across the pool's worker threads (each worker
/// runs the ordinary serial recursion on its unit) and then runs the
/// returned combine closure bottom-up. Because the same additions
/// produce the same operand bits and every subtree runs the same serial
/// call sequence, the output and the aggregate counters are bit-identical
/// to the serial recursion — only the split of work over units changes.
/// The unroll depth is chosen just deep enough to keep all units fed
/// (p0^depth subtrees), so the plan's operand copies stay a small
/// constant multiple of the input size instead of the full leaf fan-out.
template <typename T>
struct StrassenLeafPlan {
  std::vector<Matrix<T>> leaf_a;   ///< left operand per subtree product
  std::vector<Matrix<T>> leaf_b;   ///< right operand per subtree product
  std::vector<Matrix<T>> results;  ///< filled by the pool workers
};

namespace detail {

/// Exact tensor time the serial recursion will charge for a d x d
/// subtree: p0 recursive products down to the Theorem 2 base case.
template <typename T>
std::uint64_t strassen_subtree_cost(const Device<T>& unit, std::size_t d,
                                    int p0) {
  if (d * d <= 4 * unit.m() || d % 2 != 0) {
    const auto s = static_cast<std::uint64_t>(unit.tile_dim());
    const std::uint64_t tiles = (d + s - 1) / s;
    return tiles * tiles * projected_gemm_cost(unit, d);
  }
  return static_cast<std::uint64_t>(p0) *
         strassen_subtree_cost(unit, d / 2, p0);
}

template <typename T>
std::function<Matrix<T>()> strassen_plan(DevicePool<T>& pool,
                                         StrassenLeafPlan<T>& plan,
                                         const Matrix<T>& A,
                                         const Matrix<T>& B,
                                         const StrassenOptions& opts,
                                         std::size_t depth) {
  const std::size_t d = A.rows();
  if (depth == 0 || d * d <= 4 * pool.unit(0).m() || d % 2 != 0) {
    const std::size_t idx = plan.leaf_a.size();
    plan.leaf_a.push_back(A);
    plan.leaf_b.push_back(B);
    return [&plan, idx] { return std::move(plan.results[idx]); };
  }
  const std::size_t h = d / 2;
  auto add = [&pool](const Matrix<T>& a, const Matrix<T>& b,
                     T sign = T{1}) {
    Matrix<T> out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        out(i, j) = a(i, j) + sign * b(i, j);
      }
    }
    pool.charge_cpu(a.rows() * a.cols());
    return out;
  };
  auto quad = [&pool, h](const Matrix<T>& X, std::size_t qi, std::size_t qj) {
    Matrix<T> out =
        materialize(X.view().subview(qi * h, qj * h, h, h));
    pool.charge_cpu(h * h);
    return out;
  };
  auto a11 = quad(A, 0, 0), a12 = quad(A, 0, 1);
  auto a21 = quad(A, 1, 0), a22 = quad(A, 1, 1);
  auto b11 = quad(B, 0, 0), b12 = quad(B, 0, 1);
  auto b21 = quad(B, 1, 0), b22 = quad(B, 1, 1);

  auto combine = [&pool, h, d, add](std::vector<std::function<Matrix<T>()>> fs,
                                    bool standard) {
    return std::function<Matrix<T>()>([&pool, h, d, add,
                                       fs = std::move(fs), standard] {
      Matrix<T> C(d, d);
      auto place = [&](const Matrix<T>& block, std::size_t qi,
                       std::size_t qj) {
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < h; ++j) {
            C(qi * h + i, qj * h + j) = block(i, j);
          }
        }
        pool.charge_cpu(h * h);
      };
      if (standard) {
        place(add(fs[0](), fs[1]()), 0, 0);
        place(add(fs[2](), fs[3]()), 0, 1);
        place(add(fs[4](), fs[5]()), 1, 0);
        place(add(fs[6](), fs[7]()), 1, 1);
        return C;
      }
      auto m1 = fs[0](), m2 = fs[1](), m3 = fs[2](), m4 = fs[3]();
      auto m5 = fs[4](), m6 = fs[5](), m7 = fs[6]();
      place(add(add(m1, m4), add(m7, m5, T{-1})), 0, 0);
      place(add(m3, m5), 0, 1);
      place(add(m2, m4), 1, 0);
      place(add(add(m1, m2, T{-1}), add(m3, m6)), 1, 1);
      return C;
    });
  };

  if (opts.p0 == 8) {
    std::vector<std::function<Matrix<T>()>> fs;
    fs.push_back(strassen_plan(pool, plan, a11, b11, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a12, b21, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a11, b12, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a12, b22, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a21, b11, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a22, b21, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a21, b12, opts, depth - 1));
    fs.push_back(strassen_plan(pool, plan, a22, b22, opts, depth - 1));
    return combine(std::move(fs), /*standard=*/true);
  }

  // Strassen's seven products, operand sums charged as in the serial path.
  std::vector<std::function<Matrix<T>()>> fs;
  fs.push_back(strassen_plan(pool, plan, add(a11, a22), add(b11, b22), opts,
                             depth - 1));
  fs.push_back(strassen_plan(pool, plan, add(a21, a22), b11, opts,
                             depth - 1));
  fs.push_back(strassen_plan(pool, plan, a11, add(b12, b22, T{-1}), opts,
                             depth - 1));
  fs.push_back(strassen_plan(pool, plan, a22, add(b21, b11, T{-1}), opts,
                             depth - 1));
  fs.push_back(strassen_plan(pool, plan, add(a11, a12), b22, opts,
                             depth - 1));
  fs.push_back(strassen_plan(pool, plan, add(a21, a11, T{-1}),
                             add(b11, b12), opts, depth - 1));
  fs.push_back(strassen_plan(pool, plan, add(a12, a22, T{-1}),
                             add(b21, b22), opts, depth - 1));
  return combine(std::move(fs), /*standard=*/false);
}

/// Deal the recorded subtrees across the executor's units (exact
/// projected costs → deterministic split), run the serial recursion on
/// each, and combine. A subtree's linear work is charged to its unit, so
/// the aggregate still equals the serial device's totals.
template <typename T>
Matrix<T> strassen_run_plan(PoolExecutor<T>& exec, StrassenLeafPlan<T>& plan,
                            const std::function<Matrix<T>()>& root,
                            const StrassenOptions& opts) {
  const Device<T>& unit0 = exec.unit0();
  plan.results.resize(plan.leaf_a.size());
  for (std::size_t idx = 0; idx < plan.leaf_a.size(); ++idx) {
    const std::uint64_t cost =
        strassen_subtree_cost(unit0, plan.leaf_a[idx].rows(), opts.p0);
    exec.submit({.cost = cost}, [&plan, idx, opts](Device<T>& unit) {
      plan.results[idx] = strassen_rec(unit, plan.leaf_a[idx],
                                       plan.leaf_b[idx], opts);
    });
  }
  exec.join();
  return root();
}

}  // namespace detail

/// Theorem 1 on a DevicePool: the Strassen-like recursion's linear work
/// runs on the shared CPU while all leaf tile-GEMMs of the call tree are
/// dealt across the pool's worker threads. Output bits and aggregate
/// counters are identical to the single-device `matmul_strassen_tcu`; the
/// makespan drops by up to the unit count.
template <typename T>
Matrix<T> matmul_strassen_tcu_pool(PoolExecutor<T>& exec,
                                   std::type_identity_t<ConstMatrixView<T>> A,
                                   std::type_identity_t<ConstMatrixView<T>> B,
                                   StrassenOptions opts = {}) {
  if (A.cols != B.rows || A.rows != A.cols || B.rows != B.cols) {
    throw std::invalid_argument("matmul_strassen_tcu: square inputs required");
  }
  if (opts.p0 != 7 && opts.p0 != 8) {
    throw std::invalid_argument("matmul_strassen_tcu: p0 must be 7 or 8");
  }
  DevicePool<T>& pool = exec.pool();
  const std::size_t d = A.rows;
  const std::size_t s = pool.unit(0).tile_dim();
  std::size_t padded = s;
  while (padded < d) padded *= 2;

  // Unroll just deep enough to feed every unit several subtrees; deeper
  // unrolling only multiplies the plan's operand copies.
  std::size_t depth = 0;
  std::uint64_t subtrees = 1;
  const std::uint64_t target = 4 * static_cast<std::uint64_t>(pool.size());
  for (std::size_t dd = padded;
       subtrees < target && dd * dd > 4 * pool.unit(0).m() && dd % 2 == 0;
       dd /= 2) {
    ++depth;
    subtrees *= static_cast<std::uint64_t>(opts.p0);
  }

  StrassenLeafPlan<T> plan;
  if (padded == d) {
    Matrix<T> a = materialize(A);
    Matrix<T> b = materialize(B);
    pool.charge_cpu(2 * d * d);
    auto root = detail::strassen_plan(pool, plan, a, b, opts, depth);
    return detail::strassen_run_plan(exec, plan, root, opts);
  }
  Matrix<T> a(padded, padded, T{});
  Matrix<T> b(padded, padded, T{});
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = A(i, j);
      b(i, j) = B(i, j);
    }
  }
  pool.charge_cpu(2 * padded * padded);
  auto root = detail::strassen_plan(pool, plan, a, b, opts, depth);
  Matrix<T> cp = detail::strassen_run_plan(exec, plan, root, opts);
  Matrix<T> C(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) C(i, j) = cp(i, j);
  }
  pool.charge_cpu(d * d);
  return C;
}

/// Theorem 1: multiply two square matrices with a Strassen-like recursion
/// whose leaves are executed by the tensor unit. Inputs of awkward sizes
/// are zero-padded to the nearest s * 2^k dimension (the paper assumes
/// divisibility; padding adds only lower-order charged CPU work).
template <typename T>
Matrix<T> matmul_strassen_tcu(Device<T>& dev,
                              std::type_identity_t<ConstMatrixView<T>> A,
                              std::type_identity_t<ConstMatrixView<T>> B,
                              StrassenOptions opts = {}) {
  if (A.cols != B.rows || A.rows != A.cols || B.rows != B.cols) {
    throw std::invalid_argument("matmul_strassen_tcu: square inputs required");
  }
  if (opts.p0 != 7 && opts.p0 != 8) {
    throw std::invalid_argument("matmul_strassen_tcu: p0 must be 7 or 8");
  }
  const std::size_t d = A.rows;
  const std::size_t s = dev.tile_dim();
  std::size_t padded = s;
  while (padded < d) padded *= 2;

  if (padded == d) {
    Matrix<T> a = materialize(A);
    Matrix<T> b = materialize(B);
    dev.charge_cpu(2 * d * d);
    return detail::strassen_rec(dev, a, b, opts);
  }
  Matrix<T> a(padded, padded, T{});
  Matrix<T> b(padded, padded, T{});
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = A(i, j);
      b(i, j) = B(i, j);
    }
  }
  dev.charge_cpu(2 * padded * padded);
  Matrix<T> cp = detail::strassen_rec(dev, a, b, opts);
  Matrix<T> C(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) C(i, j) = cp(i, j);
  }
  dev.charge_cpu(d * d);
  return C;
}

/// RAM Strassen baseline (no tensor unit): same recursion with a naive
/// base case, for crossover benchmarks.
template <typename T>
Matrix<T> matmul_strassen_ram(ConstMatrixView<T> A, ConstMatrixView<T> B,
                              Counters& counters,
                              std::size_t base_dim = 32) {
  if (A.cols != B.rows || A.rows != A.cols || B.rows != B.cols) {
    throw std::invalid_argument("matmul_strassen_ram: square inputs required");
  }
  const std::size_t d = A.rows;
  if (d <= base_dim || d % 2 != 0) {
    return matmul_naive(A, B, counters);
  }
  // Reuse the TCU recursion machinery through a throwaway device whose
  // "tensor unit" is the RAM baseline charged at naive cost: simplest is a
  // direct recursive implementation here.
  const std::size_t h = d / 2;
  auto sub = [&](ConstMatrixView<T> X, std::size_t qi, std::size_t qj) {
    Matrix<T> out = materialize(X.subview(qi * h, qj * h, h, h));
    counters.charge_cpu(h * h);
    return out;
  };
  auto add = [&](const Matrix<T>& x, const Matrix<T>& y, T sign = T{1}) {
    Matrix<T> out(h, h);
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < h; ++j) out(i, j) = x(i, j) + sign * y(i, j);
    }
    counters.charge_cpu(h * h);
    return out;
  };
  auto rec = [&](const Matrix<T>& x, const Matrix<T>& y) {
    return matmul_strassen_ram(x.view(), y.view(), counters, base_dim);
  };
  auto a11 = sub(A, 0, 0), a12 = sub(A, 0, 1), a21 = sub(A, 1, 0),
       a22 = sub(A, 1, 1);
  auto b11 = sub(B, 0, 0), b12 = sub(B, 0, 1), b21 = sub(B, 1, 0),
       b22 = sub(B, 1, 1);
  auto m1 = rec(add(a11, a22), add(b11, b22));
  auto m2 = rec(add(a21, a22), b11);
  auto m3 = rec(a11, add(b12, b22, T{-1}));
  auto m4 = rec(a22, add(b21, b11, T{-1}));
  auto m5 = rec(add(a11, a12), b22);
  auto m6 = rec(add(a21, a11, T{-1}), add(b11, b12));
  auto m7 = rec(add(a12, a22, T{-1}), add(b21, b22));
  Matrix<T> C(d, d);
  auto c11 = add(add(m1, m4), add(m7, m5, T{-1}));
  auto c12 = add(m3, m5);
  auto c21 = add(m2, m4);
  auto c22 = add(add(m1, m2, T{-1}), add(m3, m6));
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      C(i, j) = c11(i, j);
      C(i, j + h) = c12(i, j);
      C(i + h, j) = c21(i, j);
      C(i + h, j + h) = c22(i, j);
    }
  }
  counters.charge_cpu(d * d);
  return C;
}

}  // namespace tcu::linalg
