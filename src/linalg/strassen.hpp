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

#include <array>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "util/leaf_plan.hpp"

namespace tcu::linalg {

struct StrassenOptions {
  int p0 = 7;  ///< 7 = Strassen, 8 = standard recursive
};

namespace detail {

// The recursion's linear steps, written once. Each takes anything with
// `charge_cpu` — a Device, Counters, or either executor — so the serial
// recursion, the executor unroll and the RAM baseline charge alike.

/// a + sign * b, one op per entry.
template <typename T, typename Cpu>
Matrix<T> add_charged(Cpu& cpu, const Matrix<T>& a, const Matrix<T>& b,
                      T sign = T{1}) {
  Matrix<T> out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out(i, j) = a(i, j) + sign * b(i, j);
    }
  }
  cpu.charge_cpu(a.rows() * a.cols());
  return out;
}

/// X11, X12, X21, X22 of a 2h x 2h matrix, one op per copied entry.
template <typename T, typename Cpu>
std::array<Matrix<T>, 4> quadrants(Cpu& cpu, ConstMatrixView<T> X) {
  const std::size_t h = X.rows / 2;
  std::array<Matrix<T>, 4> q;
  for (std::size_t k = 0; k < 4; ++k) {
    q[k] = materialize(X.subview((k / 2) * h, (k % 2) * h, h, h));
  }
  cpu.charge_cpu(4 * h * h);
  return q;
}

/// Hand the p0 block products' operands to `product(x, y)` in order, each
/// pair formed just before it is consumed: p0 = 8 is the standard
/// recursion (C_ij = A_i1 B_1j + A_i2 B_2j), p0 = 7 Strassen's M1..M7.
template <typename T, typename Cpu, typename Product>
void strassen_products(Cpu& cpu, const std::array<Matrix<T>, 4>& a,
                       const std::array<Matrix<T>, 4>& b, int p0,
                       Product product) {
  const auto& [a11, a12, a21, a22] = a;
  const auto& [b11, b12, b21, b22] = b;
  if (p0 == 8) {
    product(a11, b11);
    product(a12, b21);
    product(a11, b12);
    product(a12, b22);
    product(a21, b11);
    product(a22, b21);
    product(a21, b12);
    product(a22, b22);
    return;
  }
  product(add_charged(cpu, a11, a22), add_charged(cpu, b11, b22));
  product(add_charged(cpu, a21, a22), b11);
  product(a11, add_charged(cpu, b12, b22, T{-1}));
  product(a22, add_charged(cpu, b21, b11, T{-1}));
  product(add_charged(cpu, a11, a12), b22);
  product(add_charged(cpu, a21, a11, T{-1}), add_charged(cpu, b11, b12));
  product(add_charged(cpu, a12, a22, T{-1}), add_charged(cpu, b21, b22));
}

/// The 2h x 2h result, assembled from the p0 block products as they
/// arrive in `strassen_products` order: p0 = 8 places each C block once
/// its pair is in, p0 = 7 places Strassen's four sums once M7 is in. The
/// sums and one op per placed entry are charged.
template <typename T>
class StrassenCombine {
 public:
  explicit StrassenCombine(int p0) : p0_(p0) {}

  template <typename Cpu>
  void push(Cpu& cpu, Matrix<T> product) {
    auto add = [&cpu](const Matrix<T>& x, const Matrix<T>& y,
                      T sign = T{1}) { return add_charged(cpu, x, y, sign); };
    m_.push_back(std::move(product));
    const std::size_t k = m_.size();
    if (p0_ == 8 && k % 2 == 0) {
      place(cpu, k / 2 - 1, add(m_[k - 2], m_[k - 1]));
      m_[k - 2] = m_[k - 1] = Matrix<T>{};
    } else if (p0_ == 7 && k == 7) {
      place(cpu, 0, add(add(m_[0], m_[3]), add(m_[6], m_[4], T{-1})));
      place(cpu, 1, add(m_[2], m_[4]));
      place(cpu, 2, add(m_[1], m_[3]));
      place(cpu, 3, add(add(m_[0], m_[1], T{-1}), add(m_[2], m_[5])));
    }
  }

  Matrix<T> result() { return std::move(C_); }

 private:
  template <typename Cpu>
  void place(Cpu& cpu, std::size_t q, const Matrix<T>& block) {
    const std::size_t h = block.rows();
    if (C_.rows() == 0) C_ = Matrix<T>(2 * h, 2 * h);
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < h; ++j) {
        C_((q / 2) * h + i, (q % 2) * h + j) = block(i, j);
      }
    }
    cpu.charge_cpu(h * h);
  }

  int p0_;
  std::vector<Matrix<T>> m_;
  Matrix<T> C_;
};

/// The recursion bottoms out in the Theorem 2 kernel once the block area
/// is at most n0 * m (or the side is odd).
template <typename T>
bool strassen_base(const Device<T>& unit, std::size_t d) {
  return d * d <= 4 * unit.m() || d % 2 != 0;
}

/// The serial recursion on one device: the body every leaf task runs.
template <typename T>
Matrix<T> strassen_rec(Device<T>& dev, const Matrix<T>& A, const Matrix<T>& B,
                       const StrassenOptions& opts) {
  if (strassen_base(dev, A.rows())) {
    return matmul_tcu(dev, A.view(), B.view());
  }
  const auto a = quadrants(dev, A.view());
  const auto b = quadrants(dev, B.view());
  StrassenCombine<T> c(opts.p0);
  strassen_products(dev, a, b, opts.p0,
                    [&](const Matrix<T>& x, const Matrix<T>& y) {
                      c.push(dev, strassen_rec(dev, x, y, opts));
                    });
  return c.result();
}

/// Exact tensor time the serial recursion will charge for a d x d
/// subtree: p0 recursive products down to the Theorem 2 base case.
template <typename T>
std::uint64_t strassen_subtree_cost(const Device<T>& unit, std::size_t d,
                                    int p0) {
  if (strassen_base(unit, d)) {
    const auto s = static_cast<std::uint64_t>(unit.tile_dim());
    const std::uint64_t tiles = (d + s - 1) / s;
    return tiles * tiles * projected_gemm_cost(unit, d);
  }
  return static_cast<std::uint64_t>(p0) *
         strassen_subtree_cost(unit, d / 2, p0);
}

/// The top `depth` levels of the recursion with each subtree below
/// recorded as a leaf task (util/leaf_plan.hpp), dealt at its exact
/// projected cost; the returned deferred recombines the leaf results.
template <typename T, typename Exec>
typename util::LeafPlan<Matrix<T>>::Deferred strassen_unroll(
    Exec& exec, util::LeafPlan<Matrix<T>>& plan, Matrix<T> A, Matrix<T> B,
    const StrassenOptions& opts, std::size_t depth) {
  const Device<T>& unit0 = exec.unit0();
  const std::size_t d = A.rows();
  if (depth == 0 || strassen_base(unit0, d)) {
    return plan.record(exec, strassen_subtree_cost(unit0, d, opts.p0),
                       std::move(A), std::move(B),
                       [opts](Device<T>& unit, const Matrix<T>& a,
                              const Matrix<T>& b) {
                         return strassen_rec(unit, a, b, opts);
                       });
  }
  const auto a = quadrants<T>(exec, A.view());
  const auto b = quadrants<T>(exec, B.view());
  A = Matrix<T>{};  // the children read only the quadrants
  B = Matrix<T>{};
  std::vector<typename util::LeafPlan<Matrix<T>>::Deferred> fs;
  strassen_products(exec, a, b, opts.p0, [&](auto&& x, auto&& y) {
    fs.push_back(strassen_unroll(exec, plan, std::forward<decltype(x)>(x),
                                 std::forward<decltype(y)>(y), opts,
                                 depth - 1));
  });
  return [&exec, fs = std::move(fs), p0 = opts.p0] {
    StrassenCombine<T> c(p0);
    for (const auto& f : fs) c.push(exec, f());
    return c.result();
  };
}

}  // namespace detail

/// Theorem 1 on an executor: the Strassen-like recursion's top levels
/// (linear work charged through the executor) are unrolled just deep
/// enough to feed every unit several subtrees, and the subtree products
/// are dealt across the units, each running the serial recursion. Output
/// bits and aggregate counters are those of `matmul_strassen_tcu` on one
/// device for every unit count; the makespan drops by up to the unit
/// count. Inputs of awkward sizes are zero-padded to the nearest s * 2^k
/// dimension (the paper assumes divisibility; padding adds only
/// lower-order charged CPU work).
template <template <typename> class Exec, typename T>
Matrix<T> matmul_strassen_tcu_pool(Exec<T>& exec,
                                   std::type_identity_t<ConstMatrixView<T>> A,
                                   std::type_identity_t<ConstMatrixView<T>> B,
                                   StrassenOptions opts = {}) {
  if (A.cols != B.rows || A.rows != A.cols || B.rows != B.cols) {
    throw std::invalid_argument("matmul_strassen_tcu: square inputs required");
  }
  if (opts.p0 != 7 && opts.p0 != 8) {
    throw std::invalid_argument("matmul_strassen_tcu: p0 must be 7 or 8");
  }
  const Device<T>& unit0 = exec.unit0();
  const std::size_t d = A.rows;
  std::size_t padded = unit0.tile_dim();
  while (padded < d) padded *= 2;

  // Deeper unrolling than ~4 subtrees per unit only multiplies the
  // recorded operand copies.
  std::size_t depth = 0;
  const std::uint64_t target = 4 * static_cast<std::uint64_t>(exec.size());
  for (std::uint64_t subtrees = 1, dd = padded;
       subtrees < target && !detail::strassen_base(unit0, dd); dd /= 2) {
    ++depth;
    subtrees *= static_cast<std::uint64_t>(opts.p0);
  }

  Matrix<T> a(padded, padded, T{});
  Matrix<T> b(padded, padded, T{});
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      a(i, j) = A(i, j);
      b(i, j) = B(i, j);
    }
  }
  exec.charge_cpu(2 * padded * padded);
  Matrix<T> cp = util::run_leaf_plan<Matrix<T>>(exec, [&](auto& plan) {
    return detail::strassen_unroll(exec, plan, std::move(a), std::move(b),
                                   opts, depth);
  });
  if (padded == d) return cp;
  Matrix<T> C = materialize(cp.view().subview(0, 0, d, d));
  exec.charge_cpu(d * d);
  return C;
}

/// Theorem 1: multiply two square matrices with a Strassen-like recursion
/// whose leaves are executed by the tensor unit — the executor body run
/// inline on one device.
template <typename T>
Matrix<T> matmul_strassen_tcu(Device<T>& dev,
                              std::type_identity_t<ConstMatrixView<T>> A,
                              std::type_identity_t<ConstMatrixView<T>> B,
                              StrassenOptions opts = {}) {
  InlineExecutor<T> exec(dev);
  return matmul_strassen_tcu_pool(exec, A, B, opts);
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
  const auto a = detail::quadrants(counters, A);
  const auto b = detail::quadrants(counters, B);
  detail::StrassenCombine<T> c(7);
  detail::strassen_products(counters, a, b, 7,
                            [&](const Matrix<T>& x, const Matrix<T>& y) {
                              c.push(counters, matmul_strassen_ram(
                                                   x.view(), y.view(),
                                                   counters, base_dim));
                            });
  return c.result();
}

}  // namespace tcu::linalg
