#include "stencil/stencil.hpp"

#include <stdexcept>
#include <vector>

#include "dft/dft.hpp"

namespace tcu::stencil {

namespace {

/// The pipeline's DFT options: its batched transforms re-visit the same
/// Cooley-Tukey levels many times per call, so the level tiles stay
/// resident (and a split level's chunks declare the level key as their
/// chain, landing on lanes that already hold the tile).
constexpr dft::DftOptions kDft{.affinity = true};

/// Linear 2-D convolution of real matrices a (ra x ca) and b (rb x cb)
/// into (ra+rb-1) x (ca+cb-1), computed as a circular convolution of
/// exactly that size on the tensor unit (no wrap-around can occur at full
/// size). Used by the Lemma 2 polynomial powering.
template <typename Exec>
Matrix<double> conv2_linear_tcu(Exec& exec, ConstMatrixView<double> a,
                                ConstMatrixView<double> b) {
  const std::size_t out_rows = a.rows + b.rows - 1;
  const std::size_t out_cols = a.cols + b.cols - 1;
  // Pad the circular size up to a power of two: zero padding keeps the
  // linear convolution exact (no index can wrap) and keeps every DFT
  // length smooth, avoiding Bluestein's constant-factor detour on the
  // odd sizes the kernel powering would otherwise produce.
  std::size_t rows = 1, cols = 1;
  while (rows < out_rows) rows *= 2;
  while (cols < out_cols) cols *= 2;
  Matrix<Complex> pa(rows, cols, Complex{});
  Matrix<Complex> pb(rows, cols, Complex{});
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t j = 0; j < a.cols; ++j) pa(i, j) = a(i, j);
  }
  for (std::size_t i = 0; i < b.rows; ++i) {
    for (std::size_t j = 0; j < b.cols; ++j) pb(i, j) = b(i, j);
  }
  exec.charge_cpu(2 * rows * cols);
  auto full = dft::circular_convolve2_tcu(exec, pa.view(), pb.view(), kDft);
  Matrix<double> out(out_rows, out_cols);
  for (std::size_t i = 0; i < out_rows; ++i) {
    for (std::size_t j = 0; j < out_cols; ++j) {
      out(i, j) = full(i, j).real();
    }
  }
  exec.charge_cpu(out_rows * out_cols);
  return out;
}

/// Convolution power by repeated squaring (the P(x,y)^k of Lemma 2).
template <typename Exec>
Matrix<double> kernel_power(Exec& exec, const Kernel3& w, std::size_t k) {
  if (k == 1) return w;
  Matrix<double> half = kernel_power(exec, w, k / 2);
  Matrix<double> sq = conv2_linear_tcu(exec, half.view(), half.view());
  if (k % 2 == 0) return sq;
  return conv2_linear_tcu(exec, sq.view(), w.view());
}

void check_kernel(const Kernel3& w) {
  if (w.rows() != 3 || w.cols() != 3) {
    throw std::invalid_argument("stencil: kernel must be 3x3");
  }
}

/// Batched in-place 2-D DFT of `count` contiguous N x N blocks stacked
/// vertically in `stack` ((count*N) x N). The row pass transforms all
/// rows of all blocks with one batched call per DFT level; the column
/// pass transposes each block, batches again, and transposes back.
template <typename Exec>
void dft2_stacked(Exec& exec, MatrixView<Complex> stack, std::size_t block,
                  bool inverse) {
  auto pass = [&](MatrixView<Complex> rows) {
    if (inverse) {
      dft::idft_batch_tcu(exec, rows, kDft);
    } else {
      dft::dft_batch_tcu(exec, rows, kDft);
    }
  };
  pass(stack);
  const std::size_t count = stack.rows / block;
  for (std::size_t bidx = 0; bidx < count; ++bidx) {
    auto blk = stack.subview(bidx * block, 0, block, block);
    for (std::size_t i = 0; i < block; ++i) {
      for (std::size_t j = i + 1; j < block; ++j) {
        std::swap(blk(i, j), blk(j, i));
      }
    }
  }
  exec.charge_cpu(stack.rows * block);
  pass(stack);
  for (std::size_t bidx = 0; bidx < count; ++bidx) {
    auto blk = stack.subview(bidx * block, 0, block, block);
    for (std::size_t i = 0; i < block; ++i) {
      for (std::size_t j = i + 1; j < block; ++j) {
        std::swap(blk(i, j), blk(j, i));
      }
    }
  }
  exec.charge_cpu(stack.rows * block);
}

template <typename Exec>
Matrix<double> weight_matrix_impl(Exec& exec, const Kernel3& w,
                                  std::size_t k) {
  check_kernel(w);
  if (k == 0) throw std::invalid_argument("stencil: k must be >= 1");
  return kernel_power(exec, w, k);
}

template <typename Exec>
Matrix<double> stencil_impl(Exec& exec, ConstMatrixView<double> grid,
                            const Kernel3& w, std::size_t k) {
  check_kernel(w);
  if (k == 0) throw std::invalid_argument("stencil: k must be >= 1");
  const std::size_t rows = grid.rows, cols = grid.cols;
  if (rows == 0 || cols == 0) return Matrix<double>(rows, cols);

  // Zero-pad the grid to a multiple of k per side (exact for the
  // zero-boundary semantics).
  const std::size_t pr = ((rows + k - 1) / k) * k;
  const std::size_t pc = ((cols + k - 1) / k) * k;
  Matrix<double> padded(pr, pc, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) padded(i, j) = grid(i, j);
  }
  exec.charge_cpu(pr * pc);

  // Lemma 2: the unrolled weight matrix.
  Matrix<double> W = weight_matrix_impl(exec, w, k);
  const std::size_t N = 3 * k;  // block neighbourhood / convolution size

  // Kernel for correlation-as-convolution at size N:
  // Kf[(-a) mod N][(-b) mod N] = W[k+a][k+b].
  Matrix<Complex> kf(N, N, Complex{});
  for (std::int64_t a = -static_cast<std::int64_t>(k);
       a <= static_cast<std::int64_t>(k); ++a) {
    for (std::int64_t b = -static_cast<std::int64_t>(k);
         b <= static_cast<std::int64_t>(k); ++b) {
      const std::size_t u = static_cast<std::size_t>(
          ((-a) % static_cast<std::int64_t>(N) + static_cast<std::int64_t>(N)) %
          static_cast<std::int64_t>(N));
      const std::size_t v = static_cast<std::size_t>(
          ((-b) % static_cast<std::int64_t>(N) + static_cast<std::int64_t>(N)) %
          static_cast<std::int64_t>(N));
      kf(u, v) = W(static_cast<std::size_t>(k + a),
                   static_cast<std::size_t>(k + b));
    }
  }
  exec.charge_cpu((2 * k + 1) * (2 * k + 1));
  Matrix<Complex> fk = dft::dft2_tcu(exec, kf.view(), false, kDft);

  // Assemble every block's 3k x 3k neighbourhood, stacked vertically so
  // the batched DFT shares tensor calls across all blocks (Lemma 1).
  const std::size_t br = pr / k, bc = pc / k;
  const std::size_t count = br * bc;
  Matrix<Complex> stack(count * N, N, Complex{});
  for (std::size_t rb = 0; rb < br; ++rb) {
    for (std::size_t cb = 0; cb < bc; ++cb) {
      const std::size_t bidx = rb * bc + cb;
      for (std::size_t i = 0; i < N; ++i) {
        const std::int64_t gi = static_cast<std::int64_t>(rb * k + i) -
                                static_cast<std::int64_t>(k);
        if (gi < 0 || gi >= static_cast<std::int64_t>(pr)) continue;
        for (std::size_t j = 0; j < N; ++j) {
          const std::int64_t gj = static_cast<std::int64_t>(cb * k + j) -
                                  static_cast<std::int64_t>(k);
          if (gj < 0 || gj >= static_cast<std::int64_t>(pc)) continue;
          stack(bidx * N + i, j) =
              padded(static_cast<std::size_t>(gi),
                     static_cast<std::size_t>(gj));
        }
      }
    }
  }
  exec.charge_cpu(count * N * N);

  // Forward transform of all neighbourhoods, pointwise multiply with the
  // kernel spectrum, inverse transform.
  dft2_stacked(exec, stack.view(), N, /*inverse=*/false);
  for (std::size_t bidx = 0; bidx < count; ++bidx) {
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        stack(bidx * N + i, j) *= fk(i, j);
      }
    }
  }
  exec.charge_cpu(count * N * N);
  dft2_stacked(exec, stack.view(), N, /*inverse=*/true);

  // Extract the centre k x k of each block.
  Matrix<double> out(rows, cols, 0.0);
  for (std::size_t rb = 0; rb < br; ++rb) {
    for (std::size_t cb = 0; cb < bc; ++cb) {
      const std::size_t bidx = rb * bc + cb;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t gi = rb * k + i;
        if (gi >= rows) continue;
        for (std::size_t j = 0; j < k; ++j) {
          const std::size_t gj = cb * k + j;
          if (gj >= cols) continue;
          out(gi, gj) = stack(bidx * N + k + i, k + j).real();
        }
      }
    }
  }
  exec.charge_cpu(count * k * k);
  return out;
}

}  // namespace

Kernel3 heat_kernel(double cx, double cy) {
  Kernel3 w(3, 3, 0.0);
  w(1, 1) = 1.0 - 2.0 * cx - 2.0 * cy;
  w(0, 1) = w(2, 1) = cx;  // neighbours in the first grid dimension
  w(1, 0) = w(1, 2) = cy;  // neighbours in the second grid dimension
  return w;
}

Matrix<double> stencil_direct(ConstMatrixView<double> grid, const Kernel3& w,
                              std::size_t k, Counters& counters) {
  check_kernel(w);
  const std::size_t rows = grid.rows, cols = grid.cols;
  // The paper's linear-stencil semantics are those of the unrolled weight
  // matrix: the grid sits inside an infinite zero plane, so mass that
  // leaves the grid in an intermediate sweep can flow back. Simulate this
  // exactly by sweeping over a halo of k cells per side (cells further
  // than k away can never influence the grid within k sweeps).
  const std::size_t er = rows + 2 * k, ec = cols + 2 * k;
  Matrix<double> cur(er, ec, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) cur(i + k, j + k) = grid(i, j);
  }
  Matrix<double> next(er, ec, 0.0);
  for (std::size_t sweep = 0; sweep < k; ++sweep) {
    for (std::size_t i = 0; i < er; ++i) {
      for (std::size_t j = 0; j < ec; ++j) {
        double acc = 0.0;
        for (int a = -1; a <= 1; ++a) {
          for (int b = -1; b <= 1; ++b) {
            const std::int64_t ii = static_cast<std::int64_t>(i) + a;
            const std::int64_t jj = static_cast<std::int64_t>(j) + b;
            if (ii < 0 || jj < 0 || ii >= static_cast<std::int64_t>(er) ||
                jj >= static_cast<std::int64_t>(ec)) {
              continue;
            }
            acc += w(static_cast<std::size_t>(a + 1),
                     static_cast<std::size_t>(b + 1)) *
                   cur(static_cast<std::size_t>(ii),
                       static_cast<std::size_t>(jj));
          }
        }
        next(i, j) = acc;
      }
    }
    std::swap(cur, next);
    counters.charge_cpu(9 * er * ec);
  }
  Matrix<double> out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) out(i, j) = cur(i + k, j + k);
  }
  counters.charge_cpu(rows * cols);
  return out;
}

Matrix<double> weight_matrix_unrolled(const Kernel3& w, std::size_t k,
                                      Counters& counters) {
  check_kernel(w);
  if (k == 0) throw std::invalid_argument("stencil: k must be >= 1");
  // W_1 = w; W_{t} = W_{t-1} (*) w (linear convolution in offset space).
  Matrix<double> cur = w;
  for (std::size_t t = 1; t < k; ++t) {
    const std::size_t d = cur.rows();
    Matrix<double> next(d + 2, d + 2, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t a = 0; a < 3; ++a) {
          for (std::size_t b = 0; b < 3; ++b) {
            next(i + a, j + b) += cur(i, j) * w(a, b);
          }
        }
      }
    }
    counters.charge_cpu(9 * d * d);
    cur = std::move(next);
  }
  return cur;
}

Matrix<double> weight_matrix_tcu(Device<Complex>& dev, const Kernel3& w,
                                 std::size_t k) {
  InlineExecutor<Complex> exec(dev);
  return weight_matrix_impl(exec, w, k);
}

Matrix<double> stencil_tcu(Device<Complex>& dev,
                           ConstMatrixView<double> grid, const Kernel3& w,
                           std::size_t k) {
  InlineExecutor<Complex> exec(dev);
  return stencil_impl(exec, grid, w, k);
}

Matrix<double> stencil_tcu_pool(PoolExecutor<Complex>& exec,
                                ConstMatrixView<double> grid,
                                const Kernel3& w, std::size_t k) {
  return stencil_impl(exec, grid, w, k);
}

}  // namespace tcu::stencil
