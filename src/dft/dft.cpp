#include "dft/dft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "linalg/parallel.hpp"

namespace tcu::dft {

namespace {

constexpr double kPi = std::numbers::pi;

Complex unit_root(double num, double den, bool inverse) {
  const double angle = (inverse ? 2.0 : -2.0) * kPi * num / den;
  return {std::cos(angle), std::sin(angle)};
}

/// Largest factor f of len with 2 <= f <= s; 0 if none (len prime > s).
std::size_t choose_factor(std::size_t len, std::size_t s) {
  for (std::size_t f = std::min(s, len); f >= 2; --f) {
    if (len % f == 0) return f;
  }
  return 0;
}

/// Execution context threading the Cooley-Tukey recursion through an
/// executor. The one tensor product per level is a tall call whose rows
/// are independent, so it is split into up to `exec.size()` contiguous row
/// chunks (boundaries on multiples of sqrt(m), so charged rows and
/// tensor_macs equal the unsplit call's) dealt across the units. Each unit
/// must load the level's Fourier tile once, so a k-way split issues k tall
/// calls where one unit issues one, paying (k - 1) * l extra load latency
/// per level — the classic parallelization overhead of the model,
/// reported by the pool benches. Every other counter field (rows, macs,
/// cpu_ops, the non-latency tensor time), and every output bit, are
/// independent of the split; the `Device&` entry points are this schedule
/// on an InlineExecutor (one chunk per level), and weak-model units (which
/// pay l per square call anyway) match it in every field at any split.
template <typename Exec>
struct DftCtx {
  Exec* exec = nullptr;
  /// DftOptions::affinity: tag each level's Fourier tile with its
  /// symbolic content key (make_tile_key(kDftTileTag, n)), so repeated
  /// levels and transforms keep the tile resident. Off = the historical
  /// untagged accounting (the Theorem 7 contract the pool benches pin):
  /// one unit pays l once per level — there is no needless reload
  /// *within* a call to fix — and a split level re-pays l per extra chunk.
  bool affinity = false;
  /// Arena: heap owners of matrices that queued tasks still reference
  /// after the submitting stack frame returns (per-level Fourier tiles,
  /// per-recursion `next` buffers). Owned by the public entry point.
  std::vector<std::shared_ptr<Matrix<Complex>>>* keep = nullptr;
  /// Ordering: the tickets of the last submitted stage (one level's
  /// chunks, a base case, or a read-out). Every task of the next stage
  /// lists all of them in `after`, so the stages run in submit order
  /// without idling the submit thread. Owned by the public entry point
  /// like `keep`; emptied by sync(), whose join already ordered them.
  std::vector<TaskTicket>* stage = nullptr;

  /// Strict join before a submit-thread read of task-written data
  /// (transposes, Bluestein glue, pointwise products) and at the public
  /// API boundary. Clears `stage`: submit rejects tickets issued before a
  /// join. Truncates the arena back to `mark`, its size when the calling
  /// frame started: after the join no task is in flight, and the buffers
  /// of the enclosing recursion frames, whose read-outs are submitted
  /// after this frame returns, sit below the mark.
  void sync(std::size_t mark) const {
    exec->join();
    stage->clear();
    keep->resize(mark);
  }

  std::size_t tile_dim() const { return exec->unit0().tile_dim(); }
  void charge_cpu(std::uint64_t ops) const { exec->charge_cpu(ops); }
};

/// The per-call state, owned by each public entry point: the arena and
/// the last stage's tickets that `ctx` points into.
template <typename Exec>
struct DftCall {
  std::vector<std::shared_ptr<Matrix<Complex>>> keep;
  std::vector<TaskTicket> stage;
  DftCtx<Exec> ctx;

  DftCall(Exec& exec, const DftOptions& opts)
      : ctx{.exec = &exec,
            .affinity = opts.affinity,
            .keep = &keep,
            .stage = &stage} {}
  DftCall(const DftCall&) = delete;
  DftCall& operator=(const DftCall&) = delete;
};

template <typename Exec>
void dft_batch_rec(const DftCtx<Exec>& ctx, MatrixView<Complex> batch);

/// One tensor product of a level: `rows` rows of a tall matrix times W_n
/// zero-padded to the device tile. The tile is built once (shared CPU
/// work) and held in the arena; the rows are dealt as min(units, tiles)
/// chunks on multiples of sqrt(m), one fused task each that gathers its
/// rows into an nr x sqrt(m) operand (`load(unit, r0, operand)`), issues
/// one tall call — tagged with the tile's key under affinity, whose
/// chunks declare it as their chain, untagged otherwise — and scatters
/// the product (`store(unit, r0, product)`). The loads and stores charge
/// their glue to the executing unit; `glue` is their charge per row, for
/// the dealer's cost. Every chunk runs after the previous stage, and the
/// chunks' tickets become the stage the next one waits on.
template <typename Exec, typename Load, typename Store>
void submit_level(const DftCtx<Exec>& ctx, std::size_t n, std::size_t rows,
                  std::uint64_t glue, Load load, Store store) {
  const std::size_t s = ctx.tile_dim();
  auto w_tile = std::make_shared<Matrix<Complex>>(s, s, Complex{});
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      (*w_tile)(r, c) = unit_root(static_cast<double>((r * c) % n),
                                  static_cast<double>(n), false);
    }
  }
  ctx.charge_cpu(n * n);
  ctx.keep->push_back(w_tile);

  Exec& exec = *ctx.exec;
  const std::size_t tiles = rows / s;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(exec.size(), tiles));
  const std::uint64_t key = make_tile_key(kDftTileTag, n);
  const bool affinity = ctx.affinity;
  std::vector<std::uint64_t> chain;
  if (affinity) chain.push_back(key);
  std::vector<TaskTicket> tickets;
  std::size_t r0 = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t tile_cnt = tiles / chunks + (c < tiles % chunks);
    const std::size_t nr = (c + 1 == chunks) ? rows - r0 : tile_cnt * s;
    auto run_chunk = [load, store, w_tile, r0, nr, s, key,
                      affinity](Device<Complex>& unit) {
      Matrix<Complex> in(nr, s, Complex{});
      load(unit, r0, in.view());
      Matrix<Complex> out(nr, s, Complex{});
      if (affinity) {
        unit.gemm_resident(key, in.view().as_const(),
                           w_tile->view().as_const(), out.view());
      } else {
        // tcu-lint: untagged-ok(empty-chain chunk; the dealer dropped the lane mirror)
        unit.gemm(in.view().as_const(), w_tile->view().as_const(),
                  out.view());
      }
      store(unit, r0, out.view());
    };
    const std::uint64_t cost =
        tcu::linalg::detail::strip_tile_cost(exec.unit0(), nr, affinity) +
        glue * nr;
    tickets.push_back(exec.submit(
        {.cost = cost, .chain = chain, .after = *ctx.stage},
        std::move(run_chunk)));
    r0 += nr;
  }
  *ctx.stage = std::move(tickets);
}

/// All column DFTs of one Cooley-Tukey level for the whole batch with one
/// (chunked) tall tensor product: the (b*n2) x n1 matrix of column vectors
/// times W_{n1}, scattered twiddled into `next`, reshaped so each length-n2
/// subvector of the next level is a contiguous row. Rows of the tall
/// matrix touch pairwise-disjoint elements of `batch` and `next`, so
/// chunks race on nothing.
template <typename Exec>
void ct_level(const DftCtx<Exec>& ctx, MatrixView<Complex> batch,
              std::size_t n1, MatrixView<Complex> next) {
  const std::size_t len = batch.cols;
  const std::size_t n2 = len / n1;
  submit_level(
      ctx, n1, batch.rows * n2, 3ull * n1,
      // Gather: tall-matrix row r0+i is column vector (r, c) with
      // r = (r0+i)/n2, c = (r0+i)%n2 of row r's n1 x n2 arrangement.
      [batch, n1, n2](Device<Complex>& unit, std::size_t r0,
                      MatrixView<Complex> g) {
        for (std::size_t i = 0; i < g.rows; ++i) {
          const std::size_t r = (r0 + i) / n2;
          const std::size_t c = (r0 + i) % n2;
          for (std::size_t j1 = 0; j1 < n1; ++j1) {
            g(i, j1) = batch(r, j1 * n2 + c);
          }
        }
        unit.charge_cpu(g.rows * n1);
      },
      // Twiddle + scatter into the next level's contiguous layout:
      // next(r*n1 + k1, j2) = t(i, k1) * w_len^{k1*j2}.
      [next, n1, n2, len](Device<Complex>& unit, std::size_t r0,
                          MatrixView<Complex> t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          const std::size_t r = (r0 + i) / n2;
          const std::size_t j2 = (r0 + i) % n2;
          for (std::size_t k1 = 0; k1 < n1; ++k1) {
            const Complex tw =
                unit_root(static_cast<double>((k1 * j2) % len),
                          static_cast<double>(len), false);
            next(r * n1 + k1, j2) = t(i, k1) * tw;
          }
        }
        unit.charge_cpu(2 * t.rows * n1);
      });
}

/// Base case (len <= sqrt(m)): one (chunked) tall call over the batch
/// rows, each chunk padding and writing back its own rows.
template <typename Exec>
void base_case(const DftCtx<Exec>& ctx, MatrixView<Complex> batch) {
  const std::size_t len = batch.cols;
  submit_level(
      ctx, len, batch.rows, 2ull * len,
      [batch, len](Device<Complex>& unit, std::size_t r0,
                   MatrixView<Complex> padded) {
        for (std::size_t i = 0; i < padded.rows; ++i) {
          for (std::size_t j = 0; j < len; ++j) {
            padded(i, j) = batch(r0 + i, j);
          }
        }
        unit.charge_cpu(padded.rows * len);
      },
      [batch, len](Device<Complex>& unit, std::size_t r0,
                   MatrixView<Complex> out) {
        for (std::size_t i = 0; i < out.rows; ++i) {
          for (std::size_t j = 0; j < len; ++j) {
            batch(r0 + i, j) = out(i, j);
          }
        }
        unit.charge_cpu(out.rows * len);
      });
}

/// Bluestein chirp-z: DFT of prime length len > sqrt(m) via a circular
/// convolution of power-of-two size N >= 2*len - 1.
template <typename Exec>
void bluestein(const DftCtx<Exec>& ctx, MatrixView<Complex> batch) {
  const std::size_t mark = ctx.keep->size();
  const std::size_t len = batch.cols;
  const std::size_t b = batch.rows;
  std::size_t N = 1;
  while (N < 2 * len - 1) N *= 2;

  // Chirps: a_j = x_j * conj(chirp_j), kernel_j = chirp_j with chirp_j =
  // exp(pi i j^2 / len); y_k = conj(chirp_k) * (a (*) kernel)_k.
  std::vector<Complex> chirp(len);
  for (std::size_t j = 0; j < len; ++j) {
    const auto j2 = static_cast<double>((j * j) % (2 * len));
    const double angle = kPi * j2 / static_cast<double>(len);
    chirp[j] = {std::cos(angle), std::sin(angle)};
  }
  ctx.charge_cpu(len);

  // The chirp modulation reads `batch` on the submit thread; earlier
  // stages may still be writing it.
  ctx.sync(mark);
  Matrix<Complex> a(b, N, Complex{});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      a(r, j) = batch(r, j) * std::conj(chirp[j]);
    }
  }
  Matrix<Complex> kernel(1, N, Complex{});
  kernel(0, 0) = chirp[0];
  for (std::size_t j = 1; j < len; ++j) {
    kernel(0, j) = chirp[j];
    kernel(0, N - j) = chirp[j];
  }
  ctx.charge_cpu(b * len + 2 * len);

  dft_batch_rec(ctx, a.view());
  dft_batch_rec(ctx, kernel.view());
  ctx.sync(mark);  // the pointwise product reads both transforms
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < N; ++j) {
      a(r, j) = std::conj(a(r, j) * kernel(0, j));
    }
  }
  ctx.charge_cpu(2 * b * N);
  // Inverse DFT of size N via conjugation around the forward transform.
  dft_batch_rec(ctx, a.view());
  ctx.sync(mark);  // the write-back below reads `a`, and `a` is a local
  const double scale = 1.0 / static_cast<double>(N);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t k = 0; k < len; ++k) {
      batch(r, k) = std::conj(a(r, k)) * scale * std::conj(chirp[k]);
    }
  }
  ctx.charge_cpu(b * len);
}

template <typename Exec>
void dft_batch_rec(const DftCtx<Exec>& ctx, MatrixView<Complex> batch) {
  const std::size_t len = batch.cols;
  const std::size_t b = batch.rows;
  if (len <= 1) return;
  if (len <= ctx.tile_dim()) {
    base_case(ctx, batch);
    return;
  }
  const std::size_t n1 = choose_factor(len, ctx.tile_dim());
  if (n1 == 0) {
    bluestein(ctx, batch);
    return;
  }
  const std::size_t n2 = len / n1;

  // `next` outlives this frame: the read-out tasks below (and the
  // recursion's) may run after we return, so the buffer lives in the
  // arena until the enclosing strict join.
  auto owned = std::make_shared<Matrix<Complex>>(b * n1, n2, Complex{});
  ctx.keep->push_back(owned);
  MatrixView<Complex> next = owned->view();
  ct_level(ctx, batch, n1, next);
  dft_batch_rec(ctx, next);

  // Column-major read-out, y[k1 + n1*k2] = next(r*n1 + k1, k2), as CPU
  // tasks after the recursion's last stage: batch rows are written
  // disjointly and no tensor call is issued (a cpu task leaves the lane's
  // prediction mirror alone).
  Exec& exec = *ctx.exec;
  const std::size_t chunks = std::max<std::size_t>(1, std::min(exec.size(), b));
  std::vector<TaskTicket> tickets;
  std::size_t r0 = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t nr = b / chunks + (c < b % chunks);
    tickets.push_back(exec.submit(
        {.cost = static_cast<std::uint64_t>(nr) * len,
         .after = *ctx.stage,
         .cpu = true},
        [batch, next, r0, nr, n1, n2, len](Device<Complex>& unit) {
          for (std::size_t r = r0; r < r0 + nr; ++r) {
            for (std::size_t k1 = 0; k1 < n1; ++k1) {
              for (std::size_t k2 = 0; k2 < n2; ++k2) {
                batch(r, k1 + n1 * k2) = next(r * n1 + k1, k2);
              }
            }
          }
          unit.charge_cpu(nr * len);
        }));
    r0 += nr;
  }
  *ctx.stage = std::move(tickets);
}

}  // namespace

Matrix<Complex> fourier_matrix(std::size_t n, bool inverse) {
  Matrix<Complex> w(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      w(r, c) = unit_root(static_cast<double>((r * c) % n),
                          static_cast<double>(n), inverse);
    }
  }
  return w;
}

CVec dft_naive(const CVec& x, Counters& counters, bool inverse) {
  const std::size_t n = x.size();
  CVec y(n, Complex{});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      y[k] += x[j] * unit_root(static_cast<double>((j * k) % n),
                               static_cast<double>(n), inverse);
    }
  }
  if (inverse) {
    for (auto& v : y) v /= static_cast<double>(n);
  }
  counters.charge_cpu(n * n + (inverse ? n : 0));
  return y;
}

CVec fft_ram(const CVec& x, Counters& counters, bool inverse) {
  const std::size_t n = x.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("fft_ram: length must be a power of two");
  }
  CVec a = x;
  std::uint64_t ops = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
    ++ops;
  }
  for (std::size_t half = 1; half < n; half *= 2) {
    const Complex step =
        unit_root(1.0, static_cast<double>(2 * half), inverse);
    for (std::size_t start = 0; start < n; start += 2 * half) {
      Complex w{1.0, 0.0};
      for (std::size_t off = 0; off < half; ++off) {
        const Complex even = a[start + off];
        const Complex odd = a[start + off + half] * w;
        a[start + off] = even + odd;
        a[start + off + half] = even - odd;
        w *= step;
        // One complex multiply + two complex adds per butterfly, plus the
        // twiddle update — charged per complex-word operation, the same
        // granularity the TCU pipelines charge their glue at.
        ops += 4;
      }
    }
  }
  if (inverse) {
    for (auto& v : a) v /= static_cast<double>(n);
    ops += n;
  }
  counters.charge_cpu(ops);
  return a;
}

namespace {

template <typename Exec>
void dft_batch_with_ctx(const DftCtx<Exec>& ctx, MatrixView<Complex> batch) {
  if (ctx.tile_dim() < 2) {
    throw std::invalid_argument("dft_batch_tcu: needs m >= 4");
  }
  dft_batch_rec(ctx, batch);
}

template <typename Exec>
void idft_batch_with_ctx(const DftCtx<Exec>& ctx, MatrixView<Complex> batch) {
  const std::size_t mark = ctx.keep->size();
  const std::size_t b = batch.rows, len = batch.cols;
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      batch(r, j) = std::conj(batch(r, j));
    }
  }
  dft_batch_with_ctx(ctx, batch);
  ctx.sync(mark);  // the conjugate-and-scale below reads task-written rows
  const double scale = 1.0 / static_cast<double>(len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      batch(r, j) = std::conj(batch(r, j)) * scale;
    }
  }
  ctx.charge_cpu(2 * b * len);
}

template <typename Exec>
Matrix<Complex> dft2_with_ctx(const DftCtx<Exec>& ctx,
                              ConstMatrixView<Complex> x, bool inverse) {
  const std::size_t mark = ctx.keep->size();
  Matrix<Complex> rows = materialize(x);
  ctx.charge_cpu(x.rows * x.cols);
  if (inverse) {
    idft_batch_with_ctx(ctx, rows.view());
  } else {
    dft_batch_with_ctx(ctx, rows.view());
  }
  ctx.sync(mark);  // the transpose reads task-written rows
  Matrix<Complex> cols = transposed(rows.view().as_const());
  ctx.charge_cpu(x.rows * x.cols);
  if (inverse) {
    idft_batch_with_ctx(ctx, cols.view());
  } else {
    dft_batch_with_ctx(ctx, cols.view());
  }
  ctx.sync(mark);  // ditto, and `cols` is a local the tasks still reference
  Matrix<Complex> out = transposed(cols.view().as_const());
  ctx.charge_cpu(x.rows * x.cols);
  return out;
}

template <typename Exec>
CVec circular_convolve_with_ctx(const DftCtx<Exec>& ctx, const CVec& a,
                                const CVec& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("circular_convolve: length mismatch");
  }
  if (a.empty()) return {};
  const std::size_t mark = ctx.keep->size();
  const std::size_t n = a.size();
  Matrix<Complex> batch(2, n);
  for (std::size_t j = 0; j < n; ++j) {
    batch(0, j) = a[j];
    batch(1, j) = b[j];
  }
  dft_batch_with_ctx(ctx, batch.view());
  ctx.sync(mark);  // the pointwise product reads both transformed rows
  Matrix<Complex> prod(1, n);
  for (std::size_t j = 0; j < n; ++j) prod(0, j) = batch(0, j) * batch(1, j);
  ctx.charge_cpu(n);
  idft_batch_with_ctx(ctx, prod.view());
  CVec out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = prod(0, j);
  return out;
}

template <typename Exec>
Matrix<Complex> circular_convolve2_with_ctx(const DftCtx<Exec>& ctx,
                                            ConstMatrixView<Complex> a,
                                            ConstMatrixView<Complex> kernel) {
  if (a.rows != kernel.rows || a.cols != kernel.cols) {
    throw std::invalid_argument("circular_convolve2: shape mismatch");
  }
  Matrix<Complex> fa = dft2_with_ctx(ctx, a, false);
  Matrix<Complex> fk = dft2_with_ctx(ctx, kernel, false);
  for (std::size_t i = 0; i < fa.rows(); ++i) {
    for (std::size_t j = 0; j < fa.cols(); ++j) fa(i, j) *= fk(i, j);
  }
  ctx.charge_cpu(fa.rows() * fa.cols());
  return dft2_with_ctx(ctx, fa.view(), true);
}

}  // namespace

// The executor entry points. Every one but dft_batch_tcu returns past a
// sync() of its own, which has emptied the arena.

template <typename Exec>
void dft_batch_tcu(Exec& exec, MatrixView<Complex> batch,
                   const DftOptions& opts) {
  const DftCall call(exec, opts);
  dft_batch_with_ctx(call.ctx, batch);
  call.ctx.sync(0);  // public API boundary: the caller reads `batch` next
}

template <typename Exec>
void idft_batch_tcu(Exec& exec, MatrixView<Complex> batch,
                    const DftOptions& opts) {
  const DftCall call(exec, opts);
  idft_batch_with_ctx(call.ctx, batch);
}

template <typename Exec>
Matrix<Complex> dft2_tcu(Exec& exec, ConstMatrixView<Complex> x, bool inverse,
                         const DftOptions& opts) {
  const DftCall call(exec, opts);
  return dft2_with_ctx(call.ctx, x, inverse);
}

template <typename Exec>
CVec circular_convolve_tcu(Exec& exec, const CVec& a, const CVec& b,
                           const DftOptions& opts) {
  const DftCall call(exec, opts);
  return circular_convolve_with_ctx(call.ctx, a, b);
}

template <typename Exec>
Matrix<Complex> circular_convolve2_tcu(Exec& exec, ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts) {
  const DftCall call(exec, opts);
  return circular_convolve2_with_ctx(call.ctx, a, kernel);
}

#define TCU_DFT_ENTRY_POINTS(Exec)                                          \
  template void dft_batch_tcu(Exec&, MatrixView<Complex>,                   \
                              const DftOptions&);                           \
  template void idft_batch_tcu(Exec&, MatrixView<Complex>,                  \
                               const DftOptions&);                          \
  template Matrix<Complex> dft2_tcu(Exec&, ConstMatrixView<Complex>, bool,  \
                                    const DftOptions&);                     \
  template CVec circular_convolve_tcu(Exec&, const CVec&, const CVec&,      \
                                      const DftOptions&);                   \
  template Matrix<Complex> circular_convolve2_tcu(                          \
      Exec&, ConstMatrixView<Complex>, ConstMatrixView<Complex>,            \
      const DftOptions&);
TCU_DFT_ENTRY_POINTS(PoolExecutor<Complex>)
TCU_DFT_ENTRY_POINTS(InlineExecutor<Complex>)
#undef TCU_DFT_ENTRY_POINTS

// The Device& entry points: the executor schedule on an InlineExecutor.

void dft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                   const DftOptions& opts) {
  InlineExecutor<Complex> exec(dev);
  dft_batch_tcu(exec, batch, opts);
}

void idft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                    const DftOptions& opts) {
  InlineExecutor<Complex> exec(dev);
  idft_batch_tcu(exec, batch, opts);
}

Matrix<Complex> dft2_tcu(CplxDevice& dev, ConstMatrixView<Complex> x,
                         bool inverse, const DftOptions& opts) {
  InlineExecutor<Complex> exec(dev);
  return dft2_tcu(exec, x, inverse, opts);
}

CVec circular_convolve_tcu(CplxDevice& dev, const CVec& a, const CVec& b,
                           const DftOptions& opts) {
  InlineExecutor<Complex> exec(dev);
  return circular_convolve_tcu(exec, a, b, opts);
}

Matrix<Complex> circular_convolve2_tcu(CplxDevice& dev,
                                       ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts) {
  InlineExecutor<Complex> exec(dev);
  return circular_convolve2_tcu(exec, a, kernel, opts);
}

CVec dft_tcu(CplxDevice& dev, const CVec& x, bool inverse) {
  if (x.empty()) return {};
  Matrix<Complex> batch(1, x.size());
  for (std::size_t j = 0; j < x.size(); ++j) batch(0, j) = x[j];
  if (inverse) {
    idft_batch_tcu(dev, batch.view());
  } else {
    dft_batch_tcu(dev, batch.view());
  }
  dev.charge_cpu(2 * x.size());
  CVec y(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) y[j] = batch(0, j);
  return y;
}

}  // namespace tcu::dft
