#include "dft/dft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "check/contract.hpp"
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

/// Execution context threading the Cooley-Tukey recursion through either
/// a single device or a PoolExecutor. The one tensor product per level is
/// a tall call whose rows are independent, so the pool path splits it
/// into up to `pool.size()` contiguous row chunks (boundaries on
/// multiples of sqrt(m), so charged rows and tensor_macs equal the serial
/// call's) dealt across the units. Each unit must load the level's
/// Fourier tile once, so a k-way split issues k tall calls where the
/// serial path issues one, paying (k - 1) * l extra load latency per
/// level — the classic parallelization overhead of the model, reported by
/// the pool benches. Every other counter field (rows, macs, cpu_ops, the
/// non-latency tensor time), and every output bit, match the serial path
/// exactly; a 1-unit pool degenerates to the serial schedule, and
/// weak-model units (which pay l per square call anyway) match in every
/// field including latency.
struct DftCtx {
  CplxDevice* dev = nullptr;
  PoolExecutor<Complex>* exec = nullptr;
  /// DftOptions::affinity: tag each level's Fourier tile with its
  /// symbolic content key (make_tile_key(kDftTileTag, n)), so repeated
  /// levels and transforms keep the tile resident. Off = the historical
  /// untagged accounting (the Theorem 7 contract pinned by the PR 2
  /// benches): the serial path pays l once per level — there is no
  /// needless reload *within* a call to fix — and the pool path re-pays l
  /// per extra chunk.
  bool affinity = false;
  /// Pool-path arena: heap owners of matrices that in-flight tasks still
  /// reference after the submitting stack frame returns (per-level
  /// Fourier tiles, per-recursion `next` buffers). Owned by the public
  /// entry point, released at each strict join. Null on the serial path.
  std::vector<std::shared_ptr<Matrix<Complex>>>* keep = nullptr;
  /// Pool-path ordering: the tickets of the last submitted stage (one
  /// level's chunks, a base case, or a read-out). Every task of the next
  /// stage lists all of them in `after`, so the stages run in submit order
  /// without idling the submit thread. Owned by the public entry point
  /// like `keep`; emptied by sync(), whose join already ordered them.
  std::vector<TaskTicket>* stage = nullptr;

  bool pooled() const { return exec != nullptr; }

  /// Strict join before a submit-thread read of task-written data
  /// (transposes, Bluestein glue, pointwise products) and at the public
  /// API boundary. No-op on the serial path, whose device calls complete
  /// before they return. Clears `stage`: submit rejects tickets issued
  /// before a join. The arena is NOT released here: enclosing
  /// recursion frames (a Bluestein sync runs deep inside the level stack)
  /// still hold views into it and submit read-out tasks against them
  /// after we return — only the public entry point, where the whole
  /// recursion has unwound, may drop `keep`.
  void sync() const {
    if (!pooled()) return;
    exec->join();
    stage->clear();
  }

  std::size_t tile_dim() const {
    return dev ? dev->tile_dim() : exec->pool().unit(0).tile_dim();
  }

  void charge_cpu(std::uint64_t ops) const {
    if (dev) {
      dev->charge_cpu(ops);
    } else {
      exec->pool().charge_cpu(ops);
    }
  }

  /// Serial-path C = A * B for a tall A and the level's tile B: tagged
  /// with `key` under affinity, untagged otherwise.
  void gemm(std::uint64_t key, ConstMatrixView<Complex> A,
            ConstMatrixView<Complex> B, MatrixView<Complex> C) const {
    if (affinity) {
      dev->gemm_resident(key, A, B, C);
      return;
    }
    // Theorem 7's historical accounting: one load per level, even if a
    // previous level's (or transform's) tile is still resident.
    check::AllowUntaggedClobber allow_clobber;
    // tcu-lint: untagged-ok(Theorem 7 pays l per level by contract)
    dev->gemm(A, B, C);
  }
};

/// The pool path's per-call state, owned by each public entry point: the
/// arena and the last stage's tickets that `ctx` points into.
struct PoolCall {
  std::vector<std::shared_ptr<Matrix<Complex>>> keep;
  std::vector<TaskTicket> stage;
  DftCtx ctx;

  PoolCall(PoolExecutor<Complex>& exec, const DftOptions& opts)
      : ctx{.exec = &exec,
            .affinity = opts.affinity,
            .keep = &keep,
            .stage = &stage} {}
  PoolCall(const PoolCall&) = delete;
  PoolCall& operator=(const PoolCall&) = delete;
};

void dft_batch_rec(const DftCtx& ctx, MatrixView<Complex> batch);

/// Serial path: all column DFTs of one Cooley-Tukey level for the whole
/// batch with a single tall tensor product: gather the (b*n2) x n1 matrix
/// of column vectors, multiply by W_{n1} zero-padded to the device tile,
/// scatter the results back twiddled, reshaped so each length-n2
/// subvector of the next level is a contiguous row.
void ct_level(const DftCtx& ctx, MatrixView<Complex> batch, std::size_t n1,
              MatrixView<Complex> next) {
  const std::size_t b = batch.rows;
  const std::size_t len = batch.cols;
  const std::size_t n2 = len / n1;
  const std::size_t s = ctx.tile_dim();

  // Zero-padded Fourier tile for the column transforms.
  Matrix<Complex> w_tile(s, s, Complex{});
  for (std::size_t r = 0; r < n1; ++r) {
    for (std::size_t c = 0; c < n1; ++c) {
      w_tile(r, c) = unit_root(static_cast<double>((r * c) % n1),
                               static_cast<double>(n1), false);
    }
  }
  ctx.charge_cpu(n1 * n1);

  // Gather: G[r*n2 + c][j1] = batch(r, j1*n2 + c) — the column vectors of
  // every row's n1 x n2 arrangement, stacked tall.
  Matrix<Complex> gathered(b * n2, s, Complex{});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < n2; ++c) {
      for (std::size_t j1 = 0; j1 < n1; ++j1) {
        gathered(r * n2 + c, j1) = batch(r, j1 * n2 + c);
      }
    }
  }
  ctx.charge_cpu(b * len);

  Matrix<Complex> transformed(b * n2, s, Complex{});
  // tcu-lint: untagged-ok(DftCtx dispatcher; tags per DftOptions::affinity)
  ctx.gemm(make_tile_key(kDftTileTag, n1), gathered.view(), w_tile.view(),
           transformed.view());

  // Twiddle + scatter into the next level's contiguous layout:
  // next(r*n1 + k1, j2) = transformed(r*n2 + j2, k1) * w_len^{k1*j2}.
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      for (std::size_t j2 = 0; j2 < n2; ++j2) {
        const Complex tw =
            unit_root(static_cast<double>((k1 * j2) % len),
                      static_cast<double>(len), false);
        next(r * n1 + k1, j2) = transformed(r * n2 + j2, k1) * tw;
      }
    }
  }
  ctx.charge_cpu(2 * b * len);
}

/// Pool-path ct_level: one fused task per chunk — gather its rows of the
/// level's tall matrix from `batch` into task-local scratch, one tall
/// tensor product, twiddle + scatter into `next` — with the gather and
/// twiddle CPU charged to the executing unit. Chunk boundaries are
/// multiples of sqrt(m) (min(pool, tiles) chunks), so rows, macs, the
/// aggregate cpu_ops, and every output bit match the serial ct_level; only
/// the call count and load latency grow with the split (see DftCtx). Rows
/// of the tall matrix touch pairwise-disjoint elements of `batch` and
/// `next`, so chunks race on nothing. Every chunk runs after the previous
/// stage, and the chunks' tickets become the stage the next one waits on.
void ct_level_pooled(const DftCtx& ctx, MatrixView<Complex> batch,
                     std::size_t n1, MatrixView<Complex> next) {
  const std::size_t b = batch.rows;
  const std::size_t len = batch.cols;
  const std::size_t n2 = len / n1;
  const std::size_t s = ctx.tile_dim();

  auto w_tile = std::make_shared<Matrix<Complex>>(s, s, Complex{});
  for (std::size_t r = 0; r < n1; ++r) {
    for (std::size_t c = 0; c < n1; ++c) {
      (*w_tile)(r, c) = unit_root(static_cast<double>((r * c) % n1),
                                  static_cast<double>(n1), false);
    }
  }
  // The tile is built once for every chunk: shared-CPU work by nature.
  ctx.charge_cpu(n1 * n1);
  ctx.keep->push_back(w_tile);

  PoolExecutor<Complex>& exec = *ctx.exec;
  const Device<Complex>& unit0 = exec.unit0();
  const std::size_t rows = b * n2;
  const std::size_t tiles = rows / s;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(exec.size(), tiles));
  const std::uint64_t key = make_tile_key(kDftTileTag, n1);
  const bool affinity = ctx.affinity;
  // With affinity every chunk's one tagged call reuses the level's tile;
  // without it the chunks declare no chain (untagged dealing).
  std::vector<std::uint64_t> chain;
  if (affinity) chain.push_back(key);
  std::vector<TaskTicket> tickets;
  std::size_t r0 = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t tile_cnt = tiles / chunks + (c < tiles % chunks);
    const std::size_t nr = (c + 1 == chunks) ? rows - r0 : tile_cnt * s;
    auto run_chunk = [batch, next, w_tile, r0, nr, n1, n2, len, s, key,
                      affinity](Device<Complex>& unit) {
      // Gather: tall-matrix row r0+i is column vector (r, c) with
      // r = (r0+i)/n2, c = (r0+i)%n2 of row r's n1 x n2 arrangement.
      Matrix<Complex> g(nr, s, Complex{});
      for (std::size_t i = 0; i < nr; ++i) {
        const std::size_t r = (r0 + i) / n2;
        const std::size_t cc = (r0 + i) % n2;
        for (std::size_t j1 = 0; j1 < n1; ++j1) {
          g(i, j1) = batch(r, j1 * n2 + cc);
        }
      }
      unit.charge_cpu(nr * n1);
      Matrix<Complex> t(nr, s, Complex{});
      if (affinity) {
        unit.gemm_resident(key, g.view().as_const(),
                           w_tile->view().as_const(), t.view());
      } else {
        // tcu-lint: untagged-ok(empty-chain chunk; the dealer dropped the lane mirror)
        unit.gemm(g.view().as_const(), w_tile->view().as_const(), t.view());
      }
      // Twiddle + scatter into the next level's contiguous layout.
      for (std::size_t i = 0; i < nr; ++i) {
        const std::size_t r = (r0 + i) / n2;
        const std::size_t j2 = (r0 + i) % n2;
        for (std::size_t k1 = 0; k1 < n1; ++k1) {
          const Complex tw =
              unit_root(static_cast<double>((k1 * j2) % len),
                        static_cast<double>(len), false);
          next(r * n1 + k1, j2) = t(i, k1) * tw;
        }
      }
      unit.charge_cpu(2 * nr * n1);
    };
    const std::uint64_t glue = 3ull * nr * n1;
    const std::uint64_t cost =
        tcu::linalg::detail::strip_tile_cost(unit0, nr, affinity) + glue;
    tickets.push_back(exec.submit(
        {.cost = cost, .chain = chain, .after = *ctx.stage},
        std::move(run_chunk)));
    r0 += nr;
  }
  *ctx.stage = std::move(tickets);
}

/// Bluestein chirp-z: DFT of prime length len > sqrt(m) via a circular
/// convolution of power-of-two size N >= 2*len - 1.
void bluestein(const DftCtx& ctx, MatrixView<Complex> batch) {
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
  // pool-path stages may still be writing it.
  ctx.sync();
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
  ctx.sync();  // the pointwise product reads both transforms
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < N; ++j) {
      a(r, j) = std::conj(a(r, j) * kernel(0, j));
    }
  }
  ctx.charge_cpu(2 * b * N);
  // Inverse DFT of size N via conjugation around the forward transform.
  dft_batch_rec(ctx, a.view());
  ctx.sync();  // the write-back below reads `a`, and `a` is a local
  const double scale = 1.0 / static_cast<double>(N);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t k = 0; k < len; ++k) {
      batch(r, k) = std::conj(a(r, k)) * scale * std::conj(chirp[k]);
    }
  }
  ctx.charge_cpu(b * len);
}

/// Pool-path base case (len <= sqrt(m)): fused pad + tall call +
/// write-back per chunk, same chunk boundaries as ct_level_pooled over the
/// b batch rows. Each chunk writes its own batch rows, after the previous
/// stage, and the chunks form the next stage.
void base_case_pooled(const DftCtx& ctx, MatrixView<Complex> batch) {
  const std::size_t len = batch.cols;
  const std::size_t b = batch.rows;
  const std::size_t s = ctx.tile_dim();

  auto w_tile = std::make_shared<Matrix<Complex>>(s, s, Complex{});
  for (std::size_t r = 0; r < len; ++r) {
    for (std::size_t c = 0; c < len; ++c) {
      (*w_tile)(r, c) = unit_root(static_cast<double>((r * c) % len),
                                  static_cast<double>(len), false);
    }
  }
  ctx.charge_cpu(len * len);
  ctx.keep->push_back(w_tile);

  PoolExecutor<Complex>& exec = *ctx.exec;
  const Device<Complex>& unit0 = exec.unit0();
  const std::size_t tiles = b / s;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(exec.size(), tiles));
  const std::uint64_t key = make_tile_key(kDftTileTag, len);
  const bool affinity = ctx.affinity;
  // With affinity every chunk's one tagged call reuses the level's tile;
  // without it the chunks declare no chain (untagged dealing).
  std::vector<std::uint64_t> chain;
  if (affinity) chain.push_back(key);
  std::vector<TaskTicket> tickets;
  std::size_t r0 = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t tile_cnt = tiles / chunks + (c < tiles % chunks);
    const std::size_t nr = (c + 1 == chunks) ? b - r0 : tile_cnt * s;
    auto run_chunk = [batch, w_tile, r0, nr, len, s, key,
                      affinity](Device<Complex>& unit) {
      Matrix<Complex> padded(nr, s, Complex{});
      for (std::size_t i = 0; i < nr; ++i) {
        for (std::size_t j = 0; j < len; ++j) {
          padded(i, j) = batch(r0 + i, j);
        }
      }
      unit.charge_cpu(nr * len);
      Matrix<Complex> out(nr, s, Complex{});
      if (affinity) {
        unit.gemm_resident(key, padded.view().as_const(),
                           w_tile->view().as_const(), out.view());
      } else {
        // tcu-lint: untagged-ok(empty-chain chunk; the dealer dropped the lane mirror)
        unit.gemm(padded.view().as_const(), w_tile->view().as_const(),
                  out.view());
      }
      for (std::size_t i = 0; i < nr; ++i) {
        for (std::size_t j = 0; j < len; ++j) {
          batch(r0 + i, j) = out(i, j);
        }
      }
      unit.charge_cpu(nr * len);
    };
    const std::uint64_t glue = 2ull * nr * len;
    const std::uint64_t cost =
        tcu::linalg::detail::strip_tile_cost(unit0, nr, affinity) + glue;
    tickets.push_back(exec.submit(
        {.cost = cost, .chain = chain, .after = *ctx.stage},
        std::move(run_chunk)));
    r0 += nr;
  }
  *ctx.stage = std::move(tickets);
}

void dft_batch_rec(const DftCtx& ctx, MatrixView<Complex> batch) {
  const std::size_t len = batch.cols;
  const std::size_t b = batch.rows;
  const std::size_t s = ctx.tile_dim();
  if (len <= 1) return;

  if (len <= s && ctx.pooled()) {
    base_case_pooled(ctx, batch);
    return;
  }
  if (len <= s) {
    // One tall call transforms the whole batch.
    Matrix<Complex> w_tile(s, s, Complex{});
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t c = 0; c < len; ++c) {
        w_tile(r, c) = unit_root(static_cast<double>((r * c) % len),
                                 static_cast<double>(len), false);
      }
    }
    Matrix<Complex> padded(b, s, Complex{});
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < len; ++j) padded(r, j) = batch(r, j);
    }
    Matrix<Complex> out(b, s, Complex{});
    // tcu-lint: untagged-ok(DftCtx dispatcher; tags per DftOptions::affinity)
    ctx.gemm(make_tile_key(kDftTileTag, len), padded.view(), w_tile.view(),
             out.view());
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < len; ++j) batch(r, j) = out(r, j);
    }
    ctx.charge_cpu(len * len + 2 * b * len);
    return;
  }

  const std::size_t n1 = choose_factor(len, s);
  if (n1 == 0) {
    bluestein(ctx, batch);
    return;
  }
  const std::size_t n2 = len / n1;

  if (ctx.pooled()) {
    // `next` outlives this frame: the read-out tasks below (and the
    // recursion's) run after we return, so the buffer lives in the arena
    // until the enclosing strict join.
    auto owned = std::make_shared<Matrix<Complex>>(b * n1, n2, Complex{});
    ctx.keep->push_back(owned);
    MatrixView<Complex> next = owned->view();
    ct_level_pooled(ctx, batch, n1, next);
    dft_batch_rec(ctx, next);

    // Column-major read-out as CPU tasks after the recursion's last
    // stage: batch rows are written disjointly and no tensor call is
    // issued (a cpu task leaves the lane's prediction mirror alone).
    PoolExecutor<Complex>& exec = *ctx.exec;
    const std::size_t chunks =
        std::max<std::size_t>(1, std::min(exec.size(), b));
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
    return;
  }

  Matrix<Complex> next(b * n1, n2, Complex{});
  ct_level(ctx, batch, n1, next.view());
  dft_batch_rec(ctx, next.view());

  // Column-major read-out: y[k1 + n1*k2] = next(r*n1 + k1, k2).
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      for (std::size_t k2 = 0; k2 < n2; ++k2) {
        batch(r, k1 + n1 * k2) = next(r * n1 + k1, k2);
      }
    }
  }
  ctx.charge_cpu(b * len);
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

void dft_batch_with_ctx(const DftCtx& ctx, MatrixView<Complex> batch) {
  if (ctx.tile_dim() < 2) {
    throw std::invalid_argument("dft_batch_tcu: needs m >= 4");
  }
  dft_batch_rec(ctx, batch);
}

void idft_batch_with_ctx(const DftCtx& ctx, MatrixView<Complex> batch) {
  const std::size_t b = batch.rows, len = batch.cols;
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      batch(r, j) = std::conj(batch(r, j));
    }
  }
  dft_batch_with_ctx(ctx, batch);
  ctx.sync();  // the conjugate-and-scale below reads task-written rows
  const double scale = 1.0 / static_cast<double>(len);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < len; ++j) {
      batch(r, j) = std::conj(batch(r, j)) * scale;
    }
  }
  ctx.charge_cpu(2 * b * len);
}

}  // namespace

void dft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                   const DftOptions& opts) {
  dft_batch_with_ctx(DftCtx{.dev = &dev, .affinity = opts.affinity}, batch);
}

void idft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                    const DftOptions& opts) {
  idft_batch_with_ctx(DftCtx{.dev = &dev, .affinity = opts.affinity}, batch);
}

void dft_batch_tcu(PoolExecutor<Complex>& exec, MatrixView<Complex> batch,
                   const DftOptions& opts) {
  const PoolCall call(exec, opts);
  dft_batch_with_ctx(call.ctx, batch);
  call.ctx.sync();  // public API boundary: the caller reads `batch` next
}

void idft_batch_tcu(PoolExecutor<Complex>& exec, MatrixView<Complex> batch,
                    const DftOptions& opts) {
  const PoolCall call(exec, opts);
  idft_batch_with_ctx(call.ctx, batch);
  call.ctx.sync();
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

namespace {

Matrix<Complex> dft2_with_ctx(const DftCtx& ctx, ConstMatrixView<Complex> x,
                              bool inverse) {
  Matrix<Complex> rows = materialize(x);
  ctx.charge_cpu(x.rows * x.cols);
  if (inverse) {
    idft_batch_with_ctx(ctx, rows.view());
  } else {
    dft_batch_with_ctx(ctx, rows.view());
  }
  ctx.sync();  // the transpose reads task-written rows
  Matrix<Complex> cols = transposed(rows.view().as_const());
  ctx.charge_cpu(x.rows * x.cols);
  if (inverse) {
    idft_batch_with_ctx(ctx, cols.view());
  } else {
    dft_batch_with_ctx(ctx, cols.view());
  }
  ctx.sync();  // ditto, and `cols` is a local the tasks still reference
  Matrix<Complex> out = transposed(cols.view().as_const());
  ctx.charge_cpu(x.rows * x.cols);
  return out;
}

CVec circular_convolve_with_ctx(const DftCtx& ctx, const CVec& a,
                                const CVec& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("circular_convolve: length mismatch");
  }
  if (a.empty()) return {};
  const std::size_t n = a.size();
  Matrix<Complex> batch(2, n);
  for (std::size_t j = 0; j < n; ++j) {
    batch(0, j) = a[j];
    batch(1, j) = b[j];
  }
  dft_batch_with_ctx(ctx, batch.view());
  ctx.sync();  // the pointwise product reads both transformed rows
  Matrix<Complex> prod(1, n);
  for (std::size_t j = 0; j < n; ++j) prod(0, j) = batch(0, j) * batch(1, j);
  ctx.charge_cpu(n);
  idft_batch_with_ctx(ctx, prod.view());
  CVec out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = prod(0, j);
  return out;
}

Matrix<Complex> circular_convolve2_with_ctx(const DftCtx& ctx,
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

Matrix<Complex> dft2_tcu(CplxDevice& dev, ConstMatrixView<Complex> x,
                         bool inverse, const DftOptions& opts) {
  return dft2_with_ctx(DftCtx{.dev = &dev, .affinity = opts.affinity}, x,
                       inverse);
}

Matrix<Complex> dft2_tcu(PoolExecutor<Complex>& exec,
                         ConstMatrixView<Complex> x, bool inverse,
                         const DftOptions& opts) {
  const PoolCall call(exec, opts);
  return dft2_with_ctx(call.ctx, x, inverse);  // drained: ends past a sync()
}

CVec circular_convolve_tcu(CplxDevice& dev, const CVec& a, const CVec& b,
                           const DftOptions& opts) {
  return circular_convolve_with_ctx(
      DftCtx{.dev = &dev, .affinity = opts.affinity}, a, b);
}

CVec circular_convolve_tcu(PoolExecutor<Complex>& exec, const CVec& a,
                           const CVec& b, const DftOptions& opts) {
  const PoolCall call(exec, opts);
  return circular_convolve_with_ctx(call.ctx, a, b);  // idft drains internally
}

Matrix<Complex> circular_convolve2_tcu(CplxDevice& dev,
                                       ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts) {
  return circular_convolve2_with_ctx(
      DftCtx{.dev = &dev, .affinity = opts.affinity}, a, kernel);
}

Matrix<Complex> circular_convolve2_tcu(PoolExecutor<Complex>& exec,
                                       ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts) {
  const PoolCall call(exec, opts);
  return circular_convolve2_with_ctx(call.ctx, a, kernel);  // dft2 drains
}

}  // namespace tcu::dft
