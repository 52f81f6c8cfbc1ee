#include "nn/layers.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "linalg/parallel.hpp"

namespace tcu::nn {

namespace {

/// Bias + optional ReLU epilogue from `src` into `dst` (same shape; they
/// may alias), `bias` indexed by dst's columns; the caller charges the CPU
/// work.
void epilogue(ConstMatrixView<double> src, MatrixView<double> dst,
              const double* bias, bool relu) {
  for (std::size_t i = 0; i < dst.rows; ++i) {
    for (std::size_t j = 0; j < dst.cols; ++j) {
      double v = src(i, j) + bias[j];
      if (relu && v < 0.0) v = 0.0;
      dst(i, j) = v;
    }
  }
}

}  // namespace

DenseLayer::DenseLayer(Matrix<double> weights, std::vector<double> bias)
    : weights_(std::move(weights)), bias_(std::move(bias)) {
  if (bias_.size() != weights_.cols()) {
    throw std::invalid_argument("DenseLayer: bias size must match outputs");
  }
}

const TiledMatrix<double>& DenseLayer::tiled_weights(std::size_t s) const {
  // One-time layout preprocessing per tile dimension (the tile dim is a
  // device property, unknown at construction); not charged as model CPU
  // work, like the weights' own initialization. Rebuilt only if the same
  // layer later serves a device with a different m.
  if (packed_.tile_dim() != s || packed_.empty()) {
    packed_ = TiledMatrix<double>::pack(weights_.view(), s);
  }
  return packed_;
}

Matrix<double> DenseLayer::forward(Device<double>& dev,
                                   ConstMatrixView<double> activations,
                                   bool relu) const {
  Matrix<double> out(activations.rows, weights_.cols(), 0.0);
  InlineExecutor<double> exec(dev);
  submit_forward(exec, activations, out.view(), relu, {});
  return out;
}

template <typename Exec, typename Product>
std::vector<TaskTicket> DenseLayer::submit_strips(
    Exec& exec, std::size_t rows, bool relu,
    const std::vector<TaskTicket>& after, Product product) const {
  const Device<double>& unit0 = exec.unit0();
  const std::size_t s = unit0.tile_dim();
  const std::size_t in = in_features(), width = out_features();
  const std::uint64_t chain_cost =
      ((in + s - 1) / s) *
      linalg::detail::strip_tile_cost(unit0, rows, /*affinity=*/true);
  std::vector<TaskTicket> tickets;
  tickets.reserve((width + s - 1) / s);
  for (std::size_t jb = 0; jb < width; jb += s) {
    // Resident keys are the row-major weights' addresses on every path,
    // so hits survive path changes.
    std::vector<std::uint64_t> chain =
        linalg::detail::strip_chain(weights_.view(), jb, s, {});
    const std::uint64_t cpu = static_cast<std::uint64_t>(rows) *
                              std::min(s, width - jb) * (relu ? 2 : 1);
    auto task = [product, jb, keys = chain, b = bias_.data() + jb, relu,
                 cpu](Device<double>& unit) {
      const auto [src, dst] = product(unit, jb, keys);
      epilogue(src, dst, b, relu);
      unit.charge_cpu(cpu);
    };
    tickets.push_back(exec.submit({.cost = chain_cost + cpu,
                                   .chain = std::move(chain),
                                   .after = after},
                                  std::move(task)));
  }
  return tickets;
}

template <typename Exec>
std::vector<TaskTicket> DenseLayer::submit_forward(
    Exec& exec, ConstMatrixView<double> activations,
    MatrixView<double> out, bool relu,
    const std::vector<TaskTicket>& after) const {
  if (activations.cols != weights_.rows()) {
    throw std::invalid_argument("DenseLayer: activation width mismatch");
  }
  if (out.rows != activations.rows || out.cols != weights_.cols()) {
    throw std::invalid_argument("DenseLayer: output shape mismatch");
  }
  return submit_strips(
      exec, activations.rows, relu, after,
      [a = activations, w = weights_.view(), out](
          Device<double>& unit, std::size_t jb,
          const std::vector<std::uint64_t>& keys) {
        linalg::detail::strip_product(unit, a, w, out, jb, keys);
        const MatrixView<double> strip = out.subview(
            0, jb, out.rows, std::min(unit.tile_dim(), out.cols - jb));
        return std::pair{strip.as_const(), strip};
      });
}

template <typename Exec>
std::vector<TaskTicket> DenseLayer::submit_forward(
    Exec& exec, ConstMatrixView<double> first, std::size_t step,
    TiledMatrix<double>& product, MatrixView<double> out, bool relu,
    const std::vector<TaskTicket>& after) const {
  const std::size_t s = exec.unit0().tile_dim();
  const TiledMatrix<double>* w = &tiled_weights(s);
  TiledMatrix<double>* c = &product;
  return submit_strips(
      exec, product.rows(), relu, after,
      [first, step, w, c, out, s](Device<double>& unit, std::size_t jb,
                                  const std::vector<std::uint64_t>& keys) {
        const std::size_t jt = jb / s;
        const MatrixView<double> strip = c->strip_view(jt);
        for (std::size_t kt = 0; kt < keys.size(); ++kt) {
          unit.gemm_resident(keys[kt],
                             ConstMatrixView<double>(first.data + kt * step,
                                                     first.rows, s,
                                                     first.stride),
                             w->tile_view(kt, jt), strip,
                             /*accumulate=*/kt != 0);
        }
        return std::pair{strip.as_const(), out.data != nullptr
                                               ? out.subview(0, jb, out.rows, s)
                                               : strip};
      });
}

void Mlp::add_layer(DenseLayer layer) {
  if (!layers_.empty() &&
      layers_.back().out_features() != layer.in_features()) {
    throw std::invalid_argument("Mlp: layer width mismatch");
  }
  layers_.push_back(std::move(layer));
}

Matrix<double> Mlp::forward(Device<double>& dev,
                            ConstMatrixView<double> batch) const {
  InlineExecutor<double> exec(dev);
  return forward(exec, batch);
}

template <typename Exec>
Matrix<double> Mlp::forward(Exec& exec, ConstMatrixView<double> batch) const {
  if (layers_.empty()) throw std::invalid_argument("Mlp: no layers");
  // The aligned path reads the batch in place, so its width is checked
  // here, before any task could read past it.
  if (batch.cols != layers_.front().in_features()) {
    throw std::invalid_argument("Mlp: batch width mismatch");
  }
  // Every layer submits its strips after all of the previous layer's;
  // one strict join closes the whole pass. Activations outlive the
  // submitting loop iteration because in-flight tasks reference them
  // until the join.
  const std::size_t s = exec.unit0().tile_dim();
  if (!std::all_of(layers_.begin(), layers_.end(),
                   [&](const DenseLayer& layer) {
                     return layer.tile_aligned(s, batch.rows);
                   })) {
    // Ragged shapes: row-major activations, padded per strip in worker
    // scratch, one per layer (a deque: queued tasks keep their addresses).
    exec.charge_cpu(batch.rows * batch.cols);
    std::deque<Matrix<double>> acts;
    acts.push_back(materialize(batch));
    std::vector<TaskTicket> layer;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const bool relu = l + 1 < layers_.size();
      acts.emplace_back(batch.rows, layers_[l].out_features(), 0.0);
      layer = layers_[l].submit_forward(exec, acts[l].view(),
                                        acts.back().view(), relu, layer);
    }
    exec.join();
    return std::move(acts.back());
  }

  // Tile-aligned shapes: the first layer reads the batch in place, later
  // layers read strip-major activations, and every tall call writes a
  // contiguous panel. Two buffers alternate — layer l reads `cur` and
  // writes `spare`, and layer l + 1 writes into the buffer layer l read,
  // which is safe because each of its strips waits on every layer-l
  // strip. A buffer of another width is a new one in `store` (a deque:
  // queued tasks keep their addresses). The last layer's strips write the
  // row-major result, allocated only then.
  std::deque<TiledMatrix<double>> store;
  TiledMatrix<double>* cur = nullptr;  // null: the batch itself
  TiledMatrix<double>* spare = nullptr;
  Matrix<double> out;
  std::vector<TaskTicket> layer;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool last = l + 1 == layers_.size();
    const std::size_t width = layers_[l].out_features();
    if (spare == nullptr || spare->cols() != width) {
      spare = &store.emplace_back(batch.rows, width, s);
    }
    if (last) out = Matrix<double>(batch.rows, width);
    const ConstMatrixView<double> first =
        cur == nullptr ? ConstMatrixView<double>(batch.data, batch.rows, s,
                                                 batch.stride)
                       : std::as_const(*cur).strip_view(0);
    const std::size_t step = cur == nullptr ? s : batch.rows * s;
    layer = layers_[l].submit_forward(exec, first, step, *spare,
                                      last ? out.view() : MatrixView<double>{},
                                      /*relu=*/!last, layer);
    std::swap(cur, spare);
  }
  exec.join();
  return out;
}

namespace {

void check_conv_shapes(ConstMatrixView<double> input, std::size_t channels,
                       ConstMatrixView<double> filters, std::size_t kh,
                       std::size_t kw) {
  if (channels == 0 || input.rows % channels != 0) {
    throw std::invalid_argument("conv2d: input rows not divisible by "
                                "channel count");
  }
  const std::size_t h = input.rows / channels;
  if (filters.cols != channels * kh * kw) {
    throw std::invalid_argument("conv2d: filter bank width mismatch");
  }
  if (kh == 0 || kw == 0 || kh > h || kw > input.cols) {
    throw std::invalid_argument("conv2d: kernel larger than input");
  }
}

/// The im2col lowering, laid out tile-aligned: `cols` (output positions x
/// filter taps) and `bank` (taps x output channels) are zero-padded up to
/// multiples of sqrt(m), so the GEMM below is one aligned Theorem 2
/// schedule on every path (the padding contributes exact zeros and only
/// lower-order CPU work, charged by the caller via `cpu_ops`).
struct ConvLowering {
  std::size_t h = 0, w = 0, oh = 0, ow = 0, patch = 0, channels_out = 0;
  std::size_t rows_p = 0, patch_p = 0, cout_p = 0;  // tile-aligned shape
  Matrix<double> cols, bank;
  std::uint64_t cpu_ops = 0;  ///< lowering cost, charged by the caller
};

ConvLowering lower_conv(std::size_t s, ConstMatrixView<double> input,
                        std::size_t channels_in,
                        ConstMatrixView<double> filters, std::size_t kh,
                        std::size_t kw) {
  check_conv_shapes(input, channels_in, filters, kh, kw);
  ConvLowering lo;
  lo.h = input.rows / channels_in;
  lo.w = input.cols;
  lo.oh = lo.h - kh + 1;
  lo.ow = lo.w - kw + 1;
  lo.patch = channels_in * kh * kw;
  lo.channels_out = filters.rows;
  auto pad = [s](std::size_t n) { return ((n + s - 1) / s) * s; };
  lo.rows_p = pad(lo.oh * lo.ow);
  lo.patch_p = pad(lo.patch);
  lo.cout_p = pad(lo.channels_out);

  // im2col: one row per output position, one column per filter tap.
  lo.cols = Matrix<double>(lo.rows_p, lo.patch_p, 0.0);
  for (std::size_t oy = 0; oy < lo.oh; ++oy) {
    for (std::size_t ox = 0; ox < lo.ow; ++ox) {
      std::size_t t = 0;
      for (std::size_t c = 0; c < channels_in; ++c) {
        for (std::size_t dy = 0; dy < kh; ++dy) {
          for (std::size_t dx = 0; dx < kw; ++dx) {
            lo.cols(oy * lo.ow + ox, t++) = input(c * lo.h + oy + dy, ox + dx);
          }
        }
      }
    }
  }
  lo.bank = Matrix<double>(lo.patch_p, lo.cout_p, 0.0);
  for (std::size_t c = 0; c < lo.channels_out; ++c) {
    for (std::size_t t = 0; t < lo.patch; ++t) lo.bank(t, c) = filters(c, t);
  }
  lo.cpu_ops = static_cast<std::uint64_t>(lo.rows_p) * lo.patch_p +
               static_cast<std::uint64_t>(lo.patch_p) * lo.cout_p;
  return lo;
}

/// Identity of the bank tile at origin (kb, jb), keyed on the caller's
/// `filters` storage — not on the per-call bank repack — so residency
/// survives across conv2d calls against the same filters. Tile origins
/// are clamped into the real bank region by construction (every aligned
/// tile origin satisfies kb < patch, jb < channels_out), and bank(t, c)
/// mirrors filters(c, t), so the keyed element is &filters(jb, kb).
linalg::TileKeyFn conv_bank_key(ConstMatrixView<double> filters) {
  return [filters](std::size_t kb, std::size_t jb) -> std::uint64_t {
    return static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(&filters(jb, kb)));
  };
}

/// Fold the aligned GEMM result back to (channels_out * oh) x ow.
Matrix<double> conv_relayout(const ConvLowering& lo,
                             const Matrix<double>& gem) {
  Matrix<double> out(lo.channels_out * lo.oh, lo.ow);
  for (std::size_t c = 0; c < lo.channels_out; ++c) {
    for (std::size_t oy = 0; oy < lo.oh; ++oy) {
      for (std::size_t ox = 0; ox < lo.ow; ++ox) {
        out(c * lo.oh + oy, ox) = gem(oy * lo.ow + ox, c);
      }
    }
  }
  return out;
}

}  // namespace

Matrix<double> conv2d_tcu(Device<double>& dev, ConstMatrixView<double> input,
                          std::size_t channels_in,
                          ConstMatrixView<double> filters, std::size_t kh,
                          std::size_t kw) {
  InlineExecutor<double> exec(dev);
  return conv2d_tcu_pool(exec, input, channels_in, filters, kh, kw);
}

template <typename Exec>
Matrix<double> conv2d_tcu_pool(Exec& exec, ConstMatrixView<double> input,
                               std::size_t channels_in,
                               ConstMatrixView<double> filters,
                               std::size_t kh, std::size_t kw,
                               const linalg::PoolMatmulOptions& opts) {
  const std::size_t s = exec.unit0().tile_dim();
  ConvLowering lo = lower_conv(s, input, channels_in, filters, kh, kw);
  exec.charge_cpu(lo.cpu_ops);

  Matrix<double> gem(lo.rows_p, lo.cout_p, 0.0);

  // Bank tiles are keyed on the caller's filters storage in every mode.
  // split_chains on a bank deeper than one tile fans it out as (tile,
  // strip) tasks with a CPU combine. Otherwise the im2col rows are split
  // into up to p tile-aligned blocks (the DFT levels' schedule), each
  // re-running every strip's chain, so the product parallelizes even
  // with fewer output strips than units and every FP accumulation order
  // is the serial one.
  linalg::PoolMatmulOptions gemm_opts = opts;
  gemm_opts.tile_key = conv_bank_key(filters);
  if (opts.affinity && opts.split_chains && lo.patch_p > s) {
    linalg::matmul_tcu_pool_into(exec, lo.cols.view(), lo.bank.view(),
                                 gem.view(), gemm_opts);
  } else {
    const std::size_t row_tiles = lo.rows_p / s;
    const std::size_t chunks = std::min(exec.size(), row_tiles);
    std::size_t r0 = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t nr =
          (row_tiles / chunks + (c < row_tiles % chunks)) * s;
      linalg::matmul_tcu_pool_strips(
          exec, lo.cols.subview(r0, 0, nr, lo.patch_p), lo.bank.view(),
          gem.subview(r0, 0, nr, lo.cout_p), gemm_opts);
      r0 += nr;
    }
    exec.join();
  }

  Matrix<double> out = conv_relayout(lo, gem);
  exec.charge_cpu(lo.channels_out * lo.oh * lo.ow);
  return out;
}

Matrix<double> conv2d_ram(ConstMatrixView<double> input,
                          std::size_t channels_in,
                          ConstMatrixView<double> filters, std::size_t kh,
                          std::size_t kw, Counters& counters) {
  check_conv_shapes(input, channels_in, filters, kh, kw);
  const std::size_t h = input.rows / channels_in;
  const std::size_t w = input.cols;
  const std::size_t oh = h - kh + 1;
  const std::size_t ow = w - kw + 1;
  const std::size_t channels_out = filters.rows;
  Matrix<double> out(channels_out * oh, ow, 0.0);
  std::uint64_t ops = 0;
  for (std::size_t c = 0; c < channels_out; ++c) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        std::size_t t = 0;
        for (std::size_t ci = 0; ci < channels_in; ++ci) {
          for (std::size_t dy = 0; dy < kh; ++dy) {
            for (std::size_t dx = 0; dx < kw; ++dx) {
              acc += filters(c, t++) * input(ci * h + oy + dy, ox + dx);
              ++ops;
            }
          }
        }
        out(c * oh + oy, ox) = acc;
      }
    }
  }
  counters.charge_cpu(ops);
  return out;
}

// Every entry point above runs on either executor: the pool deals its
// tasks across lanes, and the inline executor runs them on one device.
template std::vector<TaskTicket> DenseLayer::submit_forward(
    PoolExecutor<double>&, ConstMatrixView<double>, MatrixView<double>, bool,
    const std::vector<TaskTicket>&) const;
template std::vector<TaskTicket> DenseLayer::submit_forward(
    InlineExecutor<double>&, ConstMatrixView<double>, MatrixView<double>,
    bool, const std::vector<TaskTicket>&) const;
template Matrix<double> Mlp::forward(PoolExecutor<double>&,
                                     ConstMatrixView<double>) const;
template Matrix<double> Mlp::forward(InlineExecutor<double>&,
                                     ConstMatrixView<double>) const;
template Matrix<double> conv2d_tcu_pool(PoolExecutor<double>&,
                                        ConstMatrixView<double>, std::size_t,
                                        ConstMatrixView<double>, std::size_t,
                                        std::size_t,
                                        const linalg::PoolMatmulOptions&);
template Matrix<double> conv2d_tcu_pool(InlineExecutor<double>&,
                                        ConstMatrixView<double>, std::size_t,
                                        ConstMatrixView<double>, std::size_t,
                                        std::size_t,
                                        const linalg::PoolMatmulOptions&);

}  // namespace tcu::nn
