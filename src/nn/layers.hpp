#pragma once
// Neural-network inference layers on the (m, l)-TCU model.
//
// The paper's opening motivation: tensor units exist because dense layers
// and convolutions *are* matrix products, with the weight matrix resident
// (model) and activations streamed (§3, asymmetry property: "the same
// model can be applied to k vectors"). This module expresses those native
// workloads against the simulated device, closing the loop between the
// model's design rationale and its algorithmics:
//
//   * `DenseLayer` — y = x W + b for a batch of inputs: the weight tiles
//     stay resident while the whole batch streams through (one tall call
//     per weight tile, exactly the TPU workflow of §2.1);
//   * `conv2d_tcu` — convolutional layer via im2col + tall GEMM, the
//     standard lowering that TPUs/TCs execute;
//   * ReLU and bias epilogues charged as CPU work.

#include <cstdint>
#include <vector>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/parallel.hpp"

namespace tcu::nn {

/// Fully connected layer: weights (in x out), bias (out).
class DenseLayer {
 public:
  DenseLayer(Matrix<double> weights, std::vector<double> bias);

  std::size_t in_features() const { return weights_.rows(); }
  std::size_t out_features() const { return weights_.cols(); }

  /// y = activations x W + b for a (batch x in) input, streamed through
  /// the device weight-stationarily; optional ReLU epilogue. Runs the
  /// row-major `submit_forward` on an InlineExecutor over `dev`.
  Matrix<double> forward(Device<double>& dev,
                         ConstMatrixView<double> activations,
                         bool relu = true) const;

  /// The forward as tasks on either executor (PoolExecutor or
  /// InlineExecutor): one task per output strip, which runs the strip's
  /// chain of weight products and then bias/ReLU on the strip it just
  /// wrote, while the strip is still hot on its lane. Every strip declares
  /// its full weight-tile chain, so repeated forwards skip the re-load
  /// latency of every tile still resident on its lane, and its cost
  /// covers the epilogue's CPU work, charged to the unit that runs it:
  /// rows x cols of `out` in all, twice that with ReLU. Every strip waits
  /// for all of `after` (the tasks that write `activations`); the strips'
  /// tickets are returned for the next layer. No strict join: `out` is
  /// entirely task-written and must only be read (and `activations`/`out`
  /// only freed) after the caller's join(). Outputs do not depend on the
  /// lane count. Strips are always dealt with affinity, keyed on the
  /// row-major weights' storage. Any shapes: ragged strips are padded in
  /// worker scratch.
  template <typename Exec>
  std::vector<TaskTicket> submit_forward(
      Exec& exec, ConstMatrixView<double> activations,
      MatrixView<double> out, bool relu,
      const std::vector<TaskTicket>& after) const;

  /// The weights packed tile-major for tile dimension `s` (sqrt of the
  /// device's m), built lazily on first use and cached — packed tile
  /// addresses are stable across forwards, and the resident keys stay the
  /// row-major weight addresses either way, so residency identity is
  /// path-invariant. Call from the submit thread only (same discipline as
  /// forward itself).
  const TiledMatrix<double>& tiled_weights(std::size_t s) const;

  /// True when every forward dimension is tile-aligned for `s`, i.e. the
  /// tile-major paths charge exactly what the row-major fast path does
  /// (the ragged scratch path keeps its own accounting).
  bool tile_aligned(std::size_t s, std::size_t batch_rows) const {
    return batch_rows % s == 0 && weights_.rows() % s == 0 &&
           weights_.cols() % s == 0;
  }

 private:
  friend class Mlp;

  /// The same tasks, costs, tickets and charges on tile-aligned shapes,
  /// with a strip-major product: strip jt streams the activations' column
  /// strips past the cached tile-major weights into `product`'s tile
  /// column jt, one contiguous panel, then applies bias/ReLU there in
  /// place, or writes the result to the row-major `out` when it is
  /// non-empty (an Mlp's last layer). Column strip kt of the activations
  /// is `first` moved on by kt * step elements: step s reads a row-major
  /// batch in place, step rows x s the strip-major product of the layer
  /// before. Everything read or written must stay alive until the
  /// caller's join().
  template <typename Exec>
  std::vector<TaskTicket> submit_forward(
      Exec& exec, ConstMatrixView<double> first, std::size_t step,
      TiledMatrix<double>& product, MatrixView<double> out, bool relu,
      const std::vector<TaskTicket>& after) const;

  /// One task per output strip jb (columns [jb, jb + s)) of a forward of
  /// `rows` rows: `product(unit, jb, keys)` runs the strip's chain of
  /// weight products, `keys` one resident key per weight tile, and
  /// returns the strip it wrote and where bias/ReLU write it.
  template <typename Exec, typename Product>
  std::vector<TaskTicket> submit_strips(Exec& exec, std::size_t rows,
                                        bool relu,
                                        const std::vector<TaskTicket>& after,
                                        Product product) const;

  Matrix<double> weights_;
  std::vector<double> bias_;
  mutable TiledMatrix<double> packed_;  ///< tile-major weights cache
};

/// A sequential multilayer perceptron.
class Mlp {
 public:
  void add_layer(DenseLayer layer);
  std::size_t depth() const { return layers_.size(); }

  /// Forward pass of a batch; ReLU between layers, linear final layer.
  /// Runs the executor forward below on an InlineExecutor over `dev`.
  Matrix<double> forward(Device<double>& dev,
                         ConstMatrixView<double> batch) const;

  /// Forward pass on either executor. Across a multi-unit pool's
  /// persistent executor layers stay sequential, and each layer's weight
  /// product parallelizes over output strips. An inference server keeps
  /// one executor alive across requests and pays thread startup never and
  /// weight-tile load latency only on first touch — with enough
  /// `resident_tiles` capacity, every layer's whole chain of weight tiles
  /// stays resident on its lane across requests (every layer deals its
  /// strips with affinity; see DenseLayer::submit_forward).
  ///
  /// The layers run as one dependency-ordered round: each layer's strip
  /// tasks (products, then bias/ReLU) depend on all of the previous
  /// layer's strips, and one strict join closes the pass. Outputs are
  /// bit-identical at every lane count; the epilogue CPU is charged to the
  /// unit that ran the strip.
  ///
  /// When every shape is tile-aligned, the first layer reads the caller's
  /// batch in place, and later layers alternate between two strip-major
  /// activation buffers, so every tall call after the first layer's
  /// reads contiguous panels and every one writes them; the last layer's
  /// strips write the row-major result. Ragged shapes keep row-major
  /// activations, starting from a copy of the batch (charged as shared
  /// CPU work). A batch whose width is not the first layer's
  /// in_features() throws std::invalid_argument before any task runs.
  template <typename Exec>
  Matrix<double> forward(Exec& exec, ConstMatrixView<double> batch) const;

 private:
  std::vector<DenseLayer> layers_;
};

/// 2-D convolution (valid padding, stride 1) of `channels_in` feature
/// maps with `channels_out` filters of size kh x kw, via im2col + GEMM.
/// input:  (channels_in) matrices of h x w stacked vertically
///         ((channels_in * h) x w);
/// filters: (channels_out) x (channels_in * kh * kw) row-major bank;
/// output: (channels_out * oh) x ow with oh = h-kh+1, ow = w-kw+1.
///
/// The filter bank is the resident weight: its tiles carry identity keys
/// derived from the `filters` storage (stable across calls even though
/// the im2col bank repack is rebuilt per call), so the bank's load
/// latency is charged once per tile while it stays resident — in the
/// weak model the square calls of one tall stream share their tile's
/// load, and repeated layers against the same filters hit across calls.
/// The im2col matrix and bank are laid out tile-aligned (zero padding,
/// charged as CPU work). Runs `conv2d_tcu_pool`'s schedule on an
/// InlineExecutor over `dev`.
Matrix<double> conv2d_tcu(Device<double>& dev, ConstMatrixView<double> input,
                          std::size_t channels_in,
                          ConstMatrixView<double> filters, std::size_t kh,
                          std::size_t kw);

/// Convolution on either executor; over a pool's persistent executor the
/// im2col rows are split into up to p tile-aligned row blocks, and each
/// block's output strips are dealt across the pool's lanes
/// (`matmul_tcu_pool_strips`, one join for the whole product), each strip
/// declaring the filter-bank tile chain of its output strip, so strips
/// land on the lane already holding their tiles and each bank tile's load
/// is paid once per lane while resident. Outputs are bit-identical to
/// `conv2d_tcu` at every unit count (row blocks preserve every FP
/// accumulation order); aggregate counters match modulo the documented
/// chunked-call latency split — `latency_time + latency_saved -
/// serial.latency_time == (calls - serial.tensor_calls) * l`, with a
/// 1-unit pool matching serial in every field. Of `opts`, `tile_key` is
/// replaced by the filters-storage key. `{.affinity = true, .split_chains
/// = true}` on a bank deeper than one tile instead deals one task per
/// (bank tile, output strip) with a CPU combine, serving banks deeper
/// than the tile cache (see PoolMatmulOptions); on a one-tile bank it
/// keeps the row blocks. `{.affinity = false}` is the untagged baseline.
template <typename Exec>
Matrix<double> conv2d_tcu_pool(Exec& exec, ConstMatrixView<double> input,
                               std::size_t channels_in,
                               ConstMatrixView<double> filters,
                               std::size_t kh, std::size_t kw,
                               const linalg::PoolMatmulOptions& opts = {
                                   .affinity = true});

/// RAM reference for conv2d (direct sliding window), charged.
Matrix<double> conv2d_ram(ConstMatrixView<double> input,
                          std::size_t channels_in,
                          ConstMatrixView<double> filters, std::size_t kh,
                          std::size_t kw, Counters& counters);

}  // namespace tcu::nn
