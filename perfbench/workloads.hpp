#pragma once
// The three pooled paper algorithms the benchmark times. Each workload
// owns inputs generated from the seed, runs one call either serially on a
// Device (the reference) or pooled on a PoolExecutor, and states the
// counter contract a pooled call must meet against the serial call.
//
//   mlp_infer   — Mlp::forward requests with weights resident across calls:
//                 kernel-bound, exercises the double kernel and residency.
//   closure_dag — closure_tcu on a sparse random digraph: int64 products in
//                 dependent in-place rounds, exercises the dep ledger.
//   gauss_elim  — ge_forward_tcu_pool on a diagonally dominant system: many
//                 small CPU-kernel tasks, exercises dealing and glue.

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/counters.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "linalg/gauss.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Problem sizes. `full` is what the benchmark times; `small` keeps the
/// same structure at sizes the benchmark's own tests run in seconds.
struct Shape {
  std::size_t m;             ///< tile area (sqrt(m) x sqrt(m) right operand)
  std::uint64_t latency;     ///< the model's load latency l
  std::size_t mlp_width;     ///< square dense layers, width x width
  std::size_t mlp_layers;
  std::size_t mlp_batch;
  std::size_t mlp_resident;  ///< tile-cache capacity: one lane's weight tiles
  std::size_t closure_n;     ///< vertices
  std::size_t gauss_r;       ///< augmented-matrix dimension
};

inline constexpr Shape kFullShape{4096, 256, 512, 3, 512, 64, 512, 1024};
inline constexpr Shape kSmallShape{256, 256, 64, 3, 64, 16, 96, 128};

/// Field-wise `after - before` (every field only grows during a call).
inline tcu::Counters counters_delta(const tcu::Counters& after,
                                    const tcu::Counters& before) {
  tcu::Counters d;
  d.tensor_calls = after.tensor_calls - before.tensor_calls;
  d.tensor_rows = after.tensor_rows - before.tensor_rows;
  d.tensor_time = after.tensor_time - before.tensor_time;
  d.tensor_macs = after.tensor_macs - before.tensor_macs;
  d.latency_time = after.latency_time - before.latency_time;
  d.resident_hits = after.resident_hits - before.resident_hits;
  d.latency_saved = after.latency_saved - before.latency_saved;
  d.evictions = after.evictions - before.evictions;
  d.tagged_calls = after.tagged_calls - before.tagged_calls;
  d.cpu_ops = after.cpu_ops - before.cpu_ops;
  d.systolic_cycles = after.systolic_cycles - before.systolic_cycles;
  return d;
}

/// The serial schedule's charges, reproduced exactly (evictions and the
/// residency split are compared separately where a workload promises them).
inline bool same_charges(const tcu::Counters& got, const tcu::Counters& ref) {
  return got.tensor_calls == ref.tensor_calls &&
         got.tensor_rows == ref.tensor_rows &&
         got.tensor_time == ref.tensor_time &&
         got.tensor_macs == ref.tensor_macs &&
         got.latency_time == ref.latency_time && got.cpu_ops == ref.cpu_ops;
}

template <typename T>
typename tcu::Device<T>::Config unit_config(const Shape& shape,
                                            std::size_t resident_tiles) {
  return {.m = shape.m,
          .latency = shape.latency,
          .allow_tall = true,
          .resident_tiles = resident_tiles,
          .name = "perfbench",
          .backend = tcu::BackendKind::kMicro};
}

/// Dense float64 inference: a stream of batch requests through one model.
/// The pool's tile caches hold each lane's share of the weight tiles, so
/// after the cold call every weight load is a resident hit.
class MlpWorkload {
 public:
  using T = double;
  static constexpr const char* kName = "mlp_infer";

  MlpWorkload(const Shape& shape, std::uint64_t seed) : shape_(shape) {
    tcu::util::Xoshiro256 rng(seed);
    const std::size_t w = shape.mlp_width;
    const double scale = 1.0 / std::sqrt(static_cast<double>(w));
    for (std::size_t l = 0; l < shape.mlp_layers; ++l) {
      tcu::Matrix<double> weights(w, w);
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          weights(i, j) = rng.uniform(-scale, scale);
        }
      }
      std::vector<double> bias(w);
      for (auto& b : bias) b = rng.uniform(-0.1, 0.1);
      weights_.push_back(std::move(weights));
      biases_.push_back(std::move(bias));
    }
    batch_ = tcu::Matrix<double>(shape.mlp_batch, w);
    for (std::size_t i = 0; i < shape.mlp_batch; ++i) {
      for (std::size_t j = 0; j < w; ++j) batch_(i, j) = rng.uniform(-1, 1);
    }
    reset_model();
  }

  std::string sizes() const {
    const std::string w = std::to_string(shape_.mlp_width);
    return "layers=" + std::to_string(shape_.mlp_layers) + "x" + w + "x" + w +
           " batch=" + std::to_string(shape_.mlp_batch) +
           " resident_tiles=" + std::to_string(shape_.mlp_resident);
  }

  tcu::Device<T>::Config pool_config() const {
    return unit_config<T>(shape_, shape_.mlp_resident);
  }
  // Capacity 1: every weight tile is loaded once per serial forward, the
  // baseline the pooled calls' latency split is conserved against.
  tcu::Device<T>::Config serial_config() const {
    return unit_config<T>(shape_, 1);
  }

  /// A fresh model whose tile-major weights are not packed yet, so the
  /// next call pays the lazy packing (part of set-up).
  void reset_model() {
    model_.emplace();
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      model_->add_layer(tcu::nn::DenseLayer(weights_[l], biases_[l]));
    }
  }

  void prepare() {}
  void run_serial(tcu::Device<T>& dev) {
    out_ = model_->forward(dev, batch_.view());
  }
  void run_pooled(tcu::PoolExecutor<T>& exec) {
    out_ = model_->forward(exec, batch_.view());
  }
  tcu::Matrix<T>& output() { return out_; }

  /// l-conservation: identical work, and every load the serial call paid
  /// is either paid or saved by a resident hit on the pool.
  static bool contract(const tcu::Counters& got, const tcu::Counters& ref) {
    return got.tensor_calls == ref.tensor_calls &&
           got.tensor_rows == ref.tensor_rows &&
           got.tensor_macs == ref.tensor_macs && got.cpu_ops == ref.cpu_ops &&
           got.tensor_time - got.latency_time ==
               ref.tensor_time - ref.latency_time &&
           got.latency_time + got.latency_saved ==
               ref.latency_time + ref.latency_saved;
  }

 private:
  Shape shape_;
  std::vector<tcu::Matrix<double>> weights_;
  std::vector<std::vector<double>> biases_;
  tcu::Matrix<double> batch_;
  std::optional<tcu::nn::Mlp> model_;
  tcu::Matrix<double> out_;
};

/// Transitive closure of a random digraph with average out-degree 4. Its
/// int64 products take the generic kernel path, not the double one.
class ClosureWorkload {
 public:
  using T = tcu::graph::Vert;
  static constexpr const char* kName = "closure_dag";

  ClosureWorkload(const Shape& shape, std::uint64_t seed)
      : shape_(shape),
        adjacency_(tcu::graph::random_digraph(
            shape.closure_n, 4.0 / static_cast<double>(shape.closure_n),
            seed)) {}

  std::string sizes() const {
    return "vertices=" + std::to_string(shape_.closure_n) + " out_degree=4";
  }

  tcu::Device<T>::Config pool_config() const {
    return unit_config<T>(shape_, 1);
  }
  tcu::Device<T>::Config serial_config() const {
    return unit_config<T>(shape_, 1);
  }

  void reset_model() {}
  /// The closure runs in place: restore the adjacency matrix.
  void prepare() { work_ = adjacency_; }
  void run_serial(tcu::Device<T>& dev) {
    tcu::graph::closure_tcu(dev, work_.view());
  }
  void run_pooled(tcu::PoolExecutor<T>& exec) {
    tcu::graph::closure_tcu(exec, work_.view());
  }
  tcu::Matrix<T>& output() { return work_; }

  static bool contract(const tcu::Counters& got, const tcu::Counters& ref) {
    return same_charges(got, ref);
  }

 private:
  Shape shape_;
  tcu::graph::AdjMatrix adjacency_;
  tcu::graph::AdjMatrix work_;
};

/// Forward Gaussian elimination of a diagonally dominant system embedded
/// in the Figure 2 augmented matrix. Its panel keys are call-local, so
/// residency never carries across calls.
class GaussWorkload {
 public:
  using T = double;
  static constexpr const char* kName = "gauss_elim";

  GaussWorkload(const Shape& shape, std::uint64_t seed) : shape_(shape) {
    tcu::util::Xoshiro256 rng(seed);
    const std::size_t d = shape.gauss_r - 1;
    tcu::Matrix<double> a(d, d);
    std::vector<double> b(d);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) a(i, j) = rng.uniform(-1, 1);
      a(i, i) += static_cast<double>(d);  // |a_ii| > sum of the row's rest
      b[i] = rng.uniform(-1, 1);
    }
    augmented_ = tcu::linalg::make_augmented<double>(a.view(), b,
                                                     shape.gauss_r);
  }

  std::string sizes() const {
    const std::string r = std::to_string(shape_.gauss_r);
    return "augmented=" + r + "x" + r;
  }

  tcu::Device<T>::Config pool_config() const {
    return unit_config<T>(shape_, 1);
  }
  tcu::Device<T>::Config serial_config() const {
    return unit_config<T>(shape_, 1);
  }

  void reset_model() {}
  /// The elimination runs in place: restore the augmented matrix.
  void prepare() { work_ = augmented_; }
  void run_serial(tcu::Device<T>& dev) {
    tcu::linalg::ge_forward_tcu(dev, work_.view());
  }
  void run_pooled(tcu::PoolExecutor<T>& exec) {
    tcu::linalg::ge_forward_tcu_pool(exec, work_.view());
  }
  tcu::Matrix<T>& output() { return work_; }

  /// Bitwise serial charges, residency split included (evictions depend
  /// on how many lanes the panels land on and are not compared).
  static bool contract(const tcu::Counters& got, const tcu::Counters& ref) {
    return same_charges(got, ref) && got.resident_hits == ref.resident_hits &&
           got.latency_saved == ref.latency_saved;
  }

 private:
  Shape shape_;
  tcu::Matrix<double> augmented_;
  tcu::Matrix<double> work_;
};

}  // namespace perfbench
