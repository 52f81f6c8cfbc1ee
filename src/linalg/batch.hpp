#pragma once
// Batched products against a shared right operand.
//
// The model's asymmetry property (§3, property 3) exists precisely for
// this workload: "the same model can be applied to k vectors". Multiplying
// k left operands by one resident B must pay the weight-load latency per
// *tile*, not per batch item — achieved by stacking the batch into a
// single tall left operand, whose output strips are dealt across the
// executor's lanes.

#include <algorithm>
#include <type_traits>
#include <vector>

#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"

namespace tcu::linalg {

namespace detail {

template <typename T>
void validate_batch(const std::vector<Matrix<T>>& batch,
                    ConstMatrixView<T> B) {
  const std::size_t rows = batch.front().rows();
  const std::size_t inner = batch.front().cols();
  for (const auto& item : batch) {
    if (item.rows() != rows || item.cols() != inner) {
      throw std::invalid_argument(
          "matmul_batch_shared_b: heterogeneous batch shapes");
    }
  }
  if (inner != B.rows) {
    throw std::invalid_argument("matmul_batch_shared_b: inner mismatch");
  }
}

/// Stack the batch vertically. Each item is dense row-major, so its whole
/// block is one contiguous std::copy into the stacked operand.
template <typename T>
Matrix<T> stack_batch(const std::vector<Matrix<T>>& batch) {
  const std::size_t rows = batch.front().rows();
  const std::size_t inner = batch.front().cols();
  Matrix<T> stacked(batch.size() * rows, inner);
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    std::copy(batch[idx].data(), batch[idx].data() + rows * inner,
              stacked.data() + idx * rows * inner);
  }
  return stacked;
}

/// Split the stacked product back into per-item outputs, one contiguous
/// block copy per item.
template <typename T>
std::vector<Matrix<T>> unstack_batch(const Matrix<T>& product,
                                     std::size_t items, std::size_t rows) {
  const std::size_t width = product.cols();
  std::vector<Matrix<T>> out;
  out.reserve(items);
  for (std::size_t idx = 0; idx < items; ++idx) {
    Matrix<T> item(rows, width);
    const T* src = product.data() + idx * rows * width;
    std::copy(src, src + rows * width, item.data());
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace detail

/// Multiply each k x s block in `batch` by the shared B, on either
/// executor. All inputs must have the same shape (rows x B.rows). Returns
/// one output per input; the tensor unit sees a single stacked tall
/// operand per weight tile, so the latency l is charged once per weight
/// tile, never per batch item. The stacked product's output strips are
/// dealt across the executor's lanes (ragged shapes are padded in
/// task-local scratch). By default the B tiles are dealt with affinity,
/// keyed by storage address: a steady stream of batches against the same
/// resident B pays each tile's load latency once, not once per call, with
/// the units' `resident_hits` counters recording the savings. The
/// key-identity caveat of `PoolMatmulOptions::affinity` applies: B must be
/// long-lived, unchanged storage. Callers that mutate B or churn
/// allocations between calls must call `evict_all()` between them (or
/// pass `{.affinity = false}`) — an address key on recycled storage would
/// otherwise claim residency for different content. `{.affinity = false}`
/// is also the pure least-loaded reload-every-call schedule the benches
/// compare against. A deep shared B (chain k > 1) can pass
/// `{.affinity = true, .split_chains = true}` to split the chains at tile
/// granularity when the cache capacity is below k.
template <template <typename> class Exec, typename T>
std::vector<Matrix<T>> matmul_batch_shared_b(
    Exec<T>& exec, const std::vector<Matrix<T>>& batch,
    std::type_identity_t<ConstMatrixView<T>> B,
    PoolMatmulOptions opts = {.affinity = true}) {
  if (batch.empty()) return {};
  detail::validate_batch(batch, B);
  Matrix<T> stacked = detail::stack_batch(batch);
  exec.charge_cpu(stacked.rows() * stacked.cols());
  Matrix<T> product = matmul_tcu_pool(exec, stacked.view(), B, opts);
  exec.charge_cpu(product.rows() * product.cols());
  return detail::unstack_batch(product, batch.size(), batch.front().rows());
}

/// The affinity product above run inline on one device.
template <typename T>
std::vector<Matrix<T>> matmul_batch_shared_b(
    Device<T>& dev, const std::vector<Matrix<T>>& batch,
    std::type_identity_t<ConstMatrixView<T>> B) {
  InlineExecutor<T> exec(dev);
  return matmul_batch_shared_b(exec, batch, B, {.affinity = true});
}

}  // namespace tcu::linalg
