#pragma once
// One-dimensional linear (n, k)-stencils.
//
// §4.6 notes the techniques "extend to any d = O(1)"; this is the d = 1
// instantiation, useful for time-series smoothing and as a simpler lens
// on the same machinery: a 3-tap kernel applied k times equals one
// (2k+1)-tap kernel (the k-th convolution power), evaluated blockwise
// with batched DFT convolutions. Semantics match the 2-D module: the
// signal sits in an infinite zero line.

#include <array>
#include <vector>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"

namespace tcu::stencil {

/// w = {w[-1], w[0], w[+1]} applied for k sweeps, direct RAM loop with a
/// k-cell halo; Theta((n + k) k) charged.
std::vector<double> stencil1d_direct(const std::vector<double>& signal,
                                     const std::array<double, 3>& w,
                                     std::size_t k, Counters& counters);

/// The (2k+1)-tap unrolled kernel of the 3-tap stencil (k-th convolution
/// power), computed with DFT convolutions on the device.
std::vector<double> weight_vector_tcu(Device<dft::Complex>& dev,
                                      const std::array<double, 3>& w,
                                      std::size_t k);

/// Blocked-convolution evaluation (the 1-D Lemma 1 + Theorem 8). DFT
/// level tiles are residency-tagged, exactly as in the 2-D pipeline.
/// Runs the pipeline of `stencil1d_tcu_pool` on an InlineExecutor over
/// `dev`, as does `weight_vector_tcu`.
std::vector<double> stencil1d_tcu(Device<dft::Complex>& dev,
                                  const std::vector<double>& signal,
                                  const std::array<double, 3>& w,
                                  std::size_t k);

/// Multi-unit 1-D stencil: same contract as `stencil_tcu_pool` — outputs
/// bit-identical to `stencil1d_tcu` at every unit count, counters
/// matching modulo the documented chunked-call latency split.
std::vector<double> stencil1d_tcu_pool(PoolExecutor<dft::Complex>& exec,
                                       const std::vector<double>& signal,
                                       const std::array<double, 3>& w,
                                       std::size_t k);

}  // namespace tcu::stencil
