#pragma once
// Internal execution handle shared by the 1-D and 2-D stencil pipelines
// (stencil.cpp / stencil1d.cpp): dispatches the pipelines' DFT work to a
// single device or a pool executor — always with DftOptions::affinity
// on, because the Lemma 1 / Lemma 2 machinery re-visits the same
// Cooley-Tukey levels many times per call, so the level tiles are kept
// resident instead of reloaded. On the pool path each level's chunks
// additionally declare the level key as their chain, landing chunks on
// lanes that already hold the tile. Not part of the public API.

#include <cstdint>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"

namespace tcu::stencil::detail {

struct DftDispatch {
  Device<dft::Complex>* dev = nullptr;
  PoolExecutor<dft::Complex>* exec = nullptr;

  // The pipelines' batched transforms re-visit the same levels many
  // times per call, so their Fourier tiles stay resident.
  static constexpr tcu::dft::DftOptions kDft{.affinity = true};

  void charge_cpu(std::uint64_t ops) const {
    if (dev) {
      dev->charge_cpu(ops);
    } else {
      exec->pool().charge_cpu(ops);
    }
  }

  void dft_batch(MatrixView<dft::Complex> batch) const {
    if (dev) {
      tcu::dft::dft_batch_tcu(*dev, batch, kDft);
    } else {
      tcu::dft::dft_batch_tcu(*exec, batch, kDft);
    }
  }

  void idft_batch(MatrixView<dft::Complex> batch) const {
    if (dev) {
      tcu::dft::idft_batch_tcu(*dev, batch, kDft);
    } else {
      tcu::dft::idft_batch_tcu(*exec, batch, kDft);
    }
  }

  Matrix<dft::Complex> dft2(ConstMatrixView<dft::Complex> x,
                            bool inverse) const {
    return dev ? tcu::dft::dft2_tcu(*dev, x, inverse, kDft)
               : tcu::dft::dft2_tcu(*exec, x, inverse, kDft);
  }

  dft::CVec circular_convolve(const dft::CVec& a, const dft::CVec& b) const {
    return dev ? tcu::dft::circular_convolve_tcu(*dev, a, b, kDft)
               : tcu::dft::circular_convolve_tcu(*exec, a, b, kDft);
  }

  Matrix<dft::Complex> circular_convolve2(
      ConstMatrixView<dft::Complex> a,
      ConstMatrixView<dft::Complex> kernel) const {
    return dev ? tcu::dft::circular_convolve2_tcu(*dev, a, kernel, kDft)
               : tcu::dft::circular_convolve2_tcu(*exec, a, kernel, kDft);
  }
};

}  // namespace tcu::stencil::detail
