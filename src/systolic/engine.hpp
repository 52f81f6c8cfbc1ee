#pragma once
// Device engines backed by the cycle-level systolic simulators, plus
// factory helpers. `make_systolic_device` yields a Device whose numeric
// results come from the Figure-1 schedule and whose Counters additionally
// accumulate `systolic_cycles`.

#include <complex>
#include <memory>

#include "core/device.hpp"
#include "systolic/systolic_array.hpp"

namespace tcu::systolic {

/// Engine running every tensor call on a weight-stationary systolic array.
template <typename T>
typename Device<T>::Engine weight_stationary_engine() {
  return [](ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
            bool accumulate, Counters& counters) {
    SystolicArray<T> array(B.rows);
    const RunStats stats = array.multiply(A, B, C, accumulate);
    counters.systolic_cycles += stats.total_cycles();
  };
}

// Defined only in systolic.cpp, built without SLP vectorization: a copy
// instantiated in a client TU could fuse the complex products into FMAs.
extern template Device<std::complex<double>>::Engine
weight_stationary_engine<std::complex<double>>();

/// Engine running square tensor calls on an output-stationary array
/// (NVIDIA-style). Tall calls must already be split by a weak-mode device.
template <typename T>
typename Device<T>::Engine output_stationary_engine() {
  return [](ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
            bool accumulate, Counters& counters) {
    const std::size_t s = B.rows;
    if (A.rows == s) {
      OutputStationaryArray<T> array(s);
      counters.systolic_cycles +=
          array.multiply(A, B, C, accumulate).total_cycles();
      return;
    }
    // A tall call reached an output-stationary engine (a tall-mode device
    // with this engine): execute it as a sequence of square passes.
    OutputStationaryArray<T> array(s);
    for (std::size_t r0 = 0; r0 < A.rows; r0 += s) {
      const std::size_t rows = std::min(s, A.rows - r0);
      Matrix<T> a_tile(s, s, T{});
      Matrix<T> c_tile(s, s, T{});
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < s; ++j) a_tile(i, j) = A(r0 + i, j);
      }
      counters.systolic_cycles +=
          array.multiply(a_tile.view(), B, c_tile.view(), false)
              .total_cycles();
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          C(r0 + i, j) =
              accumulate ? C(r0 + i, j) + c_tile(i, j) : c_tile(i, j);
        }
      }
    }
  };
}

/// A Device whose numeric engine is the cycle-level weight-stationary
/// systolic array of Section 2.2.
template <typename T>
Device<T> make_systolic_device(typename Device<T>::Config cfg) {
  return Device<T>(std::move(cfg), weight_stationary_engine<T>());
}

}  // namespace tcu::systolic
