// The std::complex<double> products of the sim and micro backends
// (core/backend.hpp), compiled once, here, without SLP vectorization
// (CMakeLists.txt): GCC's SLP vectorizer lowers a complex multiply to
// vfmaddsub on an FMA -march, -ffp-contract=off notwithstanding, so the
// copy every other TU would instantiate could round differently.

#include "core/backend.hpp"

namespace tcu {

using Complex = std::complex<double>;

/// SimBackend<T>::run's reference loop, for T = Complex.
template <>
void SimBackend<Complex>::run(ConstMatrixView<Complex> A,
                              ConstMatrixView<Complex> B,
                              MatrixView<Complex> C, bool accumulate,
                              Counters&) {
  const std::size_t n = A.rows;
  const std::size_t s = B.rows;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      Complex acc = accumulate ? C(i, j) : Complex{};
      for (std::size_t k = 0; k < s; ++k) acc += A(i, k) * B(k, j);
      C(i, j) = acc;
    }
  }
}

template <>
void MicroBackend<Complex>::run(ConstMatrixView<Complex> A,
                                ConstMatrixView<Complex> B,
                                MatrixView<Complex> C, bool accumulate,
                                Counters&) {
  blocked(A, B, C, accumulate);
}

}  // namespace tcu
