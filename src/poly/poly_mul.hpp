#pragma once
// Polynomial multiplication on the tensor unit.
//
// Two routes:
//   * via the DFT (Theorem 7 + convolution theorem): the product of
//     degree-(da) and degree-(db) polynomials is their linear
//     convolution, computed as a circular convolution of any length
//     >= da + db + 1 — O((d + l) log_m d);
//   * via Karatsuba over the coefficient vectors with the banded-Toeplitz
//     schoolbook kernel (linalg/toeplitz.hpp, the §4.7 construction on
//     real coefficients) as the base case — the polynomial counterpart of
//     Theorem 10, and the route that pool-parallelizes with aggregate
//     counters bit-identical to serial (the DFT route re-pays tile loads
//     per unit when split).

#include <vector>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"

namespace tcu::poly {

/// Coefficients of a(x) * b(x); inputs are coefficient vectors in
/// ascending degree order.
std::vector<double> multiply_tcu(Device<dft::Complex>& dev,
                                 const std::vector<double>& a,
                                 const std::vector<double>& b);

/// RAM baseline: the Theta(da * db) convolution loop, charged.
std::vector<double> multiply_ram(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 Counters& counters);

/// Karatsuba over coefficient vectors with the Toeplitz schoolbook TCU
/// kernel below `threshold` coefficients (default 4 sqrt(m), mirroring
/// Theorem 10's base). Exact for integer-valued coefficients; for general
/// doubles the recursion reassociates sums, so results agree with
/// `multiply_ram` up to rounding. Runs the executor body below inline on
/// `dev`.
std::vector<double> multiply_karatsuba_tcu(Device<double>& dev,
                                           const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           std::size_t threshold = 0);

/// Pool-parallel Karatsuba: the top levels of the call tree are unrolled
/// on the submitting thread and the independent subtree products are
/// dealt across the executor's units (util::karatsuba_tcu, the driver
/// intmul shares). Coefficients and aggregate counters are bit-identical
/// to `multiply_karatsuba_tcu` on one device for every unit count.
std::vector<double> multiply_karatsuba_tcu_pool(PoolExecutor<double>& exec,
                                                const std::vector<double>& a,
                                                const std::vector<double>& b,
                                                std::size_t threshold = 0);

/// RAM Karatsuba baseline (schoolbook below `threshold`), charged.
std::vector<double> multiply_karatsuba_ram(const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           Counters& counters,
                                           std::size_t threshold = 32);

}  // namespace tcu::poly
