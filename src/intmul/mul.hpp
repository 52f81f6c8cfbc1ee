#pragma once
// Long integer multiplication in the (m, l)-TCU model (§4.7).
//
// Theorem 9 (`mul_schoolbook_tcu`): the schoolbook product of the limb
// polynomials A(x) B(x) is computed as one banded-Toeplitz matrix product
// on the tensor unit. With s = sqrt(m):
//
//   * A' ((n'+s-1) x s) holds every length-s window of the zero-padded
//     limb sequence of a: A'[i][t] = A_{i-s+1+t};
//   * B' (s x n'/s) holds b's limbs column-major, reversed within each
//     column: B'[t][j] = B_{js+s-1-t};
//   * C' = A' B' then satisfies: entry (i, j) accumulates exactly the
//     products A_u B_v with u + v = i + j s, so coefficient h of the
//     product polynomial is the sum of C' along the anti-diagonal
//     i = h - j s. A final carry pass evaluates C(2^{16}).
//
// (The roles of the windowed/reversed operands are stated transposed in
// the paper's text; the index identity above is the one that makes every
// (u, v) pair land exactly once, and is what we implement and test.)
//
// Cost: the tall product is (n'/m) tensor calls streaming n' + s - 1 rows
// each: O(n'^2/sqrt(m) + (n'/m) l) = O(n^2/(kappa^2 sqrt(m)) +
// (n/(kappa m)) l).
//
// Theorem 10 (`mul_karatsuba_tcu`): Karatsuba's recursion with the
// Theorem 9 kernel as base case once operands fit kappa * sqrt(m) bits:
// O((n / (kappa sqrt(m)))^{log2 3} (sqrt(m) + l / sqrt(m))).

#include <cstdint>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "intmul/bigint.hpp"

namespace tcu::intmul {

/// RAM baseline: limb-level schoolbook product, Theta(n'^2) charged.
BigInt mul_schoolbook_ram(const BigInt& a, const BigInt& b,
                          Counters& counters);

/// Theorem 9: schoolbook via one banded-Toeplitz tensor product.
BigInt mul_schoolbook_tcu(Device<std::int64_t>& dev, const BigInt& a,
                          const BigInt& b);

/// RAM Karatsuba baseline with schoolbook base case below
/// `threshold_limbs`.
BigInt mul_karatsuba_ram(const BigInt& a, const BigInt& b, Counters& counters,
                         std::size_t threshold_limbs = 32);

/// Theorem 10: Karatsuba with the Theorem 9 TCU kernel at the base. The
/// default threshold of 4 sqrt(m) limbs corresponds to the paper's
/// kappa sqrt(m)-bit base case with kappa' = kappa/4 = 16-bit limbs.
/// Runs the executor body below inline on `dev`.
BigInt mul_karatsuba_tcu(Device<std::int64_t>& dev, const BigInt& a,
                         const BigInt& b, std::size_t threshold_limbs = 0);

/// Pool-parallel Theorem 10 (util::karatsuba_tcu): the top levels of
/// Karatsuba's call tree are unrolled on the submitting thread (linear
/// work charged to the shared CPU) and the independent subtree products
/// are dealt across the executor's units, each running the serial
/// recursion with the Theorem 9 base case. Product and aggregate counters
/// are bit-identical to `mul_karatsuba_tcu` on one device for every unit
/// count.
BigInt mul_karatsuba_tcu_pool(PoolExecutor<std::int64_t>& exec,
                              const BigInt& a, const BigInt& b,
                              std::size_t threshold_limbs = 0);

}  // namespace tcu::intmul
