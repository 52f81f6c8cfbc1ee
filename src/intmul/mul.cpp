#include "intmul/mul.hpp"

#include <stdexcept>

#include "linalg/dense.hpp"
#include "linalg/toeplitz.hpp"
#include "util/karatsuba_plan.hpp"

namespace tcu::intmul {

namespace {

/// Evaluate coefficient vector C at 2^16 with a carry pass.
BigInt carry_evaluate(const std::vector<std::int64_t>& coeffs) {
  std::vector<BigInt::Limb> limbs;
  limbs.reserve(coeffs.size() + 4);
  std::uint64_t acc = 0;
  for (const std::int64_t c : coeffs) {
    acc += static_cast<std::uint64_t>(c);
    limbs.push_back(static_cast<BigInt::Limb>(acc & BigInt::kLimbMask));
    acc >>= BigInt::kLimbBits;
  }
  while (acc != 0) {
    limbs.push_back(static_cast<BigInt::Limb>(acc & BigInt::kLimbMask));
    acc >>= BigInt::kLimbBits;
  }
  return BigInt::from_limbs(std::move(limbs));
}

}  // namespace

BigInt mul_schoolbook_ram(const BigInt& a, const BigInt& b,
                          Counters& counters) {
  if (a.is_zero() || b.is_zero()) return {};
  const auto& al = a.limbs();
  const auto& bl = b.limbs();
  std::vector<std::int64_t> coeffs(al.size() + bl.size() - 1, 0);
  for (std::size_t i = 0; i < al.size(); ++i) {
    for (std::size_t j = 0; j < bl.size(); ++j) {
      coeffs[i + j] += static_cast<std::int64_t>(al[i]) * bl[j];
    }
  }
  counters.charge_cpu(al.size() * bl.size() + coeffs.size());
  return carry_evaluate(coeffs);
}

BigInt mul_schoolbook_tcu(Device<std::int64_t>& dev, const BigInt& a,
                          const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return {};
  // The banded-Toeplitz kernel is shared with poly/: limbs in, the full
  // coefficient convolution out, then the carry pass evaluates at 2^16.
  const std::vector<std::int64_t> av(a.limbs().begin(), a.limbs().end());
  const std::vector<std::int64_t> bv(b.limbs().begin(), b.limbs().end());
  return carry_evaluate(linalg::conv_toeplitz_tcu(dev, av, bv));
}

namespace {

/// Karatsuba over limb vectors for the shared recursion
/// (util/karatsuba_plan.hpp).
struct BigIntKaratsubaOps {
  using Value = BigInt;
  static std::size_t size(const BigInt& v) { return v.limb_count(); }
  static BigInt low(const BigInt& v, std::size_t half) {
    return v.low_limbs(half);
  }
  static BigInt high(const BigInt& v, std::size_t half) {
    return v.high_limbs(half);
  }
  static BigInt add(const BigInt& x, const BigInt& y) { return x + y; }
  static BigInt sub(const BigInt& x, const BigInt& y) { return x - y; }
  static BigInt shift(const BigInt& v, std::size_t count) {
    return v.shifted_limbs(count);
  }
};

}  // namespace

BigInt mul_karatsuba_ram(const BigInt& a, const BigInt& b, Counters& counters,
                         std::size_t threshold_limbs) {
  if (threshold_limbs < 1) {
    throw std::invalid_argument("mul_karatsuba_ram: threshold must be >= 1");
  }
  return util::karatsuba_serial<BigIntKaratsubaOps>(
      a, b, threshold_limbs, counters,
      [&counters](const BigInt& x, const BigInt& y) {
        return mul_schoolbook_ram(x, y, counters);
      });
}

BigInt mul_karatsuba_tcu(Device<std::int64_t>& dev, const BigInt& a,
                         const BigInt& b, std::size_t threshold_limbs) {
  InlineExecutor<std::int64_t> exec(dev);
  return util::karatsuba_tcu<BigIntKaratsubaOps>(exec, a, b, threshold_limbs,
                                                 &mul_schoolbook_tcu);
}

BigInt mul_karatsuba_tcu_pool(PoolExecutor<std::int64_t>& exec,
                              const BigInt& a, const BigInt& b,
                              std::size_t threshold_limbs) {
  return util::karatsuba_tcu<BigIntKaratsubaOps>(exec, a, b, threshold_limbs,
                                                 &mul_schoolbook_tcu);
}

}  // namespace tcu::intmul
