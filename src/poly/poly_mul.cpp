#include "poly/poly_mul.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/toeplitz.hpp"
#include "util/karatsuba_plan.hpp"

namespace tcu::poly {

std::vector<double> multiply_tcu(Device<dft::Complex>& dev,
                                 const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("poly multiply: empty operand");
  }
  const std::size_t out_len = a.size() + b.size() - 1;
  std::size_t n = 1;
  while (n < out_len) n *= 2;
  dft::CVec fa(n, dft::Complex{}), fb(n, dft::Complex{});
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  dev.charge_cpu(a.size() + b.size());
  auto conv = dft::circular_convolve_tcu(dev, fa, fb);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = conv[i].real();
  dev.charge_cpu(out_len);
  return out;
}

std::vector<double> multiply_ram(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 Counters& counters) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("poly multiply: empty operand");
  }
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  counters.charge_cpu(a.size() * b.size());
  return out;
}

namespace {

using DVec = std::vector<double>;

DVec vec_add(const DVec& x, const DVec& y) {
  DVec out(std::max(x.size(), y.size()), 0.0);
  std::copy(x.begin(), x.end(), out.begin());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] += y[i];
  return out;
}

DVec vec_sub(const DVec& x, const DVec& y) {
  DVec out(std::max(x.size(), y.size()), 0.0);
  std::copy(x.begin(), x.end(), out.begin());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] -= y[i];
  return out;
}

DVec vec_shift(const DVec& v, std::size_t count) {
  DVec out(count + v.size(), 0.0);
  std::copy(v.begin(), v.end(), out.begin() + static_cast<std::ptrdiff_t>(count));
  return out;
}

DVec vec_low(const DVec& v, std::size_t half) {
  return DVec(v.begin(),
              v.begin() + static_cast<std::ptrdiff_t>(std::min(half, v.size())));
}

DVec vec_high(const DVec& v, std::size_t half) {
  if (v.size() <= half) return {};
  return DVec(v.begin() + static_cast<std::ptrdiff_t>(half), v.end());
}

/// Karatsuba ops over double coefficient vectors for the shared
/// recursion (util/karatsuba_plan.hpp).
struct DVecKaratsubaOps {
  using Value = DVec;
  static std::size_t size(const DVec& v) { return v.size(); }
  static DVec low(const DVec& v, std::size_t half) {
    return vec_low(v, half);
  }
  static DVec high(const DVec& v, std::size_t half) {
    return vec_high(v, half);
  }
  static DVec add(const DVec& x, const DVec& y) { return vec_add(x, y); }
  static DVec sub(const DVec& x, const DVec& y) { return vec_sub(x, y); }
  static DVec shift(const DVec& v, std::size_t count) {
    return vec_shift(v, count);
  }
};

/// The Toeplitz schoolbook kernel as Karatsuba's base case; a split can
/// leave an empty high half.
DVec toeplitz_base(Device<double>& unit, const DVec& x, const DVec& y) {
  if (x.empty() || y.empty()) return {};
  return linalg::conv_toeplitz_tcu(unit, x, y);
}

template <typename Exec>
DVec karatsuba_tcu(Exec& exec, const DVec& a, const DVec& b,
                   std::size_t threshold) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("poly multiply: empty operand");
  }
  DVec out = util::karatsuba_tcu<DVecKaratsubaOps>(exec, a, b, threshold,
                                                   &toeplitz_base);
  const std::size_t out_len = a.size() + b.size() - 1;
  out.resize(out_len, 0.0);  // the padded tail past out_len is exact zeros
  exec.charge_cpu(out_len);
  return out;
}

}  // namespace

std::vector<double> multiply_karatsuba_tcu(Device<double>& dev,
                                           const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           std::size_t threshold) {
  InlineExecutor<double> exec(dev);
  return karatsuba_tcu(exec, a, b, threshold);
}

std::vector<double> multiply_karatsuba_tcu_pool(PoolExecutor<double>& exec,
                                                const std::vector<double>& a,
                                                const std::vector<double>& b,
                                                std::size_t threshold) {
  return karatsuba_tcu(exec, a, b, threshold);
}

std::vector<double> multiply_karatsuba_ram(const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           Counters& counters,
                                           std::size_t threshold) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("poly multiply: empty operand");
  }
  if (threshold < 1) {
    throw std::invalid_argument(
        "multiply_karatsuba_ram: threshold must be >= 1");
  }
  auto base = [&counters](const DVec& x, const DVec& y) -> DVec {
    if (x.empty() || y.empty()) return {};
    DVec out(x.size() + y.size() - 1, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = 0; j < y.size(); ++j) out[i + j] += x[i] * y[j];
    }
    counters.charge_cpu(x.size() * y.size());
    return out;
  };
  DVec out = util::karatsuba_serial<DVecKaratsubaOps>(a, b, threshold,
                                                      counters, base);
  out.resize(a.size() + b.size() - 1, 0.0);
  counters.charge_cpu(a.size() + b.size() - 1);
  return out;
}

}  // namespace tcu::poly
