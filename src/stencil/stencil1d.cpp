#include "stencil/stencil1d.hpp"

#include <array>
#include <stdexcept>

namespace tcu::stencil {

namespace {

/// Residency-tagged DFT levels, exactly as in the 2-D pipeline.
constexpr dft::DftOptions kDft{.affinity = true};

/// Linear convolution of two real vectors via a circular DFT convolution
/// of exactly the output length.
template <typename Exec>
std::vector<double> conv1_linear_tcu(Exec& exec, const std::vector<double>& a,
                                     const std::vector<double>& b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  // Power-of-two circular size: exact for linear convolution and keeps
  // every DFT length smooth (no Bluestein detour on odd sizes).
  std::size_t len = 1;
  while (len < out_len) len *= 2;
  dft::CVec fa(len, dft::Complex{}), fb(len, dft::Complex{});
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  exec.charge_cpu(a.size() + b.size());
  auto conv = dft::circular_convolve_tcu(exec, fa, fb, kDft);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = conv[i].real();
  exec.charge_cpu(out_len);
  return out;
}

template <typename Exec>
std::vector<double> kernel_power1(Exec& exec, const std::vector<double>& w,
                                  std::size_t k) {
  if (k == 1) return w;
  auto half = kernel_power1(exec, w, k / 2);
  auto sq = conv1_linear_tcu(exec, half, half);
  if (k % 2 == 0) return sq;
  return conv1_linear_tcu(exec, sq, w);
}

template <typename Exec>
std::vector<double> stencil1d_impl(Exec& exec,
                                   const std::vector<double>& signal,
                                   const std::array<double, 3>& w,
                                   std::size_t k) {
  if (k == 0) throw std::invalid_argument("stencil1d: k must be >= 1");
  const std::size_t n = signal.size();
  if (n == 0) return {};

  const auto W = kernel_power1(exec, {w[0], w[1], w[2]}, k);  // length 2k+1
  const std::size_t N = 3 * k;

  // Zero-pad the signal to a multiple of k.
  const std::size_t pn = ((n + k - 1) / k) * k;
  std::vector<double> padded(pn, 0.0);
  for (std::size_t i = 0; i < n; ++i) padded[i] = signal[i];
  exec.charge_cpu(pn);

  // Correlation-as-convolution kernel at size N.
  dft::CVec kf(N, dft::Complex{});
  for (std::int64_t a = -static_cast<std::int64_t>(k);
       a <= static_cast<std::int64_t>(k); ++a) {
    const auto u = static_cast<std::size_t>(
        ((-a) % static_cast<std::int64_t>(N) + static_cast<std::int64_t>(N)) %
        static_cast<std::int64_t>(N));
    kf[u] = W[static_cast<std::size_t>(k + a)];
  }
  exec.charge_cpu(2 * k + 1);
  Matrix<dft::Complex> fk(1, N);
  for (std::size_t i = 0; i < N; ++i) fk(0, i) = kf[i];
  dft::dft_batch_tcu(exec, fk.view(), kDft);

  // All block neighbourhoods as one batch (the 1-D Lemma 1).
  const std::size_t blocks = pn / k;
  Matrix<dft::Complex> batch(blocks, N, dft::Complex{});
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t i = 0; i < N; ++i) {
      const std::int64_t g = static_cast<std::int64_t>(blk * k + i) -
                             static_cast<std::int64_t>(k);
      if (g >= 0 && g < static_cast<std::int64_t>(pn)) {
        batch(blk, i) = padded[static_cast<std::size_t>(g)];
      }
    }
  }
  exec.charge_cpu(blocks * N);
  dft::dft_batch_tcu(exec, batch.view(), kDft);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t i = 0; i < N; ++i) batch(blk, i) *= fk(0, i);
  }
  exec.charge_cpu(blocks * N);
  dft::idft_batch_tcu(exec, batch.view(), kDft);

  std::vector<double> out(n);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t g = blk * k + i;
      if (g < n) out[g] = batch(blk, k + i).real();
    }
  }
  exec.charge_cpu(n);
  return out;
}

}  // namespace

std::vector<double> stencil1d_direct(const std::vector<double>& signal,
                                     const std::array<double, 3>& w,
                                     std::size_t k, Counters& counters) {
  if (k == 0) throw std::invalid_argument("stencil1d: k must be >= 1");
  const std::size_t n = signal.size();
  std::vector<double> cur(n + 2 * k, 0.0);
  for (std::size_t i = 0; i < n; ++i) cur[i + k] = signal[i];
  std::vector<double> next(cur.size(), 0.0);
  for (std::size_t sweep = 0; sweep < k; ++sweep) {
    for (std::size_t i = 0; i < cur.size(); ++i) {
      double acc = w[1] * cur[i];
      if (i > 0) acc += w[0] * cur[i - 1];
      if (i + 1 < cur.size()) acc += w[2] * cur[i + 1];
      next[i] = acc;
    }
    std::swap(cur, next);
    counters.charge_cpu(3 * cur.size());
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = cur[i + k];
  counters.charge_cpu(n);
  return out;
}

std::vector<double> weight_vector_tcu(Device<dft::Complex>& dev,
                                      const std::array<double, 3>& w,
                                      std::size_t k) {
  if (k == 0) throw std::invalid_argument("stencil1d: k must be >= 1");
  InlineExecutor<dft::Complex> exec(dev);
  return kernel_power1(exec, {w[0], w[1], w[2]}, k);
}

std::vector<double> stencil1d_tcu(Device<dft::Complex>& dev,
                                  const std::vector<double>& signal,
                                  const std::array<double, 3>& w,
                                  std::size_t k) {
  InlineExecutor<dft::Complex> exec(dev);
  return stencil1d_impl(exec, signal, w, k);
}

std::vector<double> stencil1d_tcu_pool(PoolExecutor<dft::Complex>& exec,
                                       const std::vector<double>& signal,
                                       const std::array<double, 3>& w,
                                       std::size_t k) {
  return stencil1d_impl(exec, signal, w, k);
}

}  // namespace tcu::stencil
