#pragma once
// Discrete Fourier Transform in the (m, l)-TCU model (§4.5, Theorem 7).
//
// The Cooley-Tukey recursion is run with n1 = sqrt(m): the input vector is
// arranged as an n1 x n2 matrix (row-major); all column DFTs of one
// recursion level are computed by a single *tall* tensor product with the
// Fourier matrix W_{n1} (latency paid once per level), entries are
// multiplied by twiddle factors, and the rows are transformed recursively.
// Total: O((n + l) log_m n).
//
// Engineering extensions beyond the paper's statement (documented in
// DESIGN.md):
//   * batched transforms — a b x len matrix of b independent vectors is
//     transformed with the same number of tensor calls as one vector,
//     which is exactly the "concurrent DFTs via tall left matrices" trick
//     Lemma 1 (stencils) relies on;
//   * arbitrary lengths — composite lengths split by the largest factor
//     <= sqrt(m); prime lengths fall back to Bluestein's chirp-z reduction
//     onto a power-of-two circular convolution;
//   * inverse transforms via conjugation, 2-D transforms, and circular
//     convolution through the convolution theorem (used by §4.6 stencils).
//
// The device operates natively on complex words; Section 4.5's remark
// reduces this to a real device with constant slowdown (see
// core/complex_gemm.hpp and the ABL2 ablation bench).

#include <complex>
#include <cstdint>
#include <vector>

#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"

namespace tcu::dft {

using Complex = std::complex<double>;
using CVec = std::vector<Complex>;
using CplxDevice = Device<Complex>;

/// Key namespace of the Cooley-Tukey level tiles (see make_tile_key): the
/// tile of a level is the Fourier matrix W_n zero-padded to the device
/// tile, whose content is fully determined by n — so
/// `make_tile_key(kDftTileTag, n)` is a stable identity shared by every
/// level, call, and transform direction that uses W_n.
inline constexpr std::uint16_t kDftTileTag = 0xD517;

/// Tuning for the batched-transform pipelines.
struct DftOptions {
  /// Tag each level's Fourier tile with its symbolic content key and
  /// issue `gemm_resident` instead of untagged `gemm`, so consecutive
  /// levels sharing W_n (every level of a smooth length splits by the
  /// same factor) and repeated transforms keep the tile resident instead
  /// of reloading it; the chunked calls of one level declare the key as
  /// their chain, so each lane pays the level's tile load once while it
  /// stays cached. Off by default: the untagged accounting (l per level
  /// on one unit, plus one reload per extra chunk of a split level) is
  /// the Theorem 7 contract the pool benches pin. The stencil pipelines
  /// (§4.6), whose batched transforms re-visit the same levels many times
  /// per call, turn this on.
  bool affinity = false;
};

/// Naive O(n^2) DFT on the RAM model (test oracle and small baseline).
CVec dft_naive(const CVec& x, Counters& counters, bool inverse = false);

/// Radix-2 iterative FFT on the RAM model; n must be a power of two.
/// Charges one unit per butterfly. The classical baseline for crossover
/// benchmarks.
CVec fft_ram(const CVec& x, Counters& counters, bool inverse = false);

/// Theorem 7: DFT of one vector on the tensor unit (any length >= 1).
CVec dft_tcu(CplxDevice& dev, const CVec& x, bool inverse = false);

/// Batched forward DFT: every row of `batch` (b x len) is transformed in
/// place. All rows share each level's tensor calls.
///
/// `Exec` is `PoolExecutor<Complex>` or `InlineExecutor<Complex>`; the
/// `Device&` overloads run the schedule on an InlineExecutor over `dev`.
/// Each Cooley-Tukey level's single tall tensor product is split into
/// contiguous row chunks (boundaries on multiples of sqrt(m)) dealt
/// across the executor's units. Output bits and every counter except the
/// call count and latency term are independent of the split: a k-way
/// split issues k tall calls instead of one and each unit re-loads the
/// level's Fourier tile, costing (k - 1) * l extra latency per level —
/// the model's inherent cost of parallelizing one call. A 1-unit pool
/// matches the `Device&` entry in every field.
///
/// Each level's chunk fuses its gather, tall tensor product, and
/// twiddle/scatter into one unit task with the glue CPU charged to the
/// executing unit; each level's chunks, and the recursion read-outs (CPU
/// tasks), run after every task of the stage before them (`after`).
/// The transform is strict-joined only before submit-thread reads
/// (transposes, Bluestein glue, pointwise products) and at the return.
/// One persistent executor serves the whole recursion or a stream of
/// transforms.
template <typename Exec>
void dft_batch_tcu(Exec& exec, MatrixView<Complex> batch,
                   const DftOptions& opts = {});
void dft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                   const DftOptions& opts = {});

/// Batched inverse DFT (conjugation trick + 1/len scaling), in place.
template <typename Exec>
void idft_batch_tcu(Exec& exec, MatrixView<Complex> batch,
                    const DftOptions& opts = {});
void idft_batch_tcu(CplxDevice& dev, MatrixView<Complex> batch,
                    const DftOptions& opts = {});

/// 2-D DFT of an r x c matrix: DFT of every row, then of every column,
/// each pass a batched transform as above.
template <typename Exec>
Matrix<Complex> dft2_tcu(Exec& exec, ConstMatrixView<Complex> x,
                         bool inverse = false, const DftOptions& opts = {});
Matrix<Complex> dft2_tcu(CplxDevice& dev, ConstMatrixView<Complex> x,
                         bool inverse = false, const DftOptions& opts = {});

/// Circular convolution of equal-length vectors via the convolution
/// theorem (three DFTs + pointwise product).
template <typename Exec>
CVec circular_convolve_tcu(Exec& exec, const CVec& a, const CVec& b,
                           const DftOptions& opts = {});
CVec circular_convolve_tcu(CplxDevice& dev, const CVec& a, const CVec& b,
                           const DftOptions& opts = {});

/// 2-D circular convolution of equal-shape matrices.
template <typename Exec>
Matrix<Complex> circular_convolve2_tcu(Exec& exec, ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts = {});
Matrix<Complex> circular_convolve2_tcu(CplxDevice& dev,
                                       ConstMatrixView<Complex> a,
                                       ConstMatrixView<Complex> kernel,
                                       const DftOptions& opts = {});

/// The n x n symmetric Fourier matrix W with W[r][c] = exp(-2 pi i rc/n).
Matrix<Complex> fourier_matrix(std::size_t n, bool inverse = false);

}  // namespace tcu::dft
