#pragma once
// Pluggable numeric GEMM backends beneath the (m, l)-TCU cost model.
//
// `Device::issue()` charges simulated time and drives the observer /
// fault-injection seams; the *numeric* work — C = A * B for an n x s left
// operand and s x s right operand — is delegated to a `GemmBackend`. Every
// backend computes the same product through the same accounting path, so
// the checker, lint, and fault layers are backend-agnostic; only the
// wall-clock time (Device::wall_ns) and, for non-sim float backends, the
// floating-point rounding may differ:
//
//   * sim   — the reference triple loop, bit-for-bit the historical
//             engine (the default; every bit-identity test runs on it);
//   * micro — a register-blocked kernel. float/double dispatch at
//             runtime (cpuid) to the widest SIMD rung the CPU has: AVX-512
//             (4 rows x 4 zmm vectors: 4 x 32 doubles, 4 x 64 floats, in
//             16 accumulators) or AVX2 (4 rows x 2 ymm vectors: 4 x 8
//             doubles, 4 x 16 floats, in 8 accumulators); other T run a
//             generic 4 x 8 blocked loop. Each output element keeps its
//             own accumulator summed in the reference k order, and the
//             SIMD rungs use separate mul/add, with the library built
//             under -ffp-contract=off so no compiler fuses them into an
//             FMA; the results are bit-identical to sim for every T —
//             integral exactness falls out as a special case;
//   * blas  — vendor [sd]gemm behind -DTCU_BLAS=ON (float/double only);
//             reassociates sums, so outputs are bounded-ulp, not
//             bit-identical.
//
// A fourth, internal kind wraps a legacy `Device::Engine` std::function so
// custom engines (systolic, limited precision) keep working unchanged.
//
// Backends must NOT charge model time or mutate counters beyond
// engine-detail fields (the systolic engine's cycle counts); the device
// owns the charges.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/counters.hpp"
#include "core/matrix.hpp"

namespace tcu {

/// Numeric engine signature shared by the backend seam and the legacy
/// `Device::Engine` alias: computes C = A*B (or C += A*B) and may add
/// engine detail (e.g. systolic cycles) to the counters.
template <typename T>
using GemmFn = std::function<void(ConstMatrixView<T>, ConstMatrixView<T>,
                                  MatrixView<T>, bool, Counters&)>;

enum class BackendKind {
  kDefault,  ///< resolve via TCU_BACKEND env, falling back to kSim
  kSim,      ///< reference triple loop (bit-for-bit historical results)
  kMicro,    ///< register-blocked microkernel (+ runtime AVX-512/AVX2)
  kBlas,     ///< vendor BLAS, float/double, requires -DTCU_BLAS=ON
  kEngine,   ///< adapter around a caller-supplied GemmFn
};

/// "sim" / "micro" / "blas" -> kind; throws std::invalid_argument on
/// anything else (the CLI and TCU_BACKEND env share this parser).
BackendKind parse_backend_kind(const std::string& name);

/// Canonical name of a kind ("sim", "micro", "blas", "engine").
const char* backend_kind_name(BackendKind kind);

/// kDefault resolved: TCU_BACKEND if set (throwing on unparsable or
/// unavailable values), else kSim. Other kinds pass through.
BackendKind resolve_backend_kind(BackendKind kind);

/// True when the build can construct this kind for float/double (kBlas is
/// only compiled in under -DTCU_BLAS=ON).
bool backend_available(BackendKind kind);

/// True when the running CPU takes one of the micro backend's SIMD rungs.
bool micro_simd_active();

/// The micro backend's SIMD rung on the running CPU: "avx512", "avx2" or
/// "none" (float/double then run the generic blocked loop).
const char* micro_simd_name();

namespace backend_detail {

/// True when this build has the rung and the running CPU supports it.
bool micro_has_avx512();
bool micro_has_avx2();

// The SIMD rungs (backend_micro.cpp, instantiated for float and double),
// one kernel body each: 4-row x 4-zmm or 4-row x 2-ymm register blocks,
// with 2- and 1-vector column tails, a one-row row tail and scalar
// columns (the AVX-512 rung runs a last ymm vector of columns before
// going scalar). `lda`/`ldb`/`ldc` are
// row strides in elements; summation is k-sequential per element with
// separate mul/add, so results are bit-identical to the reference loop.
// Call one only when its `micro_has_*` is true.
template <typename T>
void micro_gemm_avx512(const T* a, std::size_t lda, const T* b,
                       std::size_t ldb, T* c, std::size_t ldc, std::size_t n,
                       std::size_t s, bool accumulate);
template <typename T>
void micro_gemm_avx2(const T* a, std::size_t lda, const T* b,
                     std::size_t ldb, T* c, std::size_t ldc, std::size_t n,
                     std::size_t s, bool accumulate);

#ifdef TCU_BLAS
// Row-major [sd]gemm wrappers (backend_blas.cpp): C = A*B or C += A*B.
void blas_gemm(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t n,
               std::size_t s, bool accumulate);
void blas_gemm(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t n,
               std::size_t s, bool accumulate);
#endif

}  // namespace backend_detail

/// Abstract numeric backend. `run` computes the product; it must not
/// charge model time (the device does, identically for every backend).
template <typename T>
class GemmBackend {
 public:
  GemmBackend() = default;
  GemmBackend(const GemmBackend&) = delete;
  GemmBackend& operator=(const GemmBackend&) = delete;
  virtual ~GemmBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual const char* name() const { return backend_kind_name(kind()); }
  virtual void run(ConstMatrixView<T> A, ConstMatrixView<T> B,
                   MatrixView<T> C, bool accumulate, Counters& counters) = 0;
};

/// The reference loop — bit-for-bit the historical default engine.
template <typename T>
class SimBackend final : public GemmBackend<T> {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    const std::size_t n = A.rows;
    const std::size_t s = B.rows;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        T acc = accumulate ? C(i, j) : T{};
        for (std::size_t k = 0; k < s; ++k) acc += A(i, k) * B(k, j);
        C(i, j) = acc;
      }
    }
  }
};

/// Register-blocked kernel. float/double dispatch at runtime to the
/// widest SIMD rung the CPU has, AVX-512 then AVX2: each block holds 4
/// rows x 2 vectors (4 x 16 doubles or 4 x 32 floats in zmm, 4 x 8 or
/// 4 x 16 in ymm) in 8 accumulators, loading its two B vectors once per k
/// and broadcasting one A element per row, with separate mul and add.
/// Other T, or a CPU with neither rung, run `blocked`: kMR x kNR scalar
/// accumulators per (i, j) block. Either way every element keeps its own
/// accumulator while k streams through in the reference order, so its
/// result, for any T, matches SimBackend exactly; only the wall clock
/// changes.
template <typename T>
class MicroBackend final : public GemmBackend<T> {
 public:
  static constexpr std::size_t kMR = 4;  ///< register block rows
  static constexpr std::size_t kNR = 8;  ///< register block cols

  BackendKind kind() const override { return BackendKind::kMicro; }

  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      if (backend_detail::micro_has_avx512()) {
        backend_detail::micro_gemm_avx512(A.data, A.stride, B.data, B.stride,
                                          C.data, C.stride, A.rows, B.rows,
                                          accumulate);
        return;
      }
      if (backend_detail::micro_has_avx2()) {
        backend_detail::micro_gemm_avx2(A.data, A.stride, B.data, B.stride,
                                        C.data, C.stride, A.rows, B.rows,
                                        accumulate);
        return;
      }
    }
    blocked(A, B, C, accumulate);
  }

 private:
  static void blocked(ConstMatrixView<T> A, ConstMatrixView<T> B,
                      MatrixView<T> C, bool accumulate) {
    const std::size_t n = A.rows;
    const std::size_t s = B.rows;
    T acc[kMR][kNR];
    for (std::size_t i0 = 0; i0 < n; i0 += kMR) {
      const std::size_t ib = std::min(kMR, n - i0);
      for (std::size_t j0 = 0; j0 < s; j0 += kNR) {
        const std::size_t jb = std::min(kNR, s - j0);
        for (std::size_t i = 0; i < ib; ++i) {
          for (std::size_t j = 0; j < jb; ++j) {
            acc[i][j] = accumulate ? C(i0 + i, j0 + j) : T{};
          }
        }
        for (std::size_t k = 0; k < s; ++k) {
          const T* brow = &B(k, j0);
          for (std::size_t i = 0; i < ib; ++i) {
            const T a = A(i0 + i, k);
            for (std::size_t j = 0; j < jb; ++j) acc[i][j] += a * brow[j];
          }
        }
        for (std::size_t i = 0; i < ib; ++i) {
          for (std::size_t j = 0; j < jb; ++j) C(i0 + i, j0 + j) = acc[i][j];
        }
      }
    }
  }
};

// The std::complex<double> products run out of line, compiled once in
// backend_complex.cpp without SLP vectorization: GCC's SLP vectorizer
// lowers a complex multiply to vfmaddsub on an FMA -march,
// -ffp-contract=off notwithstanding, so an inline copy in another TU (a
// test, a bench) would round differently, and the linker may keep that
// copy for the whole binary.
template <>
void SimBackend<std::complex<double>>::run(
    ConstMatrixView<std::complex<double>> A,
    ConstMatrixView<std::complex<double>> B,
    MatrixView<std::complex<double>> C, bool accumulate, Counters&);
template <>
void MicroBackend<std::complex<double>>::run(
    ConstMatrixView<std::complex<double>> A,
    ConstMatrixView<std::complex<double>> B,
    MatrixView<std::complex<double>> C, bool accumulate, Counters&);

#ifdef TCU_BLAS
/// Vendor BLAS [sd]gemm. Only instantiable for float/double; sums are
/// reassociated, so outputs are bounded-ulp rather than bit-identical.
template <typename T>
class BlasBackend final : public GemmBackend<T> {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "BlasBackend supports float and double only");

 public:
  BackendKind kind() const override { return BackendKind::kBlas; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    backend_detail::blas_gemm(A.data, A.stride, B.data, B.stride, C.data,
                              C.stride, A.rows, B.rows, accumulate);
  }
};
#endif

/// Adapter keeping the legacy `Device(Config, Engine)` constructor (and
/// with it the systolic and limited-precision engines) on the seam.
template <typename T>
class EngineBackend final : public GemmBackend<T> {
 public:
  explicit EngineBackend(GemmFn<T> fn) : fn_(std::move(fn)) {
    if (!fn_) throw std::invalid_argument("Device: null engine");
  }
  BackendKind kind() const override { return BackendKind::kEngine; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters& counters) override {
    fn_(A, B, C, accumulate, counters);
  }

 private:
  GemmFn<T> fn_;
};

/// Construct the backend for `kind` (kDefault resolves via TCU_BACKEND).
/// Throws std::invalid_argument for kBlas when the build lacks TCU_BLAS
/// or T is not float/double — missing deps fail loudly, never silently
/// fall back.
template <typename T>
std::shared_ptr<GemmBackend<T>> make_backend(BackendKind kind) {
  switch (resolve_backend_kind(kind)) {
    case BackendKind::kSim:
      return std::make_shared<SimBackend<T>>();
    case BackendKind::kMicro:
      return std::make_shared<MicroBackend<T>>();
    case BackendKind::kBlas:
#ifdef TCU_BLAS
      if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
        return std::make_shared<BlasBackend<T>>();
      } else {
        throw std::invalid_argument(
            "blas backend supports float/double only");
      }
#else
      throw std::invalid_argument(
          "blas backend requires building with -DTCU_BLAS=ON");
#endif
    default:
      throw std::invalid_argument("make_backend: unresolvable backend kind");
  }
}

}  // namespace tcu
