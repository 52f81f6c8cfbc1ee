// SIMD float/double kernels for the micro backend (core/backend.hpp).
//
// Two rungs, chosen at run time by cpuid, widest first:
//
//   avx512  4 rows x 4 zmm vectors per block (4 x 32 doubles, 4 x 64
//           floats): 16 accumulators, 4 B vectors and a broadcast in the
//           32 zmm registers. The 1 to 3 zmm vectors of columns short of
//           a block take a 4 x 2- and/or a 4 x 1-vector block, and a
//           remaining ymm vector of columns takes the avx2 lanes' blocks;
//   avx2    4 rows x 2 ymm vectors per block (4 x 8 doubles, 4 x 16
//           floats), the most its 16 ymm registers hold, with a
//           4 x 1-vector block for an odd vector.
//
// Both rungs instantiate one kernel body (micro_kernel.inc), whose block
// width is the rung's Lanes<T>::kBlock: the row tail (n % 4) runs one
// row x one vector, and columns past the last full vector run scalar.
//
// Correctness contract: results must be bit-identical to the reference
// loop for every input. Every output element keeps its own accumulator,
// summed in the reference k order with separate multiply and add
// intrinsics. The avx2 rung's target leaves FMA off; target("avx512f")
// turns it on, so the library builds with -ffp-contract=off (see
// CMakeLists.txt), which stops the compiler from fusing a mul and its add.
// The rungs are compiled only on x86-64 gcc/clang; everywhere else the
// generic blocked kernel (header) runs.

#include "core/backend.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCU_MICRO_X86 1
#include <immintrin.h>
#endif

namespace tcu {

namespace backend_detail {

#ifdef TCU_MICRO_X86

bool micro_has_avx512() {
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
}

bool micro_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

namespace avx2 {
namespace {

#define TCU_RUNG __attribute__((target("avx2")))

template <typename T>
struct Lanes;

template <>
struct Lanes<double> {
  using V = __m256d;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kBlock = 2;
  TCU_RUNG static V zero() { return _mm256_setzero_pd(); }
  TCU_RUNG static V load(const double* p) { return _mm256_loadu_pd(p); }
  TCU_RUNG static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  TCU_RUNG static V broadcast(double x) { return _mm256_set1_pd(x); }
  TCU_RUNG static V mul(V x, V y) { return _mm256_mul_pd(x, y); }
  TCU_RUNG static V add(V x, V y) { return _mm256_add_pd(x, y); }
};

template <>
struct Lanes<float> {
  using V = __m256;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kBlock = 2;
  TCU_RUNG static V zero() { return _mm256_setzero_ps(); }
  TCU_RUNG static V load(const float* p) { return _mm256_loadu_ps(p); }
  TCU_RUNG static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  TCU_RUNG static V broadcast(float x) { return _mm256_set1_ps(x); }
  TCU_RUNG static V mul(V x, V y) { return _mm256_mul_ps(x, y); }
  TCU_RUNG static V add(V x, V y) { return _mm256_add_ps(x, y); }
};

template <typename T>
using TailLanes = void;

#include "core/micro_kernel.inc"

#undef TCU_RUNG

}  // namespace
}  // namespace avx2

namespace avx512 {
namespace {

#define TCU_RUNG __attribute__((target("avx512f")))

template <typename T>
struct Lanes;

template <>
struct Lanes<double> {
  using V = __m512d;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kBlock = 4;
  TCU_RUNG static V zero() { return _mm512_setzero_pd(); }
  TCU_RUNG static V load(const double* p) { return _mm512_loadu_pd(p); }
  TCU_RUNG static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  TCU_RUNG static V broadcast(double x) { return _mm512_set1_pd(x); }
  TCU_RUNG static V mul(V x, V y) { return _mm512_mul_pd(x, y); }
  TCU_RUNG static V add(V x, V y) { return _mm512_add_pd(x, y); }
};

template <>
struct Lanes<float> {
  using V = __m512;
  static constexpr std::size_t kWidth = 16;
  static constexpr std::size_t kBlock = 4;
  TCU_RUNG static V zero() { return _mm512_setzero_ps(); }
  TCU_RUNG static V load(const float* p) { return _mm512_loadu_ps(p); }
  TCU_RUNG static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  TCU_RUNG static V broadcast(float x) { return _mm512_set1_ps(x); }
  TCU_RUNG static V mul(V x, V y) { return _mm512_mul_ps(x, y); }
  TCU_RUNG static V add(V x, V y) { return _mm512_add_ps(x, y); }
};

// AVX-512F implies AVX2, so the avx2 lanes inline here.
template <typename T>
using TailLanes = avx2::Lanes<T>;

#include "core/micro_kernel.inc"

#undef TCU_RUNG

}  // namespace
}  // namespace avx512

template <typename T>
void micro_gemm_avx512(const T* a, std::size_t lda, const T* b,
                       std::size_t ldb, T* c, std::size_t ldc, std::size_t n,
                       std::size_t s, bool accumulate) {
  avx512::gemm(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

template <typename T>
void micro_gemm_avx2(const T* a, std::size_t lda, const T* b,
                     std::size_t ldb, T* c, std::size_t ldc, std::size_t n,
                     std::size_t s, bool accumulate) {
  avx2::gemm(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

#else  // !TCU_MICRO_X86: no rung is present, so none is ever called.

bool micro_has_avx512() { return false; }
bool micro_has_avx2() { return false; }

template <typename T>
void micro_gemm_avx512(const T*, std::size_t, const T*, std::size_t, T*,
                       std::size_t, std::size_t, std::size_t, bool) {
  throw std::logic_error("micro AVX-512 rung unavailable on this target");
}

template <typename T>
void micro_gemm_avx2(const T*, std::size_t, const T*, std::size_t, T*,
                     std::size_t, std::size_t, std::size_t, bool) {
  throw std::logic_error("micro AVX2 rung unavailable on this target");
}

#endif

template void micro_gemm_avx512(const float*, std::size_t, const float*,
                                std::size_t, float*, std::size_t, std::size_t,
                                std::size_t, bool);
template void micro_gemm_avx512(const double*, std::size_t, const double*,
                                std::size_t, double*, std::size_t,
                                std::size_t, std::size_t, bool);
template void micro_gemm_avx2(const float*, std::size_t, const float*,
                              std::size_t, float*, std::size_t, std::size_t,
                              std::size_t, bool);
template void micro_gemm_avx2(const double*, std::size_t, const double*,
                              std::size_t, double*, std::size_t, std::size_t,
                              std::size_t, bool);

}  // namespace backend_detail

const char* micro_simd_name() {
  if (backend_detail::micro_has_avx512()) return "avx512";
  if (backend_detail::micro_has_avx2()) return "avx2";
  return "none";
}

bool micro_simd_active() {
  return backend_detail::micro_has_avx512() ||
         backend_detail::micro_has_avx2();
}

}  // namespace tcu
