// AVX2 float/double kernel for the micro backend (core/backend.hpp).
//
// One kernel body serves both element types through a lane-ops struct.
// A block keeps 4 output rows x 2 vectors (4 x 8 doubles, 4 x 16 floats)
// in 8 ymm accumulators while k streams through, loading its two B
// vectors once per k and broadcasting one A element per row. Columns one
// vector short of a 2-vector block take a 4 x 1-vector block; the row
// tail (n % 4) runs one row x one vector, and columns past the last full
// vector run scalar.
//
// Correctness contract: results must be bit-identical to the reference
// loop for every input. Every output element keeps its own accumulator,
// summed in the reference k order with separate multiply and add
// intrinsics, and the target attribute enables avx2 but NOT fma, so the
// compiler cannot contract them. The dispatch is runtime (cpuid),
// compiled only on x86-64 gcc/clang; everywhere else the generic blocked
// kernel (header) runs.

#include "core/backend.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCU_MICRO_AVX2 1
#include <immintrin.h>
#endif

namespace tcu {

bool micro_simd_active() {
#ifdef TCU_MICRO_AVX2
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}

namespace backend_detail {

#ifdef TCU_MICRO_AVX2

#define TCU_AVX2 __attribute__((target("avx2")))

namespace {

template <typename T>
struct Lanes;

template <>
struct Lanes<double> {
  using V = __m256d;
  static constexpr std::size_t kWidth = 4;
  TCU_AVX2 static V zero() { return _mm256_setzero_pd(); }
  TCU_AVX2 static V load(const double* p) { return _mm256_loadu_pd(p); }
  TCU_AVX2 static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  TCU_AVX2 static V broadcast(double x) { return _mm256_set1_pd(x); }
  TCU_AVX2 static V mul(V x, V y) { return _mm256_mul_pd(x, y); }
  TCU_AVX2 static V add(V x, V y) { return _mm256_add_pd(x, y); }
};

template <>
struct Lanes<float> {
  using V = __m256;
  static constexpr std::size_t kWidth = 8;
  TCU_AVX2 static V zero() { return _mm256_setzero_ps(); }
  TCU_AVX2 static V load(const float* p) { return _mm256_loadu_ps(p); }
  TCU_AVX2 static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  TCU_AVX2 static V broadcast(float x) { return _mm256_set1_ps(x); }
  TCU_AVX2 static V mul(V x, V y) { return _mm256_mul_ps(x, y); }
  TCU_AVX2 static V add(V x, V y) { return _mm256_add_ps(x, y); }
};

/// C[0..R) x [0..VN vectors) of the block at (a, c), k = 0..s in order:
/// acc[r][v] = acc[r][v] + a[r][k] * b[k][v], one accumulator per element.
template <typename T, std::size_t R, std::size_t VN>
TCU_AVX2 void block(const T* a, std::size_t lda, const T* b, std::size_t ldb,
                    T* c, std::size_t ldc, std::size_t s, bool accumulate) {
  using L = Lanes<T>;
  constexpr std::size_t kW = L::kWidth;
  typename L::V acc[R][VN];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < VN; ++v) {
      acc[r][v] = accumulate ? L::load(c + r * ldc + v * kW) : L::zero();
    }
  }
  for (std::size_t k = 0; k < s; ++k) {
    typename L::V bv[VN];
    for (std::size_t v = 0; v < VN; ++v) {
      bv[v] = L::load(b + k * ldb + v * kW);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const typename L::V av = L::broadcast(a[r * lda + k]);
      for (std::size_t v = 0; v < VN; ++v) {
        acc[r][v] = L::add(acc[r][v], L::mul(av, bv[v]));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < VN; ++v) {
      L::store(c + r * ldc + v * kW, acc[r][v]);
    }
  }
}

}  // namespace

template <typename T>
TCU_AVX2 void micro_gemm_avx2(const T* a, std::size_t lda, const T* b,
                              std::size_t ldb, T* c, std::size_t ldc,
                              std::size_t n, std::size_t s, bool accumulate) {
  constexpr std::size_t kMR = 4;
  constexpr std::size_t kW = Lanes<T>::kWidth;
  const std::size_t iv = n - n % kMR;       // rows in 4-row blocks
  const std::size_t jv = s - s % kW;        // columns in full vectors
  const std::size_t jb = s - s % (2 * kW);  // columns in 2-vector blocks
  for (std::size_t i = 0; i < iv; i += kMR) {
    const T* ai = a + i * lda;
    T* ci = c + i * ldc;
    for (std::size_t j = 0; j < jb; j += 2 * kW) {
      block<T, kMR, 2>(ai, lda, b + j, ldb, ci + j, ldc, s, accumulate);
    }
    if (jb < jv) {
      block<T, kMR, 1>(ai, lda, b + jb, ldb, ci + jb, ldc, s, accumulate);
    }
  }
  for (std::size_t i = iv; i < n; ++i) {
    for (std::size_t j = 0; j < jv; j += kW) {
      block<T, 1, 1>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc, s,
                     accumulate);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const T* arow = a + i * lda;
    T* crow = c + i * ldc;
    for (std::size_t j = jv; j < s; ++j) {
      T acc = accumulate ? crow[j] : T{};
      for (std::size_t k = 0; k < s; ++k) acc += arow[k] * b[k * ldb + j];
      crow[j] = acc;
    }
  }
}

#undef TCU_AVX2

#else  // !TCU_MICRO_AVX2: never called (micro_simd_active() is false).

template <typename T>
void micro_gemm_avx2(const T*, std::size_t, const T*, std::size_t, T*,
                     std::size_t, std::size_t, std::size_t, bool) {
  throw std::logic_error("micro AVX2 path unavailable on this target");
}

#endif

template void micro_gemm_avx2(const float*, std::size_t, const float*,
                              std::size_t, float*, std::size_t, std::size_t,
                              std::size_t, bool);
template void micro_gemm_avx2(const double*, std::size_t, const double*,
                              std::size_t, double*, std::size_t, std::size_t,
                              std::size_t, bool);

}  // namespace backend_detail
}  // namespace tcu
