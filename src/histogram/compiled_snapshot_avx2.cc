// AVX2 leg of the compiled-snapshot search: branch-free halving descent
// to a window of at most 8 borders, then one vectorized compare +
// movemask/popcount counts how many of them are <= x. Compiled with
// -mavx2 only when CMake's feature check passes; without the flag this TU
// is empty and the scalar path is the only one linked. Selection between
// the two happens at runtime in compiled_internal::UpperBound/UpperBound2
// via cpuid.

#include "src/histogram/compiled_snapshot.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace dynhist {
namespace compiled_internal {
namespace {

// Elements of sorted window a[0..len) that are <= x, len <= 8. Because
// the window is sorted this count IS the local upper_bound offset.
inline std::size_t WindowCountLe(const double* a, std::size_t len,
                                 double x) {
  const __m256d key = _mm256_set1_pd(x);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    const __m256d le = _mm256_cmp_pd(v, key, _CMP_LE_OQ);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(le))));
  }
  for (; i < len; ++i) {
    count += static_cast<std::size_t>(a[i] <= x);
  }
  return count;
}

}  // namespace

std::size_t UpperBoundAvx2(const double* a, std::size_t n, double x) {
  const double* base = a;
  std::size_t len = n;
  while (len > 8) {
    const std::size_t half = len / 2;
    base += static_cast<std::size_t>(base[half - 1] <= x) * half;
    len -= half;
  }
  return static_cast<std::size_t>(base - a) + WindowCountLe(base, len, x);
}

void UpperBound2Avx2(const double* a, std::size_t n, double x1, double x2,
                     std::size_t* i1, std::size_t* i2) {
  const double* b1 = a;
  const double* b2 = a;
  std::size_t len = n;
  while (len > 8) {
    const std::size_t half = len / 2;
    b1 += static_cast<std::size_t>(b1[half - 1] <= x1) * half;
    b2 += static_cast<std::size_t>(b2[half - 1] <= x2) * half;
    len -= half;
  }
  *i1 = static_cast<std::size_t>(b1 - a) + WindowCountLe(b1, len, x1);
  *i2 = static_cast<std::size_t>(b2 - a) + WindowCountLe(b2, len, x2);
}

}  // namespace compiled_internal
}  // namespace dynhist

#endif  // __AVX2__
