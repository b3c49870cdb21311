// AVX2 implementations of the SimdOps kernels.  The ONLY translation unit
// compiled with -mavx2 (per-TU flag isolation; src/util/CMakeLists.txt), so
// every function here must be reached through the dispatch table and never
// from baseline code.
//
// Bit-identity contract: the word kernels are integer ops, exact by
// construction, so their results equal the scalar reference bit for bit.
// The sort is the portable fused radix pipeline: measured head-to-head on
// this level's target cores, hardware gathers lose to scalar loads at the
// miner's column sizes, so "AVX2" for that entry means "the fastest kernel
// available when AVX2 is present".

#include "util/simd/kernels_avx2.h"

#if defined(REGCLUSTER_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "util/simd/radix_sort.h"

namespace regcluster {
namespace util {
namespace simd {
namespace {

void AndWordsAvx2(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  int words) {
  int w = 0;
  for (; w + 4 <= words; w += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + w),
        _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w))));
  }
  for (; w < words; ++w) dst[w] = a[w] & b[w];
}

void OrWordsIntoAvx2(uint64_t* dst, const uint64_t* src, int words) {
  int w = 0;
  for (; w + 4 <= words; w += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + w),
        _mm256_or_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w))));
  }
  for (; w < words; ++w) dst[w] |= src[w];
}

void CopyWordsAvx2(uint64_t* dst, const uint64_t* src, int words) {
  int w = 0;
  for (; w + 4 <= words; w += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + w),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w)));
  }
  for (; w < words; ++w) dst[w] = src[w];
}

/// The sort is the fused-scalar radix pipeline: its single merge+key pass
/// reads each score exactly once, which beats a separate vector key-build
/// gather pass (hardware gathers on current x86 cores are no faster than
/// scalar loads; see DESIGN.md).
void SortScoredAvx2(const double* h, const int* gene, int split, int total,
                    int* order, double* sorted_h, SortScratch* scratch) {
  RadixSortScored(h, gene, split, total, order, sorted_h, scratch);
}

constexpr SimdOps kAvx2Ops = {
    Level::kAvx2,
    &AndWordsAvx2,
    &OrWordsIntoAvx2,
    &CopyWordsAvx2,
    &SortScoredAvx2,
};

}  // namespace

const SimdOps& GetAvx2Ops() { return kAvx2Ops; }

}  // namespace simd
}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_HAVE_AVX2
