// NEON implementations of the SimdOps kernels (AArch64).  Mirrors the AVX2
// TU at 128-bit width; the sort vectorizes nothing but still runs the radix
// pipeline (its win over the comparator sort is algorithmic, not
// ISA-specific).  Bit-identity contract as in dispatch.h: integer ops exact.

#include "util/simd/kernels_neon.h"

#if defined(REGCLUSTER_HAVE_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "util/simd/radix_sort.h"

namespace regcluster {
namespace util {
namespace simd {
namespace {

void AndWordsNeon(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  int words) {
  int w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  for (; w < words; ++w) dst[w] = a[w] & b[w];
}

void OrWordsIntoNeon(uint64_t* dst, const uint64_t* src, int words) {
  int w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, vorrq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  for (; w < words; ++w) dst[w] |= src[w];
}

void CopyWordsNeon(uint64_t* dst, const uint64_t* src, int words) {
  int w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, vld1q_u64(src + w));
  }
  for (; w < words; ++w) dst[w] = src[w];
}

void SortScoredNeon(const double* h, const int* gene, int split, int total,
                    int* order, double* sorted_h, SortScratch* scratch) {
  RadixSortScored(h, gene, split, total, order, sorted_h, scratch);
}

constexpr SimdOps kNeonOps = {
    Level::kNeon,
    &AndWordsNeon,
    &OrWordsIntoNeon,
    &CopyWordsNeon,
    &SortScoredNeon,
};

}  // namespace

const SimdOps& GetNeonOps() { return kNeonOps; }

}  // namespace simd
}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_HAVE_NEON
