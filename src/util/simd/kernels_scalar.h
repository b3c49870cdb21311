// Portable scalar kernel set -- the reference implementations every
// accelerated level is differentially tested against.
//
// The word loops forward to util/bitset.h (the single scalar source of
// truth, shared with non-dispatched callers); the scored-column sort is the
// legacy comparator std::sort, deliberately *not* the radix pipeline, so the
// forced-scalar differential compares two genuinely independent sort
// algorithms (see DESIGN.md).

#ifndef REGCLUSTER_UTIL_SIMD_KERNELS_SCALAR_H_
#define REGCLUSTER_UTIL_SIMD_KERNELS_SCALAR_H_

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/bitset.h"
#include "util/simd/dispatch.h"

namespace regcluster {
namespace util {
namespace simd {
namespace scalar {

inline void SortScored(const double* h, const int* gene, int split, int total,
                       int* order, double* sorted_h, SortScratch* scratch) {
  (void)split;
  (void)scratch;
  std::iota(order, order + total, 0);
  std::sort(order, order + total, [&](int a, int b) {
    if (h[a] != h[b]) return h[a] < h[b];
    return gene[a] < gene[b];
  });
  // The sorted column goes through the key round trip here too, so every
  // level's sorted_h is bit-identical (-0.0 canonicalized to +0.0).
  for (int i = 0; i < total; ++i) {
    sorted_h[i] = InverseOrderKey(OrderKey(h[order[i]]));
  }
}

}  // namespace scalar
}  // namespace simd
}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_SIMD_KERNELS_SCALAR_H_
