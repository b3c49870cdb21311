// Comparator-equivalence tests for util/radix_sort.h.
//
// The radix pipeline must reproduce the comparator index-sort (std::sort
// over (score asc, gene asc)) byte for byte; the comparator is kept here as
// the reference.  The suites drive the edge cases where that is easiest to
// break -- signed zeros, denormals, equal-score ties, negative values (key
// complementing) -- across every size tier of the pipeline.  The ASan+UBSan
// CI job runs this binary to catch out-of-bounds scatter writes.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "util/prng.h"
#include "util/radix_sort.h"

namespace regcluster {
namespace util {
namespace {

// ---------------------------------------------------------------------------
// OrderKey / InverseOrderKey
// ---------------------------------------------------------------------------

TEST(RadixSortTest, OrderKeyPreservesNumericOrder) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ascending = {
      -std::numeric_limits<double>::max(), -1.0, -1e-300, -denorm,
      0.0,  // and -0.0 shares this key (tested separately)
      denorm, 2 * denorm, 1e-300, 1.0, 1.0 + 1e-15,
      std::numeric_limits<double>::max()};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(OrderKey(ascending[i - 1]), OrderKey(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
}

TEST(RadixSortTest, OrderKeyCollapsesSignedZeros) {
  EXPECT_EQ(OrderKey(0.0), OrderKey(-0.0));
}

TEST(RadixSortTest, InverseOrderKeyRoundTripsExactly) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {0.0,    denorm, -denorm, 1.5,
                                      -2.75,  1e-308, -1e-308, 42.0,
                                      -1e300, 1e300};
  for (double d : values) {
    const double back = InverseOrderKey(OrderKey(d));
    EXPECT_EQ(std::bit_cast<uint64_t>(d), std::bit_cast<uint64_t>(back)) << d;
  }
  // The one deliberate exception: -0.0 canonicalizes to +0.0.
  EXPECT_EQ(std::bit_cast<uint64_t>(0.0),
            std::bit_cast<uint64_t>(InverseOrderKey(OrderKey(-0.0))));
}

// ---------------------------------------------------------------------------
// Radix sort vs the reference comparator sort
// ---------------------------------------------------------------------------

// Reference: the comparator index-sort the radix pipeline replaces, plus
// the canonicalized sorted column RadixSortScored promises.
void ComparatorSort(const std::vector<double>& h, const std::vector<int>& gene,
                    std::vector<int>* order, std::vector<double>* sorted_h) {
  const int n = static_cast<int>(h.size());
  order->resize(h.size());
  sorted_h->resize(h.size());
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(), [&](int a, int b) {
    if (h[a] != h[b]) return h[a] < h[b];
    return gene[a] < gene[b];
  });
  for (int i = 0; i < n; ++i) {
    (*sorted_h)[i] = InverseOrderKey(OrderKey(h[(*order)[i]]));
  }
}

// Builds a miner-shaped scored column: two gene-ascending halves with
// disjoint gene sets ([0, split) even ids, [split, n) odd ids).
struct ScoredColumn {
  std::vector<double> h;
  std::vector<int> gene;
  int split = 0;
};

ScoredColumn MakeColumn(int n, int split, Prng* prng,
                        bool clustered_scores = false) {
  ScoredColumn col;
  col.split = split;
  col.h.resize(n);
  col.gene.resize(n);
  for (int i = 0; i < split; ++i) col.gene[i] = 2 * i;
  for (int i = split; i < n; ++i) col.gene[i] = 2 * (i - split) + 1;
  for (int i = 0; i < n; ++i) {
    col.h[i] = clustered_scores ? 1.0 + prng->Uniform(0.0, 1e-3)
                                : prng->Uniform(-10.0, 10.0);
  }
  return col;
}

void ExpectRadixMatchesComparator(const ScoredColumn& col) {
  const int n = static_cast<int>(col.h.size());
  std::vector<int> want_order;
  std::vector<double> want_h;
  ComparatorSort(col.h, col.gene, &want_order, &want_h);

  SortScratch scratch;
  std::vector<int> got_order(col.h.size());
  std::vector<double> got_h(col.h.size());
  RadixSortScored(col.h.data(), col.gene.data(), col.split, n,
                  got_order.data(), got_h.data(), &scratch);
  ASSERT_EQ(want_order, got_order) << "n=" << n << " split=" << col.split;
  // memcmp, not operator==: sorted_h must match bit for bit (-0.0 vs 0.0).
  // Guard n == 0 -- data() may be null there and memcmp(null, ...) is UB.
  if (n > 0) {
    ASSERT_EQ(0, std::memcmp(want_h.data(), got_h.data(),
                             want_h.size() * sizeof(double)))
        << "sorted_h differs, n=" << n;
  }
}

TEST(RadixSortTest, RadixMatchesComparatorAcrossSizes) {
  Prng prng(7);
  // Sizes bracketing every pipeline tier: insertion (<= 32), hybrid
  // (<= 320), full LSD, plus the empty and singleton edges.
  for (int n : {0, 1, 2, 3, 31, 32, 33, 64, 80, 127, 319, 320, 321, 1000}) {
    for (int rep = 0; rep < 8; ++rep) {
      const int split = static_cast<int>(prng.UniformInt(0, n));
      ExpectRadixMatchesComparator(MakeColumn(n, split, &prng));
    }
  }
}

TEST(RadixSortTest, RadixMatchesComparatorOnClusteredScores) {
  // The miner's real columns: tightly clustered values whose keys agree on
  // most high bytes (exercises the byte-skipping and the occupied-digit
  // range of the hybrid's prefix sums).
  Prng prng(11);
  for (int n : {40, 80, 160, 320, 640}) {
    for (int rep = 0; rep < 8; ++rep) {
      const int split = static_cast<int>(prng.UniformInt(0, n));
      ExpectRadixMatchesComparator(
          MakeColumn(n, split, &prng, /*clustered_scores=*/true));
    }
  }
}

TEST(RadixSortTest, RadixHandlesSignedZerosDenormalsAndTies) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  Prng prng(13);
  for (int n : {8, 33, 100, 400}) {
    ScoredColumn col = MakeColumn(n, n / 2, &prng);
    // Sprinkle the adversarial values, including exact duplicates so the
    // gene tiebreak (stability) is load-bearing.
    const double specials[] = {0.0,     -0.0,  denorm, -denorm, 1.0,
                               1.0,     -1.0,  5e-324, 2.5,     2.5,
                               -denorm, -0.0,  0.0,    1e-308};
    for (int i = 0; i < n; ++i) {
      if (i % 3 != 0) {
        col.h[i] = specials[static_cast<size_t>(i) % std::size(specials)];
      }
    }
    ExpectRadixMatchesComparator(col);
  }
}

TEST(RadixSortTest, RadixHandlesAllEqualColumn) {
  Prng prng(17);
  for (int n : {5, 64, 350}) {
    ScoredColumn col = MakeColumn(n, n / 3, &prng);
    std::fill(col.h.begin(), col.h.end(), 3.25);
    ExpectRadixMatchesComparator(col);  // pure gene-tiebreak permutation
  }
}

}  // namespace
}  // namespace util
}  // namespace regcluster
