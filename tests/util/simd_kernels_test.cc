// Property tests for the runtime-dispatched SIMD kernel layer.
//
// The layer's contract is *bit-identical output across levels*: every
// accelerated kernel must reproduce the scalar reference exactly, and the
// radix sort pipeline must reproduce the legacy comparator std::sort byte
// for byte.  The suites here drive the edge cases where that contract is
// easiest to break -- signed zeros, denormals, equal-score ties, negative
// values (key complementing), and bitset rows straddling the 64-bit word
// boundary -- and run every compiled-in level against the scalar kernels.
// The ASan+UBSan CI job runs this binary to catch out-of-bounds lanes and
// misaligned vector loads.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "util/bitset.h"
#include "util/prng.h"
#include "util/simd/dispatch.h"
#include "util/simd/radix_sort.h"

namespace regcluster {
namespace util {
namespace simd {
namespace {

// Every level compiled in and supported on this machine.  Scalar is always
// present; accelerated levels join when the build + CPU allow.
std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  for (Level l : {Level::kAvx2, Level::kNeon}) {
    if (LevelAvailable(l)) levels.push_back(l);
  }
  return levels;
}

const SimdOps& OpsFor(Level level) {
  EXPECT_TRUE(SetLevel(level).ok());
  const SimdOps& ops = Ops();
  EXPECT_EQ(ops.level, level);
  return ops;
}

// Restores auto-detection after each test so suites cannot leak a pinned
// level into each other.
class SimdKernelsTest : public ::testing::Test {
 protected:
  ~SimdKernelsTest() override { EXPECT_TRUE(ApplySimdFlag("auto").ok()); }
};

// ---------------------------------------------------------------------------
// OrderKey / InverseOrderKey
// ---------------------------------------------------------------------------

TEST_F(SimdKernelsTest, OrderKeyPreservesNumericOrder) {
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

TEST_F(SimdKernelsTest, OrderKeyCollapsesSignedZeros) {
  EXPECT_EQ(OrderKey(0.0), OrderKey(-0.0));
}

TEST_F(SimdKernelsTest, InverseOrderKeyRoundTripsExactly) {
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

// Reference: the legacy comparator index-sort the radix pipeline replaces,
// plus the canonicalized sorted column every level promises.
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

TEST_F(SimdKernelsTest, RadixMatchesComparatorAcrossSizes) {
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

TEST_F(SimdKernelsTest, RadixMatchesComparatorOnClusteredScores) {
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

TEST_F(SimdKernelsTest, RadixHandlesSignedZerosDenormalsAndTies) {
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

TEST_F(SimdKernelsTest, RadixHandlesAllEqualColumn) {
  Prng prng(17);
  for (int n : {5, 64, 350}) {
    ScoredColumn col = MakeColumn(n, n / 3, &prng);
    std::fill(col.h.begin(), col.h.end(), 3.25);
    ExpectRadixMatchesComparator(col);  // pure gene-tiebreak permutation
  }
}

// ---------------------------------------------------------------------------
// Cross-level differentials: every kernel vs the scalar reference
// ---------------------------------------------------------------------------

TEST_F(SimdKernelsTest, SortScoredBitIdenticalAcrossLevels) {
  Prng prng(19);
  for (int n : {0, 1, 7, 32, 64, 80, 321, 700}) {
    const int split = static_cast<int>(prng.UniformInt(0, n));
    const ScoredColumn col = MakeColumn(n, split, &prng);
    std::vector<int> ref_order(col.h.size());
    std::vector<double> ref_h(col.h.size());
    SortScratch scratch;
    OpsFor(Level::kScalar)
        .sort_scored(col.h.data(), col.gene.data(), split, n, ref_order.data(),
                     ref_h.data(), &scratch);
    for (Level level : AvailableLevels()) {
      std::vector<int> order(col.h.size());
      std::vector<double> sorted_h(col.h.size());
      OpsFor(level).sort_scored(col.h.data(), col.gene.data(), split, n,
                                order.data(), sorted_h.data(), &scratch);
      EXPECT_EQ(ref_order, order) << LevelName(level) << " n=" << n;
      if (n > 0) {  // data() may be null at n == 0; memcmp(null, ...) is UB
        EXPECT_EQ(0, std::memcmp(ref_h.data(), sorted_h.data(),
                                 ref_h.size() * sizeof(double)))
            << LevelName(level) << " n=" << n;
      }
    }
  }
}

TEST_F(SimdKernelsTest, BitsetKernelsBitIdenticalAcrossLevels) {
  Prng prng(31);
  // Word counts straddling the 64-bit boundary (bits 63/64/65 live in 1, 1,
  // and 2 words) and the kWideRowWords dispatch threshold.
  for (int bits : {63, 64, 65, 128, 500, 1024}) {
    const int words = WordsForBits(bits);
    std::vector<uint64_t> a(static_cast<size_t>(words));
    std::vector<uint64_t> b(static_cast<size_t>(words));
    std::vector<uint64_t> mask(static_cast<size_t>(words));
    for (int w = 0; w < words; ++w) {
      a[w] = prng.Next64();
      b[w] = prng.Next64();
      mask[w] = prng.Next64();
    }

    std::vector<uint64_t> ref_and(static_cast<size_t>(words));
    std::vector<uint64_t> ref_or = mask;
    std::vector<uint64_t> ref_copy(static_cast<size_t>(words), 0xABu);
    const SimdOps& scalar = OpsFor(Level::kScalar);
    scalar.and_words(ref_and.data(), a.data(), b.data(), words);
    scalar.or_words_into(ref_or.data(), a.data(), words);
    scalar.copy_words(ref_copy.data(), b.data(), words);

    for (Level level : AvailableLevels()) {
      const SimdOps& ops = OpsFor(level);
      std::vector<uint64_t> got_and(static_cast<size_t>(words));
      std::vector<uint64_t> got_or = mask;
      std::vector<uint64_t> got_copy(static_cast<size_t>(words), 0xABu);
      ops.and_words(got_and.data(), a.data(), b.data(), words);
      ops.or_words_into(got_or.data(), a.data(), words);
      ops.copy_words(got_copy.data(), b.data(), words);
      EXPECT_EQ(ref_and, got_and) << LevelName(level) << " bits=" << bits;
      EXPECT_EQ(ref_or, got_or) << LevelName(level) << " bits=" << bits;
      EXPECT_EQ(ref_copy, got_copy) << LevelName(level) << " bits=" << bits;

      // The Auto wrappers must agree with direct dispatch at every width
      // (they inline the scalar loop below kWideRowWords).
      std::vector<uint64_t> auto_and(static_cast<size_t>(words));
      AndWordsAuto(ops, auto_and.data(), a.data(), b.data(), words);
      EXPECT_EQ(ref_and, auto_and) << LevelName(level) << " bits=" << bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST_F(SimdKernelsTest, ParseLevelAcceptsKnownNamesOnly) {
  for (const auto& [name, level] :
       {std::pair<const char*, Level>{"scalar", Level::kScalar},
        {"avx2", Level::kAvx2},
        {"neon", Level::kNeon}}) {
    auto parsed = ParseLevel(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, level);
    EXPECT_STREQ(LevelName(level), name);
  }
  EXPECT_TRUE(ParseLevel("auto").ok());
  for (const char* bad : {"", "AVX2", "sse", "scalar ", "3"}) {
    EXPECT_FALSE(ParseLevel(bad).ok()) << "'" << bad << "'";
  }
}

TEST_F(SimdKernelsTest, SetLevelRejectsUnavailableLevels) {
  ASSERT_TRUE(SetLevel(Level::kScalar).ok());
  EXPECT_EQ(CurrentLevel(), Level::kScalar);
  for (Level l : {Level::kAvx2, Level::kNeon}) {
    if (LevelAvailable(l)) {
      EXPECT_TRUE(SetLevel(l).ok());
      EXPECT_EQ(CurrentLevel(), l);
    } else {
      EXPECT_FALSE(SetLevel(l).ok());
      // A failed pin leaves the current set unchanged.
      EXPECT_NE(CurrentLevel(), l);
    }
  }
}

TEST_F(SimdKernelsTest, ApplySimdFlagRoutesNames) {
  ASSERT_TRUE(ApplySimdFlag("scalar").ok());
  EXPECT_EQ(CurrentLevel(), Level::kScalar);
  ASSERT_TRUE(ApplySimdFlag("auto").ok());
  EXPECT_EQ(CurrentLevel(), DetectBestLevel());
  EXPECT_FALSE(ApplySimdFlag("turbo").ok());
}

TEST_F(SimdKernelsTest, DetectBestLevelIsAvailable) {
  EXPECT_TRUE(LevelAvailable(DetectBestLevel()));
  EXPECT_TRUE(LevelAvailable(Level::kScalar));
}

}  // namespace
}  // namespace simd
}  // namespace util
}  // namespace regcluster
