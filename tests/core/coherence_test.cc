#include "core/coherence.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "testing/paper_data.h"
#include "util/bitset.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

using regcluster::testing::C;
using regcluster::testing::G;
using regcluster::testing::RunningDataset;

TEST(CoherenceScoreTest, PaperSection32Scores) {
  // Section 3.2: on the chain c7 c9 c5 c1 c3, all three genes share the
  // scores H(.,c7,c9,c7,c9)=1.0, H(.,c7,c9,c9,c5)=0.5, H(.,c7,c9,c5,c1)=1.0
  // and H(.,c7,c9,c1,c3)=0.5.
  const auto data = RunningDataset();
  for (int g = 0; g < 3; ++g) {
    const double* row = data.row_data(g);
    EXPECT_NEAR(CoherenceScore(row, C(7), C(9), C(7), C(9)), 1.0, 1e-12) << g;
    EXPECT_NEAR(CoherenceScore(row, C(7), C(9), C(9), C(5)), 0.5, 1e-12) << g;
    EXPECT_NEAR(CoherenceScore(row, C(7), C(9), C(5), C(1)), 1.0, 1e-12) << g;
    EXPECT_NEAR(CoherenceScore(row, C(7), C(9), C(1), C(3)), 0.5, 1e-12) << g;
  }
}

TEST(CoherenceScoreTest, PaperSection33OutlierScores) {
  // Section 3.3: on conditions c2, c10, c8 with baseline (c2, c10),
  // H(1,...) = H(3,...) = 0.5263 but H(2,...) = 4.6.
  const auto data = RunningDataset();
  EXPECT_NEAR(CoherenceScore(data.row_data(0), C(2), C(10), C(10), C(8)),
              0.5263, 1e-4);
  EXPECT_NEAR(CoherenceScore(data.row_data(2), C(2), C(10), C(10), C(8)),
              0.5263, 1e-4);
  EXPECT_NEAR(CoherenceScore(data.row_data(1), C(2), C(10), C(10), C(8)), 4.6,
              1e-12);
}

TEST(CoherenceScoreTest, PaperSection4PruningScores) {
  // Section 4: H(1,c2,c10,c10,c5) = H(3,...) = 0.5263 while H(2,...) = 2.
  const auto data = RunningDataset();
  EXPECT_NEAR(CoherenceScore(data.row_data(0), C(2), C(10), C(10), C(5)),
              0.5263, 1e-4);
  EXPECT_NEAR(CoherenceScore(data.row_data(2), C(2), C(10), C(10), C(5)),
              0.5263, 1e-4);
  EXPECT_NEAR(CoherenceScore(data.row_data(1), C(2), C(10), C(10), C(5)), 2.0,
              1e-12);
}

TEST(ChainScoresTest, FirstScoreIsAlwaysOne) {
  const auto data = RunningDataset();
  const std::vector<int> chain{C(7), C(9), C(5), C(1), C(3)};
  for (int g = 0; g < 3; ++g) {
    const auto scores = ChainCoherenceScores(data.row_data(g), chain);
    ASSERT_EQ(scores.size(), 4u);
    EXPECT_DOUBLE_EQ(scores[0], 1.0);
  }
}

TEST(ChainScoresTest, ShortChains) {
  const auto data = RunningDataset();
  EXPECT_TRUE(ChainCoherenceScores(data.row_data(0), {C(1)}).empty());
  EXPECT_TRUE(ChainCoherenceScores(data.row_data(0), {}).empty());
}

TEST(Lemma32Test, AffineGenesShareAllScores) {
  // Lemma 3.2, forward direction: if d_i = s1 * d_j + s2 then all adjacent
  // coherence scores agree -- including negative s1.
  util::Prng prng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(prng.UniformInt(3, 10));
    std::vector<double> base(static_cast<size_t>(n));
    base[0] = 0.0;
    for (int i = 1; i < n; ++i) {
      base[static_cast<size_t>(i)] =
          base[static_cast<size_t>(i - 1)] + prng.Uniform(0.5, 3.0);
    }
    const double s1 = prng.Bernoulli(0.5) ? prng.Uniform(0.2, 4.0)
                                          : -prng.Uniform(0.2, 4.0);
    const double s2 = prng.Uniform(-20, 20);
    std::vector<double> other(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      other[static_cast<size_t>(i)] = s1 * base[static_cast<size_t>(i)] + s2;
    }
    std::vector<int> chain(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) chain[static_cast<size_t>(i)] = i;
    const auto ha = ChainCoherenceScores(base.data(), chain);
    const auto hb = ChainCoherenceScores(other.data(), chain);
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t k = 0; k < ha.size(); ++k) {
      ASSERT_NEAR(ha[k], hb[k], 1e-9) << "trial " << trial << " k " << k;
    }
  }
}

TEST(Lemma32Test, EqualScoresImplyAffineRelationship) {
  // Lemma 3.2, reverse direction: genes with identical scores fit
  // d_i = s1 * d_j + s2 exactly.
  const auto data = RunningDataset();
  const std::vector<int> conds{C(5), C(1), C(3), C(9), C(7)};
  double s1 = 0, s2 = 0;
  ASSERT_TRUE(FitPairShiftScale(data, G(3), G(1), conds, &s1, &s2));
  EXPECT_NEAR(s1, 2.5, 1e-9);   // d_1 = 2.5 * d_3 - 5 (Section 1.1)
  EXPECT_NEAR(s2, -5.0, 1e-9);

  ASSERT_TRUE(FitPairShiftScale(data, G(3), G(2), conds, &s1, &s2));
  EXPECT_NEAR(s1, -2.5, 1e-9);  // d_2 = -2.5 * d_3 + 35
  EXPECT_NEAR(s2, 35.0, 1e-9);

  ASSERT_TRUE(FitPairShiftScale(data, G(1), G(2), conds, &s1, &s2));
  EXPECT_NEAR(s1, -1.0, 1e-9);  // d_2 = -d_1 + 30
  EXPECT_NEAR(s2, 30.0, 1e-9);
}

// ---------------------------------------------------------------------------
// ValidateRegCluster oracle.
// ---------------------------------------------------------------------------

TEST(ValidateTest, AcceptsThePaperCluster) {
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = regcluster::testing::ExpectedChain();
  c.p_genes = regcluster::testing::ExpectedPMembers();
  c.n_genes = regcluster::testing::ExpectedNMembers();
  std::string why;
  EXPECT_TRUE(ValidateRegCluster(data, c, 0.15, 0.1, &why)) << why;
  // Also valid at epsilon = 0: the pattern is perfect.
  EXPECT_TRUE(ValidateRegCluster(data, c, 0.15, 0.0, &why)) << why;
}

TEST(ValidateTest, RejectsWrongDirection) {
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = regcluster::testing::ExpectedChain();
  c.p_genes = {G(2)};  // g2 decreases along this chain
  std::string why;
  EXPECT_FALSE(ValidateRegCluster(data, c, 0.15, 0.1, &why));
  EXPECT_NE(why.find("regulated"), std::string::npos);
}

TEST(ValidateTest, RejectsUnregulatedStep) {
  // Figure 4: c4 and c8 are not regulated for g2 at gamma = 0.15.
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = {C(2), C(10), C(8), C(4)};  // increasing for g2: 15,20,43,43.5
  c.p_genes = {G(2)};
  EXPECT_FALSE(ValidateRegCluster(data, c, 0.15, 10.0));
  // At gamma = 0 the steps are strictly positive, so it validates.
  EXPECT_TRUE(ValidateRegCluster(data, c, 0.0, 10.0));
}

TEST(ValidateTest, RejectsIncoherentOutlier) {
  // Figure 4: {g1, g2, g3} x (c2 c10 c8 c4) -- g2 breaks coherence.
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = {C(2), C(10), C(8), C(4)};
  c.p_genes = {G(1), G(2), G(3)};  // all increase along the chain
  std::string why;
  EXPECT_FALSE(ValidateRegCluster(data, c, 0.0, 0.1, &why));
  EXPECT_NE(why.find("coherence"), std::string::npos);
  // Without g2 the remaining pair is perfectly coherent.
  c.p_genes = {G(1), G(3)};
  EXPECT_TRUE(ValidateRegCluster(data, c, 0.0, 0.1, &why)) << why;
}

TEST(ValidateTest, RejectsTrivialChains) {
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = {C(1)};
  c.p_genes = {G(1)};
  EXPECT_FALSE(ValidateRegCluster(data, c, 0.15, 0.1));
}

TEST(ValidateTest, RejectsOutOfRangeCondition) {
  const auto data = RunningDataset();
  RegCluster c;
  c.chain = {0, 99};
  c.p_genes = {0};
  EXPECT_FALSE(ValidateRegCluster(data, c, 0.15, 0.1));
}


// The score panel's entries against the two-step form: gather the
// numerator row[c] - row[head] into a column, then divide the column by
// the denominators.  Same IEEE operations, same
// order, so the bits must agree -- on wide rows (several words), on masks
// with a whole word cleared (members live only there are skipped) and with
// negative denominators (n-members).
TEST(ScorePanelTest, EntriesEqualGatherThenDivideBitForBit) {
  util::Prng prng(29);
  for (const int num_conds : {5, 64, 65, 150}) {
    const int num_genes = 40;
    const int words = util::WordsForBits(num_conds);
    std::vector<double> matrix(static_cast<size_t>(num_genes) * num_conds);
    for (double& v : matrix) v = prng.Uniform(-5.0, 5.0);
    for (const bool clear_first_word : {false, true}) {
      const int count = static_cast<int>(prng.UniformInt(0, 30));
      std::vector<int> gene;
      std::vector<double> denom;
      std::vector<uint64_t> live(static_cast<size_t>(count) * words, 0);
      for (int i = 0; i < count; ++i) {
        gene.push_back(static_cast<int>(prng.UniformInt(0, num_genes - 1)));
        denom.push_back(prng.Uniform(0.5, 4.0) * (i % 3 == 0 ? -1.0 : 1.0));
        for (int c = 0; c < num_conds; ++c) {
          if (prng.Uniform(0.0, 1.0) < 0.4) {
            util::SetBit(live.data() + static_cast<size_t>(i) * words, c);
          }
        }
      }
      std::vector<uint64_t> mask(static_cast<size_t>(words), 0);
      for (int c = 0; c < num_conds; ++c) {
        if (prng.Uniform(0.0, 1.0) < 0.7) util::SetBit(mask.data(), c);
      }
      if (clear_first_word) mask[0] = 0;
      const int head = static_cast<int>(prng.UniformInt(0, num_conds - 1));

      // Reference: per column, in member order, numerator then divide.
      std::vector<int> cursor(static_cast<size_t>(num_conds));
      std::vector<double> ref_h;
      std::vector<int32_t> ref_idx;
      for (int c = 0; c < num_conds; ++c) {
        cursor[static_cast<size_t>(c)] = static_cast<int>(ref_h.size());
        if (!util::TestBit(mask.data(), c)) continue;
        for (int i = 0; i < count; ++i) {
          if (!util::TestBit(live.data() + static_cast<size_t>(i) * words,
                             c)) {
            continue;
          }
          const double* row = matrix.data() + gene[i] * num_conds;
          const double v = row[c] - row[head];
          ref_h.push_back(v / denom[static_cast<size_t>(i)]);
          ref_idx.push_back(i);
        }
      }

      std::vector<double> h(ref_h.size() + 1, -7.0);
      std::vector<int32_t> idx(ref_idx.size() + 1, -7);
      const PanelMembers members{gene.data(), denom.data(), live.data(), count,
                                 words};
      FillScorePanel(members, matrix.data(), num_conds, head, mask.data(),
                     cursor.data(), h.data(), idx.data());
      ASSERT_EQ(ref_h.size() + 1, h.size());
      // An empty reference (a one-word mask cleared) has a null data().
      EXPECT_EQ(0, ref_h.empty() ? 0
                                 : std::memcmp(ref_h.data(), h.data(),
                                               ref_h.size() * sizeof(double)))
          << "conds=" << num_conds << " clear_first_word=" << clear_first_word;
      EXPECT_EQ(std::vector<int32_t>(idx.begin(), idx.end() - 1), ref_idx);
      EXPECT_EQ(h.back(), -7.0);  // nothing written past the last entry
      EXPECT_EQ(idx.back(), -7);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace regcluster
