#include "core/bicluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

RegCluster MakeCluster(std::vector<int> chain, std::vector<int> p,
                       std::vector<int> n) {
  RegCluster c;
  c.chain = std::move(chain);
  c.p_genes = std::move(p);
  c.n_genes = std::move(n);
  return c;
}

TEST(RegClusterTest, Counts) {
  const RegCluster c = MakeCluster({6, 8, 4}, {0, 2}, {1});
  EXPECT_EQ(c.num_genes(), 3);
  EXPECT_EQ(c.num_conditions(), 3);
}

TEST(RegClusterTest, AllGenesMergesSorted) {
  const RegCluster c = MakeCluster({1, 2}, {0, 4, 9}, {2, 7});
  EXPECT_EQ(c.AllGenes(), (std::vector<int>{0, 2, 4, 7, 9}));
}

TEST(RegClusterTest, SortedConditions) {
  const RegCluster c = MakeCluster({6, 8, 4, 0, 2}, {0}, {});
  EXPECT_EQ(c.SortedConditions(), (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(RegClusterTest, KeyDistinguishesChainOrder) {
  const RegCluster a = MakeCluster({1, 2, 3}, {0}, {5});
  const RegCluster b = MakeCluster({3, 2, 1}, {0}, {5});
  EXPECT_NE(a.Key(), b.Key());
}

TEST(RegClusterTest, KeyIgnoresPnSplit) {
  // Key identifies (chain, gene set); the p/n split is determined by the
  // chain direction, so two nodes with the same chain+genes are duplicates.
  const RegCluster a = MakeCluster({1, 2, 3}, {0, 5}, {});
  const RegCluster b = MakeCluster({1, 2, 3}, {0}, {5});
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(ToBiclusterTest, Converts) {
  const Bicluster b = ToBicluster(MakeCluster({6, 8, 4}, {0, 2}, {1}));
  EXPECT_EQ(b.genes, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(b.conditions, (std::vector<int>{4, 6, 8}));
  EXPECT_EQ(b.NumCells(), 9);
}

TEST(SharedCellsTest, Basic) {
  Bicluster a{{0, 1, 2}, {0, 1}};
  Bicluster b{{1, 2, 3}, {1, 2}};
  EXPECT_EQ(SharedCells(a, b), 2);  // genes {1,2} x conds {1}
}

TEST(SharedCellsTest, Disjoint) {
  Bicluster a{{0, 1}, {0, 1}};
  Bicluster b{{2, 3}, {0, 1}};
  EXPECT_EQ(SharedCells(a, b), 0);
}

TEST(OverlapFractionTest, RelativeToSmaller) {
  Bicluster big{{0, 1, 2, 3}, {0, 1, 2, 3}};   // 16 cells
  Bicluster small{{0, 1}, {0, 1}};             // 4 cells, fully inside
  EXPECT_DOUBLE_EQ(OverlapFraction(big, small), 1.0);
  EXPECT_DOUBLE_EQ(OverlapFraction(small, big), 1.0);
}

TEST(OverlapFractionTest, PartialAndEmpty) {
  Bicluster a{{0, 1}, {0, 1}};
  Bicluster b{{1, 2}, {1, 2}};
  EXPECT_DOUBLE_EQ(OverlapFraction(a, b), 0.25);
  Bicluster empty;
  EXPECT_DOUBLE_EQ(OverlapFraction(a, empty), 0.0);
}

TEST(IsSubclusterTest, Basic) {
  Bicluster inner{{1, 2}, {3}};
  Bicluster outer{{0, 1, 2}, {3, 4}};
  EXPECT_TRUE(IsSubcluster(inner, outer));
  EXPECT_FALSE(IsSubcluster(outer, inner));
  EXPECT_TRUE(IsSubcluster(inner, inner));
}

TEST(IsDominatedTest, PrefixChainAndSubsetGenes) {
  const RegCluster small = MakeCluster({1, 2, 3}, {0, 5}, {});
  const RegCluster big = MakeCluster({1, 2, 3, 4}, {0, 5, 7}, {});
  EXPECT_TRUE(IsDominated(small, big));
  EXPECT_FALSE(IsDominated(big, small));
}

TEST(IsDominatedTest, InfixChain) {
  const RegCluster small = MakeCluster({2, 3}, {0}, {});
  const RegCluster big = MakeCluster({1, 2, 3, 4}, {0, 1}, {});
  EXPECT_TRUE(IsDominated(small, big));
}

TEST(IsDominatedTest, ReversedChainCounts) {
  const RegCluster small = MakeCluster({3, 2}, {0}, {});
  const RegCluster big = MakeCluster({1, 2, 3, 4}, {0, 1}, {});
  EXPECT_TRUE(IsDominated(small, big));
}

TEST(IsDominatedTest, NonContiguousChainDoesNotDominate) {
  const RegCluster small = MakeCluster({1, 3}, {0}, {});
  const RegCluster big = MakeCluster({1, 2, 3}, {0, 1}, {});
  EXPECT_FALSE(IsDominated(small, big));
}

TEST(IsDominatedTest, GeneSupersetBlocksDomination) {
  const RegCluster small = MakeCluster({1, 2}, {0, 9}, {});
  const RegCluster big = MakeCluster({1, 2, 3}, {0, 1}, {});
  EXPECT_FALSE(IsDominated(small, big));  // gene 9 not in big
}

TEST(RemoveDominatedTest, DropsContainedAndDuplicates) {
  std::vector<RegCluster> clusters{
      MakeCluster({1, 2, 3, 4}, {0, 1, 2}, {}),  // keeper
      MakeCluster({2, 3}, {0, 1}, {}),           // dominated by keeper
      MakeCluster({1, 2, 3, 4}, {0, 1, 2}, {}),  // exact duplicate
      MakeCluster({5, 6}, {8, 9}, {}),           // independent
  };
  const auto out = RemoveDominated(clusters);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].chain, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(out[1].chain, (std::vector<int>{5, 6}));
}

TEST(RemoveDominatedTest, EmptyInput) {
  EXPECT_TRUE(RemoveDominated({}).empty());
}

// ---------------------------------------------------------------------------
// Differential battery: RemoveDominated and IsDominated against the original
// quadratic pass, which rebuilt both member lists and a reversed chain copy
// for every pair.  This is the only copy of that algorithm; it is the
// reference, not a second implementation.

namespace reference {

bool IsContiguousSubsequence(const std::vector<int>& sub,
                             const std::vector<int>& seq) {
  if (sub.empty()) return true;
  if (sub.size() > seq.size()) return false;
  return std::search(seq.begin(), seq.end(), sub.begin(), sub.end()) !=
         seq.end();
}

bool IsDominated(const RegCluster& a, const RegCluster& b) {
  const std::vector<int> a_genes = a.AllGenes();
  const std::vector<int> b_genes = b.AllGenes();
  if (!std::includes(b_genes.begin(), b_genes.end(), a_genes.begin(),
                     a_genes.end())) {
    return false;
  }
  if (IsContiguousSubsequence(a.chain, b.chain)) return true;
  std::vector<int> reversed(b.chain.rbegin(), b.chain.rend());
  return IsContiguousSubsequence(a.chain, reversed);
}

std::vector<RegCluster> RemoveDominated(std::vector<RegCluster> clusters) {
  std::vector<bool> dead(clusters.size(), false);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < clusters.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (clusters[i] == clusters[j]) {
        if (j > i) dead[j] = true;
        continue;
      }
      if (reference::IsDominated(clusters[j], clusters[i])) dead[j] = true;
    }
  }
  std::vector<RegCluster> out;
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (!dead[i]) out.push_back(std::move(clusters[i]));
  }
  return out;
}

}  // namespace reference

/// Expects RemoveDominated to match the reference exactly, order included,
/// and IsDominated to agree with it on every ordered pair.
void ExpectMatchesReference(const std::vector<RegCluster>& clusters) {
  EXPECT_EQ(RemoveDominated(clusters), reference::RemoveDominated(clusters));
  for (size_t a = 0; a < clusters.size(); ++a) {
    for (size_t b = 0; b < clusters.size(); ++b) {
      ASSERT_EQ(IsDominated(clusters[a], clusters[b]),
                reference::IsDominated(clusters[a], clusters[b]))
          << "pair (" << a << ", " << b << ")";
    }
  }
}

int Pick(util::Prng* rng, int lo, int hi) {
  return static_cast<int>(rng->UniformInt(lo, hi));
}

/// Splits sorted `genes` into p- and n-members at random.
RegCluster SplitCluster(util::Prng* rng, std::vector<int> chain,
                        const std::vector<int>& genes) {
  RegCluster c;
  c.chain = std::move(chain);
  for (int g : genes) {
    (rng->Bernoulli(0.7) ? c.p_genes : c.n_genes).push_back(g);
  }
  return c;
}

/// A cluster that `base` dominates: a contiguous piece of its chain (forward
/// or reversed) and a random subset of its members.
RegCluster ShrinkCluster(util::Prng* rng, const RegCluster& base,
                         double drop) {
  std::vector<int> chain = base.chain;
  if (rng->Bernoulli(0.5)) std::reverse(chain.begin(), chain.end());
  if (!chain.empty()) {
    const int first = Pick(rng, 0, static_cast<int>(chain.size()) - 1);
    const int last = Pick(rng, first, static_cast<int>(chain.size()) - 1);
    chain = std::vector<int>(chain.begin() + first, chain.begin() + last + 1);
  }
  std::vector<int> genes;
  for (int g : base.AllGenes()) {
    if (!rng->Bernoulli(drop)) genes.push_back(g);
  }
  return SplitCluster(rng, std::move(chain), genes);
}

/// Small random clusters over genes [0, 140) -- so g and g + 64 collide in
/// the member signature and ids 63/64/65 are common -- and conditions
/// [0, 8), mixed with derived near-misses: duplicates, reversed-chain twins,
/// p/n re-splits, dominated shrinks, shrinks plus one outside gene, and
/// empty chains or member lists.
std::vector<RegCluster> MixedClusters(uint64_t seed) {
  util::Prng rng(seed);
  std::vector<RegCluster> out;
  const int n = Pick(&rng, 1, 40);
  for (int k = 0; k < n; ++k) {
    if (out.empty() || rng.Bernoulli(0.3)) {
      std::vector<int> chain =
          rng.SampleWithoutReplacement(8, Pick(&rng, 0, 6));
      rng.Shuffle(&chain);
      std::vector<int> genes;
      if (rng.Bernoulli(0.5)) {
        genes = rng.SampleWithoutReplacement(140, Pick(&rng, 0, 12));
      } else {
        // Signature twins: ids around 63/64/65 and g / g + 64.
        for (int g : {1, 63, 64, 65, 127, 128, 129}) {
          if (rng.Bernoulli(0.6)) genes.push_back(g);
        }
      }
      out.push_back(SplitCluster(&rng, std::move(chain), genes));
      continue;
    }
    const RegCluster base = out[static_cast<size_t>(
        Pick(&rng, 0, static_cast<int>(out.size()) - 1))];
    switch (Pick(&rng, 0, 5)) {
      case 0:  // exact duplicate
        out.push_back(base);
        break;
      case 1: {  // reversed-chain twin, same members
        RegCluster c = base;
        std::reverse(c.chain.begin(), c.chain.end());
        out.push_back(std::move(c));
        break;
      }
      case 2:  // same chain and member union, another p/n split
        out.push_back(SplitCluster(&rng, base.chain, base.AllGenes()));
        break;
      case 3:
        out.push_back(ShrinkCluster(&rng, base, 0.3));
        break;
      case 4: {  // a shrink plus one member the base may lack
        RegCluster c = ShrinkCluster(&rng, base, 0.3);
        const int extra = Pick(&rng, 0, 139);
        if (std::find(c.p_genes.begin(), c.p_genes.end(), extra) ==
                c.p_genes.end() &&
            std::find(c.n_genes.begin(), c.n_genes.end(), extra) ==
                c.n_genes.end()) {
          c.p_genes.insert(
              std::upper_bound(c.p_genes.begin(), c.p_genes.end(), extra),
              extra);
        }
        out.push_back(std::move(c));
        break;
      }
      default: {  // empty chain or empty member list
        RegCluster c = base;
        if (rng.Bernoulli(0.5)) {
          c.chain.clear();
        } else {
          c.p_genes.clear();
          c.n_genes.clear();
        }
        out.push_back(std::move(c));
        break;
      }
    }
  }
  // Derived clusters land at random positions, before or after their base.
  rng.Shuffle(&out);
  return out;
}

TEST(RemoveDominatedDifferentialTest, MixedRandomSets) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    ExpectMatchesReference(MixedClusters(seed));
  }
}

TEST(RemoveDominatedDifferentialTest, DuplicatesKeepTheEarliest) {
  const RegCluster a = MakeCluster({1, 2, 3}, {0, 64}, {65});
  const RegCluster b = MakeCluster({4, 5}, {1}, {2});
  const std::vector<RegCluster> in{b, a, b, a, a, b};
  const std::vector<RegCluster> out = RemoveDominated(in);
  EXPECT_EQ(out, (std::vector<RegCluster>{b, a}));
  EXPECT_EQ(out, reference::RemoveDominated(in));
}

TEST(RemoveDominatedDifferentialTest, MutualDominanceKeepsTheEarlier) {
  const RegCluster fwd = MakeCluster({1, 2, 3}, {0, 5}, {7});
  const RegCluster rev = MakeCluster({3, 2, 1}, {0, 5}, {7});
  const RegCluster resplit = MakeCluster({1, 2, 3}, {0}, {5, 7});
  for (const auto& in : std::vector<std::vector<RegCluster>>{
           {fwd, rev}, {rev, fwd}, {fwd, resplit}, {resplit, fwd},
           {resplit, rev, fwd}}) {
    const std::vector<RegCluster> out = RemoveDominated(in);
    EXPECT_EQ(out, (std::vector<RegCluster>{in[0]}));
    EXPECT_EQ(out, reference::RemoveDominated(in));
  }
}

TEST(RemoveDominatedDifferentialTest, NestedChainsInEveryOrder) {
  std::vector<RegCluster> in{
      MakeCluster({2, 3}, {0}, {64}),                   // A
      MakeCluster({1, 2, 3}, {0, 63}, {64}),            // B, contains A
      MakeCluster({4, 3, 2, 1, 0}, {0, 63}, {64, 65}),  // C, contains B
  };
  const auto by_chain = [](const RegCluster& x, const RegCluster& y) {
    return x.chain < y.chain;
  };
  std::sort(in.begin(), in.end(), by_chain);
  do {
    const std::vector<RegCluster> out = RemoveDominated(in);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].chain.size(), 5u);
    EXPECT_EQ(out, reference::RemoveDominated(in));
  } while (std::next_permutation(in.begin(), in.end(), by_chain));
}

TEST(RemoveDominatedDifferentialTest, SignatureCollisionsAreNotSubsets) {
  // {1} and {65} share signature bit 1; {0, 64} and {64} share bit 0.
  const std::vector<RegCluster> in{
      MakeCluster({1, 2}, {65}, {}), MakeCluster({1, 2}, {1}, {}),
      MakeCluster({1, 2}, {0, 64}, {}), MakeCluster({1}, {64}, {}),
      MakeCluster({1}, {128}, {}), MakeCluster({}, {}, {}),
      MakeCluster({3}, {}, {}), MakeCluster({}, {63}, {})};
  ExpectMatchesReference(in);
  // Only {1}:{64} (inside {1,2}:{0,64}) and the empty cluster die.
  EXPECT_EQ(RemoveDominated(in),
            (std::vector<RegCluster>{in[0], in[1], in[2], in[4], in[6],
                                     in[7]}));
}

/// About 200 clusters of about 1,000 of 1,500 genes over 30 conditions, the
/// shape of a time-course mine: most are fresh, the rest copy, reverse,
/// re-split or shrink an earlier one, and some shrinks gain a gene.
std::vector<RegCluster> TimeCourseClusters(uint64_t seed) {
  util::Prng rng(seed);
  std::vector<RegCluster> out;
  for (int k = 0; k < 200; ++k) {
    if (k < 10 || rng.Bernoulli(0.7)) {
      std::vector<int> chain =
          rng.SampleWithoutReplacement(30, Pick(&rng, 6, 12));
      rng.Shuffle(&chain);
      out.push_back(SplitCluster(
          &rng, std::move(chain),
          rng.SampleWithoutReplacement(1500, Pick(&rng, 900, 1100))));
      continue;
    }
    const RegCluster& base = out[static_cast<size_t>(
        Pick(&rng, 0, static_cast<int>(out.size()) - 1))];
    switch (Pick(&rng, 0, 5)) {
      case 0:
        out.push_back(base);
        break;
      case 1: {
        RegCluster c = base;
        std::reverse(c.chain.begin(), c.chain.end());
        out.push_back(std::move(c));
        break;
      }
      case 2:
        out.push_back(SplitCluster(&rng, base.chain, base.AllGenes()));
        break;
      case 3: {
        RegCluster c = ShrinkCluster(&rng, base, 0.02);
        c.n_genes.push_back(1500 + k);  // outside every base
        out.push_back(std::move(c));
        break;
      }
      default:
        out.push_back(ShrinkCluster(&rng, base, 0.02));
        break;
    }
  }
  return out;
}

TEST(RemoveDominatedDifferentialTest, TimeCourseShapedSet) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const std::vector<RegCluster> in = TimeCourseClusters(seed);
    const std::vector<RegCluster> out = RemoveDominated(in);
    EXPECT_EQ(out, reference::RemoveDominated(in));
    // Non-trivial: some clusters die, many survive.
    EXPECT_LT(out.size(), in.size());
    EXPECT_GT(out.size(), in.size() / 10);
  }
}

}  // namespace
}  // namespace core
}  // namespace regcluster
