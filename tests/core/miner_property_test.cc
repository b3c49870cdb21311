// Property-based tests of the miner over randomized inputs and a parameter
// sweep: every emitted cluster must satisfy Definition 3.2 (checked by the
// independent first-principles oracle), meet the size thresholds, be
// representative, and be emitted exactly once.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/coherence.h"
#include "core/miner.h"
#include "matrix/expression_matrix.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

struct SweepParams {
  double gamma;
  double epsilon;
  int min_genes;
  int min_conditions;
  uint64_t seed;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParams>& info) {
  const SweepParams& p = info.param;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "g%02d_e%03d_MinG%d_MinC%d_s%d",
                static_cast<int>(p.gamma * 100),
                static_cast<int>(p.epsilon * 100), p.min_genes,
                p.min_conditions, static_cast<int>(p.seed));
  return buf;
}

matrix::ExpressionMatrix RandomMatrix(uint64_t seed, int genes, int conds) {
  util::Prng prng(seed);
  matrix::ExpressionMatrix m(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) m(g, c) = prng.Uniform(0, 10);
  }
  return m;
}

class MinerSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(MinerSweep, AllOutputsSatisfyDefinition32) {
  const SweepParams& p = GetParam();
  const auto data = RandomMatrix(p.seed, 40, 12);
  MinerOptions o;
  o.gamma = p.gamma;
  o.epsilon = p.epsilon;
  o.min_genes = p.min_genes;
  o.min_conditions = p.min_conditions;
  RegClusterMiner miner(data, o);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();

  std::set<std::string> keys;
  for (const RegCluster& c : *clusters) {
    // Size thresholds.
    EXPECT_GE(c.num_genes(), p.min_genes);
    EXPECT_GE(c.num_conditions(), p.min_conditions);
    // Representative: p-members dominate or tie.
    EXPECT_GE(c.p_genes.size(), c.n_genes.size());
    // Exactly-once emission.
    EXPECT_TRUE(keys.insert(c.Key()).second) << "duplicate " << c.Key();
    // Definition 3.2 from first principles.
    std::string why;
    EXPECT_TRUE(ValidateRegCluster(data, c, p.gamma, p.epsilon, &why)) << why;
  }
}

TEST_P(MinerSweep, InvertedChainNeverAlsoEmitted) {
  const SweepParams& p = GetParam();
  const auto data = RandomMatrix(p.seed ^ 0xabcdef, 30, 10);
  MinerOptions o;
  o.gamma = p.gamma;
  o.epsilon = p.epsilon;
  o.min_genes = p.min_genes;
  o.min_conditions = p.min_conditions;
  RegClusterMiner miner(data, o);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok());
  // A cluster and its mirror (reversed chain, p/n swapped) describe the same
  // pattern; the representative rule must pick exactly one.
  std::set<std::string> keys;
  for (const RegCluster& c : *clusters) keys.insert(c.Key());
  for (const RegCluster& c : *clusters) {
    RegCluster mirror;
    mirror.chain.assign(c.chain.rbegin(), c.chain.rend());
    mirror.p_genes = c.n_genes;
    mirror.n_genes = c.p_genes;
    EXPECT_EQ(keys.count(mirror.Key()), 0u)
        << "both directions emitted for " << c.Key();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamSweep, MinerSweep,
    ::testing::Values(
        SweepParams{0.0, 0.0, 2, 2, 1}, SweepParams{0.0, 0.1, 2, 3, 2},
        SweepParams{0.05, 0.05, 2, 3, 3}, SweepParams{0.1, 0.1, 3, 3, 4},
        SweepParams{0.1, 0.5, 2, 4, 5}, SweepParams{0.15, 0.1, 3, 4, 6},
        SweepParams{0.2, 1.0, 2, 3, 7}, SweepParams{0.3, 0.2, 2, 2, 8},
        SweepParams{0.15, 0.0, 2, 3, 9}, SweepParams{0.25, 2.0, 4, 3, 10}),
    SweepName);

TEST(MinerPropertyTest, OutputInvariantUnderGeneShuffle) {
  // Mining a row-permuted matrix must find the same clusters modulo the
  // gene relabeling.
  const auto data = RandomMatrix(99, 25, 10);
  const int n = data.num_genes();
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  util::Prng prng(5);
  prng.Shuffle(&perm);
  matrix::ExpressionMatrix shuffled(n, data.num_conditions());
  for (int g = 0; g < n; ++g) {
    for (int c = 0; c < data.num_conditions(); ++c) {
      shuffled(perm[static_cast<size_t>(g)], c) = data(g, c);
    }
  }

  MinerOptions o;
  o.gamma = 0.1;
  o.epsilon = 0.2;
  o.min_genes = 2;
  o.min_conditions = 3;
  auto orig = RegClusterMiner(data, o).Mine();
  auto shuf = RegClusterMiner(shuffled, o).Mine();
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(shuf.ok());
  ASSERT_EQ(orig->size(), shuf->size());

  auto remap = [&](const RegCluster& c) {
    RegCluster out;
    out.chain = c.chain;
    for (int g : c.p_genes) out.p_genes.push_back(perm[static_cast<size_t>(g)]);
    for (int g : c.n_genes) out.n_genes.push_back(perm[static_cast<size_t>(g)]);
    std::sort(out.p_genes.begin(), out.p_genes.end());
    std::sort(out.n_genes.begin(), out.n_genes.end());
    return out;
  };
  std::set<std::string> shuf_keys;
  for (const RegCluster& c : *shuf) {
    RegCluster k = c;
    shuf_keys.insert(k.Key() + "#p" + std::to_string(k.p_genes.size()));
  }
  for (const RegCluster& c : *orig) {
    const RegCluster m = remap(c);
    EXPECT_EQ(shuf_keys.count(m.Key() + "#p" + std::to_string(m.p_genes.size())),
              1u);
  }
}

TEST(MinerPropertyTest, ScalingTheMatrixPreservesClusters) {
  // gamma is relative (Eq. 4) and coherence is a ratio, so scaling the whole
  // matrix by a positive constant must not change anything.
  const auto data = RandomMatrix(123, 30, 10);
  matrix::ExpressionMatrix scaled = data;
  for (int g = 0; g < data.num_genes(); ++g) {
    for (int c = 0; c < data.num_conditions(); ++c) {
      scaled(g, c) = data(g, c) * 3.5;
    }
  }
  MinerOptions o;
  o.gamma = 0.12;
  o.epsilon = 0.3;
  o.min_genes = 2;
  o.min_conditions = 3;
  auto a = RegClusterMiner(data, o).Mine();
  auto b = RegClusterMiner(scaled, o).Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) EXPECT_EQ((*a)[i], (*b)[i]);
}

TEST(MinerPropertyTest, ShiftingTheMatrixPreservesClusters) {
  const auto data = RandomMatrix(321, 30, 10);
  matrix::ExpressionMatrix shifted = data;
  for (int g = 0; g < data.num_genes(); ++g) {
    for (int c = 0; c < data.num_conditions(); ++c) {
      shifted(g, c) = data(g, c) - 42.0;
    }
  }
  MinerOptions o;
  o.gamma = 0.12;
  o.epsilon = 0.3;
  o.min_genes = 2;
  o.min_conditions = 3;
  auto a = RegClusterMiner(data, o).Mine();
  auto b = RegClusterMiner(shifted, o).Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) EXPECT_EQ((*a)[i], (*b)[i]);
}

/// A dyadic-grid matrix (quarters in [0, 16]) and its image under one
/// per-gene affine map d -> s1 * d + s2 with s1 = +-2^k and integer s2, so
/// every difference, threshold and ratio of the image is exact.  The genes
/// mapped with s1 < 0 are returned in `flipped`.
struct AffinePair {
  matrix::ExpressionMatrix data;
  matrix::ExpressionMatrix mapped;
  std::set<int> flipped;
};

AffinePair MakeAffinePair(uint64_t seed, bool allow_negative) {
  const int genes = 40;
  const int conds = 10;
  util::Prng prng(seed);
  AffinePair pair{matrix::ExpressionMatrix(genes, conds),
                  matrix::ExpressionMatrix(genes, conds), {}};
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) {
      pair.data(g, c) = static_cast<double>(prng.UniformInt(0, 64)) / 4.0;
    }
  }
  for (int g = 0; g < genes; ++g) {
    const bool negative = allow_negative && prng.UniformInt(0, 1) == 1;
    const double s1 = std::ldexp(negative ? -1.0 : 1.0,
                                 static_cast<int>(prng.UniformInt(-2, 3)));
    const double s2 = static_cast<double>(prng.UniformInt(-50, 50));
    if (negative) pair.flipped.insert(g);
    for (int c = 0; c < conds; ++c) {
      pair.mapped(g, c) = s1 * pair.data(g, c) + s2;
    }
  }
  return pair;
}

MinerOptions AffineOptions() {
  MinerOptions o;
  o.gamma_policy = GammaPolicy::kRangeFraction;
  o.gamma = 0.125;  // gamma * (dyadic range) is dyadic: exact thresholds
  o.epsilon = 0.25;
  o.min_genes = 3;
  o.min_conditions = 3;
  return o;
}

/// `c` with every gene of `flipped` moved to the other side, same chain.
RegCluster FlipSides(const RegCluster& c, const std::set<int>& flipped) {
  RegCluster out;
  out.chain = c.chain;
  for (const auto& [from, same, other] :
       {std::tuple{&c.p_genes, &out.p_genes, &out.n_genes},
        std::tuple{&c.n_genes, &out.n_genes, &out.p_genes}}) {
    for (int g : *from) (flipped.count(g) ? other : same)->push_back(g);
  }
  std::sort(out.p_genes.begin(), out.p_genes.end());
  std::sort(out.n_genes.begin(), out.n_genes.end());
  return out;
}

/// The miner's representative rule: more p- than n-members, or a tie and a
/// chain lexicographically smaller than its reversal.
bool Representative(const RegCluster& c) {
  const std::vector<int> reversed(c.chain.rbegin(), c.chain.rend());
  return c.p_genes.size() > c.n_genes.size() ||
         (c.p_genes.size() == c.n_genes.size() && c.chain < reversed);
}

std::set<std::string> SplitKeys(const std::vector<RegCluster>& clusters) {
  std::set<std::string> keys;
  for (const RegCluster& c : clusters) {
    keys.insert(c.Key() + "#p" + std::to_string(c.p_genes.size()));
  }
  return keys;
}

TEST(MinerPropertyTest, PositiveAffineMapsPerGenePreserveClusters) {
  // Lemma 3.2: d -> s1 * d + s2 with s1 > 0 changes none of a gene's
  // coherence scores and, under the range-fraction policy, scales its
  // threshold with its range, so the output is the same cluster for
  // cluster, side for side.
  for (uint64_t seed : {11u, 12u, 13u}) {
    const AffinePair pair = MakeAffinePair(seed, /*allow_negative=*/false);
    auto a = RegClusterMiner(pair.data, AffineOptions()).Mine();
    auto b = RegClusterMiner(pair.mapped, AffineOptions()).Mine();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_FALSE(a->empty()) << "seed " << seed;
    EXPECT_EQ(*a, *b) << "seed " << seed;
  }
}

TEST(MinerPropertyTest, NegativeAffineMapsPerGeneSwapSides) {
  // With s1 < 0 a gene's coherence scores along any chain are unchanged but
  // it steps the other way: it moves between p- and n-members.  Along the
  // same chain direction the clusters therefore stay, with the flipped
  // genes on the other side, wherever that direction is still the
  // representative one.  Where the flip hands the majority to the reversed
  // direction there is no such identity: coherence scores are ratios to the
  // chain's first step, so the reversed chain scores the genes against a
  // different baseline (DESIGN.md: coherence is evaluated on the
  // representative orientation).
  for (uint64_t seed : {11u, 12u, 13u}) {
    const AffinePair pair = MakeAffinePair(seed, /*allow_negative=*/true);
    ASSERT_FALSE(pair.flipped.empty());
    auto a = RegClusterMiner(pair.data, AffineOptions()).Mine();
    auto b = RegClusterMiner(pair.mapped, AffineOptions()).Mine();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    const std::set<std::string> keys_a = SplitKeys(*a);
    const std::set<std::string> keys_b = SplitKeys(*b);
    int kept = 0;
    int kept_with_flipped = 0;
    for (const auto& [from, to, to_keys] :
         {std::tuple{&*a, &*b, &keys_b}, std::tuple{&*b, &*a, &keys_a}}) {
      for (const RegCluster& c : *from) {
        const RegCluster moved = FlipSides(c, pair.flipped);
        if (!Representative(moved)) continue;
        ++kept;
        if (moved.p_genes != c.p_genes) ++kept_with_flipped;
        EXPECT_EQ(to_keys->count(moved.Key() + "#p" +
                                 std::to_string(moved.p_genes.size())),
                  1u)
            << "seed " << seed << ": " << c.Key() << " lost its image "
            << moved.Key();
      }
    }
    // The property must be exercised, including by clusters whose sides
    // the map actually changed.
    EXPECT_GT(kept, 0) << "seed " << seed;
    EXPECT_GT(kept_with_flipped, 0) << "seed " << seed;
  }
}

TEST(MinerPropertyTest, MonotoneInEpsilon) {
  // A larger epsilon can only admit more (or equal) gene-chain combinations;
  // every cluster found at epsilon=0 must be covered at epsilon=0.5 by a
  // cluster with the same chain and a superset of genes.
  const auto data = RandomMatrix(55, 30, 9);
  MinerOptions tight;
  tight.gamma = 0.1;
  tight.epsilon = 0.0;
  tight.min_genes = 2;
  tight.min_conditions = 3;
  MinerOptions loose = tight;
  loose.epsilon = 0.5;
  auto a = RegClusterMiner(data, tight).Mine();
  auto b = RegClusterMiner(data, loose).Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const RegCluster& ca : *a) {
    bool covered = false;
    const auto genes_a = ca.AllGenes();
    for (const RegCluster& cb : *b) {
      if (cb.chain != ca.chain &&
          !std::equal(cb.chain.rbegin(), cb.chain.rend(), ca.chain.begin(),
                      ca.chain.end())) {
        continue;
      }
      const auto genes_b = cb.AllGenes();
      if (std::includes(genes_b.begin(), genes_b.end(), genes_a.begin(),
                        genes_a.end())) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "cluster lost when relaxing epsilon: " << ca.Key();
  }
}

}  // namespace
}  // namespace core
}  // namespace regcluster
