// Differential test: the optimized miner vs the brute-force oracle.
//
// The oracle (tests/testing/oracle_miner.*) enumerates every ordered
// condition subset and checks Definition 3.3 directly on the raw values; it
// shares none of the search machinery under test.  Agreement over ~100
// PRNG-seeded tiny matrices crossed with a gamma/epsilon/MinG/MinC grid
// checks soundness and completeness of the whole optimized stack (RWave
// pointer certificates, bitmap index, prunings 1/2/3a/3b/4, incremental
// coherence windows, parallel phase A) at once.  Runs under ASan and TSan
// in CI; thread counts alternate so the parallel engine is exercised too.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "matrix/expression_matrix.h"
#include "synth/generator.h"
#include "testing/oracle_miner.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

struct GridPoint {
  double gamma;
  double epsilon;
  int min_genes;
  int min_conditions;
};

// Loose-to-strict coverage on every axis; every point runs on every matrix.
constexpr GridPoint kGrid[] = {
    {0.00, 0.50, 2, 3},
    {0.05, 0.20, 2, 3},
    {0.10, 1.00, 2, 2},
    {0.15, 0.05, 3, 3},
    {0.25, 0.30, 4, 4},
};

matrix::ExpressionMatrix RandomTinyMatrix(uint64_t seed, int* genes_out,
                                          int* conds_out) {
  util::Prng prng(seed);
  // <= 12 genes x <= 8 conditions; 8-condition matrices are rare because the
  // oracle's enumeration is exponential in conditions.
  const int genes = 6 + static_cast<int>(prng.UniformInt(0, 6));
  int conds = 4 + static_cast<int>(prng.UniformInt(0, 3));
  if (prng.UniformInt(0, 15) == 0) conds = 8;
  matrix::ExpressionMatrix data(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) {
      // Mix smooth values with a coarse integer lattice so exact ties (the
      // tie-broken score sort, zero deltas at the gamma boundary) occur.
      data(g, c) = prng.Bernoulli(0.25)
                       ? static_cast<double>(prng.UniformInt(0, 5))
                       : prng.Uniform(0.0, 10.0);
    }
  }
  *genes_out = genes;
  *conds_out = conds;
  return data;
}

TEST(OracleDifferential, MinerMatchesBruteForceOverPrngGrid) {
  constexpr int kMatrices = 100;
  int64_t oracle_clusters_total = 0;
  for (int m = 0; m < kMatrices; ++m) {
    int genes = 0, conds = 0;
    const matrix::ExpressionMatrix data =
        RandomTinyMatrix(/*seed=*/9000 + m, &genes, &conds);
    for (size_t p = 0; p < std::size(kGrid); ++p) {
      const GridPoint& point = kGrid[p];

      testing::OracleOptions oracle_opts;
      oracle_opts.gamma = {GammaPolicy::kRangeFraction, point.gamma};
      oracle_opts.epsilon = point.epsilon;
      oracle_opts.min_genes = point.min_genes;
      oracle_opts.min_conditions = point.min_conditions;
      const std::vector<RegCluster> expected =
          testing::OracleMine(data, oracle_opts);
      oracle_clusters_total += static_cast<int64_t>(expected.size());

      MinerOptions opts;
      opts.gamma = point.gamma;
      opts.epsilon = point.epsilon;
      opts.min_genes = point.min_genes;
      opts.min_conditions = point.min_conditions;
      // Alternate serial and parallel so the sanitizer jobs also cover the
      // phase-A task engine; the output contract is thread-count-invariant.
      opts.num_threads = 1 + (m + static_cast<int>(p)) % 3;
      RegClusterMiner miner(data, opts);
      auto mined = miner.Mine();
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      const std::vector<RegCluster> actual =
          testing::Canonicalize(*std::move(mined));

      const std::string label =
          (::testing::Message()
           << "matrix " << m << " (" << genes << "x" << conds << ") gamma="
           << point.gamma << " eps=" << point.epsilon << " ming="
           << point.min_genes << " minc=" << point.min_conditions)
              .GetString();
      ASSERT_EQ(actual.size(), expected.size()) << label;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].chain, expected[i].chain) << label << " [" << i
                                                      << "]";
        ASSERT_EQ(actual[i].p_genes, expected[i].p_genes)
            << label << " [" << i << "]";
        ASSERT_EQ(actual[i].n_genes, expected[i].n_genes)
            << label << " [" << i << "]";
      }
    }
  }
  // The sweep must exercise real output, not vacuous empty-vs-empty matches.
  EXPECT_GT(oracle_clusters_total, 1000);
}

// The oracle itself must flag non-representative chains: every emitted
// cluster has |p| > |n|, or a tie with the chain lexicographically smaller
// than its reversal (so exactly one of the two directions is reported).
TEST(OracleDifferential, OracleOutputIsCanonical) {
  int genes = 0, conds = 0;
  const matrix::ExpressionMatrix data =
      RandomTinyMatrix(/*seed=*/424242, &genes, &conds);
  testing::OracleOptions opts;
  opts.gamma = {GammaPolicy::kRangeFraction, 0.05};
  opts.epsilon = 0.5;
  const std::vector<RegCluster> found = testing::OracleMine(data, opts);
  ASSERT_FALSE(found.empty());
  for (const RegCluster& c : found) {
    std::vector<int> reversed(c.chain.rbegin(), c.chain.rend());
    if (c.p_genes.size() == c.n_genes.size()) {
      EXPECT_LT(c.chain, reversed);
    } else {
      EXPECT_GT(c.p_genes.size(), c.n_genes.size());
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace regcluster
