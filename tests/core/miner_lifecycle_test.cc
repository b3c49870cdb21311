// Object-lifecycle behaviour of the miner: repeated Mine() calls, stats
// resets, and interaction of option combinations not covered elsewhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/coherence.h"
#include "core/miner.h"
#include "testing/paper_data.h"

namespace regcluster {
namespace core {
namespace {

using regcluster::testing::RunningDataset;

MinerOptions PaperOptions() {
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  return o;
}

TEST(MinerLifecycle, RepeatedMineCallsAreIdenticalAndIndependent) {
  const auto data = RunningDataset();
  RegClusterMiner miner(data, PaperOptions());
  auto first = miner.Mine();
  ASSERT_TRUE(first.ok());
  const auto first_stats = miner.stats();
  auto second = miner.Mine();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*second)[i]);
  }
  // Stats are reset, not accumulated, between calls.
  EXPECT_EQ(miner.stats().nodes_expanded, first_stats.nodes_expanded);
  EXPECT_EQ(miner.stats().clusters_emitted, first_stats.clusters_emitted);
  EXPECT_EQ(miner.stats().pruned_coherence, first_stats.pruned_coherence);
}

TEST(MinerLifecycle, MineAfterFailedValidationWorks) {
  const auto data = RunningDataset();
  MinerOptions bad = PaperOptions();
  bad.gamma = 5.0;  // invalid
  RegClusterMiner miner(data, bad);
  EXPECT_FALSE(miner.Mine().ok());
  // A fresh miner with good options on the same matrix is unaffected.
  RegClusterMiner good(data, PaperOptions());
  auto result = good.Mine();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(MinerLifecycle, CapsResetBetweenRuns) {
  const auto data = RunningDataset();
  MinerOptions o = PaperOptions();
  o.min_conditions = 3;
  o.max_clusters = 2;
  RegClusterMiner miner(data, o);
  auto first = miner.Mine();
  ASSERT_TRUE(first.ok());
  EXPECT_LE(first->size(), 2u);
  // Second run starts from a zeroed budget: same truncated output.
  auto second = miner.Mine();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->size(), second->size());
}

TEST(MinerLifecycle, DominatedFilterComposesWithThreads) {
  const auto data = RunningDataset();
  MinerOptions serial = PaperOptions();
  serial.min_conditions = 4;
  serial.remove_dominated = true;
  MinerOptions threaded = serial;
  threaded.num_threads = 4;
  auto a = RegClusterMiner(data, serial).Mine();
  auto b = RegClusterMiner(data, threaded).Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) EXPECT_EQ((*a)[i], (*b)[i]);
}

TEST(MinerLifecycle, TargetedMiningComposesWithThreads) {
  const auto data = RunningDataset();
  MinerOptions o = PaperOptions();
  o.min_conditions = 3;
  o.required_genes = {1};
  MinerOptions threaded = o;
  threaded.num_threads = 3;
  auto a = RegClusterMiner(data, o).Mine();
  auto b = RegClusterMiner(data, threaded).Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) EXPECT_EQ((*a)[i], (*b)[i]);
}

TEST(MinerLifecycle, NonFiniteCellsAreNamedRejections) {
  // +-inf has no RWave order: Prepare() rejects the run and names the cell,
  // instead of mining with that gene silently missing from every cluster.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto data = RunningDataset();
    ASSERT_TRUE(data.SetConditionNames({"a", "b", "c", "d", "e", "f", "g",
                                        "h", "i", "j"})
                    .ok());
    data(2, 3) = bad;
    EXPECT_FALSE(data.HasMissingValues());  // NaN-only: imputation keys off it
    RegClusterMiner miner(data, PaperOptions());
    auto result = miner.Mine();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
    const std::string& msg = result.status().message();
    EXPECT_NE(msg.find("gene '" + data.gene_name(2) + "'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("condition 'd'"), std::string::npos) << msg;
    EXPECT_NE(msg.find(bad > 0 ? "+inf" : "-inf"), std::string::npos) << msg;
    // The same miner mines again once the cell is finite.
    data(2, 3) = 0.0;
    EXPECT_TRUE(miner.Mine().ok());
  }
  // NaN keeps its "impute first" message.
  auto data = RunningDataset();
  data(1, 1) = std::numeric_limits<double>::quiet_NaN();
  auto result = RegClusterMiner(data, PaperOptions()).Mine();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("impute"), std::string::npos);
}

TEST(MinerLifecycle, ConstantRowIsAcceptedAndNeverMined) {
  // A constant row has a zero (relative) threshold but no step strictly
  // above it, so under every policy it mines without error and its gene
  // is in no cluster.
  for (const GammaPolicy policy :
       {GammaPolicy::kRangeFraction, GammaPolicy::kStdDevFraction,
        GammaPolicy::kMeanFraction, GammaPolicy::kClosestGapFraction,
        GammaPolicy::kAbsolute}) {
    // The running dataset's three genes plus a constant fourth.
    const auto base = RunningDataset();
    std::vector<std::vector<double>> rows;
    for (int g = 0; g < base.num_genes(); ++g) {
      rows.emplace_back(base.row_data(g),
                        base.row_data(g) + base.num_conditions());
    }
    rows.emplace_back(static_cast<size_t>(base.num_conditions()), 7.0);
    const auto data = *matrix::ExpressionMatrix::FromRows(rows);
    MinerOptions o = PaperOptions();
    o.min_genes = 2;
    o.gamma_policy = policy;
    o.gamma = policy == GammaPolicy::kAbsolute ? 0.0 : 0.15;
    auto result = RegClusterMiner(data, o).Mine();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (policy == GammaPolicy::kRangeFraction) {
      EXPECT_FALSE(result->empty());  // the paper's cluster is still found
    }
    for (const RegCluster& c : *result) {
      const std::vector<int> genes = c.AllGenes();
      EXPECT_EQ(std::count(genes.begin(), genes.end(), 3), 0)
          << GammaPolicyName(policy);
    }
  }
}

TEST(MinerLifecycle, OverflowingRowRangeIsANamedRejection) {
  // Every cell finite, but max - min overflows to +inf: the row has no
  // finite gamma threshold, so Prepare() names the gene instead of mining
  // it with exit 0 and no diagnostic.  The largest range that still fits
  // mines normally.
  const double big = std::numeric_limits<double>::max();
  for (const auto& [hi, lo] : {std::pair{1e308, -1e308},
                               std::pair{big, -big}}) {
    auto data = RunningDataset();
    data(2, 3) = hi;
    data(2, 7) = lo;
    RegClusterMiner miner(data, PaperOptions());
    auto result = miner.Mine();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
    const std::string& msg = result.status().message();
    EXPECT_NE(msg.find("gene '" + data.gene_name(2) + "'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
  }
  auto data = RunningDataset();
  data(2, 3) = big / 2;
  data(2, 7) = -big / 2;
  EXPECT_TRUE(RegClusterMiner(data, PaperOptions()).Mine().ok());
}

TEST(MinerLifecycle, MatrixOutlivesMinerOutput) {
  // The output owns its data (no dangling references into the miner).
  std::vector<RegCluster> clusters;
  {
    const auto data = RunningDataset();
    RegClusterMiner miner(data, PaperOptions());
    auto result = miner.Mine();
    ASSERT_TRUE(result.ok());
    clusters = *std::move(result);
  }  // miner and matrix gone
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].chain, regcluster::testing::ExpectedChain());
}

}  // namespace
}  // namespace core
}  // namespace regcluster
