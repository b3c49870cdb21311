// Differential tests for the mining telemetry layer.
//
// The contract under test (DESIGN.md §observability):
//   1. Every counter, the detail counters included, is always collected.
//   2. Every MinerStats counter is deterministic: a pure function of
//      data + options, identical at any thread count and across repeated
//      runs, because tasks count into per-task shards that are merged in
//      canonical root order.
// Execution telemetry (MineOutcome: steals, queue depth, phase times) is
// explicitly exempt from (2) and is only sanity-checked here.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/miner.h"
#include "io/json_export.h"
#include "synth/generator.h"
#include "testing/paper_data.h"

namespace regcluster {
namespace core {
namespace {

/// Serializes clusters to the canonical JSON document (no outcome/stats
/// blocks, which legitimately differ between runs).
std::string ClustersDigest(const std::vector<RegCluster>& clusters,
                           const matrix::ExpressionMatrix& data) {
  std::ostringstream os;
  EXPECT_TRUE(io::WriteClustersJson(clusters, &data, os).ok());
  return os.str();
}

/// The full deterministic counter set, as a comparable tuple-ish vector.
std::vector<int64_t> DeterministicCounters(const MinerStats& s) {
  return {s.nodes_expanded,      s.extensions_tested,
          s.pruned_min_genes,    s.pruned_p_majority,
          s.pruned_duplicate,    s.pruned_coherence,
          s.genes_dropped_min_conds, s.clusters_emitted,
          s.index_word_ops,      s.coherence_divide_calls,
          s.coherence_scores,    s.dedup_probes};
}

MinerOptions RunningExampleOptions() {
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  return o;
}

TEST(MinerStatsTest, DetailCountersArePositive) {
  const auto data = regcluster::testing::RunningDataset();
  RegClusterMiner miner(data, RunningExampleOptions());
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_GT(miner.stats().index_word_ops, 0);
  EXPECT_GT(miner.stats().coherence_divide_calls, 0);
  EXPECT_GT(miner.stats().coherence_scores, 0);
  EXPECT_GT(miner.stats().dedup_probes, 0);
}

TEST(MinerStatsTest, DedupProbesCoverEveryEmissionAttempt) {
  const auto data = regcluster::testing::RunningDataset();
  RegClusterMiner miner(data, RunningExampleOptions());
  ASSERT_TRUE(miner.Mine().ok());
  const MinerStats& s = miner.stats();
  // Every emitted cluster and every duplicate-pruned branch first probed
  // the seen-key set.
  EXPECT_GE(s.dedup_probes, s.clusters_emitted + s.pruned_duplicate);
  // A divide pass computes at least one score.
  EXPECT_GE(s.coherence_scores, s.coherence_divide_calls);
}

class MinerStatsThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinerStatsThreadSweep, CountersThreadInvariantOnSynthetic) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 300;
  cfg.num_conditions = 18;
  cfg.num_clusters = 6;
  cfg.avg_cluster_genes_fraction = 0.04;
  cfg.seed = 808;
  auto ds = synth::GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok());

  MinerOptions serial;
  serial.min_genes = 5;
  serial.min_conditions = 5;
  serial.gamma = 0.1;
  serial.epsilon = 0.05;
  MinerOptions threaded = serial;
  threaded.num_threads = GetParam();

  RegClusterMiner sm(ds->data, serial);
  RegClusterMiner tm(ds->data, threaded);
  auto a = sm.Mine();
  auto b = tm.Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(ClustersDigest(*a, ds->data), ClustersDigest(*b, ds->data));
  EXPECT_EQ(DeterministicCounters(sm.stats()),
            DeterministicCounters(tm.stats()));
}

INSTANTIATE_TEST_SUITE_P(Threads, MinerStatsThreadSweep,
                         ::testing::Values(1, 2, 4));

TEST(MinerStatsTest, CountersStableAcrossRepeatedRuns) {
  const auto data = regcluster::testing::RunningDataset();
  const MinerOptions opts = RunningExampleOptions();
  std::vector<int64_t> reference;
  for (int run = 0; run < 3; ++run) {
    RegClusterMiner miner(data, opts);
    ASSERT_TRUE(miner.Mine().ok());
    const auto counters = DeterministicCounters(miner.stats());
    if (run == 0) {
      reference = counters;
    } else {
      EXPECT_EQ(reference, counters) << "run " << run;
    }
  }
}

TEST(MinerStatsTest, OutcomeTelemetryPopulated) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions opts = RunningExampleOptions();
  opts.num_threads = 2;
  RegClusterMiner miner(data, opts);
  ASSERT_TRUE(miner.Mine().ok());
  const MineOutcome& out = miner.outcome();
  // Scheduling-dependent values: only sane ranges, never exact values.
  EXPECT_GE(out.phase_a_seconds, 0.0);
  EXPECT_GE(out.phase_b_seconds, 0.0);
  EXPECT_GE(out.pool_steals, 0);
  EXPECT_GE(out.pool_queue_high_water, 1);  // at least one task was queued
  EXPECT_EQ(out.budget_polls, 0);           // no budget armed -> no guard
}

TEST(MinerStatsTest, BudgetPollsCountedWhenGuardArmed) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions opts = RunningExampleOptions();
  opts.max_nodes = int64_t{1} << 40;   // armed but never binding
  opts.budget_check_interval = 1;      // poll at every node
  RegClusterMiner miner(data, opts);
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_GT(miner.outcome().budget_polls, 0);
}

}  // namespace
}  // namespace core
}  // namespace regcluster
