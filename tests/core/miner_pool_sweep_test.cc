// The work-stealing pooled miner must be indistinguishable from the serial
// run: bit-identical output *and* identical per-counter MinerStats at every
// thread count.  Matrices are randomized and tie-heavy (quantized values)
// so the sweep exercises the RWave tie ordering, coherence windows with
// equal scores, and duplicate-branch pruning under the 128-bit keys.  The
// staged Prepare / SubmitParallelWork / Finalize sequence on a borrowed
// pool must match Mine() the same way, and a staged run may be abandoned
// by destroying its miner.

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "matrix/expression_matrix.h"
#include "util/cancellation.h"
#include "util/prng.h"
#include "util/task_pool.h"

namespace regcluster {
namespace core {
namespace {

matrix::ExpressionMatrix TieHeavyMatrix(int genes, int conds, uint64_t seed) {
  util::Prng prng(seed);
  matrix::ExpressionMatrix data(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) {
      // Half the cells land on a coarse integer grid, so equal values (ties
      // in the RWave order) and equal coherence scores are frequent.
      data(g, c) = prng.Bernoulli(0.5)
                       ? static_cast<double>(prng.UniformInt(0, 7))
                       : prng.Uniform(0, 10);
    }
  }
  return data;
}

void ExpectSameStats(const MinerStats& a, const MinerStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.extensions_tested, b.extensions_tested);
  EXPECT_EQ(a.pruned_min_genes, b.pruned_min_genes);
  EXPECT_EQ(a.pruned_p_majority, b.pruned_p_majority);
  EXPECT_EQ(a.pruned_duplicate, b.pruned_duplicate);
  EXPECT_EQ(a.pruned_coherence, b.pruned_coherence);
  EXPECT_EQ(a.genes_dropped_min_conds, b.genes_dropped_min_conds);
  EXPECT_EQ(a.clusters_emitted, b.clusters_emitted);
}

void ExpectIdenticalRun(const matrix::ExpressionMatrix& data,
                        const MinerOptions& serial_opts, int threads) {
  MinerOptions threaded = serial_opts;
  threaded.num_threads = threads;
  RegClusterMiner serial_miner(data, serial_opts);
  RegClusterMiner pooled_miner(data, threaded);
  auto a = serial_miner.Mine();
  auto b = pooled_miner.Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]) << "cluster " << i;
  }
  ExpectSameStats(serial_miner.stats(), pooled_miner.stats());
}

/// Param: thread count for the pooled run (0 = hardware concurrency).
class PooledMinerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PooledMinerSweep, MatchesSerialOnTieHeavyMatrices) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const auto data = TieHeavyMatrix(60, 12, seed);
    MinerOptions o;
    o.min_genes = 3;
    o.min_conditions = 3;
    o.gamma = 0.05;
    o.epsilon = 0.25;
    ExpectIdenticalRun(data, o, GetParam());
  }
}

TEST_P(PooledMinerSweep, MatchesSerialWithLooseEpsilon) {
  // Loose epsilon -> wide windows -> deep chains and many duplicates: the
  // hardest case for per-task dedup contexts.
  const auto data = TieHeavyMatrix(30, 10, 99);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 0.0;
  o.epsilon = 1.5;
  ExpectIdenticalRun(data, o, GetParam());
}

TEST_P(PooledMinerSweep, MatchesSerialWithTargetedMining) {
  const auto data = TieHeavyMatrix(50, 10, 7);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 0.05;
  o.epsilon = 0.5;
  o.required_genes = {3, 17};
  ExpectIdenticalRun(data, o, GetParam());
}

TEST_P(PooledMinerSweep, MatchesSerialWithClosedChainsAndAllowedConditions) {
  const auto data = TieHeavyMatrix(40, 12, 21);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 0.05;
  o.epsilon = 0.5;
  o.closed_chains_only = true;
  o.allowed_conditions = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  ExpectIdenticalRun(data, o, GetParam());
}

MinerOptions StagedOptions() {
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 3;
  o.gamma = 0.05;
  o.epsilon = 0.25;
  return o;
}

// Finalize() called straight after SubmitParallelWork(), while the borrowed
// pool is still mining, walks each root as its own tasks drain: the result,
// the outcome and the per-root callback match Mine() -- unbudgeted, under a
// node budget that cuts mid-run, and with a token cancelled up front.
TEST(StagedMiner, FinalizeRightAfterSubmitMatchesMine) {
  const auto data = TieHeavyMatrix(60, 12, 11);
  RegClusterMiner full(data, StagedOptions());
  ASSERT_TRUE(full.Mine().ok());
  const int64_t half_nodes = full.stats().nodes_expanded / 2;
  ASSERT_GT(half_nodes, 0);

  for (const int threads : {1, 2, 4}) {
    util::TaskPool pool(threads);
    for (const int budget : {0, 1, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " budget=" << budget);
      MinerOptions o = StagedOptions();
      o.num_threads = threads;
      if (budget == 1) o.max_nodes = half_nodes;
      if (budget == 2) {
        o.cancel_token = std::make_shared<util::CancellationToken>();
        o.cancel_token->Cancel();
      }
      RegClusterMiner plain(data, o);
      auto want = plain.Mine();
      ASSERT_TRUE(want.ok());

      RegClusterMiner staged(data, o);
      ASSERT_TRUE(staged.Prepare().ok());
      staged.SubmitParallelWork(&pool);
      std::vector<int> roots;
      std::vector<RegCluster> concatenated;
      MinerStats summed;
      auto got = staged.Finalize([&](const RootSlice& slice) {
        roots.push_back(slice.root);
        concatenated.insert(concatenated.end(), slice.clusters().begin(),
                            slice.clusters().end());
        AccumulateStats(slice.stats, &summed);
        EXPECT_EQ(slice.output.size(), concatenated.size());
      });
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i], (*want)[i]) << "cluster " << i;
      }
      ExpectSameStats(staged.stats(), plain.stats());
      const MineOutcome& a = staged.outcome();
      const MineOutcome& b = plain.outcome();
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.stop_reason, b.stop_reason);
      EXPECT_EQ(a.roots_completed, b.roots_completed);
      EXPECT_EQ(a.resume.next_root, b.resume.next_root);
      if (budget != 0) {
        EXPECT_EQ(a.status, MineStatus::kTruncated);
      }

      // The callback saw exactly the included roots, in order, and their
      // slices add up to the run.
      ASSERT_EQ(static_cast<int>(roots.size()), a.roots_completed);
      for (size_t i = 0; i < roots.size(); ++i) {
        EXPECT_EQ(roots[i], static_cast<int>(i));
      }
      EXPECT_EQ(concatenated, *got);
      ExpectSameStats(summed, staged.stats());
    }
  }
}

// A submitted run that is never finalized -- its miner destroyed, or its
// run restarted by a second Prepare() -- drains its own tasks first, so
// nothing on the pool outlives the state it writes to.
TEST(StagedMiner, AbandonedSubmittedRunsDrainSafely) {
  const auto data = TieHeavyMatrix(60, 12, 12);
  RegClusterMiner reference(data, StagedOptions());
  auto want = reference.Mine();
  ASSERT_TRUE(want.ok());

  util::TaskPool pool(4);
  for (int i = 0; i < 3; ++i) {
    auto miner = std::make_unique<RegClusterMiner>(data, StagedOptions());
    ASSERT_TRUE(miner->Prepare().ok());
    miner->SubmitParallelWork(&pool);
    miner.reset();
  }

  RegClusterMiner restarted(data, StagedOptions());
  ASSERT_TRUE(restarted.Prepare().ok());
  restarted.SubmitParallelWork(&pool);
  ASSERT_TRUE(restarted.Prepare().ok());
  restarted.SubmitParallelWork(&pool);
  auto got = restarted.Finalize();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
  ExpectSameStats(restarted.stats(), reference.stats());
}

// phase_a_seconds stops when the run's last task drains, not when the
// Finalize() walk ends: by the last root's callback every root has drained,
// so time spent there counts toward wall_seconds only.
TEST(StagedMiner, PhaseATimeEndsWhenTheLastTaskDrains) {
  const auto data = TieHeavyMatrix(60, 12, 13);
  MinerOptions o = StagedOptions();
  o.num_threads = 4;
  util::TaskPool pool(4);
  RegClusterMiner staged(data, o);
  ASSERT_TRUE(staged.Prepare().ok());
  staged.SubmitParallelWork(&pool);
  constexpr double kPause = 0.05;
  auto got = staged.Finalize([&](const RootSlice& slice) {
    if (slice.root + 1 == data.num_conditions()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPause));
    }
  });
  ASSERT_TRUE(got.ok());
  const MineOutcome& outcome = staged.outcome();
  ASSERT_EQ(outcome.roots_completed, data.num_conditions());
  EXPECT_GT(outcome.phase_a_seconds, 0.0);
  EXPECT_LE(outcome.phase_a_seconds + kPause, outcome.wall_seconds);
}

INSTANTIATE_TEST_SUITE_P(Threads, PooledMinerSweep,
                         ::testing::Values(1, 2, 4, 0));

}  // namespace
}  // namespace core
}  // namespace regcluster
