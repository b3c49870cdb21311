// Property tests for the batch parameter-sweep engine (core/sweep.h):
//
//  * every executed sweep point is byte-identical to an independent Mine()
//    at that point's options, at 1/2/4 threads;
//  * index sharing is observable: the engine builds one model per distinct
//    gamma (report.index_builds) and shared runs report stats.index_builds
//    == 0;
//  * sweep-level budgets truncate on a run boundary with the PR 3 contract:
//    a deterministic, thread-count-invariant prefix plus first_unfinished
//    as the resume point, and re-running the remaining points completes
//    the grid;
//  * the caller-supplied inputs: engines sharing one borrowed pool from
//    several threads still render every point exactly as an independent
//    Mine(); a model source and a point screen replace the engine's own
//    builds and checks, and a failing source fails the sweep.

#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/sweep.h"
#include "io/checkpoint.h"
#include "io/json_export.h"
#include "matrix/expression_matrix.h"
#include "synth/generator.h"
#include "util/cancellation.h"
#include "util/task_pool.h"

namespace regcluster {
namespace core {
namespace {

matrix::ExpressionMatrix TestMatrix() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 150;
  cfg.num_conditions = 14;
  cfg.num_clusters = 4;
  cfg.avg_cluster_genes_fraction = 0.06;
  cfg.seed = 515;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return ds->data;
}

// A small mixed grid: two gamma groups, with MinC/epsilon variation inside
// the 0.1 group (the shared index is built with the group's largest MinC).
std::vector<MinerOptions> TestGrid() {
  MinerOptions base;
  base.min_genes = 5;
  base.epsilon = 0.05;
  std::vector<MinerOptions> points;
  for (double gamma : {0.1, 0.15}) {
    for (int minc : {4, 5}) {
      MinerOptions p = base;
      p.gamma = gamma;
      p.min_conditions = minc;
      points.push_back(p);
    }
  }
  points[1].epsilon = 0.1;  // epsilon variation reuses the same index
  return points;
}

std::vector<RegCluster> IndependentMine(const matrix::ExpressionMatrix& data,
                                        const MinerOptions& point) {
  auto mined = RegClusterMiner(data, point).Mine();
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return *std::move(mined);
}

class SweepThreads : public ::testing::TestWithParam<int> {};

TEST_P(SweepThreads, EveryPointByteIdenticalToIndependentMine) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<MinerOptions> points = TestGrid();

  SweepOptions sopts;
  sopts.num_threads = GetParam();
  auto report = SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->runs.size(), points.size());
  EXPECT_EQ(report->runs_executed, static_cast<int>(points.size()));
  EXPECT_EQ(report->status, MineStatus::kComplete);
  EXPECT_EQ(report->first_unfinished, -1);

  int64_t clusters_total = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepRun& run = report->runs[i];
    ASSERT_TRUE(run.executed) << "point " << i;
    const std::vector<RegCluster> want = IndependentMine(data, points[i]);
    ASSERT_EQ(run.clusters.size(), want.size()) << "point " << i;
    for (size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(run.clusters[c], want[c]) << "point " << i << " cluster "
                                          << c;
    }
    clusters_total += static_cast<int64_t>(run.clusters.size());
  }
  EXPECT_GT(clusters_total, 0) << "grid produced no output; test is vacuous";
  EXPECT_EQ(report->clusters_total, clusters_total);
}

INSTANTIATE_TEST_SUITE_P(Threads, SweepThreads, ::testing::Values(1, 2, 4));

TEST(SweepEngineTest, SharesOneIndexPerDistinctGamma) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<MinerOptions> points = TestGrid();  // gammas {0.1, 0.15}

  SweepOptions sopts;
  auto report = SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->index_builds, 2);
  EXPECT_GT(report->shared_model_bytes, 0);
  for (const SweepRun& run : report->runs) {
    EXPECT_TRUE(run.used_shared_model);
    EXPECT_EQ(run.stats.index_builds, 0);
    EXPECT_EQ(run.stats.rwave_build_seconds, 0.0);
    EXPECT_EQ(run.stats.index_build_seconds, 0.0);
  }
}

TEST(SweepEngineTest, NodeBudgetTruncatesOnRunBoundaryAtAnyThreadCount) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<MinerOptions> points = TestGrid();

  // Size the budget from the real per-run costs: enough for the first run
  // plus half the second, so the cut lands inside run 1.
  SweepOptions unbounded;
  auto full = SweepEngine(data, unbounded).Run(points);
  ASSERT_TRUE(full.ok());
  const int64_t run0 = full->runs[0].stats.nodes_expanded;
  const int64_t run1 = full->runs[1].stats.nodes_expanded;
  ASSERT_GT(run1, 1);

  int prev_first_unfinished = -2;
  for (int threads : {1, 2, 4}) {
    SweepOptions sopts;
    sopts.num_threads = threads;
    sopts.max_nodes = run0 + run1 / 2;
    auto report = SweepEngine(data, sopts).Run(points);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->status, MineStatus::kTruncated);
    EXPECT_EQ(report->stop_reason, util::StopReason::kNodeBudget);
    EXPECT_EQ(report->first_unfinished, 1);
    EXPECT_EQ(report->runs_executed, 1);
    // Run 0 is complete and untouched by the cut; run 1 is excluded whole.
    EXPECT_EQ(report->runs[0].clusters, full->runs[0].clusters);
    EXPECT_FALSE(report->runs[1].executed);
    EXPECT_TRUE(report->runs[1].clusters.empty());
    // Identical boundary at every thread count.
    if (prev_first_unfinished != -2) {
      EXPECT_EQ(report->first_unfinished, prev_first_unfinished);
    }
    prev_first_unfinished = report->first_unfinished;

    // PR 3 resume contract at sweep granularity: re-run the tail and the
    // concatenation covers the grid exactly.
    const std::vector<MinerOptions> tail(
        points.begin() + report->first_unfinished, points.end());
    auto rest = SweepEngine(data, unbounded).Run(tail);
    ASSERT_TRUE(rest.ok());
    EXPECT_EQ(rest->status, MineStatus::kComplete);
    for (size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(rest->runs[i].clusters,
                full->runs[report->first_unfinished + i].clusters);
    }
  }
}

TEST(SweepEngineTest, PerPointBudgetTruncatesThatRunOnlyAndMatchesMine) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<MinerOptions> points = TestGrid();
  // Give point 0 its own tight node budget; its truncated output must match
  // the independent truncated mine byte-for-byte, and the sweep continues.
  points[0].max_nodes = 50;

  SweepOptions sopts;
  auto report = SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status, MineStatus::kComplete);
  EXPECT_EQ(report->runs_executed, static_cast<int>(points.size()));
  ASSERT_TRUE(report->runs[0].executed);
  EXPECT_EQ(report->runs[0].outcome.status, MineStatus::kTruncated);
  EXPECT_EQ(report->runs[0].outcome.stop_reason,
            util::StopReason::kNodeBudget);
  EXPECT_EQ(report->runs[0].clusters, IndependentMine(data, points[0]));
}

TEST(SweepEngineTest, ZeroDeadlineTruncatesBeforeTheFirstRun) {
  const matrix::ExpressionMatrix data = TestMatrix();
  SweepOptions sopts;
  sopts.deadline_ms = 0.0;
  auto report = SweepEngine(data, sopts).Run(TestGrid());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status, MineStatus::kTruncated);
  EXPECT_EQ(report->stop_reason, util::StopReason::kDeadline);
  EXPECT_EQ(report->runs_executed, 0);
  EXPECT_EQ(report->first_unfinished, 0);
  for (const SweepRun& run : report->runs) EXPECT_FALSE(run.executed);
}

TEST(SweepEngineTest, PreCancelledTokenTruncatesAtTheFirstBoundary) {
  const matrix::ExpressionMatrix data = TestMatrix();
  SweepOptions sopts;
  sopts.cancel_token = std::make_shared<util::CancellationToken>();
  sopts.cancel_token->Cancel(util::StopReason::kCancelled);
  auto report = SweepEngine(data, sopts).Run(TestGrid());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status, MineStatus::kTruncated);
  EXPECT_EQ(report->stop_reason, util::StopReason::kCancelled);
  EXPECT_EQ(report->runs_executed, 0);
  EXPECT_EQ(report->first_unfinished, 0);
}

TEST(SweepEngineTest, InvalidPointIsSoftFailureOthersRun) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<MinerOptions> points = TestGrid();
  points[2].gamma = 2.0;  // out of range for the range-fraction policy

  SweepOptions sopts;
  auto report = SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status, MineStatus::kComplete);
  EXPECT_EQ(report->runs_executed, static_cast<int>(points.size()) - 1);
  EXPECT_FALSE(report->runs[2].status.ok());
  EXPECT_FALSE(report->runs[2].executed);
  for (size_t i = 0; i < points.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(report->runs[i].executed) << i;
    EXPECT_EQ(report->runs[i].clusters, IndependentMine(data, points[i]))
        << i;
  }
}

// A run rendered with its volatile fields zeroed: clusters plus every
// deterministic work counter.
std::string RenderRun(const matrix::ExpressionMatrix& data,
                      const std::vector<RegCluster>& clusters,
                      MinerStats stats, MineOutcome outcome) {
  io::ZeroVolatileMineFields(&stats, &outcome);
  std::ostringstream doc;
  EXPECT_TRUE(
      io::WriteClustersJson(clusters, &data, &outcome, &stats, doc).ok());
  return doc.str();
}

// The independent reference of a point mined on a shared model (so its
// stats, like a sweep run's, report no index build of its own).
std::string RenderIndependentMine(const matrix::ExpressionMatrix& data,
                                  MinerOptions point) {
  point.shared_model = SharedGammaModel::Build(
      data, {point.gamma_policy, point.gamma}, point.min_conditions);
  RegClusterMiner miner(data, point);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  return RenderRun(data, *clusters, miner.stats(), miner.outcome());
}

TEST(SweepEngineTest, EnginesSharingABorrowedPoolMatchIndependentMines) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<MinerOptions> grid_a = TestGrid();
  std::vector<MinerOptions> grid_b = TestGrid();
  for (MinerOptions& p : grid_b) p.epsilon = 0.08;
  const std::vector<std::vector<MinerOptions>> grids = {grid_a, grid_b};
  std::vector<std::vector<std::string>> want(grids.size());
  for (size_t g = 0; g < grids.size(); ++g) {
    for (const MinerOptions& p : grids[g]) {
      want[g].push_back(RenderIndependentMine(data, p));
    }
  }

  util::TaskPool pool(4);
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (size_t g = 0; g < grids.size(); ++g) {
    drivers.emplace_back([&, g] {
      for (int repeat = 0; repeat < 3; ++repeat) {
        SweepOptions sopts;
        sopts.pool = &pool;
        auto report = SweepEngine(data, sopts).Run(grids[g]);
        if (!report.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < grids[g].size(); ++i) {
          const SweepRun& run = report->runs[i];
          if (!run.executed ||
              RenderRun(data, run.clusters, run.stats, run.outcome) !=
                  want[g][i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SweepEngineTest, ModelSourceAndScreenReplaceTheEngineOwnInputs) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<MinerOptions> points = TestGrid();  // minc {4, 5}

  std::vector<GammaGroup> requested;
  SweepOptions sopts;
  sopts.model_source = [&](const GammaGroup& group)
      -> util::StatusOr<std::shared_ptr<const SharedGammaModel>> {
    requested.push_back(group);
    return SharedGammaModel::Build(data, group.spec,
                                   group.max_min_conditions);
  };
  sopts.screen = [](const MinerOptions& p) {
    return p.min_conditions > 4
               ? util::Status::InvalidArgument("minc over the screen")
               : util::Status::OK();
  };
  auto report = SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One model per gamma, sized by the screened points only.
  ASSERT_EQ(requested.size(), 2u);
  for (const GammaGroup& group : requested) {
    EXPECT_EQ(group.max_min_conditions, 4);
  }
  // Supplied models are not the engine's builds.
  EXPECT_EQ(report->index_builds, 0);
  EXPECT_EQ(report->shared_model_bytes, 0);
  EXPECT_EQ(report->status, MineStatus::kComplete);
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepRun& run = report->runs[i];
    if (points[i].min_conditions > 4) {
      EXPECT_FALSE(run.executed) << i;
      EXPECT_FALSE(run.used_shared_model) << i;
      EXPECT_EQ(run.status.message(), "minc over the screen") << i;
    } else {
      EXPECT_TRUE(run.executed) << i;
      EXPECT_EQ(run.clusters, IndependentMine(data, points[i])) << i;
    }
  }
}

TEST(SweepEngineTest, FailingModelSourceFailsTheRun) {
  const matrix::ExpressionMatrix data = TestMatrix();
  util::TaskPool pool(2);
  SweepOptions sopts;
  sopts.pool = &pool;
  sopts.model_source = [](const GammaGroup&)
      -> util::StatusOr<std::shared_ptr<const SharedGammaModel>> {
    return util::Status::Internal("no room for the model");
  };
  auto report = SweepEngine(data, sopts).Run(TestGrid());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(report.status().message(), "no room for the model");
}

// Screening happens before any run, so an invalid point beyond a truncation
// boundary reports its error at every thread count (the serial walk used to
// leave it unreported).
TEST(SweepEngineTest, ScreenVerdictsDoNotDependOnTruncationOrThreads) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<MinerOptions> points = TestGrid();
  points[3].gamma = 2.0;  // invalid, after the cut below
  auto full = SweepEngine(data, SweepOptions{}).Run(points);
  ASSERT_TRUE(full.ok());
  for (int threads : {1, 2, 4}) {
    SweepOptions sopts;
    sopts.num_threads = threads;
    sopts.max_nodes = full->runs[0].stats.nodes_expanded;  // cut at run 1
    auto report = SweepEngine(data, sopts).Run(points);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->first_unfinished, 1) << threads;
    EXPECT_TRUE(report->runs[1].status.ok()) << threads;
    EXPECT_TRUE(report->runs[2].status.ok()) << threads;
    EXPECT_EQ(report->runs[3].status.code(), util::StatusCode::kInvalidArgument)
        << threads;
  }
}

TEST(SweepEngineTest, NonFiniteCellFailsTheSweepBeforeAnyModelBuild) {
  // The engine screens every cell before its own builds: a +inf cell fails
  // the whole sweep, naming the cell, instead of building each gamma
  // group's model and failing every point.
  matrix::ExpressionMatrix data = TestMatrix();
  data(7, 3) = std::numeric_limits<double>::infinity();
  auto report = SweepEngine(data, SweepOptions{}).Run(TestGrid());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
  const std::string cell = "gene '" + data.gene_name(7) + "' at condition '" +
                           data.condition_name(3) + "' is +inf";
  EXPECT_NE(report.status().message().find(cell), std::string::npos)
      << report.status().message();
}

TEST(SweepEngineTest, EmptyPointListIsAnError) {
  const matrix::ExpressionMatrix data = TestMatrix();
  auto report = SweepEngine(data, SweepOptions{}).Run({});
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace core
}  // namespace regcluster
