// Out-of-core mining differentials: a mine of the mmap-backed matrix must
// produce clusters byte-identical to the resident search at any thread
// count, its gamma model must be nothing but the bitmap index, its memory
// stop must charge the mapping and the model, and a run cut on one storage
// path must continue (root_set from the cut root) on the other.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/rwave.h"
#include "matrix/expression_matrix.h"
#include "matrix/store.h"
#include "synth/generator.h"
#include "testing/paper_data.h"

namespace regcluster {
namespace core {
namespace {

synth::SyntheticDataset Dataset() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 240;
  cfg.num_conditions = 16;
  cfg.num_clusters = 5;
  cfg.avg_cluster_genes_fraction = 0.05;
  cfg.seed = 4242;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return *std::move(ds);
}

MinerOptions BaseOptions() {
  MinerOptions o;
  o.min_genes = 4;
  o.min_conditions = 5;
  o.gamma = 0.1;
  o.epsilon = 0.05;
  return o;
}

void ExpectSameClusters(const std::vector<RegCluster>& a,
                        const std::vector<RegCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "cluster " << i;
}

/// Writes `ds` as a binary matrix under TempDir() and maps it.
matrix::MappedMatrix MapDataset(const synth::SyntheticDataset& ds,
                                const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(matrix::WriteBinaryMatrix(ds.data, path).ok());
  auto mapped = matrix::MappedMatrix::Open(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().message();
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return *std::move(mapped);
}

TEST(MinerOutOfCoreTest, MappedMatrixMatchesResident) {
  const auto ds = Dataset();
  const matrix::MappedMatrix mapped =
      MapDataset(ds, "outofcore_differential.rgx");
  auto resident = RegClusterMiner(ds.data, BaseOptions()).Mine();
  ASSERT_TRUE(resident.ok());
  ASSERT_FALSE(resident->empty()) << "differential is vacuous";
  const MinerOptions base = BaseOptions();
  const size_t index_bytes =
      SharedGammaModel::Build(ds.data, {base.gamma_policy, base.gamma},
                              base.min_conditions)
          ->index.MemoryBytes();

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    MinerOptions o = BaseOptions();
    o.num_threads = threads;
    RegClusterMiner miner(mapped, o);
    auto from_mapped = miner.Mine();
    ASSERT_TRUE(from_mapped.ok());
    ExpectSameClusters(*resident, *from_mapped);
    // The model is its bitmap index, nothing besides.
    EXPECT_EQ(miner.outcome().model_bytes, static_cast<int64_t>(index_bytes));
    EXPECT_EQ(miner.outcome().model_cache_misses, 0);
    if (mapped.is_mapped()) {
      EXPECT_EQ(miner.outcome().mapped_bytes, mapped.mapped_bytes());
      EXPECT_GT(miner.outcome().mapped_bytes, 0);
    }
  }
}

TEST(MinerOutOfCoreTest, MemoryStopChargesMappedMatrixAndModel) {
  // A mapped run that builds its own model charges mapped + model bytes as
  // a fixed base, so a limit below that base stops it; a resident run
  // counts only its scratch and completes under the same limit.
  const auto ds = Dataset();
  const matrix::MappedMatrix mapped = MapDataset(ds, "outofcore_memory.rgx");
  if (!mapped.is_mapped()) GTEST_SKIP() << "no file mapping on this platform";
  MinerOptions o = BaseOptions();
  const int64_t index_bytes = static_cast<int64_t>(
      SharedGammaModel::Build(ds.data, {o.gamma_policy, o.gamma},
                              o.min_conditions)
          ->index.MemoryBytes());
  o.soft_memory_limit_bytes = mapped.mapped_bytes() + index_bytes - 1;
  o.budget_check_interval = 1;

  RegClusterMiner resident(ds.data, o);
  ASSERT_TRUE(resident.Mine().ok());
  EXPECT_EQ(resident.outcome().status, MineStatus::kComplete);
  ASSERT_LT(resident.outcome().peak_scratch_bytes, o.soft_memory_limit_bytes)
      << "the limit must leave the resident run room to complete";

  RegClusterMiner from_mapped(mapped, o);
  ASSERT_TRUE(from_mapped.Mine().ok());
  EXPECT_EQ(from_mapped.outcome().status, MineStatus::kTruncated);
  EXPECT_EQ(from_mapped.outcome().stop_reason,
            util::StopReason::kMemoryBudget);

  // A shared model is the caller's allocation: nothing is charged for it.
  o.shared_model = SharedGammaModel::Build(
      mapped, {o.gamma_policy, o.gamma}, o.min_conditions);
  RegClusterMiner shared(mapped, o);
  ASSERT_TRUE(shared.Mine().ok());
  EXPECT_EQ(shared.outcome().status, MineStatus::kComplete);
}

TEST(MinerOutOfCoreTest, ResumeTokenSplicesAcrossPaths) {
  // Truncate a resident run, then finish it on the mapped matrix: the
  // concatenation (the mapped run searching the roots from the cut one on)
  // must equal the untruncated resident answer.
  const auto ds = Dataset();
  const matrix::MappedMatrix mapped = MapDataset(ds, "outofcore_resume.rgx");
  auto reference = RegClusterMiner(ds.data, BaseOptions()).Mine();
  ASSERT_TRUE(reference.ok());

  MinerOptions budgeted = BaseOptions();
  budgeted.max_nodes = 40;
  RegClusterMiner first(ds.data, budgeted);
  auto head = first.Mine();
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(first.outcome().status, MineStatus::kTruncated);
  ASSERT_TRUE(first.outcome().resume.can_resume());

  MinerOptions rest = BaseOptions();
  rest.num_threads = 2;
  for (int c = first.outcome().resume.next_root; c < mapped.num_conditions();
       ++c) {
    rest.root_set.push_back(c);
  }
  RegClusterMiner second(mapped, rest);
  auto tail = second.Mine();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(second.outcome().status, MineStatus::kComplete);

  std::vector<RegCluster> spliced = *head;
  spliced.insert(spliced.end(), tail->begin(), tail->end());
  ExpectSameClusters(*reference, spliced);
}

TEST(MinerOutOfCoreTest, EagerPathReportsNoCacheTraffic) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  RegClusterMiner miner(data, o);
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_EQ(miner.outcome().model_cache_hits, 0);
  EXPECT_EQ(miner.outcome().model_cache_misses, 0);
  EXPECT_EQ(miner.outcome().model_cache_evictions, 0);
  EXPECT_EQ(miner.outcome().mapped_bytes, 0);
  EXPECT_GT(miner.outcome().model_bytes, 0);
}

// ---------------------------------------------------------------------------
// Satellite: the eager bulk model build is byte-identical at any thread
// count (slot-assigned stripes, per-worker scratch).
// ---------------------------------------------------------------------------

void ExpectModelsEqual(const RWaveModel& a, const RWaveModel& b) {
  ASSERT_EQ(a.num_conditions(), b.num_conditions());
  EXPECT_EQ(a.gamma_abs(), b.gamma_abs());
  EXPECT_EQ(a.pointers(), b.pointers());
  for (int p = 0; p < a.num_conditions(); ++p) {
    EXPECT_EQ(a.condition_at(p), b.condition_at(p));
    EXPECT_EQ(a.value_at(p), b.value_at(p));
    EXPECT_EQ(a.MaxChainUp(p), b.MaxChainUp(p));
    EXPECT_EQ(a.MaxChainDown(p), b.MaxChainDown(p));
  }
}

class RWaveSetThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(RWaveSetThreadSweep, ParallelBuildMatchesSerial) {
  const auto ds = Dataset();
  const RWaveSet serial(ds.data, 0.1, 1);
  const RWaveSet parallel(ds.data, 0.1, GetParam());
  ASSERT_EQ(serial.num_genes(), parallel.num_genes());
  for (int g = 0; g < serial.num_genes(); ++g) {
    ExpectModelsEqual(serial.model(g), parallel.model(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RWaveSetThreadSweep,
                         ::testing::Values(0, 2, 4, 8));

}  // namespace
}  // namespace core
}  // namespace regcluster
