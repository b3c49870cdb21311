// Fixed run records behind the committed golden files in tests/io/testdata/.
//
// Every MinerStats / MineOutcome field holds a distinct value, so a codec
// or exporter that swaps, drops or duplicates a field changes bytes instead
// of silently passing.  tests/io/golden_fixtures_gen.cc writes the files
// from these structs; wire_golden_test.cc and exposition_snapshot_test.cc
// check the current code against them.  Regenerate (and bump the format
// version) only for a deliberate wire or exposition change.

#ifndef REGCLUSTER_TESTS_IO_GOLDEN_FIXTURES_H_
#define REGCLUSTER_TESTS_IO_GOLDEN_FIXTURES_H_

#include <string>
#include <vector>

#include "core/bicluster.h"
#include "core/miner.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "matrix/expression_matrix.h"
#include "util/status.h"

namespace regcluster {
namespace golden {

/// Names of the committed files, relative to tests/io/testdata/.
inline constexpr const char* kMineCheckpointFile = "ckpt_mine.rgcxckp1";
inline constexpr const char* kSweepCheckpointFile = "ckpt_sweep.rgcxckp1";
inline constexpr const char* kIncrementalStateFile = "state.rgcxinc1";
inline constexpr const char* kMetricsJsonFile = "miner_metrics.json";
inline constexpr const char* kMetricsPromFile = "miner_metrics.prom";
inline constexpr const char* kClustersJsonFile = "clusters_export.json";

/// `base` offsets every value so two records built from one helper differ.
inline core::MinerStats Stats(int64_t base) {
  core::MinerStats s;
  s.nodes_expanded = base + 1;
  s.extensions_tested = base + 2;
  s.pruned_min_genes = base + 3;
  s.pruned_p_majority = base + 4;
  s.pruned_duplicate = base + 5;
  s.pruned_coherence = base + 6;
  s.genes_dropped_min_conds = base + 7;
  s.clusters_emitted = base + 8;
  s.index_builds = base + 9;
  s.rwave_build_seconds = 0.5 + static_cast<double>(base);
  s.index_build_seconds = 0.25 + static_cast<double>(base);
  s.mine_seconds = 0.125 + static_cast<double>(base);
  s.index_word_ops = base + 10;
  s.coherence_divide_calls = base + 11;
  s.coherence_scores = base + 12;
  s.dedup_probes = base + 13;
  s.filter_ns = base + 14;
  s.score_ns = base + 15;
  s.sort_ns = base + 16;
  s.emit_ns = base + 17;
  return s;
}

/// The fields the binary formats carry: the profiling *_ns counters are
/// volatile and never round-trip, so they decode as 0.
inline core::MinerStats WireStats(int64_t base) {
  core::MinerStats s = Stats(base);
  s.filter_ns = 0;
  s.score_ns = 0;
  s.sort_ns = 0;
  s.emit_ns = 0;
  return s;
}

inline core::MineOutcome Outcome(int64_t base) {
  core::MineOutcome o;
  o.status = core::MineStatus::kTruncated;
  o.stop_reason = util::StopReason::kNodeBudget;
  o.nodes_visited = base + 21;
  o.roots_completed = static_cast<int>(base) + 22;
  o.roots_total = static_cast<int>(base) + 23;
  o.wall_seconds = 3.5 + static_cast<double>(base);
  o.peak_scratch_bytes = base + 24;
  o.resume.next_root = static_cast<int>(base) + 25;
  o.resume.options_hash = 0xA1B2C3D4E5F60718ull + static_cast<uint64_t>(base);
  o.phase_a_seconds = 4.25 + static_cast<double>(base);
  o.phase_b_seconds = 5.75 + static_cast<double>(base);
  o.pool_steals = base + 26;
  o.pool_queue_high_water = base + 27;
  o.budget_polls = base + 28;
  o.simd_level = util::simd::Level::kAvx2;
  o.model_cache_hits = base + 29;
  o.model_cache_misses = base + 30;
  o.model_cache_evictions = base + 31;
  o.model_cache_resident_bytes = base + 32;
  o.model_bytes = base + 33;
  o.mapped_bytes = base + 34;
  return o;
}

/// The MineOutcome subset a sweep snapshot carries; the rest decodes as
/// the default.
inline core::MineOutcome WireOutcome(int64_t base) {
  const core::MineOutcome full = Outcome(base);
  core::MineOutcome o;
  o.status = full.status;
  o.stop_reason = full.stop_reason;
  o.nodes_visited = full.nodes_visited;
  o.roots_completed = full.roots_completed;
  o.roots_total = full.roots_total;
  o.wall_seconds = full.wall_seconds;
  o.peak_scratch_bytes = full.peak_scratch_bytes;
  o.resume = full.resume;
  return o;
}

inline std::vector<core::RegCluster> Clusters(int seed) {
  std::vector<core::RegCluster> out;
  for (int i = 0; i < 2; ++i) {
    core::RegCluster c;
    c.chain = {seed + i, seed + i + 3, seed + i + 1};
    c.p_genes = {2 * seed + i, 2 * seed + i + 4};
    c.n_genes = {2 * seed + i + 1};
    out.push_back(c);
  }
  return out;
}

inline io::Checkpoint MineCheckpoint() {
  io::Checkpoint ckpt;
  ckpt.generation = 42;
  ckpt.kind = io::CheckpointKind::kMine;
  io::MineCheckpoint& m = ckpt.mine;
  m.context.options_hash = 0x1122334455667788ull;
  m.context.matrix_hash = {0x0102030405060708ull, 0x1112131415161718ull};
  m.context.num_genes = 120;
  m.context.num_conditions = 12;
  m.context.flags = io::RunContext::kRemoveDominated;
  m.next_root = 7;
  m.roots_completed = 6;
  m.nodes_visited = 99999;
  m.wall_seconds = 1.75;
  m.peak_scratch_bytes = 1 << 20;
  m.stats = WireStats(1000);
  m.clusters = Clusters(1);
  return ckpt;
}

inline io::Checkpoint SweepCheckpoint() {
  io::Checkpoint ckpt;
  ckpt.generation = 43;
  ckpt.kind = io::CheckpointKind::kSweep;
  io::SweepCheckpoint& s = ckpt.sweep;
  s.context.options_hash = 0x8877665544332211ull;
  s.context.matrix_hash = {0x2122232425262728ull, 0x3132333435363738ull};
  s.context.num_genes = 80;
  s.context.num_conditions = 9;
  s.context.flags = 0;
  s.first_unfinished = 2;
  s.runs_total = 5;
  s.truncated = 1;
  s.stop_reason = static_cast<int32_t>(util::StopReason::kClusterBudget);
  s.index_builds = 3;
  s.shared_model_bytes = 65536;
  s.wall_seconds = 2.625;
  core::SweepRun executed;
  executed.executed = true;
  executed.used_shared_model = true;
  executed.stats = WireStats(2000);
  executed.outcome = WireOutcome(2000);
  executed.clusters = Clusters(5);
  core::SweepRun rejected;
  rejected.status = util::Status::InvalidArgument("gamma out of range");
  s.runs = {executed, rejected};
  return ckpt;
}

inline io::IncrementalState IncrementalState() {
  io::IncrementalState st;
  st.context.options_hash = 0x0F1E2D3C4B5A6978ull;
  st.context.matrix_hash = {0x4142434445464748ull, 0x5152535455565758ull};
  st.context.num_genes = 64;
  st.context.num_conditions = 3;
  st.context.flags = io::RunContext::kRemoveDominated;
  for (int r = 0; r < 3; ++r) {
    core::RootMineResult slice;
    slice.root = r;
    slice.stats = WireStats(3000 + 100 * r);
    slice.clusters = Clusters(10 * r);
    st.roots.push_back(slice);
  }
  return st;
}

/// A small named matrix for the clusters JSON export (indices in Clusters(1)
/// must stay inside it).
inline matrix::ExpressionMatrix ExportMatrix() {
  matrix::ExpressionMatrix m(8, 6);
  for (int g = 0; g < m.num_genes(); ++g) {
    for (int c = 0; c < m.num_conditions(); ++c) m(g, c) = g + 0.5 * c;
  }
  return m;
}

}  // namespace golden
}  // namespace regcluster

#endif  // REGCLUSTER_TESTS_IO_GOLDEN_FIXTURES_H_
