// Byte-stability of the binary formats against committed golden files.
//
// tests/io/testdata/ holds one RGCXCKP1 snapshot of each kind and one
// RGCXINC1 state, encoded from the fixed structs of golden_fixtures.h.
// Each file must decode back to exactly its struct, and re-encoding the
// decoded value (and the struct itself) must reproduce the file byte for
// byte.  A codec refactor that reorders, drops or retypes a field fails
// here instead of silently orphaning every snapshot already on disk.  A
// seeded mutation battery over the same files holds both decoders to their
// hostile-input contract: OK and byte-identical on re-encode, or kCorruption.

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "golden_fixtures.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "util/durable_file.h"

namespace regcluster {
namespace golden {
namespace {

std::string ReadGolden(const char* name) {
  auto bytes = util::ReadFileToString(std::string(REGCLUSTER_TESTDATA_DIR) +
                                      "/" + name);
  EXPECT_TRUE(bytes.ok()) << name << ": " << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

void ExpectStatsEq(const core::MinerStats& a, const core::MinerStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.extensions_tested, b.extensions_tested);
  EXPECT_EQ(a.pruned_min_genes, b.pruned_min_genes);
  EXPECT_EQ(a.pruned_p_majority, b.pruned_p_majority);
  EXPECT_EQ(a.pruned_duplicate, b.pruned_duplicate);
  EXPECT_EQ(a.pruned_coherence, b.pruned_coherence);
  EXPECT_EQ(a.genes_dropped_min_conds, b.genes_dropped_min_conds);
  EXPECT_EQ(a.clusters_emitted, b.clusters_emitted);
  EXPECT_EQ(a.index_builds, b.index_builds);
  EXPECT_EQ(a.rwave_build_seconds, b.rwave_build_seconds);
  EXPECT_EQ(a.index_build_seconds, b.index_build_seconds);
  EXPECT_EQ(a.mine_seconds, b.mine_seconds);
  EXPECT_EQ(a.index_word_ops, b.index_word_ops);
  EXPECT_EQ(a.coherence_divide_calls, b.coherence_divide_calls);
  EXPECT_EQ(a.coherence_scores, b.coherence_scores);
  EXPECT_EQ(a.dedup_probes, b.dedup_probes);
  EXPECT_EQ(a.filter_ns, b.filter_ns);
  EXPECT_EQ(a.score_ns, b.score_ns);
  EXPECT_EQ(a.sort_ns, b.sort_ns);
  EXPECT_EQ(a.emit_ns, b.emit_ns);
}

void ExpectContextEq(const io::RunContext& a, const io::RunContext& b) {
  EXPECT_EQ(a.options_hash, b.options_hash);
  EXPECT_EQ(a.matrix_hash, b.matrix_hash);
  EXPECT_EQ(a.num_genes, b.num_genes);
  EXPECT_EQ(a.num_conditions, b.num_conditions);
  EXPECT_EQ(a.flags, b.flags);
}

void ExpectOutcomeEq(const core::MineOutcome& a, const core::MineOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.roots_completed, b.roots_completed);
  EXPECT_EQ(a.roots_total, b.roots_total);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.peak_scratch_bytes, b.peak_scratch_bytes);
  EXPECT_EQ(a.resume.next_root, b.resume.next_root);
  EXPECT_EQ(a.resume.options_hash, b.resume.options_hash);
  EXPECT_EQ(a.phase_a_seconds, b.phase_a_seconds);
  EXPECT_EQ(a.phase_b_seconds, b.phase_b_seconds);
  EXPECT_EQ(a.pool_steals, b.pool_steals);
  EXPECT_EQ(a.pool_queue_high_water, b.pool_queue_high_water);
  EXPECT_EQ(a.budget_polls, b.budget_polls);
  EXPECT_EQ(a.model_cache_hits, b.model_cache_hits);
  EXPECT_EQ(a.model_cache_misses, b.model_cache_misses);
  EXPECT_EQ(a.model_cache_evictions, b.model_cache_evictions);
  EXPECT_EQ(a.model_cache_resident_bytes, b.model_cache_resident_bytes);
  EXPECT_EQ(a.model_bytes, b.model_bytes);
  EXPECT_EQ(a.mapped_bytes, b.mapped_bytes);
}

void ExpectClustersEq(const std::vector<core::RegCluster>& a,
                      const std::vector<core::RegCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].chain, b[i].chain) << i;
    EXPECT_EQ(a[i].p_genes, b[i].p_genes) << i;
    EXPECT_EQ(a[i].n_genes, b[i].n_genes) << i;
  }
}

TEST(WireGolden, MineCheckpointDecodesAndReencodes) {
  const std::string bytes = ReadGolden(kMineCheckpointFile);
  const io::Checkpoint want = MineCheckpoint();
  EXPECT_EQ(io::EncodeCheckpoint(want), bytes);
  auto got = io::DecodeCheckpoint(bytes);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, io::CheckpointKind::kMine);
  const io::MineCheckpoint& g = got->mine;
  const io::MineCheckpoint& w = want.mine;
  ExpectContextEq(g.context, w.context);
  EXPECT_EQ(g.next_root, w.next_root);
  EXPECT_EQ(g.roots_completed, w.roots_completed);
  EXPECT_EQ(g.nodes_visited, w.nodes_visited);
  EXPECT_EQ(g.wall_seconds, w.wall_seconds);
  EXPECT_EQ(g.peak_scratch_bytes, w.peak_scratch_bytes);
  ExpectStatsEq(g.stats, w.stats);
  ExpectClustersEq(g.clusters, w.clusters);
  EXPECT_EQ(io::EncodeCheckpoint(*got), bytes);
}

TEST(WireGolden, SweepCheckpointDecodesAndReencodes) {
  const std::string bytes = ReadGolden(kSweepCheckpointFile);
  const io::Checkpoint want = SweepCheckpoint();
  EXPECT_EQ(io::EncodeCheckpoint(want), bytes);
  auto got = io::DecodeCheckpoint(bytes);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, io::CheckpointKind::kSweep);
  const io::SweepCheckpoint& g = got->sweep;
  const io::SweepCheckpoint& w = want.sweep;
  ExpectContextEq(g.context, w.context);
  EXPECT_EQ(g.first_unfinished, w.first_unfinished);
  EXPECT_EQ(g.runs_total, w.runs_total);
  EXPECT_EQ(g.truncated, w.truncated);
  EXPECT_EQ(g.stop_reason, w.stop_reason);
  EXPECT_EQ(g.index_builds, w.index_builds);
  EXPECT_EQ(g.shared_model_bytes, w.shared_model_bytes);
  EXPECT_EQ(g.wall_seconds, w.wall_seconds);
  ASSERT_EQ(g.runs.size(), w.runs.size());
  for (size_t i = 0; i < w.runs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(g.runs[i].status.code(), w.runs[i].status.code());
    EXPECT_EQ(g.runs[i].status.message(), w.runs[i].status.message());
    EXPECT_EQ(g.runs[i].executed, w.runs[i].executed);
    EXPECT_EQ(g.runs[i].used_shared_model, w.runs[i].used_shared_model);
    ExpectStatsEq(g.runs[i].stats, w.runs[i].stats);
    ExpectOutcomeEq(g.runs[i].outcome, w.runs[i].outcome);
    ExpectClustersEq(g.runs[i].clusters, w.runs[i].clusters);
  }
  EXPECT_EQ(io::EncodeCheckpoint(*got), bytes);
}

TEST(WireGolden, IncrementalStateDecodesAndReencodes) {
  const std::string bytes = ReadGolden(kIncrementalStateFile);
  const io::IncrementalState want = IncrementalState();
  EXPECT_EQ(io::EncodeIncrementalState(want), bytes);
  auto got = io::DecodeIncrementalState(bytes);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectContextEq(got->context, want.context);
  ASSERT_EQ(got->roots.size(), want.roots.size());
  for (size_t i = 0; i < want.roots.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got->roots[i].root, want.roots[i].root);
    ExpectStatsEq(got->roots[i].stats, want.roots[i].stats);
    ExpectClustersEq(got->roots[i].clusters, want.roots[i].clusters);
  }
  EXPECT_EQ(io::EncodeIncrementalState(*got), bytes);
}

TEST(WireGolden, TruncatedGoldenFilesStayCorruption) {
  // The golden bytes cut anywhere short of the end must be rejected as
  // corruption, never decode to a shorter-but-valid record.
  for (const char* name : {kMineCheckpointFile, kSweepCheckpointFile}) {
    const std::string bytes = ReadGolden(name);
    for (size_t cut = 0; cut < bytes.size(); cut += 7) {
      auto got = io::DecodeCheckpoint(bytes.substr(0, cut));
      ASSERT_FALSE(got.ok()) << name << " cut at " << cut;
      EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
    }
  }
  const std::string state = ReadGolden(kIncrementalStateFile);
  for (size_t cut = 0; cut < state.size(); cut += 7) {
    auto got = io::DecodeIncrementalState(state.substr(0, cut));
    ASSERT_FALSE(got.ok()) << "state cut at " << cut;
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
  }
}

// The three golden files with their preamble lengths: the framed records
// start after it.
struct GoldenFormat {
  const char* name;
  size_t preamble;
};
constexpr GoldenFormat kGoldenFormats[] = {{kMineCheckpointFile, 28},
                                           {kSweepCheckpointFile, 28},
                                           {kIncrementalStateFile, 16}};

// The framed records (header, payload and CRC each) after the preamble.
std::vector<std::string> FramedRecords(const std::string& bytes,
                                       size_t preamble) {
  util::RecordReader reader(std::string_view(bytes).substr(preamble));
  std::vector<std::string> records;
  size_t start = 0;
  while (!reader.AtEnd()) {
    EXPECT_TRUE(reader.Next().ok());
    records.push_back(
        bytes.substr(preamble + start, reader.position() - start));
    start = reader.position();
  }
  return records;
}

// Decodes `bytes` in the format of golden file `name`: an accepted input
// must re-encode to exactly itself; anything else must be kCorruption.
void ExpectRoundTripOrCorruption(const char* name, const std::string& bytes,
                                 const std::string& mutation) {
  util::Status status;
  std::string again;
  if (std::string_view(name) == kIncrementalStateFile) {
    auto got = io::DecodeIncrementalState(bytes);
    status = got.status();
    if (got.ok()) again = io::EncodeIncrementalState(*got);
  } else {
    auto got = io::DecodeCheckpoint(bytes);
    status = got.status();
    if (got.ok()) again = io::EncodeCheckpoint(*got);
  }
  if (status.ok()) {
    EXPECT_EQ(again, bytes) << name << " after " << mutation;
  } else {
    EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
        << name << " after " << mutation << ": " << status.ToString();
  }
}

TEST(WireGolden, MutatedGoldenFilesDecodeExactlyOrStayCorruption) {
  // Byte flips and truncations mostly stop at the CRC framing; whole-record
  // splices (drop, duplicate, swap) keep every CRC valid, so they reach the
  // record-order rules, the end counts and the run and root indices.
  constexpr int kMutationsPerFile = 3000;
  std::mt19937_64 rng(20261020);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  for (const GoldenFormat& format : kGoldenFormats) {
    const std::string bytes = ReadGolden(format.name);
    const std::vector<std::string> records =
        FramedRecords(bytes, format.preamble);
    ASSERT_GE(records.size(), 3u) << format.name;
    for (int i = 0; i < kMutationsPerFile; ++i) {
      std::string mutated;
      std::string what;
      switch (i % 3) {
        case 0: {
          const size_t at = pick(bytes.size());
          const char mask = static_cast<char>(1 + pick(255));
          mutated = bytes;
          mutated[at] ^= mask;
          what = "flip at " + std::to_string(at);
          break;
        }
        case 1: {
          const size_t keep = pick(bytes.size());
          mutated = bytes.substr(0, keep);
          what = "cut to " + std::to_string(keep);
          break;
        }
        default: {
          std::vector<std::string> spliced = records;
          for (size_t ops = 1 + pick(3); ops > 0 && !spliced.empty(); --ops) {
            const size_t a = pick(spliced.size());
            const size_t b = pick(spliced.size());
            switch (pick(3)) {
              case 0:
                spliced.erase(spliced.begin() + a);
                what += "drop " + std::to_string(a) + "; ";
                break;
              case 1:
                spliced.insert(spliced.begin() + b, spliced[a]);
                what += "dup " + std::to_string(a) + " at " +
                        std::to_string(b) + "; ";
                break;
              default:
                std::swap(spliced[a], spliced[b]);
                what += "swap " + std::to_string(a) + "," +
                        std::to_string(b) + "; ";
                break;
            }
          }
          mutated = bytes.substr(0, format.preamble);
          for (const std::string& rec : spliced) mutated += rec;
          break;
        }
      }
      ExpectRoundTripOrCorruption(format.name, mutated, what);
    }
  }
}

}  // namespace
}  // namespace golden
}  // namespace regcluster
