// Append-equivalence battery for incremental time-course mining
// (io/incremental.h).  The contract under test: after ANY sequence of
// condition appends, MineIncremental's clusters and every deterministic
// MinerStats counter are byte-identical to a from-scratch
// RegClusterMiner::Mine() over the grown matrix, at any thread count,
// including across 64-bit word boundaries.  A tiny-matrix leg re-checks
// each step against the exhaustive first-principles oracle, so the
// equivalence is not just "incremental == miner" but "incremental ==
// Definition 3.3".

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/rwave_index.h"
#include "core/threshold.h"
#include "io/incremental.h"
#include "matrix/expression_matrix.h"
#include "testing/oracle_miner.h"
#include "util/prng.h"
#include "util/status.h"

namespace regcluster {
namespace io {
namespace {

using core::MinerOptions;
using core::MinerStats;
using core::RegCluster;
using core::RegClusterMiner;
using matrix::ExpressionMatrix;

ExpressionMatrix RandomMatrix(uint64_t seed, int genes, int conds) {
  util::Prng prng(seed);
  ExpressionMatrix m(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) m(g, c) = prng.Uniform(0, 10);
  }
  return m;
}

// One appended column of `full`, in the (names, columns) shape
// ExpressionMatrix::AppendConditions takes.
void AppendColumnsFrom(const ExpressionMatrix& full, int first, int count,
                       ExpressionMatrix* prefix) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  for (int k = 0; k < count; ++k) {
    const int c = first + k;
    names.push_back(full.condition_names()[static_cast<size_t>(c)]);
    std::vector<double> col(static_cast<size_t>(full.num_genes()));
    for (int g = 0; g < full.num_genes(); ++g) col[static_cast<size_t>(g)] = full(g, c);
    columns.push_back(std::move(col));
  }
  ASSERT_TRUE(prefix->AppendConditions(names, columns).ok());
}

// Every deterministic MinerStats field.  Wall-clock fields
// (*_seconds) time the call that produced them and are exempt by
// contract; the *_ns phase profile is only populated under
// profile_phases, which the incremental splice forbids.
void ExpectStatsEqual(const MinerStats& got, const MinerStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded) << where;
  EXPECT_EQ(got.extensions_tested, want.extensions_tested) << where;
  EXPECT_EQ(got.pruned_min_genes, want.pruned_min_genes) << where;
  EXPECT_EQ(got.pruned_p_majority, want.pruned_p_majority) << where;
  EXPECT_EQ(got.pruned_duplicate, want.pruned_duplicate) << where;
  EXPECT_EQ(got.pruned_coherence, want.pruned_coherence) << where;
  EXPECT_EQ(got.genes_dropped_min_conds, want.genes_dropped_min_conds) << where;
  EXPECT_EQ(got.clusters_emitted, want.clusters_emitted) << where;
  EXPECT_EQ(got.index_builds, want.index_builds) << where;
  EXPECT_EQ(got.index_word_ops, want.index_word_ops) << where;
  EXPECT_EQ(got.coherence_divide_calls, want.coherence_divide_calls) << where;
  EXPECT_EQ(got.coherence_scores, want.coherence_scores) << where;
  EXPECT_EQ(got.dedup_probes, want.dedup_probes) << where;
}

void ExpectClustersEqual(const std::vector<RegCluster>& got,
                         const std::vector<RegCluster>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << where << " cluster " << i;
  }
}

// From-scratch reference: a plain Mine() over `data` under `options`,
// returning (clusters, stats).
struct Reference {
  std::vector<RegCluster> clusters;
  MinerStats stats;
};

Reference FromScratch(const ExpressionMatrix& data,
                      const MinerOptions& options) {
  RegClusterMiner miner(data, options);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  Reference ref;
  if (clusters.ok()) ref.clusters = *std::move(clusters);
  ref.stats = miner.stats();
  return ref;
}

// Runs a whole append chain -- MineInitial on the first `start` columns of
// `full`, then appends in steps of `k` -- comparing clusters and stats
// against from-scratch mines at every width, threading the durable state
// through the splice logic.  Records the encoded state bytes at every step
// in `encoded` so callers can pin cross-thread byte-identity.
void RunChain(const ExpressionMatrix& full, int start, int k,
              const MinerOptions& options, const std::string& tag,
              std::vector<std::string>* encoded) {
  encoded->clear();
  std::vector<int> all_genes, prefix_conds;
  for (int g = 0; g < full.num_genes(); ++g) all_genes.push_back(g);
  for (int c = 0; c < start; ++c) prefix_conds.push_back(c);
  ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

  auto result = MineInitial(grown, options);
  ASSERT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  {
    const Reference ref = FromScratch(grown, options);
    ExpectClustersEqual(result->clusters, ref.clusters, tag + " seed");
    ExpectStatsEqual(result->stats, ref.stats, tag + " seed");
  }
  encoded->push_back(EncodeIncrementalState(result->state));

  int width = start;
  while (width < full.num_conditions()) {
    const int step = std::min(k, full.num_conditions() - width);
    AppendColumnsFrom(full, width, step, &grown);
    const int first_new = width;
    width += step;
    const std::string where =
        tag + " width " + std::to_string(width) + " (+" + std::to_string(step) + ")";

    auto next = MineIncremental(grown, first_new, options, result->state);
    ASSERT_TRUE(next.ok()) << where << ": " << next.status().ToString();
    EXPECT_EQ(next->roots_remined + next->roots_spliced, width) << where;

    const Reference ref = FromScratch(grown, options);
    ExpectClustersEqual(next->clusters, ref.clusters, where);
    ExpectStatsEqual(next->stats, ref.stats, where);
    encoded->push_back(EncodeIncrementalState(next->state));
    result = std::move(next);
  }
}

MinerOptions OptionsForSeed(uint64_t seed) {
  MinerOptions o;
  o.min_genes = 2 + static_cast<int>(seed % 2);
  o.min_conditions = 2 + static_cast<int>(seed % 3);
  o.gamma = 0.05 + 0.05 * static_cast<double>(seed % 4);
  o.epsilon = 0.1 * static_cast<double>(seed % 5);
  o.gamma_policy = (seed % 2 == 0) ? core::GammaPolicy::kRangeFraction
                                   : core::GammaPolicy::kAbsolute;
  if (o.gamma_policy == core::GammaPolicy::kAbsolute) o.gamma = 1.0;
  o.remove_dominated = (seed % 3 == 0);
  return o;
}

// Satellite 1, leg (a): 50 PRNG matrices, appended one condition at a
// time; clusters and deterministic counters byte-identical to
// from-scratch at every step.
TEST(IncrementalAppendDifferential, OneAtATimeFiftyMatrices) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const int genes = 6 + static_cast<int>(seed % 5);
    const int conds = 6 + static_cast<int>(seed % 7);
    const int start = 4 + static_cast<int>(seed % 2);
    const ExpressionMatrix full = RandomMatrix(seed, genes, conds);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = (seed % 2 == 0) ? 1 : 4;
    std::vector<std::string> enc;
    RunChain(full, start, /*k=*/1, o, "seed " + std::to_string(seed), &enc);
    if (HasFatalFailure()) return;
  }
}

// Satellite 1, leg (b): k-at-a-time appends (k in 2..4) over the same
// matrix family.
TEST(IncrementalAppendDifferential, KAtATimeFiftyMatrices) {
  for (uint64_t seed = 51; seed <= 100; ++seed) {
    const int genes = 6 + static_cast<int>(seed % 5);
    const int conds = 8 + static_cast<int>(seed % 5);
    const int k = 2 + static_cast<int>(seed % 3);
    const ExpressionMatrix full = RandomMatrix(seed, genes, conds);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = (seed % 2 == 0) ? 4 : 1;
    std::vector<std::string> enc;
    RunChain(full, /*start=*/4, k, o, "seed " + std::to_string(seed), &enc);
    if (HasFatalFailure()) return;
  }
}

// Cross-thread byte-identity: the durable state produced at every step of
// a chain is the same bytes at 1 and 4 threads.
TEST(IncrementalAppendDifferential, StateBytesIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 201; seed <= 208; ++seed) {
    const ExpressionMatrix full = RandomMatrix(seed, 8, 9);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = 1;
    std::vector<std::string> serial;
    RunChain(full, 5, 1, o, "serial " + std::to_string(seed), &serial);
    if (HasFatalFailure()) return;
    o.num_threads = 4;
    std::vector<std::string> parallel;
    RunChain(full, 5, 1, o, "parallel " + std::to_string(seed), &parallel);
    if (HasFatalFailure()) return;
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "seed " << seed << " step " << i << ": state bytes diverge";
    }
  }
}

// Satellite 1, leg (c): every step of an append chain re-checked against
// the exhaustive oracle, so incremental == Definition 3.3 directly, not
// just incremental == miner.  Tiny matrices only (the oracle is
// exponential in |C|).
TEST(IncrementalAppendDifferential, OracleDifferentialOnTinyMatrices) {
  for (uint64_t seed = 301; seed <= 306; ++seed) {
    const int genes = 4 + static_cast<int>(seed % 3);
    const ExpressionMatrix full = RandomMatrix(seed, genes, 7);
    MinerOptions o;
    o.min_genes = 2;
    o.min_conditions = 2;
    o.gamma = 0.1 + 0.05 * static_cast<double>(seed % 3);
    o.epsilon = 0.2;
    o.num_threads = (seed % 2 == 0) ? 4 : 1;

    testing::OracleOptions oracle;
    oracle.gamma = core::GammaSpec{o.gamma_policy, o.gamma};
    oracle.epsilon = o.epsilon;
    oracle.min_genes = o.min_genes;
    oracle.min_conditions = o.min_conditions;

    std::vector<int> all_genes, prefix_conds;
    for (int g = 0; g < genes; ++g) all_genes.push_back(g);
    for (int c = 0; c < 4; ++c) prefix_conds.push_back(c);
    ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

    auto result = MineInitial(grown, o);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectClustersEqual(testing::Canonicalize(result->clusters),
                        testing::OracleMine(grown, oracle),
                        "seed " + std::to_string(seed) + " oracle seed step");

    for (int width = 4; width < full.num_conditions(); ++width) {
      AppendColumnsFrom(full, width, 1, &grown);
      auto next = MineIncremental(grown, width, o, result->state);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ExpectClustersEqual(
          testing::Canonicalize(next->clusters),
          testing::OracleMine(grown, oracle),
          "seed " + std::to_string(seed) + " oracle width " +
              std::to_string(width + 1));
      result = std::move(next);
    }
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Append shapes: word-boundary growth, clean-root splicing, dirty roots.

// End-to-end mine across the 64-bit word boundary (64 -> 65 conditions,
// WordsForBits 1 -> 2): the word count grows, which trips the all-dirty
// fallback (per-root index_word_ops scale with the word stride, so no old
// slice may be reused).  On a pure shift pattern no gene ever drops, so a
// dense 64-condition profile would enumerate exponentially many chains;
// instead the shared profile has four flat *levels* (0/10/20/30 with
// gamma 4): conditions within a level never regulate each other, chains
// are at most 4 steps, and the dominant level-0 block keeps the candidate
// fan-out tiny.
TEST(IncrementalModelDelta, MineAcrossWordBoundaryAllDirty) {
  const int genes = 12, start = 64;
  auto level_of = [](int c) { return c < 52 ? 0 : 1 + (c - 52) / 4; };
  ExpressionMatrix grown(genes, start);
  for (int g = 0; g < genes; ++g) {
    const double shift = 1000.0 * g;
    for (int c = 0; c < start; ++c) grown(g, c) = 10.0 * level_of(c) + shift;
  }
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 4;
  o.gamma = 4.0;
  o.gamma_policy = core::GammaPolicy::kAbsolute;
  o.epsilon = 0.5;

  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_GT(seeded->clusters.size(), 0u);

  // The appended condition sits at level 0: within gamma of every level-0
  // root, so WITHOUT word growth most roots would be clean -- any splice
  // here can only come from skipping the fallback.
  std::vector<double> col(static_cast<size_t>(genes));
  for (int g = 0; g < genes; ++g) col[static_cast<size_t>(g)] = 1000.0 * g;
  ASSERT_TRUE(grown.AppendConditions({"c64"}, {col}).ok());

  auto next = MineIncremental(grown, start, o, seeded->state);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->roots_spliced, 0) << "word growth must invalidate all roots";
  EXPECT_EQ(next->roots_remined, start + 1);

  const Reference ref = FromScratch(grown, o);
  ExpectClustersEqual(next->clusters, ref.clusters, "word boundary");
  ExpectStatsEqual(next->stats, ref.stats, "word boundary");
}

// The splice path must actually splice.  A root stays clean iff the
// appended value is within gamma of it in every gene (then the new
// condition is in neither its successor nor predecessor candidates), so a
// shift-pattern matrix whose conditions cluster at flat levels keeps every
// same-level root clean when a new same-level time point arrives -- the
// steady-state time-course shape bench_threads' incremental section times.
TEST(IncrementalModelDelta, ShiftPatternAppendSplicesCleanRoots) {
  const int genes = 10, start = 12;
  // Conditions 0..8 at level 0; 9, 10, 11 at levels 1, 2, 3.
  auto level_of = [](int c) { return c < 9 ? 0 : c - 8; };
  ExpressionMatrix grown(genes, start);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < start; ++c) {
      grown(g, c) = 10.0 * level_of(c) + 1000.0 * g;
    }
  }
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 4.0;
  o.gamma_policy = core::GammaPolicy::kAbsolute;
  o.epsilon = 0.5;

  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_GT(seeded->clusters.size(), 0u);

  // A new level-0 time point: regulated with the level-1..3 roots only.
  std::vector<double> col(static_cast<size_t>(genes));
  for (int g = 0; g < genes; ++g) col[static_cast<size_t>(g)] = 1000.0 * g;
  ASSERT_TRUE(grown.AppendConditions({"late"}, {col}).ok());

  auto next = MineIncremental(grown, start, o, seeded->state);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->roots_spliced, 9) << "level-0 roots must be spliced";
  EXPECT_EQ(next->roots_remined, 4) << "levels 1-3 plus the appended root";

  const Reference ref = FromScratch(grown, o);
  ExpectClustersEqual(next->clusters, ref.clusters, "shift splice");
  ExpectStatsEqual(next->stats, ref.stats, "shift splice");
}

// ComputeDirtyRoots marks exactly the appended roots plus old roots with a
// new condition directly in some gene's candidate band.
TEST(IncrementalModelDelta, ComputeDirtyRootsMatchesBandMembership) {
  const ExpressionMatrix full = RandomMatrix(31337, 8, 10);
  core::GammaSpec spec;
  spec.gamma = 0.15;
  auto model = core::SharedGammaModel::Build(full, spec, 4);
  ASSERT_NE(model, nullptr);
  const int first_new = 8;

  const std::vector<int> dirty = ComputeDirtyRoots(model->index, first_new);
  ASSERT_FALSE(dirty.empty());
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  // Appended roots are always present.
  for (int c = first_new; c < 10; ++c) {
    EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), c)) << c;
  }
  // An old root is dirty iff some gene has a new-condition bit in its
  // candidate rows at that root -- recomputed here by brute force.
  const core::RWaveBitmapIndex& index = model->index;
  for (int r = 0; r < first_new; ++r) {
    bool expect_dirty = false;
    for (int g = 0; g < index.num_genes() && !expect_dirty; ++g) {
      const uint64_t* up = index.SuccessorRow(r, g);
      const uint64_t* down = index.PredecessorRow(r, g);
      for (int c = first_new; c < index.num_conditions(); ++c) {
        if ((up[c / 64] >> (c % 64)) & 1 || (down[c / 64] >> (c % 64)) & 1) {
          expect_dirty = true;
          break;
        }
      }
    }
    EXPECT_EQ(std::binary_search(dirty.begin(), dirty.end(), r), expect_dirty)
        << "root " << r;
  }
}

// ---------------------------------------------------------------------
// Durable state: round trip, corruption, and precondition checks.

IncrementalState SampleState() {
  const ExpressionMatrix data = RandomMatrix(5150, 7, 8);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  o.gamma = 0.1;
  o.epsilon = 0.3;
  auto result = MineInitial(data, o);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->state;
}

void ExpectStatesEqual(const IncrementalState& a, const IncrementalState& b) {
  EXPECT_EQ(a.context.options_hash, b.context.options_hash);
  EXPECT_EQ(a.context.matrix_hash, b.context.matrix_hash);
  EXPECT_EQ(a.context.num_genes, b.context.num_genes);
  EXPECT_EQ(a.context.num_conditions, b.context.num_conditions);
  EXPECT_EQ(a.context.flags, b.context.flags);
  ASSERT_EQ(a.roots.size(), b.roots.size());
  for (size_t i = 0; i < a.roots.size(); ++i) {
    EXPECT_EQ(a.roots[i].root, b.roots[i].root);
    ExpectStatsEqual(a.roots[i].stats, b.roots[i].stats,
                     "root " + std::to_string(i));
    ExpectClustersEqual(a.roots[i].clusters, b.roots[i].clusters,
                        "root " + std::to_string(i));
  }
}

TEST(IncrementalState, EncodeDecodeRoundTrip) {
  const IncrementalState state = SampleState();
  const std::string bytes = EncodeIncrementalState(state);
  auto decoded = DecodeIncrementalState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectStatesEqual(state, *decoded);
  // Re-encoding the decoded state reproduces the exact bytes.
  EXPECT_EQ(EncodeIncrementalState(*decoded), bytes);
}

TEST(IncrementalState, FileRoundTrip) {
  const IncrementalState state = SampleState();
  const std::string path = ::testing::TempDir() + "/inc_state_roundtrip.bin";
  ASSERT_TRUE(WriteIncrementalStateFile(path, state).ok());
  auto loaded = LoadIncrementalState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
  std::remove(path.c_str());
}

TEST(IncrementalState, EveryMalformedShapeIsCorruption) {
  const std::string bytes = EncodeIncrementalState(SampleState());

  // Truncated preamble.
  EXPECT_EQ(DecodeIncrementalState(bytes.substr(0, 7)).status().code(),
            util::StatusCode::kCorruption);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Version mismatch.
  {
    std::string bad = bytes;
    bad[8] = static_cast<char>(0x7f);
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Endianness mismatch.
  {
    std::string bad = bytes;
    bad[12] ^= 0xff;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // A flipped payload byte fails the record CRC.
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x01;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Torn tail (mid-record truncation at several depths).
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() - 5, bytes.size() / 2, size_t{20}}) {
    EXPECT_EQ(DecodeIncrementalState(bytes.substr(0, keep)).status().code(),
              util::StatusCode::kCorruption)
        << "keep " << keep;
  }
  // Trailing bytes after the end record.
  EXPECT_EQ(DecodeIncrementalState(bytes + std::string(4, '\0')).status().code(),
            util::StatusCode::kCorruption);
  // The empty string.
  EXPECT_EQ(DecodeIncrementalState("").status().code(),
            util::StatusCode::kCorruption);
  // A negative condition count, which no run of root records can match.
  {
    IncrementalState bad = SampleState();
    bad.context.num_conditions = -1;
    bad.roots.clear();
    const std::string forged = EncodeIncrementalState(bad);
    EXPECT_EQ(DecodeIncrementalState(forged).status().code(),
              util::StatusCode::kCorruption);
  }
}

TEST(IncrementalState, UnspliceableOptionsAreRejected) {
  const ExpressionMatrix data = RandomMatrix(11, 6, 6);
  MinerOptions base;
  base.min_genes = 2;
  base.min_conditions = 2;

  auto expect_invalid = [&](MinerOptions o, const std::string& what) {
    auto r = MineInitial(data, o);
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << what;
  };
  {
    MinerOptions o = base;
    o.max_nodes = 100;
    expect_invalid(o, "max_nodes");
  }
  {
    MinerOptions o = base;
    o.max_clusters = 5;
    expect_invalid(o, "max_clusters");
  }
  {
    MinerOptions o = base;
    o.deadline_ms = 1000;
    expect_invalid(o, "deadline_ms");
  }
  {
    MinerOptions o = base;
    o.root_set = {0, 1};
    expect_invalid(o, "root_set");
  }
}

TEST(IncrementalState, NonFiniteCellIsFailedPreconditionNamingTheCell) {
  const double kInf = std::numeric_limits<double>::infinity();
  const ExpressionMatrix full = RandomMatrix(707, 7, 9);
  std::vector<int> all_genes, prefix_conds;
  for (int g = 0; g < 7; ++g) all_genes.push_back(g);
  for (int c = 0; c < 7; ++c) prefix_conds.push_back(c);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  auto expect_named = [](const util::Status& st, const ExpressionMatrix& m,
                         int g, int c) {
    EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
    const std::string cell = "gene '" + m.gene_name(g) + "' at condition '" +
                             m.condition_name(c) + "' is +inf";
    EXPECT_NE(st.message().find(cell), std::string::npos) << st.message();
  };

  // The seed mine.
  ExpressionMatrix bad_seed = full.Submatrix(all_genes, prefix_conds);
  bad_seed(4, 1) = kInf;
  expect_named(MineInitial(bad_seed, o).status(), bad_seed, 4, 1);

  // An append whose new column holds the cell.
  ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);
  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok());
  AppendColumnsFrom(full, 7, 2, &grown);
  grown(2, 8) = kInf;
  expect_named(MineIncremental(grown, 7, o, seeded->state).status(), grown, 2,
               8);
}

TEST(IncrementalState, MismatchedPrevIsFailedPrecondition) {
  const ExpressionMatrix full = RandomMatrix(606, 7, 9);
  std::vector<int> all_genes, prefix_conds;
  for (int g = 0; g < 7; ++g) all_genes.push_back(g);
  for (int c = 0; c < 7; ++c) prefix_conds.push_back(c);
  ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok());
  AppendColumnsFrom(full, 7, 2, &grown);

  auto expect_precondition = [&](const ExpressionMatrix& data, int first_new,
                                 const MinerOptions& opts,
                                 const IncrementalState& prev,
                                 const std::string& what) {
    auto r = MineIncremental(data, first_new, opts, prev);
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition) << what;
  };

  // Different semantic options than the state was mined under.
  {
    MinerOptions changed = o;
    changed.epsilon += 0.25;
    expect_precondition(grown, 7, changed, seeded->state, "options hash");
  }
  // Dominance flag flipped relative to the recorded state.
  {
    MinerOptions changed = o;
    changed.remove_dominated = true;
    expect_precondition(grown, 7, changed, seeded->state, "dominance flag");
  }
  // A mutated old cell: the prefix is no longer the mined matrix.
  {
    ExpressionMatrix tampered = grown;
    tampered(3, 2) += 1.0;
    expect_precondition(tampered, 7, o, seeded->state, "prefix content");
  }
  // Wrong gene count.
  {
    std::vector<int> fewer = {0, 1, 2, 3, 4, 5};
    std::vector<int> conds;
    for (int c = 0; c < 9; ++c) conds.push_back(c);
    expect_precondition(full.Submatrix(fewer, conds), 7, o, seeded->state,
                        "gene count");
  }
  // first_new inconsistent with the recorded width.
  expect_precondition(grown, 6, o, seeded->state, "first_new");
  // Execution knobs (threads) are NOT part of the identity: same state,
  // different thread count must be accepted.
  {
    MinerOptions threaded = o;
    threaded.num_threads = 4;
    auto r = MineIncremental(grown, 7, threaded, seeded->state);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

}  // namespace
}  // namespace io
}  // namespace regcluster
