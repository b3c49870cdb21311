// io::checkpoint contract tests:
//
//  * the RGCXCKP1 wire format round-trips both snapshot kinds and rejects
//    every malformed shape with a distinct kCorruption (short preamble, bad
//    magic/version/endianness/kind, torn records, missing records, count
//    mismatch, trailing bytes) -- a corrupt snapshot must never decode into
//    a plausible-but-wrong resume point;
//  * LoadCheckpoint picks the newest valid double-buffer and falls back to
//    the other buffer when the newest is torn;
//  * validators reject a snapshot against the wrong options / matrix /
//    grid with a distinct kFailedPrecondition each;
//  * RunCheckpointedMine / RunCheckpointedSweep are byte-identical to the
//    plain miner / sweep engine, both fresh and when resumed from a real
//    mid-run snapshot (the crash harness kills real processes; here the
//    mid-run snapshot is the penultimate buffer of a completed run).

#include "io/checkpoint.h"

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gmock/gmock.h"
#include "gtest/gtest.h"
#include "core/miner.h"
#include "core/sweep.h"
#include "io/record_codec.h"
#include "io/sweep_io.h"
#include "matrix/expression_matrix.h"
#include "matrix/store.h"
#include "synth/generator.h"
#include "util/cancellation.h"
#include "util/durable_file.h"
#include "util/status.h"
#include "util/wire.h"

namespace regcluster {
namespace io {
namespace {

using ::testing::HasSubstr;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

matrix::ExpressionMatrix TestMatrix() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 120;
  cfg.num_conditions = 12;
  cfg.num_clusters = 3;
  cfg.avg_cluster_genes_fraction = 0.08;
  cfg.seed = 808;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return ds->data;
}

core::MinerOptions TestOptions() {
  core::MinerOptions opts;
  opts.min_genes = 5;
  opts.min_conditions = 4;
  opts.gamma = 0.15;
  opts.epsilon = 0.1;
  return opts;
}

core::RegCluster MakeCluster(int seed) {
  core::RegCluster c;
  c.chain = {seed, seed + 3, seed + 1};
  c.p_genes = {seed * 2, seed * 2 + 4};
  c.n_genes = {seed * 2 + 1};
  return c;
}

Checkpoint MineFixture() {
  Checkpoint ckpt;
  ckpt.generation = 42;
  ckpt.kind = CheckpointKind::kMine;
  MineCheckpoint& m = ckpt.mine;
  m.context.options_hash = 0x1234567890ABCDEFull;
  m.context.matrix_hash = {0xDEAD, 0xBEEF};
  m.context.num_genes = 120;
  m.context.num_conditions = 12;
  m.context.flags = RunContext::kRemoveDominated;
  m.next_root = 7;
  m.roots_completed = 6;
  m.nodes_visited = 99999;
  m.wall_seconds = 1.25;
  m.peak_scratch_bytes = 1 << 20;
  m.stats.nodes_expanded = 1111;
  m.stats.extensions_tested = 2222;
  m.stats.pruned_min_genes = 33;
  m.stats.pruned_p_majority = 44;
  m.stats.pruned_duplicate = 55;
  m.stats.pruned_coherence = 66;
  m.stats.genes_dropped_min_conds = 77;
  m.stats.clusters_emitted = 88;
  m.stats.index_builds = 1;
  m.stats.index_word_ops = 1010;
  m.stats.coherence_divide_calls = 2020;
  m.stats.coherence_scores = 3030;
  m.stats.dedup_probes = 4040;
  m.stats.rwave_build_seconds = 0.5;
  m.stats.index_build_seconds = 0.25;
  m.stats.mine_seconds = 2.5;
  m.clusters = {MakeCluster(1), MakeCluster(5)};
  return ckpt;
}

Checkpoint SweepFixture() {
  Checkpoint ckpt;
  ckpt.generation = 9;
  ckpt.kind = CheckpointKind::kSweep;
  SweepCheckpoint& s = ckpt.sweep;
  s.context.options_hash = 0xFEEDFACE12345678ull;
  s.context.matrix_hash = {0xAB, 0xCD};
  s.context.num_genes = 120;
  s.context.num_conditions = 12;
  s.first_unfinished = 2;
  s.runs_total = 4;
  s.truncated = 0;
  s.stop_reason = 0;
  s.index_builds = 1;
  s.shared_model_bytes = 65536;
  s.wall_seconds = 3.5;
  core::SweepRun ok_run;
  ok_run.executed = true;
  ok_run.used_shared_model = true;
  ok_run.stats.nodes_expanded = 500;
  ok_run.stats.clusters_emitted = 3;
  ok_run.outcome.status = core::MineStatus::kComplete;
  ok_run.outcome.nodes_visited = 512;
  ok_run.outcome.roots_completed = 12;
  ok_run.outcome.roots_total = 12;
  ok_run.clusters = {MakeCluster(2)};
  core::SweepRun failed_run;
  failed_run.executed = false;
  failed_run.status = util::Status::InvalidArgument("gamma out of range");
  s.runs = {ok_run, failed_run};
  return ckpt;
}

// ---------------------------------------------------------------------------
// Wire-format round trips.

TEST(CheckpointWireTest, MineRoundTripPreservesEveryField) {
  const Checkpoint want = MineFixture();
  auto got = DecodeCheckpoint(EncodeCheckpoint(want));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, CheckpointKind::kMine);
  const MineCheckpoint& m = got->mine;
  const MineCheckpoint& w = want.mine;
  EXPECT_EQ(m.context.options_hash, w.context.options_hash);
  EXPECT_EQ(m.context.matrix_hash, w.context.matrix_hash);
  EXPECT_EQ(m.context.num_genes, w.context.num_genes);
  EXPECT_EQ(m.context.num_conditions, w.context.num_conditions);
  EXPECT_EQ(m.context.flags, w.context.flags);
  EXPECT_EQ(m.next_root, w.next_root);
  EXPECT_EQ(m.roots_completed, w.roots_completed);
  EXPECT_EQ(m.nodes_visited, w.nodes_visited);
  EXPECT_EQ(m.wall_seconds, w.wall_seconds);
  EXPECT_EQ(m.peak_scratch_bytes, w.peak_scratch_bytes);
  EXPECT_EQ(m.stats.nodes_expanded, w.stats.nodes_expanded);
  EXPECT_EQ(m.stats.extensions_tested, w.stats.extensions_tested);
  EXPECT_EQ(m.stats.pruned_min_genes, w.stats.pruned_min_genes);
  EXPECT_EQ(m.stats.pruned_p_majority, w.stats.pruned_p_majority);
  EXPECT_EQ(m.stats.pruned_duplicate, w.stats.pruned_duplicate);
  EXPECT_EQ(m.stats.pruned_coherence, w.stats.pruned_coherence);
  EXPECT_EQ(m.stats.genes_dropped_min_conds,
            w.stats.genes_dropped_min_conds);
  EXPECT_EQ(m.stats.clusters_emitted, w.stats.clusters_emitted);
  EXPECT_EQ(m.stats.index_builds, w.stats.index_builds);
  EXPECT_EQ(m.stats.index_word_ops, w.stats.index_word_ops);
  EXPECT_EQ(m.stats.coherence_divide_calls, w.stats.coherence_divide_calls);
  EXPECT_EQ(m.stats.coherence_scores, w.stats.coherence_scores);
  EXPECT_EQ(m.stats.dedup_probes, w.stats.dedup_probes);
  EXPECT_EQ(m.stats.rwave_build_seconds, w.stats.rwave_build_seconds);
  EXPECT_EQ(m.stats.index_build_seconds, w.stats.index_build_seconds);
  EXPECT_EQ(m.stats.mine_seconds, w.stats.mine_seconds);
  ASSERT_EQ(m.clusters.size(), w.clusters.size());
  for (size_t i = 0; i < w.clusters.size(); ++i) {
    EXPECT_EQ(m.clusters[i], w.clusters[i]) << "cluster " << i;
  }
  EXPECT_FALSE(m.complete());
}

TEST(CheckpointWireTest, SweepRoundTripPreservesRunsAndStatuses) {
  const Checkpoint want = SweepFixture();
  auto got = DecodeCheckpoint(EncodeCheckpoint(want));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, CheckpointKind::kSweep);
  const SweepCheckpoint& s = got->sweep;
  const SweepCheckpoint& w = want.sweep;
  EXPECT_EQ(s.context.options_hash, w.context.options_hash);
  EXPECT_EQ(s.context.matrix_hash, w.context.matrix_hash);
  EXPECT_EQ(s.first_unfinished, w.first_unfinished);
  EXPECT_EQ(s.runs_total, w.runs_total);
  EXPECT_EQ(s.index_builds, w.index_builds);
  EXPECT_EQ(s.shared_model_bytes, w.shared_model_bytes);
  EXPECT_EQ(s.wall_seconds, w.wall_seconds);
  ASSERT_EQ(s.runs.size(), 2u);
  EXPECT_TRUE(s.runs[0].executed);
  EXPECT_TRUE(s.runs[0].used_shared_model);
  EXPECT_EQ(s.runs[0].stats.nodes_expanded, 500);
  EXPECT_EQ(s.runs[0].outcome.nodes_visited, 512);
  EXPECT_EQ(s.runs[0].outcome.roots_completed, 12);
  ASSERT_EQ(s.runs[0].clusters.size(), 1u);
  EXPECT_EQ(s.runs[0].clusters[0], w.runs[0].clusters[0]);
  EXPECT_FALSE(s.runs[1].executed);
  EXPECT_EQ(s.runs[1].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_THAT(s.runs[1].status.message(), HasSubstr("gamma out of range"));
}

TEST(CheckpointWireTest, BufferPathAlternatesByGenerationParity) {
  EXPECT_EQ(CheckpointBufferPath("ck", 2), "ck.a");
  EXPECT_EQ(CheckpointBufferPath("ck", 3), "ck.b");
  EXPECT_EQ(CheckpointBufferPath("ck", 4), "ck.a");
}

// ---------------------------------------------------------------------------
// Malformed snapshots: a distinct kCorruption per shape.

void ExpectCorruption(std::string_view bytes, const std::string& substr) {
  auto got = DecodeCheckpoint(bytes);
  ASSERT_FALSE(got.ok()) << "decoded despite: " << substr;
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(got.status().message(), HasSubstr(substr));
}

TEST(CheckpointCorruptionTest, ShortPreamble) {
  ExpectCorruption("RGCX", "shorter than preamble");
  ExpectCorruption("", "shorter than preamble");
}

TEST(CheckpointCorruptionTest, BadMagic) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[0] = 'X';
  ExpectCorruption(bytes, "bad checkpoint magic");
}

TEST(CheckpointCorruptionTest, UnsupportedVersion) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[8] = 99;  // version u32 follows the 8-byte magic
  ExpectCorruption(bytes, "unsupported checkpoint version 99");
}

TEST(CheckpointCorruptionTest, EndiannessMismatch) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  std::swap(bytes[12], bytes[15]);  // byte-swap the endian tag
  ExpectCorruption(bytes, "endianness mismatch");
}

TEST(CheckpointCorruptionTest, UnknownKind) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[16] = 7;  // kind u32: neither kMine=1 nor kSweep=2
  ExpectCorruption(bytes, "unknown checkpoint kind 7");
}

TEST(CheckpointCorruptionTest, BitFlippedRecordPayload) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[28 + 8] ^= 0x20;  // first payload byte of the first framed record
  ExpectCorruption(bytes, "record checksum mismatch");
}

TEST(CheckpointCorruptionTest, MissingTrailingRecords) {
  // Cut the stream at each interior record boundary: the decoder must
  // report a *missing* record, never return a partial checkpoint.
  const std::string bytes = EncodeCheckpoint(MineFixture());
  const std::string_view body = std::string_view(bytes).substr(28);
  util::RecordReader reader(body);
  std::vector<size_t> boundaries;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.Next().ok());
    boundaries.push_back(28 + reader.position());
  }
  ASSERT_GE(boundaries.size(), 2u);
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    ExpectCorruption(bytes.substr(0, boundaries[i]),
                     "missing checkpoint record");
  }
}

TEST(CheckpointCorruptionTest, TrailingBytesAfterFooter) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  util::AppendRecord(&bytes, "one record too many");
  ExpectCorruption(bytes, "trailing bytes after checkpoint footer");
}

TEST(CheckpointCorruptionTest, EveryTruncationPointIsRejected) {
  // A torn write can stop at any byte; no prefix may decode.
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto got = DecodeCheckpoint(bytes.substr(0, cut));
    ASSERT_FALSE(got.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
  }
}

TEST(CheckpointCorruptionTest, EveryFramedByteFlipIsRejected) {
  // Flip each byte past the preamble (the CRC-framed region): every flip
  // must be caught.  (The preamble's generation field is intentionally
  // outside the framing -- the loader cross-checks it against the buffer
  // name and min_generation instead.)
  const std::string bytes = EncodeCheckpoint(MineFixture());
  for (size_t i = 28; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    auto got = DecodeCheckpoint(flipped);
    EXPECT_FALSE(got.ok()) << "flip at byte " << i << " decoded";
  }
}

TEST(CheckpointCorruptionTest, MineNextRootMustBeACondition) {
  // A resume mines the roots from next_root on, so it must name one.
  // 12 conditions; -1 alone means complete.
  for (const int64_t past : {int64_t{12}, int64_t{13}, int64_t{-2}}) {
    Checkpoint ckpt = MineFixture();
    ckpt.mine.next_root = past;
    ExpectCorruption(EncodeCheckpoint(ckpt),
                     "next_root is outside the matrix's conditions");
  }
}

TEST(CheckpointCorruptionTest, ClusterCountBeyondItsRecordIsRejected) {
  // A CRC-valid clusters record that declares 2^40 clusters in no bytes:
  // each cluster needs at least 12, so the count fails before any reserve.
  const std::string bytes = EncodeCheckpoint(MineFixture());
  util::RecordReader reader(std::string_view(bytes).substr(28));
  std::vector<std::string> records;
  while (!reader.AtEnd()) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    records.emplace_back(*rec);
  }
  ASSERT_EQ(records.size(), 5u);  // context, progress, stats, clusters, end
  std::string clusters;
  util::PutU32(&clusters, 4);  // clusters record tag
  util::PutU64(&clusters, uint64_t{1} << 40);
  records[3] = clusters;
  std::string forged = bytes.substr(0, 28);
  for (const std::string& rec : records) util::AppendRecord(&forged, rec);
  ExpectCorruption(forged, "exceeds what its record can hold");
}

// A sweep snapshot whose records disagree with its progress is CRC-valid but
// would report points that never ran: each disagreement is its own
// kCorruption.
TEST(CheckpointCorruptionTest, SweepRunsMustBeTheCoveredPrefix) {
  Checkpoint past_end = SweepFixture();
  past_end.sweep.first_unfinished = 5;  // runs_total is 4
  ExpectCorruption(EncodeCheckpoint(past_end),
                   "first_unfinished outside [-1, runs_total)");
  Checkpoint below = SweepFixture();
  below.sweep.first_unfinished = -2;
  ExpectCorruption(EncodeCheckpoint(below),
                   "first_unfinished outside [-1, runs_total)");

  Checkpoint fewer = SweepFixture();
  fewer.sweep.runs.pop_back();  // first_unfinished 2, one run record
  ExpectCorruption(EncodeCheckpoint(fewer),
                   "run count does not match the covered prefix");
  Checkpoint ahead = SweepFixture();
  ahead.sweep.first_unfinished = 3;  // two run records
  ExpectCorruption(EncodeCheckpoint(ahead),
                   "run count does not match the covered prefix");
  Checkpoint complete_short = SweepFixture();
  complete_short.sweep.first_unfinished = -1;  // complete: needs 4 runs
  ExpectCorruption(EncodeCheckpoint(complete_short),
                   "run count does not match the covered prefix");

  // Duplicate run 0 in place of run 1: re-frame the records so only the
  // index check can notice.
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  util::RecordReader reader(std::string_view(bytes).substr(28));
  std::vector<std::string> records;
  while (!reader.AtEnd()) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    records.emplace_back(*rec);
  }
  ASSERT_EQ(records.size(), 5u);  // context, aggregate, 2 runs, end
  records[3] = records[2];
  std::string duplicated = bytes.substr(0, 28);
  for (const std::string& rec : records) util::AppendRecord(&duplicated, rec);
  ExpectCorruption(duplicated, "run index differs from its position");
}

// SweepFixture's encoding with record `index` (1 = aggregate, 2 = run 0)
// replaced by `payload` and re-framed, so only the field checks can notice.
std::string ReframedSweep(size_t index, const std::string& payload) {
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  util::RecordReader reader(std::string_view(bytes).substr(28));
  std::vector<std::string> records;
  while (!reader.AtEnd()) {
    auto rec = reader.Next();
    EXPECT_TRUE(rec.ok());
    records.emplace_back(*rec);
  }
  EXPECT_EQ(records.size(), 5u);  // context, aggregate, 2 runs, end
  records[index] = payload;
  std::string framed = bytes.substr(0, 28);
  for (const std::string& rec : records) util::AppendRecord(&framed, rec);
  return framed;
}

// SweepFixture's aggregate record with the given flag and stop reason.
std::string AggregatePayload(uint32_t truncated, uint32_t stop_reason) {
  std::string rec;
  util::PutU32(&rec, 5);  // sweep aggregate tag
  util::PutI64(&rec, 2);  // first_unfinished
  util::PutI64(&rec, 4);  // runs_total
  util::PutU32(&rec, truncated);
  util::PutU32(&rec, stop_reason);
  util::PutI64(&rec, 1);      // index_builds
  util::PutI64(&rec, 65536);  // shared_model_bytes
  util::PutDouble(&rec, 3.5);
  util::PutU64(&rec, 2);  // run records
  return rec;
}

// A run-0 record of zero stats and no clusters with the given fields.
struct RunFields {
  uint32_t code = 0;
  std::string message;
  uint32_t executed = 1;
  uint32_t used_shared_model = 1;
  uint32_t outcome_status = 0;
  uint32_t outcome_stop_reason = 0;
};

std::string RunPayload(const RunFields& f) {
  std::string rec;
  util::PutU32(&rec, 6);  // sweep run tag
  util::PutU32(&rec, 0);  // run index
  util::PutU32(&rec, f.code);
  util::PutString(&rec, f.message);
  util::PutU32(&rec, f.executed);
  util::PutU32(&rec, f.used_shared_model);
  PutMinerStats(&rec, core::MinerStats{});
  util::PutU32(&rec, f.outcome_status);
  util::PutU32(&rec, f.outcome_stop_reason);
  util::PutI64(&rec, 0);       // nodes_visited
  util::PutI64(&rec, 0);       // roots_completed
  util::PutI64(&rec, 0);       // roots_total
  util::PutDouble(&rec, 0.0);  // wall_seconds
  util::PutI64(&rec, 0);       // peak_scratch_bytes
  util::PutI64(&rec, -1);      // resume next_root
  util::PutU64(&rec, 0);       // resume options_hash
  PutClusters(&rec, {});
  return rec;
}

// A CRC-valid sweep record may hold only values the encoder writes: flags
// are 0 or 1, enums name an enumerator, and an OK status has no message.
// Anything else would decode to a report that re-encodes differently.
TEST(CheckpointCorruptionTest, SweepRecordsHoldOnlyDefinedValues) {
  // Run 0 re-framed with the fields `set` writes.
  const auto run_with = [](auto set) {
    RunFields f;
    set(f);
    return ReframedSweep(2, RunPayload(f));
  };
  // The hand-framed shapes are right: defined values decode and re-encode
  // to their own bytes.
  for (const std::string& framed :
       {ReframedSweep(1, AggregatePayload(1, 5)),
        run_with([](RunFields&) {}), run_with([](RunFields& f) {
          f.code = 8;
          f.message = "internal";
          f.executed = 0;
          f.used_shared_model = 0;
          f.outcome_status = 1;
          f.outcome_stop_reason = 5;
        })}) {
    auto decoded = DecodeCheckpoint(framed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeCheckpoint(*decoded), framed);
  }

  ExpectCorruption(ReframedSweep(1, AggregatePayload(2, 0)),
                   "sweep truncated holds undefined value 2");
  ExpectCorruption(ReframedSweep(1, AggregatePayload(0, 6)),
                   "sweep stop_reason holds undefined value 6");
  ExpectCorruption(run_with([](RunFields& f) { f.executed = 2; }),
                   "run executed holds undefined value 2");
  ExpectCorruption(run_with([](RunFields& f) { f.used_shared_model = 2; }),
                   "run used_shared_model holds undefined value 2");
  ExpectCorruption(run_with([](RunFields& f) { f.outcome_status = 2; }),
                   "outcome status holds undefined value 2");
  ExpectCorruption(run_with([](RunFields& f) { f.outcome_stop_reason = 6; }),
                   "outcome stop_reason holds undefined value 6");
  ExpectCorruption(run_with([](RunFields& f) { f.code = 9; }),
                   "run status code holds undefined value 9");
  ExpectCorruption(run_with([](RunFields& f) { f.message = "ok?"; }),
                   "run status carries a message under code 0");
}

// ---------------------------------------------------------------------------
// LoadCheckpoint buffer selection.

TEST(LoadCheckpointTest, MissingFilesAreNotFound) {
  auto got = LoadCheckpoint(TempPath("ck_never_written"));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kNotFound);
}

TEST(LoadCheckpointTest, PicksNewestValidBuffer) {
  const std::string base = TempPath("ck_newest");
  Checkpoint older = MineFixture();
  older.generation = 4;
  Checkpoint newer = MineFixture();
  newer.generation = 5;
  newer.mine.next_root = 9;
  ASSERT_TRUE(WriteCheckpointFile(base, older).ok());  // -> base.a
  ASSERT_TRUE(WriteCheckpointFile(base, newer).ok());  // -> base.b
  auto got = LoadCheckpoint(base);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 5u);
  EXPECT_EQ(got->mine.next_root, 9);
}

TEST(LoadCheckpointTest, FallsBackWhenNewestBufferIsTorn) {
  const std::string base = TempPath("ck_torn");
  Checkpoint older = MineFixture();
  older.generation = 4;
  Checkpoint newer = MineFixture();
  newer.generation = 5;
  ASSERT_TRUE(WriteCheckpointFile(base, older).ok());
  ASSERT_TRUE(WriteCheckpointFile(base, newer).ok());
  // Tear the newer buffer the way a crash mid-write would.
  auto torn = util::ReadFileToString(base + ".b");
  ASSERT_TRUE(torn.ok());
  ASSERT_TRUE(
      util::AtomicWriteFile(base + ".b", torn->substr(0, torn->size() / 2))
          .ok());
  auto got = LoadCheckpoint(base);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 4u);
}

TEST(LoadCheckpointTest, AllBuffersCorruptReportsFirstError) {
  const std::string base = TempPath("ck_allbad");
  ASSERT_TRUE(util::AtomicWriteFile(base + ".a", "garbage").ok());
  auto got = LoadCheckpoint(base);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
}

TEST(LoadCheckpointTest, BaseItselfMayBeALiteralSnapshot) {
  const std::string path = TempPath("ck_literal.snap");
  Checkpoint ckpt = MineFixture();
  ckpt.generation = 17;
  ASSERT_TRUE(util::AtomicWriteFile(path, EncodeCheckpoint(ckpt)).ok());
  auto got = LoadCheckpoint(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 17u);
}

TEST(LoadCheckpointTest, StaleGenerationIsFailedPrecondition) {
  const std::string base = TempPath("ck_stale");
  Checkpoint ckpt = MineFixture();
  ckpt.generation = 4;
  ASSERT_TRUE(WriteCheckpointFile(base, ckpt).ok());
  auto got = LoadCheckpoint(base, /*min_generation=*/10);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_THAT(got.status().message(),
              HasSubstr("stale checkpoint generation"));
}

// ---------------------------------------------------------------------------
// Content hashes and validators.

TEST(CheckpointHashTest, MatrixHashIdenticalAcrossResidentAndMappedPaths) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const util::Hash128 resident = HashMatrixContent(data);
  const std::string bin = TempPath("ckpt_hash_matrix.bin");
  ASSERT_TRUE(matrix::WriteBinaryMatrix(data, bin).ok());
  auto mapped = matrix::MappedMatrix::Open(bin);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(HashMatrixContent(*mapped), resident);
}

TEST(CheckpointHashTest, MatrixHashSensitiveToContent) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 30;
  cfg.num_conditions = 8;
  cfg.num_clusters = 2;
  cfg.avg_cluster_conditions = 4;
  cfg.avg_cluster_genes_fraction = 0.2;
  cfg.seed = 1;
  auto a = synth::GenerateSynthetic(cfg);
  cfg.seed = 2;
  auto b = synth::GenerateSynthetic(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(HashMatrixContent(a->data), HashMatrixContent(b->data));
}

TEST(CheckpointHashTest, SweepGridHashIsOrderSensitive) {
  core::MinerOptions p1 = TestOptions();
  core::MinerOptions p2 = TestOptions();
  p2.gamma = 0.2;
  EXPECT_NE(HashSweepGrid({p1, p2}), HashSweepGrid({p2, p1}));
  EXPECT_NE(HashSweepGrid({p1, p2}), HashSweepGrid({p1}));
  EXPECT_EQ(HashSweepGrid({p1, p2}), HashSweepGrid({p1, p2}));
}

class CheckpointValidateTest : public ::testing::Test {
 protected:
  CheckpointValidateTest() : data_(TestMatrix()), options_(TestOptions()) {
    ckpt_.context.options_hash =
        core::RegClusterMiner::SemanticOptionsHash(options_);
    ckpt_.context.matrix_hash = HashMatrixContent(data_);
    ckpt_.context.num_genes = data_.num_genes();
    ckpt_.context.num_conditions = data_.num_conditions();
    ckpt_.context.flags = 0;
  }

  void ExpectRejected(const MineCheckpoint& ckpt, const std::string& substr) {
    util::Status st = ValidateMineCheckpoint(ckpt, data_, options_);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
    EXPECT_THAT(st.message(), HasSubstr(substr));
  }

  matrix::ExpressionMatrix data_;
  core::MinerOptions options_;  // remove_dominated defaults to false
  MineCheckpoint ckpt_;
};

TEST_F(CheckpointValidateTest, MatchingCheckpointPasses) {
  EXPECT_TRUE(ValidateMineCheckpoint(ckpt_, data_, options_).ok());
}

TEST_F(CheckpointValidateTest, DominanceFlagMismatch) {
  MineCheckpoint bad = ckpt_;
  bad.context.flags = RunContext::kRemoveDominated;
  ExpectRejected(bad, "dominance-pass setting differs");
}

TEST_F(CheckpointValidateTest, OptionsHashMismatch) {
  MineCheckpoint bad = ckpt_;
  bad.context.options_hash ^= 1;
  ExpectRejected(bad, "different mining options");
}

TEST_F(CheckpointValidateTest, DimensionMismatch) {
  MineCheckpoint bad = ckpt_;
  bad.context.num_genes += 1;
  ExpectRejected(bad, "matrix dimensions differ");
}

TEST_F(CheckpointValidateTest, MatrixContentMismatch) {
  MineCheckpoint bad = ckpt_;
  bad.context.matrix_hash.lo ^= 1;
  ExpectRejected(bad, "different matrix");
}

TEST(ValidateSweepCheckpointTest, DistinctFailures) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<core::MinerOptions> points = {TestOptions(), TestOptions()};
  points[1].gamma = 0.2;

  SweepCheckpoint good;
  good.context.options_hash = HashSweepGrid(points);
  good.context.matrix_hash = HashMatrixContent(data);
  good.context.num_genes = data.num_genes();
  good.context.num_conditions = data.num_conditions();
  good.runs_total = 2;
  EXPECT_TRUE(ValidateSweepCheckpoint(good, data, points).ok());

  SweepCheckpoint wrong_count = good;
  wrong_count.runs_total = 3;
  util::Status st = ValidateSweepCheckpoint(wrong_count, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_THAT(st.message(), HasSubstr("grid size differs"));

  SweepCheckpoint wrong_grid = good;
  wrong_grid.context.options_hash ^= 1;
  st = ValidateSweepCheckpoint(wrong_grid, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_THAT(st.message(), HasSubstr("different sweep grid"));

  SweepCheckpoint wrong_matrix = good;
  wrong_matrix.context.matrix_hash.hi ^= 1;
  st = ValidateSweepCheckpoint(wrong_matrix, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_THAT(st.message(), HasSubstr("different matrix"));
}

// ---------------------------------------------------------------------------
// CheckpointWriter.

TEST(CheckpointWriterTest, SynchronousWritesAlternateBuffersAndCount) {
  const std::string base = TempPath("ckw_sync");
  CheckpointWriter writer(base, /*next_generation=*/1, /*synchronous=*/true);
  writer.Submit(MineFixture());  // generation 1 -> .b
  writer.Submit(MineFixture());  // generation 2 -> .a
  EXPECT_TRUE(writer.last_error().ok());
  const CheckpointStats stats = writer.stats();
  EXPECT_EQ(stats.writes, 2);
  EXPECT_GT(stats.bytes, 0);
  auto b = LoadCheckpoint(base + ".b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->generation, 1u);
  auto a = LoadCheckpoint(base + ".a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->generation, 2u);
}

TEST(CheckpointWriterTest, EmptyPathDisablesWriting) {
  CheckpointWriter writer("", 1, /*synchronous=*/true);
  writer.Submit(MineFixture());
  EXPECT_TRUE(writer.WriteNow(MineFixture()).ok());
  EXPECT_EQ(writer.stats().writes, 0);
  EXPECT_TRUE(writer.last_error().ok());
}

TEST(CheckpointWriterTest, WriteFailureIsSticky) {
  const std::string base = TempPath("no_such_dir") + "/ckw";
  CheckpointWriter writer(base, 1, /*synchronous=*/true);
  writer.Submit(MineFixture());
  EXPECT_FALSE(writer.last_error().ok());
  EXPECT_EQ(writer.stats().writes, 0);
}

TEST(CheckpointWriterTest, NoteResumeCounts) {
  CheckpointWriter writer("", 1, true);
  writer.NoteResume();
  EXPECT_EQ(writer.stats().resumes, 1);
}

// ---------------------------------------------------------------------------
// Durable mine driver: byte identity with the plain miner.

void ExpectSameDeterministicStats(const core::MinerStats& a,
                                  const core::MinerStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.extensions_tested, b.extensions_tested);
  EXPECT_EQ(a.pruned_min_genes, b.pruned_min_genes);
  EXPECT_EQ(a.pruned_p_majority, b.pruned_p_majority);
  EXPECT_EQ(a.pruned_duplicate, b.pruned_duplicate);
  EXPECT_EQ(a.pruned_coherence, b.pruned_coherence);
  EXPECT_EQ(a.genes_dropped_min_conds, b.genes_dropped_min_conds);
  EXPECT_EQ(a.clusters_emitted, b.clusters_emitted);
  EXPECT_EQ(a.index_builds, b.index_builds);
}

void ExpectSameClusters(const std::vector<core::RegCluster>& a,
                        const std::vector<core::RegCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "cluster " << i;
  }
}

struct PlainMineResult {
  std::vector<core::RegCluster> clusters;
  core::MinerStats stats;
  core::MineOutcome outcome;
};

PlainMineResult PlainMine(const matrix::MatrixStore& data,
                          const core::MinerOptions& options) {
  core::RegClusterMiner miner(data, options);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  return {*std::move(clusters), miner.stats(), miner.outcome()};
}

TEST(RunCheckpointedMineTest, FreshRunMatchesPlainMineAndSnapshotsComplete) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.path = TempPath("ckm_fresh");
  config.synchronous = true;
  config.every_ms = 1;  // several snapshots: the first after one root
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameClusters(got->clusters, want.clusters);
  ExpectSameDeterministicStats(got->stats, want.stats);
  EXPECT_EQ(got->outcome.status, core::MineStatus::kComplete);
  EXPECT_TRUE(got->checkpoint_status.ok());
  EXPECT_GE(got->checkpoint.writes, 1);

  // The final snapshot on disk says complete and holds the raw clusters.
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok()) << final_ckpt.status().ToString();
  EXPECT_TRUE(final_ckpt->mine.complete());
  ExpectSameClusters(final_ckpt->mine.clusters, want.clusters);
}

TEST(RunCheckpointedMineTest, ResumeFromMidRunSnapshotIsByteIdentical) {
  const matrix::ExpressionMatrix data = TestMatrix();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    core::MinerOptions options = TestOptions();
    options.num_threads = threads;
    const PlainMineResult want = PlainMine(data, options);

    // A synchronous run leaves its penultimate (mid-run) snapshot in the
    // buffer the final write did not target -- a real crash-surviving
    // artifact, not a hand-crafted one.  The first included root is always
    // snapshotted, so a run over more than one root writes at least two
    // snapshots, at any thread count.
    CheckpointConfig config;
    config.path = TempPath("ckm_midrun");
    config.synchronous = true;
    config.every_ms = 1;
    auto full = RunCheckpointedMine(data, options, config, nullptr);
    ASSERT_TRUE(full.ok());
    ASSERT_GE(full->checkpoint.writes, 2) << "no mid-run snapshot";

    auto final_ckpt = LoadCheckpoint(config.path);
    ASSERT_TRUE(final_ckpt.ok());
    const std::string other =
        CheckpointBufferPath(config.path, final_ckpt->generation + 1);
    auto midrun = LoadCheckpoint(other);
    ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
    ASSERT_FALSE(midrun->mine.complete());
    ASSERT_GT(midrun->mine.next_root, 0);

    CheckpointConfig resume_config;  // no snapshot writing on the resume leg
    resume_config.next_generation = midrun->generation + 1;
    auto resumed =
        RunCheckpointedMine(data, options, resume_config, &midrun->mine);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameClusters(resumed->clusters, want.clusters);
    ExpectSameDeterministicStats(resumed->stats, want.stats);
    EXPECT_EQ(resumed->checkpoint.resumes, 1);
  }
}

// A mid-run snapshot counts the work this process has done so far, so a
// run killed after it and resumed does not drop the killed leg's totals.
TEST(RunCheckpointedMineTest, MidRunSnapshotCarriesThisProcessTotals) {
  const matrix::ExpressionMatrix data = TestMatrix();
  CheckpointConfig config;
  config.path = TempPath("ckm_midrun_totals");
  config.synchronous = true;
  config.every_ms = 1;
  auto full = RunCheckpointedMine(data, TestOptions(), config, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->checkpoint.writes, 2) << "no mid-run snapshot";

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  auto midrun = LoadCheckpoint(
      CheckpointBufferPath(config.path, final_ckpt->generation + 1));
  ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
  ASSERT_FALSE(midrun->mine.complete());
  EXPECT_GT(midrun->mine.wall_seconds, 0.0);
  EXPECT_GT(midrun->mine.stats.nodes_expanded, 0);
  EXPECT_GE(midrun->mine.nodes_visited, midrun->mine.stats.nodes_expanded);
}

TEST(RunCheckpointedMineTest, CompleteSnapshotShortCircuits) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();

  CheckpointConfig config;
  config.path = TempPath("ckm_complete");
  config.synchronous = true;
  auto first = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(first.ok());

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  ASSERT_TRUE(final_ckpt->mine.complete());

  CheckpointConfig replay_config;
  auto replayed =
      RunCheckpointedMine(data, options, replay_config, &final_ckpt->mine);
  ASSERT_TRUE(replayed.ok());
  ExpectSameClusters(replayed->clusters, first->clusters);
  ExpectSameDeterministicStats(replayed->stats, first->stats);
}

TEST(RunCheckpointedMineTest, RemoveDominatedAppliesOnceAtCompletion) {
  const matrix::ExpressionMatrix data = TestMatrix();
  core::MinerOptions options = TestOptions();
  options.remove_dominated = true;
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.path = TempPath("ckm_domin");
  config.synchronous = true;
  config.every_ms = 1;
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok());
  ExpectSameClusters(got->clusters, want.clusters);

  // The snapshot stores the *raw* prefix (flagged), so a resumed run can
  // re-apply the global pass on the full output.
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  EXPECT_EQ(final_ckpt->mine.context.flags & RunContext::kRemoveDominated,
            RunContext::kRemoveDominated);
  EXPECT_GE(final_ckpt->mine.clusters.size(), got->clusters.size());
}

// Under the caller's node and cluster budgets the durable driver returns
// what a plain Mine() returns: the same clusters (dominance pass included,
// truncated or not), deterministic counters, stop and resume token.
TEST(RunCheckpointedMineTest, BudgetedRunsMatchPlainMine) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const PlainMineResult full = PlainMine(data, TestOptions());
  core::MinerOptions first_root = TestOptions();
  first_root.root_set = {0};
  const int64_t root0_nodes = PlainMine(data, first_root).stats.nodes_expanded;
  const int64_t nodes = full.stats.nodes_expanded;
  const int64_t clusters = full.stats.clusters_emitted;
  ASSERT_GT(root0_nodes, 0);
  ASSERT_GT(clusters, 3);

  struct Budget {
    int64_t max_nodes;
    int64_t max_clusters;
  };
  const Budget budgets[] = {
      {-1, -1},          {root0_nodes - 1, -1}, {nodes / 3, -1},
      {2 * nodes / 3, -1}, {-1, 0},             {-1, clusters / 2},
      {nodes / 2, clusters / 3},
  };
  bool dominance_cut_a_truncated_run = false;
  for (const Budget& budget : budgets) {
    for (const bool remove_dominated : {false, true}) {
      for (const int threads : {1, 4}) {
        core::MinerOptions options = TestOptions();
        options.max_nodes = budget.max_nodes;
        options.max_clusters = budget.max_clusters;
        options.remove_dominated = remove_dominated;
        options.num_threads = threads;
        SCOPED_TRACE(::testing::Message()
                     << "max_nodes=" << budget.max_nodes
                     << " max_clusters=" << budget.max_clusters
                     << " remove_dominated=" << remove_dominated
                     << " threads=" << threads);
        const PlainMineResult want = PlainMine(data, options);

        CheckpointConfig config;
        config.path = TempPath("ckm_budgets");
        config.every_ms = 1;
        auto got = RunCheckpointedMine(data, options, config, nullptr);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameClusters(got->clusters, want.clusters);
        ExpectSameDeterministicStats(got->stats, want.stats);
        EXPECT_EQ(got->outcome.status, want.outcome.status);
        EXPECT_EQ(got->outcome.stop_reason, want.outcome.stop_reason);
        EXPECT_EQ(got->outcome.roots_completed, want.outcome.roots_completed);
        EXPECT_EQ(got->outcome.roots_total, want.outcome.roots_total);
        EXPECT_EQ(got->outcome.resume.next_root, want.outcome.resume.next_root);
        EXPECT_EQ(got->outcome.resume.options_hash,
                  want.outcome.resume.options_hash);
        if (remove_dominated &&
            want.outcome.status == core::MineStatus::kTruncated &&
            want.clusters.size() <
                static_cast<size_t>(want.stats.clusters_emitted)) {
          dominance_cut_a_truncated_run = true;
        }
      }
    }
  }
  EXPECT_TRUE(dominance_cut_a_truncated_run)
      << "no truncated case exercised the dominance pass";
}

TEST(RunCheckpointedMineTest, RejectsSnapshotFromDifferentOptions) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();

  CheckpointConfig config;
  config.path = TempPath("ckm_reject");
  config.synchronous = true;
  auto first = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(first.ok());
  auto ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(ckpt.ok());

  core::MinerOptions different = options;
  different.epsilon = 0.2;
  auto resumed =
      RunCheckpointedMine(data, different, CheckpointConfig{}, &ckpt->mine);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(RunCheckpointedMineTest, NonFiniteCellIsRejectedBeforeAnySnapshot) {
  matrix::ExpressionMatrix data = TestMatrix();
  data(5, 2) = std::numeric_limits<double>::infinity();

  CheckpointConfig config;
  config.path = TempPath("ckm_nonfinite");
  config.synchronous = true;
  auto got = RunCheckpointedMine(data, TestOptions(), config, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_THAT(got.status().message(),
              HasSubstr("gene '" + data.gene_name(5) + "' at condition '" +
                        data.condition_name(2) + "' is +inf"));
  EXPECT_EQ(LoadCheckpoint(config.path).status().code(),
            util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Durable sweep driver.

std::vector<core::MinerOptions> TestGrid() {
  core::MinerOptions base = TestOptions();
  std::vector<core::MinerOptions> points;
  for (double gamma : {0.12, 0.18}) {  // two gamma groups of two points
    for (double eps : {0.08, 0.12}) {
      core::MinerOptions p = base;
      p.gamma = gamma;
      p.epsilon = eps;
      points.push_back(p);
    }
  }
  return points;
}

void ExpectSameReports(const core::SweepReport& a,
                       const core::SweepReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.first_unfinished, b.first_unfinished);
  EXPECT_EQ(a.runs_executed, b.runs_executed);
  EXPECT_EQ(a.index_builds, b.index_builds);
  EXPECT_EQ(a.nodes_total, b.nodes_total);
  EXPECT_EQ(a.clusters_total, b.clusters_total);
  for (size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].executed, b.runs[i].executed) << "run " << i;
    EXPECT_EQ(a.runs[i].used_shared_model, b.runs[i].used_shared_model)
        << "run " << i;
    ExpectSameDeterministicStats(a.runs[i].stats, b.runs[i].stats);
    ExpectSameClusters(a.runs[i].clusters, b.runs[i].clusters);
  }
}

std::string SweepJson(core::SweepReport report) {
  ZeroVolatileSweepFields(&report);
  std::ostringstream out;
  EXPECT_TRUE(WriteSweepJson(report, out).ok());
  return out.str();
}

// TestGrid with gamma varying fastest: no gamma group is consecutive, so
// the durable driver must still group every point of a gamma to build each
// model once, as the engine does.
std::vector<core::MinerOptions> GammaFastestGrid() {
  core::MinerOptions base = TestOptions();
  std::vector<core::MinerOptions> points;
  for (double eps : {0.08, 0.12}) {
    for (double gamma : {0.12, 0.18}) {
      core::MinerOptions p = base;
      p.gamma = gamma;
      p.epsilon = eps;
      points.push_back(p);
    }
  }
  return points;
}

TEST(RunCheckpointedSweepTest, FreshRunMatchesSweepEngine) {
  const matrix::ExpressionMatrix data = TestMatrix();
  struct Grid {
    const char* name;
    std::vector<core::MinerOptions> points;
    int64_t writes;  // group-boundary snapshots + the final one
  };
  const Grid grids[] = {
      {"gamma outermost", TestGrid(), 2},
      {"gamma fastest", GammaFastestGrid(), 1},
  };
  for (const Grid& grid : grids) {
    SCOPED_TRACE(grid.name);
    core::SweepOptions sopts;
    auto want = core::SweepEngine(data, sopts).Run(grid.points);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    CheckpointConfig config;
    config.path = TempPath("cks_fresh");
    config.synchronous = true;
    auto got =
        RunCheckpointedSweep(data, grid.points, sopts, config, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameReports(got->report, *want);
    EXPECT_EQ(SweepJson(got->report), SweepJson(*want));
    EXPECT_TRUE(got->checkpoint_status.ok());
    EXPECT_EQ(got->checkpoint.writes, grid.writes);
  }
}

TEST(RunCheckpointedSweepTest, ResumeFromGroupBoundaryIsByteIdentical) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;
  auto want = core::SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(want.ok());

  CheckpointConfig config;
  config.path = TempPath("cks_midrun");
  config.synchronous = true;
  auto full = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->checkpoint.writes, 2);

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  const std::string other =
      CheckpointBufferPath(config.path, final_ckpt->generation + 1);
  auto midrun = LoadCheckpoint(other);
  ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
  ASSERT_FALSE(midrun->sweep.complete());
  ASSERT_EQ(midrun->sweep.first_unfinished, 2);  // after the first group

  CheckpointConfig resume_config;
  resume_config.next_generation = midrun->generation + 1;
  auto resumed =
      RunCheckpointedSweep(data, points, sopts, resume_config, &midrun->sweep);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameReports(resumed->report, *want);
  EXPECT_EQ(resumed->checkpoint.resumes, 1);
}

TEST(RunCheckpointedSweepTest, CompleteSnapshotShortCircuits) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;

  CheckpointConfig config;
  config.path = TempPath("cks_complete");
  config.synchronous = true;
  auto first = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(first.ok());

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  ASSERT_TRUE(final_ckpt->sweep.complete());

  auto replayed = RunCheckpointedSweep(data, points, sopts,
                                       CheckpointConfig{}, &final_ckpt->sweep);
  ASSERT_TRUE(replayed.ok());
  ExpectSameReports(replayed->report, first->report);
}

// A hard stop (deadline, cancel) leaves a resumable snapshot at the cut
// group's start: resuming without the stop re-runs that group and lands on
// the uninterrupted report, index builds included.
TEST(RunCheckpointedSweepTest, HardStopResumesToUninterruptedReport) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  const core::SweepOptions sopts;
  auto want =
      RunCheckpointedSweep(data, points, sopts, CheckpointConfig{}, nullptr);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->report.status, core::MineStatus::kComplete);

  core::SweepOptions deadline = sopts;
  deadline.deadline_ms = 0;
  core::SweepOptions cancelled = sopts;
  cancelled.cancel_token = std::make_shared<util::CancellationToken>();
  cancelled.cancel_token->Cancel(util::StopReason::kCancelled);
  const struct {
    const char* name;
    core::SweepOptions options;
    util::StopReason reason;
  } stops[] = {{"deadline", deadline, util::StopReason::kDeadline},
               {"cancel", cancelled, util::StopReason::kCancelled}};

  for (const auto& stop : stops) {
    SCOPED_TRACE(stop.name);
    CheckpointConfig config;
    config.path = TempPath(std::string("cks_hardstop_") + stop.name);
    config.synchronous = true;
    auto cut = RunCheckpointedSweep(data, points, stop.options, config,
                                    nullptr);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    EXPECT_EQ(cut->report.status, core::MineStatus::kTruncated);
    EXPECT_EQ(cut->report.stop_reason, stop.reason);

    auto snapshot = LoadCheckpoint(config.path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_FALSE(snapshot->sweep.complete());
    EXPECT_EQ(snapshot->sweep.first_unfinished, 0);
    EXPECT_EQ(snapshot->sweep.index_builds, 0);

    CheckpointConfig resume_config;
    resume_config.next_generation = snapshot->generation + 1;
    auto resumed = RunCheckpointedSweep(data, points, sopts, resume_config,
                                        &snapshot->sweep);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameReports(resumed->report, want->report);
    EXPECT_EQ(SweepJson(resumed->report), SweepJson(want->report));
  }
}

// The same with a covered prefix: a run resumed from the first group
// boundary and stopped in the second group keeps that boundary.
TEST(RunCheckpointedSweepTest, HardStopAfterResumeKeepsGroupBoundary) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  const core::SweepOptions sopts;
  CheckpointConfig config;
  config.path = TempPath("cks_hardstop_prefix");
  config.synchronous = true;
  auto want = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  auto boundary = LoadCheckpoint(
      CheckpointBufferPath(config.path, final_ckpt->generation + 1));
  ASSERT_TRUE(boundary.ok()) << boundary.status().ToString();
  ASSERT_EQ(boundary->sweep.first_unfinished, 2);

  core::SweepOptions deadline = sopts;
  deadline.deadline_ms = 0;
  CheckpointConfig stop_config;
  stop_config.path = TempPath("cks_hardstop_prefix_cut");
  stop_config.synchronous = true;
  auto cut = RunCheckpointedSweep(data, points, deadline, stop_config,
                                  &boundary->sweep);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(cut->report.status, core::MineStatus::kTruncated);
  EXPECT_EQ(cut->report.first_unfinished, 2);

  auto snapshot = LoadCheckpoint(stop_config.path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->sweep.first_unfinished, 2);
  EXPECT_EQ(snapshot->sweep.runs.size(), 2u);
  EXPECT_EQ(snapshot->sweep.index_builds, boundary->sweep.index_builds);

  auto resumed = RunCheckpointedSweep(data, points, sopts, CheckpointConfig{},
                                      &snapshot->sweep);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameReports(resumed->report, want->report);
  EXPECT_EQ(SweepJson(resumed->report), SweepJson(want->report));
}

TEST(RunCheckpointedSweepTest, RejectsSnapshotFromDifferentGrid) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;

  CheckpointConfig config;
  config.path = TempPath("cks_reject");
  config.synchronous = true;
  auto first = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(first.ok());
  auto ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(ckpt.ok());

  std::vector<core::MinerOptions> other_grid = points;
  other_grid[0].gamma = 0.33;
  auto resumed = RunCheckpointedSweep(data, other_grid, sopts,
                                      CheckpointConfig{}, &ckpt->sweep);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Volatile-field sanitization (--deterministic-output).

TEST(ZeroVolatileTest, MineFieldsZeroedDeterministicKept) {
  core::MinerStats stats;
  stats.nodes_expanded = 123;
  stats.rwave_build_seconds = 1.0;
  stats.index_build_seconds = 2.0;
  stats.mine_seconds = 3.0;
  core::MineOutcome outcome;
  outcome.nodes_visited = 456;
  outcome.wall_seconds = 4.0;
  outcome.peak_scratch_bytes = 789;
  outcome.roots_completed = 10;
  ZeroVolatileMineFields(&stats, &outcome);
  EXPECT_EQ(stats.nodes_expanded, 123);  // deterministic: preserved
  EXPECT_EQ(stats.rwave_build_seconds, 0.0);
  EXPECT_EQ(stats.index_build_seconds, 0.0);
  EXPECT_EQ(stats.mine_seconds, 0.0);
  EXPECT_EQ(outcome.nodes_visited, 0);
  EXPECT_EQ(outcome.wall_seconds, 0.0);
  EXPECT_EQ(outcome.peak_scratch_bytes, 0);
  EXPECT_EQ(outcome.roots_completed, 10);  // deterministic: preserved
}

TEST(ZeroVolatileTest, SweepFieldsZeroedPerRun) {
  core::SweepReport report;
  report.wall_seconds = 9.0;
  report.runs.resize(1);
  report.runs[0].executed = true;
  report.runs[0].stats.mine_seconds = 1.5;
  report.runs[0].outcome.wall_seconds = 2.5;
  report.runs[0].stats.clusters_emitted = 7;
  ZeroVolatileSweepFields(&report);
  EXPECT_EQ(report.wall_seconds, 0.0);
  EXPECT_EQ(report.runs[0].stats.mine_seconds, 0.0);
  EXPECT_EQ(report.runs[0].outcome.wall_seconds, 0.0);
  EXPECT_EQ(report.runs[0].stats.clusters_emitted, 7);
}

}  // namespace
}  // namespace io
}  // namespace regcluster
