#include "io/checkpoint.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "core/bicluster.h"
#include "core/threshold.h"
#include "io/record_codec.h"
#include "util/durable_file.h"
#include "util/timer.h"

namespace regcluster {
namespace io {

namespace {

constexpr char kMagic[8] = {'R', 'G', 'C', 'X', 'C', 'K', 'P', '1'};
constexpr size_t kExtraPreambleBytes = 12;  // u32 kind + u64 generation

// Record tags, in required file order.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagProgress = 2;
constexpr uint32_t kTagStats = 3;
constexpr uint32_t kTagClusters = 4;
constexpr uint32_t kTagSweepAggregate = 5;
constexpr uint32_t kTagSweepRun = 6;
constexpr uint32_t kTagEnd = 7;

using util::Cursor;
using util::PutDouble;
using util::PutI64;
using util::PutString;
using util::PutU32;
using util::PutU64;

// Format label: decode errors read "truncated checkpoint field ...".
constexpr char kLabel[] = "checkpoint";

// The decoders accept only values the encoder writes -- a flag is 0 or 1,
// an enum one of its enumerators -- so a snapshot re-encodes to its bytes.
util::Status CheckDefined(uint32_t value, uint32_t max, const char* field) {
  if (value <= max) return util::Status::OK();
  return util::Status::Corruption(std::string("checkpoint ") + field +
                                  " holds undefined value " +
                                  std::to_string(value));
}

constexpr auto kMaxStopReason =
    static_cast<uint32_t>(util::StopReason::kClusterBudget);

// The MineOutcome subset a sweep snapshot restores (the fields sweep reports
// print plus the resume contract fields).
void PutOutcome(std::string* out, const core::MineOutcome& o) {
  PutU32(out, o.status == core::MineStatus::kTruncated ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(o.stop_reason));
  PutI64(out, o.nodes_visited);
  PutI64(out, o.roots_completed);
  PutI64(out, o.roots_total);
  PutDouble(out, o.wall_seconds);
  PutI64(out, o.peak_scratch_bytes);
  PutI64(out, o.resume.next_root);
  PutU64(out, o.resume.options_hash);
}

util::Status ReadOutcome(Cursor* c, core::MineOutcome* o) {
  uint32_t truncated = 0, reason = 0;
  int64_t roots_completed = 0, roots_total = 0, next_root = -1;
  REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("outcome status", &truncated));
  REGCLUSTER_RETURN_IF_ERROR(CheckDefined(truncated, 1, "outcome status"));
  REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("outcome stop_reason", &reason));
  REGCLUSTER_RETURN_IF_ERROR(
      CheckDefined(reason, kMaxStopReason, "outcome stop_reason"));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadI64("outcome nodes_visited", &o->nodes_visited));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadI64("outcome roots_completed", &roots_completed));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadI64("outcome roots_total", &roots_total));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadDouble("outcome wall_seconds", &o->wall_seconds));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadI64("outcome peak_scratch_bytes", &o->peak_scratch_bytes));
  REGCLUSTER_RETURN_IF_ERROR(c->ReadI64("outcome next_root", &next_root));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadU64("outcome options_hash", &o->resume.options_hash));
  o->status = truncated != 0 ? core::MineStatus::kTruncated
                             : core::MineStatus::kComplete;
  o->stop_reason = static_cast<util::StopReason>(reason);
  o->roots_completed = static_cast<int>(roots_completed);
  o->roots_total = static_cast<int>(roots_total);
  o->resume.next_root = static_cast<int>(next_root);
  return util::Status::OK();
}

// Records after the context record.
void PutMineBody(std::string* out, const MineCheckpoint& m) {
  PutRecord(out, kTagProgress, [&](std::string* rec) {
    PutI64(rec, m.next_root);
    PutI64(rec, m.roots_completed);
    PutI64(rec, m.nodes_visited);
    PutDouble(rec, m.wall_seconds);
    PutI64(rec, m.peak_scratch_bytes);
  });
  PutRecord(out, kTagStats,
            [&](std::string* rec) { PutMinerStats(rec, m.stats); });
  PutRecord(out, kTagClusters,
            [&](std::string* rec) { PutClusters(rec, m.clusters); });
}

void PutSweepBody(std::string* out, const SweepCheckpoint& s) {
  PutRecord(out, kTagSweepAggregate, [&](std::string* rec) {
    PutI64(rec, s.first_unfinished);
    PutI64(rec, s.runs_total);
    PutU32(rec, s.truncated);
    PutU32(rec, static_cast<uint32_t>(s.stop_reason));
    PutI64(rec, s.index_builds);
    PutI64(rec, s.shared_model_bytes);
    PutDouble(rec, s.wall_seconds);
    PutU64(rec, s.runs.size());
  });
  for (size_t i = 0; i < s.runs.size(); ++i) {
    const core::SweepRun& run = s.runs[i];
    PutRecord(out, kTagSweepRun, [&](std::string* rec) {
      PutU32(rec, static_cast<uint32_t>(i));
      PutU32(rec, static_cast<uint32_t>(run.status.code()));
      PutString(rec, run.status.message());
      PutU32(rec, run.executed ? 1 : 0);
      PutU32(rec, run.used_shared_model ? 1 : 0);
      PutMinerStats(rec, run.stats);
      PutOutcome(rec, run.outcome);
      PutClusters(rec, run.clusters);
    });
  }
}

// Framed records before the end record: context + 3 for a mine, context +
// aggregate + one per run for a sweep.
uint32_t BodyRecordCount(const Checkpoint& ckpt) {
  return ckpt.kind == CheckpointKind::kMine
             ? 4
             : static_cast<uint32_t>(2 + ckpt.sweep.runs.size());
}

util::Status ReadMineBody(RecordFileReader* file, MineCheckpoint* m) {
  REGCLUSTER_RETURN_IF_ERROR(
      file->ReadRecord(kTagProgress, "progress", [&](Cursor* c) {
        REGCLUSTER_RETURN_IF_ERROR(c->ReadI64("next_root", &m->next_root));
        // The resumed run mines the roots from next_root on, so it names a
        // condition, or is -1 for a complete run.
        if (m->next_root < -1 || m->next_root >= m->context.num_conditions) {
          return util::Status::Corruption(
              "checkpoint next_root is outside the matrix's conditions");
        }
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadI64("roots_completed", &m->roots_completed));
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadI64("nodes_visited", &m->nodes_visited));
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadDouble("wall_seconds", &m->wall_seconds));
        return c->ReadI64("peak_scratch_bytes", &m->peak_scratch_bytes);
      }));
  REGCLUSTER_RETURN_IF_ERROR(
      file->ReadRecord(kTagStats, "stats", [&](Cursor* c) {
        return ReadMinerStats(c, &m->stats);
      }));
  return file->ReadRecord(kTagClusters, "clusters", [&](Cursor* c) {
    return ReadClusters(c, &m->clusters);
  });
}

util::Status ReadSweepBody(RecordFileReader* file, SweepCheckpoint* s) {
  uint64_t run_count = 0;
  REGCLUSTER_RETURN_IF_ERROR(
      file->ReadRecord(kTagSweepAggregate, "sweep aggregate", [&](Cursor* c) {
        uint32_t reason = 0;
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadI64("first_unfinished", &s->first_unfinished));
        REGCLUSTER_RETURN_IF_ERROR(c->ReadI64("runs_total", &s->runs_total));
        REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("truncated", &s->truncated));
        REGCLUSTER_RETURN_IF_ERROR(
            CheckDefined(s->truncated, 1, "sweep truncated"));
        REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("stop_reason", &reason));
        REGCLUSTER_RETURN_IF_ERROR(
            CheckDefined(reason, kMaxStopReason, "sweep stop_reason"));
        s->stop_reason = static_cast<int32_t>(reason);
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadI64("index_builds", &s->index_builds));
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadI64("shared_model_bytes", &s->shared_model_bytes));
        REGCLUSTER_RETURN_IF_ERROR(
            c->ReadDouble("wall_seconds", &s->wall_seconds));
        return c->ReadU64("run snapshot count", &run_count);
      }));
  // The run records must be exactly the covered prefix, or a resume would
  // report points that never ran.
  if (s->first_unfinished < -1 || s->first_unfinished >= s->runs_total) {
    return util::Status::Corruption(
        "checkpoint sweep first_unfinished outside [-1, runs_total)");
  }
  const int64_t covered = s->complete() ? s->runs_total : s->first_unfinished;
  if (run_count != static_cast<uint64_t>(covered)) {
    return util::Status::Corruption(
        "checkpoint sweep run count does not match the covered prefix");
  }
  s->runs.clear();
  for (uint64_t i = 0; i < run_count; ++i) {
    core::SweepRun run;
    REGCLUSTER_RETURN_IF_ERROR(
        file->ReadRecord(kTagSweepRun, "sweep run", [&](Cursor* c) {
          uint32_t index = 0, code = 0, executed = 0, shared = 0;
          std::string message;
          REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("run index", &index));
          if (index != i) {
            return util::Status::Corruption(
                "checkpoint sweep run index differs from its position");
          }
          REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("run status code", &code));
          REGCLUSTER_RETURN_IF_ERROR(CheckDefined(
              code, static_cast<uint32_t>(util::StatusCode::kInternal),
              "run status code"));
          REGCLUSTER_RETURN_IF_ERROR(
              c->ReadString("run status message", &message));
          if (code == 0 && !message.empty()) {
            return util::Status::Corruption(
                "checkpoint run status carries a message under code 0");
          }
          REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("run executed", &executed));
          REGCLUSTER_RETURN_IF_ERROR(CheckDefined(executed, 1, "run executed"));
          REGCLUSTER_RETURN_IF_ERROR(
              c->ReadU32("run used_shared_model", &shared));
          REGCLUSTER_RETURN_IF_ERROR(
              CheckDefined(shared, 1, "run used_shared_model"));
          run.status =
              code == 0 ? util::Status::OK()
                        : util::Status(static_cast<util::StatusCode>(code),
                                       std::move(message));
          run.executed = executed != 0;
          run.used_shared_model = shared != 0;
          REGCLUSTER_RETURN_IF_ERROR(ReadMinerStats(c, &run.stats));
          REGCLUSTER_RETURN_IF_ERROR(ReadOutcome(c, &run.outcome));
          return ReadClusters(c, &run.clusters);
        }));
    s->runs.push_back(std::move(run));
  }
  return util::Status::OK();
}

Checkpoint SnapshotOf(const MineCheckpoint& state) {
  Checkpoint ckpt;
  ckpt.kind = CheckpointKind::kMine;
  ckpt.mine = state;
  return ckpt;
}

Checkpoint SnapshotOf(const SweepCheckpoint& state) {
  Checkpoint ckpt;
  ckpt.kind = CheckpointKind::kSweep;
  ckpt.sweep = state;
  return ckpt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire format.

std::string EncodeCheckpoint(const Checkpoint& ckpt) {
  std::string out;
  PutPreamble(&out, kMagic);
  PutU32(&out, static_cast<uint32_t>(ckpt.kind));
  PutU64(&out, ckpt.generation);
  const bool mine = ckpt.kind == CheckpointKind::kMine;
  PutRecord(&out, kTagContext, [&](std::string* rec) {
    PutRunContext(rec, mine ? ckpt.mine.context : ckpt.sweep.context);
  });
  if (mine) {
    PutMineBody(&out, ckpt.mine);
  } else {
    PutSweepBody(&out, ckpt.sweep);
  }
  PutRecord(&out, kTagEnd,
            [&](std::string* rec) { PutU32(rec, BodyRecordCount(ckpt)); });
  return out;
}

util::StatusOr<Checkpoint> DecodeCheckpoint(std::string_view bytes) {
  RecordFileReader file(bytes, kLabel);
  auto pre = file.ReadPreamble(kMagic, kExtraPreambleBytes);
  if (!pre.ok()) return pre.status();
  uint32_t kind = 0;
  Checkpoint ckpt;
  (void)pre->ReadU32("kind", &kind);  // length checked by ReadPreamble
  (void)pre->ReadU64("generation", &ckpt.generation);
  if (kind != static_cast<uint32_t>(CheckpointKind::kMine) &&
      kind != static_cast<uint32_t>(CheckpointKind::kSweep)) {
    return util::Status::Corruption("unknown checkpoint kind " +
                                    std::to_string(kind));
  }
  ckpt.kind = static_cast<CheckpointKind>(kind);
  const bool mine = ckpt.kind == CheckpointKind::kMine;
  REGCLUSTER_RETURN_IF_ERROR(
      file.ReadRecord(kTagContext, "context", [&](Cursor* c) {
        return ReadRunContext(c, mine ? &ckpt.mine.context
                                      : &ckpt.sweep.context);
      }));
  REGCLUSTER_RETURN_IF_ERROR(mine ? ReadMineBody(&file, &ckpt.mine)
                                  : ReadSweepBody(&file, &ckpt.sweep));
  uint32_t declared = 0;
  REGCLUSTER_RETURN_IF_ERROR(file.ReadRecord(kTagEnd, "end", [&](Cursor* c) {
    return c->ReadU32("record count", &declared);
  }));
  if (declared != BodyRecordCount(ckpt)) {
    return util::Status::Corruption("checkpoint record count mismatch");
  }
  REGCLUSTER_RETURN_IF_ERROR(file.ExpectEnd());
  return ckpt;
}

std::string CheckpointBufferPath(const std::string& base,
                                 uint64_t generation) {
  return base + (generation % 2 == 0 ? ".a" : ".b");
}

util::Status WriteCheckpointFile(const std::string& base,
                                 const Checkpoint& ckpt) {
  return util::AtomicWriteFile(CheckpointBufferPath(base, ckpt.generation),
                               EncodeCheckpoint(ckpt));
}

util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& base,
                                          uint64_t min_generation) {
  const std::string candidates[3] = {base, base + ".a", base + ".b"};
  bool any_file = false;
  util::Status first_error;
  std::optional<Checkpoint> best;
  for (const std::string& path : candidates) {
    auto bytes = util::ReadFileToString(path);
    if (!bytes.ok()) {
      // Missing buffers are normal (e.g. only one write ever happened);
      // real IO errors are remembered like decode failures.
      if (bytes.status().code() != util::StatusCode::kNotFound &&
          first_error.ok()) {
        first_error = bytes.status();
      }
      if (bytes.status().code() != util::StatusCode::kNotFound) {
        any_file = true;
      }
      continue;
    }
    any_file = true;
    auto ckpt = DecodeCheckpoint(*bytes);
    if (!ckpt.ok()) {
      if (first_error.ok()) first_error = ckpt.status();
      continue;
    }
    if (!best || ckpt->generation > best->generation) {
      best = std::move(ckpt).value();
    }
  }
  if (!best) {
    if (!any_file) {
      return util::Status::NotFound("no checkpoint found at " + base +
                                    " (tried it plus .a/.b buffers)");
    }
    return first_error;
  }
  if (best->generation < min_generation) {
    return util::Status::FailedPrecondition(
        "stale checkpoint generation " + std::to_string(best->generation) +
        " (need >= " + std::to_string(min_generation) + ")");
  }
  return std::move(*best);
}

// ---------------------------------------------------------------------------
// Hashes and validation.

util::Hash128 HashMatrixPrefix(const matrix::MatrixStore& data, int cols) {
  util::Fnv128 h;
  h.MixInt(data.num_genes());
  h.MixInt(cols);
  for (int g = 0; g < data.num_genes(); ++g) {
    const std::string& name = data.gene_name(g);
    h.Mix64(static_cast<uint64_t>(name.size()));
    h.MixBytes(name.data(), name.size());
  }
  for (int c = 0; c < cols; ++c) {
    const std::string& name = data.condition_name(c);
    h.Mix64(static_cast<uint64_t>(name.size()));
    h.MixBytes(name.data(), name.size());
  }
  // Cell payload row by row: bit patterns, so NaN layouts hash stably and
  // the resident and mapped paths agree byte for byte.
  for (int g = 0; g < data.num_genes(); ++g) {
    h.MixBytes(data.row_data(g), static_cast<size_t>(cols) * sizeof(double));
  }
  return h.Digest();
}

util::Hash128 HashMatrixContent(const matrix::MatrixStore& data) {
  return HashMatrixPrefix(data, data.num_conditions());
}

uint64_t HashSweepGrid(const std::vector<core::MinerOptions>& points) {
  util::Fnv128 h;
  h.Mix64(static_cast<uint64_t>(points.size()));
  for (const core::MinerOptions& p : points) {
    h.MixInt(static_cast<int64_t>(
        core::RegClusterMiner::SemanticOptionsHash(p)));
  }
  return h.Digest().lo;
}

core::MinerOptions SpliceOptions(const core::MinerOptions& options) {
  core::MinerOptions splice = options;
  splice.remove_dominated = false;
  return splice;
}

RunContext MineContext(const matrix::MatrixStore& data, int cols,
                       const core::MinerOptions& options) {
  RunContext ctx;
  ctx.options_hash =
      core::RegClusterMiner::SemanticOptionsHash(SpliceOptions(options));
  ctx.matrix_hash = HashMatrixPrefix(data, cols);
  ctx.num_genes = data.num_genes();
  ctx.num_conditions = cols;
  ctx.flags = options.remove_dominated ? RunContext::kRemoveDominated : 0;
  return ctx;
}

namespace {

RunContext SweepContext(const matrix::MatrixStore& data,
                        const std::vector<core::MinerOptions>& points) {
  RunContext ctx;
  ctx.options_hash = HashSweepGrid(points);
  ctx.matrix_hash = HashMatrixContent(data);
  ctx.num_genes = data.num_genes();
  ctx.num_conditions = data.num_conditions();
  return ctx;
}

}  // namespace

util::Status ValidateMineCheckpoint(const MineCheckpoint& ckpt,
                                    const matrix::MatrixStore& data,
                                    const core::MinerOptions& options) {
  return CheckRunContext(ckpt.context,
                         MineContext(data, data.num_conditions(), options),
                         kLabel, "mining options");
}

util::Status ValidateSweepCheckpoint(
    const SweepCheckpoint& ckpt, const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points) {
  if (ckpt.runs_total != static_cast<int64_t>(points.size())) {
    return util::Status::FailedPrecondition(
        "checkpoint sweep grid size differs: snapshot " +
        std::to_string(ckpt.runs_total) + " points, spec " +
        std::to_string(points.size()));
  }
  return CheckRunContext(ckpt.context, SweepContext(data, points), kLabel,
                         "sweep grid points");
}

// ---------------------------------------------------------------------------
// CheckpointWriter.

CheckpointWriter::CheckpointWriter(std::string base_path,
                                   uint64_t next_generation, bool synchronous)
    : base_path_(std::move(base_path)),
      synchronous_(synchronous),
      next_generation_(next_generation) {
  if (!synchronous_ && !base_path_.empty()) {
    thread_ = std::thread([this] { ThreadBody(); });
  }
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriter::Submit(Checkpoint ckpt) {
  if (base_path_.empty()) return;
  if (synchronous_) {
    (void)WriteNow(std::move(ckpt));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ = std::move(ckpt);  // latest-wins: replaces any unwritten one
  }
  cv_.notify_one();
}

util::Status CheckpointWriter::WriteNow(Checkpoint ckpt) {
  if (base_path_.empty()) return util::Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.reset();  // ours is newer than anything queued
  }
  std::lock_guard<std::mutex> io_lock(io_mutex_);
  return WriteLocked(std::move(ckpt));
}

util::Status CheckpointWriter::WriteLocked(Checkpoint ckpt) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ckpt.generation = next_generation_++;
  }
  util::WallTimer timer;
  std::string encoded = EncodeCheckpoint(ckpt);
  util::Status st = util::AtomicWriteFile(
      CheckpointBufferPath(base_path_, ckpt.generation), encoded);
  std::lock_guard<std::mutex> lock(mutex_);
  if (st.ok()) {
    ++stats_.writes;
    stats_.bytes += static_cast<int64_t>(encoded.size());
    stats_.last_write_ns =
        static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
  } else if (error_.ok()) {
    error_ = st;
  }
  return st;
}

void CheckpointWriter::ThreadBody() {
  for (;;) {
    std::optional<Checkpoint> work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || pending_.has_value(); });
      if (pending_.has_value()) {
        work = std::move(pending_);
        pending_.reset();
      } else if (stop_) {
        return;
      }
    }
    if (work) {
      std::lock_guard<std::mutex> io_lock(io_mutex_);
      (void)WriteLocked(std::move(*work));
    }
  }
}

util::Status CheckpointWriter::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

void CheckpointWriter::NoteResume() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.resumes;
}

CheckpointStats CheckpointWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Durable mine driver.

util::StatusOr<DurableMineResult> RunCheckpointedMine(
    const matrix::MatrixStore& data, const core::MinerOptions& options,
    const CheckpointConfig& config, const MineCheckpoint* resume) {
  if (!options.root_set.empty()) {
    return util::Status::InvalidArgument(
        "durable mining manages root_set itself");
  }
  const int num_conds = data.num_conditions();

  // Mutable run state, seeded from the snapshot when resuming.
  MineCheckpoint state;
  if (resume != nullptr) {
    REGCLUSTER_RETURN_IF_ERROR(ValidateMineCheckpoint(*resume, data, options));
    state = *resume;
  } else {
    state.context = MineContext(data, num_conds, options);
    state.next_root = 0;
  }

  CheckpointWriter writer(config.path, config.next_generation,
                          config.synchronous);
  if (resume != nullptr) writer.NoteResume();

  DurableMineResult result;
  core::MineOutcome run;  // this process's Mine(); default when replaying
  // A snapshot that says "complete" replays the stored result.
  if (!state.complete()) {
    // One Mine() over the roots the snapshot has not covered, under what
    // the covered prefix left of the count budgets.  Per-root totals decide
    // inclusion in root order, so it cuts exactly where the uninterrupted
    // run would.
    core::MinerOptions rest = SpliceOptions(options);
    rest.root_set.resize(static_cast<size_t>(num_conds - state.next_root));
    std::iota(rest.root_set.begin(), rest.root_set.end(),
              static_cast<int>(state.next_root));
    const auto left = [](int64_t budget, int64_t used) {
      return budget < 0 ? budget : std::max<int64_t>(0, budget - used);
    };
    rest.max_nodes = left(options.max_nodes, state.stats.nodes_expanded);
    rest.max_clusters =
        left(options.max_clusters, state.stats.clusters_emitted);

    // Snapshot after the first included root, then at the cadence, off the
    // hot path on the writer thread: the prefix plus this run's output and,
    // of its volatile totals, its wall time and included nodes so far.
    util::WallTimer timer;
    double next_snapshot_ms = 0.0;
    int64_t included_nodes = 0;
    core::RegClusterMiner miner(data, rest);
    auto clusters = miner.Mine([&](const core::RootSlice& slice) {
      core::AccumulateStats(slice.stats, &state.stats);
      included_nodes += slice.stats.nodes_expanded;
      ++state.roots_completed;
      state.next_root = slice.root + 1 < num_conds ? slice.root + 1 : -1;
      if (state.complete() || timer.ElapsedMillis() < next_snapshot_ms) return;
      Checkpoint ckpt = SnapshotOf(state);
      ckpt.mine.wall_seconds += timer.ElapsedSeconds();
      ckpt.mine.nodes_visited += included_nodes;
      ckpt.mine.clusters.insert(ckpt.mine.clusters.end(),
                                slice.output.begin(), slice.output.end());
      writer.Submit(std::move(ckpt));
      next_snapshot_ms = timer.ElapsedMillis() + config.every_ms;
    });
    if (!clusters.ok()) return clusters.status();
    run = miner.outcome();
    state.clusters.insert(state.clusters.end(),
                          std::make_move_iterator(clusters->begin()),
                          std::make_move_iterator(clusters->end()));
    // Model build and search time are run-level values: this process's.
    const core::MinerStats& mined = miner.stats();
    state.stats.index_builds = mined.index_builds;
    state.stats.rwave_build_seconds = mined.rwave_build_seconds;
    state.stats.index_build_seconds = mined.index_build_seconds;
    state.stats.mine_seconds += mined.mine_seconds;
    state.next_root = run.resume.next_root;
    state.nodes_visited += run.nodes_visited;
    state.wall_seconds += run.wall_seconds;
    state.peak_scratch_bytes =
        std::max(state.peak_scratch_bytes, run.peak_scratch_bytes);
    result.checkpoint_status = writer.WriteNow(SnapshotOf(state));
  }

  // The snapshot keeps the raw clusters; the caller gets what a plain
  // Mine() under `options` returns, dominance pass included.
  result.clusters = std::move(state.clusters);
  if (options.remove_dominated) {
    result.clusters = core::RemoveDominated(std::move(result.clusters));
  }
  result.stats = state.stats;
  result.outcome.status = state.complete() ? core::MineStatus::kComplete
                                           : core::MineStatus::kTruncated;
  result.outcome.stop_reason = run.stop_reason;
  result.outcome.nodes_visited = state.nodes_visited;
  result.outcome.roots_completed = static_cast<int>(state.roots_completed);
  result.outcome.roots_total = num_conds;
  result.outcome.wall_seconds = state.wall_seconds;
  result.outcome.peak_scratch_bytes = state.peak_scratch_bytes;
  result.outcome.model_bytes = run.model_bytes;
  result.outcome.mapped_bytes = run.mapped_bytes;
  if (!state.complete()) {
    result.outcome.resume.next_root = static_cast<int>(state.next_root);
    result.outcome.resume.options_hash =
        core::RegClusterMiner::SemanticOptionsHash(options);
  }
  result.checkpoint = writer.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Durable sweep driver.

util::StatusOr<DurableSweepResult> RunCheckpointedSweep(
    const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points,
    const core::SweepOptions& sweep_options, const CheckpointConfig& config,
    const SweepCheckpoint* resume) {
  util::WallTimer run_timer;
  if (points.empty()) {
    return util::Status::InvalidArgument("sweep has no points");
  }
  if (resume != nullptr) {
    REGCLUSTER_RETURN_IF_ERROR(
        ValidateSweepCheckpoint(*resume, data, points));
  }

  SweepCheckpoint state;
  state.context = SweepContext(data, points);
  state.first_unfinished = 0;
  state.runs_total = static_cast<int64_t>(points.size());
  if (resume != nullptr) state = *resume;

  CheckpointWriter writer(config.path, config.next_generation,
                          config.synchronous);
  if (resume != nullptr) writer.NoteResume();

  DurableSweepResult result;
  core::SweepReport& report = result.report;
  report.runs.resize(points.size());
  int64_t consumed_clusters = 0;  // stats.clusters_emitted: the budget unit
  // Places run `i` in the report under the user's point (never an engine's
  // execution overlay) and adds it to the totals.
  auto adopt = [&](size_t i, core::SweepRun run) {
    run.options = points[i];
    report.CountRun(run);
    if (run.executed) consumed_clusters += run.stats.clusters_emitted;
    report.runs[i] = std::move(run);
  };

  // Replay the snapshot prefix into the report.
  for (size_t i = 0; i < points.size(); ++i) {
    adopt(i, i < state.runs.size() ? state.runs[i] : core::SweepRun{});
  }
  report.index_builds = static_cast<int>(state.index_builds);
  report.shared_model_bytes = state.shared_model_bytes;
  report.wall_seconds = state.wall_seconds;

  // `state` always holds the snapshot of the last group boundary.  A hard
  // stop (cancel, deadline, memory) writes it as the final snapshot, so a
  // resume re-runs only the cut group; a finished or budget-cut sweep
  // writes the whole report, which a resume replays.
  auto finish = [&](util::StopReason reason, int64_t first_unfinished) {
    const bool truncated = reason != util::StopReason::kNone;
    report.status =
        truncated ? core::MineStatus::kTruncated : core::MineStatus::kComplete;
    report.stop_reason = reason;
    report.first_unfinished = static_cast<int>(first_unfinished);
    report.wall_seconds += run_timer.ElapsedSeconds();
    state.wall_seconds = report.wall_seconds;
    if (!util::IsHardStop(reason)) {
      state.first_unfinished = -1;
      state.truncated = truncated ? 1 : 0;
      state.stop_reason = static_cast<int32_t>(reason);
      state.index_builds = report.index_builds;
      state.shared_model_bytes = report.shared_model_bytes;
      state.runs = report.runs;
    }
    result.checkpoint_status = writer.WriteNow(SnapshotOf(state));
    result.checkpoint = writer.stats();
  };

  // A snapshot that says "complete" short-circuits to the stored report.
  if (state.complete()) {
    report.status = state.truncated != 0 ? core::MineStatus::kTruncated
                                         : core::MineStatus::kComplete;
    report.stop_reason = static_cast<util::StopReason>(state.stop_reason);
    report.first_unfinished = -1;
    // Recover the truncation boundary for the report: the first point with
    // no verdict.  A complete sweep keeps -1.
    if (state.truncated != 0) {
      for (size_t i = 0; i < report.runs.size(); ++i) {
        if (!report.runs[i].executed && report.runs[i].status.ok()) {
          report.first_unfinished = static_cast<int>(i);
          break;
        }
      }
    }
    result.checkpoint = writer.stats();
    result.checkpoint_status = writer.last_error();
    return result;
  }

  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  const int64_t user_nodes =
      sweep_options.max_nodes >= 0 ? sweep_options.max_nodes : kUnlimited;
  const int64_t user_clusters = sweep_options.max_clusters >= 0
                                    ? sweep_options.max_clusters
                                    : kUnlimited;

  // Gamma groups: the shortest runs of consecutive points that no
  // core::GammaKeyOf straddles.  One engine Run per group builds each model
  // once, as one engine over the whole grid does, at kill-invariant bounds.
  std::map<core::GammaKey, size_t> last_of;
  for (size_t i = 0; i < points.size(); ++i) {
    last_of[core::GammaKeyOf(points[i])] = i;
  }
  size_t start = static_cast<size_t>(state.first_unfinished);
  while (start < points.size()) {
    size_t end = start + 1;
    for (size_t i = start; i < end; ++i) {
      end = std::max(end, last_of[core::GammaKeyOf(points[i])] + 1);
    }

    core::SweepOptions group_opts = sweep_options;
    group_opts.max_nodes =
        user_nodes == kUnlimited ? -1 : user_nodes - report.nodes_total;
    group_opts.max_clusters =
        user_clusters == kUnlimited ? -1 : user_clusters - consumed_clusters;
    if (sweep_options.deadline_ms >= 0) {
      group_opts.deadline_ms = std::max(
          0.0, sweep_options.deadline_ms - run_timer.ElapsedMillis());
    }

    core::SweepEngine engine(data, group_opts);
    std::vector<core::MinerOptions> group_points(points.begin() + start,
                                                 points.begin() + end);
    auto group_report = engine.Run(group_points);
    if (!group_report.ok()) return group_report.status();

    for (size_t i = 0; i < group_points.size(); ++i) {
      adopt(start + i, std::move(group_report->runs[i]));
    }
    report.index_builds += group_report->index_builds;
    report.shared_model_bytes += group_report->shared_model_bytes;

    if (group_report->status == core::MineStatus::kTruncated) {
      finish(group_report->stop_reason,
             static_cast<int64_t>(start) + group_report->first_unfinished);
      return result;
    }

    start = end;
    if (start < points.size()) {
      // Group finished, more to go: snapshot at the boundary.
      state.first_unfinished = static_cast<int64_t>(start);
      state.index_builds = report.index_builds;
      state.shared_model_bytes = report.shared_model_bytes;
      state.wall_seconds = report.wall_seconds + run_timer.ElapsedSeconds();
      state.runs.assign(report.runs.begin(), report.runs.begin() + start);
      writer.Submit(SnapshotOf(state));
    }
  }

  finish(util::StopReason::kNone, -1);
  return result;
}

// ---------------------------------------------------------------------------
// Deterministic-output sanitization.

void ZeroVolatileMineFields(core::MinerStats* stats,
                            core::MineOutcome* outcome) {
  if (stats != nullptr) {
    for (const core::MinerStatsField& f : core::kMinerStatsFields) {
      if (f.cls == core::StatsFieldClass::kTiming) stats->*f.seconds = 0.0;
    }
  }
  if (outcome != nullptr) {
    outcome->nodes_visited = 0;
    outcome->wall_seconds = 0.0;
    outcome->peak_scratch_bytes = 0;
    outcome->phase_a_seconds = 0.0;
    outcome->phase_b_seconds = 0.0;
    outcome->pool_steals = 0;
    outcome->pool_queue_high_water = 0;
    outcome->budget_polls = 0;
    outcome->model_cache_hits = 0;
    outcome->model_cache_misses = 0;
    outcome->model_cache_evictions = 0;
    outcome->model_cache_resident_bytes = 0;
    outcome->model_bytes = 0;
    outcome->mapped_bytes = 0;
  }
}

void ZeroVolatileSweepFields(core::SweepReport* report) {
  if (report == nullptr) return;
  report->wall_seconds = 0.0;
  for (core::SweepRun& run : report->runs) {
    ZeroVolatileMineFields(&run.stats, &run.outcome);
  }
}

void ZeroVolatileCheckpointFields(CheckpointStats* stats) {
  stats->writes = 0;
  stats->bytes = 0;
  stats->last_write_ns = 0;
}

}  // namespace io
}  // namespace regcluster
