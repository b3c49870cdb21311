#include "io/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <limits>
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
constexpr uint32_t kVersion = 1;
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kPreambleBytes = 28;  // magic + version + endian + kind + gen

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

// Cursor label: decode errors read "truncated checkpoint field ...".
constexpr char kLabel[] = "checkpoint";

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
  REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("outcome stop_reason", &reason));
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
std::string EncodeMineBody(const MineCheckpoint& m) {
  std::string body;
  {
    std::string rec;
    PutU32(&rec, kTagProgress);
    PutI64(&rec, m.next_root);
    PutI64(&rec, m.roots_completed);
    PutI64(&rec, m.nodes_visited);
    PutDouble(&rec, m.wall_seconds);
    PutI64(&rec, m.peak_scratch_bytes);
    util::AppendRecord(&body, rec);
  }
  {
    std::string rec;
    PutU32(&rec, kTagStats);
    PutMinerStats(&rec, m.stats);
    util::AppendRecord(&body, rec);
  }
  {
    std::string rec;
    PutU32(&rec, kTagClusters);
    PutClusters(&rec, m.clusters);
    util::AppendRecord(&body, rec);
  }
  return body;
}

std::string EncodeSweepBody(const SweepCheckpoint& s) {
  std::string body;
  {
    std::string rec;
    PutU32(&rec, kTagSweepAggregate);
    PutI64(&rec, s.first_unfinished);
    PutI64(&rec, s.runs_total);
    PutU32(&rec, s.truncated);
    PutU32(&rec, static_cast<uint32_t>(s.stop_reason));
    PutI64(&rec, s.index_builds);
    PutI64(&rec, s.shared_model_bytes);
    PutDouble(&rec, s.wall_seconds);
    PutU64(&rec, s.runs.size());
    util::AppendRecord(&body, rec);
  }
  for (size_t i = 0; i < s.runs.size(); ++i) {
    const core::SweepRun& run = s.runs[i];
    std::string rec;
    PutU32(&rec, kTagSweepRun);
    PutU32(&rec, static_cast<uint32_t>(i));
    PutU32(&rec, static_cast<uint32_t>(run.status.code()));
    PutString(&rec, run.status.message());
    PutU32(&rec, run.executed ? 1 : 0);
    PutU32(&rec, run.used_shared_model ? 1 : 0);
    PutMinerStats(&rec, run.stats);
    PutOutcome(&rec, run.outcome);
    PutClusters(&rec, run.clusters);
    util::AppendRecord(&body, rec);
  }
  return body;
}

// Framed records before the end record: context + 3 for a mine, context +
// aggregate + one per run for a sweep.
uint32_t BodyRecordCount(const Checkpoint& ckpt) {
  return ckpt.kind == CheckpointKind::kMine
             ? 4
             : static_cast<uint32_t>(2 + ckpt.sweep.runs.size());
}

// Reads one framed record and checks its tag.
util::StatusOr<std::string_view> NextRecord(util::RecordReader* reader,
                                            uint32_t want_tag,
                                            const char* what) {
  if (reader->AtEnd()) {
    return util::Status::Corruption(std::string("missing checkpoint record ") +
                                    what);
  }
  auto rec = reader->Next();
  if (!rec.ok()) return rec.status();
  if (rec->size() < 4) {
    return util::Status::Corruption(std::string("checkpoint record ") + what +
                                    " too short for a tag");
  }
  uint32_t tag = 0;
  (void)Cursor(*rec, kLabel).ReadU32("tag", &tag);  // length checked above
  if (tag != want_tag) {
    return util::Status::Corruption(
        std::string("unexpected checkpoint record tag where ") + what +
        " was required");
  }
  return std::string_view(rec->data() + 4, rec->size() - 4);
}

util::Status DecodeMineBody(util::RecordReader* reader, MineCheckpoint* m) {
  {
    auto rec = NextRecord(reader, kTagProgress, "progress");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    REGCLUSTER_RETURN_IF_ERROR(c.ReadI64("next_root", &m->next_root));
    REGCLUSTER_RETURN_IF_ERROR(
        c.ReadI64("roots_completed", &m->roots_completed));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadI64("nodes_visited", &m->nodes_visited));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadDouble("wall_seconds", &m->wall_seconds));
    REGCLUSTER_RETURN_IF_ERROR(
        c.ReadI64("peak_scratch_bytes", &m->peak_scratch_bytes));
    REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("progress"));
  }
  {
    auto rec = NextRecord(reader, kTagStats, "stats");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    REGCLUSTER_RETURN_IF_ERROR(ReadMinerStats(&c, &m->stats));
    REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("stats"));
  }
  {
    auto rec = NextRecord(reader, kTagClusters, "clusters");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    REGCLUSTER_RETURN_IF_ERROR(ReadClusters(&c, &m->clusters));
    REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("clusters"));
  }
  return util::Status::OK();
}

util::Status DecodeSweepBody(util::RecordReader* reader, SweepCheckpoint* s) {
  uint64_t run_count = 0;
  {
    auto rec = NextRecord(reader, kTagSweepAggregate, "sweep aggregate");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    uint32_t reason = 0;
    REGCLUSTER_RETURN_IF_ERROR(
        c.ReadI64("first_unfinished", &s->first_unfinished));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadI64("runs_total", &s->runs_total));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("truncated", &s->truncated));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("stop_reason", &reason));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadI64("index_builds", &s->index_builds));
    REGCLUSTER_RETURN_IF_ERROR(
        c.ReadI64("shared_model_bytes", &s->shared_model_bytes));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadDouble("wall_seconds", &s->wall_seconds));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU64("run snapshot count", &run_count));
    s->stop_reason = static_cast<int32_t>(reason);
  }
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
    auto rec = NextRecord(reader, kTagSweepRun, "sweep run");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    core::SweepRun run;
    uint32_t index = 0, code = 0, executed = 0, shared = 0;
    std::string message;
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("run index", &index));
    if (index != i) {
      return util::Status::Corruption(
          "checkpoint sweep run index differs from its position");
    }
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("run status code", &code));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadString("run status message", &message));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("run executed", &executed));
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("run used_shared_model", &shared));
    REGCLUSTER_RETURN_IF_ERROR(ReadMinerStats(&c, &run.stats));
    REGCLUSTER_RETURN_IF_ERROR(ReadOutcome(&c, &run.outcome));
    REGCLUSTER_RETURN_IF_ERROR(ReadClusters(&c, &run.clusters));
    REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("sweep run"));
    run.status = code == 0 ? util::Status::OK()
                           : util::Status(static_cast<util::StatusCode>(code),
                                          std::move(message));
    run.executed = executed != 0;
    run.used_shared_model = shared != 0;
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
  out.append(kMagic, sizeof kMagic);
  PutU32(&out, kVersion);
  PutU32(&out, kEndianTag);
  PutU32(&out, static_cast<uint32_t>(ckpt.kind));
  PutU64(&out, ckpt.generation);
  const bool mine = ckpt.kind == CheckpointKind::kMine;
  std::string context;
  PutU32(&context, kTagContext);
  PutRunContext(&context, mine ? ckpt.mine.context : ckpt.sweep.context);
  util::AppendRecord(&out, context);
  out.append(mine ? EncodeMineBody(ckpt.mine) : EncodeSweepBody(ckpt.sweep));
  std::string end;
  PutU32(&end, kTagEnd);
  PutU32(&end, BodyRecordCount(ckpt));
  util::AppendRecord(&out, end);
  return out;
}

util::StatusOr<Checkpoint> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < kPreambleBytes) {
    return util::Status::Corruption("checkpoint file shorter than preamble");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return util::Status::Corruption("bad checkpoint magic");
  }
  Cursor pre(bytes.substr(sizeof kMagic, kPreambleBytes - sizeof kMagic),
             kLabel);
  uint32_t version = 0, endian = 0, kind = 0;
  uint64_t generation = 0;
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU32("version", &version));
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU32("endian tag", &endian));
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU32("kind", &kind));
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU64("generation", &generation));
  if (version != kVersion) {
    return util::Status::Corruption("unsupported checkpoint version " +
                                    std::to_string(version));
  }
  if (endian != kEndianTag) {
    return util::Status::Corruption("checkpoint endianness mismatch");
  }
  if (kind != static_cast<uint32_t>(CheckpointKind::kMine) &&
      kind != static_cast<uint32_t>(CheckpointKind::kSweep)) {
    return util::Status::Corruption("unknown checkpoint kind " +
                                    std::to_string(kind));
  }

  Checkpoint ckpt;
  ckpt.generation = generation;
  ckpt.kind = static_cast<CheckpointKind>(kind);
  const bool mine = ckpt.kind == CheckpointKind::kMine;
  util::RecordReader reader(bytes.substr(kPreambleBytes));
  {
    auto rec = NextRecord(&reader, kTagContext, "context");
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    REGCLUSTER_RETURN_IF_ERROR(ReadRunContext(
        &c, mine ? &ckpt.mine.context : &ckpt.sweep.context));
  }
  REGCLUSTER_RETURN_IF_ERROR(mine ? DecodeMineBody(&reader, &ckpt.mine)
                                  : DecodeSweepBody(&reader, &ckpt.sweep));
  auto end = NextRecord(&reader, kTagEnd, "end");
  if (!end.ok()) return end.status();
  {
    Cursor c(*end, kLabel);
    uint32_t declared = 0;
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("record count", &declared));
    REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("end"));
    if (declared != BodyRecordCount(ckpt)) {
      return util::Status::Corruption("checkpoint record count mismatch");
    }
  }
  if (!reader.AtEnd()) {
    return util::Status::Corruption("trailing bytes after checkpoint footer");
  }
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

// The matrix a snapshot was written for (dims, then content hash) must be
// the one being mined.
util::Status ValidateMatrixIdentity(const RunContext& have,
                                    const RunContext& want) {
  if (have.num_genes != want.num_genes ||
      have.num_conditions != want.num_conditions) {
    return util::Status::FailedPrecondition(
        "checkpoint matrix dimensions differ: snapshot " +
        std::to_string(have.num_genes) + "x" +
        std::to_string(have.num_conditions) + ", matrix " +
        std::to_string(want.num_genes) + "x" +
        std::to_string(want.num_conditions));
  }
  if (have.matrix_hash != want.matrix_hash) {
    return util::Status::FailedPrecondition(
        "checkpoint was written for a different matrix "
        "(content hash mismatch)");
  }
  return util::Status::OK();
}

}  // namespace

util::Status ValidateMineCheckpoint(const MineCheckpoint& ckpt,
                                    const matrix::MatrixStore& data,
                                    const core::MinerOptions& options) {
  const RunContext want = MineContext(data, data.num_conditions(), options);
  if (ckpt.context.flags != want.flags) {
    return util::Status::FailedPrecondition(
        "checkpoint dominance-pass setting differs from the requested "
        "options");
  }
  if (ckpt.context.options_hash != want.options_hash) {
    return util::Status::FailedPrecondition(
        "checkpoint was written under different mining options "
        "(semantic hash mismatch)");
  }
  return ValidateMatrixIdentity(ckpt.context, want);
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
  const RunContext want = SweepContext(data, points);
  if (ckpt.context.options_hash != want.options_hash) {
    return util::Status::FailedPrecondition(
        "checkpoint was written for a different sweep grid "
        "(grid hash mismatch)");
  }
  return ValidateMatrixIdentity(ckpt.context, want);
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
  util::WallTimer run_timer;
  const core::MinerOptions chunk_base = SpliceOptions(options);

  // Mutable run state, seeded from the snapshot when resuming.
  MineCheckpoint state;
  if (resume != nullptr) {
    REGCLUSTER_RETURN_IF_ERROR(ValidateMineCheckpoint(*resume, data, options));
    state = *resume;
  } else {
    state.context = MineContext(data, data.num_conditions(), options);
    state.next_root = 0;
  }

  CheckpointWriter writer(config.path, config.next_generation,
                          config.synchronous);
  if (resume != nullptr) writer.NoteResume();

  DurableMineResult result;
  auto finish = [&](core::MineStatus status, util::StopReason reason,
                    const core::ResumeToken& token,
                    const core::MineOutcome* last_chunk) {
    result.clusters = std::move(state.clusters);
    result.stats = state.stats;
    result.outcome.status = status;
    result.outcome.stop_reason = reason;
    result.outcome.nodes_visited = state.nodes_visited;
    result.outcome.roots_completed = static_cast<int>(state.roots_completed);
    result.outcome.roots_total = data.num_conditions();
    result.outcome.wall_seconds = state.wall_seconds;
    result.outcome.peak_scratch_bytes = state.peak_scratch_bytes;
    result.outcome.resume = token;
    if (last_chunk != nullptr) {
      result.outcome.model_bytes = last_chunk->model_bytes;
      result.outcome.mapped_bytes = last_chunk->mapped_bytes;
    }
    if (options.remove_dominated && status == core::MineStatus::kComplete) {
      result.clusters = core::RemoveDominated(std::move(result.clusters));
    }
  };

  // A snapshot that says "complete" short-circuits: replay the stored
  // result (the dominance pass, when requested, re-runs on the stored raw
  // clusters -- it is deterministic).
  if (state.complete()) {
    finish(core::MineStatus::kComplete, util::StopReason::kNone,
           core::ResumeToken{}, nullptr);
    result.checkpoint = writer.stats();
    result.checkpoint_status = writer.last_error();
    return result;
  }

  // Build the gamma model once for all chunks (Mine() would otherwise
  // rebuild it per chunk).  Invalid options build nothing: the first
  // chunk's Mine() surfaces the rejection verbatim.
  std::shared_ptr<const core::SharedGammaModel> model = options.shared_model;
  if (model == nullptr && core::ValidateMinerOptions(options, data).ok()) {
    REGCLUSTER_RETURN_IF_ERROR(core::ValidateMatrixValues(data));
    model = core::SharedGammaModel::Build(
        data, {options.gamma_policy, options.gamma}, options.min_conditions,
        options.num_threads);
  }
  // One logical run builds the model once; report it that way (chunks all
  // run with a shared model, contributing index_builds == 0).
  if (resume == nullptr && model != nullptr) {
    state.stats.index_builds = 1;
    state.stats.rwave_build_seconds = model->rwave_build_seconds;
    state.stats.index_build_seconds = model->index_build_seconds;
  }

  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  const int64_t user_nodes =
      options.max_nodes >= 0 ? options.max_nodes : kUnlimited;
  const int64_t user_clusters =
      options.max_clusters >= 0 ? options.max_clusters : kUnlimited;
  int64_t chunk_budget = std::max<int64_t>(config.initial_chunk_nodes, 1);
  core::ResumeToken token;
  token.next_root = static_cast<int>(state.next_root);
  token.options_hash = state.context.options_hash;
  core::MineOutcome last_outcome;

  for (;;) {
    const int64_t nodes_rem = user_nodes == kUnlimited
                                  ? kUnlimited
                                  : user_nodes - state.stats.nodes_expanded;
    const int64_t clusters_rem =
        user_clusters == kUnlimited
            ? kUnlimited
            : user_clusters - state.stats.clusters_emitted;
    const int64_t this_budget = std::min(chunk_budget, nodes_rem);

    core::MinerOptions chunk = chunk_base;
    chunk.shared_model = model;
    chunk.max_nodes = this_budget == kUnlimited ? -1 : this_budget;
    chunk.max_clusters = clusters_rem == kUnlimited ? -1 : clusters_rem;
    if (token.can_resume() && token.next_root > 0) {
      chunk.resume = token;
    } else {
      chunk.resume = core::ResumeToken{};
    }
    if (options.deadline_ms >= 0) {
      chunk.deadline_ms =
          std::max(0.0, options.deadline_ms - run_timer.ElapsedMillis());
    }

    util::WallTimer chunk_timer;
    core::RegClusterMiner miner(data, chunk);
    auto clusters = miner.Mine();
    if (!clusters.ok()) return clusters.status();
    const double chunk_ms = chunk_timer.ElapsedMillis();
    const core::MineOutcome& oc = miner.outcome();
    last_outcome = oc;

    const bool progressed = oc.roots_completed > 0;
    if (progressed) {
      state.clusters.insert(state.clusters.end(),
                            std::make_move_iterator(clusters->begin()),
                            std::make_move_iterator(clusters->end()));
      core::AccumulateStats(miner.stats(), &state.stats);
      state.roots_completed += oc.roots_completed;
    }
    state.nodes_visited += oc.nodes_visited;
    state.wall_seconds += oc.wall_seconds;
    state.peak_scratch_bytes =
        std::max(state.peak_scratch_bytes, oc.peak_scratch_bytes);

    if (oc.status == core::MineStatus::kComplete) {
      state.next_root = -1;
      Checkpoint final_ckpt = SnapshotOf(state);
      finish(core::MineStatus::kComplete, util::StopReason::kNone,
             core::ResumeToken{}, &last_outcome);
      result.checkpoint_status = writer.WriteNow(std::move(final_ckpt));
      result.checkpoint = writer.stats();
      return result;
    }

    token = oc.resume;
    state.next_root = token.next_root;

    const bool hard = util::IsHardStop(oc.stop_reason);
    // A soft stop is *final* when the chunk's budget already was the user's
    // whole remaining budget: the next root does not fit the logical run.
    const bool user_node_cut = oc.stop_reason ==
                                   util::StopReason::kNodeBudget &&
                               this_budget == nodes_rem;
    const bool user_cluster_cut =
        oc.stop_reason == util::StopReason::kClusterBudget;
    if (hard || user_node_cut || user_cluster_cut) {
      Checkpoint final_ckpt = SnapshotOf(state);
      finish(core::MineStatus::kTruncated, oc.stop_reason, token,
             &last_outcome);
      result.checkpoint_status = writer.WriteNow(std::move(final_ckpt));
      result.checkpoint = writer.stats();
      return result;
    }

    if (!progressed) {
      // Driver-pace budget too small for even one root: grow and retry
      // (nothing new to snapshot).
      chunk_budget = chunk_budget * 2;
      continue;
    }

    // Periodic snapshot, off the hot path on the writer thread.
    writer.Submit(SnapshotOf(state));

    // Adapt the chunk size to the requested cadence from the measured
    // throughput of the chunk that just ran.
    const double nodes_per_ms =
        static_cast<double>(miner.stats().nodes_expanded) /
        std::max(chunk_ms, 0.1);
    const double target =
        nodes_per_ms * static_cast<double>(std::max(config.every_ms, 1));
    chunk_budget = std::clamp<int64_t>(static_cast<int64_t>(target), 1024,
                                       int64_t{1} << 40);
  }
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

  // Gamma groups: maximal consecutive points with one core::GammaKeyOf.
  // One engine Run per group keeps model sharing where the grid makes it
  // possible and gives kill-invariant group boundaries.
  size_t start = static_cast<size_t>(state.first_unfinished);
  while (start < points.size()) {
    const core::GammaKey key = core::GammaKeyOf(points[start]);
    size_t end = start + 1;
    while (end < points.size() && core::GammaKeyOf(points[end]) == key) {
      ++end;
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

}  // namespace io
}  // namespace regcluster
