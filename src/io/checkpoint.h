// Durable checkpoint/restart for mines and sweeps.
//
// A long mine (ROADMAP: 100k-gene out-of-core runs) that dies to a crash,
// OOM kill or preemption would otherwise lose everything.  A checkpoint is
// a versioned binary snapshot (magic `RGCXCKP1`) of everything needed to
// continue a run in a fresh process: the semantic-options fingerprint, a
// content hash of the input matrix, the resume position, the emitted-cluster
// prefix and the accumulated MinerStats (for a sweep: the completed-run
// prefix plus `first_unfinished`).  Snapshots are written with the
// atomic-replace + CRC32C framing of util/durable_file.h, double-buffered as
// `PATH.a` / `PATH.b` under a generation counter, so at every instant at
// least one complete valid snapshot exists on disk; the loader picks the
// newest valid buffer and falls back to the other when a crash tore the
// in-flight write.
//
// Execution model: rather than snapshotting DFS internals mid-flight,
// RunCheckpointedMine runs one Mine() over the roots the snapshot has not
// covered (MinerOptions::root_set = [next_root, C)), whose per-root
// callback snapshots after the first included root, then at the requested
// cadence.  The paper's search is one independent DFS per root, so the
// covered roots' clusters are a prefix of a single run's output and
// MinerStats counters partition exactly across roots: the final clusters
// *and* the deterministic counters of a killed-and-resumed run are
// byte-identical to an uninterrupted one wherever the kill landed.  The
// caller's node and cluster budgets pass through as what the covered prefix
// left of them.  Snapshots are encoded and written off the mining hot path
// on a dedicated writer thread (latest-wins; the final snapshot of a run is
// always written synchronously).
//
// Every malformed on-disk shape is rejected with a distinct kCorruption
// status (mirroring the matrix-store hardening); semantic mismatches
// (different options, different matrix, stale generation) are
// kFailedPrecondition.  tests/io/checkpoint_test.cc and the process-level
// kill harness tests/integration/crash_harness.cc enforce the contract.

#ifndef REGCLUSTER_IO_CHECKPOINT_H_
#define REGCLUSTER_IO_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/sweep.h"
#include "io/record_codec.h"
#include "matrix/store.h"
#include "util/hash128.h"
#include "util/status.h"

namespace regcluster {
namespace io {

enum class CheckpointKind : uint32_t {
  kMine = 1,
  kSweep = 2,
};

/// Durable-run progress counters, exported as
/// regcluster_checkpoint_{writes,bytes,last_write_ns,resumes}.
struct CheckpointStats {
  int64_t writes = 0;         ///< snapshots written (both buffers)
  int64_t bytes = 0;          ///< total encoded snapshot bytes written
  int64_t last_write_ns = 0;  ///< wall duration of the most recent write
  int64_t resumes = 0;        ///< runs continued from an on-disk snapshot
};

/// Snapshot of a (possibly unfinished) mine.  `next_root` < 0 means the run
/// completed: `clusters` is the full raw output (pre dominance pass).
struct MineCheckpoint {
  /// MineContext of the run: the options its Mine() runs under
  /// (SpliceOptions) and the input matrix, so a run may resume on either
  /// the text or the binary path.
  RunContext context;
  /// First canonical root not covered by `clusters`; -1 when complete.
  int64_t next_root = -1;
  int64_t roots_completed = 0;
  /// Accumulated execution telemetry (scheduling-dependent; carried so a
  /// resumed run can report sensible totals).
  int64_t nodes_visited = 0;
  double wall_seconds = 0.0;
  int64_t peak_scratch_bytes = 0;
  /// Accumulated deterministic counters of the covered prefix.
  core::MinerStats stats;
  /// Emitted clusters of the covered prefix, in canonical order.
  std::vector<core::RegCluster> clusters;

  bool complete() const { return next_root < 0; }
};

/// Snapshot of a (possibly unfinished) sweep.  Progress is tracked at gamma-
/// group boundaries (the shortest runs of consecutive points that no
/// gamma_policy+gamma key straddles): `runs` covers every point before
/// `first_unfinished`, and a kill or a hard stop (cancel, deadline, memory)
/// mid-group re-runs only that group.
struct SweepCheckpoint {
  /// options_hash is HashSweepGrid over the expanded point list (a resume
  /// re-parses the --sweep spec and must land on the same grid); flags is 0.
  RunContext context;
  /// First point index not covered by `runs`; -1 when every point was
  /// attempted or a sweep budget cut the grid (a resume replays the stored
  /// report).
  int64_t first_unfinished = 0;
  int64_t runs_total = 0;
  /// Final sweep status, meaningful when complete(): 0 = complete,
  /// 1 = truncated, plus the util::StopReason that cut it.
  uint32_t truncated = 0;
  int32_t stop_reason = 0;
  /// Accumulated engine aggregates over the covered groups.
  int64_t index_builds = 0;
  int64_t shared_model_bytes = 0;
  double wall_seconds = 0.0;
  /// The covered points in order; a run's index is its position.  Only the
  /// result fields are persisted: `options` decodes as default.
  std::vector<core::SweepRun> runs;

  bool complete() const { return first_unfinished < 0; }
};

/// A decoded snapshot file: generation + exactly one of the two payloads
/// (selected by `kind`).
struct Checkpoint {
  uint64_t generation = 0;
  CheckpointKind kind = CheckpointKind::kMine;
  MineCheckpoint mine;
  SweepCheckpoint sweep;
};

/// Serializes `ckpt` to the RGCXCKP1 record file (io/record_codec.h): the
/// shared preamble plus kind and generation (28 bytes), then the kind's
/// records and an end record carrying their count.
std::string EncodeCheckpoint(const Checkpoint& ckpt);

/// Inverse of EncodeCheckpoint.  Every malformed shape is a distinct
/// kCorruption: the container's (short preamble, bad magic, unsupported
/// version, endianness mismatch, torn or bit-flipped records, a missing or
/// unexpected record, trailing bytes), an unknown kind, a record-count
/// mismatch, a mine whose next_root is outside [-1, condition count), and
/// a sweep whose run records disagree with its
/// progress (a run index off its position, a run count other than
/// first_unfinished -- or runs_total when complete -- or first_unfinished
/// outside [-1, runs_total)).
util::StatusOr<Checkpoint> DecodeCheckpoint(std::string_view bytes);

/// The double-buffer file a given generation lands in: `base` + ".a" for
/// even generations, ".b" for odd.  Alternating buffers means the previous
/// snapshot is never the rename target of the next write.
std::string CheckpointBufferPath(const std::string& base, uint64_t generation);

/// Encodes and atomically writes `ckpt` into its generation's buffer file.
util::Status WriteCheckpointFile(const std::string& base,
                                 const Checkpoint& ckpt);

/// Loads the newest valid snapshot reachable from `base`: tries `base`
/// itself (a literal snapshot file), `base.a` and `base.b`, and returns the
/// decodable candidate with the highest generation.  kNotFound when no
/// candidate file exists; the first decode error when candidates exist but
/// none decodes; kFailedPrecondition ("stale checkpoint generation") when
/// the best valid generation is below `min_generation`.
util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& base,
                                          uint64_t min_generation = 0);

/// FNV-128 content hash of a matrix: dims, gene/condition labels, and the
/// raw IEEE-754 cell payload.  A pure function of the logical matrix --
/// identical for the resident text path and the mmap'ed binary path.
util::Hash128 HashMatrixContent(const matrix::MatrixStore& data);

/// HashMatrixContent restricted to the first `cols` conditions -- exactly
/// the hash the matrix had before conditions were appended after them (the
/// incremental state's prefix check).
util::Hash128 HashMatrixPrefix(const matrix::MatrixStore& data, int cols);

/// Order-sensitive fingerprint of an expanded sweep grid (each point's
/// semantic options hash mixed in sequence).
uint64_t HashSweepGrid(const std::vector<core::MinerOptions>& points);

/// The options every spliceable unit runs under -- a durable mine's legs
/// and an incremental state's root slices: `options` with the global
/// remove_dominated post-pass deferred (it cannot splice; the driver runs it
/// once over the spliced output, and RunContext::kRemoveDominated records
/// that it must).
core::MinerOptions SpliceOptions(const core::MinerOptions& options);

/// The RunContext of a mine under `options` over the first `cols`
/// conditions of `data`: SpliceOptions' semantic hash, the dominance flag,
/// the dims and HashMatrixPrefix.
RunContext MineContext(const matrix::MatrixStore& data, int cols,
                       const core::MinerOptions& options);

/// Validates that `ckpt` may resume a run over `data` under `options`:
/// CheckRunContext against MineContext of the whole matrix.
util::Status ValidateMineCheckpoint(const MineCheckpoint& ckpt,
                                    const matrix::MatrixStore& data,
                                    const core::MinerOptions& options);

/// Sweep counterpart: the point count, then CheckRunContext against the
/// grid hash and the whole matrix.
util::Status ValidateSweepCheckpoint(const SweepCheckpoint& ckpt,
                                     const matrix::MatrixStore& data,
                                     const std::vector<core::MinerOptions>&
                                         points);

/// Background snapshot writer: one dedicated thread, latest-wins queue
/// (a submitted snapshot replaces an unwritten predecessor -- the newest
/// state is the only one worth crash-protecting), generations assigned
/// monotonically at submit so buffer files alternate.  `synchronous` makes
/// Submit() write inline (tests and final snapshots).
class CheckpointWriter {
 public:
  /// `next_generation` seeds the counter (resume passes loaded generation
  /// + 1 so new snapshots supersede the old process's).
  CheckpointWriter(std::string base_path, uint64_t next_generation,
                   bool synchronous);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Queues `ckpt` for the writer thread (inline write when synchronous).
  /// Write failures are sticky: see last_error().
  void Submit(Checkpoint ckpt);

  /// Discards any queued snapshot (ours is newer) and writes `ckpt`
  /// synchronously, returning the write's own status.
  util::Status WriteNow(Checkpoint ckpt);

  /// First write failure, if any (OK otherwise).  Durability errors must
  /// not kill a healthy mine; callers surface this as a warning.
  util::Status last_error() const;

  /// Counts a resume on behalf of the run this writer serves.
  void NoteResume();

  CheckpointStats stats() const;

 private:
  util::Status WriteLocked(Checkpoint ckpt);  // caller holds io_mutex_
  void ThreadBody();

  const std::string base_path_;
  const bool synchronous_;
  mutable std::mutex mutex_;            // queue + counters
  std::mutex io_mutex_;                 // serializes actual file writes
  std::condition_variable cv_;
  std::optional<Checkpoint> pending_;
  uint64_t next_generation_;
  bool stop_ = false;
  util::Status error_;
  CheckpointStats stats_;
  std::thread thread_;
};

/// Durable-run knobs shared by both drivers.
struct CheckpointConfig {
  /// Snapshot base path (buffers PATH.a / PATH.b).  Empty disables
  /// snapshot writing (a resume-only run still replays without writing).
  std::string path;
  /// Target wall-clock interval between snapshots.  The mine driver
  /// snapshots after the first included root, then after the first root
  /// that finishes once this interval has passed since the last snapshot.
  int every_ms = 1000;
  /// Generation the run's first snapshot gets.  A resume passes the loaded
  /// snapshot's generation + 1 so new snapshots supersede the old
  /// process's in LoadCheckpoint's newest-valid-buffer selection.
  uint64_t next_generation = 1;
  /// Write every snapshot inline instead of on the writer thread.
  bool synchronous = false;
};

/// Result of a durable mine: exactly what RegClusterMiner::Mine() +
/// stats()/outcome() would have produced uninterrupted, plus the durability
/// counters and the final snapshot status.
struct DurableMineResult {
  std::vector<core::RegCluster> clusters;
  core::MinerStats stats;
  core::MineOutcome outcome;
  CheckpointStats checkpoint;
  /// Non-OK when a snapshot write failed (the mine itself still succeeded).
  util::Status checkpoint_status;
};

/// Runs a mine as one Mine() over the roots not yet covered, snapshotting
/// progress to `config.path` as whole roots finish.  `resume` (may be null)
/// is a previously loaded snapshot: it is validated against (data,
/// options) and the run continues from its next_root.  The clusters, every
/// deterministic MinerStats counter and the outcome's status, stop reason,
/// roots_completed and resume token are those of an uninterrupted
/// RegClusterMiner::Mine() under `options` at any kill/resume pattern and
/// any thread count (a deadline or cancel cut lands where it lands, as in
/// Mine()).  Snapshots hold the raw clusters; the returned ones have had
/// the remove_dominated pass when `options` asks for it, truncated or not.
/// A non-empty `options.root_set` is rejected: the driver chooses the
/// roots.
util::StatusOr<DurableMineResult> RunCheckpointedMine(
    const matrix::MatrixStore& data, const core::MinerOptions& options,
    const CheckpointConfig& config, const MineCheckpoint* resume);

/// Result of a durable sweep.
struct DurableSweepResult {
  core::SweepReport report;
  CheckpointStats checkpoint;
  util::Status checkpoint_status;
};

/// Runs a sweep gamma-group by gamma-group (one SweepEngine::Run per
/// shortest run of consecutive points that no gamma key straddles, so each
/// model is built once, as SweepEngine::Run over the whole grid builds
/// it), snapshotting after each group.
/// Sweep-level node/cluster budgets are composed across groups from each
/// group's deterministic totals, so truncation lands on the same point
/// boundary as an uninterrupted run.  A hard stop (cancel, deadline, memory)
/// leaves the snapshot of the cut group's start, so a resume re-runs just
/// that group; a budget cut leaves the truncated report, which a resume
/// replays.
util::StatusOr<DurableSweepResult> RunCheckpointedSweep(
    const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points,
    const core::SweepOptions& sweep_options, const CheckpointConfig& config,
    const SweepCheckpoint* resume);

/// Zeroes the scheduling- and wall-clock-dependent fields of a mine run
/// record (nodes_visited, *_seconds, peak_scratch_bytes, cache telemetry)
/// so two byte-compared reports differ only if the *mined result* differs.
/// Backs the CLI's --deterministic-output flag and the crash harness.
void ZeroVolatileMineFields(core::MinerStats* stats,
                            core::MineOutcome* outcome);

/// Sweep counterpart: report wall_seconds plus every run's volatile fields.
void ZeroVolatileSweepFields(core::SweepReport* report);

/// Durable-run counterpart: zeroes writes, bytes and last_write_ns, which
/// follow the wall-clock snapshot cadence; `resumes` counts launches and
/// stays.
void ZeroVolatileCheckpointFields(CheckpointStats* stats);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_CHECKPOINT_H_
