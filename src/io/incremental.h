// Incremental time-course mining: condition appends re-mine only dirty roots.
//
// Expression time courses grow condition by condition, and a full re-mine
// after every new array throws away everything the previous run computed.
// This module makes the search a delta: the gamma model is rebuilt at the
// new width, and the search re-runs only the *dirty roots* -- level-1
// conditions whose subtree can possibly involve an appended condition --
// splicing every other root's (stats, clusters) slice from the previous
// run's recorded per-root results (MinerOptions::root_set +
// capture_root_results).
//
// Dirty-set rule (proof sketch in DESIGN.md): regulation reachability is
// transitively closed in one step per gene -- FirstSuccessorPos is
// non-decreasing in position, so every condition reachable from root r
// through an upward chain of gene g is a *direct* regulation successor of r
// in g's model (mirror for downward chains).  Hence root r's subtree can
// touch a new condition iff some gene has a new condition directly in
// UpCandidates(g, pos_g(r)) or DownCandidates(g, pos_g(r)), evaluated on
// the post-append index.  Appended conditions are always mined (they are
// new roots).  Two append shapes invalidate every root at once:
//   * a gene's absolute threshold moved (the append widened its range under
//     kRangeFraction, or shifted a statistic under the other policies) --
//     regulation among the *old* conditions then changes too;
//   * the bitmap word count grew (WordsForBits) -- the per-root
//     index_word_ops counters scale with the word stride, so old slices
//     would no longer sum to a from-scratch run's counters.
//
// Contract: after any append sequence, MineIncremental's clusters AND every
// deterministic MinerStats counter are byte-identical to a from-scratch
// RegClusterMiner::Mine() over the grown matrix, at any thread count
// (tests/core/incremental_append_test.cc).  The state is durable: a
// versioned binary snapshot (magic RGCXINC1, CRC32C-framed records like the
// checkpoint format) holding the per-root slices, so the CLI chains appends
// across processes (`mine --append=cols.txt --prev-outcome=STATE`).

#ifndef REGCLUSTER_IO_INCREMENTAL_H_
#define REGCLUSTER_IO_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/miner.h"
#include "io/record_codec.h"
#include "matrix/store.h"
#include "util/status.h"

namespace regcluster {
namespace io {

/// Everything a later append needs from the previous mine: identity of the
/// matrix and options it answered, plus every root's (stats, clusters)
/// slice in ascending root order.
struct IncrementalState {
  /// MineContext of the matrix the slices were mined over, under the
  /// slices' splice options (remove_dominated deferred: per-root slices
  /// cannot carry a global post-pass, which runs once per spliced output).
  RunContext context;
  /// One slice per root condition, ascending; clusters are pre-dominance.
  std::vector<core::RootMineResult> roots;
};

/// What an incremental (or initial) mine produced.
struct IncrementalMineResult {
  /// The final output, byte-identical to a from-scratch mine under the same
  /// options (dominance pass applied when requested).
  std::vector<core::RegCluster> clusters;
  /// Spliced deterministic counters -- byte-identical to a from-scratch
  /// mine's stats() except the wall-clock fields, which time this call.
  core::MinerStats stats;
  /// Run record for reports: always complete, every root covered; the
  /// scheduling telemetry stays 0.
  core::MineOutcome outcome;
  /// State to feed the next MineIncremental call.
  IncrementalState state;
  int roots_remined = 0;  ///< dirty roots searched this call
  int roots_spliced = 0;  ///< clean roots served from the previous state
};

/// Seeds an incremental chain: one full mine of `data` under `options`,
/// recording every root's slice.  The clusters and stats are byte-identical
/// to a plain RegClusterMiner::Mine() under the same options.  Rejects
/// (InvalidArgument) options the incremental contract cannot splice:
/// budgets, deadline, memory limit, cancel token, resume, root_set,
/// capture_root_results and shared_model; then applies
/// core::ValidateMinerOptions and core::ValidateMatrixValues before building
/// any model.
util::StatusOr<IncrementalMineResult> MineInitial(
    const matrix::MatrixStore& data, const core::MinerOptions& options);

/// Re-mines only the dirty roots of `new_data` -- the matrix after appending
/// conditions at the end, `first_new` = the previous condition count -- and
/// splices every clean root from `prev`.  Validates that `prev` matches the
/// options (semantic hash, dominance flag) and that the first `first_new`
/// columns of `new_data` are content-identical to the matrix `prev` was
/// mined over; each mismatch is a distinct FailedPrecondition.
util::StatusOr<IncrementalMineResult> MineIncremental(
    const matrix::MatrixStore& new_data, int first_new,
    const core::MinerOptions& options, const IncrementalState& prev);

/// Serializes `state` to the RGCXINC1 wire format: a 16-byte preamble
/// (magic, version, endian tag) followed by CRC32C-framed records
/// (util::AppendRecord) -- a context record, one record per root slice, and
/// a count-bearing end record.
std::string EncodeIncrementalState(const IncrementalState& state);

/// Inverse of EncodeIncrementalState.  Every malformed shape is a distinct
/// kCorruption (short preamble, bad magic, version/endianness mismatch,
/// torn records, out-of-order roots, count mismatch, trailing bytes).
util::StatusOr<IncrementalState> DecodeIncrementalState(
    std::string_view bytes);

/// Encodes and atomically writes `state` to `path`
/// (util::AtomicWriteFile: complete old or complete new, never torn).
util::Status WriteIncrementalStateFile(const std::string& path,
                                       const IncrementalState& state);

/// Reads and decodes the state file at `path`.
util::StatusOr<IncrementalState> LoadIncrementalState(const std::string& path);

/// The dirty-root set of an append, for tests and diagnostics: every root
/// in [0, first_new) with an appended condition directly in some gene's
/// successor/predecessor candidates (evaluated on the post-append `index`),
/// plus every appended root.  Sorted ascending.  The all-dirty fallbacks
/// (threshold moved, word count grew) are applied by MineIncremental, not
/// here.
std::vector<int> ComputeDirtyRoots(const core::RWaveBitmapIndex& index,
                                   int first_new);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_INCREMENTAL_H_
