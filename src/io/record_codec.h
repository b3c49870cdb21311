// Binary encoding of the run-record pieces both durable formats carry: the
// run-context record, MinerStats (driven by core::kMinerStatsFields) and
// cluster lists.  One definition links into RGCXCKP1 (io/checkpoint.cc) and
// RGCXINC1 (io/incremental.cc), so the two formats cannot drift apart.

#ifndef REGCLUSTER_IO_RECORD_CODEC_H_
#define REGCLUSTER_IO_RECORD_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bicluster.h"
#include "core/miner_stats.h"
#include "util/hash128.h"
#include "util/status.h"
#include "util/wire.h"

namespace regcluster {
namespace io {

/// What a durable run answered, over which matrix: the first record of every
/// mine checkpoint, sweep checkpoint and incremental state.  A resume or an
/// append is valid only against a run with the same context.
struct RunContext {
  /// Set in `flags` when the user asked for the remove_dominated post-pass:
  /// the recorded slices are mined without it (a global post-pass cannot
  /// splice) and the pass runs once over the spliced output.
  static constexpr uint32_t kRemoveDominated = 1u << 0;

  /// RegClusterMiner::SemanticOptionsHash of the splice options (see
  /// io::SpliceOptions) for a mine or an incremental state; HashSweepGrid of
  /// the expanded point list for a sweep.
  uint64_t options_hash = 0;
  /// HashMatrixContent of the matrix the run covered: dims + labels + cell
  /// payload, identical across the text/resident and binary/mapped paths.
  util::Hash128 matrix_hash{0, 0};
  int64_t num_genes = 0;
  int64_t num_conditions = 0;
  uint32_t flags = 0;  ///< RunContext::k* bits
};

/// Appends the context fields in declaration order (hash halves hi, lo).
void PutRunContext(std::string* out, const RunContext& ctx);

/// Inverse of PutRunContext; the context must fill the rest of the cursor.
util::Status ReadRunContext(util::Cursor* c, RunContext* ctx);

/// Appends every persisted MinerStats field in table order: counters as
/// i64, timing fields as IEEE-754 doubles.  The profiling *_ns counters
/// are volatile and never written.
void PutMinerStats(std::string* out, const core::MinerStats& stats);

/// Inverse of PutMinerStats; fields not on the wire are left untouched.
util::Status ReadMinerStats(util::Cursor* c, core::MinerStats* stats);

/// u64 count, then per cluster the chain, p-genes and n-genes as u32
/// vectors.
void PutClusters(std::string* out,
                 const std::vector<core::RegCluster>& clusters);
util::Status ReadClusters(util::Cursor* c,
                          std::vector<core::RegCluster>* clusters);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_RECORD_CODEC_H_
