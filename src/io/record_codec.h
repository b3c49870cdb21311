// The record-file container of the durable formats, and the run-record
// pieces they carry: the run context, MinerStats (driven by
// core::kMinerStatsFields) and cluster lists.  One definition links into
// RGCXCKP1 (io/checkpoint.cc) and RGCXINC1 (io/incremental.cc), so the two
// formats cannot drift apart.
//
// A record file is a preamble -- the format's 8-byte magic, u32 version 1,
// u32 endian tag 0x01020304, then the format's own preamble fields -- and a
// sequence of CRC32C-framed records (util::AppendRecord).  Each record
// payload opens with a u32 tag.  A format requires its records in one fixed
// order, the last an end record carrying a count:
//
//   RGCXCKP1  preamble + u32 kind + u64 generation (28 bytes), then
//     mine:   context(1) progress(2) stats(3) clusters(4) end(7, u32 4)
//     sweep:  context(1) aggregate(5) run(6) per covered point
//             end(7, u32 2 + runs)
//   RGCXINC1  preamble (16 bytes), then
//             context(1) root(2) per condition, in root order
//             end(3, u64 num_conditions)
//
// Every malformed input is kCorruption; the container's own errors (preamble,
// missing or unexpected record, trailing bytes) name the format.  A valid
// file of the wrong run is a FailedPrecondition from CheckRunContext.

#ifndef REGCLUSTER_IO_RECORD_CODEC_H_
#define REGCLUSTER_IO_RECORD_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/bicluster.h"
#include "core/miner_stats.h"
#include "util/durable_file.h"
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

/// Compares a stored context against the one the caller is about to run.
/// Dims, dominance flag, options hash and matrix hash each fail as their own
/// FailedPrecondition; `what` names the stored artifact ("checkpoint") and
/// `options` what its options hash covers ("mining options").
util::Status CheckRunContext(const RunContext& have, const RunContext& want,
                             const char* what, const char* options);

/// Appends the context fields in declaration order (hash halves hi, lo);
/// ReadRunContext is the inverse.
void PutRunContext(std::string* out, const RunContext& ctx);
util::Status ReadRunContext(util::Cursor* c, RunContext* ctx);

/// Appends every persisted MinerStats field in table order: counters as
/// i64, timing fields as IEEE-754 doubles.  The profiling *_ns counters
/// are volatile and never written.
void PutMinerStats(std::string* out, const core::MinerStats& stats);

/// Inverse of PutMinerStats; fields not on the wire are left untouched.
util::Status ReadMinerStats(util::Cursor* c, core::MinerStats* stats);

/// u64 count, then per cluster the chain, p-genes and n-genes as u32
/// vectors.  The reader rejects a count its record cannot hold before it
/// allocates anything.
void PutClusters(std::string* out,
                 const std::vector<core::RegCluster>& clusters);
util::Status ReadClusters(util::Cursor* c,
                          std::vector<core::RegCluster>* clusters);

/// Appends the shared preamble: `magic`, version 1, endian tag.  The
/// format's own preamble fields follow.
void PutPreamble(std::string* out, const char (&magic)[8]);

/// Appends one framed record: u32 `tag`, then what `put(&payload)` appends.
template <typename Fn>
void PutRecord(std::string* out, uint32_t tag, Fn&& put) {
  std::string payload;
  util::PutU32(&payload, tag);
  put(&payload);
  util::AppendRecord(out, payload);
}

/// Ordered decoder over one record file.  `label` names the format in every
/// error ("missing checkpoint record stats"); `bytes` and `label` must
/// outlive the reader.
class RecordFileReader {
 public:
  RecordFileReader(std::string_view bytes, const char* label)
      : bytes_(bytes), label_(label) {}

  /// Checks the shared preamble against `magic` and returns a cursor over
  /// the `extra_bytes` of format fields after it; the records start there.
  util::StatusOr<util::Cursor> ReadPreamble(const char (&magic)[8],
                                            size_t extra_bytes);

  /// Reads the next record, which must carry `tag`, and hands the rest of
  /// its payload to `read(util::Cursor*)`, which must consume all of it.
  /// `what` names the record in errors.
  template <typename Fn>
  util::Status ReadRecord(uint32_t tag, const char* what, Fn&& read) {
    auto payload = Next(tag, what);
    if (!payload.ok()) return payload.status();
    REGCLUSTER_RETURN_IF_ERROR(read(&*payload));
    return payload->ExpectDone(what);
  }

  /// The file must end after the end record.
  util::Status ExpectEnd() const;

 private:
  util::StatusOr<util::Cursor> Next(uint32_t tag, const char* what);

  std::string_view bytes_;
  const char* label_;
  util::RecordReader records_{std::string_view()};
};

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_RECORD_CODEC_H_
