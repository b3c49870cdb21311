// Binary encoding of the run-record pieces both durable formats carry:
// MinerStats (driven by core::kMinerStatsFields) and cluster lists.  One
// definition links into RGCXCKP1 (io/checkpoint.cc) and RGCXINC1
// (io/incremental.cc), so the two formats cannot drift apart.

#ifndef REGCLUSTER_IO_RECORD_CODEC_H_
#define REGCLUSTER_IO_RECORD_CODEC_H_

#include <string>
#include <vector>

#include "core/bicluster.h"
#include "core/miner_stats.h"
#include "util/status.h"
#include "util/wire.h"

namespace regcluster {
namespace io {

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
