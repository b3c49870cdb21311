// Writes the golden files of tests/io/testdata/ from golden_fixtures.h.
//
//   golden_fixtures_gen DIR
//
// Only for a deliberate wire-format or exposition change (see
// CONTRIBUTING.md): the committed files are the reference the current code
// is held to, so regenerating them must come with a format version bump or
// a documented metrics change.

#include <cstdio>
#include <sstream>
#include <string>

#include "golden_fixtures.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "io/json_export.h"
#include "io/metrics_export.h"
#include "util/durable_file.h"

namespace regcluster {
namespace golden {
namespace {

util::Status WriteAll(const std::string& dir) {
  auto put = [&dir](const char* name, const std::string& bytes) {
    return util::AtomicWriteFile(dir + "/" + name, bytes);
  };
  REGCLUSTER_RETURN_IF_ERROR(
      put(kMineCheckpointFile, io::EncodeCheckpoint(MineCheckpoint())));
  REGCLUSTER_RETURN_IF_ERROR(
      put(kSweepCheckpointFile, io::EncodeCheckpoint(SweepCheckpoint())));
  REGCLUSTER_RETURN_IF_ERROR(put(
      kIncrementalStateFile, io::EncodeIncrementalState(IncrementalState())));

  const core::MinerStats stats = Stats(100);
  const core::MineOutcome outcome = Outcome(100);
  io::CheckpointStats ckpt;
  ckpt.writes = 41;
  ckpt.bytes = 42;
  ckpt.last_write_ns = 43;
  ckpt.resumes = 44;
  std::ostringstream json, prom, clusters;
  REGCLUSTER_RETURN_IF_ERROR(io::WriteMinerMetrics(
      stats, outcome, io::MetricsFormat::kJson, json, &ckpt));
  REGCLUSTER_RETURN_IF_ERROR(io::WriteMinerMetrics(
      stats, outcome, io::MetricsFormat::kPrometheus, prom, &ckpt));
  const matrix::ExpressionMatrix m = ExportMatrix();
  REGCLUSTER_RETURN_IF_ERROR(
      io::WriteClustersJson(Clusters(1), &m, &outcome, &stats, clusters));
  REGCLUSTER_RETURN_IF_ERROR(put(kMetricsJsonFile, json.str()));
  REGCLUSTER_RETURN_IF_ERROR(put(kMetricsPromFile, prom.str()));
  return put(kClustersJsonFile, clusters.str());
}

}  // namespace
}  // namespace golden
}  // namespace regcluster

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTPUT_DIR\n", argv[0]);
    return 2;
  }
  const regcluster::util::Status st = regcluster::golden::WriteAll(argv[1]);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
