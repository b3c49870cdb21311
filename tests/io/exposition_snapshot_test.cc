// Full-text snapshot of the run-record exposition surfaces.
//
// Dashboards, scrape configs and downstream JSON readers key on metric
// names, HELP text, ordering and the "outcome"/"stats" block layout, so the
// whole rendering is pinned, not just a few names: WriteMinerMetrics in both
// formats and WriteClustersJson with outcome + stats, over the fixed
// records of golden_fixtures.h (every field distinct, so a swapped or
// dropped field changes the text).  The expected text lives in
// tests/io/testdata/.

#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "golden_fixtures.h"
#include "io/checkpoint.h"
#include "io/json_export.h"
#include "io/metrics_export.h"
#include "util/durable_file.h"

namespace regcluster {
namespace golden {
namespace {

std::string ReadGolden(const char* name) {
  auto bytes = util::ReadFileToString(std::string(REGCLUSTER_TESTDATA_DIR) +
                                      "/" + name);
  EXPECT_TRUE(bytes.ok()) << name << ": " << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

io::CheckpointStats GoldenCheckpointStats() {
  io::CheckpointStats ckpt;
  ckpt.writes = 41;
  ckpt.bytes = 42;
  ckpt.last_write_ns = 43;
  ckpt.resumes = 44;
  return ckpt;
}

TEST(ExpositionSnapshot, MinerMetricsJson) {
  const io::CheckpointStats ckpt = GoldenCheckpointStats();
  std::ostringstream out;
  ASSERT_TRUE(io::WriteMinerMetrics(Stats(100), Outcome(100),
                                    io::MetricsFormat::kJson, out, &ckpt)
                  .ok());
  EXPECT_EQ(out.str(), ReadGolden(kMetricsJsonFile));
}

TEST(ExpositionSnapshot, MinerMetricsPrometheus) {
  const io::CheckpointStats ckpt = GoldenCheckpointStats();
  std::ostringstream out;
  ASSERT_TRUE(io::WriteMinerMetrics(Stats(100), Outcome(100),
                                    io::MetricsFormat::kPrometheus, out,
                                    &ckpt)
                  .ok());
  EXPECT_EQ(out.str(), ReadGolden(kMetricsPromFile));
}

TEST(ExpositionSnapshot, ClustersJsonOutcomeAndStatsBlocks) {
  const matrix::ExpressionMatrix m = ExportMatrix();
  const core::MinerStats stats = Stats(100);
  const core::MineOutcome outcome = Outcome(100);
  std::ostringstream out;
  ASSERT_TRUE(
      io::WriteClustersJson(Clusters(1), &m, &outcome, &stats, out).ok());
  EXPECT_EQ(out.str(), ReadGolden(kClustersJsonFile));
}

}  // namespace
}  // namespace golden
}  // namespace regcluster
