// Figure 7: efficiency of the reg-cluster algorithm on synthetic datasets.
//
// Reproduces the three panels of Figure 7 -- average runtime while varying
// (a) the number of genes, (b) the number of conditions and (c) the number
// of embedded clusters, holding the other generator parameters at the
// paper's defaults (#g = 3000, #cond = 30, #clus = 30) and mining with
// MinG = 0.01 * #g, MinC = 6, gamma = 0.1, epsilon = 0.01.
//
// Usage:
//   bench_scalability                 # all three sweeps at --scale=1
//   bench_scalability --sweep=genes   # one panel
//   bench_scalability --scale=0.25    # shrink the dataset for quick runs
//
// Absolute numbers differ from the paper's 2006-era 3 GHz Windows PC; the
// claims under reproduction are the *shapes*: slightly superlinear in #g,
// superlinear in #cond, roughly linear in #clus (see EXPERIMENTS.md).
//
// A fourth, memory-capped scenario exercises the out-of-core path at
// genome scale and records its peak RSS into BENCH_miner.json:
//   bench_scalability --sweep=outofcore --oc-genes=100000
// The dataset is written to disk in the binary matrix format, mined through
// an mmap-backed MappedMatrix, and the "scalability" section (gated by
// tools/bench_check.py --max-peak-rss) reports wall time, peak RSS and the
// mapped and model (bitmap index) bytes.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "bench_json.h"
#include "io/gnuplot.h"
#include "matrix/store.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace regcluster {
namespace bench {
namespace {

struct RunResult {
  double seconds = 0.0;
  int64_t clusters = 0;
  double recovery = 0.0;
};

RunResult RunOnce(int num_genes, int num_conditions, int num_clusters,
                  uint64_t seed) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = num_genes;
  cfg.num_conditions = num_conditions;
  cfg.num_clusters = num_clusters;
  cfg.seed = seed;
  auto ds = synth::GenerateSynthetic(cfg);
  if (!ds.ok()) {
    std::fprintf(stderr, "generator: %s\n", ds.status().ToString().c_str());
    std::exit(1);
  }

  core::MinerOptions opts;
  opts.min_genes = std::max(2, static_cast<int>(0.01 * num_genes));
  opts.min_conditions = 6;
  opts.gamma = 0.1;
  opts.epsilon = 0.01;
  core::RegClusterMiner miner(ds->data, opts);

  util::WallTimer timer;
  auto clusters = miner.Mine();
  RunResult r;
  r.seconds = timer.ElapsedSeconds();
  if (!clusters.ok()) {
    std::fprintf(stderr, "miner: %s\n", clusters.status().ToString().c_str());
    std::exit(1);
  }
  r.clusters = static_cast<int64_t>(clusters->size());
  r.recovery = eval::CellMatchScore(Footprints(*ds), Footprints(*clusters));
  return r;
}

void Sweep(const char* name, const std::vector<int>& values, double scale,
           int repeats, int which, const std::string& out_dir) {
  std::printf("\n# Figure 7(%c): runtime vs %s\n",
              static_cast<char>('a' + which), name);
  std::printf("%-12s %12s %10s %10s\n", name, "runtime_s", "clusters",
              "recovery");
  io::DataSeries runtime_series;
  runtime_series.name = "reg-cluster";
  for (int v : values) {
    double total = 0.0;
    RunResult last;
    for (int rep = 0; rep < repeats; ++rep) {
      const int g = static_cast<int>(
          scale * (which == 0 ? v : 3000));
      const int c = which == 1 ? v : 30;
      const int k = static_cast<int>(
          scale * (which == 2 ? v : 30));
      last = RunOnce(std::max(g, 50), c, std::max(k, 1),
                     1000 + static_cast<uint64_t>(v) * 7 +
                         static_cast<uint64_t>(rep));
      total += last.seconds;
    }
    std::printf("%-12d %12.4f %10lld %10.3f\n", v, total / repeats,
                static_cast<long long>(last.clusters), last.recovery);
    runtime_series.points.push_back({static_cast<double>(v), total / repeats});
  }
  if (!out_dir.empty()) {
    io::PlotSpec spec;
    spec.title = util::StrFormat("Figure 7(%c): runtime vs %s",
                                 static_cast<char>('a' + which), name);
    spec.xlabel = name;
    spec.ylabel = "seconds";
    const std::string stem = util::StrFormat("fig7%c",
                                             static_cast<char>('a' + which));
    auto st = io::WriteFigure(spec, {runtime_series}, out_dir, stem);
    if (!st.ok()) {
      std::fprintf(stderr, "figure emission: %s\n", st.ToString().c_str());
    } else {
      std::printf("(figure archived: %s/%s.dat + .gp)\n", out_dir.c_str(),
                  stem.c_str());
    }
  }
}

/// High-water resident set of this process, in bytes.
int64_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
}

int RunOutOfCore(int argc, char** argv) {
  const int genes = IntFlag(argc, argv, "oc-genes", 100000);
  const int conditions = IntFlag(argc, argv, "oc-conditions", 40);
  const int implants = IntFlag(argc, argv, "oc-clusters", 30);
  const int threads = IntFlag(argc, argv, "oc-threads", 1);
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "oc-seed", 2026));
  const std::string bench_json =
      FlagValue(argc, argv, "bench-json", "BENCH_miner.json");
  const std::string matrix_path = FlagValue(
      argc, argv, "oc-matrix", "/tmp/regcluster_bench_outofcore.rgx");

  std::printf("\n# out-of-core: %d x %d\n", genes, conditions);

  util::WallTimer total_timer;
  int64_t file_bytes = 0;
  {
    // Generate and spill inside a scope so the resident copy is freed
    // before mining; the high-water mark then reflects the mining path,
    // not the generator.
    synth::SyntheticConfig cfg;
    cfg.num_genes = genes;
    cfg.num_conditions = conditions;
    cfg.num_clusters = implants;
    cfg.seed = seed;
    auto ds = synth::GenerateSynthetic(cfg);
    if (!ds.ok()) {
      std::fprintf(stderr, "generator: %s\n", ds.status().ToString().c_str());
      return 1;
    }
    if (auto st = matrix::WriteBinaryMatrix(ds->data, matrix_path);
        !st.ok()) {
      std::fprintf(stderr, "spill: %s\n", st.ToString().c_str());
      return 1;
    }
    file_bytes = static_cast<int64_t>(ds->data.num_genes()) *
                     ds->data.num_conditions() *
                     static_cast<int64_t>(sizeof(double));
  }
  const double generate_seconds = total_timer.ElapsedSeconds();

  auto mapped = matrix::MappedMatrix::Open(matrix_path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "map: %s\n", mapped.status().ToString().c_str());
    return 1;
  }

  core::MinerOptions opts;
  opts.min_genes = std::max(2, static_cast<int>(0.01 * genes));
  opts.min_conditions = 6;
  opts.gamma = 0.1;
  opts.epsilon = 0.01;
  opts.num_threads = threads;

  util::WallTimer mine_timer;
  core::RegClusterMiner miner(*mapped, opts);
  auto clusters = miner.Mine();
  const double mine_seconds = mine_timer.ElapsedSeconds();
  if (!clusters.ok()) {
    std::fprintf(stderr, "miner: %s\n", clusters.status().ToString().c_str());
    return 1;
  }
  const auto& outcome = miner.outcome();
  const int64_t peak_rss = PeakRssBytes();

  std::printf("%-24s %12.3f s\n", "generate+spill", generate_seconds);
  std::printf("%-24s %12.3f s\n", "mine (mapped)", mine_seconds);
  std::printf("%-24s %12lld\n", "clusters",
              static_cast<long long>(clusters->size()));
  std::printf("%-24s %12.1f MiB\n", "peak RSS",
              static_cast<double>(peak_rss) / (1 << 20));
  std::printf("%-24s %12.1f MiB mapped, %.1f MiB model\n", "footprint",
              static_cast<double>(outcome.mapped_bytes) / (1 << 20),
              static_cast<double>(outcome.model_bytes) / (1 << 20));

  const std::string section = JsonObject({
      JsonField("dataset",
                JsonObject({JsonField("genes", JsonInt(genes)),
                            JsonField("conditions", JsonInt(conditions)),
                            JsonField("implanted_clusters", JsonInt(implants)),
                            JsonField("seed",
                                      JsonInt(static_cast<int64_t>(seed)))})),
      JsonField("threads", JsonInt(threads)),
      JsonField("matrix_file_bytes", JsonInt(file_bytes)),
      JsonField("generate_seconds", JsonDouble(generate_seconds)),
      JsonField("mine_wall_seconds", JsonDouble(mine_seconds)),
      JsonField("clusters", JsonInt(static_cast<int64_t>(clusters->size()))),
      JsonField("peak_rss_bytes", JsonInt(peak_rss)),
      JsonField("mapped_bytes", JsonInt(outcome.mapped_bytes)),
      JsonField("model_bytes", JsonInt(outcome.model_bytes)),
  });
  if (!UpsertBenchSection(bench_json, "scalability", section) ||
      !UpsertBenchSection(bench_json, "provenance", ProvenanceObject())) {
    std::fprintf(stderr, "cannot write %s\n", bench_json.c_str());
    return 1;
  }
  std::printf("(scalability section upserted into %s)\n", bench_json.c_str());
  std::remove(matrix_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const std::string sweep = FlagValue(argc, argv, "sweep", "all");
  const double scale = DoubleFlag(argc, argv, "scale", 1.0);
  const int repeats = IntFlag(argc, argv, "repeats", 2);
  const std::string out_dir = FlagValue(argc, argv, "out-dir", "");

  if (sweep == "outofcore") return RunOutOfCore(argc, argv);

  std::printf("== bench_scalability (Figure 7) ==\n");
  std::printf(
      "generator defaults scaled by %.2f; mining MinG=0.01*#g, MinC=6, "
      "gamma=0.1, epsilon=0.01\n",
      scale);

  if (sweep == "all" || sweep == "genes") {
    Sweep("genes", {1000, 2000, 3000, 4000, 5000}, scale, repeats, 0,
          out_dir);
  }
  if (sweep == "all" || sweep == "conditions") {
    Sweep("conditions", {10, 20, 30, 40, 50}, scale, repeats, 1, out_dir);
  }
  if (sweep == "all" || sweep == "clusters") {
    Sweep("clusters", {10, 20, 30, 40, 50}, scale, repeats, 2, out_dir);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace regcluster

int main(int argc, char** argv) {
  return regcluster::bench::Main(argc, argv);
}
