// Micro-benchmarks (google-benchmark) for the core primitives: RWave model
// construction, regulation lookups, coherence scoring and end-to-end mining
// at several dataset sizes.  These back the cost model claimed in DESIGN.md
// (model build O(C log C) per gene, lookups O(log P)).  Besides the console
// table, every timing is appended machine-readably to the "micro" section of
// BENCH_miner.json (override the path with --bench_out=...).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/bicluster.h"
#include "core/coherence.h"
#include "core/miner.h"
#include "core/rwave.h"
#include "matrix/matrix_io.h"
#include "matrix/transforms.h"
#include "synth/generator.h"
#include "util/bitset.h"
#include "util/math_util.h"
#include "util/prng.h"
#include "util/radix_sort.h"

namespace regcluster {
namespace {

std::vector<double> RandomProfile(int n, uint64_t seed) {
  util::Prng prng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = prng.Uniform(0, 10);
  return v;
}

void BM_RWaveBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> v = RandomProfile(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RWaveModel::Build(v.data(), n, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RWaveBuild)->Arg(17)->Arg(30)->Arg(100)->Arg(1000);

void BM_RWaveIsUpRegulated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> v = RandomProfile(n, 43);
  const core::RWaveModel w = core::RWaveModel::Build(v.data(), n, 1.0);
  util::Prng prng(7);
  int a = 0, b = 1;
  for (auto _ : state) {
    a = static_cast<int>(prng.UniformInt(0, n - 1));
    b = static_cast<int>(prng.UniformInt(0, n - 1));
    benchmark::DoNotOptimize(w.IsUpRegulated(a, b));
  }
}
BENCHMARK(BM_RWaveIsUpRegulated)->Arg(30)->Arg(1000);

void BM_RWaveSetBuild(benchmark::State& state) {
  const int genes = static_cast<int>(state.range(0));
  synth::SyntheticConfig cfg;
  cfg.num_genes = genes;
  cfg.num_conditions = 30;
  cfg.num_clusters = 0;
  auto ds = synth::GenerateSynthetic(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RWaveSet(ds->data, 0.1));
  }
  state.SetItemsProcessed(state.iterations() * genes);
}
BENCHMARK(BM_RWaveSetBuild)->Arg(500)->Arg(3000);

void BM_RWaveSetBuildParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  synth::SyntheticConfig cfg;
  cfg.num_genes = 3000;
  cfg.num_conditions = 30;
  cfg.num_clusters = 0;
  auto ds = synth::GenerateSynthetic(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RWaveSet(ds->data, 0.1, threads));
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_genes);
}
BENCHMARK(BM_RWaveSetBuildParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_MineSynthetic(benchmark::State& state) {
  const int genes = static_cast<int>(state.range(0));
  synth::SyntheticConfig cfg;
  cfg.num_genes = genes;
  cfg.num_conditions = 30;
  cfg.num_clusters = std::max(1, genes / 100);
  cfg.seed = 99;
  auto ds = synth::GenerateSynthetic(cfg);
  core::MinerOptions opts;
  opts.min_genes = std::max(2, static_cast<int>(0.01 * genes));
  opts.min_conditions = 6;
  opts.gamma = 0.1;
  opts.epsilon = 0.01;
  for (auto _ : state) {
    core::RegClusterMiner miner(ds->data, opts);
    auto clusters = miner.Mine();
    benchmark::DoNotOptimize(clusters);
  }
}
BENCHMARK(BM_MineSynthetic)->Arg(500)->Arg(1500)->Arg(3000)
    ->Unit(benchmark::kMillisecond);

void BM_CoherenceWindowExtension(benchmark::State& state) {
  // The dominant inner operation: extending a chain over many genes.
  synth::SyntheticConfig cfg;
  cfg.num_genes = 2000;
  cfg.num_conditions = 20;
  cfg.num_clusters = 5;
  auto ds = synth::GenerateSynthetic(cfg);
  core::MinerOptions opts;
  opts.min_genes = 20;
  opts.min_conditions = 5;
  opts.gamma = 0.1;
  opts.epsilon = 0.05;
  for (auto _ : state) {
    core::RegClusterMiner miner(ds->data, opts);
    benchmark::DoNotOptimize(miner.Mine());
  }
}
BENCHMARK(BM_CoherenceWindowExtension)->Unit(benchmark::kMillisecond);

/// One scored column shaped like the miner's: two gene-ascending halves
/// (surviving members then re-tested drops) and scores that are a mix of a
/// tight cluster near 1.0 (the coherent mass radix sort must split on low
/// mantissa bytes) and a smooth spread.
struct ScoredColumn {
  std::vector<double> h;
  std::vector<int> gene;
  int split;
};

ScoredColumn MakeScoredColumn(int n, util::Prng* prng) {
  ScoredColumn col;
  col.split = n / 2;
  col.h.resize(static_cast<size_t>(n));
  col.gene.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    col.h[static_cast<size_t>(i)] = prng->Bernoulli(0.5)
                                        ? 1.0 + prng->Uniform(0.0, 1e-3)
                                        : prng->Uniform(0.0, 1.0);
    // Evens ascending, then odds ascending: both halves sorted by gene, as
    // RadixSortScored's merge precondition requires.
    col.gene[static_cast<size_t>(i)] =
        i < col.split ? 2 * i : 2 * (i - col.split) + 1;
  }
  return col;
}

void BM_RadixSortPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kPool = 64;  // rotate columns so none stays cache-resident
  util::Prng prng(2026);
  std::vector<ScoredColumn> pool;
  pool.reserve(kPool);
  for (int p = 0; p < kPool; ++p) pool.push_back(MakeScoredColumn(n, &prng));
  std::vector<int> order(static_cast<size_t>(n));
  std::vector<double> sorted_h(static_cast<size_t>(n));
  util::SortScratch scratch;
  size_t p = 0;
  for (auto _ : state) {
    const ScoredColumn& col = pool[p];
    util::RadixSortScored(col.h.data(), col.gene.data(), col.split, n,
                          order.data(), sorted_h.data(), &scratch);
    benchmark::DoNotOptimize(order.data());
    benchmark::ClobberMemory();
    p = (p + 1) % kPool;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// 80 sits in the miner's typical per-node range (n in [48, 96] on the
// reference dataset); 320 is the hybrid/full-LSD boundary; 2000 is the
// root-level sort of a large dataset.
BENCHMARK(BM_RadixSortPhase)->Arg(80)->Arg(320)->Arg(2000);

// The coherence pre-screen the miner runs before that sort, over the same
// deterministic columns at epsilon = 0.01.  Half of each column sits within
// 1e-3 of 1.0, so MinG = 50 leaves every column a window (the screen's
// pass-through cost) and MinG = 90 leaves almost none (its reject cost);
// `reject_frac` is the share of columns the screen rejected.
void BM_CoherencePrescreen(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int min_g = static_cast<int>(state.range(1));
  constexpr int kPool = 64;
  util::Prng prng(2026);
  std::vector<ScoredColumn> pool;
  pool.reserve(kPool);
  for (int p = 0; p < kPool; ++p) pool.push_back(MakeScoredColumn(n, &prng));
  std::vector<int> counts;
  int64_t rejected = 0;
  size_t p = 0;
  for (auto _ : state) {
    const bool possible = core::CoherenceWindowPossible(
        pool[p].h.data(), n, /*eps=*/0.01, min_g, &counts);
    benchmark::DoNotOptimize(possible);
    rejected += possible ? 0 : 1;
    p = (p + 1) % kPool;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["reject_frac"] = benchmark::Counter(
      static_cast<double>(rejected) /
      static_cast<double>(std::max<int64_t>(1, state.iterations())));
}
BENCHMARK(BM_CoherencePrescreen)->Args({150, 50})->Args({150, 90});

void BM_ScorePanelFill(benchmark::State& state) {
  // The miner's member-major score-panel fill: every member's live
  // candidate bits, over its contiguous matrix row, into per-candidate
  // columns of (score, member index) -- the one pass that produces every
  // coherence score of a block.  Half the bits live, as a dense node has.
  const int members = static_cast<int>(state.range(0));
  constexpr int kConds = 60;
  const int words = util::WordsForBits(kConds);
  const int genes = 2 * members + 8;
  util::Prng prng(4242);
  std::vector<double> matrix(static_cast<size_t>(genes) * kConds);
  for (double& x : matrix) x = prng.Uniform(0.0, 10.0);
  std::vector<int> gene(static_cast<size_t>(members));
  std::vector<double> denom(static_cast<size_t>(members));
  std::vector<uint64_t> live(static_cast<size_t>(members) * words, 0);
  std::vector<int> count(kConds, 0);
  for (int i = 0; i < members; ++i) {
    gene[static_cast<size_t>(i)] = 2 * i;  // sparse member subset
    denom[static_cast<size_t>(i)] = prng.Uniform(0.5, 2.0);
    for (int c = 1; c < kConds; ++c) {
      if (prng.Uniform(0.0, 1.0) < 0.5) {
        util::SetBit(live.data() + static_cast<size_t>(i) * words, c);
        ++count[static_cast<size_t>(c)];
      }
    }
  }
  std::vector<uint64_t> mask(static_cast<size_t>(words), ~uint64_t{0});
  std::vector<int> start(kConds, 0);
  int entries = 0;
  for (int c = 0; c < kConds; ++c) {
    start[static_cast<size_t>(c)] = entries;
    entries += count[static_cast<size_t>(c)];
  }
  std::vector<int> cursor(kConds);
  std::vector<double> h(static_cast<size_t>(entries));
  std::vector<int32_t> idx(static_cast<size_t>(entries));
  const core::PanelMembers half{gene.data(), denom.data(), live.data(),
                                members, words};
  for (auto _ : state) {
    cursor = start;
    core::FillScorePanel(half, matrix.data(), kConds, /*head=*/0, mask.data(),
                         0, words, cursor.data(), h.data(), idx.data());
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
// 80 ~ the average member count of a deep node on the reference dataset;
// 512 stresses the streaming regime.
BENCHMARK(BM_ScorePanelFill)->Arg(80)->Arg(512);

void BM_ReadMatrixText(benchmark::State& state) {
  // The text reader end to end on an in-memory 5000 x 60 TSV in the
  // benchmark's own number format (%.10g, background uniform in [0, 10]).
  const int genes = 5000;
  const int conds = 60;
  util::Prng prng(17);
  matrix::ExpressionMatrix m(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) m(g, c) = prng.Uniform(0.0, 10.0);
  }
  std::ostringstream text;
  (void)matrix::WriteMatrix(m, text);
  const std::string tsv = text.str();
  for (auto _ : state) {
    auto parsed = matrix::ReadMatrixFromString(tsv);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(parsed->row_data(0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(tsv.size()));
}
BENCHMARK(BM_ReadMatrixText)->Unit(benchmark::kMillisecond);

void BM_CoherenceScore(benchmark::State& state) {
  const std::vector<double> row = RandomProfile(64, 77);
  util::Prng prng(3);
  for (auto _ : state) {
    const int a = static_cast<int>(prng.UniformInt(0, 31));
    const int b = 32 + static_cast<int>(prng.UniformInt(0, 31));
    benchmark::DoNotOptimize(core::CoherenceScore(row.data(), a, b, b, a));
  }
}
BENCHMARK(BM_CoherenceScore);

void BM_HypergeomUpperTail(benchmark::State& state) {
  // Genome-scale enrichment query: k of 21 drawn, 60 of 6000 annotated.
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::HypergeomUpperTail(15, 6000, 60, 21));
  }
}
BENCHMARK(BM_HypergeomUpperTail);

void BM_ImputeKnn(benchmark::State& state) {
  const int genes = static_cast<int>(state.range(0));
  util::Prng prng(8);
  matrix::ExpressionMatrix m(genes, 17);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < 17; ++c) {
      m(g, c) = prng.Bernoulli(0.03)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : prng.Uniform(0, 10);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix::ImputeKnn(m, 10));
  }
}
BENCHMARK(BM_ImputeKnn)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_ValidateRegCluster(benchmark::State& state) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 500;
  cfg.num_conditions = 20;
  cfg.num_clusters = 1;
  cfg.avg_cluster_genes_fraction = 0.06;
  auto ds = synth::GenerateSynthetic(cfg);
  const core::RegCluster cluster = ds->implants[0].ToRegCluster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ValidateRegCluster(ds->data, cluster, 0.1, 0.01));
  }
}
BENCHMARK(BM_ValidateRegCluster);

// The maximal-only post-pass on a time-course-shaped set: 200 clusters of
// about 1,000 of 1,500 genes over 30 conditions.  Most are fresh; the
// rest copy, reverse or shrink (a contiguous sub-chain and about 98% of the
// members) an earlier cluster, so duplicates and dominated pairs both occur.
void BM_RemoveDominated(benchmark::State& state) {
  util::Prng rng(15);
  const auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng.UniformInt(lo, hi));
  };
  std::vector<core::RegCluster> clusters;
  for (int k = 0; k < 200; ++k) {
    core::RegCluster c;
    if (k < 10 || rng.Bernoulli(0.7)) {
      c.chain = rng.SampleWithoutReplacement(30, pick(6, 12));
      rng.Shuffle(&c.chain);
      for (int g : rng.SampleWithoutReplacement(1500, pick(900, 1100))) {
        (rng.Bernoulli(0.7) ? c.p_genes : c.n_genes).push_back(g);
      }
    } else {
      c = clusters[static_cast<size_t>(pick(0, k - 1))];
      const int kind = pick(0, 2);
      if (kind == 1) std::reverse(c.chain.begin(), c.chain.end());
      if (kind == 2) {
        const int first = pick(0, c.num_conditions() - 1);
        const int last = pick(first, c.num_conditions() - 1);
        c.chain = std::vector<int>(c.chain.begin() + first,
                                   c.chain.begin() + last + 1);
        std::erase_if(c.p_genes, [&rng](int) { return rng.Bernoulli(0.02); });
        std::erase_if(c.n_genes, [&rng](int) { return rng.Bernoulli(0.02); });
      }
    }
    clusters.push_back(std::move(c));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RemoveDominated(clusters));
  }
  state.counters["clusters_out"] =
      static_cast<double>(core::RemoveDominated(clusters).size());
}
BENCHMARK(BM_RemoveDominated)->Unit(benchmark::kMicrosecond);

// Console output as usual, plus a machine-readable record of every
// completed run (name, per-iteration real/cpu time in the run's time unit).
class JsonSectionReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::vector<std::string> fields = {
          bench::JsonField("name", bench::JsonString(run.benchmark_name())),
          bench::JsonField("real_time", bench::JsonDouble(
                               run.GetAdjustedRealTime())),
          bench::JsonField("cpu_time", bench::JsonDouble(
                               run.GetAdjustedCPUTime())),
          bench::JsonField("time_unit", bench::JsonString(
                               benchmark::GetTimeUnitString(run.time_unit))),
          bench::JsonField("iterations",
                           bench::JsonInt(static_cast<int64_t>(
                               run.iterations))),
      };
      // Throughput rows (SetBytesProcessed) also record their rate.
      const auto rate = run.counters.find("bytes_per_second");
      if (rate != run.counters.end()) {
        fields.push_back(bench::JsonField(
            "mb_per_s", bench::JsonDouble(rate->second / 1e6)));
      }
      rows_.push_back(bench::JsonObject(fields));
    }
  }

  const std::vector<std::string>& rows() const { return rows_; }

 private:
  std::vector<std::string> rows_;
};

}  // namespace
}  // namespace regcluster

int main(int argc, char** argv) {
  const std::string out_path = regcluster::bench::FlagValue(
      argc, argv, "bench_out", "BENCH_miner.json");
  benchmark::Initialize(&argc, argv);
  regcluster::JsonSectionReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  using regcluster::bench::JsonArray;
  using regcluster::bench::JsonField;
  using regcluster::bench::JsonObject;
  const std::string section =
      JsonObject({JsonField("benchmarks", JsonArray(reporter.rows()))});
  if (!regcluster::bench::UpsertBenchSection(out_path, "micro", section)) {
    std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
  } else {
    std::printf("wrote section \"micro\" of %s\n", out_path.c_str());
  }
  if (!regcluster::bench::UpsertBenchSection(
          out_path, "provenance", regcluster::bench::ProvenanceObject())) {
    std::fprintf(stderr, "WARNING: could not write provenance to %s\n",
                 out_path.c_str());
  }
  return 0;
}
