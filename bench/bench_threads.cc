// Ablation: work-stealing parallel search scaling (an extension beyond the
// paper, which was single-threaded 2006 code).  Every level-1 condition and
// every level-2 subtree is an independently schedulable task on a
// util::TaskPool, merged in canonical order; this harness reports wall-clock
// speedup, verifies the output is identical at every thread count, and dumps
// the rows machine-readably into the "threads" section of BENCH_miner.json
// (see --out).  A final serial run with phase profiling on records the DFS
// hot-path breakdown (filter/score/sort/emit) in the same section.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/sweep.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "matrix/expression_matrix.h"
#include "matrix/matrix_io.h"
#include "util/timer.h"

namespace regcluster {
namespace bench {
namespace {

/// The thread counts to sweep.  When the hardware thread count is known,
/// powers of two up to the smallest power of two >= that count (always
/// including 2, so the identical-output claim is exercised even on one
/// core).  When detection failed we have no better information than a
/// blind default -- and the JSON says so instead of inventing a count.
std::vector<int> SweepThreadCounts(unsigned hw, bool detect_failed) {
  if (detect_failed) return {1, 2, 4, 8};
  std::vector<int> sweep;
  int t = 1;
  while (true) {
    sweep.push_back(t);
    if (t >= static_cast<int>(hw) && t >= 2) break;
    t *= 2;
  }
  return sweep;
}

int Main(int argc, char** argv) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = IntFlag(argc, argv, "genes", 3000);
  cfg.num_conditions = IntFlag(argc, argv, "conditions", 40);
  cfg.num_clusters = IntFlag(argc, argv, "clusters", 30);
  cfg.seed = 2024;
  const std::string out_path =
      FlagValue(argc, argv, "out", "BENCH_miner.json");
  auto ds = synth::GenerateSynthetic(cfg);
  if (!ds.ok()) {
    std::fprintf(stderr, "generator: %s\n", ds.status().ToString().c_str());
    return 1;
  }

  core::MinerOptions base;
  base.min_genes = std::max(2, static_cast<int>(0.01 * cfg.num_genes));
  base.min_conditions = 6;
  base.gamma = 0.1;
  base.epsilon = 0.01;

  // hardware_concurrency() returns 0 when the count is "not computable"
  // (the standard's wording) -- record that honestly rather than folding it
  // into a plausible-looking number.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool hw_detect_failed = hw == 0;
  // Degraded hardware: thread-scaling speedups measured on an unknown or
  // single-core host say nothing about the engine, so the JSON carries a
  // flag that makes tools/bench_check.py skip its speedup gates (the
  // identical-output check is unaffected and still enforced below).
  const bool degraded_hw = hw_detect_failed || hw <= 1;
  const std::vector<int> sweep = SweepThreadCounts(hw, hw_detect_failed);

  std::printf("== bench_threads (work-stealing parallel search) ==\n");
  std::printf("dataset %dx%d, MinG=%d MinC=%d gamma=%.2f epsilon=%.2f\n",
              cfg.num_genes, cfg.num_conditions, base.min_genes,
              base.min_conditions, base.gamma, base.epsilon);
  if (hw_detect_failed) {
    std::printf(
        "hardware thread count NOT detectable on this platform; sweeping a "
        "blind default {1,2,4,8} (speedup numbers are not interpretable, "
        "the identical-output check still is)\n\n");
  } else {
    std::printf(
        "hardware threads available: %u (speedup is bounded by this; the "
        "correctness claim -- identical output at every thread count -- is "
        "checked regardless)\n",
        hw);
    if (degraded_hw) {
      std::printf(
          "WARNING: only one hardware thread -- speedup numbers below are "
          "contention noise, not scaling; recording degraded_hw=true so "
          "bench_check skips its speedup gates\n");
    }
    std::printf("\n");
  }
  std::printf("%8s %12s %10s %12s %10s %10s\n", "threads", "runtime_s",
              "speedup", "nodes_per_s", "clusters", "identical");

  double serial_time = 0.0;
  std::string reference_key;
  bool ok = true;
  core::MinerStats serial_stats;
  std::vector<std::string> rows;
  for (int threads : sweep) {
    core::MinerOptions o = base;
    o.num_threads = threads;
    core::RegClusterMiner miner(ds->data, o);
    util::WallTimer timer;
    auto clusters = miner.Mine();
    const double secs = timer.ElapsedSeconds();
    if (!clusters.ok()) {
      std::fprintf(stderr, "miner: %s\n",
                   clusters.status().ToString().c_str());
      return 1;
    }
    std::string key;
    for (const auto& c : *clusters) key += c.Key() + ";";
    if (threads == 1) {
      serial_time = secs;
      reference_key = key;
      serial_stats = miner.stats();
    }
    const bool identical = key == reference_key;
    ok = ok && identical;
    const core::MinerStats& st = miner.stats();
    const double nodes_per_sec =
        st.mine_seconds > 0
            ? static_cast<double>(st.nodes_expanded) / st.mine_seconds
            : 0.0;
    std::printf("%8d %12.4f %9.2fx %12.0f %10zu %10s\n", threads, secs,
                serial_time / secs, nodes_per_sec, clusters->size(),
                identical ? "yes" : "NO!");
    rows.push_back(JsonObject({
        JsonField("threads", JsonInt(threads)),
        JsonField("wall_seconds", JsonDouble(secs)),
        JsonField("mine_seconds", JsonDouble(st.mine_seconds)),
        JsonField("speedup", JsonDouble(serial_time / secs)),
        JsonField("nodes_expanded", JsonInt(st.nodes_expanded)),
        JsonField("nodes_per_sec", JsonDouble(nodes_per_sec)),
        JsonField("clusters", JsonInt(static_cast<int64_t>(clusters->size()))),
        JsonField("identical_to_serial", JsonBool(identical)),
    }));
  }

  // One serial run with phase profiling on: where does the DFS hot path
  // spend its time?  (profile_phases never changes the mined output; it is
  // kept out of the sweep so the timed rows carry no clock-read overhead.)
  core::MinerOptions prof = base;
  prof.num_threads = 1;
  prof.profile_phases = true;
  core::RegClusterMiner prof_miner(ds->data, prof);
  auto prof_out = prof_miner.Mine();
  if (!prof_out.ok()) {
    std::fprintf(stderr, "miner: %s\n", prof_out.status().ToString().c_str());
    return 1;
  }
  const core::MinerStats& ps = prof_miner.stats();
  std::printf(
      "\nserial phase breakdown: filter %.1f ms, score %.1f ms, sort %.1f "
      "ms, emit %.1f ms (mine %.1f ms; index build %.1f ms)\n",
      ps.filter_ns / 1e6, ps.score_ns / 1e6, ps.sort_ns / 1e6,
      ps.emit_ns / 1e6, ps.mine_seconds * 1e3,
      ps.index_build_seconds * 1e3);

  std::vector<std::string> fields = {
      JsonField("dataset", JsonObject({
                    JsonField("genes", JsonInt(cfg.num_genes)),
                    JsonField("conditions", JsonInt(cfg.num_conditions)),
                    JsonField("implanted_clusters", JsonInt(cfg.num_clusters)),
                    JsonField("seed", JsonInt(static_cast<int64_t>(cfg.seed))),
                })),
      JsonField("options", JsonObject({
                    JsonField("min_genes", JsonInt(base.min_genes)),
                    JsonField("min_conditions", JsonInt(base.min_conditions)),
                    JsonField("gamma", JsonDouble(base.gamma)),
                    JsonField("epsilon", JsonDouble(base.epsilon)),
                })),
      JsonField("hw_detect_failed", JsonBool(hw_detect_failed)),
      JsonField("degraded_hw", JsonBool(degraded_hw)),
  };
  if (!hw_detect_failed) {
    fields.push_back(
        JsonField("hardware_threads", JsonInt(static_cast<int64_t>(hw))));
  }
  fields.push_back(
      JsonField("identical_at_all_thread_counts", JsonBool(ok)));
  fields.push_back(JsonField("runs", JsonArray(rows)));
  fields.push_back(JsonField(
      "serial_phase_ns",
      JsonObject({
          JsonField("filter_ns", JsonInt(ps.filter_ns)),
          JsonField("score_ns", JsonInt(ps.score_ns)),
          JsonField("sort_ns", JsonInt(ps.sort_ns)),
          JsonField("emit_ns", JsonInt(ps.emit_ns)),
          JsonField("mine_seconds", JsonDouble(ps.mine_seconds)),
          JsonField("index_build_seconds",
                    JsonDouble(ps.index_build_seconds)),
      })));
  const std::string section = JsonObject(fields);
  if (!UpsertBenchSection(out_path, "threads", section)) {
    std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
  } else {
    std::printf("wrote section \"threads\" of %s\n", out_path.c_str());
  }

  // Deterministic work counters of the serial run.  These are a pure
  // function of data + options, so tools/bench_check.py compares them
  // *exactly* against the committed baseline: an unintended change to the
  // search (a pruning regression, an index bug) shows up as a work-count
  // diff even when wall time happens to look fine.
  std::vector<std::string> stats_fields = {
      JsonField("dataset",
                JsonObject({
                    JsonField("genes", JsonInt(cfg.num_genes)),
                    JsonField("conditions", JsonInt(cfg.num_conditions)),
                    JsonField("implanted_clusters", JsonInt(cfg.num_clusters)),
                    JsonField("seed", JsonInt(static_cast<int64_t>(cfg.seed))),
                })),
      JsonField("options",
                JsonObject({
                    JsonField("min_genes", JsonInt(base.min_genes)),
                    JsonField("min_conditions", JsonInt(base.min_conditions)),
                    JsonField("gamma", JsonDouble(base.gamma)),
                    JsonField("epsilon", JsonDouble(base.epsilon)),
                })),
  };
  for (const core::MinerStatsField& f : core::kMinerStatsFields) {
    if (f.cls == core::StatsFieldClass::kWork) {
      stats_fields.push_back(JsonField(f.name, JsonInt(serial_stats.*f.count)));
    }
  }
  const std::string stats_section = JsonObject(stats_fields);
  if (!UpsertBenchSection(out_path, "stats", stats_section)) {
    std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
  } else {
    std::printf("wrote section \"stats\" of %s\n", out_path.c_str());
  }

  // Batch-sweep sharing: a 4-point equal-gamma grid run through
  // core::SweepEngine (one TSV load, one shared model, four mines) against
  // the same four mines done the way four CLI invocations would do them
  // (each loads the TSV and builds its own model).  The grid uses a MinG
  // strict enough that the mines themselves are cheap, so the measured
  // speedup isolates what the engine actually shares; on a single core
  // there is no parallelism to hide behind.  Gated (>= 1.5x) by
  // tools/bench_check.py --min-sweep-speedup.
  {
    const std::string tsv_path =
        FlagValue(argc, argv, "sweep-tsv", "bench_sweep_scratch.tsv");
    if (auto s = matrix::SaveMatrix(ds->data, tsv_path); !s.ok()) {
      std::fprintf(stderr, "save matrix: %s\n", s.ToString().c_str());
      return 1;
    }
    core::MinerOptions sweep_base = base;
    sweep_base.num_threads = 1;
    sweep_base.min_genes = std::max(2, static_cast<int>(0.04 * cfg.num_genes));
    const std::vector<int> minc_grid = {8, 9, 10, 11};
    std::vector<core::MinerOptions> points;
    for (int minc : minc_grid) {
      core::MinerOptions p = sweep_base;
      p.min_conditions = minc;
      points.push_back(p);
    }
    auto cluster_key = [](const std::vector<core::RegCluster>& clusters) {
      std::string key;
      for (const auto& c : clusters) key += c.Key() + ";";
      return key;
    };

    util::WallTimer independent_timer;
    std::vector<std::string> independent_keys;
    for (const core::MinerOptions& p : points) {
      auto loaded = matrix::LoadMatrix(tsv_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load matrix: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      core::RegClusterMiner m(*loaded, p);
      auto clusters = m.Mine();
      if (!clusters.ok()) {
        std::fprintf(stderr, "miner: %s\n",
                     clusters.status().ToString().c_str());
        return 1;
      }
      independent_keys.push_back(cluster_key(*clusters));
    }
    const double independent_secs = independent_timer.ElapsedSeconds();

    util::WallTimer engine_timer;
    auto loaded = matrix::LoadMatrix(tsv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load matrix: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    core::SweepOptions sweep_opts;
    sweep_opts.num_threads = 1;
    auto report = core::SweepEngine(*loaded, sweep_opts).Run(points);
    const double engine_secs = engine_timer.ElapsedSeconds();
    std::remove(tsv_path.c_str());
    if (!report.ok()) {
      std::fprintf(stderr, "sweep: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    bool sweep_identical = report->runs_executed ==
                           static_cast<int>(points.size());
    for (size_t i = 0; i < points.size() && sweep_identical; ++i) {
      sweep_identical = cluster_key(report->runs[i].clusters) ==
                        independent_keys[i];
    }
    const double sweep_speedup =
        engine_secs > 0 ? independent_secs / engine_secs : 0.0;
    std::printf(
        "\nsweep sharing (%zu-point equal-gamma grid, MinG=%d, serial): "
        "independent %.4f s, engine %.4f s -> %.2fx, %d shared index "
        "build(s), identical %s\n",
        points.size(), sweep_base.min_genes, independent_secs, engine_secs,
        sweep_speedup, report->index_builds,
        sweep_identical ? "yes" : "NO!");
    std::vector<std::string> minc_json;
    for (int minc : minc_grid) minc_json.push_back(JsonInt(minc));
    const std::string sweep_section = JsonObject({
        JsonField("dataset",
                  JsonObject({
                      JsonField("genes", JsonInt(cfg.num_genes)),
                      JsonField("conditions", JsonInt(cfg.num_conditions)),
                      JsonField("implanted_clusters",
                                JsonInt(cfg.num_clusters)),
                      JsonField("seed",
                                JsonInt(static_cast<int64_t>(cfg.seed))),
                  })),
        JsonField("options",
                  JsonObject({
                      JsonField("min_genes", JsonInt(sweep_base.min_genes)),
                      JsonField("min_conditions_grid", JsonArray(minc_json)),
                      JsonField("gamma", JsonDouble(sweep_base.gamma)),
                      JsonField("epsilon", JsonDouble(sweep_base.epsilon)),
                  })),
        JsonField("points", JsonInt(static_cast<int64_t>(points.size()))),
        JsonField("independent_seconds", JsonDouble(independent_secs)),
        JsonField("engine_seconds", JsonDouble(engine_secs)),
        JsonField("speedup", JsonDouble(sweep_speedup)),
        JsonField("index_builds", JsonInt(report->index_builds)),
        JsonField("identical_to_independent", JsonBool(sweep_identical)),
    });
    if (!UpsertBenchSection(out_path, "sweep", sweep_section)) {
      std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
    } else {
      std::printf("wrote section \"sweep\" of %s\n", out_path.c_str());
    }
    if (!sweep_identical) {
      std::fprintf(stderr,
                   "FAILED: sweep engine output differs from independent "
                   "mines\n");
      return 1;
    }
  }

  // Incremental time-course append: one new condition arrives at the
  // steady-state expression level, and MineIncremental (gamma-model build
  // at the new width + dirty roots only, clean roots spliced from the
  // recorded state) races a from-scratch Mine() of the grown matrix it must
  // reproduce byte-for-byte.  The matrix is a pure shift pattern over flat levels --
  // 10 apart under an absolute gamma of 4, so same-level conditions are
  // unregulated -- with most conditions at level 0 and a handful of
  // singleton upper levels.  Appending a level-0 condition keeps every
  // level-0 root clean (the new value is within gamma of theirs in every
  // gene), so only the upper-level roots and the appended root re-mine.
  // The level design also bounds the search: on a shift pattern no gene is
  // ever dropped, and with dense distinct values the chain enumeration is
  // exponential in the condition count.  Gated (>= 1.5x) by
  // tools/bench_check.py --min-incremental-speedup; byte-identity is
  // enforced here.
  {
    const int inc_base_conds = cfg.num_conditions - 6;  // level-0 block
    auto inc_level = [&](int c) {
      return c < inc_base_conds ? 0 : c - inc_base_conds + 1;
    };
    matrix::ExpressionMatrix inc_prefix(cfg.num_genes, cfg.num_conditions);
    for (int g = 0; g < cfg.num_genes; ++g) {
      for (int c = 0; c < cfg.num_conditions; ++c) {
        inc_prefix(g, c) = 10.0 * inc_level(c) + 1000.0 * g;
      }
    }
    core::MinerOptions inc_opts;
    inc_opts.num_threads = 1;
    inc_opts.min_genes = base.min_genes;
    inc_opts.min_conditions = 6;
    inc_opts.gamma = 4.0;
    inc_opts.gamma_policy = core::GammaPolicy::kAbsolute;
    inc_opts.epsilon = 0.5;

    util::WallTimer seed_timer;
    auto seeded = io::MineInitial(inc_prefix, inc_opts);
    const double seed_secs = seed_timer.ElapsedSeconds();
    if (!seeded.ok()) {
      std::fprintf(stderr, "incremental seed: %s\n",
                   seeded.status().ToString().c_str());
      return 1;
    }

    matrix::ExpressionMatrix inc_grown = inc_prefix;
    std::vector<double> new_col(static_cast<size_t>(cfg.num_genes));
    for (int g = 0; g < cfg.num_genes; ++g) {
      new_col[static_cast<size_t>(g)] = 1000.0 * g;  // level 0
    }
    if (auto s = inc_grown.AppendConditions({"t_new"}, {new_col}); !s.ok()) {
      std::fprintf(stderr, "incremental append: %s\n", s.ToString().c_str());
      return 1;
    }

    // Interleaved best-of-5 per side: both legs are millisecond-scale, so
    // one noisy run must not invent (or erase) the speedup.
    constexpr int kIncReps = 5;
    double inc_secs = 1e300, scratch_secs = 1e300;
    std::vector<core::RegCluster> inc_clusters, scratch_clusters;
    core::MinerStats inc_stats, scratch_stats;
    int roots_remined = 0, roots_spliced = 0;
    bool inc_failed = false;
    auto run_incremental = [&]() {
      util::WallTimer timer;
      auto r = io::MineIncremental(inc_grown, cfg.num_conditions, inc_opts,
                                   seeded->state);
      const double secs = timer.ElapsedSeconds();
      if (!r.ok()) {
        std::fprintf(stderr, "incremental mine: %s\n",
                     r.status().ToString().c_str());
        inc_failed = true;
        return;
      }
      if (secs < inc_secs) {
        inc_secs = secs;
        inc_clusters = std::move(r->clusters);
        inc_stats = r->stats;
        roots_remined = r->roots_remined;
        roots_spliced = r->roots_spliced;
      }
    };
    auto run_scratch = [&]() {
      core::RegClusterMiner m(inc_grown, inc_opts);
      util::WallTimer timer;
      auto clusters = m.Mine();
      const double secs = timer.ElapsedSeconds();
      if (!clusters.ok()) {
        std::fprintf(stderr, "from-scratch mine: %s\n",
                     clusters.status().ToString().c_str());
        inc_failed = true;
        return;
      }
      if (secs < scratch_secs) {
        scratch_secs = secs;
        scratch_clusters = *std::move(clusters);
        scratch_stats = m.stats();
      }
    };
    for (int rep = 0; rep < kIncReps && !inc_failed; ++rep) {
      if ((rep % 2) == 0) {
        run_incremental();
        if (!inc_failed) run_scratch();
      } else {
        run_scratch();
        if (!inc_failed) run_incremental();
      }
    }
    if (inc_failed) return 1;

    auto cluster_key = [](const std::vector<core::RegCluster>& clusters) {
      std::string key;
      for (const auto& c : clusters) key += c.Key() + ";";
      return key;
    };
    // Every deterministic counter must match: the work counters and the
    // one-model-build count.
    bool inc_identical =
        cluster_key(inc_clusters) == cluster_key(scratch_clusters);
    for (const core::MinerStatsField& f : core::kMinerStatsFields) {
      if (f.cls == core::StatsFieldClass::kWork ||
          f.cls == core::StatsFieldClass::kBuild) {
        inc_identical = inc_identical && inc_stats.*f.count ==
                                             scratch_stats.*f.count;
      }
    }
    const double inc_speedup = inc_secs > 0 ? scratch_secs / inc_secs : 0.0;
    std::printf(
        "\nincremental append (1 steady-state condition onto %dx%d, serial): "
        "from-scratch %.4f s, incremental %.4f s -> %.2fx, %d roots re-mined "
        "/ %d spliced, identical %s\n",
        cfg.num_genes, cfg.num_conditions, scratch_secs, inc_secs,
        inc_speedup, roots_remined, roots_spliced,
        inc_identical ? "yes" : "NO!");
    const std::string inc_section = JsonObject({
        JsonField("dataset",
                  JsonObject({
                      JsonField("genes", JsonInt(cfg.num_genes)),
                      JsonField("conditions_before", JsonInt(cfg.num_conditions)),
                      JsonField("conditions_appended", JsonInt(1)),
                      JsonField("level0_conditions", JsonInt(inc_base_conds)),
                  })),
        JsonField("options",
                  JsonObject({
                      JsonField("min_genes", JsonInt(inc_opts.min_genes)),
                      JsonField("min_conditions",
                                JsonInt(inc_opts.min_conditions)),
                      JsonField("gamma", JsonDouble(inc_opts.gamma)),
                      JsonField("gamma_policy", JsonString("absolute")),
                      JsonField("epsilon", JsonDouble(inc_opts.epsilon)),
                  })),
        JsonField("seed_seconds", JsonDouble(seed_secs)),
        JsonField("from_scratch_seconds", JsonDouble(scratch_secs)),
        JsonField("incremental_seconds", JsonDouble(inc_secs)),
        JsonField("speedup", JsonDouble(inc_speedup)),
        JsonField("roots_remined", JsonInt(roots_remined)),
        JsonField("roots_spliced", JsonInt(roots_spliced)),
        JsonField("best_of", JsonInt(kIncReps)),
        JsonField("identical_to_scratch", JsonBool(inc_identical)),
    });
    if (!UpsertBenchSection(out_path, "incremental", inc_section)) {
      std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
    } else {
      std::printf("wrote section \"incremental\" of %s\n", out_path.c_str());
    }
    if (!inc_identical) {
      std::fprintf(stderr,
                   "FAILED: incremental append output differs from the "
                   "from-scratch mine\n");
      return 1;
    }
  }

  // Overhead measurements: each compares an "off" and an "on" variant as
  // interleaved pairs (best-of-8 per side).  Alternating which variant runs
  // first means cache/frequency carry-over between neighbours biases
  // neither side, and shifting the heap frontier by an odd amount each rep
  // stops malloc from handing every rep the same addresses (whichever
  // variant lucked into better-aligned buffers would keep that -- easily
  // 10% -- edge for the whole process).  Taking the min across shifted
  // layouts converges both variants to their best case.
  // --skip-overhead skips the measurements (16 extra serial mines each) so
  // quick reruns can refresh the deterministic sections alone; the gates in
  // tools/bench_check.py then fall back to the committed baseline.
  const bool skip_overhead = BoolFlag(argc, argv, "skip-overhead");
  auto timed_mine = [&ds](const core::MinerOptions& o) {
    core::RegClusterMiner m(ds->data, o);
    util::WallTimer timer;
    if (!m.Mine().ok()) return -1.0;
    return timer.ElapsedSeconds();
  };
  constexpr int kOverheadReps = 8;
  struct OverheadResult {
    double off_seconds = 1e300;
    double on_seconds = 1e300;
    double fraction = 0.0;
    bool ok = true;
  };
  auto measure_overhead = [&](const char* label,
                              const std::function<double()>& run_off,
                              const std::function<double()>& run_on) {
    OverheadResult r;
    std::vector<std::unique_ptr<char[]>> heap_shift;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      heap_shift.push_back(
          std::make_unique<char[]>(static_cast<size_t>(rep + 1) * 68923));
      const bool off_first = (rep % 2) == 0;
      const double first = off_first ? run_off() : run_on();
      const double second = off_first ? run_on() : run_off();
      const double off_secs = off_first ? first : second;
      const double on_secs = off_first ? second : first;
      if (off_secs < 0 || on_secs < 0) {
        std::fprintf(stderr, "%s overhead runs failed\n", label);
        r.ok = false;
        return r;
      }
      std::printf("  %s overhead rep %d: off %.4f s, on %.4f s\n", label, rep,
                  off_secs, on_secs);
      r.off_seconds = std::min(r.off_seconds, off_secs);
      r.on_seconds = std::min(r.on_seconds, on_secs);
    }
    r.fraction = r.on_seconds / r.off_seconds - 1.0;
    return r;
  };

  if (!skip_overhead) {
    // Budget-guard overhead: with every stop source armed but none binding
    // (huge budgets, a never-tripped token), ShouldStop()/Poll() bookkeeping
    // is the only difference from an unbudgeted run.  Gated (<2%) by
    // tools/bench_check.py --max-budget-overhead.
    core::MinerOptions unbudgeted = base;
    unbudgeted.num_threads = 1;
    core::MinerOptions budgeted = unbudgeted;
    budgeted.max_nodes = int64_t{1} << 60;
    budgeted.max_clusters = int64_t{1} << 60;
    budgeted.deadline_ms = 1e9;
    budgeted.soft_memory_limit_bytes = int64_t{1} << 60;
    budgeted.cancel_token = std::make_shared<util::CancellationToken>();
    const OverheadResult budget = measure_overhead(
        "budget", [&] { return timed_mine(unbudgeted); },
        [&] { return timed_mine(budgeted); });
    if (!budget.ok) return 1;
    std::printf(
        "\nbudget-guard overhead (serial, all stop sources armed, none "
        "binding): off %.4f s, on %.4f s -> %+.2f%%\n",
        budget.off_seconds, budget.on_seconds, 100.0 * budget.fraction);
    const std::string overhead_section = JsonObject({
        JsonField("off_seconds", JsonDouble(budget.off_seconds)),
        JsonField("on_seconds", JsonDouble(budget.on_seconds)),
        JsonField("overhead_fraction", JsonDouble(budget.fraction)),
        JsonField("check_interval", JsonInt(budgeted.budget_check_interval)),
        JsonField("best_of", JsonInt(kOverheadReps)),
    });
    if (!UpsertBenchSection(out_path, "budget_overhead", overhead_section)) {
      std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
    } else {
      std::printf("wrote section \"budget_overhead\" of %s\n",
                  out_path.c_str());
    }

    // Stats-collection overhead: collect_stats=true (the default; detail
    // counters live) vs. false (the instrumentation is compiled out via the
    // kCollect template).  Gated (<1%) by tools/bench_check.py
    // --max-stats-overhead.
    core::MinerOptions stats_off = base;
    stats_off.num_threads = 1;
    stats_off.collect_stats = false;
    core::MinerOptions stats_on = stats_off;
    stats_on.collect_stats = true;
    const OverheadResult stats_oh = measure_overhead(
        "stats", [&] { return timed_mine(stats_off); },
        [&] { return timed_mine(stats_on); });
    if (!stats_oh.ok) return 1;
    std::printf(
        "\nstats-collection overhead (serial, collect_stats on vs off): "
        "off %.4f s, on %.4f s -> %+.2f%%\n",
        stats_oh.off_seconds, stats_oh.on_seconds, 100.0 * stats_oh.fraction);
    const std::string stats_overhead_section = JsonObject({
        JsonField("off_seconds", JsonDouble(stats_oh.off_seconds)),
        JsonField("on_seconds", JsonDouble(stats_oh.on_seconds)),
        JsonField("overhead_fraction", JsonDouble(stats_oh.fraction)),
        JsonField("best_of", JsonInt(kOverheadReps)),
    });
    if (!UpsertBenchSection(out_path, "stats_overhead",
                            stats_overhead_section)) {
      std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
    } else {
      std::printf("wrote section \"stats_overhead\" of %s\n",
                  out_path.c_str());
    }

    // Durability overhead: the same serial mine run through
    // io::RunCheckpointedMine -- chunked at root boundaries, snapshotting to
    // a real double-buffered file at the default 1 s cadence on the
    // background writer thread -- vs the plain Mine() it must reproduce
    // byte-for-byte.  The difference is everything a durable run pays:
    // chunk splicing, snapshot encoding, and the writer's file I/O.  The
    // final snapshot of a run is written synchronously whatever the run's
    // length, so the comparison uses a looser MinC than the sweep above:
    // durability is for long mines, and on a sub-second one that fixed
    // write would dominate the fraction instead of amortizing as it does
    // in practice.  Gated (<2%) by tools/bench_check.py
    // --max-checkpoint-overhead.
    core::MinerOptions durable = base;
    durable.num_threads = 1;
    durable.min_conditions = 5;
    const std::string ckpt_scratch =
        FlagValue(argc, argv, "checkpoint-scratch", "bench_ckpt_scratch");
    io::CheckpointConfig ckpt_cfg;
    ckpt_cfg.path = ckpt_scratch;
    auto timed_durable_mine = [&]() {
      util::WallTimer timer;
      auto r = io::RunCheckpointedMine(ds->data, durable, ckpt_cfg, nullptr);
      if (!r.ok() || !r->checkpoint_status.ok()) return -1.0;
      return timer.ElapsedSeconds();
    };
    const OverheadResult ckpt_oh = measure_overhead(
        "checkpoint", [&] { return timed_mine(durable); },
        timed_durable_mine);
    std::remove((ckpt_scratch + ".a").c_str());
    std::remove((ckpt_scratch + ".b").c_str());
    if (!ckpt_oh.ok) return 1;
    std::printf(
        "\ncheckpoint overhead (serial, durable chunked mine + snapshots vs "
        "plain): off %.4f s, on %.4f s -> %+.2f%%\n",
        ckpt_oh.off_seconds, ckpt_oh.on_seconds, 100.0 * ckpt_oh.fraction);
    const std::string ckpt_overhead_section = JsonObject({
        JsonField("off_seconds", JsonDouble(ckpt_oh.off_seconds)),
        JsonField("on_seconds", JsonDouble(ckpt_oh.on_seconds)),
        JsonField("overhead_fraction", JsonDouble(ckpt_oh.fraction)),
        JsonField("every_ms", JsonInt(ckpt_cfg.every_ms)),
        JsonField("best_of", JsonInt(kOverheadReps)),
    });
    if (!UpsertBenchSection(out_path, "checkpoint_overhead",
                            ckpt_overhead_section)) {
      std::fprintf(stderr, "WARNING: could not write %s\n", out_path.c_str());
    } else {
      std::printf("wrote section \"checkpoint_overhead\" of %s\n",
                  out_path.c_str());
    }
  } else {
    std::printf("\n--skip-overhead: overhead sections left untouched\n");
  }
  if (!UpsertBenchSection(out_path, "provenance", ProvenanceObject())) {
    std::fprintf(stderr, "WARNING: could not write provenance to %s\n",
                 out_path.c_str());
  }

  if (!ok) {
    std::fprintf(stderr, "FAILED: thread count changed the output\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace regcluster

int main(int argc, char** argv) {
  return regcluster::bench::Main(argc, argv);
}
