// Search-effort counters of one mining run, and the single table that
// describes them.
//
// MinerStats fields are the paper's pruning strategies (1)-(4) of Figure 5
// plus the work and timing counters around them.  Everything that has to
// walk the fields -- the shard merge, the RGCXCKP1/RGCXINC1 codec, the
// regcluster_* metrics, the JSON "stats" block, --deterministic-output
// zeroing, the bench stats section -- iterates kMinerStatsFields instead of
// naming fields, so a counter is declared in exactly two places: the struct
// and one table row (see CONTRIBUTING.md).

#ifndef REGCLUSTER_CORE_MINER_STATS_H_
#define REGCLUSTER_CORE_MINER_STATS_H_

#include <cstdint>
#include <iterator>

namespace regcluster {
namespace core {

/// Search-effort and pruning counters, populated by Mine().
struct MinerStats {
  int64_t nodes_expanded = 0;       ///< chain nodes visited (incl. level 1)
  int64_t extensions_tested = 0;    ///< (node, candidate) pairs examined
  int64_t pruned_min_genes = 0;     ///< branches cut by pruning (1)
  int64_t pruned_p_majority = 0;    ///< branches cut by pruning (3a)
  int64_t pruned_duplicate = 0;     ///< branches cut by pruning (3b)
  int64_t pruned_coherence = 0;     ///< candidates with no valid window (4)
  int64_t genes_dropped_min_conds = 0;  ///< gene drops by pruning (2)
  int64_t clusters_emitted = 0;     ///< outputs before any post-pass
  /// Model builds performed by this run: 1 when Mine() built its own
  /// RWave models + index, 0 when MinerOptions::shared_model was reused.
  /// This is how index sharing is observable (sweep_test asserts it).
  int64_t index_builds = 0;
  double rwave_build_seconds = 0.0;  ///< 0 when the model was shared
  double index_build_seconds = 0.0;  ///< RWaveBitmapIndex bake time (0 if shared)
  double mine_seconds = 0.0;

  /// Detailed work counters, collected only when
  /// MinerOptions::collect_stats is set (all zero otherwise -- the
  /// instrumentation is compiled out).  Like every counter above they are
  /// deterministic: the same data + options give the same values at any
  /// thread count, because each task counts into its own shard and the
  /// shards are merged in canonical root order.
  int64_t index_word_ops = 0;  ///< 64-bit bitmap words touched building and
                               ///< transposing candidate rows (PrepareNode)
  int64_t coherence_divide_calls = 0;  ///< divide passes over a scored column
  int64_t coherence_scores = 0;        ///< individual H scores computed
  int64_t dedup_probes = 0;            ///< duplicate-key set probes (MaybeEmit)

  /// Hot-path phase breakdown, populated only when
  /// MinerOptions::profile_phases is set (all zero otherwise):
  int64_t filter_ns = 0;  ///< bitmap candidate generation + member filtering
  int64_t score_ns = 0;   ///< coherence numerator/denominator divide pass
  int64_t sort_ns = 0;    ///< index-sort of the score column
  int64_t emit_ns = 0;    ///< dedup keying + cluster materialization
};

/// What a field measures, which decides where it goes.
enum class StatsFieldClass {
  kWork,     ///< deterministic search work: wire, JSON, metrics, bench gate
  kBuild,    ///< deterministic model-build count: wire and bench identity
  kProfile,  ///< profile_phases nanoseconds: metrics only, never persisted
  kTiming,   ///< wall-clock seconds: wire, JSON and metrics, zeroed by
             ///< --deterministic-output
};

/// One MinerStats field.  Timing rows point at a double member (`seconds`),
/// every other row at an int64_t member (`count`).
struct MinerStatsField {
  const char* name;    ///< JSON key, wire field label, bench key
  const char* metric;  ///< exported metric name; nullptr = not exported
  const char* help;    ///< metric HELP text
  StatsFieldClass cls;
  int64_t MinerStats::*count;
  double MinerStats::*seconds;
};

/// The MinerStats fields in wire order.  The binary formats, the JSON
/// "stats" block, the regcluster_* metrics and BENCH_miner.json's stats
/// section all emit the rows of their classes in this order, so it is the
/// on-disk layout: never reorder; a new row on the wire needs a format
/// version bump and regenerated tests/io/testdata fixtures.
inline constexpr MinerStatsField kMinerStatsFields[] = {
    {"nodes_expanded", "regcluster_nodes_expanded_total",
     "Chain nodes expanded by the DFS (canonical prefix)",
     StatsFieldClass::kWork, &MinerStats::nodes_expanded, nullptr},
    {"extensions_tested", "regcluster_extensions_tested_total",
     "(node, candidate condition) pairs examined", StatsFieldClass::kWork,
     &MinerStats::extensions_tested, nullptr},
    {"pruned_min_genes", "regcluster_pruned_min_genes_total",
     "Branches cut by pruning 1 (MinG)", StatsFieldClass::kWork,
     &MinerStats::pruned_min_genes, nullptr},
    {"pruned_p_majority", "regcluster_pruned_p_majority_total",
     "Branches cut by pruning 3a (p-majority)", StatsFieldClass::kWork,
     &MinerStats::pruned_p_majority, nullptr},
    {"pruned_duplicate", "regcluster_pruned_duplicate_total",
     "Branches cut by pruning 3b (duplicate emission)",
     StatsFieldClass::kWork, &MinerStats::pruned_duplicate, nullptr},
    {"pruned_coherence", "regcluster_pruned_coherence_total",
     "Candidates with no valid coherence window (pruning 4)",
     StatsFieldClass::kWork, &MinerStats::pruned_coherence, nullptr},
    {"genes_dropped_min_conds", "regcluster_genes_dropped_min_conds_total",
     "Gene drops by pruning 2 (MinC chain bound)", StatsFieldClass::kWork,
     &MinerStats::genes_dropped_min_conds, nullptr},
    {"clusters_emitted", "regcluster_clusters_emitted_total",
     "Validated clusters emitted before post-passes", StatsFieldClass::kWork,
     &MinerStats::clusters_emitted, nullptr},
    {"index_builds", nullptr, "Gamma-model builds performed by the run",
     StatsFieldClass::kBuild, &MinerStats::index_builds, nullptr},
    {"index_word_ops", "regcluster_index_word_ops_total",
     "64-bit bitmap-index words touched by candidate generation "
     "(collect_stats only)",
     StatsFieldClass::kWork, &MinerStats::index_word_ops, nullptr},
    {"coherence_divide_calls", "regcluster_coherence_divide_calls_total",
     "Coherence divide passes over a scored column (collect_stats only)",
     StatsFieldClass::kWork, &MinerStats::coherence_divide_calls, nullptr},
    {"coherence_scores", "regcluster_coherence_scores_total",
     "Individual coherence scores computed (collect_stats only)",
     StatsFieldClass::kWork, &MinerStats::coherence_scores, nullptr},
    {"dedup_probes", "regcluster_dedup_probes_total",
     "Duplicate-key set probes (collect_stats only)", StatsFieldClass::kWork,
     &MinerStats::dedup_probes, nullptr},
    {"filter_ns", "regcluster_phase_filter_ns_total",
     "Candidate generation + member filtering time (profile_phases only)",
     StatsFieldClass::kProfile, &MinerStats::filter_ns, nullptr},
    {"score_ns", "regcluster_phase_score_ns_total",
     "Coherence divide pass time (profile_phases only)",
     StatsFieldClass::kProfile, &MinerStats::score_ns, nullptr},
    {"sort_ns", "regcluster_phase_sort_ns_total",
     "Scored-column index-sort time (profile_phases only)",
     StatsFieldClass::kProfile, &MinerStats::sort_ns, nullptr},
    {"emit_ns", "regcluster_phase_emit_ns_total",
     "Dedup keying + cluster materialization time (profile_phases only)",
     StatsFieldClass::kProfile, &MinerStats::emit_ns, nullptr},
    {"rwave_build_seconds", "regcluster_rwave_build_seconds",
     "RWave model construction time", StatsFieldClass::kTiming, nullptr,
     &MinerStats::rwave_build_seconds},
    {"index_build_seconds", "regcluster_index_build_seconds",
     "Bitmap index bake time", StatsFieldClass::kTiming, nullptr,
     &MinerStats::index_build_seconds},
    {"mine_seconds", "regcluster_mine_seconds", "Search time (both phases)",
     StatsFieldClass::kTiming, nullptr, &MinerStats::mine_seconds},
};

// Every MinerStats member is 8 bytes and has exactly one row: a field added
// to the struct without a row fails here.
static_assert(sizeof(MinerStats) ==
                  std::size(kMinerStatsFields) * sizeof(int64_t),
              "every MinerStats field needs a kMinerStatsFields row");

/// Adds every field of `from` into `to`.  Callers that want a run-level
/// value rather than a sum (build counts and seconds of a shared model,
/// the run's mine_seconds) assign it after merging.
inline void AccumulateStats(const MinerStats& from, MinerStats* to) {
  for (const MinerStatsField& f : kMinerStatsFields) {
    if (f.count != nullptr) {
      to->*f.count += from.*f.count;
    } else {
      to->*f.seconds += from.*f.seconds;
    }
  }
}

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_MINER_STATS_H_
