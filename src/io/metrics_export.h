// Bridges the miner's run record (core::MinerStats + core::MineOutcome)
// into an obs::MetricsRegistry and writes it in an operator-consumable
// format.  This is the one place that fixes the external metric names, so
// dashboards and scrape configs survive internal refactors:
//
//   regcluster_nodes_expanded_total, regcluster_extensions_tested_total,
//   regcluster_pruned_{min_genes,p_majority,duplicate,coherence}_total,
//   regcluster_genes_dropped_min_conds_total,
//   regcluster_clusters_emitted_total, regcluster_index_word_ops_total,
//   regcluster_coherence_divide_calls_total, regcluster_coherence_scores_total,
//   regcluster_dedup_probes_total                 -- deterministic counters
//   regcluster_{rwave_build,index_build,mine,wall,phase_a,phase_b}_seconds
//   regcluster_pool_steals_total, regcluster_pool_queue_high_water,
//   regcluster_budget_polls_total, regcluster_nodes_visited_total,
//   regcluster_roots_completed, regcluster_roots_total,
//   regcluster_peak_scratch_bytes, regcluster_truncated
//                                                 -- execution telemetry
//
// The MinerStats names, HELP text and order come from
// core::kMinerStatsFields.  The deterministic counters are a pure function
// of data + options (see core::MinerStats); everything sourced from
// MineOutcome is scheduling-dependent.  The registry keeps registration order, so both export formats
// are byte-stable given equal values.

#ifndef REGCLUSTER_IO_METRICS_EXPORT_H_
#define REGCLUSTER_IO_METRICS_EXPORT_H_

#include <iosfwd>
#include <string>

#include "core/miner.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace regcluster {
namespace io {

enum class MetricsFormat {
  kJson,        ///< obs::MetricsRegistry::WriteJson document
  kPrometheus,  ///< Prometheus text exposition format 0.0.4
};

/// Parses "json" / "prom" (also "prometheus"); anything else is
/// InvalidArgument.
util::StatusOr<MetricsFormat> ParseMetricsFormat(const std::string& name);

/// Registers the run record under the stable regcluster_* names above.
/// Fails only on registry conflicts (e.g. called twice on one registry).
/// `checkpoint` adds the regcluster_checkpoint_* durability counters; pass
/// nullptr for a run without checkpointing -- the counters are still
/// registered with value 0 (absence would make dashboards treat a disabled
/// feature as a scrape failure).
util::Status RegisterMinerMetrics(const core::MinerStats& stats,
                                  const core::MineOutcome& outcome,
                                  obs::MetricsRegistry* registry,
                                  const CheckpointStats* checkpoint = nullptr);

/// Registers only the regcluster_checkpoint_{writes,bytes,last_write_ns,
/// resumes} durability counters (zeros when `checkpoint` is null).  Used by
/// both the miner and sweep exports.
util::Status RegisterCheckpointMetrics(const CheckpointStats* checkpoint,
                                       obs::MetricsRegistry* registry);

/// One-shot convenience: builds a registry from the run record and writes it
/// to `out` in `format`.
util::Status WriteMinerMetrics(const core::MinerStats& stats,
                               const core::MineOutcome& outcome,
                               MetricsFormat format, std::ostream& out,
                               const CheckpointStats* checkpoint = nullptr);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_METRICS_EXPORT_H_
