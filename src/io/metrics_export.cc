#include "io/metrics_export.h"

#include <ostream>

#include "util/simd/dispatch.h"

namespace regcluster {
namespace io {
namespace {

/// Registers one counter and sets it; propagates the registry error.
util::Status SetCounter(obs::MetricsRegistry* registry, const std::string& name,
                        const std::string& help, int64_t value) {
  auto counter = registry->AddCounter(name, help);
  if (!counter.ok()) return counter.status();
  (*counter)->Add(value);
  return util::Status::OK();
}

util::Status SetGauge(obs::MetricsRegistry* registry, const std::string& name,
                      const std::string& help, double value) {
  auto gauge = registry->AddGauge(name, help);
  if (!gauge.ok()) return gauge.status();
  (*gauge)->Set(value);
  return util::Status::OK();
}

}  // namespace

util::StatusOr<MetricsFormat> ParseMetricsFormat(const std::string& name) {
  if (name == "json") return MetricsFormat::kJson;
  if (name == "prom" || name == "prometheus") return MetricsFormat::kPrometheus;
  return util::Status::InvalidArgument("unknown metrics format \"" + name +
                                       "\" (expected json or prom)");
}

util::Status RegisterCheckpointMetrics(const CheckpointStats* checkpoint,
                                       obs::MetricsRegistry* registry) {
  // Zeros, not absence, when checkpointing is off: a dashboard must be able
  // to tell "feature disabled" (all 0) from "metrics missing".
  static const CheckpointStats kDisabled;
  const CheckpointStats& cs = checkpoint != nullptr ? *checkpoint : kDisabled;
  util::Status s = SetCounter(registry, "regcluster_checkpoint_writes_total",
                              "Durable snapshots written (both buffers)",
                              cs.writes);
  if (!s.ok()) return s;
  s = SetCounter(registry, "regcluster_checkpoint_bytes_total",
                 "Encoded snapshot bytes written", cs.bytes);
  if (!s.ok()) return s;
  s = SetGauge(registry, "regcluster_checkpoint_last_write_ns",
               "Wall duration of the most recent snapshot write",
               static_cast<double>(cs.last_write_ns));
  if (!s.ok()) return s;
  return SetCounter(registry, "regcluster_checkpoint_resumes_total",
                    "Runs continued from an on-disk snapshot", cs.resumes);
}

util::Status RegisterMinerMetrics(const core::MinerStats& stats,
                                  const core::MineOutcome& outcome,
                                  obs::MetricsRegistry* registry,
                                  const CheckpointStats* checkpoint) {
#define REGCLUSTER_COUNTER(name, help, value)                       \
  do {                                                              \
    util::Status s = SetCounter(registry, (name), (help), (value)); \
    if (!s.ok()) return s;                                          \
  } while (0)
#define REGCLUSTER_GAUGE(name, help, value)                       \
  do {                                                            \
    util::Status s = SetGauge(registry, (name), (help), (value)); \
    if (!s.ok()) return s;                                        \
  } while (0)

  // MinerStats, in table order: the deterministic work counters, the
  // profile_phases nanoseconds (0 unless profiling), then the wall-clock
  // phase durations as gauges.
  for (const core::MinerStatsField& f : core::kMinerStatsFields) {
    if (f.metric == nullptr) continue;
    util::Status s =
        f.count != nullptr
            ? SetCounter(registry, f.metric, f.help, stats.*f.count)
            : SetGauge(registry, f.metric, f.help, stats.*f.seconds);
    if (!s.ok()) return s;
  }

  // Execution telemetry (scheduling-dependent; from MineOutcome).
  REGCLUSTER_GAUGE("regcluster_wall_seconds", "Total Mine() wall time",
                   outcome.wall_seconds);
  REGCLUSTER_GAUGE("regcluster_phase_a_seconds",
                   "Parallel optimistic phase (0 when serial)",
                   outcome.phase_a_seconds);
  REGCLUSTER_GAUGE("regcluster_phase_b_seconds",
                   "Canonical finalize / serial mining phase",
                   outcome.phase_b_seconds);
  REGCLUSTER_COUNTER("regcluster_nodes_visited_total",
                     "All DFS nodes visited, including abandoned work",
                     outcome.nodes_visited);
  REGCLUSTER_COUNTER("regcluster_pool_steals_total",
                     "Work-stealing task transfers between pool workers",
                     outcome.pool_steals);
  REGCLUSTER_GAUGE("regcluster_pool_queue_high_water",
                   "Deepest single worker deque observed",
                   static_cast<double>(outcome.pool_queue_high_water));
  REGCLUSTER_COUNTER("regcluster_budget_polls_total",
                     "BudgetGuard::Poll() calls across all workers",
                     outcome.budget_polls);
  REGCLUSTER_GAUGE("regcluster_roots_completed",
                   "Canonical roots whose clusters are in the output",
                   static_cast<double>(outcome.roots_completed));
  REGCLUSTER_GAUGE("regcluster_roots_total",
                   "Roots this call was asked to search",
                   static_cast<double>(outcome.roots_total));
  REGCLUSTER_GAUGE("regcluster_peak_scratch_bytes",
                   "Peak approximate live mining memory",
                   static_cast<double>(outcome.peak_scratch_bytes));
  REGCLUSTER_GAUGE("regcluster_truncated",
                   "1 when the run was budget/cancel truncated, else 0",
                   outcome.status == core::MineStatus::kTruncated ? 1.0 : 0.0);
  REGCLUSTER_GAUGE("regcluster_simd_level",
                   "Resolved SIMD kernel set (0 scalar, 1 avx2, 2 neon); "
                   "every level is bit-identical",
                   static_cast<double>(static_cast<int>(outcome.simd_level)));

  // Out-of-core telemetry (all 0 on the eager resident path).  With the
  // model build forced serial the hit/miss totals are a pure function of
  // the access sequence; under a parallel build racing misses on one gene
  // can split differently, but hits + misses still equals total accesses.
  REGCLUSTER_COUNTER("regcluster_model_cache_hits_total",
                     "RWave model cache lookups served from a resident entry",
                     outcome.model_cache_hits);
  REGCLUSTER_COUNTER("regcluster_model_cache_misses_total",
                     "RWave model cache lookups that built the model",
                     outcome.model_cache_misses);
  REGCLUSTER_COUNTER("regcluster_model_cache_evictions_total",
                     "RWave models evicted past the cache byte budget",
                     outcome.model_cache_evictions);
  REGCLUSTER_GAUGE("regcluster_model_cache_resident_bytes",
                   "Bytes of RWave models resident in the cache at run end",
                   static_cast<double>(outcome.model_cache_resident_bytes));
  REGCLUSTER_GAUGE("regcluster_model_bytes",
                   "Heap bytes of the gamma model (index + models + cache)",
                   static_cast<double>(outcome.model_bytes));
  REGCLUSTER_GAUGE("regcluster_mapped_bytes",
                   "Input matrix bytes served by a file mapping (0 when "
                   "resident)",
                   static_cast<double>(outcome.mapped_bytes));

#undef REGCLUSTER_COUNTER
#undef REGCLUSTER_GAUGE
  return RegisterCheckpointMetrics(checkpoint, registry);
}

util::Status WriteMinerMetrics(const core::MinerStats& stats,
                               const core::MineOutcome& outcome,
                               MetricsFormat format, std::ostream& out,
                               const CheckpointStats* checkpoint) {
  obs::MetricsRegistry registry;
  util::Status s = RegisterMinerMetrics(stats, outcome, &registry, checkpoint);
  if (!s.ok()) return s;
  return format == MetricsFormat::kJson ? registry.WriteJson(out)
                                        : registry.WritePrometheus(out);
}

}  // namespace io
}  // namespace regcluster
