#include "core/sweep.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/threshold.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace regcluster {
namespace core {

GammaKey GammaKeyOf(const MinerOptions& options) {
  return {static_cast<int>(options.gamma_policy),
          std::bit_cast<uint64_t>(options.gamma)};
}

void SweepReport::CountRun(const SweepRun& run) {
  if (!run.executed) return;
  ++runs_executed;
  nodes_total += run.stats.nodes_expanded;
  // The clusters actually present in the report: with dominance removal on,
  // fewer than stats.clusters_emitted (which stays the budget accounting
  // unit because it is the deterministic search-side counter).
  clusters_total += static_cast<int64_t>(run.clusters.size());
}

SweepEngine::SweepEngine(const matrix::MatrixStore& data,
                         SweepOptions options)
    : data_(data), options_(std::move(options)) {}

util::StatusOr<SweepReport> SweepEngine::Run(
    const std::vector<MinerOptions>& points) {
  util::WallTimer wall;
  if (points.empty()) {
    return util::Status::InvalidArgument("sweep has no points");
  }
  if (options_.num_threads < 0) {
    return util::Status::InvalidArgument("num_threads must be >= 0");
  }
  // The O(cells) scan guards the engine's own builds; a model source owns
  // its inputs (the daemon's cache screens every matrix at load).
  if (!options_.model_source) {
    REGCLUSTER_RETURN_IF_ERROR(ValidateMatrixValues(
        data_, "matrix has missing values; impute before mining"));
  }
  const int threads = util::ResolveThreadCount(options_.num_threads);

  SweepReport report;
  report.runs.resize(points.size());

  // --- Screen the points and group the survivors by gamma in
  // first-appearance order, so model builds and a source's cache counters
  // are a pure function of the point list.  A point failing
  // ValidateMinerOptions or the screen never builds or pollutes a model.
  // Each group's model carries its largest MinC. ---
  std::vector<GammaGroup> groups;
  std::vector<int> group_of(points.size(), -1);
  std::map<GammaKey, int> index_of;
  for (size_t i = 0; i < points.size(); ++i) {
    SweepRun& run = report.runs[i];
    run.options = points[i];
    // The engine owns scheduling; a run must never spin up its own pool.
    run.options.num_threads = 1;
    run.status = ValidateMinerOptions(run.options, data_);
    if (run.status.ok() && options_.screen) {
      run.status = options_.screen(run.options);
    }
    if (!run.status.ok()) continue;
    const int next = static_cast<int>(groups.size());
    auto [it, inserted] = index_of.try_emplace(GammaKeyOf(run.options), next);
    if (inserted) {
      groups.push_back({{run.options.gamma_policy, run.options.gamma}, 2});
    }
    GammaGroup& group = groups[static_cast<size_t>(it->second)];
    group.max_min_conditions =
        std::max(group.max_min_conditions, run.options.min_conditions);
    group_of[i] = it->second;
  }
  std::vector<std::shared_ptr<const SharedGammaModel>> models;
  for (const GammaGroup& group : groups) {
    if (options_.model_source) {
      auto model = options_.model_source(group);
      if (!model.ok()) return model.status();
      models.push_back(*std::move(model));
      continue;
    }
    models.push_back(SharedGammaModel::Build(data_, group.spec,
                                             group.max_min_conditions));
    report.shared_model_bytes +=
        static_cast<int64_t>(models.back()->MemoryBytes());
    ++report.index_builds;
  }

  // --- Per-run overlay bookkeeping.  The sweep's hard-stop sources are
  // injected only into runs that do not carry their own; the flags record
  // which source is the *binding* one, so a truncated run can be classified
  // as "sweep cut it" (exclude, stop) vs "its own budget cut it" (the output
  // is byte-identical to the independent run: include, continue). ---
  std::vector<char> token_injected(points.size(), 0);
  std::vector<char> deadline_injected(points.size(), 0);
  util::DeadlineSource sweep_deadline;
  if (options_.deadline_ms >= 0) {
    sweep_deadline = util::DeadlineSource::AfterMillis(options_.deadline_ms);
  }

  // A screened-out point keeps its status and never gets a miner.
  std::vector<std::unique_ptr<RegClusterMiner>> miners(points.size());
  auto prepare_run = [&](size_t i) -> const util::Status& {
    SweepRun& run = report.runs[i];
    if (group_of[i] < 0) return run.status;
    run.options.shared_model = models[static_cast<size_t>(group_of[i])];
    run.used_shared_model = true;
    if (options_.cancel_token != nullptr && run.options.cancel_token == nullptr) {
      run.options.cancel_token = options_.cancel_token;
      token_injected[i] = 1;
    }
    if (sweep_deadline.active()) {
      const double remaining = sweep_deadline.RemainingMillis();
      if (run.options.deadline_ms < 0 || run.options.deadline_ms > remaining) {
        run.options.deadline_ms = remaining;
        deadline_injected[i] = 1;
      }
    }
    miners[i] = std::make_unique<RegClusterMiner>(data_, run.options);
    run.status = miners[i]->Prepare();
    return run.status;
  };

  // --- Phase A: with a pool, every run is prepared and its root/subtree
  // tasks submitted up front, so they interleave on the pool.  (Serial
  // sweeps prepare lazily in the canonical walk below, so a sweep deadline
  // is measured against the time each run actually starts.) ---
  std::unique_ptr<util::TaskPool> owned_pool;
  util::TaskPool* pool = options_.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<util::TaskPool>(threads);
    pool = owned_pool.get();
  }
  if (pool != nullptr) {
    for (size_t i = 0; i < points.size(); ++i) {
      if (prepare_run(i).ok()) miners[i]->SubmitParallelWork(pool);
    }
  }

  // --- Phase B: canonical serial walk.  Each run drains its own pool tasks
  // just before it finalizes; finalization order, budget accounting and
  // truncation decisions are independent of the pool. ---
  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  int64_t node_rem = options_.max_nodes >= 0 ? options_.max_nodes : kUnlimited;
  int64_t cluster_rem =
      options_.max_clusters >= 0 ? options_.max_clusters : kUnlimited;
  for (size_t i = 0; i < points.size(); ++i) {
    SweepRun& run = report.runs[i];
    // A sweep-level hard stop observed between runs truncates at the
    // boundary before touching this run.
    util::StopReason hard = util::StopReason::kNone;
    if (options_.cancel_token != nullptr && options_.cancel_token->cancelled()) {
      hard = options_.cancel_token->reason();
    } else if (sweep_deadline.Expired()) {
      hard = util::StopReason::kDeadline;
    }
    if (hard != util::StopReason::kNone) {
      report.stop_reason = hard;
      report.first_unfinished = static_cast<int>(i);
      break;
    }

    if (pool == nullptr) {
      if (!prepare_run(i).ok()) continue;  // soft per-point failure
    } else if (!run.status.ok()) {
      continue;
    }
    miners[i]->WaitParallelWork();
    auto clusters = miners[i]->Finalize();
    if (!clusters.ok()) {
      run.status = clusters.status();
      miners[i].reset();
      continue;
    }
    run.clusters = std::move(clusters).value();
    run.stats = miners[i]->stats();
    run.outcome = miners[i]->outcome();
    miners[i].reset();

    // An injected hard-stop source interrupted this run mid-flight: its
    // partial output is not the independent-run answer, so the run is
    // excluded whole and the sweep stops at its boundary.
    const bool sweep_interrupted =
        run.outcome.status == MineStatus::kTruncated &&
        ((run.outcome.stop_reason == util::StopReason::kCancelled &&
          token_injected[i] != 0) ||
         (run.outcome.stop_reason == util::StopReason::kDeadline &&
          deadline_injected[i] != 0));
    // Run-boundary enforcement of the sweep count budgets, against the
    // run's deterministic totals: the first run that does not fit is
    // excluded whole.  Same decision at any thread count.
    util::StopReason cut = util::StopReason::kNone;
    if (sweep_interrupted) {
      cut = run.outcome.stop_reason;
    } else if (run.stats.nodes_expanded > node_rem) {
      cut = util::StopReason::kNodeBudget;
    } else if (run.stats.clusters_emitted > cluster_rem) {
      cut = util::StopReason::kClusterBudget;
    }
    if (cut != util::StopReason::kNone) {
      run.clusters.clear();
      run.stats = MinerStats{};
      run.outcome = MineOutcome{};
      report.stop_reason = cut;
      report.first_unfinished = static_cast<int>(i);
      break;
    }

    node_rem -= run.stats.nodes_expanded;
    cluster_rem -= run.stats.clusters_emitted;
    run.executed = true;
    report.CountRun(run);
  }

  // A truncated walk leaves later runs' tasks on the pool; they reference
  // their miners, so drain them before the miners go.
  for (const std::unique_ptr<RegClusterMiner>& miner : miners) {
    if (miner != nullptr) miner->WaitParallelWork();
  }
  if (report.stop_reason != util::StopReason::kNone) {
    report.status = MineStatus::kTruncated;
  }
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

}  // namespace core
}  // namespace regcluster
