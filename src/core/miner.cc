#include "core/miner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>

#include "core/coherence.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/radix_sort.h"
#include "util/string_util.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace regcluster {
namespace core {
namespace {

/// True iff the chain is lexicographically smaller than its reversal
/// (condition ids).  Used for the tie-break of the representative rule.
bool LexSmallerThanReversed(const std::vector<int>& chain) {
  const size_t n = chain.size();
  for (size_t i = 0; i < n; ++i) {
    const int fwd = chain[i];
    const int rev = chain[n - 1 - i];
    if (fwd != rev) return fwd < rev;
  }
  return false;  // palindromic (only possible for length 1)
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Approximate heap footprint of a vector (capacity, not size: the arenas
/// hold their high-water mark).
template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

}  // namespace

/// Entries per score-panel block (DESIGN.md, "Score panel"): 12 bytes each
/// (a score and an int32 member index), so a block holds about 192 KiB.
/// A block always takes at least one candidate column, however large.
constexpr int kPanelBlockEntries = 16384;

/// Members PrepareNode runs ahead when prefetching their index rows.
constexpr size_t kIndexPrefetchAhead = 8;

/// One DFS node's reusable state.  The member columns are struct-of-arrays
/// (MemberCols), and the per-node caches below are parallel to them:
///
///   *_comb   per member, the W-word bitmap of conditions the member can
///            extend to (successor/predecessor row AND MinC-eligibility
///            row);
///   *_count  per condition, how many members' *_comb rows hold it -- a
///            candidate's p/n column sizes.
///
/// The score panel holds the coherence scores of a block of candidates:
/// per candidate column (starting at `col[c]`), its p-entries then its
/// n-entries, each in member order and therefore gene-ascending, as
/// (panel_h score, panel_idx member index).  `cursor` is the fill's write
/// position per column and `fill_mask` the block's filled candidates.
///
/// The scored columns (sc_*) hold the gene ids and denominators of one
/// column that passed the pre-screen, gathered by member index for the
/// sort and the child build; `order` index-sorts the column without
/// moving it.
struct RegClusterMiner::NodeFrame {
  MemberCols p, n;

  std::vector<uint64_t> p_comb, n_comb;
  util::BitPositionCounter p_count, n_count;
  util::BitPositionCounter cut;  ///< per condition, members cut by MinC

  std::vector<uint64_t> cand_words;  ///< the node's candidate bitmap
  std::vector<int> cands;            ///< its set bits, ascending

  std::vector<int> col, cursor;
  std::vector<uint64_t> fill_mask;
  std::vector<double> panel_h;
  std::vector<int32_t> panel_idx;

  std::vector<double> sc_denom;
  std::vector<double> sc_hs;  ///< sorted score column (sort kernel output)
  std::vector<int> sc_gene;
  std::vector<int> order;
  std::vector<int> win_p, win_n;  ///< window index buffers (child build)

  /// Gathers the gene ids and denominators of a `total`-entry panel column
  /// whose first `split` entries are p-members.
  void GatherScored(const int32_t* idx, int split, int total) {
    sc_gene.resize(static_cast<size_t>(total));
    sc_denom.resize(static_cast<size_t>(total));
    for (int k = 0; k < total; ++k) {
      const MemberCols& mem = k < split ? p : n;
      const size_t i = static_cast<size_t>(idx[k]);
      sc_gene[static_cast<size_t>(k)] = mem.gene[i];
      sc_denom[static_cast<size_t>(k)] = mem.denom[i];
    }
  }

  int64_t ApproxBytes() const {
    return VecBytes(p.gene) + VecBytes(p.head_pos) + VecBytes(p.denom) +
           VecBytes(n.gene) + VecBytes(n.head_pos) + VecBytes(n.denom) +
           VecBytes(p_comb) + VecBytes(n_comb) + p_count.ApproxBytes() +
           n_count.ApproxBytes() + cut.ApproxBytes() + VecBytes(cand_words) +
           VecBytes(cands) + VecBytes(col) + VecBytes(cursor) +
           VecBytes(fill_mask) + VecBytes(panel_h) + VecBytes(panel_idx) +
           VecBytes(sc_hs) + VecBytes(sc_denom) + VecBytes(sc_gene) +
           VecBytes(order) + VecBytes(win_p) + VecBytes(win_n);
  }
};

/// Per-worker scratch arena.  Every container is reused across the whole
/// search, so after a short warm-up (first visit of each DFS depth) the hot
/// loop performs zero heap allocations.  Frames live in a deque: references
/// into it stay valid while deeper frames are appended during recursion.
struct RegClusterMiner::MinerScratch {
  std::vector<int> chain;       ///< the DFS chain stack
  std::deque<NodeFrame> frames; ///< frames[d] holds the node of chain length d+2
  NodeFrame root_frame;         ///< the level-1 node (SeedRoot only)
  std::vector<uint64_t> gene_epoch;  ///< gene id -> last-marked epoch
  uint64_t epoch = 0;
  util::SortScratch sort_scratch;  ///< radix-sort key/index buffers
  std::vector<int> screen_counts;  ///< CoherenceWindowPossible buckets

  void Init(int num_conds, int num_genes) {
    chain.reserve(static_cast<size_t>(num_conds) + 1);
    gene_epoch.assign(static_cast<size_t>(num_genes), 0);
    epoch = 0;
  }

  NodeFrame& frame(int depth) {
    while (frames.size() <= static_cast<size_t>(depth)) frames.emplace_back();
    return frames[static_cast<size_t>(depth)];
  }

  /// Approximate live bytes of this arena -- the quantity the soft memory
  /// limit bounds.  Capacity-based, so it tracks the high-water mark.
  int64_t ApproxBytes() const {
    int64_t total = VecBytes(chain) + VecBytes(gene_epoch) +
                    root_frame.ApproxBytes() + sort_scratch.ApproxBytes() +
                    VecBytes(screen_counts);
    for (const NodeFrame& f : frames) {
      total += f.ApproxBytes() + static_cast<int64_t>(sizeof(NodeFrame));
    }
    return total;
  }
};

/// Per-task budget bookkeeping.  One instance lives on the stack of each
/// task body (or of the serial finalize pass) and is reached through
/// SearchContext::ctl.  It separates the two costs of budget enforcement:
///
///   * every DFS node pays OnNode() -- two local increments, two local
///     compares and (when a BudgetGuard exists) one relaxed atomic load;
///   * every `interval` nodes the task additionally flushes its local node
///     count to the guard and runs BudgetGuard::Poll() (token poll, deadline
///     read, memory report, global counter compare).
///
/// The local node/cluster quotas implement the *deterministic* cut of the
/// serial finalize pass: a repair task stops as soon as its root alone
/// exceeds what is left of the count budget.  Parallel phase-A tasks run
/// with unlimited quotas and react only to the shared guard; a task that
/// observes a trip abandons its slot (never marks itself complete) and drops
/// the pool's queued tasks so the batch drains quickly.
struct RegClusterMiner::TaskControl {
  util::BudgetGuard* guard = nullptr;  ///< shared stop sources; may be null
  util::TaskPool* pool = nullptr;      ///< drained on first observed trip
  MinerScratch* scratch = nullptr;     ///< for the memory reports
  int slot = 0;                        ///< this task's BudgetGuard byte slot
  int interval = 32;
  int countdown = 32;
  /// Serial-repair mode: exhausted *count* quotas on the shared guard are
  /// stale phase-A state and must not gate the repair; only hard stops do.
  bool hard_only = false;
  int64_t node_quota = std::numeric_limits<int64_t>::max();
  int64_t cluster_quota = std::numeric_limits<int64_t>::max();
  int64_t nodes = 0;
  int64_t clusters = 0;
  int64_t unflushed_nodes = 0;
  int64_t output_bytes = 0;
  bool stopped = false;
  util::StopReason stop_reason = util::StopReason::kNone;

  void Stop(util::StopReason reason) {
    stopped = true;
    stop_reason = reason;
    if (pool != nullptr) pool->CancelPending();
  }

  /// The cheap per-check-site probe: local flag plus one relaxed load.
  bool CheckAbort() {
    if (stopped) return true;
    if (guard != nullptr) {
      const util::StopReason r =
          hard_only ? guard->hard_reason() : guard->reason();
      if (r != util::StopReason::kNone) {
        Stop(r);
        return true;
      }
    }
    return false;
  }

  /// Accounts one DFS node.  Returns true when the node must not be
  /// expanded (the task is abandoning its work unit).
  bool OnNode() {
    if (stopped) return true;
    ++nodes;
    if (nodes > node_quota) {
      Stop(util::StopReason::kNodeBudget);
      return true;
    }
    if (guard == nullptr) return false;
    ++unflushed_nodes;
    if (--countdown <= 0) {
      countdown = interval;
      guard->AddNodes(unflushed_nodes);
      unflushed_nodes = 0;
      guard->Poll(slot, (scratch != nullptr ? scratch->ApproxBytes() : 0) +
                            output_bytes);
    }
    return CheckAbort();
  }

  /// Accounts one emitted cluster of ~`bytes` bytes.  Returns true when the
  /// emission exhausted the local cluster quota.
  bool OnEmit(int64_t bytes) {
    output_bytes += bytes;
    ++clusters;
    if (clusters > cluster_quota) {
      Stop(util::StopReason::kClusterBudget);
      return true;
    }
    if (guard != nullptr) guard->AddClusters(1);
    return stopped;
  }

  /// Flushes the residual local node count to the guard (task epilogue).
  void Finish() {
    if (guard != nullptr && unflushed_nodes > 0) {
      guard->AddNodes(unflushed_nodes);
      unflushed_nodes = 0;
    }
  }
};

void RegClusterMiner::RootWork::Reset() {
  ctx = SearchContext();
  seeds.clear();
  subtree_ctx.clear();
  seeded.store(false, std::memory_order_relaxed);
  subtrees_done.store(0, std::memory_order_relaxed);
}

/// Execution state of one staged run, created by Prepare() and consumed by
/// Finalize().  Living on the miner (not on a Mine() stack frame) is what
/// lets a batch driver keep many runs in flight on one pool between the two
/// calls.
struct RegClusterMiner::RunState {
  util::WallTimer total_timer;  ///< Prepare() entry -> Finalize() exit
  util::WallTimer mine_timer;   ///< model ready -> Finalize() exit
  std::vector<RootWork> work;   ///< one slot per level-1 condition
  std::vector<MinerScratch> scratches;  ///< phase-A per-worker arenas
  int first_root = 0;
  int threads = 1;
  int fin_slot = 0;  ///< guard byte-report slot of the finalize pass

  /// Phase-A tasks of *this run* still queued or running on a shared pool.
  /// Incremented before each Submit, decremented as the last action of the
  /// task body, so a transient zero cannot be observed while a root still
  /// has subtrees to submit (the root's own count covers the submission
  /// window).  Only the shared-pool path maintains it: an exclusive pool
  /// may drop queued tasks via CancelPending, which would strand the count.
  std::atomic<int64_t> outstanding{0};
  std::mutex wait_mu;
  std::condition_variable wait_cv;

  /// Marks one phase-A task finished and wakes WaitParallelWork().  The
  /// count moves under `wait_mu`, under which WaitParallelWork() reads it:
  /// once a waiter sees zero, no task touches this RunState again, so
  /// Finalize() may destroy it.
  void TaskDone() {
    std::lock_guard<std::mutex> lock(wait_mu);
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wait_cv.notify_all();
    }
  }
};

std::shared_ptr<const SharedGammaModel> SharedGammaModel::Build(
    const matrix::MatrixStore& data, const GammaSpec& spec,
    int max_chain_need, int num_threads) {
  auto model = std::make_shared<SharedGammaModel>();
  model->spec = spec;
  model->max_chain_need = max_chain_need;
  const int num_genes = data.num_genes();
  const int num_conds = data.num_conditions();
  RWaveBitmapIndex* index = &model->index;
  util::WallTimer timer;
  index->BeginBuild(num_genes, num_conds, max_chain_need);
  // A gene's model lives only as long as its own (disjoint) slice bake, so
  // the index is byte-identical at any thread count.
  const auto bake_genes = [&](int begin, int end,
                              RWaveBitmapIndex::BuildScratch* scratch) {
    thread_local util::SortScratch sort_scratch;
    for (int g = begin; g < end; ++g) {
      const RWaveModel m =
          RWaveModel::Build(data.row_data(g), num_conds,
                            AbsoluteGamma(data, g, spec), &sort_scratch);
      index->BuildGene(g, m, scratch);
    }
  };
  if (num_threads == 1 || num_genes == 0) {
    RWaveBitmapIndex::BuildScratch scratch;
    bake_genes(0, num_genes, &scratch);
  } else {
    util::TaskPool pool(num_threads);
    const int workers = pool.num_workers();
    const int stripe =
        std::max((num_genes + workers * 4 - 1) / (workers * 4), 64);
    std::vector<RWaveBitmapIndex::BuildScratch> scratches(
        static_cast<size_t>(workers));
    for (int begin = 0; begin < num_genes; begin += stripe) {
      const int end = std::min(begin + stripe, num_genes);
      pool.Submit([&, begin, end](int worker) {
        bake_genes(begin, end, &scratches[static_cast<size_t>(worker)]);
      });
    }
    pool.Wait();
  }
  model->index_build_seconds = timer.ElapsedSeconds();
  return model;
}

RegClusterMiner::RegClusterMiner(const matrix::MatrixStore& data,
                                 MinerOptions options)
    : data_(data), options_(options) {}

RegClusterMiner::~RegClusterMiner() = default;

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Mine() {
  util::Status prep = Prepare();
  if (!prep.ok()) return prep;
  if (run_->threads > 1) {
    obs::PhaseSpan phase_a(&outcome_.phase_a_seconds);
    util::TaskPool pool(run_->threads);
    SubmitRoots(&pool, /*exclusive_pool=*/true);
    pool.Wait();
    outcome_.pool_steals = pool.total_steals();
    outcome_.pool_queue_high_water = pool.queue_depth_high_water();
  }
  return Finalize();
}

util::Status ValidateMinerOptions(const MinerOptions& o,
                                  const matrix::MatrixStore& data) {
  if (o.min_genes < 1) {
    return util::Status::InvalidArgument("MinG must be >= 1");
  }
  if (o.min_conditions < 2) {
    return util::Status::InvalidArgument(
        "MinC must be >= 2 (a chain needs at least one regulation step)");
  }
  if (!std::isfinite(o.gamma)) {
    return util::Status::InvalidArgument("gamma must be a finite number");
  }
  const bool relative_gamma = o.gamma_policy != GammaPolicy::kAbsolute;
  if (o.gamma < 0.0 || (relative_gamma && o.gamma > 1.0)) {
    return util::Status::InvalidArgument(
        relative_gamma ? "gamma must be in [0, 1] for relative policies"
                       : "absolute gamma must be >= 0");
  }
  if (std::isnan(o.epsilon)) {
    return util::Status::InvalidArgument("epsilon must not be NaN");
  }
  if (o.epsilon < 0.0) {
    return util::Status::InvalidArgument("epsilon must be >= 0");
  }
  if (o.num_threads < 0) {
    return util::Status::InvalidArgument("num_threads must be >= 0");
  }
  for (int g : o.required_genes) {
    if (g < 0 || g >= data.num_genes()) {
      return util::Status::OutOfRange("required gene outside the matrix");
    }
  }
  for (int c : o.allowed_conditions) {
    if (c < 0 || c >= data.num_conditions()) {
      return util::Status::OutOfRange("allowed condition outside the matrix");
    }
  }
  if (o.budget_check_interval < 1) {
    return util::Status::InvalidArgument("budget_check_interval must be >= 1");
  }
  if (o.resume.can_resume()) {
    if (o.resume.options_hash != RegClusterMiner::SemanticOptionsHash(o)) {
      return util::Status::InvalidArgument(
          "resume token was issued under different mining options");
    }
    if (o.resume.next_root > data.num_conditions()) {
      return util::Status::OutOfRange("resume token root outside the matrix");
    }
    if (o.remove_dominated) {
      return util::Status::InvalidArgument(
          "resume cannot be combined with remove_dominated: dominance is a "
          "global post-pass, so spliced partial outputs would not match an "
          "unbudgeted run");
    }
  }
  if (!o.root_set.empty()) {
    if (o.resume.can_resume()) {
      return util::Status::InvalidArgument(
          "root_set cannot be combined with resume: both select the roots "
          "to search");
    }
    int prev_root = -1;
    for (int c : o.root_set) {
      if (c < 0 || c >= data.num_conditions()) {
        return util::Status::OutOfRange(
            "root_set condition outside the matrix");
      }
      if (c <= prev_root) {
        return util::Status::InvalidArgument(
            "root_set must be sorted strictly ascending");
      }
      prev_root = c;
    }
  }
  return util::Status::OK();
}

util::Status ValidateMatrixValues(const matrix::MatrixStore& data,
                                  const std::string& missing_message) {
  const int num_conds = data.num_conditions();
  for (int g = 0; g < data.num_genes(); ++g) {
    const double* row = data.row_data(g);
    double lo = num_conds > 0 ? row[0] : 0.0;
    double hi = lo;
    for (int c = 0; c < num_conds; ++c) {
      lo = std::min(lo, row[c]);
      hi = std::max(hi, row[c]);
      if (std::isfinite(row[c])) continue;
      if (std::isnan(row[c])) {
        return util::Status::FailedPrecondition(missing_message);
      }
      return util::Status::FailedPrecondition(util::StrFormat(
          "matrix cell of gene '%s' at condition '%s' is %s; every "
          "expression value must be finite",
          data.gene_name(g).c_str(), data.condition_name(c).c_str(),
          row[c] > 0 ? "+inf" : "-inf"));
    }
    if (!std::isfinite(hi - lo)) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "expression range of gene '%s' overflows: max %g - min %g is not "
          "a finite number; rescale the matrix",
          data.gene_name(g).c_str(), hi, lo));
    }
  }
  return util::Status::OK();
}

util::Status RegClusterMiner::Prepare() {
  REGCLUSTER_RETURN_IF_ERROR(ValidateMinerOptions(options_, data_));
  REGCLUSTER_RETURN_IF_ERROR(ValidateMatrixValues(data_));
  allowed_cond_.assign(static_cast<size_t>(data_.num_conditions()),
                       options_.allowed_conditions.empty() ? 1 : 0);
  for (int c : options_.allowed_conditions) {
    allowed_cond_[static_cast<size_t>(c)] = 1;
  }
  allowed_words_.assign(
      static_cast<size_t>(util::WordsForBits(data_.num_conditions())), 0);
  for (int c = 0; c < data_.num_conditions(); ++c) {
    if (allowed_cond_[static_cast<size_t>(c)]) {
      util::SetBit(allowed_words_.data(), c);
    }
  }
  required_gene_.assign(static_cast<size_t>(data_.num_genes()), 0);
  num_required_ = 0;
  for (int g : options_.required_genes) {
    if (!required_gene_[static_cast<size_t>(g)]) {
      required_gene_[static_cast<size_t>(g)] = 1;
      ++num_required_;
    }
  }

  stats_ = MinerStats();
  outcome_ = MineOutcome();
  root_results_.clear();
  guard_.reset();
  run_.reset();
  index_ = nullptr;
  model_.reset();

  auto run = std::make_unique<RunState>();
  // Resolve the worker count before the model build so the build itself can
  // run striped on the same number of threads as the search.
  run->threads = util::ResolveThreadCount(options_.num_threads);

  const GammaSpec spec{options_.gamma_policy, options_.gamma};
  if (options_.shared_model != nullptr) {
    // Adopt a pre-built model.  Reuse is only sound when the model answers
    // exactly the queries this run would bake itself: same matrix shape,
    // bitwise-equal gamma spec, and an eligibility ceiling covering MinC
    // (queries clamp into [0, max_chain_need], so a *larger* ceiling is
    // exact, a smaller one is not).
    const SharedGammaModel& m = *options_.shared_model;
    if (m.spec.policy != spec.policy ||
        std::bit_cast<uint64_t>(m.spec.gamma) !=
            std::bit_cast<uint64_t>(spec.gamma)) {
      return util::Status::InvalidArgument(
          "shared_model was built under a different gamma spec");
    }
    if (m.index.num_genes() != data_.num_genes() ||
        m.index.num_conditions() != data_.num_conditions()) {
      return util::Status::FailedPrecondition(
          "shared_model dimensions do not match this matrix");
    }
    if (m.max_chain_need < options_.min_conditions) {
      return util::Status::InvalidArgument(
          "shared_model max_chain_need is below MinC; build the model with "
          "the largest MinC it will serve");
    }
    model_ = options_.shared_model;
  } else {
    model_ = SharedGammaModel::Build(data_, spec, options_.min_conditions,
                                     run->threads);
    stats_.index_builds = 1;
    stats_.rwave_build_seconds = model_->rwave_build_seconds;
    stats_.index_build_seconds = model_->index_build_seconds;
  }
  index_ = &model_->index;

  run->work = std::vector<RootWork>(
      static_cast<size_t>(data_.num_conditions()));
  run->first_root =
      options_.resume.can_resume() ? options_.resume.next_root : 0;
  run->mine_timer.Reset();
  run_ = std::move(run);
  return util::Status::OK();
}

void RegClusterMiner::EnsureGuard(int num_slots) {
  if (guard_ != nullptr) return;
  util::BudgetGuard::Limits limits;
  limits.max_nodes = options_.max_nodes;
  limits.max_clusters = options_.max_clusters;
  limits.deadline_ms = options_.deadline_ms;
  limits.soft_memory_limit_bytes = options_.soft_memory_limit_bytes;
  limits.token = options_.cancel_token;
  if (!limits.any()) return;
  // One byte-report slot per pool worker plus one for the finalize pass.
  guard_ = std::make_unique<util::BudgetGuard>(limits, num_slots);
  if (data_.mapped_bytes() > 0 && options_.shared_model == nullptr) {
    // A mapped run bounds what the process actually holds live, so the
    // mapped matrix + this run's own model bytes enter the summed total
    // exactly once as a fixed base (never per slot).
    guard_->set_base_bytes(
        data_.mapped_bytes() +
        static_cast<int64_t>(model_->MemoryBytes()));
  }
  run_->fin_slot = num_slots - 1;
}

RegClusterMiner::TaskControl RegClusterMiner::MakeControl(
    MinerScratch* scratch, int slot, util::TaskPool* pool) {
  TaskControl ctl;
  ctl.guard = guard_.get();
  ctl.pool = pool;
  ctl.scratch = scratch;
  ctl.slot = slot;
  ctl.interval = options_.budget_check_interval;
  ctl.countdown = ctl.interval;
  return ctl;
}

void RegClusterMiner::SubmitParallelWork(util::TaskPool* pool) {
  SubmitRoots(pool, /*exclusive_pool=*/false);
}

// Phase A: optimistic mining.  Every root / subtree task runs under the
// shared guard with unlimited local quotas; on a trip, in-flight tasks
// abandon their slot atomically (they simply never mark themselves
// complete), and -- when the pool is exclusively this run's -- its queued
// tasks are dropped so the batch drains quickly.  On a shared pool the
// queued tasks may belong to other runs, so a tripped task only abandons
// its own work; the stale tasks of this run then observe the trip on entry
// and return immediately.  Which roots finish here is scheduling-dependent
// -- phase B makes the *output* deterministic.
void RegClusterMiner::SubmitRoots(util::TaskPool* pool, bool exclusive_pool) {
  if (run_ == nullptr) return;
  EnsureGuard(pool->num_workers() + 1);
  const int num_conds = data_.num_conditions();
  const int num_genes = data_.num_genes();
  run_->scratches =
      std::vector<MinerScratch>(static_cast<size_t>(pool->num_workers()));
  for (MinerScratch& s : run_->scratches) s.Init(num_conds, num_genes);
  MinerScratch* scratches = run_->scratches.data();
  RootWork* work = run_->work.data();
  util::TaskPool* ctl_pool = exclusive_pool ? pool : nullptr;
  // Shared pools track per-run completion so WaitParallelWork() can drain
  // this run without the pool's global barrier; `track` stays null on the
  // exclusive path, where CancelPending may drop queued tasks unrun.
  RunState* track = exclusive_pool ? nullptr : run_.get();
  // Targeted execution searches only the root_set (each root is an
  // independent search, so skipping the rest changes nothing about the
  // selected roots' slices); otherwise every root from first_root on.
  const bool targeted = !options_.root_set.empty();
  const int num_roots = targeted ? static_cast<int>(options_.root_set.size())
                                 : num_conds - run_->first_root;
  if (track != nullptr) {
    track->outstanding.fetch_add(num_roots, std::memory_order_relaxed);
  }
  // Each root task seeds its level-2 subtrees and immediately re-submits
  // them: large subtrees become stealable instead of serializing behind
  // their root, which is what makes imbalanced trees scale.
  for (int ri = 0; ri < num_roots; ++ri) {
    const int c = targeted ? options_.root_set[static_cast<size_t>(ri)]
                           : run_->first_root + ri;
    RootWork* rw = &work[c];
    pool->Submit([this, c, rw, pool, scratches, ctl_pool, track](int worker) {
      MinerScratch* scratch = &scratches[worker];
      TaskControl ctl = MakeControl(scratch, worker, ctl_pool);
      rw->ctx.ctl = &ctl;
      const bool seed_ok = !ctl.CheckAbort() && SeedRoot(c, rw, scratch);
      ctl.Finish();
      rw->ctx.ctl = nullptr;
      if (!seed_ok) {  // abandoned: the root stays incomplete
        if (track != nullptr) track->TaskDone();
        return;
      }
      rw->subtree_ctx.resize(rw->seeds.size());
      rw->seeded.store(true, std::memory_order_release);
      if (track != nullptr) {
        track->outstanding.fetch_add(static_cast<int64_t>(rw->seeds.size()),
                                     std::memory_order_relaxed);
      }
      for (size_t i = 0; i < rw->seeds.size(); ++i) {
        pool->Submit([this, c, rw, i, scratches, ctl_pool, track](int w) {
          MinerScratch* s = &scratches[w];
          TaskControl sub_ctl = MakeControl(s, w, ctl_pool);
          SearchContext* ctx = &rw->subtree_ctx[i];
          ctx->ctl = &sub_ctl;
          if (!sub_ctl.CheckAbort()) {
            MineSubtree(c, &rw->seeds[i], s, ctx);
          }
          sub_ctl.Finish();
          ctx->ctl = nullptr;
          if (!sub_ctl.stopped) {
            rw->subtrees_done.fetch_add(1, std::memory_order_acq_rel);
          }
          if (track != nullptr) track->TaskDone();
        });
      }
      if (track != nullptr) track->TaskDone();
    });
  }
}

void RegClusterMiner::WaitParallelWork() {
  if (run_ == nullptr) return;
  RunState* run = run_.get();
  std::unique_lock<std::mutex> lock(run->wait_mu);
  run->wait_cv.wait(lock, [run] {
    return run->outstanding.load(std::memory_order_acquire) == 0;
  });
}

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Finalize() {
  if (run_ == nullptr) {
    return util::Status::FailedPrecondition(
        "Finalize() requires a successful Prepare()");
  }
  const int num_conds = data_.num_conditions();
  const int num_genes = data_.num_genes();
  const int threads = run_->threads;
  const int first_root = run_->first_root;
  std::vector<RootWork>& work = run_->work;
  // Serial staged runs reach here without a phase A; the guard (and with it
  // the deadline clock) then starts now.
  EnsureGuard(threads + 1);
  int64_t parallel_scratch_bytes = 0;
  for (const MinerScratch& s : run_->scratches) {
    parallel_scratch_bytes += s.ApproxBytes();
  }

  // Phase B: canonical finalize -- the whole mining pass when threads <= 1.
  // Walk the roots in canonical order; re-run any incomplete root serially
  // under the *remaining* count budget; include a root iff its own
  // deterministic node/cluster totals fit what is left.  The totals are
  // per-root DFS invariants, so the cut root -- and hence the output -- is
  // identical for every thread count; only the scheduling-dependent question
  // "was this root mined in phase A or re-run here?" varies, and it is
  // unobservable in the result.  Hard stops (cancel / deadline / memory)
  // forbid repair work, so they cut at the first root that is not already
  // complete: still a valid canonical prefix, but its length legitimately
  // depends on machine speed.
  obs::PhaseSpan phase_b(&outcome_.phase_b_seconds);
  MinerScratch fin_scratch;
  fin_scratch.Init(num_conds, num_genes);
  const int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  int64_t node_rem = options_.max_nodes >= 0 ? options_.max_nodes : kUnlimited;
  int64_t cluster_rem =
      options_.max_clusters >= 0 ? options_.max_clusters : kUnlimited;
  util::StopReason stop = util::StopReason::kNone;
  int cut_root = num_conds;
  int roots_included = 0;
  std::vector<RegCluster> out;
  const bool targeted = !options_.root_set.empty();
  const int num_roots = targeted ? static_cast<int>(options_.root_set.size())
                                 : num_conds - first_root;
  for (int ri = 0; ri < num_roots; ++ri) {
    const int c = targeted ? options_.root_set[static_cast<size_t>(ri)]
                           : first_root + ri;
    RootWork& rw = work[static_cast<size_t>(c)];
    if (!rw.Complete()) {
      if (guard_ != nullptr &&
          guard_->hard_reason() != util::StopReason::kNone) {
        stop = guard_->hard_reason();
        cut_root = c;
        break;
      }
      rw.Reset();
      TaskControl ctl = MakeControl(&fin_scratch, run_->fin_slot, nullptr);
      ctl.hard_only = true;
      ctl.node_quota = node_rem;
      ctl.cluster_quota = cluster_rem;
      rw.ctx.ctl = &ctl;
      bool ok = SeedRoot(c, &rw, &fin_scratch);
      rw.ctx.ctl = nullptr;
      if (ok) {
        rw.subtree_ctx.resize(rw.seeds.size());
        for (size_t i = 0; i < rw.seeds.size() && ok; ++i) {
          rw.subtree_ctx[i].ctl = &ctl;
          MineSubtree(c, &rw.seeds[i], &fin_scratch, &rw.subtree_ctx[i]);
          rw.subtree_ctx[i].ctl = nullptr;
          ok = !ctl.stopped;
        }
      }
      ctl.Finish();
      if (!ok) {
        stop = ctl.stop_reason;
        cut_root = c;
        break;
      }
    }
    // Deterministic inclusion test, from the root's recorded totals.
    int64_t root_nodes = rw.ctx.stats.nodes_expanded;
    int64_t root_clusters = rw.ctx.stats.clusters_emitted;
    for (const SearchContext& ctx : rw.subtree_ctx) {
      root_nodes += ctx.stats.nodes_expanded;
      root_clusters += ctx.stats.clusters_emitted;
    }
    if (root_nodes > node_rem) {
      stop = util::StopReason::kNodeBudget;
      cut_root = c;
      break;
    }
    if (root_clusters > cluster_rem) {
      stop = util::StopReason::kClusterBudget;
      cut_root = c;
      break;
    }
    node_rem -= root_nodes;
    cluster_rem -= root_clusters;
    ++roots_included;
    if (options_.capture_root_results) {
      // Copy the slice before the canonical merge moves the clusters out.
      RootMineResult rr;
      rr.root = c;
      rr.stats = rw.ctx.stats;
      for (const SearchContext& ctx : rw.subtree_ctx) {
        AccumulateStats(ctx.stats, &rr.stats);
        rr.clusters.insert(rr.clusters.end(), ctx.out.begin(), ctx.out.end());
      }
      root_results_.push_back(std::move(rr));
    }
    // Canonical (root, second-condition) merge: deterministic regardless of
    // thread count and of which worker ran which task.
    AccumulateStats(rw.ctx.stats, &stats_);
    for (SearchContext& ctx : rw.subtree_ctx) {
      AccumulateStats(ctx.stats, &stats_);
      out.insert(out.end(), std::make_move_iterator(ctx.out.begin()),
                 std::make_move_iterator(ctx.out.end()));
    }
  }
  phase_b.Stop();
  if (options_.remove_dominated) out = RemoveDominated(std::move(out));
  stats_.mine_seconds = run_->mine_timer.ElapsedSeconds();

  const bool truncated = stop != util::StopReason::kNone;
  outcome_.status = truncated ? MineStatus::kTruncated : MineStatus::kComplete;
  outcome_.stop_reason = stop;
  outcome_.nodes_visited =
      guard_ != nullptr ? guard_->total_nodes() : stats_.nodes_expanded;
  outcome_.roots_completed = roots_included;
  outcome_.roots_total = num_roots;
  outcome_.wall_seconds = run_->total_timer.ElapsedSeconds();
  outcome_.peak_scratch_bytes =
      std::max<int64_t>(guard_ != nullptr ? guard_->peak_bytes() : 0,
                        parallel_scratch_bytes + fin_scratch.ApproxBytes());
  outcome_.budget_polls = guard_ != nullptr ? guard_->total_polls() : 0;
  outcome_.model_bytes = static_cast<int64_t>(model_->MemoryBytes());
  outcome_.mapped_bytes = data_.mapped_bytes();
  if (truncated && !targeted) {
    // A targeted run's cut point is an index into root_set, not a canonical
    // prefix boundary, and resume + root_set is rejected anyway -- so no
    // token is issued for truncated targeted runs.
    outcome_.resume.next_root = cut_root;
    outcome_.resume.options_hash = SemanticOptionsHash(options_);
  }
  run_.reset();
  return out;
}

uint64_t RegClusterMiner::SemanticOptionsHash(const MinerOptions& options) {
  util::Fnv128 h;
  h.MixInt(options.min_genes).MixInt(options.min_conditions);
  h.Mix64(std::bit_cast<uint64_t>(options.gamma));
  h.MixInt(static_cast<int>(options.gamma_policy));
  h.Mix64(std::bit_cast<uint64_t>(options.epsilon));
  h.MixInt(options.prune_min_genes ? 1 : 0);
  h.MixInt(options.prune_min_conds ? 1 : 0);
  h.MixInt(options.prune_p_majority ? 1 : 0);
  h.MixInt(options.prune_duplicates ? 1 : 0);
  h.MixInt(options.remove_dominated ? 1 : 0);
  h.MixInt(options.closed_chains_only ? 1 : 0);
  h.MixInt(-1);  // domain separators around the variable-length lists
  for (int g : options.required_genes) h.MixInt(g);
  h.MixInt(-1);
  for (int c : options.allowed_conditions) h.MixInt(c);
  h.MixInt(-1);
  return h.Digest().lo;
}

bool RegClusterMiner::HasAllRequired(const MemberCols& p, const MemberCols& n,
                                     MinerScratch* scratch) const {
  if (num_required_ == 0) return true;
  // Epoch-stamped distinct count: at level 1 a required gene can sit in both
  // lists, so presence is deduplicated via the per-gene stamp -- one pass,
  // no allocation.
  const uint64_t epoch = ++scratch->epoch;
  int distinct = 0;
  for (const int gene : p.gene) {
    const size_t g = static_cast<size_t>(gene);
    if (required_gene_[g] && scratch->gene_epoch[g] != epoch) {
      scratch->gene_epoch[g] = epoch;
      ++distinct;
    }
  }
  for (const int gene : n.gene) {
    const size_t g = static_cast<size_t>(gene);
    if (required_gene_[g] && scratch->gene_epoch[g] != epoch) {
      scratch->gene_epoch[g] = epoch;
      ++distinct;
    }
  }
  return distinct == num_required_;
}

template <bool kCollect>
void RegClusterMiner::PrepareNode(int m, NodeFrame* node,
                                  MinerStats* stats) {
  const int words = index_->num_words();
  const int need = options_.min_conditions - m;
  const bool prune2 = options_.prune_min_conds;
  const uint64_t* ones = index_->ones_row();

  // Per member: the combined row, counted per condition, and the members
  // the MinC bound cut -- successor & ~combined -- counted the same way, so
  // the pruning-2 drop counter needs no second pass over the index rows.
  // A p-member's bits outside the candidate set are exactly the disallowed
  // conditions, and an n-member's are conditions no p-member reaches; those
  // counts are never read, so counting whole rows needs no candidate mask
  // and stays in this one pass.
  const auto cache = [&](const MemberCols& mem, bool up,
                         std::vector<uint64_t>& comb,
                         util::BitPositionCounter& count,
                         util::BitPositionCounter& cut) {
    const size_t members = static_cast<size_t>(mem.size());
    comb.resize(members * static_cast<size_t>(words));
    count.Reset(words);
    cut.Reset(words);
    for (size_t i = 0; i < members; ++i) {
      // Members are gene-ascending but their index rows are scattered;
      // fetching a few members ahead overlaps the misses.
      if (i + kIndexPrefetchAhead < members) {
        const int ga = mem.gene[i + kIndexPrefetchAhead];
        const int pa = mem.head_pos[i + kIndexPrefetchAhead];
        __builtin_prefetch(up ? index_->UpCandidates(ga, pa)
                              : index_->DownCandidates(ga, pa));
      }
      const int g = mem.gene[i];
      const int pos = mem.head_pos[i];
      const uint64_t* cand_row =
          up ? index_->UpCandidates(g, pos) : index_->DownCandidates(g, pos);
      const uint64_t* elig =
          prune2 ? (up ? index_->UpEligible(g, need)
                       : index_->DownEligible(g, need))
                 : ones;
      uint64_t* dst = comb.data() + i * static_cast<size_t>(words);
      util::AndWords(dst, cand_row, elig, words);
      count.Add(dst);
      if (prune2) cut.AddAndNot(cand_row, dst);
    }
    count.Flush();
    cut.Flush();
    // One AND per word per member for the row, and one pass per word per
    // member for the counts; bulk adds outside the loop keep the accounting
    // off the hot path entirely.
    if constexpr (kCollect) {
      stats->index_word_ops += 2 * static_cast<int64_t>(members) * words;
    }
  };
  cache(node->p, /*up=*/true, node->p_comb, node->p_count, node->cut);

  // Candidate generation: OR over the p-member rows only (licensed by
  // pruning 3a), intersected with the allowed set; then snapshot the set
  // bits in ascending condition order.
  node->cand_words.assign(static_cast<size_t>(words), 0);
  const size_t np = static_cast<size_t>(node->p.size());
  for (size_t i = 0; i < np; ++i) {
    const uint64_t* src = node->p_comb.data() + i * static_cast<size_t>(words);
    util::OrWordsInto(node->cand_words.data(), src, words);
  }
  util::AndWords(node->cand_words.data(), node->cand_words.data(),
                 allowed_words_.data(), words);
  if constexpr (kCollect) {
    stats->index_word_ops += static_cast<int64_t>(np + 1) * words;
  }
  node->cands.clear();
  util::ForEachSetBit(node->cand_words.data(), words,
                      [&](int c) { node->cands.push_back(c); });

  // The pruning-2 drop counter -- members that are regulation-linked to a
  // candidate but cut by the MinC bound -- sums the cut counts over the
  // candidates, for the whole node here rather than per candidate
  // (identical totals; with an active max_nodes / max_clusters cap a
  // mid-node budget stop never leaves the counter at a scheduling-dependent
  // prefix).  The p-half's cut counts are read before the n-half reuses
  // the counter.
  const auto add_cut = [&] {
    if (!prune2) return;
    for (const int c : node->cands) {
      stats->genes_dropped_min_conds += node->cut.count(c);
    }
  };
  add_cut();
  cache(node->n, /*up=*/false, node->n_comb, node->n_count, node->cut);
  add_cut();
}

size_t RegClusterMiner::FillPanelBlock(size_t first, int ckm, bool level1,
                                       NodeFrame* node) const {
  const int words = index_->num_words();
  const int min_g = options_.min_genes;
  const bool prune_g = options_.prune_min_genes;
  const size_t num_conds = static_cast<size_t>(index_->num_conditions());
  node->col.resize(num_conds);
  node->cursor.resize(num_conds);
  node->fill_mask.assign(static_cast<size_t>(words), 0);

  // Lay the block out: consecutive candidate columns while they fit the
  // budget.  A column pruning (1) will reject gets no entries at all.
  int entries = 0;
  size_t end = first;
  for (; end < node->cands.size(); ++end) {
    const int c = node->cands[end];
    const int total = node->p_count.count(c) + node->n_count.count(c);
    const bool filled = !(prune_g && total < min_g);
    if (end > first && filled && entries + total > kPanelBlockEntries) break;
    node->col[static_cast<size_t>(c)] = entries;
    node->cursor[static_cast<size_t>(c)] = entries;
    if (filled) {
      util::SetBit(node->fill_mask.data(), c);
      entries += total;
    }
  }
  // Grow only: a shrink-then-grow would zero-fill the panel on every block.
  if (node->panel_h.size() < static_cast<size_t>(entries)) {
    node->panel_h.resize(static_cast<size_t>(entries));
    node->panel_idx.resize(static_cast<size_t>(entries));
  }

  // One member-major pass per half: p-members first, so each column's
  // cursor ends its p-entries exactly where its n-entries begin.
  const int w_lo = node->cands[first] / util::kBitsPerWord;
  const int w_hi = node->cands[end - 1] / util::kBitsPerWord + 1;
  const double* matrix = data_.row_data(0);
  const int64_t stride = static_cast<int64_t>(num_conds);
  const auto fill = [&](const MemberCols& mem,
                        const std::vector<uint64_t>& comb) {
    const PanelMembers members{mem.gene.data(),
                               level1 ? nullptr : mem.denom.data(),
                               comb.data(), mem.size(), words};
    FillScorePanel(members, matrix, stride, ckm, node->fill_mask.data(), w_lo,
                   w_hi, node->cursor.data(), node->panel_h.data(),
                   node->panel_idx.data());
  };
  fill(node->p, node->p_comb);
  fill(node->n, node->n_comb);
  return end;
}

bool RegClusterMiner::SeedRoot(int root_condition, RootWork* work,
                               MinerScratch* scratch) {
  return options_.collect_stats
             ? SeedRootImpl<true>(root_condition, work, scratch)
             : SeedRootImpl<false>(root_condition, work, scratch);
}

template <bool kCollect>
bool RegClusterMiner::SeedRootImpl(int root_condition, RootWork* work,
                                   MinerScratch* scratch) {
  SearchContext* ctx = &work->ctx;
  if (!allowed_cond_[static_cast<size_t>(root_condition)]) return true;
  // Level-1 chain: the root condition, with the genes that can still grow a
  // chain of length MinC through it upward (p) or downward (n).
  NodeFrame& node = scratch->root_frame;
  node.p.clear();
  node.n.clear();
  const int num_genes = data_.num_genes();
  const int min_c = options_.min_conditions;
  const bool prune2 = options_.prune_min_conds;
  for (int g = 0; g < num_genes; ++g) {
    const int pos = index_->position(g, root_condition);
    const bool up_ok =
        !prune2 || index_->ChainEligibleUp(g, root_condition, min_c);
    const bool down_ok =
        !prune2 || index_->ChainEligibleDown(g, root_condition, min_c);
    if (up_ok) node.p.push_back(g, pos, 0.0);
    if (down_ok) node.n.push_back(g, pos, 0.0);
    ctx->stats.genes_dropped_min_conds += (up_ok ? 0 : 1) + (down_ok ? 0 : 1);
  }

  // The level-1 body of the search (the m == 1 specialization of Extend):
  // no emission is possible (MinC >= 2) and every coherence score of the
  // first extension is identically 1 (Eq. 7), so each candidate yields a
  // single all-inclusive window -- one SubtreeSeed.
  if (!HasAllRequired(node.p, node.n, scratch)) return true;
  if (ctx->ctl->OnNode()) return false;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  // Pruning (1): at level 1 a gene may appear in both member lists; the sum
  // is then an over-estimate of the union, which is safe (prunes less).
  const int total_members = node.p.size() + node.n.size();
  if (options_.prune_min_genes && total_members < min_g) {
    ++ctx->stats.pruned_min_genes;
    return true;
  }
  // Pruning (3a): fewer than MinG/2 p-members can never be a majority.
  if (options_.prune_p_majority && 2 * node.p.size() < min_g) {
    ++ctx->stats.pruned_p_majority;
    return true;
  }

  PrepareNode<kCollect>(/*m=*/1, &node, &ctx->stats);
  size_t block_end = 0;
  for (size_t k = 0; k < node.cands.size(); ++k) {
    if (ctx->ctl->CheckAbort()) return false;
    if (k == block_end) {
      block_end = FillPanelBlock(k, root_condition, /*level1=*/true, &node);
    }
    const int cand = node.cands[k];
    ++ctx->stats.extensions_tested;

    const int split = node.p_count.count(cand);
    const int total = split + node.n_count.count(cand);
    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }

    // Materialize the subtree seed.  The baseline pair (root, cand) is now
    // fixed for the entire branch, and the panel's level-1 entries -- the
    // numerators row[cand] - row[root] -- *are* each member's coherence
    // denominator.
    const size_t col = static_cast<size_t>(node.col[static_cast<size_t>(cand)]);
    const double* h = node.panel_h.data() + col;
    const int32_t* idx = node.panel_idx.data() + col;
    SubtreeSeed seed;
    seed.second_condition = cand;
    const auto materialize = [&](const MemberCols& from, int begin, int end,
                                 MemberCols* to) {
      const size_t count = static_cast<size_t>(end - begin);
      to->gene.resize(count);
      to->head_pos.resize(count);
      to->denom.assign(h + begin, h + end);
      for (int k = begin; k < end; ++k) {
        const int g = from.gene[static_cast<size_t>(idx[k])];
        to->gene[static_cast<size_t>(k - begin)] = g;
        to->head_pos[static_cast<size_t>(k - begin)] =
            index_->position(g, cand);
      }
    };
    materialize(node.p, 0, split, &seed.p_members);
    materialize(node.n, split, total, &seed.n_members);
    work->seeds.push_back(std::move(seed));
  }
  return true;
}

void RegClusterMiner::MineSubtree(int root_condition, SubtreeSeed* seed,
                                  MinerScratch* scratch, SearchContext* ctx) {
  if (options_.collect_stats) {
    MineSubtreeImpl<true>(root_condition, seed, scratch, ctx);
  } else {
    MineSubtreeImpl<false>(root_condition, seed, scratch, ctx);
  }
}

template <bool kCollect>
void RegClusterMiner::MineSubtreeImpl(int root_condition, SubtreeSeed* seed,
                                      MinerScratch* scratch,
                                      SearchContext* ctx) {
  scratch->chain.clear();
  scratch->chain.push_back(root_condition);
  scratch->chain.push_back(seed->second_condition);
  NodeFrame& node = scratch->frame(0);
  node.p = std::move(seed->p_members);
  node.n = std::move(seed->n_members);
  Extend<kCollect>(0, scratch, ctx);
}

template <bool kCollect>
void RegClusterMiner::Extend(int depth, MinerScratch* scratch,
                             SearchContext* ctx) {
  NodeFrame& node = scratch->frame(depth);
  if (!HasAllRequired(node.p, node.n, scratch)) return;
  if (ctx->ctl->OnNode()) return;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  const int m = static_cast<int>(scratch->chain.size());

  // Pruning (1): not enough genes overall.  For m >= 2 the member lists are
  // disjoint, so the sum is the exact union size.
  const int total_members = node.p.size() + node.n.size();
  if (options_.prune_min_genes && total_members < min_g) {
    ++ctx->stats.pruned_min_genes;
    return;
  }
  // Pruning (3a): fewer than MinG/2 p-members can never be a majority.
  if (options_.prune_p_majority && 2 * node.p.size() < min_g) {
    ++ctx->stats.pruned_p_majority;
    return;
  }

  // Step 3: emit if validated and representative; a duplicate prunes the
  // whole branch (pruning 3b).  Under closed_chains_only the emission is
  // deferred until we know whether some extension keeps the entire member
  // set (in which case this node is subsumed and stays silent).
  const bool emit_candidate =
      m >= options_.min_conditions && total_members >= min_g;
  if (emit_candidate && !options_.closed_chains_only) {
    if (!MaybeEmit<kCollect>(scratch->chain, node.p, node.n, ctx)) {
      return;
    }
    if (ctx->ctl->stopped) return;  // the emission exhausted a quota
  }
  bool child_kept_all = false;

  // Step 4: candidate generation and per-member row caching (bitmap ORs and
  // bit probes against the RWaveBitmapIndex replace the per-gene model
  // walks; the sets produced are identical by construction).
  const bool profile = options_.profile_phases;
  int64_t t0 = profile ? NowNs() : 0;
  PrepareNode<kCollect>(m, &node, &ctx->stats);
  if (profile) ctx->stats.filter_ns += NowNs() - t0;
  const int ckm = scratch->chain.back();

  size_t block_end = 0;
  for (size_t k = 0; k < node.cands.size(); ++k) {
    if (ctx->ctl->CheckAbort()) return;
    // Score: one member-major pass fills the coherence scores H (Eq. 7) of
    // a block of candidates at once; the member's cached baseline
    // denominator makes the formula identical for p- and n-members (both
    // flip sign, Lemma 3.2).
    if (k == block_end) {
      if (profile) t0 = NowNs();
      block_end = FillPanelBlock(k, ckm, /*level1=*/false, &node);
      if (profile) ctx->stats.score_ns += NowNs() - t0;
    }
    const int cand = node.cands[k];
    ++ctx->stats.extensions_tested;

    // Genes of X^cand: p-members stepping up to cand, n-members stepping
    // down, both still able to reach MinC (pruning 2).
    const int split = node.p_count.count(cand);
    const int total = split + node.n_count.count(cand);
    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }
    if constexpr (kCollect) {
      ++ctx->stats.coherence_divide_calls;
      ctx->stats.coherence_scores += total;
    }
    const size_t col = static_cast<size_t>(node.col[static_cast<size_t>(cand)]);
    const double* h = node.panel_h.data() + col;

    // Pre-screen: most candidates have no epsilon-window at all, and an
    // O(n) bucket count over the column in place proves it without the
    // sort and the window scan below.  It rejects nothing the scan accepts,
    // so the count is the scan's own (pruning 4).  Like the scan, it is
    // outside the phase timers.
    const double eps = options_.epsilon;
    if (!CoherenceWindowPossible(h, total, eps, min_g,
                                 &scratch->screen_counts)) {
      ++ctx->stats.pruned_coherence;
      continue;
    }

    // Sort: gather the surviving column's genes and denominators by member
    // index (outside the phase timers, like the screen), then index-sort
    // the score column; rows never move.  The radix sort reproduces the
    // (score asc, gene asc) comparator order byte for byte, and also emits
    // the sorted score column so the window scan below runs over contiguous
    // memory instead of chasing order[] indirections (see
    // util/radix_sort.h).
    node.GatherScored(node.panel_idx.data() + col, split, total);
    if (profile) t0 = NowNs();
    node.order.resize(static_cast<size_t>(total));
    node.sc_hs.resize(static_cast<size_t>(total));
    util::RadixSortScored(h, node.sc_gene.data(), split, total,
                          node.order.data(), node.sc_hs.data(),
                          &scratch->sort_scratch);
    if (profile) ctx->stats.sort_ns += NowNs() - t0;

    // Sliding window (step 5): maximal intervals of score span <= epsilon
    // with at least MinG genes; each spawns a child node.
    bool any_window = false;
    const size_t n_scored = static_cast<size_t>(total);
    const double* hs = node.sc_hs.data();
    size_t hi = 0;
    size_t prev_hi = 0;  // hi of the previous lo, for the maximality test
    for (size_t lo = 0; lo < n_scored; ++lo) {
      if (hi < lo + 1) hi = lo + 1;
      while (hi < n_scored && hs[hi] - hs[lo] <= eps) {
        ++hi;
      }
      // [lo, hi) is the widest window starting at lo; hi is non-decreasing
      // in lo, so the window is maximal (not contained in the previous
      // window) iff hi advanced.
      const bool maximal = lo == 0 || hi > prev_hi;
      prev_hi = hi;
      if (!maximal || static_cast<int>(hi - lo) < min_g) continue;
      any_window = true;
      if (lo == 0 && hi == n_scored && total == total_members) {
        child_kept_all = true;
      }
      // Child build: window indices below the split are p-members.  Each
      // scored half is gene-ascending, so sorting the index subsets
      // restores the deterministic by-gene member order.
      node.win_p.clear();
      node.win_n.clear();
      for (size_t i = lo; i < hi; ++i) {
        const int idx = node.order[i];
        (idx < split ? node.win_p : node.win_n).push_back(idx);
      }
      std::sort(node.win_p.begin(), node.win_p.end());
      std::sort(node.win_n.begin(), node.win_n.end());
      NodeFrame& child = scratch->frame(depth + 1);
      child.p.clear();
      child.n.clear();
      // Lazy head lookup: only members of a window that actually spawns a
      // child ever need their position at `cand`.
      for (const int idx : node.win_p) {
        const int g = node.sc_gene[static_cast<size_t>(idx)];
        child.p.push_back(g, index_->position(g, cand),
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      for (const int idx : node.win_n) {
        const int g = node.sc_gene[static_cast<size_t>(idx)];
        child.n.push_back(g, index_->position(g, cand),
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      scratch->chain.push_back(cand);
      Extend<kCollect>(depth + 1, scratch, ctx);
      scratch->chain.pop_back();
      if (ctx->ctl->stopped) return;
    }
    if (!any_window) ++ctx->stats.pruned_coherence;
  }

  if (emit_candidate && options_.closed_chains_only && !child_kept_all) {
    (void)MaybeEmit<kCollect>(scratch->chain, node.p, node.n, ctx);
  }
}

template <bool kCollect>
bool RegClusterMiner::MaybeEmit(const std::vector<int>& chain,
                                const MemberCols& p, const MemberCols& n,
                                SearchContext* ctx) {
  const size_t np = static_cast<size_t>(p.size());
  const size_t nn = static_cast<size_t>(n.size());
  const bool representative =
      np > nn || (np == nn && LexSmallerThanReversed(chain));
  if (!representative) return true;  // keep searching; no output here

  const bool profile = options_.profile_phases;
  const int64_t t0 = profile ? NowNs() : 0;
  if (options_.prune_duplicates) {
    // 128-bit key over (ordered chain | sorted gene union) -- the same
    // identity as RegCluster::Key(), without building any string.  Emission
    // requires m >= MinC >= 2, where the member lists are disjoint and
    // gene-sorted, so the union is a plain merge walk.
    util::Fnv128 key;
    for (int c : chain) key.MixInt(c);
    key.MixInt(-1);  // domain separator between chain and gene ids
    size_t i = 0;
    size_t j = 0;
    while (i < np || j < nn) {
      if (j >= nn || (i < np && p.gene[i] < n.gene[j])) {
        key.MixInt(p.gene[i++]);
      } else {
        key.MixInt(n.gene[j++]);
      }
    }
    if constexpr (kCollect) ++ctx->stats.dedup_probes;
    auto [it, inserted] = ctx->seen_keys.insert(key.Digest());
    (void)it;
    if (!inserted) {
      ++ctx->stats.pruned_duplicate;
      if (profile) ctx->stats.emit_ns += NowNs() - t0;
      return false;  // prune the branch rooted at this duplicate
    }
  }

  RegCluster cluster;
  cluster.chain = chain;
  cluster.p_genes = p.gene;
  cluster.n_genes = n.gene;
  ctx->out.push_back(std::move(cluster));
  ++ctx->stats.clusters_emitted;
  ctx->ctl->OnEmit(static_cast<int64_t>(
      (chain.size() + np + nn) * sizeof(int) + sizeof(RegCluster)));
  if (profile) ctx->stats.emit_ns += NowNs() - t0;
  return true;
}

}  // namespace core
}  // namespace regcluster
