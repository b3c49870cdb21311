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
#include "matrix/matrix_io.h"
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

/// Writes a member's combined row -- its successor (`up`) or predecessor row
/// of chain-head condition `head` AND its eligibility row for `need` more
/// conditions (ones without pruning 2) -- to `comb`, and the bits it cut to
/// `cut`.
void CombineMemberRow(const RWaveBitmapIndex& index, bool up, bool prune2,
                      int gene, int head, int need, uint64_t* comb,
                      uint64_t* cut) {
  const int words = index.num_words();
  const uint64_t* cand_row =
      up ? index.SuccessorRow(head, gene) : index.PredecessorRow(head, gene);
  const uint64_t* elig =
      prune2 ? (up ? index.UpEligible(gene, need)
                   : index.DownEligible(gene, need))
             : index.ones_row();
  for (int w = 0; w < words; ++w) {
    comb[w] = cand_row[w] & elig[w];
    cut[w] = cand_row[w] & ~elig[w];
  }
}


}  // namespace

/// Members PrepareNode runs ahead when prefetching their index rows.
constexpr size_t kIndexPrefetchAhead = 8;

/// One DFS node's reusable state.  The member columns are struct-of-arrays
/// (MemberCols), and the per-node caches below are parallel to them:
///
///   *_comb   per member, the W-word bitmap of conditions the member can
///            extend to (successor/predecessor row AND MinC-eligibility
///            row);
///   *_count  per condition, how many members' *_comb rows hold it -- a
///            candidate's p/n column sizes;
///   *_cut    per member, the W-word bitmap of conditions the MinC bound
///            cut from its successor/predecessor row (pruning-2 counter).
///
/// The score panel holds the coherence scores of every candidate of the
/// node: per candidate column (starting at `col[c]`), its p-entries then
/// its n-entries, each in member order and therefore gene-ascending, as
/// (panel_h score, panel_idx member index).  `cursor` is the fill's write
/// position per column and `fill_mask` the filled candidates.  The level-1
/// root frame holds no panel, and its MemberCols carry gene ids only.
///
/// The scored columns (sc_*) hold the gene ids and denominators of one
/// column that passed the pre-screen, gathered by member index for the
/// sort and the child build; `order` index-sorts the column without
/// moving it.
struct RegClusterMiner::NodeFrame {
  MemberCols p, n;

  std::vector<uint64_t> p_comb, n_comb;
  util::BitPositionCounter p_count, n_count;
  std::vector<uint64_t> p_cut, n_cut;

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
    return VecBytes(p.gene) + VecBytes(p.denom) + VecBytes(n.gene) +
           VecBytes(n.denom) +
           VecBytes(p_comb) + VecBytes(n_comb) + p_count.ApproxBytes() +
           n_count.ApproxBytes() + VecBytes(p_cut) + VecBytes(n_cut) +
           VecBytes(cand_words) + VecBytes(cands) + VecBytes(col) +
           VecBytes(cursor) + VecBytes(fill_mask) + VecBytes(panel_h) +
           VecBytes(panel_idx) + VecBytes(sc_hs) + VecBytes(sc_denom) +
           VecBytes(sc_gene) +
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
  util::SortScratch sort_scratch;  ///< radix-sort key/index buffers
  std::vector<int> screen_counts;  ///< CoherenceWindowPossible buckets

  void Init(int num_conds) {
    chain.reserve(static_cast<size_t>(num_conds) + 1);
  }

  NodeFrame& frame(int depth) {
    while (frames.size() <= static_cast<size_t>(depth)) frames.emplace_back();
    return frames[static_cast<size_t>(depth)];
  }

  /// Approximate live bytes of this arena -- the quantity the soft memory
  /// limit bounds.  Capacity-based, so it tracks the high-water mark.
  int64_t ApproxBytes() const {
    int64_t total = VecBytes(chain) + root_frame.ApproxBytes() +
                    sort_scratch.ApproxBytes() + VecBytes(screen_counts);
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
/// observes a trip abandons its slot (never marks itself complete), and a
/// task still queued at the trip observes it on entry and returns at once.
struct RegClusterMiner::TaskControl {
  util::BudgetGuard* guard = nullptr;  ///< shared stop sources; may be null
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
  util::WallTimer total_timer;    ///< Prepare() entry -> Finalize() exit
  util::WallTimer mine_timer;     ///< model ready -> Finalize() exit
  util::WallTimer phase_a_timer;  ///< SubmitParallelWork() -> last task done
  std::vector<RootWork> work;   ///< one slot per level-1 condition
  std::vector<MinerScratch> scratches;  ///< phase-A per-worker arenas
  /// The level-1 conditions this run searches, ascending: root_set, or
  /// every condition when it is empty.
  std::vector<int> roots;
  int threads = 1;
  int fin_slot = 0;  ///< guard byte-report slot of the finalize pass

  /// Phase-A tasks of *this run* still queued or running: per root (by
  /// condition), and in total in the last slot.  A root task adds its
  /// subtrees before it counts itself done, so its root cannot drain early.
  /// The counts move only under `wait_mu`: once a waiter sees one at zero,
  /// no task it counts touches this RunState again.
  std::mutex wait_mu;
  std::condition_variable wait_cv;
  std::vector<int64_t> pending;
  const int64_t* watched = nullptr;  ///< the slot a blocked Wait() watches
  double phase_a_seconds = 0.0;      ///< stamped when the total drains

  void AddTasks(int root, int n) {
    std::lock_guard<std::mutex> lock(wait_mu);
    pending[static_cast<size_t>(root)] += n;
    pending.back() += n;
  }

  /// Marks one task of `root` done; wakes the waiter once its slot drains.
  void TaskDone(int root) {
    std::lock_guard<std::mutex> lock(wait_mu);
    --pending[static_cast<size_t>(root)];
    if (--pending.back() == 0) phase_a_seconds = phase_a_timer.ElapsedSeconds();
    if (watched != nullptr && *watched == 0) wait_cv.notify_one();
  }

  /// Blocks until `root`'s tasks -- every task when root < 0 -- are done.
  void Wait(int root) {
    std::unique_lock<std::mutex> lock(wait_mu);
    watched = root < 0 ? &pending.back() : &pending[static_cast<size_t>(root)];
    wait_cv.wait(lock, [this] { return *watched == 0; });
    watched = nullptr;
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

RegClusterMiner::~RegClusterMiner() {
  // Tasks of a submitted, unfinalized run still reference it.
  if (run_ != nullptr) run_->Wait(-1);
}

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Mine(
    const RootCallback& on_root) {
  util::Status prep = Prepare();
  if (!prep.ok()) return prep;
  if (run_->threads <= 1) return Finalize(on_root);
  util::TaskPool pool(run_->threads);
  SubmitParallelWork(&pool);
  auto out = Finalize(on_root);
  outcome_.pool_steals = pool.total_steals();
  outcome_.pool_queue_high_water = pool.queue_depth_high_water();
  return out;
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
  int prev_root = -1;
  for (int c : o.root_set) {
    if (c < 0 || c >= data.num_conditions()) {
      return util::Status::OutOfRange("root_set condition outside the matrix");
    }
    if (c <= prev_root) {
      return util::Status::InvalidArgument(
          "root_set must be sorted strictly ascending");
    }
    prev_root = c;
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
      // The first non-finite cell is infinite: RejectInfiniteCells names it.
      return matrix::RejectInfiniteCells(data);
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
  // The tasks of a restarted, unfinalized run read the state rebuilt below.
  if (run_ != nullptr) run_->Wait(-1);
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
  run->pending.assign(static_cast<size_t>(data_.num_conditions()) + 1, 0);
  run->roots = options_.root_set;
  if (run->roots.empty()) {
    run->roots.resize(static_cast<size_t>(data_.num_conditions()));
    std::iota(run->roots.begin(), run->roots.end(), 0);
  }
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
    MinerScratch* scratch, int slot) {
  TaskControl ctl;
  ctl.guard = guard_.get();
  ctl.scratch = scratch;
  ctl.slot = slot;
  ctl.interval = options_.budget_check_interval;
  ctl.countdown = ctl.interval;
  return ctl;
}

// Phase A: optimistic mining.  Every root / subtree task runs under the
// shared guard with unlimited local quotas; on a trip, in-flight tasks
// abandon their slot atomically (they simply never mark themselves
// complete), and the queued tasks of this run observe the trip on entry and
// return immediately.  Queued tasks are never dropped: the pool may be
// shared with other runs, and each task's own TaskDone() is what
// Finalize() waits for.  Which roots finish here is
// scheduling-dependent -- phase B makes the *output* deterministic.
void RegClusterMiner::SubmitParallelWork(util::TaskPool* pool) {
  if (run_ == nullptr) return;
  RunState* run = run_.get();
  EnsureGuard(pool->num_workers() + 1);
  const int num_conds = data_.num_conditions();
  run->scratches =
      std::vector<MinerScratch>(static_cast<size_t>(pool->num_workers()));
  for (MinerScratch& s : run->scratches) s.Init(num_conds);
  MinerScratch* scratches = run->scratches.data();
  RootWork* work = run->work.data();
  for (const int c : run->roots) run->AddTasks(c, 1);
  run->phase_a_timer.Reset();
  // Each root task seeds its level-2 subtrees and immediately re-submits
  // them: large subtrees become stealable instead of serializing behind
  // their root, which is what makes imbalanced trees scale.
  for (const int c : run->roots) {
    RootWork* rw = &work[c];
    pool->Submit([this, c, rw, pool, scratches, run](int worker) {
      MinerScratch* scratch = &scratches[worker];
      TaskControl ctl = MakeControl(scratch, worker);
      rw->ctx.ctl = &ctl;
      const bool seed_ok = !ctl.CheckAbort() && SeedRoot(c, rw, scratch);
      ctl.Finish();
      rw->ctx.ctl = nullptr;
      if (!seed_ok) {  // abandoned: the root stays incomplete
        run->TaskDone(c);
        return;
      }
      rw->subtree_ctx.resize(rw->seeds.size());
      rw->seeded.store(true, std::memory_order_release);
      run->AddTasks(c, static_cast<int>(rw->seeds.size()));
      for (size_t i = 0; i < rw->seeds.size(); ++i) {
        pool->Submit([this, c, rw, i, scratches, run](int w) {
          MinerScratch* s = &scratches[w];
          TaskControl sub_ctl = MakeControl(s, w);
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
          run->TaskDone(c);
        });
      }
      run->TaskDone(c);
    });
  }
}

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Finalize(
    const RootCallback& on_root) {
  if (run_ == nullptr) {
    return util::Status::FailedPrecondition(
        "Finalize() requires a successful Prepare()");
  }
  const int num_conds = data_.num_conditions();
  std::vector<RootWork>& work = run_->work;
  // Serial staged runs reach here without a phase A; the guard (and with it
  // the deadline clock) then starts now.
  EnsureGuard(run_->threads + 1);

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
  fin_scratch.Init(num_conds);
  const int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  int64_t node_rem = options_.max_nodes >= 0 ? options_.max_nodes : kUnlimited;
  int64_t cluster_rem =
      options_.max_clusters >= 0 ? options_.max_clusters : kUnlimited;
  util::StopReason stop = util::StopReason::kNone;
  int cut_root = num_conds;
  int roots_included = 0;
  std::vector<RegCluster> out;
  for (const int c : run_->roots) {
    run_->Wait(c);  // this root's own phase-A tasks only
    RootWork& rw = work[static_cast<size_t>(c)];
    if (!rw.Complete()) {
      if (guard_ != nullptr &&
          guard_->hard_reason() != util::StopReason::kNone) {
        stop = guard_->hard_reason();
        cut_root = c;
        break;
      }
      rw.Reset();
      TaskControl ctl = MakeControl(&fin_scratch, run_->fin_slot);
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
    MinerStats root_stats = rw.ctx.stats;
    for (const SearchContext& ctx : rw.subtree_ctx) {
      AccumulateStats(ctx.stats, &root_stats);
    }
    if (root_stats.nodes_expanded > node_rem) {
      stop = util::StopReason::kNodeBudget;
      cut_root = c;
      break;
    }
    if (root_stats.clusters_emitted > cluster_rem) {
      stop = util::StopReason::kClusterBudget;
      cut_root = c;
      break;
    }
    node_rem -= root_stats.nodes_expanded;
    cluster_rem -= root_stats.clusters_emitted;
    ++roots_included;
    // Canonical (root, second-condition) merge: deterministic regardless of
    // thread count and of which worker ran which task.
    AccumulateStats(root_stats, &stats_);
    const size_t first = out.size();
    for (SearchContext& ctx : rw.subtree_ctx) {
      out.insert(out.end(), std::make_move_iterator(ctx.out.begin()),
                 std::make_move_iterator(ctx.out.end()));
    }
    if (on_root) on_root(RootSlice{c, root_stats, out, first});
  }
  phase_b.Stop();
  run_->Wait(-1);  // a cut leaves later roots' tasks in flight
  outcome_.phase_a_seconds = run_->phase_a_seconds;
  if (options_.remove_dominated) out = RemoveDominated(std::move(out));
  stats_.mine_seconds = run_->mine_timer.ElapsedSeconds();

  int64_t parallel_scratch_bytes = 0;
  for (const MinerScratch& s : run_->scratches) {
    parallel_scratch_bytes += s.ApproxBytes();
  }
  const bool truncated = stop != util::StopReason::kNone;
  outcome_.status = truncated ? MineStatus::kTruncated : MineStatus::kComplete;
  outcome_.stop_reason = stop;
  outcome_.nodes_visited =
      guard_ != nullptr ? guard_->total_nodes() : stats_.nodes_expanded;
  outcome_.roots_completed = roots_included;
  outcome_.roots_total = static_cast<int>(run_->roots.size());
  outcome_.wall_seconds = run_->total_timer.ElapsedSeconds();
  outcome_.peak_scratch_bytes =
      std::max<int64_t>(guard_ != nullptr ? guard_->peak_bytes() : 0,
                        parallel_scratch_bytes + fin_scratch.ApproxBytes());
  outcome_.budget_polls = guard_ != nullptr ? guard_->total_polls() : 0;
  outcome_.model_bytes = static_cast<int64_t>(model_->MemoryBytes());
  outcome_.mapped_bytes = data_.mapped_bytes();
  if (truncated) {
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

bool RegClusterMiner::PrunedBySize(int np, int nn, MinerStats* stats) const {
  // Pruning (1): not enough genes overall.
  if (options_.prune_min_genes && np + nn < options_.min_genes) {
    ++stats->pruned_min_genes;
    return true;
  }
  // Pruning (3a): fewer than MinG/2 p-members can never be a majority.
  if (options_.prune_p_majority && 2 * np < options_.min_genes) {
    ++stats->pruned_p_majority;
    return true;
  }
  return false;
}

bool RegClusterMiner::HasAllRequired(const MemberCols& p,
                                     const MemberCols& n) const {
  if (num_required_ == 0) return true;
  // For m >= 2 the lists are disjoint and each holds a gene at most once,
  // so counting the required members counts distinct genes.
  int found = 0;
  for (const MemberCols* mem : {&p, &n}) {
    for (const int g : mem->gene) found += required_gene_[g] ? 1 : 0;
  }
  return found == num_required_;
}

void RegClusterMiner::PrepareNode(int head, int m, NodeFrame* node,
                                  MinerStats* stats) {
  const int words = index_->num_words();
  const int need = options_.min_conditions - m;
  const bool prune2 = options_.prune_min_conds;

  // Per member: the combined row, counted per condition, and the cut row.
  const auto cache = [&](const MemberCols& mem, bool up,
                         std::vector<uint64_t>& comb,
                         util::BitPositionCounter& count,
                         std::vector<uint64_t>& cut) {
    const size_t members = static_cast<size_t>(mem.size());
    comb.resize(members * static_cast<size_t>(words));
    cut.resize(members * static_cast<size_t>(words));
    count.Reset(words);
    for (size_t i = 0; i < members; ++i) {
      // Members are gene-ascending, so their rows are an ascending but
      // sparse run through the head's slab; fetching a few members ahead
      // overlaps the misses.
      if (i + kIndexPrefetchAhead < members) {
        const int ga = mem.gene[i + kIndexPrefetchAhead];
        __builtin_prefetch(up ? index_->SuccessorRow(head, ga)
                              : index_->PredecessorRow(head, ga));
        if (prune2) {
          __builtin_prefetch(up ? index_->UpEligible(ga, need)
                                : index_->DownEligible(ga, need));
        }
      }
      const size_t at = i * static_cast<size_t>(words);
      CombineMemberRow(*index_, up, prune2, mem.gene[i], head, need,
                       comb.data() + at, cut.data() + at);
      count.Add(comb.data() + at);
    }
    count.Flush();
    // One word op per member word for the row and one for its count.
    stats->index_word_ops += 2 * static_cast<int64_t>(members) * words;
  };
  cache(node->p, /*up=*/true, node->p_comb, node->p_count, node->p_cut);
  cache(node->n, /*up=*/false, node->n_comb, node->n_count, node->n_cut);
  ListCandidates(node, stats);
}

void RegClusterMiner::ListCandidates(NodeFrame* node,
                                     MinerStats* stats) const {
  const int words = index_->num_words();
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
  stats->index_word_ops += static_cast<int64_t>(np + 1) * words;
  node->cands.clear();
  util::ForEachSetBit(node->cand_words.data(), words,
                      [&](int c) { node->cands.push_back(c); });

  // The pruning-2 drop counter -- candidate bits of the members' cut rows
  // -- for the whole node here rather than per candidate (identical totals;
  // a mid-node budget stop never leaves it at a scheduling-dependent
  // prefix).
  if (!options_.prune_min_conds) return;
  const size_t row_words = static_cast<size_t>(words);
  for (const auto& [mem, cut] :
       {std::pair{&node->p, &node->p_cut}, {&node->n, &node->n_cut}}) {
    for (size_t i = 0; i < mem->gene.size() * row_words; i += row_words) {
      for (size_t w = 0; w < row_words; ++w) {
        stats->genes_dropped_min_conds +=
            std::popcount((*cut)[i + w] & node->cand_words[w]);
      }
    }
  }
}

void RegClusterMiner::FillPanel(int ckm, NodeFrame* node) const {
  const int words = index_->num_words();
  const int min_g = options_.min_genes;
  const bool prune_g = options_.prune_min_genes;
  const size_t num_conds = static_cast<size_t>(index_->num_conditions());
  node->col.resize(num_conds);
  node->cursor.resize(num_conds);
  node->fill_mask.assign(static_cast<size_t>(words), 0);

  // Lay the panel out: one column per candidate, ascending.  A column
  // pruning (1) will reject gets no entries at all.
  int entries = 0;
  for (const int c : node->cands) {
    node->col[static_cast<size_t>(c)] = entries;
    node->cursor[static_cast<size_t>(c)] = entries;
    const int total = node->p_count.count(c) + node->n_count.count(c);
    if (prune_g && total < min_g) continue;
    util::SetBit(node->fill_mask.data(), c);
    entries += total;
  }
  // Grow only: a shrink-then-grow would zero-fill the panel on every node.
  if (node->panel_h.size() < static_cast<size_t>(entries)) {
    node->panel_h.resize(static_cast<size_t>(entries));
    node->panel_idx.resize(static_cast<size_t>(entries));
  }

  // One member-major pass per half: p-members first, so each column's
  // cursor ends its p-entries exactly where its n-entries begin.
  const double* matrix = data_.row_data(0);
  const int64_t stride = static_cast<int64_t>(num_conds);
  const auto fill = [&](const MemberCols& mem,
                        const std::vector<uint64_t>& comb) {
    const PanelMembers members{mem.gene.data(), mem.denom.data(),
                               comb.data(), mem.size(), words};
    FillScorePanel(members, matrix, stride, ckm, node->fill_mask.data(),
                   node->cursor.data(), node->panel_h.data(),
                   node->panel_idx.data());
  };
  fill(node->p, node->p_comb);
  fill(node->n, node->n_comb);
}

bool RegClusterMiner::SeedRoot(int root_condition, RootWork* work,
                               MinerScratch* scratch) {
  SearchContext* ctx = &work->ctx;
  if (!allowed_cond_[static_cast<size_t>(root_condition)]) return true;
  // Level-1 chain: the root condition, with the genes that can still grow a
  // chain of length MinC through it upward (p) or downward (n).  One gene
  // pass decides membership and caches the combined and cut rows too
  // (PrepareNode's work at m = 1), streaming the root's condition slabs.
  NodeFrame& node = scratch->root_frame;
  const int num_genes = data_.num_genes();
  const int words = index_->num_words();
  const int min_c = options_.min_conditions;
  const bool prune2 = options_.prune_min_conds;
  node.p.gene.clear();
  node.n.gene.clear();
  for (auto* rows : {&node.p_comb, &node.n_comb, &node.p_cut, &node.n_cut}) {
    rows->resize(static_cast<size_t>(num_genes) * words);
  }
  node.p_count.Reset(words);
  node.n_count.Reset(words);
  const auto add = [&](bool up, int g) {
    MemberCols& mem = up ? node.p : node.n;
    const size_t at = mem.gene.size() * static_cast<size_t>(words);
    uint64_t* comb = (up ? node.p_comb : node.n_comb).data() + at;
    CombineMemberRow(*index_, up, prune2, g, root_condition, min_c - 1, comb,
                     (up ? node.p_cut : node.n_cut).data() + at);
    (up ? node.p_count : node.n_count).Add(comb);
    mem.gene.push_back(g);
  };
  int required_members = 0;
  for (int g = 0; g < num_genes; ++g) {
    const bool up_ok =
        !prune2 || index_->ChainEligibleUp(g, root_condition, min_c);
    const bool down_ok =
        !prune2 || index_->ChainEligibleDown(g, root_condition, min_c);
    ctx->stats.genes_dropped_min_conds += (up_ok ? 0 : 1) + (down_ok ? 0 : 1);
    if (up_ok) add(/*up=*/true, g);
    if (down_ok) add(/*up=*/false, g);
    required_members +=
        (up_ok || down_ok) && required_gene_[static_cast<size_t>(g)] ? 1 : 0;
  }
  node.p_count.Flush();
  node.n_count.Flush();

  // The level-1 body of the search (the m == 1 specialization of Extend):
  // no emission is possible (MinC >= 2) and every coherence score of the
  // first extension is identically 1 (Eq. 7), so each candidate yields a
  // single all-inclusive window -- one SubtreeSeed.
  if (required_members != num_required_) return true;
  if (ctx->ctl->OnNode()) return false;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  const int np = node.p.size();
  const int nn = node.n.size();
  // At level 1 a gene may appear in both member lists; pruning (1)'s sum
  // is then an over-estimate of the union, which is safe (prunes less).
  if (PrunedBySize(np, nn, &ctx->stats)) return true;

  // The pass did PrepareNode's row work; charge it as PrepareNode does.
  ctx->stats.index_word_ops += 2 * static_cast<int64_t>(np + nn) * words;
  ListCandidates(&node, &ctx->stats);

  // Keep the candidates pruning (1) leaves, each with a seed reserved for
  // its p/n column counts; `col` maps a kept candidate to its seed.
  node.col.resize(static_cast<size_t>(index_->num_conditions()));
  node.fill_mask.assign(static_cast<size_t>(words), 0);
  for (const int cand : node.cands) {
    if (ctx->ctl->CheckAbort()) return false;
    ++ctx->stats.extensions_tested;
    const int split = node.p_count.count(cand);
    const int total = split + node.n_count.count(cand);
    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }
    util::SetBit(node.fill_mask.data(), cand);
    node.col[static_cast<size_t>(cand)] =
        static_cast<int>(work->seeds.size());
    SubtreeSeed& seed = work->seeds.emplace_back();
    seed.second_condition = cand;
    seed.p_members.reserve(static_cast<size_t>(split));
    seed.n_members.reserve(static_cast<size_t>(total - split));
  }
  if (work->seeds.empty()) return true;

  // One member pass per half writes every kept candidate's seed column, in
  // gene order: the gene and the level-2 denominator row[cand] - row[root]
  // (Eq. 7).
  const double* matrix = data_.row_data(0);
  const int64_t stride = static_cast<int64_t>(index_->num_conditions());
  const auto seed_half = [&](const MemberCols& mem,
                             const std::vector<uint64_t>& comb,
                             MemberCols SubtreeSeed::*half) {
    for (int i = 0; i < mem.size(); ++i) {
      const uint64_t* live = comb.data() + static_cast<size_t>(i) * words;
      const int g = mem.gene[static_cast<size_t>(i)];
      const double* row = matrix + g * stride;
      const double base = row[root_condition];
      for (int w = 0; w < words; ++w) {
        uint64_t bits = live[w] & node.fill_mask[static_cast<size_t>(w)];
        while (bits != 0) {
          const int c = w * util::kBitsPerWord + std::countr_zero(bits);
          bits &= bits - 1;
          const int seed = node.col[static_cast<size_t>(c)];
          (work->seeds[static_cast<size_t>(seed)].*half)
              .push_back(g, row[c] - base);
        }
      }
    }
  };
  seed_half(node.p, node.p_comb, &SubtreeSeed::p_members);
  seed_half(node.n, node.n_comb, &SubtreeSeed::n_members);
  return true;
}

void RegClusterMiner::MineSubtree(int root_condition, SubtreeSeed* seed,
                                  MinerScratch* scratch, SearchContext* ctx) {
  scratch->chain.clear();
  scratch->chain.push_back(root_condition);
  scratch->chain.push_back(seed->second_condition);
  NodeFrame& node = scratch->frame(0);
  node.p = std::move(seed->p_members);
  node.n = std::move(seed->n_members);
  Extend(0, scratch, ctx);
}

void RegClusterMiner::Extend(int depth, MinerScratch* scratch,
                             SearchContext* ctx) {
  NodeFrame& node = scratch->frame(depth);
  if (!HasAllRequired(node.p, node.n)) return;
  if (ctx->ctl->OnNode()) return;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  const int m = static_cast<int>(scratch->chain.size());

  // For m >= 2 the member lists are disjoint: (1) sums the exact union.
  const int total_members = node.p.size() + node.n.size();
  if (PrunedBySize(node.p.size(), node.n.size(), &ctx->stats)) return;

  // Step 3: emit if validated and representative; a duplicate prunes the
  // whole branch (pruning 3b).  Under closed_chains_only the emission is
  // deferred until we know whether some extension keeps the entire member
  // set (in which case this node is subsumed and stays silent).
  const bool emit_candidate =
      m >= options_.min_conditions && total_members >= min_g;
  if (emit_candidate && !options_.closed_chains_only) {
    if (!MaybeEmit(scratch->chain, node.p, node.n, ctx)) {
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
  PrepareNode(scratch->chain.back(), m, &node, &ctx->stats);
  if (profile) ctx->stats.filter_ns += NowNs() - t0;

  // Score: one member-major pass fills the coherence scores H (Eq. 7) of
  // every candidate at once; the member's cached baseline denominator makes
  // the formula identical for p- and n-members (both flip sign, Lemma 3.2).
  if (profile) t0 = NowNs();
  FillPanel(scratch->chain.back(), &node);
  if (profile) ctx->stats.score_ns += NowNs() - t0;

  for (const int cand : node.cands) {
    if (ctx->ctl->CheckAbort()) return;
    ++ctx->stats.extensions_tested;

    // Genes of X^cand: p-members stepping up to cand, n-members stepping
    // down, both still able to reach MinC (pruning 2).
    const int split = node.p_count.count(cand);
    const int total = split + node.n_count.count(cand);
    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }
    ++ctx->stats.coherence_divide_calls;
    ctx->stats.coherence_scores += total;
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
      for (const int idx : node.win_p) {
        child.p.push_back(node.sc_gene[static_cast<size_t>(idx)],
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      for (const int idx : node.win_n) {
        child.n.push_back(node.sc_gene[static_cast<size_t>(idx)],
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      scratch->chain.push_back(cand);
      Extend(depth + 1, scratch, ctx);
      scratch->chain.pop_back();
      if (ctx->ctl->stopped) return;
    }
    if (!any_window) ++ctx->stats.pruned_coherence;
  }

  if (emit_candidate && options_.closed_chains_only && !child_kept_all) {
    (void)MaybeEmit(scratch->chain, node.p, node.n, ctx);
  }
}

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
    ++ctx->stats.dedup_probes;
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
