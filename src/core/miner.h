// The reg-cluster mining algorithm (Figure 5 of the paper).
//
// The miner performs a bi-directional depth-first search over representative
// regulation chains.  A chain C.Y = c_k1 <- c_k2 <- ... <- c_km grows one
// condition at a time; at each node the algorithm tracks
//   * p-members: genes whose RWave^gamma model links the chain upward
//     (expression strictly increasing, every step crossing >= 1 pointer),
//   * n-members: genes linking the *inverted* chain (strictly decreasing).
//
// Pruning strategies (paper numbering, all individually toggleable for the
// ablation benchmarks):
//   (1)  MinG: prune when |pX| + |nX| < MinG.
//   (2)  MinC: drop a gene when its longest remaining chain cannot reach
//        MinC conditions (RWaveModel::MaxChainUp / MaxChainDown bound).
//   (3a) p-majority: prune when 2*|pX| < MinG -- a representative chain
//        needs at least as many p- as n-members, so fewer than MinG/2
//        p-members can never validate; this also licenses scanning only
//        p-members for extension candidates.
//   (3b) duplicate: stop a branch whose validated cluster was already
//        emitted (identical chain + gene set), which happens when sliding
//        windows overlap.
//   (4)  coherence: candidate extensions whose sorted coherence scores admit
//        no window of width <= epsilon holding >= MinG genes are dropped.
//
// Representative rule: a validated cluster is emitted only from the chain
// direction with |pX| > |nX|; on a tie, from the direction whose condition
// id sequence is lexicographically smaller than its reversal.  (The paper's
// pseudocode breaks ties with "k1 < k2", which can select both or neither
// direction for some chains; the lexicographic rule keeps the same intent --
// a deterministic choice between the two directions -- while guaranteeing
// exactly-once emission.  See DESIGN.md.)

#ifndef REGCLUSTER_CORE_MINER_H_
#define REGCLUSTER_CORE_MINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/bicluster.h"
#include "core/miner_stats.h"
#include "core/rwave.h"
#include "core/rwave_index.h"
#include "core/threshold.h"
#include "matrix/store.h"
#include "util/cancellation.h"
#include "util/hash128.h"
#include "util/simd/dispatch.h"
#include "util/status.h"

namespace regcluster {
namespace util {
class TaskPool;
}  // namespace util
namespace core {

/// Continuation handle for a truncated Mine() call.  A truncated run covers
/// the canonical roots (level-1 conditions) [first, next_root); a follow-up
/// run with MinerOptions::resume set to this token covers [next_root, end),
/// and because roots are searched independently the concatenation of the two
/// cluster lists is bit-identical to a single unbudgeted run.
struct ResumeToken {
  /// First canonical root *not* covered by the output; -1 when complete.
  int next_root = -1;
  /// Fingerprint of the semantic mining options the token was issued under
  /// (see RegClusterMiner::SemanticOptionsHash); resuming under different
  /// semantics would splice incompatible outputs, so Mine() rejects it.
  uint64_t options_hash = 0;

  bool can_resume() const { return next_root >= 0; }
};

enum class MineStatus {
  kComplete,   ///< every root searched; the output is the full answer
  kTruncated,  ///< a budget/cancel stop cut the search; output is a prefix
};

/// What a Mine() call actually did -- the partial-result contract.  Always
/// populated (also for complete runs); read it via RegClusterMiner::outcome().
struct MineOutcome {
  MineStatus status = MineStatus::kComplete;
  /// Why the run stopped (kNone when complete).
  util::StopReason stop_reason = util::StopReason::kNone;
  /// Total DFS nodes visited, *including* work on roots that were abandoned
  /// or re-run and do not contribute to the output (stats().nodes_expanded
  /// counts only the deterministic included prefix).
  int64_t nodes_visited = 0;
  /// Canonical roots whose clusters are in the output, vs. roots this call
  /// was asked to search (after any resume offset).
  int roots_completed = 0;
  int roots_total = 0;
  double wall_seconds = 0.0;
  /// Peak of the approximate per-worker scratch + pending-output bytes
  /// (the quantity soft_memory_limit_bytes bounds).
  int64_t peak_scratch_bytes = 0;
  /// Set (can_resume() true) iff status == kTruncated.
  ResumeToken resume;

  /// Execution telemetry.  Everything below describes *how* the run was
  /// scheduled, not *what* was mined: the values legitimately vary with
  /// thread count, machine speed and stealing luck, which is why they live
  /// here and not in the deterministic MinerStats.
  double phase_a_seconds = 0.0;  ///< parallel optimistic phase (0 if serial)
  double phase_b_seconds = 0.0;  ///< canonical finalize / serial mining phase
  int64_t pool_steals = 0;       ///< TaskPool cross-worker task transfers
  int64_t pool_queue_high_water = 0;  ///< deepest single worker deque seen
  int64_t budget_polls = 0;      ///< BudgetGuard::Poll() calls, all workers
  /// Always kScalar: one portable kernel path runs on every host.  Kept
  /// only because the JSON "simd" field and the regcluster_simd_level
  /// metric still carry it.
  util::simd::Level simd_level = util::simd::Level::kScalar;

  /// Always 0 (no model cache exists).  Kept only because
  /// benchmark/trace_driver.cc reads them and the RGCXCKP1 layout and the
  /// metric snapshots carry them.
  int64_t model_cache_hits = 0;
  int64_t model_cache_misses = 0;
  int64_t model_cache_evictions = 0;
  int64_t model_cache_resident_bytes = 0;
  /// Heap bytes of the gamma model (its bitmap index).
  int64_t model_bytes = 0;
  /// Bytes of the input matrix served by a file mapping (matrix::MappedMatrix)
  /// rather than heap; 0 for resident matrices.
  int64_t mapped_bytes = 0;
};

/// Immutable per-gamma model state: the successor-bitmap index baked from the
/// per-gene RWave^gamma models.  The search probes only the index (plus the
/// matrix rows), so the build drops each gene's model as soon as its index
/// slice is baked.  Everything the miner derives from (matrix, gamma
/// spec) alone -- independent of MinG / MinC / epsilon / budget knobs --
/// lives here, so one instance can back any number of concurrent Mine()
/// calls that agree on the gamma spec (see MinerOptions::shared_model).
/// The index is built with eligibility rows for chain requirements up to
/// `max_chain_need`; index queries clamp into that range, so a model built
/// with the *largest* MinC of a batch answers every smaller MinC with
/// bit-identical results.
struct SharedGammaModel {
  GammaSpec spec;
  int max_chain_need = 0;
  RWaveBitmapIndex index;
  /// Always 0: each gene's model is built inside its index slice bake, so
  /// the whole build reports in index_build_seconds.
  double rwave_build_seconds = 0.0;
  double index_build_seconds = 0.0;

  /// Builds the index for `data` under `spec` in one gene-striped pass: a
  /// worker builds gene g's RWaveModel, bakes g's slice and drops the
  /// model.  The matrix must outlive the returned model.  `max_chain_need`
  /// must be >= the largest MinC any sharing run will use (Mine() rejects a
  /// model whose ceiling is below its MinC).  `num_threads` != 1 bakes gene
  /// stripes on a TaskPool (0 = hardware concurrency); each gene's index
  /// slice is disjoint, so the result is byte-identical at any thread count.
  static std::shared_ptr<const SharedGammaModel> Build(
      const matrix::MatrixStore& data, const GammaSpec& spec,
      int max_chain_need, int num_threads = 1);

  /// Same as Build; kept only because benchmark/trace_driver.cc calls it.
  static std::shared_ptr<const SharedGammaModel> BuildOutOfCore(
      const matrix::MatrixStore& data, const GammaSpec& spec,
      int max_chain_need, int64_t /*cache_bytes*/, int /*cache_shards*/,
      int num_threads) {
    return Build(data, spec, max_chain_need, num_threads);
  }

  /// Heap footprint of the baked index tables, for reporting.
  size_t MemoryBytes() const { return index.MemoryBytes(); }
};

/// Mining parameters (paper notation in comments).
struct MinerOptions {
  /// MinG: minimum number of genes (p-members + n-members) per cluster.
  int min_genes = 2;
  /// MinC: minimum number of conditions (chain length) per cluster.
  int min_conditions = 2;
  /// Regulation threshold scale.  Under the default kRangeFraction policy
  /// this is the paper's gamma in [0, 1]: a fraction of each gene's
  /// expression range (Eq. 4).  Other policies (Section 3.1's menu) are
  /// selected via gamma_policy; for GammaPolicy::kAbsolute this is an
  /// absolute expression difference.
  double gamma = 0.1;
  /// How gamma maps to the per-gene absolute threshold gamma_i.
  GammaPolicy gamma_policy = GammaPolicy::kRangeFraction;
  /// epsilon >= 0: maximum spread of coherence scores within a cluster.
  double epsilon = 0.1;
  /// Worker threads for the search.  1 = serial; 0 = hardware concurrency.
  /// The parallel engine runs on a work-stealing pool (util::TaskPool):
  /// every level-1 condition *and* every level-2 subtree is an independently
  /// schedulable task writing into its own pre-assigned result slot, and the
  /// slots are merged in canonical (root, second-condition) order -- so the
  /// output is deterministic and bit-identical for any thread count, with or
  /// without budget truncation (see max_nodes below and DESIGN.md).
  int num_threads = 1;

  /// Ablation toggles -- leave on for the paper's algorithm.
  bool prune_min_genes = true;   ///< pruning (1)
  bool prune_min_conds = true;   ///< pruning (2)
  bool prune_p_majority = true;  ///< pruning (3a)
  bool prune_duplicates = true;  ///< pruning (3b)

  /// Post-pass removing clusters dominated by another output (subset genes,
  /// chain contained in the other chain).  Off by default: the paper reports
  /// raw overlapping output.
  bool remove_dominated = false;

  /// Emit only *chain-closed* clusters: suppress a node's output when some
  /// single-condition extension keeps the entire member set (the extended
  /// cluster strictly subsumes it cell-wise).  A lighter, online variant of
  /// remove_dominated that never buffers the raw output.  Off by default
  /// (the paper reports all validated chains).
  bool closed_chains_only = false;

  /// Targeted mining: when non-empty, only clusters containing *all* of
  /// these genes are produced, and every branch that has lost one of them
  /// is cut immediately (member sets only shrink along a branch, so the cut
  /// is lossless).  Typical use: "which modules contain my gene of
  /// interest?".
  std::vector<int> required_genes;
  /// Targeted mining: when non-empty, chains may only use these conditions.
  std::vector<int> allowed_conditions;

  /// Resource budgets; -1 disables each.  Truncation is *deterministic and
  /// root-granular*: the output is the clusters of the longest canonical
  /// prefix of roots whose cumulative node / cluster counts fit the budget --
  /// the same prefix (hence byte-identical output) for any thread count --
  /// and outcome().resume lets a follow-up call continue where it stopped.
  int64_t max_clusters = -1;
  int64_t max_nodes = -1;

  /// Wall-clock budget in milliseconds; < 0 disables.  A deadline is a
  /// *hard* stop: the run ends at a root boundary as soon as the expiry is
  /// observed, so the output is still a valid canonical prefix, but (unlike
  /// the count budgets above) its length depends on machine speed and
  /// thread count.
  double deadline_ms = -1.0;

  /// Approximate ceiling on live mining memory (per-worker scratch arenas +
  /// buffered output clusters).  For a resident matrix, or a model given in
  /// shared_model, the fixed matrix and model allocations are not counted;
  /// a run that maps its matrix (matrix::MappedMatrix) and builds its own
  /// model adds the mapped bytes + model bytes once as a fixed base, so the
  /// limit bounds what the process actually holds live.  Hard stop like
  /// deadline_ms; < 0 disables.
  int64_t soft_memory_limit_bytes = -1;

  /// No effect; kept only because benchmark/trace_driver.cc reads it.
  int model_cache_shards = 8;

  /// Optional external cancel signal (SIGINT handlers, RPC contexts).  Hard
  /// stop like deadline_ms.  Shared: many miners may watch one token.
  std::shared_ptr<util::CancellationToken> cancel_token;

  /// Every worker re-evaluates the expensive stop sources (token, deadline,
  /// memory, global counters) once per this many DFS nodes; in between it
  /// only performs one relaxed atomic load per node.  Smaller = faster stop
  /// response, more overhead.  Must be >= 1.  Fault-injection tests use 1
  /// to make every node a potential trip point.
  int budget_check_interval = 32;

  /// Continue a truncated run: search only roots [resume.next_root, end).
  /// The token must come from outcome().resume of a run with semantically
  /// identical options (enforced via resume.options_hash); budgets and
  /// thread counts may differ freely between the calls.
  ResumeToken resume;

  /// Collect per-phase nanosecond counters (MinerStats::*_ns) for the DFS
  /// hot path.  Costs two clock reads per phase per extension, so it is off
  /// by default and enabled only by profiling harnesses (bench_threads).
  /// Never changes the mined output.
  bool profile_phases = false;

  /// Collect the detailed work counters of MinerStats (index_word_ops,
  /// coherence_divide_calls, dedup_probes, ...).  The search hot path is
  /// compiled twice behind a template parameter, so with collect_stats off
  /// the instrumentation compiles to nothing -- those counters then read 0.
  /// The structural counters (nodes_expanded, pruned_*, clusters_emitted)
  /// are *always* maintained: the deterministic budget-truncation contract
  /// depends on them.  Never changes the mined output.
  bool collect_stats = true;

  /// Pre-built model state to reuse instead of building per run (batch
  /// drivers: core::SweepEngine).  Must have been built for the same matrix
  /// under the same (gamma_policy, gamma) with max_chain_need >=
  /// min_conditions; Mine() rejects mismatches.  Purely an execution knob:
  /// the mined output is bit-identical with or without sharing (index
  /// queries clamp, so a larger eligibility ceiling answers exactly).  When
  /// set, MinerStats reports index_builds == 0 and zero build seconds.
  std::shared_ptr<const SharedGammaModel> shared_model;

  /// Root-targeted execution: when non-empty, only these level-1 conditions
  /// are searched (must be sorted strictly ascending and in range).  Roots
  /// are independent searches, so each selected root's clusters and
  /// counters are byte-identical to the same root's slice of a full run --
  /// the contract the incremental miner (io::MineIncremental) splices on.
  /// Purely an execution knob, excluded from SemanticOptionsHash; rejected
  /// in combination with resume (both select the roots to search).
  std::vector<int> root_set;

  /// Record each included root's own (stats, clusters) slice alongside the
  /// merged output; read via RegClusterMiner::root_results().  The slices
  /// are exact: summing the per-root stats reproduces every deterministic
  /// counter of stats(), and concatenating the cluster lists in root order
  /// reproduces the pre-dominance output.  Costs one copy of the output
  /// clusters, so it is off by default.
  bool capture_root_results = false;
};

/// The one option screen every entry point applies before any model is
/// built: RegClusterMiner::Prepare(), the sweep engine's gamma grouping,
/// the incremental drivers and the mining service.  Checks the paper's
/// parameters (MinG >= 1, MinC >= 2, finite gamma in range for its policy,
/// epsilon >= 0 and not NaN), the execution knobs (threads, check
/// interval), and targeting, resume and root_set against `data`'s shape;
/// InvalidArgument / OutOfRange name the first violation.  Reads only the
/// dimensions of `data`: the O(cells) scan is ValidateMatrixValues.
util::Status ValidateMinerOptions(const MinerOptions& options,
                                  const matrix::MatrixStore& data);

/// The one cell screen every path runs before it builds a gamma model
/// (Prepare(), the sweep engine, the checkpointed and incremental drivers,
/// the daemon's matrix cache).  A NaN is a missing value the caller can
/// impute, reported as FailedPrecondition(`missing_message`): how to impute
/// depends on the caller.  A +-inf cell has no RWave order and is
/// named by its gene and condition; a row whose range overflows has no
/// finite gamma threshold or coherence denominator bound and is named by
/// its gene.  Both are FailedPrecondition.
util::Status ValidateMatrixValues(
    const matrix::MatrixStore& data,
    const std::string& missing_message =
        "matrix contains missing values; impute first "
        "(matrix::ImputeRowMean)");

/// One root's slice of a mining run, captured when
/// MinerOptions::capture_root_results is set: the root id, the root's own
/// deterministic counters, and the clusters emitted under it in canonical
/// (second-condition, DFS) order -- before any remove_dominated post-pass,
/// which is global and cannot be attributed to single roots.
struct RootMineResult {
  int root = -1;
  MinerStats stats;
  std::vector<RegCluster> clusters;
};

/// Mines all validated reg-clusters of `data` under `options`.
class RegClusterMiner {
 public:
  /// The matrix must outlive the miner.  Any MatrixStore works: a resident
  /// ExpressionMatrix or an mmap-backed matrix::MappedMatrix.
  RegClusterMiner(const matrix::MatrixStore& data, MinerOptions options);
  ~RegClusterMiner();  // out-of-line: RunState is incomplete here

  /// Runs the search.  Fails (InvalidArgument / FailedPrecondition) on bad
  /// parameters or a matrix with missing values.  Deterministic: output
  /// order depends only on the input, including under budget truncation
  /// (count budgets cut at a root boundary computed from per-root totals,
  /// not from scheduling).  A budgeted or cancelled run still returns OK
  /// with the partial clusters; consult outcome() for what was covered.
  util::StatusOr<std::vector<RegCluster>> Mine();

  /// Staged execution for batch drivers (core::SweepEngine).  The sequence
  ///
  ///   Prepare(); SubmitParallelWork(&pool); WaitParallelWork(); Finalize();
  ///
  /// is equivalent to one Mine() call, except that the optimistic phase-A
  /// tasks run on a caller-owned pool that may be shared with *other*
  /// miners: inter-run parallelism composes with intra-run root/subtree
  /// tasks, and work stealing balances across runs.  Skipping
  /// SubmitParallelWork yields a serial run.  Differences from Mine():
  ///   * a task that observes a budget trip abandons its slot but does not
  ///     drop the pool's queued tasks (they may belong to other runs); the
  ///     abandoned roots are repaired or excluded by Finalize() exactly as
  ///     in the single-run path, so the output contract is unchanged;
  ///   * the pool telemetry of MineOutcome (phase_a_seconds, pool_steals,
  ///     pool_queue_high_water) stays 0 -- a shared pool's scheduling is not
  ///     attributable to one run -- and wall-clock figures (mine_seconds,
  ///     wall_seconds) span Prepare() to Finalize(), overlapping whatever
  ///     else ran on the pool in between.
  /// Prepare() validates options and builds (or adopts) the gamma model;
  /// calling it again restarts the staged run.  Finalize() runs the
  /// canonical serial merge/repair phase and returns the clusters; it fails
  /// (FailedPrecondition) without a preceding successful Prepare().
  util::Status Prepare();
  void SubmitParallelWork(util::TaskPool* pool);
  util::StatusOr<std::vector<RegCluster>> Finalize();

  /// Blocks until every phase-A task submitted by the last
  /// SubmitParallelWork() call has finished.  util::TaskPool::Wait() is a
  /// *global* barrier -- it waits for every task in the pool, including
  /// other runs' -- so a request/session driver sharing one pool across
  /// concurrent mines must use this instead: each session drains only its
  /// own tasks and proceeds to Finalize() while the others keep mining.
  /// Returns immediately when no parallel work was submitted (serial
  /// staged run, or a pool exclusively owned by this run via Mine()).
  void WaitParallelWork();

  /// Counters from the last Mine() call.  Under truncation these describe
  /// exactly the included canonical prefix (deterministic); total effort
  /// including abandoned work is outcome().nodes_visited.
  const MinerStats& stats() const { return stats_; }

  /// Completion status, stop reason, coverage and resume token of the last
  /// Mine() call.
  const MineOutcome& outcome() const { return outcome_; }

  /// Per-root (stats, clusters) slices of the last Mine() call, in ascending
  /// root order; empty unless MinerOptions::capture_root_results was set.
  /// Slices are captured before the remove_dominated post-pass (which is
  /// global and cannot be attributed to single roots).
  const std::vector<RootMineResult>& root_results() const {
    return root_results_;
  }

  /// Fingerprint of the options fields that define *what* is mined (MinG,
  /// MinC, gamma, epsilon, prunings, targeting, ...), excluding execution
  /// knobs (threads, budgets, profiling, resume).  Two runs with equal
  /// hashes produce outputs that can be spliced via ResumeToken.
  static uint64_t SemanticOptionsHash(const MinerOptions& options);

 private:
  /// Hot-path member state, struct-of-arrays: parallel columns (gene id,
  /// chain-head position in the gene's RWave order -- for n-members the
  /// low-value end -- and the cached baseline denominator d[ck2] - d[ck1],
  /// fixed once the chain reaches length 2).  Contiguous columns make the
  /// member-major score-panel fill and the survivor gathers linear sweeps.
  struct MemberCols {
    std::vector<int> gene;
    std::vector<int> head_pos;
    std::vector<double> denom;

    int size() const { return static_cast<int>(gene.size()); }
    void clear() {
      gene.clear();
      head_pos.clear();
      denom.clear();
    }
    void push_back(int g, int pos, double d) {
      gene.push_back(g);
      head_pos.push_back(pos);
      denom.push_back(d);
    }
  };

  /// One DFS node's reusable state (member columns, cached bitmap rows,
  /// scored columns).  Defined in miner.cc.
  struct NodeFrame;

  /// Per-worker reusable DFS state (frame stack, epoch-stamped gene bitmap).
  /// Defined in miner.cc; one instance per pool worker keeps the Extend()
  /// hot loop free of heap allocation.
  struct MinerScratch;

  /// The level-2 root of an independently schedulable search subtree: the
  /// chain (root, second_condition) plus its surviving members.  Built by
  /// the root task, consumed by exactly one subtree task.
  struct SubtreeSeed {
    int second_condition = -1;
    MemberCols p_members;
    MemberCols n_members;
  };

  /// Per-task budget bookkeeping: amortizes BudgetGuard polls over a check
  /// interval and enforces the local node/cluster quotas of a serial repair
  /// pass.  Defined in miner.cc.
  struct TaskControl;

  /// Per-task search state.  Tasks are independent: a chain is enumerated
  /// exactly once, from its first two conditions, and duplicate keys cannot
  /// collide across tasks (the key begins with the chain, and all chains of
  /// one subtree share the same two-condition prefix, distinct from every
  /// other subtree's).
  struct SearchContext {
    MinerStats stats;
    std::unordered_set<util::Hash128, util::Hash128Hasher> seen_keys;
    std::vector<RegCluster> out;
    /// Budget hook for the task currently driving this context; owned by the
    /// task body (stack), valid only while the task runs.
    TaskControl* ctl = nullptr;
  };

  /// Everything produced under one level-1 condition: the root node's own
  /// counters plus one (seed, context) pair per level-2 subtree, kept in
  /// ascending second-condition order for the canonical merge.  The two
  /// completion fields make "did every task of this root finish?" a
  /// race-free question after TaskPool::Wait(): a task that abandons its
  /// slot on a budget trip simply never counts itself done, and the merge
  /// re-runs or excludes the root.
  struct RootWork {
    SearchContext ctx;
    std::vector<SubtreeSeed> seeds;
    std::vector<SearchContext> subtree_ctx;
    std::atomic<bool> seeded{false};
    std::atomic<int> subtrees_done{0};

    bool Complete() const {
      return seeded.load(std::memory_order_acquire) &&
             subtrees_done.load(std::memory_order_acquire) ==
                 static_cast<int>(seeds.size());
    }
    void Reset();
  };

  /// Expands the level-1 node of `root_condition`: builds the member lists,
  /// applies the level-1 prunings, and materializes one SubtreeSeed per
  /// surviving second condition (ascending).  Returns false when a budget
  /// stop abandoned the node mid-expansion (the RootWork is then incomplete
  /// and must not be merged).
  ///
  /// The search body (SeedRoot / MineSubtree / Extend / PrepareNode /
  /// MaybeEmit) is compiled twice behind `kCollect`: the <false>
  /// instantiation contains no detail-counter instrumentation at all
  /// (if constexpr), which is how MinerOptions::collect_stats=false costs
  /// nothing.  The non-template wrappers dispatch on that option once.
  template <bool kCollect>
  bool SeedRootImpl(int root_condition, RootWork* work, MinerScratch* scratch);
  bool SeedRoot(int root_condition, RootWork* work, MinerScratch* scratch);

  /// Runs the full DFS below one level-2 seed.
  template <bool kCollect>
  void MineSubtreeImpl(int root_condition, SubtreeSeed* seed,
                       MinerScratch* scratch, SearchContext* ctx);
  void MineSubtree(int root_condition, SubtreeSeed* seed,
                   MinerScratch* scratch, SearchContext* ctx);

  /// Recursive extension of the node in scratch->frame(depth); the chain
  /// lives in scratch->chain (length depth + 2).
  template <bool kCollect>
  void Extend(int depth, MinerScratch* scratch, SearchContext* ctx);

  /// Caches the node's per-member bitmap rows (successor/predecessor x
  /// MinC-eligibility) for a chain of length `m` and counts, per condition,
  /// the p- and n-members whose row holds it; then lists the node's
  /// candidate conditions (OR over the p-member rows, intersected with the
  /// allowed set).  Also accumulates the pruning-2 drop counter for the
  /// whole node (see the comment in miner.cc).
  template <bool kCollect>
  void PrepareNode(int m, NodeFrame* node, MinerStats* stats);

  /// Fills the score panel for the block of candidates starting at
  /// node->cands[first]: as many consecutive candidates as fit the block
  /// budget (at least one), in one member-major pass per half over the
  /// members' matrix rows with chain head `ckm`.  Level-1 entries are the
  /// numerators row[cand] - row[ckm].  Returns the index one past the
  /// block's last candidate.
  size_t FillPanelBlock(size_t first, int ckm, bool level1,
                        NodeFrame* node) const;

  /// Emits the node's cluster if it validates and is representative.
  /// Returns false when the branch should be pruned (duplicate).
  template <bool kCollect>
  bool MaybeEmit(const std::vector<int>& chain, const MemberCols& p,
                 const MemberCols& n, SearchContext* ctx);

  /// True iff the node (or a scored window) retains every required gene.
  /// Uses the scratch's epoch-stamped per-gene bitmap: no allocation.
  bool HasAllRequired(const MemberCols& p, const MemberCols& n,
                      MinerScratch* scratch) const;

  /// Per-staged-run execution state (root slots, phase-A scratches, timers,
  /// budget remainder bookkeeping).  Defined in miner.cc; created by
  /// Prepare(), consumed by Finalize().
  struct RunState;

  /// Phase-A submission body shared by Mine() (exclusive internal pool) and
  /// SubmitParallelWork() (shared external pool).  Only an exclusive pool
  /// may be drained via CancelPending() when a task observes a trip.
  void SubmitRoots(util::TaskPool* pool, bool exclusive_pool);

  /// Creates guard_ from the options' limits with `num_slots` byte-report
  /// slots (workers + 1 for the finalize pass) unless already created or no
  /// limit is configured.  The deadline starts ticking here.
  void EnsureGuard(int num_slots);

  TaskControl MakeControl(MinerScratch* scratch, int slot,
                          util::TaskPool* pool);

  const matrix::MatrixStore& data_;
  MinerOptions options_;
  MinerStats stats_;
  MineOutcome outcome_;
  std::vector<RootMineResult> root_results_;
  /// Model state of the current run: either adopted from
  /// options_.shared_model or built (and owned) by Prepare().
  std::shared_ptr<const SharedGammaModel> model_;
  const RWaveBitmapIndex* index_ = nullptr;  // = &model_->index (hot path)
  std::unique_ptr<RunState> run_;
  std::vector<char> allowed_cond_;    // condition id -> allowed in chains
  std::vector<uint64_t> allowed_words_;  // allowed_cond_ as a bitmap row
  std::vector<char> required_gene_;   // gene id -> must stay in the branch
  int num_required_ = 0;
  /// Shared stop sources of the current Mine() call; null when no budget,
  /// deadline or token is configured (the common case pays nothing).
  std::unique_ptr<util::BudgetGuard> guard_;
};

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_MINER_H_
