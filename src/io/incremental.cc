#include "io/incremental.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "core/bicluster.h"
#include "core/threshold.h"
#include "io/checkpoint.h"
#include "io/record_codec.h"
#include "util/bitset.h"
#include "util/durable_file.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace regcluster {
namespace io {

namespace {

constexpr char kMagic[8] = {'R', 'G', 'C', 'X', 'I', 'N', 'C', '1'};

// Record tags, in required file order.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagRoot = 2;
constexpr uint32_t kTagEnd = 3;

using util::Cursor;
using util::PutU32;
using util::PutU64;

// Format label: decode errors read "truncated incremental-state field ...".
constexpr char kLabel[] = "incremental-state";

// ---------------------------------------------------------------------------
// Splice machinery.

/// The execution shapes root-granular splicing cannot reproduce.  Each is a
/// distinct InvalidArgument so callers learn which knob to drop.  The
/// miner's own option and cell screens run last, before any model build.
util::Status ValidateIncrementalOptions(const core::MinerOptions& o,
                                        const matrix::MatrixStore& data) {
  if (o.max_nodes >= 0 || o.max_clusters >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use node/cluster budgets: a truncated "
        "run has no per-root slices to splice from");
  }
  if (o.deadline_ms >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a deadline");
  }
  if (o.soft_memory_limit_bytes >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a memory limit");
  }
  if (o.cancel_token != nullptr) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a cancel token");
  }
  if (!o.root_set.empty()) {
    return util::Status::InvalidArgument(
        "incremental mining manages root_set itself");
  }
  if (o.shared_model != nullptr) {
    return util::Status::InvalidArgument(
        "incremental mining builds its own gamma model at each width");
  }
  REGCLUSTER_RETURN_IF_ERROR(core::ValidateMinerOptions(o, data));
  return core::ValidateMatrixValues(data);
}

/// Mines the given roots of `data` on `model`, copying out each root's
/// slice as Finalize() reports it.
util::Status MineRootSlices(const matrix::MatrixStore& data,
                            const core::MinerOptions& options,
                            std::shared_ptr<const core::SharedGammaModel>
                                model,
                            std::vector<int> roots,
                            std::vector<core::RootMineResult>* slices) {
  core::MinerOptions slice_opts = SpliceOptions(options);
  slice_opts.shared_model = std::move(model);
  slice_opts.root_set = std::move(roots);
  core::RegClusterMiner miner(data, slice_opts);
  auto clusters = miner.Mine([slices](const core::RootSlice& slice) {
    const std::span<const core::RegCluster> mined = slice.clusters();
    slices->push_back({slice.root, slice.stats,
                       std::vector<core::RegCluster>(mined.begin(),
                                                     mined.end())});
  });
  return clusters.status();
}

/// Assembles the final result from the full per-root slice vector.
IncrementalMineResult AssembleResult(
    const matrix::MatrixStore& data, const core::MinerOptions& options,
    const core::SharedGammaModel& model,
    std::vector<core::RootMineResult> slices, const util::WallTimer& timer) {
  IncrementalMineResult r;
  r.state.context = MineContext(data, data.num_conditions(), options);
  r.state.roots = std::move(slices);
  for (const core::RootMineResult& slice : r.state.roots) {
    core::AccumulateStats(slice.stats, &r.stats);
    r.clusters.insert(r.clusters.end(), slice.clusters.begin(),
                      slice.clusters.end());
  }
  if (options.remove_dominated) {
    r.clusters = core::RemoveDominated(std::move(r.clusters));
  }
  // The splice is the whole run, so the run-level fields mirror what a
  // non-shared Mine() would have reported: one model build (ours), its
  // build times, and this call's wall clock, dominance pass included.
  r.stats.index_builds = 1;
  r.stats.rwave_build_seconds = model.rwave_build_seconds;
  r.stats.index_build_seconds = model.index_build_seconds;
  r.stats.mine_seconds = timer.ElapsedSeconds();
  r.outcome.roots_completed = data.num_conditions();
  r.outcome.roots_total = data.num_conditions();
  return r;
}

}  // namespace

std::vector<int> ComputeDirtyRoots(const core::RWaveBitmapIndex& index,
                                   int first_new) {
  const int num_conds = index.num_conditions();
  const int num_genes = index.num_genes();
  const int words = index.num_words();
  std::vector<int> dirty;
  if (first_new >= num_conds) return dirty;
  const int first_word = first_new / 64;
  const uint64_t first_mask = ~uint64_t{0} << (first_new % 64);
  const auto has_new_bit = [&](const uint64_t* row) {
    if ((row[first_word] & first_mask) != 0) return true;
    for (int w = first_word + 1; w < words; ++w) {
      if (row[w] != 0) return true;
    }
    return false;
  };
  for (int r = 0; r < first_new; ++r) {
    bool is_dirty = false;
    for (int g = 0; g < num_genes && !is_dirty; ++g) {
      is_dirty = has_new_bit(index.SuccessorRow(r, g)) ||
                 has_new_bit(index.PredecessorRow(r, g));
    }
    if (is_dirty) dirty.push_back(r);
  }
  for (int r = first_new; r < num_conds; ++r) dirty.push_back(r);
  return dirty;
}

util::StatusOr<IncrementalMineResult> MineInitial(
    const matrix::MatrixStore& data, const core::MinerOptions& options) {
  REGCLUSTER_RETURN_IF_ERROR(ValidateIncrementalOptions(options, data));
  const int threads = util::ResolveThreadCount(options.num_threads);
  const core::GammaSpec spec{options.gamma_policy, options.gamma};
  util::WallTimer timer;
  auto model = core::SharedGammaModel::Build(data, spec,
                                             options.min_conditions, threads);
  std::vector<core::RootMineResult> slices;
  // Empty root_set = a plain full run; the callback records every root.
  REGCLUSTER_RETURN_IF_ERROR(MineRootSlices(data, options, model, {}, &slices));
  return AssembleResult(data, options, *model, std::move(slices), timer);
}

util::StatusOr<IncrementalMineResult> MineIncremental(
    const matrix::MatrixStore& new_data, int first_new,
    const core::MinerOptions& options, const IncrementalState& prev) {
  REGCLUSTER_RETURN_IF_ERROR(ValidateIncrementalOptions(options, new_data));
  const int num_genes = new_data.num_genes();
  const int num_conds = new_data.num_conditions();
  if (first_new < 0 || first_new > num_conds) {
    return util::Status::InvalidArgument(
        "first_new must be in [0, num_conditions]");
  }
  // The state must be the context of this mine over the pre-append prefix.
  REGCLUSTER_RETURN_IF_ERROR(
      CheckRunContext(prev.context, MineContext(new_data, first_new, options),
                      "incremental state", "mining options"));
  if (static_cast<int64_t>(prev.roots.size()) != prev.context.num_conditions) {
    return util::Status::FailedPrecondition(
        "incremental state does not cover every previous root");
  }

  const int threads = util::ResolveThreadCount(options.num_threads);
  const core::GammaSpec spec{options.gamma_policy, options.gamma};
  util::WallTimer timer;
  auto model = core::SharedGammaModel::Build(new_data, spec,
                                             options.min_conditions, threads);

  // All-dirty fallbacks first: a moved per-gene threshold changes regulation
  // among the *old* conditions, and a grown bitmap word count changes every
  // root's index_word_ops -- either way no old slice is reusable.
  bool all_dirty =
      util::WordsForBits(num_conds) != util::WordsForBits(first_new);
  for (int g = 0; g < num_genes && !all_dirty; ++g) {
    const double old_gamma =
        core::AbsoluteGammaSpan(new_data.row_data(g), first_new, spec);
    const double new_gamma =
        core::AbsoluteGammaSpan(new_data.row_data(g), num_conds, spec);
    all_dirty = std::bit_cast<uint64_t>(old_gamma) !=
                std::bit_cast<uint64_t>(new_gamma);
  }
  std::vector<int> dirty;
  if (all_dirty) {
    dirty.resize(static_cast<size_t>(num_conds));
    std::iota(dirty.begin(), dirty.end(), 0);
  } else {
    dirty = ComputeDirtyRoots(model->index, first_new);
  }

  std::vector<core::RootMineResult> mined;
  if (!dirty.empty()) {
    REGCLUSTER_RETURN_IF_ERROR(
        MineRootSlices(new_data, options, model, dirty, &mined));
  }

  // Splice: dirty roots from this run, clean roots from the previous state,
  // in ascending root order (= canonical merge order of a full run).
  std::vector<core::RootMineResult> slices;
  slices.reserve(static_cast<size_t>(num_conds));
  size_t mi = 0;
  for (int c = 0; c < num_conds; ++c) {
    if (mi < mined.size() && mined[mi].root == c) {
      slices.push_back(std::move(mined[mi]));
      ++mi;
    } else {
      slices.push_back(prev.roots[static_cast<size_t>(c)]);
    }
  }
  auto result =
      AssembleResult(new_data, options, *model, std::move(slices), timer);
  result.roots_remined = static_cast<int>(dirty.size());
  result.roots_spliced = num_conds - static_cast<int>(dirty.size());
  return result;
}

std::string EncodeIncrementalState(const IncrementalState& state) {
  std::string out;
  PutPreamble(&out, kMagic);
  PutRecord(&out, kTagContext,
            [&](std::string* rec) { PutRunContext(rec, state.context); });
  for (const core::RootMineResult& slice : state.roots) {
    PutRecord(&out, kTagRoot, [&](std::string* rec) {
      PutU32(rec, static_cast<uint32_t>(slice.root));
      PutMinerStats(rec, slice.stats);
      PutClusters(rec, slice.clusters);
    });
  }
  PutRecord(&out, kTagEnd,
            [&](std::string* rec) { PutU64(rec, state.roots.size()); });
  return out;
}

util::StatusOr<IncrementalState> DecodeIncrementalState(
    std::string_view bytes) {
  RecordFileReader file(bytes, kLabel);
  auto pre = file.ReadPreamble(kMagic, 0);
  if (!pre.ok()) return pre.status();
  IncrementalState state;
  REGCLUSTER_RETURN_IF_ERROR(
      file.ReadRecord(kTagContext, "context", [&](Cursor* c) {
        return ReadRunContext(c, &state.context);
      }));
  // One root record per condition; the count is untrusted, so the slices
  // grow with the records actually present.
  for (int64_t r = 0; r < state.context.num_conditions; ++r) {
    core::RootMineResult slice;
    REGCLUSTER_RETURN_IF_ERROR(
        file.ReadRecord(kTagRoot, "root", [&](Cursor* c) {
          uint32_t root = 0;
          REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("root", &root));
          if (root != r) {
            return util::Status::Corruption(
                "incremental-state root records out of order");
          }
          slice.root = static_cast<int>(root);
          REGCLUSTER_RETURN_IF_ERROR(ReadMinerStats(c, &slice.stats));
          return ReadClusters(c, &slice.clusters);
        }));
    state.roots.push_back(std::move(slice));
  }
  uint64_t declared = 0;
  REGCLUSTER_RETURN_IF_ERROR(file.ReadRecord(kTagEnd, "end", [&](Cursor* c) {
    return c->ReadU64("root count", &declared);
  }));
  // A negative condition count read no root records, and is no state.
  if (state.context.num_conditions < 0 || declared != state.roots.size()) {
    return util::Status::Corruption(
        "incremental-state root count does not match its records");
  }
  REGCLUSTER_RETURN_IF_ERROR(file.ExpectEnd());
  return state;
}

util::Status WriteIncrementalStateFile(const std::string& path,
                                       const IncrementalState& state) {
  return util::AtomicWriteFile(path, EncodeIncrementalState(state));
}

util::StatusOr<IncrementalState> LoadIncrementalState(
    const std::string& path) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeIncrementalState(*bytes);
}

}  // namespace io
}  // namespace regcluster
