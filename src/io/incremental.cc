#include "io/incremental.h"

#include <algorithm>
#include <bit>
#include <numeric>
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
constexpr uint32_t kVersion = 1;
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kPreambleBytes = 16;  // magic + version + endian

// Record tags, in required file order.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagRoot = 2;
constexpr uint32_t kTagEnd = 3;

using util::Cursor;
using util::PutU32;
using util::PutU64;

// Cursor label: decode errors read "truncated incremental-state field ...".
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
  if (o.resume.can_resume()) {
    return util::Status::InvalidArgument(
        "incremental mining cannot resume a truncated run");
  }
  if (!o.root_set.empty()) {
    return util::Status::InvalidArgument(
        "incremental mining manages root_set itself");
  }
  if (o.capture_root_results) {
    return util::Status::InvalidArgument(
        "incremental mining manages capture_root_results itself");
  }
  if (o.shared_model != nullptr) {
    return util::Status::InvalidArgument(
        "incremental mining builds its own gamma model at each width");
  }
  REGCLUSTER_RETURN_IF_ERROR(core::ValidateMinerOptions(o, data));
  return core::ValidateMatrixValues(data);
}

/// Mines the given roots of `data` on `model`, capturing per-root slices.
util::Status MineRootSlices(const matrix::MatrixStore& data,
                            const core::MinerOptions& options,
                            std::shared_ptr<const core::SharedGammaModel>
                                model,
                            std::vector<int> roots,
                            std::vector<core::RootMineResult>* slices) {
  core::MinerOptions slice_opts = SpliceOptions(options);
  slice_opts.capture_root_results = true;
  slice_opts.shared_model = std::move(model);
  slice_opts.root_set = std::move(roots);
  core::RegClusterMiner miner(data, slice_opts);
  auto clusters = miner.Mine();
  if (!clusters.ok()) return clusters.status();
  *slices = miner.root_results();
  return util::Status::OK();
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
      const int pos = index.position(g, r);
      is_dirty = has_new_bit(index.UpCandidates(g, pos)) ||
                 has_new_bit(index.DownCandidates(g, pos));
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
  // Empty root_set = a plain full run; the capture hook records every root.
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
  const RunContext want = MineContext(new_data, first_new, options);
  const RunContext& have = prev.context;
  if (have.num_genes != want.num_genes) {
    return util::Status::FailedPrecondition(
        "incremental state was mined over a different gene set");
  }
  if (have.num_conditions != want.num_conditions) {
    return util::Status::FailedPrecondition(
        "first_new does not match the incremental state's condition count");
  }
  if (have.options_hash != want.options_hash) {
    return util::Status::FailedPrecondition(
        "incremental state was mined under different options");
  }
  if (have.flags != want.flags) {
    return util::Status::FailedPrecondition(
        "incremental state disagrees on the remove_dominated post-pass");
  }
  if (have.matrix_hash != want.matrix_hash) {
    return util::Status::FailedPrecondition(
        "matrix prefix differs from the one the incremental state was "
        "mined over (appends must only add conditions at the end)");
  }
  if (static_cast<int64_t>(prev.roots.size()) != have.num_conditions) {
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
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU32(&out, kEndianTag);
  {
    std::string rec;
    PutU32(&rec, kTagContext);
    PutRunContext(&rec, state.context);
    util::AppendRecord(&out, rec);
  }
  for (const core::RootMineResult& slice : state.roots) {
    std::string rec;
    PutU32(&rec, kTagRoot);
    PutU32(&rec, static_cast<uint32_t>(slice.root));
    PutMinerStats(&rec, slice.stats);
    PutClusters(&rec, slice.clusters);
    util::AppendRecord(&out, rec);
  }
  {
    std::string rec;
    PutU32(&rec, kTagEnd);
    PutU64(&rec, state.roots.size());
    util::AppendRecord(&out, rec);
  }
  return out;
}

util::StatusOr<IncrementalState> DecodeIncrementalState(
    std::string_view bytes) {
  if (bytes.size() < kPreambleBytes) {
    return util::Status::Corruption("short incremental-state preamble");
  }
  if (std::string_view(bytes.data(), sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    return util::Status::Corruption("bad incremental-state magic");
  }
  Cursor pre(bytes.substr(sizeof(kMagic), kPreambleBytes - sizeof(kMagic)),
             kLabel);
  uint32_t version = 0, endian = 0;
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU32("version", &version));
  REGCLUSTER_RETURN_IF_ERROR(pre.ReadU32("endian tag", &endian));
  if (version != kVersion) {
    return util::Status::Corruption("unsupported incremental-state version");
  }
  if (endian != kEndianTag) {
    return util::Status::Corruption(
        "incremental state written with a different byte order");
  }

  IncrementalState state;
  util::RecordReader reader(bytes.substr(kPreambleBytes));
  bool saw_context = false;
  bool saw_end = false;
  uint64_t declared_roots = 0;
  while (!reader.AtEnd()) {
    if (saw_end) {
      return util::Status::Corruption(
          "records after the incremental-state end record");
    }
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    Cursor c(*rec, kLabel);
    uint32_t tag = 0;
    REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("record tag", &tag));
    switch (tag) {
      case kTagContext: {
        if (saw_context) {
          return util::Status::Corruption(
              "duplicate incremental-state context record");
        }
        saw_context = true;
        REGCLUSTER_RETURN_IF_ERROR(ReadRunContext(&c, &state.context));
        break;
      }
      case kTagRoot: {
        if (!saw_context) {
          return util::Status::Corruption(
              "incremental-state root record before the context record");
        }
        core::RootMineResult slice;
        uint32_t root = 0;
        REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("root", &root));
        slice.root = static_cast<int>(root);
        const int expected =
            state.roots.empty() ? 0 : state.roots.back().root + 1;
        if (slice.root != expected ||
            static_cast<int64_t>(slice.root) >= state.context.num_conditions) {
          return util::Status::Corruption(
              "incremental-state root records out of order");
        }
        REGCLUSTER_RETURN_IF_ERROR(ReadMinerStats(&c, &slice.stats));
        REGCLUSTER_RETURN_IF_ERROR(ReadClusters(&c, &slice.clusters));
        REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("root"));
        state.roots.push_back(std::move(slice));
        break;
      }
      case kTagEnd: {
        if (!saw_context) {
          return util::Status::Corruption(
              "incremental-state end record before the context record");
        }
        saw_end = true;
        REGCLUSTER_RETURN_IF_ERROR(c.ReadU64("root count", &declared_roots));
        REGCLUSTER_RETURN_IF_ERROR(c.ExpectDone("end"));
        break;
      }
      default:
        return util::Status::Corruption(
            "unknown incremental-state record tag");
    }
  }
  if (!saw_context) {
    return util::Status::Corruption("missing incremental-state context record");
  }
  if (!saw_end) {
    return util::Status::Corruption("missing incremental-state end record");
  }
  if (declared_roots != state.roots.size()) {
    return util::Status::Corruption(
        "incremental-state root count does not match its records");
  }
  if (static_cast<int64_t>(state.roots.size()) !=
      state.context.num_conditions) {
    return util::Status::Corruption(
        "incremental state does not cover every root");
  }
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
