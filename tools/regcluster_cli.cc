// regcluster -- command-line interface to the reg-cluster library.
//
// Subcommands:
//   generate   write a synthetic dataset (+ ground truth) to disk
//   mine       mine reg-clusters from a TSV expression matrix
//   evaluate   score a mined cluster file against a ground-truth file
//   enrich     GO-term enrichment of mined clusters from an annotation file
//   summarize  aggregate statistics of a cluster file
//
// Run `regcluster <subcommand> --help` for per-command flags.  All flags
// are --name=value; every run is deterministic given its --seed.
//
// Exit codes (stable contract, also documented in README.md):
//   0  success
//   1  runtime error (I/O failure, invalid data, failed validation)
//   2  usage error (unknown command/flag, missing required flag)
//   3  mining truncated by a budget, deadline or cancellation -- the
//      partial outputs on disk are valid and complete as written

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/coherence.h"
#include "core/miner.h"
#include "core/rwave.h"
#include "core/sweep.h"
#include "eval/annotation_gen.h"
#include "eval/consensus.h"
#include "eval/go_enrichment.h"
#include "eval/match.h"
#include "eval/quality.h"
#include "eval/significance.h"
#include "io/annotation_io.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "io/cluster_io.h"
#include "io/json_export.h"
#include "io/metrics_export.h"
#include "io/sweep_io.h"
#include "matrix/matrix_io.h"
#include "matrix/stats.h"
#include "matrix/store.h"
#include "matrix/transforms.h"
#include "server/daemon.h"
#include "synth/generator.h"
#include "synth/yeast_surrogate.h"
#include "util/cancellation.h"
#include "util/durable_file.h"
#include "util/string_util.h"

namespace regcluster {
namespace cli {
namespace {

// Exit codes; see the file comment for the contract.
constexpr int kExitOk = 0;
constexpr int kExitRuntimeError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTruncated = 3;

// ---------------------------------------------------------------------------
// Flag plumbing.
// ---------------------------------------------------------------------------

class Flags {
 public:
  /// Parses `argv[first..argc)` as --name[=value] flags.  Returns
  /// InvalidArgument on a positional argument; only main() exits the
  /// process.
  static util::StatusOr<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return util::Status::InvalidArgument("unexpected argument: " + arg);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.values_[arg] = "true";
      } else {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
    return flags;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& fallback) {
    used_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// Numeric flags parse the whole value ("--ming=5x" is an error, not 5);
  /// a malformed value keeps the fallback and is reported by Check().
  template <typename T = int>
  T GetInt(const std::string& name, T fallback) {
    const std::string v = GetString(name, "");
    if (v.empty()) return fallback;
    T out = fallback;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || end != v.data() + v.size()) {
      Malformed(name, v, "an integer in range");
      return fallback;
    }
    return out;
  }

  double GetDouble(const std::string& name, double fallback) {
    const std::string v = GetString(name, "");
    if (v.empty()) return fallback;
    // The matrix cell grammar: a NaN spelling parses, so the option
    // validators name it (e.g. "--gamma=nan" is an InvalidArgument gamma).
    auto parsed = util::ParseDouble(v);
    if (!parsed.ok()) {
      Malformed(name, v, "a number");
      return fallback;
    }
    return *parsed;
  }

  /// A flag whose value must be one of the '|'-separated `choices`; any
  /// other value keeps the fallback and is reported by Check().
  std::string GetChoice(const std::string& name, const std::string& fallback,
                        std::string_view choices) {
    const std::string v = GetString(name, fallback);
    for (std::string_view rest = choices;;) {
      const size_t bar = rest.find('|');
      if (rest.substr(0, bar) == v) return v;
      if (bar == std::string_view::npos) break;
      rest.remove_prefix(bar + 1);
    }
    Malformed(name, v, std::string(choices));
    return fallback;
  }

  core::GammaPolicy GetGammaPolicy() {
    const std::string v = GetString("gamma-policy", "range");
    core::GammaPolicy policy = core::GammaPolicy::kRangeFraction;
    if (!core::ParseGammaPolicy(v, &policy)) {
      Malformed("gamma-policy", v, "range|stddev|mean|closest-gap|absolute");
    }
    return policy;
  }

  bool GetBool(const std::string& name, bool fallback = false) {
    const std::string v = GetString(name, "");
    if (v.empty()) return fallback;
    return v == "true" || v == "1" || v == "yes";
  }

  /// Returns InvalidArgument for the first malformed value, else when an
  /// unconsumed flag remains (typo protection).  Call after the last Get*.
  util::Status Check() const {
    if (!malformed_.ok()) return malformed_;
    for (const auto& [name, value] : values_) {
      (void)value;
      if (used_.find(name) == used_.end()) {
        return util::Status::InvalidArgument("unknown flag: --" + name);
      }
    }
    return util::Status::OK();
  }

 private:
  Flags() = default;

  void Malformed(const std::string& name, const std::string& value,
                 const std::string& want) {
    if (!malformed_.ok()) return;
    malformed_ = util::Status::InvalidArgument(
        "malformed --" + name + "=" + value + ": want " + want);
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
  util::Status malformed_;
};

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return kExitRuntimeError;
}

int UsageError(const util::Status& status) {
  std::fprintf(stderr, "%s\n", status.message().c_str());
  return kExitUsage;
}

// ---------------------------------------------------------------------------
// Interrupt plumbing: SIGINT/SIGTERM trip the mining cancellation token so
// a long `mine` run shuts down at the next budget poll, writes whatever
// canonical prefix it completed, and exits with kExitTruncated.
// CancellationToken::Cancel is a single lock-free CAS, so calling it from a
// signal handler through a lock-free atomic pointer is async-signal-safe.
// ---------------------------------------------------------------------------

std::atomic<util::CancellationToken*> g_interrupt_token{nullptr};

extern "C" void HandleInterrupt(int /*signum*/) {
  util::CancellationToken* token =
      g_interrupt_token.load(std::memory_order_acquire);
  if (token != nullptr) token->Cancel(util::StopReason::kCancelled);
}

/// Routes SIGINT/SIGTERM into token() for the scope's lifetime.  The
/// previous dispositions come back on exit, so a second signal after the
/// scope falls back to the default (immediate) one.
class InterruptScope {
 public:
  InterruptScope() : token_(std::make_shared<util::CancellationToken>()) {
    g_interrupt_token.store(token_.get(), std::memory_order_release);
    prev_int_ = std::signal(SIGINT, HandleInterrupt);
    prev_term_ = std::signal(SIGTERM, HandleInterrupt);
  }
  ~InterruptScope() {
    std::signal(SIGINT, prev_int_ == SIG_ERR ? SIG_DFL : prev_int_);
    std::signal(SIGTERM, prev_term_ == SIG_ERR ? SIG_DFL : prev_term_);
    g_interrupt_token.store(nullptr, std::memory_order_release);
  }
  InterruptScope(const InterruptScope&) = delete;
  InterruptScope& operator=(const InterruptScope&) = delete;

  const std::shared_ptr<util::CancellationToken>& token() const {
    return token_;
  }

 private:
  std::shared_ptr<util::CancellationToken> token_;
  void (*prev_int_)(int) = SIG_DFL;
  void (*prev_term_)(int) = SIG_DFL;
};

/// The durable-run warnings: a failed snapshot write, then -- for a
/// truncated run -- the command that resumes it from its snapshot.
void WarnCheckpoint(const io::CheckpointConfig& config,
                    const util::Status& write_status, bool truncated) {
  if (!write_status.ok()) {
    std::fprintf(stderr, "warning: checkpoint write failed: %s\n",
                 write_status.ToString().c_str());
  }
  if (truncated && !config.path.empty()) {
    std::fprintf(stderr,
                 "warning: checkpoint saved; re-run the same command with\n"
                 "warning:   --resume-from=%s\n"
                 "warning: to continue from this point\n",
                 config.path.c_str());
  }
}

/// Resolves a gene given by name or by 0-based index; -1 when neither.
int FindGeneArg(const matrix::MatrixStore& m, const std::string& arg) {
  const int gene = m.FindGene(arg);
  if (gene >= 0) return gene;
  char* end = nullptr;
  const long index = std::strtol(arg.c_str(), &end, 10);
  return *end == '\0' && index >= 0 && index < m.num_genes()
             ? static_cast<int>(index)
             : -1;
}

util::StatusOr<std::vector<core::RegCluster>> LoadClustersArg(
    const std::string& path) {
  auto c = io::LoadClusters(path);
  if (!c.ok()) {
    return util::Status(c.status().code(),
                        "loading " + path + ": " + c.status().message());
  }
  return c;
}

/// Renders a report through `write` into memory, atomically replaces `path`
/// with it and prints "<label>: <path>"; an empty path writes nothing.
/// Every CLI report (JSON, CSV, metrics, text report) goes through here so
/// a crash mid-write can never leave a torn file where a previous complete
/// report existed.
template <typename WriteFn>
util::Status WriteReportAtomic(const std::string& path, const char* label,
                               WriteFn&& write) {
  if (path.empty()) return util::Status::OK();
  std::ostringstream buffer;
  REGCLUSTER_RETURN_IF_ERROR(write(buffer));
  REGCLUSTER_RETURN_IF_ERROR(util::AtomicWriteFile(path, buffer.str()));
  std::printf("%s: %s\n", label, path.c_str());
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

int CmdGenerate(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster generate --out-matrix=PATH [--out-truth=PATH]\n"
        "  [--yeast] [--genes=3000] [--conditions=30] [--clusters=30]\n"
        "  [--gene-fraction=0.01] [--dim=6] [--negative-fraction=0.3]\n"
        "  [--noise=0.0] [--seed=42]\n"
        "Writes a synthetic dataset (Section 5 generator; --yeast for the\n"
        "2884x17 surrogate) and optionally its ground-truth clusters.");
    return 0;
  }
  const std::string out_matrix = flags->GetString("out-matrix", "");
  const std::string out_truth = flags->GetString("out-truth", "");
  if (out_matrix.empty()) {
    std::fprintf(stderr, "--out-matrix is required\n");
    return 2;
  }

  synth::SyntheticDataset ds;
  if (flags->GetBool("yeast")) {
    synth::YeastSurrogateConfig cfg;
    cfg.seed = static_cast<uint64_t>(flags->GetInt("seed", 1999));
    cfg.num_modules = flags->GetInt("clusters", 25);
    cfg.noise_fraction = flags->GetDouble("noise", 0.05);
    if (auto st = flags->Check(); !st.ok()) return UsageError(st);
    auto made = synth::MakeYeastSurrogate(cfg);
    if (!made.ok()) return Fail(made.status());
    ds = *std::move(made);
  } else {
    synth::SyntheticConfig cfg;
    cfg.num_genes = flags->GetInt("genes", 3000);
    cfg.num_conditions = flags->GetInt("conditions", 30);
    cfg.num_clusters = flags->GetInt("clusters", 30);
    cfg.avg_cluster_genes_fraction = flags->GetDouble("gene-fraction", 0.01);
    cfg.avg_cluster_conditions = flags->GetInt("dim", 6);
    cfg.negative_fraction = flags->GetDouble("negative-fraction", 0.3);
    cfg.noise_fraction = flags->GetDouble("noise", 0.0);
    cfg.seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
    if (auto st = flags->Check(); !st.ok()) return UsageError(st);
    auto made = synth::GenerateSynthetic(cfg);
    if (!made.ok()) return Fail(made.status());
    ds = *std::move(made);
  }

  if (auto st = matrix::SaveMatrix(ds.data, out_matrix); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %d x %d matrix to %s\n", ds.data.num_genes(),
              ds.data.num_conditions(), out_matrix.c_str());
  if (!out_truth.empty()) {
    std::vector<core::RegCluster> truth;
    for (const auto& imp : ds.implants) truth.push_back(imp.ToRegCluster());
    if (auto st = io::SaveClusters(truth, out_truth); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %zu ground-truth clusters to %s\n", truth.size(),
                out_truth.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// mine --sweep: batch parameter sweep through core::SweepEngine.
// ---------------------------------------------------------------------------

int RunSweep(const matrix::MatrixStore& data, core::MinerOptions base,
             const std::vector<core::MinerOptions>& points,
             const std::string& json_path, const std::string& csv_path,
             const std::string& metrics_path,
             io::MetricsFormat metrics_format, bool durable,
             const io::CheckpointConfig& ckpt_config,
             const io::SweepCheckpoint* resume, bool deterministic_output) {
  // The budget flags act at sweep level (one budget spanning all points);
  // ParseSweepSpec already copied the budget-free base into every point.
  core::SweepOptions sopts;
  sopts.num_threads = base.num_threads;
  sopts.max_nodes = base.max_nodes;
  sopts.max_clusters = base.max_clusters;
  sopts.deadline_ms = base.deadline_ms;

  core::SweepReport report;
  io::CheckpointStats ckpt_stats;
  const io::CheckpointStats* ckpt_for_metrics = nullptr;
  util::Status ckpt_status;
  util::Status run_status;
  {
    InterruptScope interrupt;
    sopts.cancel_token = interrupt.token();
    if (durable) {
      auto result = io::RunCheckpointedSweep(data, points, sopts, ckpt_config,
                                             resume);
      if (result.ok()) {
        report = std::move(result->report);
        ckpt_stats = result->checkpoint;
        ckpt_for_metrics = &ckpt_stats;
        ckpt_status = result->checkpoint_status;
      } else {
        run_status = result.status();
      }
    } else {
      core::SweepEngine engine(data, sopts);
      auto report_or = engine.Run(points);
      if (report_or.ok()) {
        report = *std::move(report_or);
      } else {
        run_status = report_or.status();
      }
    }
  }
  if (!run_status.ok()) return Fail(run_status);

  const bool truncated = report.status == core::MineStatus::kTruncated;
  if (truncated) {
    std::fprintf(stderr,
                 "warning: sweep truncated (%s) after %d of %zu runs; re-run\n"
                 "warning: the points from index %d to finish the grid\n",
                 util::StopReasonName(report.stop_reason),
                 report.runs_executed, report.runs.size(),
                 report.first_unfinished);
  }
  if (durable) WarnCheckpoint(ckpt_config, ckpt_status, truncated);
  for (const core::SweepRun& run : report.runs) {
    if (!run.status.ok()) {
      std::fprintf(stderr, "warning: sweep point skipped: %s\n",
                   run.status.ToString().c_str());
    }
  }
  std::printf(
      "sweep: %d/%zu runs, %lld clusters, %lld nodes, %d shared index "
      "build%s, %.3f s\n",
      report.runs_executed, report.runs.size(),
      static_cast<long long>(report.clusters_total),
      static_cast<long long>(report.nodes_total), report.index_builds,
      report.index_builds == 1 ? "" : "s", report.wall_seconds);

  if (deterministic_output) {
    io::ZeroVolatileSweepFields(&report);
    io::ZeroVolatileCheckpointFields(&ckpt_stats);
  }

  util::Status st =
      WriteReportAtomic(json_path, "sweep json", [&](std::ostream& out) {
        return io::WriteSweepJson(report, out);
      });
  if (st.ok()) {
    st = WriteReportAtomic(csv_path, "sweep csv", [&](std::ostream& out) {
      return io::WriteSweepCsv(report, out);
    });
  }
  if (st.ok()) {
    st = WriteReportAtomic(metrics_path, "metrics", [&](std::ostream& out) {
      obs::MetricsRegistry registry;
      REGCLUSTER_RETURN_IF_ERROR(
          io::RegisterSweepMetrics(report, &registry, ckpt_for_metrics));
      return metrics_format == io::MetricsFormat::kPrometheus
                 ? registry.WritePrometheus(out)
                 : registry.WriteJson(out);
    });
  }
  if (!st.ok()) return Fail(st);
  return truncated ? kExitTruncated : kExitOk;
}

// ---------------------------------------------------------------------------
// mine
// ---------------------------------------------------------------------------

int CmdMine(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster mine --matrix=PATH --out=PATH\n"
        "  [--ming=20] [--minc=6] [--gamma=0.05]\n"
        "  [--gamma-policy=range|stddev|mean|closest-gap|absolute]\n"
        "  [--epsilon=1.0] [--threads=1] [--remove-dominated=true]\n"
        "  [--matrix-format=auto|bin|text]\n"
        "  [--impute=rowmean|knn] [--knn-k=10] [--normalize=none|quantile]\n"
        "  [--merge-overlap=0] [--require-gene=NAME_OR_INDEX]\n"
        "  [--report=PATH] [--json=PATH]\n"
        "  [--metrics-out=PATH] [--metrics-format=json|prom]\n"
        "  [--max-clusters=-1] [--max-nodes=-1] [--deadline-ms=-1]\n"
        "  [--checkpoint=PATH] [--checkpoint-every-ms=1000]\n"
        "  [--resume-from=PATH] [--deterministic-output]\n"
        "  [--incremental-out=PATH]\n"
        "  [--append=PATH --prev-outcome=PATH [--matrix-out=PATH]]\n"
        "  [--sweep=SPEC --sweep-out=PATH [--sweep-csv=PATH]]\n"
        "Mines reg-clusters and writes the machine-format archive to --out.\n"
        "--sweep runs a batch parameter sweep instead of a single mine:\n"
        "SPEC is axis=values pairs (gamma|eps|ming|minc; lo:hi:step range or\n"
        "v;v list, cross product) or a JSON list of points, e.g.\n"
        "  --sweep=gamma=0.1:0.5:0.1,eps=0.01;0.02,ming=20\n"
        "Equal-gamma points share one model/index; every point's clusters\n"
        "are byte-identical to a single mine at those options.  The report\n"
        "goes to --sweep-out (JSON) / --sweep-csv (summary); the budget\n"
        "flags bound the sweep as a whole, truncating on a run boundary\n"
        "(exit 3, resume from first_unfinished).\n"
        "--metrics-out writes the run's search counters and phase timings\n"
        "(regcluster_* metrics) as JSON or Prometheus text.\n"
        "--matrix-format selects the input reader: text (TSV/CSV), bin (the\n"
        "mmap-backed binary format written by convert --out-format=bin), or\n"
        "auto (sniff the binary magic; the default).  Binary matrices are\n"
        "mapped, not loaded, so genome-scale inputs mine without slurping\n"
        "the matrix into RAM; impute/normalize must happen at convert time.\n"
        "The gamma model is always the bitmap index, built in one pass, on\n"
        "either input; --model-cache-mb=N is accepted but has no effect.\n"
        "--merge-overlap > 0 runs the consensus merge post-pass.\n"
        "Budgets (--max-clusters/--max-nodes/--deadline-ms) and Ctrl-C stop\n"
        "the search at a deterministic root boundary: the outputs are then a\n"
        "canonical prefix of the full result, the JSON export carries an\n"
        "\"outcome\" block with a resume point, and the exit code is 3.\n"
        "--checkpoint=PATH makes the run durable: progress is snapshotted to\n"
        "PATH.a/PATH.b (atomic-replace, CRC-framed, double-buffered) after\n"
        "the first whole level-1 root, then as roots finish at most every\n"
        "--checkpoint-every-ms, so a SIGKILL at any instant loses at most\n"
        "one interval or one root, whichever is longer.  --resume-from=PATH\n"
        "continues from the newest valid snapshot after validating it\n"
        "against the matrix and options; the final output is byte-identical\n"
        "to an uninterrupted run.  A missing snapshot starts fresh (so\n"
        "supervisors can always pass both flags); a corrupt or mismatched\n"
        "one is an error (exit 1).\n"
        "--deterministic-output zeroes the wall-clock and scheduling fields\n"
        "of the JSON/metrics reports so byte comparison across runs works.\n"
        "--incremental-out=PATH records per-root mining state so a later\n"
        "run can append conditions without re-mining the whole matrix:\n"
        "  regcluster mine --matrix=M --out=O --incremental-out=S   # seed\n"
        "  regcluster mine --matrix=M' --append=COLS --prev-outcome=S\n"
        "    --incremental-out=S --out=O                            # extend\n"
        "COLS is a matrix over the same genes, one column per appended\n"
        "condition.  Only roots whose regulation chains can reach a new\n"
        "condition are re-mined; everything else splices from the state,\n"
        "and the output is byte-identical to a from-scratch mine of the\n"
        "widened matrix.  --matrix-out persists the widened matrix (binary\n"
        "format).  Budgets/checkpoints do not combine with this mode.");
    return 0;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const std::string out_path = flags->GetString("out", "");
  const std::string sweep_spec = flags->GetString("sweep", "");
  const std::string sweep_out = flags->GetString("sweep-out", "");
  const std::string sweep_csv = flags->GetString("sweep-csv", "");
  const bool sweeping = !sweep_spec.empty();
  if (matrix_path.empty() || (out_path.empty() && !sweeping)) {
    std::fprintf(stderr, "--matrix and --out are required\n");
    return 2;
  }
  if (sweeping && sweep_out.empty() && sweep_csv.empty()) {
    std::fprintf(stderr, "--sweep needs --sweep-out and/or --sweep-csv\n");
    return 2;
  }
  if (!sweeping && (!sweep_out.empty() || !sweep_csv.empty())) {
    std::fprintf(stderr, "--sweep-out/--sweep-csv need --sweep\n");
    return 2;
  }

  core::MinerOptions opts;
  opts.min_genes = flags->GetInt("ming", 20);
  opts.min_conditions = flags->GetInt("minc", 6);
  opts.gamma = flags->GetDouble("gamma", 0.05);
  opts.epsilon = flags->GetDouble("epsilon", 1.0);
  opts.num_threads = flags->GetInt("threads", 1);
  opts.remove_dominated = flags->GetBool("remove-dominated", true);
  opts.max_clusters = flags->GetInt<int64_t>("max-clusters", -1);
  opts.max_nodes = flags->GetInt<int64_t>("max-nodes", -1);
  opts.deadline_ms = flags->GetDouble("deadline-ms", -1.0);
  opts.gamma_policy = flags->GetGammaPolicy();
  const std::string report_path = flags->GetString("report", "");
  const std::string json_path = flags->GetString("json", "");
  const std::string metrics_path = flags->GetString("metrics-out", "");
  const std::string metrics_format_name =
      flags->GetString("metrics-format", "json");
  auto metrics_format = io::ParseMetricsFormat(metrics_format_name);
  if (!metrics_format.ok()) {
    return UsageError(metrics_format.status());
  }
  const std::string impute =
      flags->GetChoice("impute", "rowmean", "rowmean|knn");
  const int knn_k = flags->GetInt("knn-k", 10);
  const std::string normalize =
      flags->GetChoice("normalize", "none", "none|quantile");
  const double merge_overlap = flags->GetDouble("merge-overlap", 0.0);
  const std::string require_gene = flags->GetString("require-gene", "");
  const std::string matrix_format = flags->GetString("matrix-format", "auto");
  // Parsed (a malformed value is still a usage error) but ignored; kept only
  // because benchmark/workloads.py passes it.
  (void)flags->GetInt<int64_t>("model-cache-mb", -1);
  const std::string checkpoint_path = flags->GetString("checkpoint", "");
  const int checkpoint_every_ms = flags->GetInt("checkpoint-every-ms", 1000);
  const std::string resume_from = flags->GetString("resume-from", "");
  const std::string append_path = flags->GetString("append", "");
  const std::string prev_outcome = flags->GetString("prev-outcome", "");
  const std::string incremental_out = flags->GetString("incremental-out", "");
  const std::string matrix_out = flags->GetString("matrix-out", "");
  const bool deterministic_output =
      flags->GetBool("deterministic-output", false);
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);
  const bool incremental = !append_path.empty() || !incremental_out.empty();
  if (!append_path.empty() && prev_outcome.empty()) {
    std::fprintf(stderr, "--append needs --prev-outcome\n");
    return 2;
  }
  if (append_path.empty() && !prev_outcome.empty()) {
    std::fprintf(stderr, "--prev-outcome needs --append\n");
    return 2;
  }
  if (!matrix_out.empty() && append_path.empty()) {
    std::fprintf(stderr, "--matrix-out needs --append\n");
    return 2;
  }
  if (incremental && sweeping) {
    std::fprintf(stderr,
                 "--append/--incremental-out do not apply with --sweep\n");
    return 2;
  }
  if (incremental &&
      (!checkpoint_path.empty() || !resume_from.empty())) {
    std::fprintf(stderr,
                 "--append/--incremental-out do not combine with "
                 "--checkpoint/--resume-from (the incremental state is the "
                 "durable artifact)\n");
    return 2;
  }
  if (incremental && merge_overlap > 0.0) {
    std::fprintf(stderr,
                 "--merge-overlap does not apply with "
                 "--append/--incremental-out\n");
    return 2;
  }
  if (checkpoint_every_ms <= 0) {
    std::fprintf(stderr, "--checkpoint-every-ms must be positive\n");
    return 2;
  }
  const bool durable = !checkpoint_path.empty() || !resume_from.empty();

  // Sweep mode: expand the grid before touching the matrix, so a malformed
  // spec is a fast usage error.  The budget flags become sweep-level (the
  // per-point options carry none), and the single-run output flags do not
  // apply.
  std::vector<core::MinerOptions> sweep_points;
  if (sweeping) {
    if (!out_path.empty() || !report_path.empty() || !json_path.empty() ||
        merge_overlap > 0.0 || !require_gene.empty()) {
      std::fprintf(stderr,
                   "--out/--report/--json/--merge-overlap/--require-gene do "
                   "not apply with --sweep\n");
      return 2;
    }
    core::MinerOptions base = opts;
    base.max_nodes = -1;
    base.max_clusters = -1;
    base.deadline_ms = -1.0;
    base.num_threads = 1;
    auto points = io::ParseSweepSpec(sweep_spec, base);
    if (!points.ok()) return UsageError(points.status());
    sweep_points = *std::move(points);
  }

  // Durable-run setup: load the resume snapshot (if any) before touching
  // the matrix so a corrupt or wrong-kind checkpoint fails fast.  A missing
  // snapshot is a fresh start -- supervisors always pass both --checkpoint
  // and --resume-from and get correct behaviour on the first launch too.
  io::CheckpointConfig ckpt_config;
  ckpt_config.path = !checkpoint_path.empty() ? checkpoint_path : resume_from;
  ckpt_config.every_ms = checkpoint_every_ms;
  std::optional<io::Checkpoint> loaded;
  if (!resume_from.empty()) {
    auto l = io::LoadCheckpoint(resume_from);
    if (l.ok()) {
      loaded = *std::move(l);
      ckpt_config.next_generation = loaded->generation + 1;
    } else if (l.status().code() == util::StatusCode::kNotFound) {
      std::fprintf(stderr, "note: no checkpoint at %s yet; starting fresh\n",
                   resume_from.c_str());
    } else {
      return Fail(l.status());
    }
  }
  if (loaded) {
    const auto want =
        sweeping ? io::CheckpointKind::kSweep : io::CheckpointKind::kMine;
    if (loaded->kind != want) {
      return Fail(util::Status::FailedPrecondition(
          std::string("checkpoint at ") + resume_from + " is a " +
          (loaded->kind == io::CheckpointKind::kSweep ? "sweep" : "mine") +
          " snapshot, but this command runs a " +
          (sweeping ? "sweep" : "mine")));
    }
  }

  // Resolve the input reader: explicit --matrix-format, else sniff the
  // binary magic.
  const auto format = matrix::ResolveMatrixFormat(matrix_path, matrix_format);
  if (!format.ok()) {
    std::fprintf(stderr, "unknown --matrix-format=%s\n",
                 matrix_format.c_str());
    return 2;
  }

  // A binary matrix is read-only here: a plain mine maps it, and an
  // incremental run -- which widens the matrix in memory -- reads it
  // resident, once.  A text matrix loads resident and may be imputed and
  // normalized.
  const bool binary = *format == matrix::MatrixFormat::kBinary;
  if (binary && normalize != "none") {
    std::fprintf(stderr,
                 "--normalize applies at convert time for binary matrices "
                 "(regcluster convert --out-format=bin --normalize=...)\n");
    return 2;
  }
  matrix::ExpressionMatrix data;                      // resident storage
  std::shared_ptr<const matrix::MatrixStore> mapped;  // mmap-backed (bin)
  if (binary && !incremental) {
    auto m = matrix::OpenMatrixStore(matrix_path, *format);
    if (!m.ok()) return Fail(m.status());
    mapped = *std::move(m);
  } else {
    auto m = matrix::ReadMatrixFile(matrix_path, *format);
    if (!m.ok()) return Fail(m.status());
    data = *std::move(m);
  }
  const matrix::MatrixStore& store = mapped ? *mapped : data;
  if (binary) {
    if (store.HasMissingValues()) {
      return Fail(util::Status::FailedPrecondition(
          "binary matrix contains missing values; impute when converting "
          "(regcluster convert --impute=rowmean --out-format=bin)"));
    }
    std::printf("%s %d x %d binary matrix\n",
                store.mapped_bytes() > 0 ? "mapped" : "loaded",
                store.num_genes(), store.num_conditions());
  } else {
    if (data.HasMissingValues()) {
      const int64_t missing = matrix::CountMissing(data);
      if (impute == "knn") {
        auto imputed = matrix::ImputeKnn(data, knn_k);
        if (!imputed.ok()) return Fail(imputed.status());
        data = *std::move(imputed);
        std::printf("imputed %lld missing cells with %d-NN\n",
                    static_cast<long long>(missing), knn_k);
      } else {
        data = matrix::ImputeRowMean(data);
        std::printf("imputed %lld missing cells with row means\n",
                    static_cast<long long>(missing));
      }
    }
    if (normalize == "quantile") {
      auto normalized = matrix::QuantileNormalizeColumns(data);
      if (!normalized.ok()) return Fail(normalized.status());
      data = *std::move(normalized);
      std::printf("quantile-normalized columns\n");
    }
  }

  if (!require_gene.empty()) {
    const int gene = FindGeneArg(store, require_gene);
    if (gene < 0) {
      std::fprintf(stderr, "unknown gene: %s\n", require_gene.c_str());
      return 1;
    }
    opts.required_genes = {gene};
    std::printf("targeted mining: clusters must contain %s\n",
                store.gene_name(gene).c_str());
  }

  if (sweeping) {
    return RunSweep(store, opts, sweep_points, sweep_out, sweep_csv,
                    metrics_path, *metrics_format, durable, ckpt_config,
                    loaded ? &loaded->sweep : nullptr, deterministic_output);
  }

  util::StatusOr<std::vector<core::RegCluster>> clusters;
  core::MinerStats stats;
  core::MineOutcome outcome;
  io::CheckpointStats ckpt_stats;
  const io::CheckpointStats* ckpt_for_metrics = nullptr;
  util::Status ckpt_status;
  if (incremental) {
    // Incremental time-course mining: seed a chain (--incremental-out on a
    // plain mine) or extend one (--append + --prev-outcome).  Appends widen
    // the resident `data` in place, so the reports below name the widened
    // matrix's genes and conditions.
    util::StatusOr<io::IncrementalMineResult> result =
        util::Status::Internal("unreachable");
    if (append_path.empty()) {
      result = io::MineInitial(data, opts);
    } else {
      auto prev = io::LoadIncrementalState(prev_outcome);
      if (!prev.ok()) return Fail(prev.status());
      // The appended columns arrive as a matrix over the same genes (same
      // order): one column per new condition, labels become the new
      // condition names.
      auto cols = matrix::ReadMatrixFile(append_path);
      if (!cols.ok()) return Fail(cols.status());
      if (cols->num_genes() != data.num_genes()) {
        return Fail(util::Status::InvalidArgument(
            "--append matrix has " + std::to_string(cols->num_genes()) +
            " genes; the base matrix has " +
            std::to_string(data.num_genes())));
      }
      const int first_new = data.num_conditions();
      std::vector<std::vector<double>> columns(
          static_cast<size_t>(cols->num_conditions()));
      for (int c = 0; c < cols->num_conditions(); ++c) {
        columns[static_cast<size_t>(c)].resize(
            static_cast<size_t>(cols->num_genes()));
        for (int g = 0; g < cols->num_genes(); ++g) {
          columns[static_cast<size_t>(c)][static_cast<size_t>(g)] =
              (*cols)(g, c);
        }
      }
      if (auto st = data.AppendConditions(cols->condition_names(), columns);
          !st.ok()) {
        return Fail(st);
      }
      result = io::MineIncremental(data, first_new, opts, *prev);
    }
    if (!result.ok()) return Fail(result.status());
    std::printf(
        "mined %zu clusters in %.3f s (%d roots re-mined, %d spliced)\n",
        result->clusters.size(), result->stats.mine_seconds,
        result->roots_remined, result->roots_spliced);
    if (!incremental_out.empty()) {
      if (auto st =
              io::WriteIncrementalStateFile(incremental_out, result->state);
          !st.ok()) {
        return Fail(st);
      }
      std::printf("incremental state: %s\n", incremental_out.c_str());
    }
    if (!matrix_out.empty()) {
      if (auto st = matrix::WriteBinaryMatrix(data, matrix_out);
          !st.ok()) {
        return Fail(st);
      }
      std::printf("widened matrix: %s\n", matrix_out.c_str());
    }
    clusters = std::move(result->clusters);
    stats = result->stats;
    outcome = result->outcome;
  } else {
    // Ctrl-C cancels the search.  In a durable run the cancellation
    // surfaces as a hard stop inside the driver, which writes a final
    // synchronous snapshot before returning -- so Ctrl-C leaves a resumable
    // checkpoint behind.
    {
      InterruptScope interrupt;
      opts.cancel_token = interrupt.token();
      if (durable) {
        auto result = io::RunCheckpointedMine(
            store, opts, ckpt_config, loaded ? &loaded->mine : nullptr);
        if (result.ok()) {
          clusters = std::move(result->clusters);
          stats = result->stats;
          outcome = result->outcome;
          ckpt_stats = result->checkpoint;
          ckpt_for_metrics = &ckpt_stats;
          ckpt_status = result->checkpoint_status;
        } else {
          clusters = result.status();
        }
      } else {
        core::RegClusterMiner miner(store, opts);
        clusters = miner.Mine();
        if (clusters.ok()) {
          stats = miner.stats();
          outcome = miner.outcome();
        }
      }
    }
    if (!clusters.ok()) return Fail(clusters.status());

    if (outcome.status == core::MineStatus::kTruncated) {
      std::fprintf(
          stderr,
          "warning: search truncated (%s) after %d of %d roots; the outputs\n"
          "warning: below are a canonical prefix of the full result"
          " (resume root %d)\n",
          util::StopReasonName(outcome.stop_reason), outcome.roots_completed,
          outcome.roots_total, outcome.resume.next_root);
    }
    if (durable) {
      WarnCheckpoint(ckpt_config, ckpt_status,
                     outcome.status == core::MineStatus::kTruncated);
    }
    if (merge_overlap > 0.0) {
      eval::ConsensusOptions copts;
      copts.min_overlap = merge_overlap;
      copts.gamma_spec = {opts.gamma_policy, opts.gamma};
      copts.epsilon = opts.epsilon;
      const size_t before = clusters->size();
      *clusters = eval::MergeOverlapping(store, *std::move(clusters), copts);
      std::printf("consensus merge at overlap >= %.2f: %zu -> %zu clusters\n",
                  merge_overlap, before, clusters->size());
    }
    std::printf(
        "mined %zu clusters in %.3f s (model build %.3f s, %lld nodes, "
        "%lld extensions)\n",
        clusters->size(), stats.mine_seconds,
        stats.rwave_build_seconds + stats.index_build_seconds,
        static_cast<long long>(stats.nodes_expanded),
        static_cast<long long>(stats.extensions_tested));
  }

  const bool truncated = outcome.status == core::MineStatus::kTruncated;
  if (deterministic_output) {
    io::ZeroVolatileMineFields(&stats, &outcome);
    io::ZeroVolatileCheckpointFields(&ckpt_stats);
  }

  if (auto st = io::SaveClusters(*clusters, out_path); !st.ok()) {
    return Fail(st);
  }
  std::printf("archive: %s\n", out_path.c_str());
  util::Status st =
      WriteReportAtomic(report_path, "report", [&](std::ostream& out) {
        return io::WriteReport(*clusters, &store, out);
      });
  if (st.ok()) {
    st = WriteReportAtomic(json_path, "json", [&](std::ostream& out) {
      return io::WriteClustersJson(*clusters, &store, &outcome, &stats, out);
    });
  }
  if (st.ok()) {
    st = WriteReportAtomic(metrics_path, "metrics", [&](std::ostream& out) {
      return io::WriteMinerMetrics(stats, outcome, *metrics_format, out,
                                   ckpt_for_metrics);
    });
  }
  if (!st.ok()) return Fail(st);
  return truncated ? kExitTruncated : kExitOk;
}

// ---------------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------------

int CmdEvaluate(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster evaluate --found=PATH --truth=PATH [--matrix=PATH]\n"
        "Prints gene/cell relevance & recovery of the found clusters against\n"
        "the truth; with --matrix also validates every found cluster\n"
        "(gamma/epsilon from --gamma=/--epsilon=, defaults 0.05 / 1.0).");
    return 0;
  }
  const std::string found_path = flags->GetString("found", "");
  const std::string truth_path = flags->GetString("truth", "");
  if (found_path.empty() || truth_path.empty()) {
    std::fprintf(stderr, "--found and --truth are required\n");
    return 2;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const double gamma = flags->GetDouble("gamma", 0.05);
  const double epsilon = flags->GetDouble("epsilon", 1.0);
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);

  auto found_or = LoadClustersArg(found_path);
  if (!found_or.ok()) return Fail(found_or.status());
  auto truth_or = LoadClustersArg(truth_path);
  if (!truth_or.ok()) return Fail(truth_or.status());
  const auto found = *std::move(found_or);
  const auto truth = *std::move(truth_or);
  std::vector<core::Bicluster> found_feet, truth_feet;
  for (const auto& c : found) found_feet.push_back(core::ToBicluster(c));
  for (const auto& c : truth) truth_feet.push_back(core::ToBicluster(c));

  const eval::MatchReport r = eval::ScoreAgainstTruth(found_feet, truth_feet);
  std::printf("found=%zu truth=%zu\n", found.size(), truth.size());
  std::printf("gene  relevance=%.4f recovery=%.4f\n", r.gene_relevance,
              r.gene_recovery);
  std::printf("cell  relevance=%.4f recovery=%.4f\n", r.cell_relevance,
              r.cell_recovery);

  if (!matrix_path.empty()) {
    auto data_or = matrix::ReadMatrixFile(matrix_path);
    if (!data_or.ok()) return Fail(data_or.status());
    const matrix::ExpressionMatrix data = *std::move(data_or);
    int invalid = 0;
    std::string why;
    for (const auto& c : found) {
      if (!core::ValidateRegCluster(data, c, gamma, epsilon, &why)) {
        ++invalid;
        std::fprintf(stderr, "invalid cluster: %s\n", why.c_str());
      }
    }
    std::printf("validated %zu clusters, %d invalid (gamma=%.3g eps=%.3g)\n",
                found.size(), invalid, gamma, epsilon);
    if (invalid > 0) return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// enrich
// ---------------------------------------------------------------------------

int CmdEnrich(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster enrich --matrix=PATH --clusters=PATH\n"
        "  [--annotations=PATH] [--max-p=0.05] [--top=3]\n"
        "GO-term enrichment per cluster.  Without --annotations a synthetic\n"
        "database is generated (deterministic, for demos).");
    return 0;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const std::string clusters_path = flags->GetString("clusters", "");
  if (matrix_path.empty() || clusters_path.empty()) {
    std::fprintf(stderr, "--matrix and --clusters are required\n");
    return 2;
  }
  const std::string annotations_path = flags->GetString("annotations", "");
  eval::EnrichmentOptions eopts;
  eopts.max_p_value = flags->GetDouble("max-p", 0.05);
  const int top = flags->GetInt("top", 3);
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);

  auto data_or = matrix::ReadMatrixFile(matrix_path);
  if (!data_or.ok()) return Fail(data_or.status());
  const matrix::ExpressionMatrix data = *std::move(data_or);
  auto clusters_or = LoadClustersArg(clusters_path);
  if (!clusters_or.ok()) return Fail(clusters_or.status());
  const auto clusters = *std::move(clusters_or);

  eval::GoAnnotationDb db{0};
  if (annotations_path.empty()) {
    std::printf("no --annotations; generating a synthetic database\n");
    db = eval::GenerateAnnotations(data.num_genes(), {});
  } else {
    auto loaded = io::LoadAnnotations(annotations_path, data);
    if (!loaded.ok()) return Fail(loaded.status());
    std::printf("loaded %lld annotations (%lld unknown genes skipped)\n",
                static_cast<long long>(loaded->annotations_loaded),
                static_cast<long long>(loaded->unknown_genes_skipped));
    db = std::move(loaded->db);
  }

  for (size_t i = 0; i < clusters.size(); ++i) {
    auto results = eval::FindEnrichedTerms(db, clusters[i].AllGenes(), eopts);
    if (!results.ok()) return Fail(results.status());
    std::printf("cluster %zu (%d genes):", i, clusters[i].num_genes());
    if (results->empty()) {
      std::printf(" no enriched terms\n");
      continue;
    }
    std::printf("\n");
    for (size_t j = 0; j < results->size() && j < static_cast<size_t>(top);
         ++j) {
      const auto& r = (*results)[j];
      std::printf("  %-14s %-32s k=%d/%d p=%.3e (corrected %.3e)\n",
                  db.term(r.term).id.c_str(), db.term(r.term).name.c_str(),
                  r.cluster_count, r.population_count, r.p_value,
                  r.corrected_p_value);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------------

int CmdSummarize(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster summarize --clusters=PATH [--matrix=PATH] [--top=5]\n"
        "Aggregate statistics; with --matrix also intrinsic quality of the\n"
        "top-ranked clusters.");
    return 0;
  }
  const std::string clusters_path = flags->GetString("clusters", "");
  if (clusters_path.empty()) {
    std::fprintf(stderr, "--clusters is required\n");
    return 2;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const int top = flags->GetInt("top", 5);
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);

  auto clusters_or = LoadClustersArg(clusters_path);
  if (!clusters_or.ok()) return Fail(clusters_or.status());
  const auto clusters = *std::move(clusters_or);
  const eval::ClusterSetSummary s = eval::Summarize(clusters);
  std::printf("clusters: %d\n", s.num_clusters);
  if (s.num_clusters == 0) return 0;
  std::printf("genes per cluster: min=%d mean=%.1f max=%d\n", s.min_genes,
              s.mean_genes, s.max_genes);
  std::printf("conditions per cluster: min=%d mean=%.1f max=%d\n",
              s.min_conditions, s.mean_conditions, s.max_conditions);
  std::printf("with negative members: %.0f%%\n", 100 * s.negative_fraction);
  if (s.num_clusters > 1) {
    std::printf("pairwise cell overlap: %.0f%% .. %.0f%%\n",
                100 * s.min_overlap, 100 * s.max_overlap);
  }

  if (!matrix_path.empty()) {
    auto data_or = matrix::ReadMatrixFile(matrix_path);
    if (!data_or.ok()) return Fail(data_or.status());
    const matrix::ExpressionMatrix data = *std::move(data_or);
    const std::vector<int> ranked = eval::RankClusters(data, clusters);
    std::printf("\ntop clusters by size/tightness:\n");
    for (size_t i = 0; i < ranked.size() && i < static_cast<size_t>(top);
         ++i) {
      const auto& c = clusters[static_cast<size_t>(ranked[i])];
      const eval::ClusterQuality q = eval::ScoreCluster(data, c);
      std::printf(
          "  #%d: %dx%d spread=%.4f margin=%.2f fit_residual=%.4f "
          "|corr|=%.3f\n",
          ranked[i], c.num_genes(), c.num_conditions(), q.coherence_spread,
          q.regulation_margin, q.mean_fit_residual, q.mean_abs_correlation);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// convert
// ---------------------------------------------------------------------------

int CmdConvert(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster convert --in=PATH --out=PATH\n"
        "  [--in-format=auto|bin|text] [--out-format=text|bin]\n"
        "  [--in-delimiter=tab|comma] [--out-delimiter=tab|comma]\n"
        "  [--impute=none|rowmean|knn] [--knn-k=10]\n"
        "  [--transform=none|log|exp|zscore] [--normalize=none|quantile]\n"
        "Format conversion plus the preprocessing pipeline, applied in the\n"
        "order impute -> transform -> normalize.\n"
        "--out-format=bin writes the mmap-backed binary matrix format\n"
        "(64-byte header + page-aligned gene-contiguous doubles) that\n"
        "`mine --matrix-format=bin` maps instead of loading; impute here,\n"
        "since the mapped file is read-only at mine time.  --in-format\n"
        "defaults to sniffing the binary magic.");
    return 0;
  }
  const std::string in_path = flags->GetString("in", "");
  const std::string out_path = flags->GetString("out", "");
  if (in_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "--in and --out are required\n");
    return 2;
  }
  const std::string in_delimiter =
      flags->GetChoice("in-delimiter", "tab", "tab|comma");
  const std::string out_delimiter =
      flags->GetChoice("out-delimiter", "tab", "tab|comma");
  const std::string impute =
      flags->GetChoice("impute", "none", "none|rowmean|knn");
  const int knn_k = flags->GetInt("knn-k", 10);
  const std::string transform =
      flags->GetChoice("transform", "none", "none|log|exp|zscore");
  const std::string normalize =
      flags->GetChoice("normalize", "none", "none|quantile");
  const std::string in_format = flags->GetString("in-format", "auto");
  const std::string out_format =
      flags->GetChoice("out-format", "text", "text|bin");
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);
  matrix::TextFormat in_fmt;
  matrix::TextFormat out_fmt;
  in_fmt.delimiter = in_delimiter == "tab" ? '\t' : ',';
  out_fmt.delimiter = out_delimiter == "tab" ? '\t' : ',';
  const auto format = matrix::ResolveMatrixFormat(in_path, in_format);
  if (!format.ok()) {
    std::fprintf(stderr, "unknown --in-format=%s\n", in_format.c_str());
    return 2;
  }
  auto loaded = matrix::ReadMatrixFile(in_path, *format, in_fmt);
  if (!loaded.ok()) return Fail(loaded.status());
  matrix::ExpressionMatrix data = *std::move(loaded);

  if (impute == "rowmean") {
    data = matrix::ImputeRowMean(data);
  } else if (impute == "knn") {
    auto imputed = matrix::ImputeKnn(data, knn_k);
    if (!imputed.ok()) return Fail(imputed.status());
    data = *std::move(imputed);
  }

  if (transform == "log") {
    auto t = matrix::LogTransform(data);
    if (!t.ok()) return Fail(t.status());
    data = *std::move(t);
  } else if (transform == "exp") {
    auto t = matrix::ExpTransform(data);
    if (!t.ok()) return Fail(t.status());
    data = *std::move(t);
  } else if (transform == "zscore") {
    data = matrix::ZScoreRows(data);
  }

  if (normalize == "quantile") {
    auto n = matrix::QuantileNormalizeColumns(data);
    if (!n.ok()) return Fail(n.status());
    data = *std::move(n);
  }

  if (out_format == "bin") {
    if (auto st = matrix::WriteBinaryMatrix(data, out_path); !st.ok()) {
      return Fail(st);
    }
  } else if (auto st = matrix::SaveMatrix(data, out_path, out_fmt);
             !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %d x %d %s matrix to %s\n", data.num_genes(),
              data.num_conditions(), out_format.c_str(), out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

int CmdStats(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster stats --matrix=PATH [--worst=5]\n"
        "Data-QC report: matrix summary, per-condition table, flattest "
        "genes.");
    return 0;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  if (matrix_path.empty()) {
    std::fprintf(stderr, "--matrix is required\n");
    return 2;
  }
  const int worst = flags->GetInt("worst", 5);
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);
  auto data_or = matrix::ReadMatrixFile(matrix_path);
  if (!data_or.ok()) return Fail(data_or.status());
  const matrix::ExpressionMatrix data = *std::move(data_or);
  if (auto st = matrix::WriteStatsReport(data, std::cout, worst); !st.ok()) {
    return Fail(st);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// significance
// ---------------------------------------------------------------------------

int CmdSignificance(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster significance --matrix=PATH --clusters=PATH\n"
        "  [--gamma=0.05] [--epsilon=1.0] [--permutations=2000] [--seed=101]\n"
        "Permutation test per cluster: how often does a shuffled gene "
        "profile\nmatch the cluster's chain and coherence?  Reports the "
        "binomial-tail\np-value for the observed member count.");
    return 0;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const std::string clusters_path = flags->GetString("clusters", "");
  if (matrix_path.empty() || clusters_path.empty()) {
    std::fprintf(stderr, "--matrix and --clusters are required\n");
    return 2;
  }
  eval::SignificanceOptions opts;
  opts.gamma_spec.gamma = flags->GetDouble("gamma", 0.05);
  opts.epsilon = flags->GetDouble("epsilon", 1.0);
  opts.permutations = flags->GetInt("permutations", 2000);
  opts.seed = static_cast<uint64_t>(flags->GetInt("seed", 101));
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);

  auto data_or = matrix::ReadMatrixFile(matrix_path);
  if (!data_or.ok()) return Fail(data_or.status());
  matrix::ExpressionMatrix data = *std::move(data_or);
  if (data.HasMissingValues()) data = matrix::ImputeRowMean(data);
  auto clusters_or = LoadClustersArg(clusters_path);
  if (!clusters_or.ok()) return Fail(clusters_or.status());
  const auto clusters = *std::move(clusters_or);

  std::printf("%-10s %8s %8s %14s %14s %12s\n", "cluster", "genes", "conds",
              "null-chain", "null-full", "p-value");
  for (size_t i = 0; i < clusters.size(); ++i) {
    auto result = eval::PermutationSignificance(data, clusters[i], opts);
    if (!result.ok()) return Fail(result.status());
    std::printf("%-10zu %8d %8d %14.5f %14.5f %12.3e\n", i,
                clusters[i].num_genes(), clusters[i].num_conditions(),
                result->null_chain_rate, result->null_full_rate,
                result->p_value);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// rwave (inspection / debugging)
// ---------------------------------------------------------------------------

int CmdRWave(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster rwave --matrix=PATH --gene=NAME_OR_INDEX\n"
        "  [--gamma=0.1] [--gamma-policy=range|stddev|mean|closest-gap|"
        "absolute]\n"
        "Prints the gene's RWave^gamma model: the sorted condition order and "
        "the bordering regulation pointers (paper Figure 3).");
    return 0;
  }
  const std::string matrix_path = flags->GetString("matrix", "");
  const std::string gene_arg = flags->GetString("gene", "");
  if (matrix_path.empty() || gene_arg.empty()) {
    std::fprintf(stderr, "--matrix and --gene are required\n");
    return 2;
  }
  core::GammaSpec spec;
  spec.gamma = flags->GetDouble("gamma", 0.1);
  spec.policy = flags->GetGammaPolicy();
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);

  auto data_or = matrix::ReadMatrixFile(matrix_path);
  if (!data_or.ok()) return Fail(data_or.status());
  matrix::ExpressionMatrix data = *std::move(data_or);
  if (data.HasMissingValues()) data = matrix::ImputeRowMean(data);
  if (auto st = core::ValidateMatrixValues(data); !st.ok()) return Fail(st);
  const int gene = FindGeneArg(data, gene_arg);
  if (gene < 0) {
    std::fprintf(stderr, "unknown gene: %s\n", gene_arg.c_str());
    return 1;
  }

  const double gamma_abs = core::AbsoluteGamma(data, gene, spec);
  const core::RWaveModel model =
      core::RWaveModel::Build(data.row_data(gene), data.num_conditions(),
                              gamma_abs);
  std::printf("gene %s, policy %s, gamma = %g -> gamma_i = %g\n",
              data.gene_name(gene).c_str(), core::GammaPolicyName(spec.policy),
              spec.gamma, gamma_abs);
  std::printf("sorted order (value):\n");
  for (int p = 0; p < model.num_conditions(); ++p) {
    std::printf("  [%2d] %-12s %10.4f  up-chain %d  down-chain %d\n", p,
                data.condition_name(model.condition_at(p)).c_str(),
                model.value_at(p), model.MaxChainUp(p), model.MaxChainDown(p));
  }
  std::printf("bordering regulation pointers (tail <- head):\n");
  for (const auto& ptr : model.pointers()) {
    std::printf("  %s <- %s  (%.4f <- %.4f)\n",
                data.condition_name(model.condition_at(ptr.tail_pos)).c_str(),
                data.condition_name(model.condition_at(ptr.head_pos)).c_str(),
                model.value_at(ptr.tail_pos), model.value_at(ptr.head_pos));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

std::atomic<server::ServerDaemon*> g_serve_daemon{nullptr};

extern "C" void HandleServeSignal(int /*signum*/) {
  // RequestShutdown is one write() to a self-pipe: async-signal-safe.
  server::ServerDaemon* daemon =
      g_serve_daemon.load(std::memory_order_acquire);
  if (daemon != nullptr) daemon->RequestShutdown();
}

int CmdServe(Flags* flags) {
  if (flags->GetBool("help")) {
    std::puts(
        "regcluster serve [--port=N] [--socket=PATH]\n"
        "  [--threads=1] [--max-active=2] [--max-queued=8]\n"
        "  [--memory-budget-mb=512] [--cache-mb=256] [--retry-after-s=1]\n"
        "  [--ming=20] [--minc=6] [--gamma=0.05] [--gamma-policy=range]\n"
        "  [--epsilon=1.0]\n"
        "Long-lived mining daemon.  --port binds 127.0.0.1:N over TCP (0\n"
        "picks an ephemeral port, printed on the 'listening' line);\n"
        "--socket binds a unix socket; at least one is required.  Both\n"
        "speak HTTP/1.1 (POST /mine, POST /sweep, GET /metrics,\n"
        "GET /healthz) and the length-prefixed binary framing -- the first\n"
        "byte of each connection picks the transport.  Loaded matrices and\n"
        "gamma models are cached across requests in an LRU bounded by\n"
        "--cache-mb; admission sheds (503 + Retry-After) beyond\n"
        "--max-active/--max-queued sessions or --memory-budget-mb.  The\n"
        "--ming/--minc/... flags are the request defaults; request bodies\n"
        "override them per call.  SIGTERM/SIGINT drain: in-flight requests\n"
        "complete, then the daemon exits 0.");
    return 0;
  }
  server::ServerDaemon::Options opts;
  opts.port = flags->GetInt("port", -1);
  opts.unix_socket = flags->GetString("socket", "");
  opts.service.num_threads = flags->GetInt("threads", 1);
  opts.service.max_active = flags->GetInt("max-active", 2);
  opts.service.max_queued = flags->GetInt("max-queued", 8);
  opts.service.memory_budget_bytes =
      flags->GetInt<int64_t>("memory-budget-mb", 512) * (int64_t{1} << 20);
  opts.service.cache_bytes =
      flags->GetInt<int64_t>("cache-mb", 256) * (int64_t{1} << 20);
  opts.service.retry_after_s = flags->GetInt("retry-after-s", 1);
  core::MinerOptions& defaults = opts.service.defaults;
  defaults.min_genes = flags->GetInt("ming", 20);
  defaults.min_conditions = flags->GetInt("minc", 6);
  defaults.gamma = flags->GetDouble("gamma", 0.05);
  defaults.epsilon = flags->GetDouble("epsilon", 1.0);
  defaults.gamma_policy = flags->GetGammaPolicy();
  if (auto st = flags->Check(); !st.ok()) return UsageError(st);
  if (opts.service.num_threads < 1 || opts.service.max_active < 1 ||
      opts.service.max_queued < 0) {
    std::fprintf(stderr,
                 "--threads/--max-active must be >= 1, --max-queued >= 0\n");
    return 2;
  }

  server::ServerDaemon daemon(opts);
  if (auto st = daemon.Start(); !st.ok()) {
    return st.code() == util::StatusCode::kInvalidArgument ? UsageError(st)
                                                           : Fail(st);
  }
  // Machine-readable readiness line -- the lifecycle test waits for it.
  std::printf("listening port=%d socket=%s\n", daemon.bound_port(),
              opts.unix_socket.empty() ? "-" : opts.unix_socket.c_str());
  std::fflush(stdout);

  g_serve_daemon.store(&daemon, std::memory_order_release);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  daemon.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_daemon.store(nullptr, std::memory_order_release);
  std::printf("drained, exiting\n");
  return 0;
}

int Usage() {
  std::puts(
      "regcluster <command> [--flags]\n"
      "commands: generate, mine, evaluate, enrich, summarize, rwave, "
      "significance, stats, convert, serve\n"
      "run `regcluster <command> --help` for details\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage, 3 truncated by budget");
  return kExitUsage;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  auto flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) return UsageError(flags.status());
  if (cmd == "generate") return CmdGenerate(&*flags);
  if (cmd == "mine") return CmdMine(&*flags);
  if (cmd == "evaluate") return CmdEvaluate(&*flags);
  if (cmd == "enrich") return CmdEnrich(&*flags);
  if (cmd == "summarize") return CmdSummarize(&*flags);
  if (cmd == "rwave") return CmdRWave(&*flags);
  if (cmd == "significance") return CmdSignificance(&*flags);
  if (cmd == "stats") return CmdStats(&*flags);
  if (cmd == "convert") return CmdConvert(&*flags);
  if (cmd == "serve") return CmdServe(&*flags);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace regcluster

int main(int argc, char** argv) { return regcluster::cli::Main(argc, argv); }
