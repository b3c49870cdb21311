// trace_driver -- in-process replays for the end-to-end benchmark
// (benchmark/run.py).
//
//   trace_driver info          prints {"simd": "<level>"} (provenance)
//   trace_driver replay SPEC   replays the ops listed in the JSON file SPEC
//   trace_driver run LOG TIMEOUT_S PROGRAM [ARGS...]
//                              runs one program process (stdout and stderr
//                              to LOG, killed after TIMEOUT_S) and prints
//                              "<wall ns> <user+sys us> <max RSS KiB> <exit>"
//
// `run` exists for the RSS figure: the kernel's peak-RSS count of a child
// includes the memory of the process it was forked from, so the benchmark
// forks program processes from this small binary, not from Python.
//
// A replay makes the same public calls, with the same inputs and in the
// same order, as one `regcluster mine` process (tools/regcluster_cli.cc)
// or one daemon request (MiningService::HandleFrame), and records a span
// around every call into a layer: matrix, core, io, server, util.  Spans
// stay in memory and are written to SPEC's "spans_out" (JSON lines) when
// the replay ends.  Archives, states and replies land where SPEC says, so
// run.py can check them byte for byte against the untraced run's
// references.
//
// Two splits differ in shape, never in output, from the CLI:
//   * a plain mine builds its model through MinerOptions::shared_model and
//     runs core::RemoveDominated on the output of a remove_dominated=false
//     mine, so model build, search and dominance get spans of their own;
//   * work the program does inside one call (MineIncremental's search and
//     dominance pass, HandleFrame's cache lookup and mining) stays inside
//     that call's span.  Probes outside the op -- a trace whose root is not
//     "<workload>.op" -- time some of those parts separately.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bicluster.h"
#include "core/miner.h"
#include "core/threshold.h"
#include "io/cluster_io.h"
#include "io/incremental.h"
#include "matrix/expression_matrix.h"
#include "matrix/matrix_io.h"
#include "matrix/store.h"
#include "server/json_reader.h"
#include "server/request.h"
#include "server/service.h"
#include "util/simd/dispatch.h"
#include "util/status.h"
#include "util/task_pool.h"

namespace regcluster {
namespace bench {
namespace {

using server::JsonValue;
using util::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

struct Span {
  int64_t trace_id = 0;
  int64_t span_id = 0;
  int64_t parent_id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> counts;
};

/// In-memory span recorder.  Spans nest by call order: a span begun while
/// another is open becomes its child.
class Tracer {
 public:
  void NewTrace() { ++trace_id_; }

  size_t Begin(const std::string& name) {
    Span s;
    s.trace_id = trace_id_;
    s.span_id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent_id = open_.empty() ? 0 : spans_[open_.back()].span_id;
    s.name = name;
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  void Count(size_t index, const std::string& key, double value) {
    spans_[index].counts.emplace_back(key, value);
  }

  Status Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IoError("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"trace_id\":%lld,\"span_id\":%lld,\"parent_id\":%lld,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"counts\":{",
                   static_cast<long long>(s.trace_id),
                   static_cast<long long>(s.span_id),
                   static_cast<long long>(s.parent_id), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (size_t i = 0; i < s.counts.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.17g", i > 0 ? "," : "",
                     s.counts[i].first.c_str(), s.counts[i].second);
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0 ? Status::OK()
                               : Status::IoError("cannot write " + path);
  }

 private:
  int64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span: open for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Count(const std::string& key, double value) {
    tracer_->Count(index_, key, value);
  }

 private:
  Tracer* tracer_;
  size_t index_;
};

// --- spec access -------------------------------------------------------------

util::StatusOr<JsonValue> ReadSpec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return server::ParseJson(text);
}

std::string Str(const JsonValue& v, const char* key) {
  const JsonValue* f = v.Find(key);
  return f != nullptr && f->is_string() ? f->string_value : std::string();
}

double Num(const JsonValue& v, const char* key, double fallback) {
  const JsonValue* f = v.Find(key);
  return f != nullptr && f->is_number() ? f->number_value : fallback;
}

int Int(const JsonValue& v, const char* key, int fallback) {
  return static_cast<int>(Num(v, key, fallback));
}

/// The mining options of a `regcluster mine` invocation with the spec op's
/// flags (CLI defaults for everything the op leaves out).
util::StatusOr<core::MinerOptions> MineOptions(const JsonValue& op,
                                               int threads) {
  core::MinerOptions opts;
  opts.min_genes = Int(op, "ming", 20);
  opts.min_conditions = Int(op, "minc", 6);
  opts.gamma = Num(op, "gamma", 0.05);
  opts.epsilon = Num(op, "epsilon", 1.0);
  opts.num_threads = threads;
  opts.remove_dominated = true;
  const std::string policy = Str(op, "gamma_policy");
  if (!core::ParseGammaPolicy(policy.empty() ? "range" : policy,
                              &opts.gamma_policy)) {
    return Status::InvalidArgument("unknown gamma_policy " + policy);
  }
  return opts;
}

// --- mine_dense / mine_outofcore ---------------------------------------------

/// Loads the op's matrix the way CmdMine does: binary files are mapped,
/// text files parsed resident.
Status LoadStore(Tracer* t, const std::string& path, bool binary,
                 std::optional<matrix::MappedMatrix>* mapped,
                 matrix::ExpressionMatrix* resident) {
  ScopedSpan s(t, "matrix.load");
  s.Count("bytes", static_cast<double>(FileBytes(path)));
  if (binary) {
    auto m = matrix::MappedMatrix::Open(path);
    if (!m.ok()) return m.status();
    mapped->emplace(*std::move(m));
    if ((*mapped)->HasMissingValues()) {
      return Status::FailedPrecondition("binary matrix has missing values");
    }
    return Status::OK();
  }
  auto m = matrix::LoadMatrix(path);
  if (!m.ok()) return m.status();
  *resident = *std::move(m);
  if (resident->HasMissingValues()) {
    return Status::FailedPrecondition("matrix has missing values");
  }
  return Status::OK();
}

std::shared_ptr<const core::SharedGammaModel> BuildModel(
    Tracer* t, const matrix::MatrixStore& data,
    const core::MinerOptions& opts, int64_t cache_bytes) {
  ScopedSpan s(t, "core.model_build");
  const core::GammaSpec spec{opts.gamma_policy, opts.gamma};
  auto model =
      cache_bytes >= 0
          ? core::SharedGammaModel::BuildOutOfCore(
                data, spec, opts.min_conditions, cache_bytes,
                opts.model_cache_shards, opts.num_threads)
          : core::SharedGammaModel::Build(data, spec, opts.min_conditions,
                                          opts.num_threads);
  s.Count("rwave_build_ms", model->rwave_build_seconds * 1e3);
  s.Count("index_build_ms", model->index_build_seconds * 1e3);
  s.Count("model_bytes", static_cast<double>(model->MemoryBytes()));
  return model;
}

/// Phase A on a pool of `threads` workers (skipped when serial, as in
/// RegClusterMiner::Mine), then the canonical phase B.
util::StatusOr<std::vector<core::RegCluster>> Search(
    Tracer* t, const matrix::MatrixStore& data, core::MinerOptions opts,
    std::shared_ptr<const core::SharedGammaModel> model) {
  ScopedSpan s(t, "core.search");
  opts.remove_dominated = false;
  opts.shared_model = std::move(model);
  core::RegClusterMiner miner(data, opts);
  if (Status st = miner.Prepare(); !st.ok()) return st;
  if (opts.num_threads > 1) {
    ScopedSpan a(t, "core.phase_a");
    std::optional<util::TaskPool> pool;
    {
      ScopedSpan p(t, "util.pool_start");
      pool.emplace(opts.num_threads);
    }
    miner.SubmitParallelWork(&*pool);
    pool->Wait();
    a.Count("pool_steals", static_cast<double>(pool->total_steals()));
    a.Count("pool_queue_high_water",
            static_cast<double>(pool->queue_depth_high_water()));
    ScopedSpan p(t, "util.pool_stop");
    pool.reset();
  }
  util::StatusOr<std::vector<core::RegCluster>> clusters =
      Status::Internal("unreachable");
  {
    ScopedSpan b(t, "core.phase_b");
    clusters = miner.Finalize();
  }
  if (!clusters.ok()) return clusters;
  const core::MinerStats& st = miner.stats();
  const core::MineOutcome& out = miner.outcome();
  s.Count("nodes_expanded", static_cast<double>(st.nodes_expanded));
  s.Count("extensions_tested", static_cast<double>(st.extensions_tested));
  s.Count("pruned_coherence", static_cast<double>(st.pruned_coherence));
  s.Count("coherence_scores", static_cast<double>(st.coherence_scores));
  s.Count("index_word_ops", static_cast<double>(st.index_word_ops));
  s.Count("peak_scratch_bytes", static_cast<double>(out.peak_scratch_bytes));
  s.Count("model_cache_misses", static_cast<double>(out.model_cache_misses));
  s.Count("model_cache_evictions",
          static_cast<double>(out.model_cache_evictions));
  return clusters;
}

Status SaveArchive(Tracer* t, const std::vector<core::RegCluster>& clusters,
                   const std::string& path) {
  ScopedSpan s(t, "io.archive_write");
  Status st = io::SaveClusters(clusters, path);
  s.Count("bytes", static_cast<double>(FileBytes(path)));
  return st;
}

/// One `regcluster mine --matrix=M --out=O [--model-cache-mb=N] ...`.
Status MineOp(Tracer* t, const std::string& root_name, const JsonValue& op,
              int threads) {
  ScopedSpan root(t, root_name);
  auto opts = MineOptions(op, threads);
  if (!opts.ok()) return opts.status();
  const int cache_mb = Int(op, "cache_mb", -1);
  std::optional<matrix::MappedMatrix> mapped;
  matrix::ExpressionMatrix resident;
  if (Status st = LoadStore(t, Str(op, "matrix"), cache_mb >= 0, &mapped,
                            &resident);
      !st.ok()) {
    return st;
  }
  const matrix::MatrixStore& data =
      mapped ? static_cast<const matrix::MatrixStore&>(*mapped) : resident;
  auto model = BuildModel(
      t, data, *opts, cache_mb >= 0 ? int64_t{cache_mb} << 20 : int64_t{-1});
  auto clusters = Search(t, data, *opts, model);
  if (!clusters.ok()) return clusters.status();
  {
    ScopedSpan s(t, "core.remove_dominated");
    s.Count("in", static_cast<double>(clusters->size()));
    *clusters = core::RemoveDominated(*std::move(clusters));
    s.Count("out", static_cast<double>(clusters->size()));
  }
  return SaveArchive(t, *clusters, Str(op, "out"));
}

/// Serial search over the op's matrix and model, for the parallel
/// efficiency ratio.  Only its core.search span is read.
Status SerialSearchProbe(Tracer* t, const JsonValue& op) {
  ScopedSpan root(t, "probe.serial_search");
  auto opts = MineOptions(op, 1);
  if (!opts.ok()) return opts.status();
  std::optional<matrix::MappedMatrix> mapped;
  matrix::ExpressionMatrix resident;
  if (Status st = LoadStore(t, Str(op, "matrix"), false, &mapped, &resident);
      !st.ok()) {
    return st;
  }
  auto model = BuildModel(t, resident, *opts, -1);
  return Search(t, resident, *opts, model).status();
}

// --- timecourse_append -------------------------------------------------------

/// One `regcluster mine --matrix=M --append=COLS --prev-outcome=S
/// --incremental-out=S' --matrix-out=M' --out=O` with a binary M, inside
/// the caller's op span.
Status AppendOpBody(Tracer* t, const JsonValue& op, int threads,
                    std::optional<io::IncrementalMineResult>* out) {
  auto opts = MineOptions(op, threads);
  if (!opts.ok()) return opts.status();
  const std::string matrix_path = Str(op, "matrix");
  std::optional<matrix::MappedMatrix> mapped;
  matrix::ExpressionMatrix unused;
  if (Status st = LoadStore(t, matrix_path, true, &mapped, &unused);
      !st.ok()) {
    return st;
  }
  util::StatusOr<io::IncrementalState> prev = Status::Internal("unreachable");
  {
    ScopedSpan s(t, "io.state_load");
    s.Count("bytes", static_cast<double>(FileBytes(Str(op, "prev"))));
    prev = io::LoadIncrementalState(Str(op, "prev"));
  }
  if (!prev.ok()) return prev.status();
  matrix::ExpressionMatrix data;
  matrix::ExpressionMatrix cols;
  {
    ScopedSpan s(t, "matrix.load");
    s.Count("bytes", static_cast<double>(FileBytes(matrix_path)));
    auto m = matrix::ReadBinaryMatrix(matrix_path);
    if (!m.ok()) return m.status();
    data = *std::move(m);
  }
  {
    ScopedSpan s(t, "matrix.load");
    s.Count("bytes", static_cast<double>(FileBytes(Str(op, "append"))));
    auto m = matrix::LoadMatrix(Str(op, "append"));
    if (!m.ok()) return m.status();
    cols = *std::move(m);
  }
  if (cols.num_genes() != data.num_genes()) {
    return Status::InvalidArgument("append matrix has the wrong gene count");
  }
  const int first_new = data.num_conditions();
  std::vector<std::vector<double>> columns(
      static_cast<size_t>(cols.num_conditions()),
      std::vector<double>(static_cast<size_t>(cols.num_genes())));
  for (int c = 0; c < cols.num_conditions(); ++c) {
    for (int g = 0; g < cols.num_genes(); ++g) {
      columns[static_cast<size_t>(c)][static_cast<size_t>(g)] = cols(g, c);
    }
  }
  {
    ScopedSpan s(t, "matrix.append");
    if (Status st = data.AppendConditions(cols.condition_names(), columns);
        !st.ok()) {
      return st;
    }
  }
  util::StatusOr<io::IncrementalMineResult> result =
      Status::Internal("unreachable");
  {
    ScopedSpan s(t, "io.mine_incremental");
    result = io::MineIncremental(data, first_new, *opts, *prev);
    if (result.ok()) {
      s.Count("roots_remined", result->roots_remined);
      s.Count("roots_spliced", result->roots_spliced);
      s.Count("nodes_expanded",
              static_cast<double>(result->stats.nodes_expanded));
      s.Count("extensions_tested",
              static_cast<double>(result->stats.extensions_tested));
      s.Count("pruned_coherence",
              static_cast<double>(result->stats.pruned_coherence));
      s.Count("coherence_scores",
              static_cast<double>(result->stats.coherence_scores));
      s.Count("index_word_ops",
              static_cast<double>(result->stats.index_word_ops));
      s.Count("rwave_build_ms", result->stats.rwave_build_seconds * 1e3);
      s.Count("index_build_ms", result->stats.index_build_seconds * 1e3);
    }
  }
  if (!result.ok()) return result.status();
  {
    ScopedSpan s(t, "io.state_write");
    if (Status st = io::WriteIncrementalStateFile(Str(op, "state_out"),
                                                  result->state);
        !st.ok()) {
      return st;
    }
    s.Count("bytes", static_cast<double>(FileBytes(Str(op, "state_out"))));
  }
  {
    ScopedSpan s(t, "matrix.write");
    if (Status st = matrix::WriteBinaryMatrix(data, Str(op, "matrix_out"));
        !st.ok()) {
      return st;
    }
  }
  if (Status st = SaveArchive(t, result->clusters, Str(op, "out"));
      !st.ok()) {
    return st;
  }
  out->emplace(*std::move(result));
  return Status::OK();
}

Status AppendOp(Tracer* t, const JsonValue& op, int threads) {
  std::optional<io::IncrementalMineResult> result;
  {
    ScopedSpan root(t, "timecourse_append.op");
    if (Status st = AppendOpBody(t, op, threads, &result); !st.ok()) {
      return st;
    }
  }
  // Probe: the dominance pass MineIncremental ran inside its span, redone
  // on the spliced pre-dominance output (the root slices in root order).
  t->NewTrace();
  ScopedSpan probe(t, "probe.remove_dominated");
  std::vector<core::RegCluster> raw;
  for (const core::RootMineResult& r : result->state.roots) {
    raw.insert(raw.end(), r.clusters.begin(), r.clusters.end());
  }
  ScopedSpan s(t, "core.remove_dominated");
  s.Count("in", static_cast<double>(raw.size()));
  s.Count("out",
          static_cast<double>(core::RemoveDominated(std::move(raw)).size()));
  return Status::OK();
}

// --- serve_mixed -------------------------------------------------------------

/// Replays request frames through one in-process MiningService configured
/// like `regcluster serve` with the spec's flags.  Every reply is appended
/// to "replies_out" as "<byte length>\n<body>".
Status ServeReplay(Tracer* t, const JsonValue& spec) {
  server::MiningService::Options so;
  // CmdServe's request defaults.
  so.defaults.min_genes = 20;
  so.defaults.min_conditions = 6;
  so.defaults.gamma = 0.05;
  so.defaults.epsilon = 1.0;
  so.defaults.collect_stats = true;
  so.num_threads = Int(spec, "threads", 1);
  so.max_active = Int(spec, "max_active", 2);
  so.max_queued = Int(spec, "max_queued", 8);
  so.memory_budget_bytes = int64_t{Int(spec, "memory_budget_mb", 512)} << 20;
  so.cache_bytes = int64_t{Int(spec, "cache_mb", 256)} << 20;
  server::MiningService service(so);

  const JsonValue* frames = spec.Find("frames");
  if (frames == nullptr) return Status::InvalidArgument("spec has no frames");
  // The daemon's warm-up pass, untraced, so the cache starts the replay in
  // the state the untraced run measured from.
  if (const JsonValue* warmup = spec.Find("warmup"); warmup != nullptr) {
    for (const JsonValue& payload : warmup->elements) {
      service.HandleFrame(payload.string_value);
    }
  }
  const std::string replies_path = Str(spec, "replies_out");
  std::FILE* replies = std::fopen(replies_path.c_str(), "wb");
  if (replies == nullptr) {
    return Status::IoError("cannot write " + replies_path);
  }
  for (const JsonValue& frame : frames->elements) {
    const std::string cls = Str(frame, "class");
    const std::string payload = Str(frame, "payload");
    t->NewTrace();
    ScopedSpan root(t, "serve_mixed.op");
    const server::ResourceCache::Stats before = service.cache_stats();
    server::ServiceResponse response;
    {
      ScopedSpan s(t, "server.handle." + cls);
      response = service.HandleFrame(payload);
      s.Count("http_status", response.http_status);
    }
    const server::ResourceCache::Stats after = service.cache_stats();
    root.Count("model_misses",
               static_cast<double>(after.model_misses - before.model_misses));
    root.Count("matrix_misses", static_cast<double>(after.matrix_misses -
                                                    before.matrix_misses));
    std::fprintf(replies, "%zu\n", response.body.size());
    std::fwrite(response.body.data(), 1, response.body.size(), replies);
  }
  if (std::fclose(replies) != 0) {
    return Status::IoError("cannot write " + replies_path);
  }

  // Probe: the request decode HandleFrame runs first, timed on its own.
  for (const JsonValue& frame : frames->elements) {
    t->NewTrace();
    ScopedSpan root(t, "probe.parse");
    ScopedSpan s(t, "server.parse");
    auto parsed = server::ParseJson(Str(frame, "payload"));
    if (!parsed.ok()) return parsed.status();
    JsonValue body = *std::move(parsed);
    std::erase_if(body.members,
                  [](const auto& m) { return m.first == "op"; });
    const std::string cls = Str(frame, "class");
    const Status st =
        cls == "append" ? server::ParseAppendRequest(body).status()
        : cls == "sweep"
            ? server::ParseSweepRequest(body, so.defaults).status()
            : server::ParseMineRequest(body, so.defaults).status();
    if (!st.ok()) return st;
  }

  // Probe: a health frame costs the service next to nothing, so the
  // client's socket round trip of one is the transport alone.
  for (int i = 0; i < 50; ++i) {
    t->NewTrace();
    ScopedSpan root(t, "probe.health");
    ScopedSpan s(t, "server.handle.health");
    service.HandleFrame("{\"op\":\"health\"}");
  }

  const server::ResourceCache::Stats cs = service.cache_stats();
  t->NewTrace();
  ScopedSpan s(t, "probe.cache");
  s.Count("matrix_hits", static_cast<double>(cs.matrix_hits));
  s.Count("matrix_misses", static_cast<double>(cs.matrix_misses));
  s.Count("model_hits", static_cast<double>(cs.model_hits));
  s.Count("model_misses", static_cast<double>(cs.model_misses));
  s.Count("evictions", static_cast<double>(cs.evictions));
  s.Count("resident_bytes", static_cast<double>(cs.resident_bytes));
  return Status::OK();
}

// --- run ---------------------------------------------------------------------

volatile sig_atomic_t g_child = 0;

extern "C" void KillChild(int /*signum*/) {
  if (g_child > 0) ::kill(g_child, SIGKILL);
}

int RunChild(const char* log, int timeout_s, char** argv) {
  const int fd = ::open(log, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "trace_driver: cannot write %s\n", log);
    return 1;
  }
  ::signal(SIGALRM, KillChild);
  const int64_t start = NowNs();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::execv(argv[0], argv);
    _exit(127);
  }
  ::close(fd);
  if (pid < 0) {
    std::fprintf(stderr, "trace_driver: fork failed\n");
    return 1;
  }
  g_child = pid;
  ::alarm(static_cast<unsigned>(timeout_s));
  int status = 0;
  struct rusage ru;
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const int64_t wall_ns = NowNs() - start;
  ::alarm(0);
  const int64_t cpu_us =
      (int64_t{ru.ru_utime.tv_sec} + ru.ru_stime.tv_sec) * 1000000 +
      ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::printf("%lld %lld %ld %d\n", static_cast<long long>(wall_ns),
              static_cast<long long>(cpu_us), ru.ru_maxrss, code);
  return 0;
}

// --- entry -------------------------------------------------------------------

Status Replay(const std::string& spec_path) {
  auto spec = ReadSpec(spec_path);
  if (!spec.ok()) return spec.status();
  const std::string workload = Str(*spec, "workload");
  const int threads = Int(*spec, "threads", 1);
  Tracer tracer;
  Status st;
  if (workload == "serve_mixed") {
    st = ServeReplay(&tracer, *spec);
  } else {
    const JsonValue* ops = spec->Find("ops");
    if (ops == nullptr) return Status::InvalidArgument("spec has no ops");
    for (const JsonValue& op : ops->elements) {
      tracer.NewTrace();
      if (workload == "timecourse_append") {
        st = AppendOp(&tracer, op, threads);
      } else if (workload == "mine_dense" || workload == "mine_outofcore") {
        st = MineOp(&tracer, workload + ".op", op, threads);
      } else {
        st = Status::InvalidArgument("unknown workload " + workload);
      }
      if (!st.ok()) break;
    }
    const JsonValue* probe = spec->Find("serial_probe");
    if (st.ok() && probe != nullptr && probe->is_bool() && probe->bool_value &&
        !ops->elements.empty()) {
      tracer.NewTrace();
      st = SerialSearchProbe(&tracer, ops->elements.front());
    }
  }
  if (!st.ok()) return st;
  return tracer.Write(Str(*spec, "spans_out"));
}

int Main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "info" && argc == 2) {
    std::printf("{\"simd\": \"%s\"}\n",
                util::simd::LevelName(util::simd::Ops().level));
    return 0;
  }
  if (cmd == "replay" && argc == 3) {
    if (Status st = Replay(argv[2]); !st.ok()) {
      std::fprintf(stderr, "trace_driver: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "run" && argc >= 5) {
    return RunChild(argv[2], std::atoi(argv[3]), argv + 4);
  }
  std::fprintf(stderr,
               "usage: trace_driver info | replay SPEC | "
               "run LOG TIMEOUT_S PROGRAM [ARGS...]\n");
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace regcluster

int main(int argc, char** argv) { return regcluster::bench::Main(argc, argv); }
