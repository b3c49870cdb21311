#include "server/service.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/sweep.h"
#include "io/checkpoint.h"
#include "io/json_export.h"
#include "io/sweep_io.h"
#include "server/json_reader.h"

namespace regcluster {
namespace server {
namespace {

using util::Status;
using util::StatusCode;

/// A hostile sweep spec can cross-product itself into millions of points;
/// a service request is not the place for that (run a checkpointed CLI
/// sweep instead).
constexpr size_t kMaxSweepPoints = 1024;

ServiceResponse ErrorResponse(int http_status, const std::string& name,
                              const std::string& message) {
  ServiceResponse r;
  r.http_status = http_status;
  r.status_name = name;
  r.body = "{\"status\":\"error\",\"error_name\":\"" + name +
           "\",\"error\":\"" + io::JsonEscape(message) + "\"}\n";
  return r;
}

/// The daemon's one policy on top of core::ValidateMinerOptions: MinC may
/// not exceed the matrix width.  Remote requests are screened before any
/// model is built or cached, and an unbounded MinC must never size an
/// allocation (the bitmap index clamps its ceiling as defense in depth, but
/// the service rejects outright).
Status CheckMincFitsMatrix(const core::MinerOptions& opts,
                           const matrix::MatrixStore& data) {
  if (opts.min_conditions > data.num_conditions()) {
    return Status::InvalidArgument(
        "minc " + std::to_string(opts.min_conditions) +
        " exceeds the matrix's " + std::to_string(data.num_conditions()) +
        " conditions; no cluster can satisfy it");
  }
  return Status::OK();
}

/// Maps a util::Status from the cache / miner onto an HTTP status.
int HttpStatusOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInternal:
      return 500;
    default:
      return 400;  // the request named a matrix / options we reject
  }
}

}  // namespace

MiningService::MiningService(const Options& options)
    : options_(options),
      cache_([&] {
        ResourceCache::Options c;
        c.byte_budget = options.cache_bytes;
        c.build_threads = std::max(options.num_threads, 1);
        return c;
      }()) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<util::TaskPool>(options_.num_threads);
  }
  // Registration happens before any request thread exists, satisfying the
  // registry's register-before-sharing contract.
  requests_total_ =
      *registry_.AddCounter("regcluster_server_requests",
                            "Requests dispatched, every endpoint");
  shed_total_ = *registry_.AddCounter(
      "regcluster_server_shed", "Requests shed by admission control");
  cache_hits_total_ = *registry_.AddCounter(
      "regcluster_server_cache_hits",
      "Resource cache hits (matrix handles + gamma models)");
  active_gauge_ = *registry_.AddGauge("regcluster_server_active",
                                      "Mining sessions currently executing");
  queue_depth_gauge_ = *registry_.AddGauge(
      "regcluster_server_queue_depth", "Sessions waiting for admission");
}

MiningService::~MiningService() {
  // Sessions drain through Release(); the pool joins its workers after all
  // submitted phase-A tasks ran (TaskPool dtor waits).
  std::unique_lock<std::mutex> lock(admission_mu_);
  admission_cv_.wait(lock, [this] { return active_ == 0 && queued_ == 0; });
}

ServiceResponse MiningService::HandleHttp(const std::string& method,
                                          const std::string& target,
                                          const std::string& body) {
  // Strip a query string: /metrics?foo stays /metrics.
  std::string path = target.substr(0, target.find('?'));
  if (method == "GET" && path == "/healthz") return HandleHealth();
  if (method == "GET" && path == "/metrics") return HandleMetrics(false);
  if (method == "POST" &&
      (path == "/mine" || path == "/sweep" || path == "/append")) {
    requests_total_->Increment();
    auto parsed = ParseJson(body);
    if (!parsed.ok()) {
      return ErrorResponse(400, "bad_json", parsed.status().message());
    }
    if (path == "/append") return HandleAppend(*parsed);
    return HandleSession(*parsed, /*sweep=*/path == "/sweep");
  }
  return ErrorResponse(404, "unknown_endpoint",
                       method + " " + path + " is not served here");
}

ServiceResponse MiningService::HandleFrame(const std::string& payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) {
    return ErrorResponse(400, "bad_json", parsed.status().message());
  }
  const JsonValue* op = parsed->Find("op");
  if (op == nullptr || !op->is_string()) {
    return ErrorResponse(400, "bad_request",
                         "frame needs a string \"op\" field");
  }
  // The remaining fields form the request body; drop "op" so the strict
  // field check does not see it.
  JsonValue body = *parsed;
  body.members.erase(
      std::remove_if(body.members.begin(), body.members.end(),
                     [](const auto& m) { return m.first == "op"; }),
      body.members.end());
  const std::string& name = op->string_value;
  if (name == "health") return HandleHealth();
  if (name == "metrics") return HandleMetrics(/*json=*/true);
  if (name == "mine" || name == "sweep" || name == "append") {
    requests_total_->Increment();
    if (name == "append") return HandleAppend(body);
    return HandleSession(body, /*sweep=*/name == "sweep");
  }
  return ErrorResponse(400, "unknown_op",
                       "op \"" + name + "\" is not served here");
}

ServiceResponse MiningService::HandleHealth() {
  requests_total_->Increment();
  ServiceResponse r;
  r.body = "{\"status\":\"ok\"}\n";
  return r;
}

ServiceResponse MiningService::HandleMetrics(bool json) {
  requests_total_->Increment();
  std::ostringstream out;
  const Status s =
      json ? registry_.WriteJson(out) : registry_.WritePrometheus(out);
  if (!s.ok()) return ErrorResponse(500, "metrics_error", s.message());
  ServiceResponse r;
  if (!json) r.content_type = "text/plain; version=0.0.4";
  r.body = out.str();
  return r;
}

ServiceResponse MiningService::HandleSession(const JsonValue& body,
                                             bool sweep) {
  auto request = sweep ? ParseSweepRequest(body, options_.defaults)
                       : ParseMineRequest(body, options_.defaults);
  if (!request.ok()) {
    return ErrorResponse(400, "bad_request", request.status().message());
  }
  ServiceResponse shed;
  if (!Admit(&shed)) return shed;
  if (options_.session_hook) options_.session_hook();
  ServiceResponse r = RunSession(*request, sweep);
  Release();
  return r;
}

ServiceResponse MiningService::HandleAppend(const JsonValue& body) {
  auto request = ParseAppendRequest(body);
  if (!request.ok()) {
    return ErrorResponse(400, "bad_request", request.status().message());
  }
  // Only the binary format appends in place; a text matrix has no atomic
  // widen (convert it once with `regcluster convert`).
  auto is_bin = matrix::IsBinaryMatrixFile(request->matrix_path);
  if (!is_bin.ok()) {
    return ErrorResponse(HttpStatusOf(is_bin.status()), "matrix_error",
                         is_bin.status().message());
  }
  if (!*is_bin) {
    return ErrorResponse(400, "append_error",
                         request->matrix_path +
                             " is not a binary matrix; append needs the "
                             "binary format (regcluster convert)");
  }
  auto widened = matrix::AppendConditionsToBinaryMatrix(
      request->matrix_path, request->names, request->columns);
  if (!widened.ok()) {
    return ErrorResponse(HttpStatusOf(widened.status()), "append_error",
                         widened.status().message());
  }
  // Invalidate *after* the rename lands so no request can re-cache the old
  // file between the drop and the swap.  (A load racing the rewrite itself
  // still sees a complete old or complete new file, never a torn one.)
  const int invalidated = cache_.InvalidateAppend(request->matrix_path);
  ServiceResponse r;
  r.body = "{\"status\":\"ok\",\"num_conditions\":" +
           std::to_string(*widened) +
           ",\"invalidated\":" + std::to_string(invalidated) + "}\n";
  return r;
}

bool MiningService::Admit(ServiceResponse* shed) {
  // A shed is a structured, retryable 503 with a Retry-After hint.
  auto shed_as = [&](const std::string& name) {
    shed_total_->Increment();
    shed->http_status = 503;
    shed->status_name = name;
    shed->retry_after_s = options_.retry_after_s;
    shed->body = "{\"status\":\"shed\",\"error_name\":\"" + name +
                 "\",\"retry_after_s\":" +
                 std::to_string(options_.retry_after_s) + "}\n";
    return false;
  };
  // Limit 1 -- memory: the cache already holds more than the global budget
  // allows, so taking on work that loads more is how a daemon OOMs.  Shed
  // with a hint; eviction and request completion make a retry meaningful.
  if (cache_.stats().resident_bytes > options_.memory_budget_bytes) {
    return shed_as("shed_memory");
  }
  // Limit 2 -- concurrency: max_active sessions mine, max_queued wait.
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (active_ >= options_.max_active) {
    if (queued_ >= options_.max_queued) return shed_as("shed_queue");
    ++queued_;
    queue_depth_gauge_->Set(queued_);
    admission_cv_.wait(lock,
                       [this] { return active_ < options_.max_active; });
    --queued_;
    queue_depth_gauge_->Set(queued_);
  }
  ++active_;
  active_gauge_->Set(active_);
  return true;
}

void MiningService::Release() {
  std::lock_guard<std::mutex> lock(admission_mu_);
  --active_;
  active_gauge_->Set(active_);
  admission_cv_.notify_all();
}

ServiceResponse MiningService::RunSession(const MineRequest& request,
                                          bool sweep) {
  bool matrix_hit = false;
  auto handle = cache_.GetMatrix(request.matrix_path, &matrix_hit);
  if (!handle.ok()) {
    return ErrorResponse(HttpStatusOf(handle.status()), "matrix_error",
                         handle.status().message());
  }
  const matrix::MatrixStore& store = *(*handle)->store;
  // A /mine is a one-point sweep whose bad point is the request's fault:
  // 400 bad_request before any model is fetched.  A /sweep records the
  // points failing validation or the MinC screen per run.
  std::vector<core::MinerOptions> points = {request.options};
  if (sweep) {
    auto parsed = io::ParseSweepSpec(request.sweep_spec, request.options);
    if (!parsed.ok()) {
      return ErrorResponse(400, "bad_request", parsed.status().message());
    }
    if (parsed->size() > kMaxSweepPoints) {
      return ErrorResponse(
          400, "bad_request",
          "sweep expands to " + std::to_string(parsed->size()) +
              " points (limit " + std::to_string(kMaxSweepPoints) +
              "); run it as a checkpointed CLI sweep");
    }
    points = *std::move(parsed);
  } else {
    Status valid = core::ValidateMinerOptions(request.options, store);
    if (valid.ok()) valid = CheckMincFitsMatrix(request.options, store);
    if (!valid.ok()) return ErrorResponse(400, "bad_request", valid.message());
  }

  int64_t hits = matrix_hit ? 1 : 0;
  core::SweepOptions sopts;
  sopts.pool = pool_.get();
  sopts.model_source = [&](const core::GammaGroup& group) {
    bool model_hit = false;
    auto model = cache_.GetModel(*handle, group.spec,
                                 group.max_min_conditions, &model_hit);
    hits += model_hit ? 1 : 0;
    return model;
  };
  sopts.screen = [&store](const core::MinerOptions& p) {
    return CheckMincFitsMatrix(p, store);
  };
  auto report = core::SweepEngine(store, std::move(sopts)).Run(points);
  if (!report.ok()) {
    return ErrorResponse(HttpStatusOf(report.status()), "mine_error",
                         report.status().message());
  }
  cache_hits_total_->Add(hits);

  std::ostringstream doc;
  Status written;
  if (sweep) {
    if (request.deterministic_output) io::ZeroVolatileSweepFields(&*report);
    written = io::WriteSweepJson(*report, doc);
  } else {
    core::SweepRun& run = report->runs[0];
    if (!run.status.ok()) {
      return ErrorResponse(HttpStatusOf(run.status), "mine_error",
                           run.status.message());
    }
    if (request.deterministic_output) {
      io::ZeroVolatileMineFields(&run.stats, &run.outcome);
    }
    written = io::WriteClustersJson(run.clusters, &store, &run.outcome,
                                    &run.stats, doc);
  }
  if (!written.ok()) return ErrorResponse(500, "mine_error", written.message());
  ServiceResponse r;
  r.body = doc.str();
  return r;
}

}  // namespace server
}  // namespace regcluster
