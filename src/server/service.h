// Transport-independent request execution for the mining daemon: the
// session layer between the wire codecs (server/protocol.h) and the core
// miner.
//
// Each request runs as a *session* through core::SweepEngine -- /mine as a
// one-point sweep, /sweep as the expanded grid -- with three inputs from
// the service: its shared TaskPool (borrowed, so concurrent sessions
// interleave at phase-A root / subtree granularity and the pool's work
// stealing balances across requests instead of queueing them whole; each
// run drains only its own tasks), a model source over the ResourceCache,
// and the daemon's MinC screen.
//
// Admission control composes three limits, checked in order before any
// work happens:
//   1. memory  -- cache-resident bytes already over the global budget
//                 shed with "shed_memory" (503 + Retry-After);
//   2. queue   -- at most max_active sessions mine concurrently and at
//                 most max_queued wait; an overflowing request sheds with
//                 "shed_queue" instead of deepening the convoy;
//   3. request -- per-request deadline / node / cluster budgets from the
//                 body become the session's BudgetGuard limits (the miner
//                 composes them; a tripped run returns its canonical
//                 partial prefix, exactly like the CLI).
// Shedding is always a structured, retryable JSON status -- never a
// dropped connection, never an OOM.
//
// Responses are deterministic: with "deterministic_output": true the
// volatile report fields are zeroed (io::ZeroVolatileMineFields) and the
// body is byte-identical to a solo serial Mine() of the same request at
// any interleaving -- the server_concurrency_test contract.

#ifndef REGCLUSTER_SERVER_SERVICE_H_
#define REGCLUSTER_SERVER_SERVICE_H_

#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/miner.h"
#include "obs/metrics.h"
#include "server/request.h"
#include "server/resource_cache.h"
#include "util/task_pool.h"

namespace regcluster {
namespace server {

/// Wire-agnostic response: the HTTP front maps it onto a status line, the
/// binary front onto a framed JSON envelope.
struct ServiceResponse {
  int http_status = 200;
  /// Stable machine-readable name: "ok", "bad_json", "bad_request",
  /// "unknown_endpoint", "unknown_op", "shed_queue", "shed_memory",
  /// "matrix_error", "mine_error", "append_error".  Error bodies carry it
  /// as "error_name"; transports may log or map it.
  std::string status_name = "ok";
  std::string content_type = "application/json";
  std::string body;
  /// Seconds hint for the Retry-After header; > 0 only when shedding.
  int retry_after_s = 0;
};

class MiningService {
 public:
  struct Options {
    /// Base options each request starts from; request fields overlay it.
    core::MinerOptions defaults;
    /// Workers of the shared phase-A pool; 1 = serial sessions (no pool).
    int num_threads = 1;
    /// Admission: concurrent mining sessions / waiting sessions.
    int max_active = 2;
    int max_queued = 8;
    /// Global memory budget the cache charges against (admission limit 1).
    int64_t memory_budget_bytes = int64_t{512} << 20;
    /// Cache eviction budget (<= memory budget to make shedding transient).
    int64_t cache_bytes = int64_t{256} << 20;
    int retry_after_s = 1;
    /// Test seam: runs at the start of every *admitted* mine / sweep
    /// session (after Admit, before any work).  The concurrency battery
    /// parks a session here to hold an active slot deterministically;
    /// null in production.
    std::function<void()> session_hook;
  };

  explicit MiningService(const Options& options);
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Dispatches one HTTP request: POST /mine, POST /sweep, POST /append,
  /// GET /metrics (Prometheus), GET /healthz.  Never throws; every failure
  /// is a structured response.
  ServiceResponse HandleHttp(const std::string& method,
                             const std::string& target,
                             const std::string& body);

  /// Dispatches one binary frame payload: a JSON object with "op" set to
  /// "mine" | "sweep" | "append" | "metrics" | "health"; remaining fields
  /// as in the HTTP bodies.
  ServiceResponse HandleFrame(const std::string& payload);

  /// Server metric registry (regcluster_server_* live here).
  obs::MetricsRegistry* registry() { return &registry_; }

  ResourceCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  /// POST /mine (sweep = false) and /sweep: parse, admit, RunSession.
  ServiceResponse HandleSession(const JsonValue& body, bool sweep);
  /// Widens a binary matrix on disk (atomic rewrite + rename) and drops
  /// exactly the cache entries the file backed: its path handle plus every
  /// gamma model keyed by its content hash.  Unrelated entries survive, so
  /// a warm mine on an untouched matrix stays a pure cache hit.
  ServiceResponse HandleAppend(const JsonValue& body);
  /// Prometheus text (GET /metrics) or JSON (the "metrics" frame op).
  ServiceResponse HandleMetrics(bool json);
  ServiceResponse HandleHealth();

  /// Runs one parsed request end to end (cache, engine, render).
  ServiceResponse RunSession(const MineRequest& request, bool sweep);

  /// Returns true when admitted; fills `shed` otherwise.  Every admit must
  /// be paired with Release().
  bool Admit(ServiceResponse* shed);
  void Release();

  const Options options_;
  ResourceCache cache_;
  std::unique_ptr<util::TaskPool> pool_;  // null when num_threads <= 1

  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int active_ = 0;
  int queued_ = 0;

  obs::MetricsRegistry registry_;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* cache_hits_total_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
};

}  // namespace server
}  // namespace regcluster

#endif  // REGCLUSTER_SERVER_SERVICE_H_
