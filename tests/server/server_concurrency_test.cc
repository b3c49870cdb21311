// Concurrency battery for the mining service (run under TSan in CI):
//
//  * N client threads interleaving mines and sweeps over the same and
//    different matrices get responses byte-identical to a solo serial
//    Mine() / solo sweep of the same request, at any interleaving;
//  * the resource-cache hit/miss counters are a pure function of the
//    request order (builds happen inside the cache's critical section);
//  * eviction under load never invalidates a pinned handle: an in-flight
//    mine holding a SharedGammaModel keeps mining correctly after its
//    cache entry is evicted;
//  * admission control sheds with structured, retryable statuses
//    (shed_memory / shed_queue) instead of blocking forever or dying.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/threshold.h"
#include "io/checkpoint.h"
#include "io/json_export.h"
#include "matrix/expression_matrix.h"
#include "matrix/matrix_io.h"
#include "matrix/store.h"
#include "server/resource_cache.h"
#include "server/service.h"
#include "synth/generator.h"

namespace regcluster {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: two synthetic matrices saved as text, loaded back for the
// reference mines so the service (which loads from the same files) sees
// bit-identical cell values.

struct TestMatrix {
  std::string path;
  matrix::ExpressionMatrix data;  // loaded from `path`, not the generator
};

TestMatrix MakeMatrix(const std::string& name, int genes, int conditions,
                      uint64_t seed) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = genes;
  cfg.num_conditions = conditions;
  cfg.num_clusters = 4;
  cfg.avg_cluster_genes_fraction = 0.06;
  cfg.seed = seed;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  TestMatrix m;
  // Per-process filename: ctest runs each discovered test as its own
  // filtered process, and concurrent instances (ctest -j) must not
  // overwrite each other's matrix between a process's LoadMatrix and its
  // service's read of the same path.
  m.path = ::testing::TempDir() + std::to_string(static_cast<long>(getpid())) +
           "_" + name;
  EXPECT_TRUE(matrix::SaveMatrix(ds->data, m.path).ok());
  auto loaded = matrix::LoadMatrix(m.path);
  EXPECT_TRUE(loaded.ok());
  m.data = *std::move(loaded);
  return m;
}

const TestMatrix& MatrixA() {
  static const TestMatrix* m =
      new TestMatrix(MakeMatrix("conc_a.tsv", 150, 14, 515));
  return *m;
}

const TestMatrix& MatrixB() {
  static const TestMatrix* m =
      new TestMatrix(MakeMatrix("conc_b.tsv", 120, 12, 916));
  return *m;
}

// One mine request variant.  Numeric fields are kept as the literal strings
// embedded in the JSON body, so the reference options parse the exact same
// doubles the service does.
struct Variant {
  const TestMatrix* matrix;
  int ming;
  int minc;
  const char* gamma;
  const char* epsilon;
};

std::string MineBodyJson(const Variant& v) {
  std::ostringstream body;
  body << "{\"matrix\":\"" << v.matrix->path << "\",\"ming\":" << v.ming
       << ",\"minc\":" << v.minc << ",\"gamma\":" << v.gamma
       << ",\"epsilon\":" << v.epsilon
       << ",\"collect_stats\":true,\"deterministic_output\":true}";
  return body.str();
}

core::MinerOptions VariantOptions(const Variant& v) {
  core::MinerOptions opts;
  opts.min_genes = v.ming;
  opts.min_conditions = v.minc;
  opts.gamma = std::stod(v.gamma);
  opts.epsilon = std::stod(v.epsilon);
  opts.collect_stats = true;
  return opts;
}

// The contract's reference: one solo, serial Mine() of the variant,
// rendered exactly like the service renders responses.
std::string SoloMineBody(const Variant& v) {
  core::MinerOptions opts = VariantOptions(v);
  opts.num_threads = 1;
  core::GammaSpec spec;
  spec.policy = opts.gamma_policy;
  spec.gamma = opts.gamma;
  opts.shared_model = core::SharedGammaModel::Build(
      v.matrix->data, spec, opts.min_conditions);
  core::RegClusterMiner miner(v.matrix->data, opts);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  core::MinerStats stats = miner.stats();
  core::MineOutcome outcome = miner.outcome();
  io::ZeroVolatileMineFields(&stats, &outcome);
  std::ostringstream doc;
  EXPECT_TRUE(io::WriteClustersJson(*clusters, &v.matrix->data, &outcome,
                                    &stats, doc)
                  .ok());
  return doc.str();
}

// ---------------------------------------------------------------------------

TEST(ServerConcurrency, InterleavedMinesMatchSoloMineByteForByte) {
  const std::vector<Variant> variants = {
      {&MatrixA(), 5, 4, "0.1", "0.05"},
      {&MatrixA(), 6, 5, "0.15", "0.1"},
      {&MatrixB(), 5, 4, "0.1", "0.05"},
  };
  std::vector<std::string> expected;
  for (const Variant& v : variants) expected.push_back(SoloMineBody(v));

  MiningService::Options options;
  options.num_threads = 3;  // shared phase-A pool
  options.max_active = 3;
  options.max_queued = 64;
  MiningService service(options);

  constexpr int kThreads = 6;
  constexpr int kIterations = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t which = (t + i) % variants.size();
        const std::string body = MineBodyJson(variants[which]);
        // Odd threads go through the binary framing's dispatch, even
        // threads through HTTP; both must produce the same bytes.
        ServiceResponse r;
        if (t % 2 == 0) {
          r = service.HandleHttp("POST", "/mine", body);
        } else {
          r = service.HandleFrame("{\"op\":\"mine\"," + body.substr(1));
        }
        if (r.http_status != 200 || r.body != expected[which]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerConcurrency, InterleavedSweepsMatchSoloServiceSweep) {
  const std::string sweep_body =
      "{\"matrix\":\"" + MatrixA().path +
      "\",\"ming\":5,\"epsilon\":0.05,"
      "\"spec\":\"gamma=0.1;0.15,minc=4;5\","
      "\"collect_stats\":true,\"deterministic_output\":true}";

  // Reference: a fresh, serial, single-request service.
  std::string expected;
  {
    MiningService solo(MiningService::Options{});
    const ServiceResponse r = solo.HandleHttp("POST", "/sweep", sweep_body);
    ASSERT_EQ(r.http_status, 200) << r.body;
    expected = r.body;
  }
  ASSERT_NE(expected.find("\"runs_total\": 4"), std::string::npos)
      << expected.substr(0, 400);

  const Variant mine_variant{&MatrixA(), 5, 4, "0.1", "0.05"};
  const std::string mine_expected = SoloMineBody(mine_variant);
  const std::string mine_body = MineBodyJson(mine_variant);

  MiningService::Options options;
  options.num_threads = 2;
  options.max_active = 4;
  options.max_queued = 64;
  MiningService service(options);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 2; ++i) {
        if (t % 2 == 0) {
          const ServiceResponse r =
              service.HandleHttp("POST", "/sweep", sweep_body);
          if (r.http_status != 200 || r.body != expected) failures.fetch_add(1);
        } else {
          const ServiceResponse r =
              service.HandleHttp("POST", "/mine", mine_body);
          if (r.http_status != 200 || r.body != mine_expected) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerConcurrency, CacheCountersAreAPureFunctionOfRequestOrder) {
  MiningService service(MiningService::Options{});
  auto mine = [&](const Variant& v) {
    const ServiceResponse r =
        service.HandleHttp("POST", "/mine", MineBodyJson(v));
    ASSERT_EQ(r.http_status, 200) << r.body;
  };
  auto expect_stats = [&](int64_t matrix_hits, int64_t matrix_misses,
                          int64_t model_hits, int64_t model_misses,
                          int64_t evictions) {
    const ResourceCache::Stats s = service.cache_stats();
    EXPECT_EQ(s.matrix_hits, matrix_hits);
    EXPECT_EQ(s.matrix_misses, matrix_misses);
    EXPECT_EQ(s.model_hits, model_hits);
    EXPECT_EQ(s.model_misses, model_misses);
    EXPECT_EQ(s.evictions, evictions);
  };

  // Cold: both levels miss.
  mine({&MatrixA(), 5, 4, "0.1", "0.05"});
  expect_stats(0, 1, 0, 1, 0);
  // Identical repeat: both levels hit.
  mine({&MatrixA(), 5, 4, "0.1", "0.05"});
  expect_stats(1, 1, 1, 1, 0);
  // New gamma: matrix hits, model misses.
  mine({&MatrixA(), 5, 4, "0.15", "0.05"});
  expect_stats(2, 1, 1, 2, 0);
  // Same gamma, larger MinC than the ceiling: the entry is replaced --
  // a miss plus an eviction, never a silently-clamped wrong answer.
  mine({&MatrixA(), 5, 6, "0.1", "0.05"});
  expect_stats(3, 1, 1, 3, 1);
  // Smaller MinC under the upgraded ceiling: hit (clamping is exact).
  mine({&MatrixA(), 5, 4, "0.1", "0.05"});
  expect_stats(4, 1, 2, 3, 1);
  // Different matrix: cold again.
  mine({&MatrixB(), 5, 4, "0.1", "0.05"});
  expect_stats(4, 2, 2, 4, 1);

  // The hits counter the daemon exports is exactly their sum.
  const ServiceResponse metrics = service.HandleHttp("GET", "/metrics", "");
  EXPECT_NE(metrics.body.find("regcluster_server_cache_hits 6"),
            std::string::npos)
      << metrics.body;
}

TEST(ServerConcurrency, EvictionUnderLoadNeverInvalidatesPinnedHandles) {
  ResourceCache::Options copts;
  copts.byte_budget = 1;  // everything but the most recent entry evicts
  ResourceCache cache(copts);

  bool hit = false;
  auto handle = cache.GetMatrix(MatrixA().path, &hit);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_FALSE(hit);

  core::GammaSpec spec;
  spec.gamma = 0.1;
  auto model = cache.GetModel(*handle, spec, 4);
  ASSERT_TRUE(model.ok());

  // A thrasher loads the other matrix and its models in a loop, evicting
  // everything the pinned mine below depends on, repeatedly.
  std::atomic<bool> stop{false};
  std::thread thrasher([&] {
    while (!stop.load()) {
      auto h = cache.GetMatrix(MatrixB().path);
      ASSERT_TRUE(h.ok());
      core::GammaSpec s;
      s.gamma = 0.15;
      ASSERT_TRUE(cache.GetModel(*h, s, 5).ok());
    }
  });

  // The pinned handles keep mining correctly while their cache entries
  // come and go under them.
  core::MinerOptions opts;
  opts.min_genes = 5;
  opts.min_conditions = 4;
  opts.gamma = 0.1;
  opts.epsilon = 0.05;
  const auto reference =
      core::RegClusterMiner(MatrixA().data, opts).Mine();
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < 10; ++i) {
    core::MinerOptions shared = opts;
    shared.shared_model = *model;
    auto mined = core::RegClusterMiner(*(*handle)->store, shared).Mine();
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    ASSERT_EQ(mined->size(), reference->size());
  }
  stop.store(true);
  thrasher.join();

  // The pinned entries were in fact evicted: re-asking misses.
  hit = true;
  auto again = cache.GetMatrix(MatrixA().path, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(hit);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ServerConcurrency, MemoryShedIsStructuredAndRetryable) {
  MiningService::Options options;
  options.memory_budget_bytes = 1;  // anything resident is over budget
  options.retry_after_s = 7;
  MiningService service(options);

  // First request: nothing resident yet, admitted, mines fine.
  const Variant v{&MatrixA(), 5, 4, "0.1", "0.05"};
  const ServiceResponse first =
      service.HandleHttp("POST", "/mine", MineBodyJson(v));
  EXPECT_EQ(first.http_status, 200) << first.body;

  // Second request: the cache now holds the matrix + model, over budget.
  const ServiceResponse shed =
      service.HandleHttp("POST", "/mine", MineBodyJson(v));
  EXPECT_EQ(shed.http_status, 503);
  EXPECT_EQ(shed.status_name, "shed_memory");
  EXPECT_EQ(shed.retry_after_s, 7);
  EXPECT_NE(shed.body.find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(shed.body.find("\"error_name\":\"shed_memory\""),
            std::string::npos);
  EXPECT_NE(shed.body.find("\"retry_after_s\":7"), std::string::npos);

  const ServiceResponse metrics = service.HandleHttp("GET", "/metrics", "");
  EXPECT_NE(metrics.body.find("regcluster_server_shed 1"), std::string::npos);
  // Health stays green: shedding is load management, not failure.
  EXPECT_EQ(service.HandleHttp("GET", "/healthz", "").http_status, 200);
}

TEST(ServerConcurrency, QueueShedWhenSaturated) {
  // The occupant parks inside the session hook, holding the only active
  // slot until the test releases it -- no timing assumptions.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  MiningService::Options options;
  options.max_active = 1;
  options.max_queued = 0;  // no waiting room: overflow sheds immediately
  options.session_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  MiningService service(options);

  const Variant v{&MatrixA(), 5, 4, "0.1", "0.05"};
  ServiceResponse occupant_response;
  std::thread occupant([&] {
    occupant_response = service.HandleHttp("POST", "/mine", MineBodyJson(v));
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // Metrics and health bypass admission: both answer while saturated.
  const ServiceResponse metrics = service.HandleHttp("GET", "/metrics", "");
  EXPECT_NE(metrics.body.find("regcluster_server_active 1"),
            std::string::npos);
  EXPECT_EQ(service.HandleHttp("GET", "/healthz", "").http_status, 200);

  const Variant other{&MatrixB(), 5, 4, "0.1", "0.05"};
  const ServiceResponse shed =
      service.HandleHttp("POST", "/mine", MineBodyJson(other));
  EXPECT_EQ(shed.http_status, 503);
  EXPECT_EQ(shed.status_name, "shed_queue");
  EXPECT_GT(shed.retry_after_s, 0);
  EXPECT_NE(shed.body.find("\"error_name\":\"shed_queue\""),
            std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  occupant.join();
  EXPECT_EQ(occupant_response.http_status, 200) << occupant_response.body;

  // The freed slot admits again: shedding was transient, the retry works.
  const ServiceResponse retry =
      service.HandleHttp("POST", "/mine", MineBodyJson(other));
  EXPECT_EQ(retry.http_status, 200) << retry.body;
}

// ---------------------------------------------------------------------------
// POST /append invalidation: exactly the touched (path, model) entries drop,
// unrelated entries keep hitting, and a warm mine after the append is
// byte-identical to a solo mine of the widened matrix.

std::string MineBodyForPath(const std::string& path, const char* gamma) {
  return "{\"matrix\":\"" + path + "\",\"ming\":5,\"minc\":4,\"gamma\":" +
         gamma +
         ",\"epsilon\":0.05,\"collect_stats\":true,"
         "\"deterministic_output\":true}";
}

// One new condition for `genes` genes: column value g * 0.25.
std::string AppendBodyForPath(const std::string& path, int genes,
                              const std::string& name) {
  std::ostringstream body;
  body << "{\"matrix\":\"" << path << "\",\"names\":[\"" << name
       << "\"],\"columns\":[[";
  for (int g = 0; g < genes; ++g) {
    if (g > 0) body << ",";
    body << (0.25 * g);
  }
  body << "]]}";
  return body.str();
}

// Solo, serial reference of a binary matrix file under the MineBodyForPath
// options, rendered like the service renders responses.
std::string SoloBinaryMineBody(const std::string& path, const char* gamma) {
  auto data = matrix::ReadBinaryMatrix(path);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  core::MinerOptions opts;
  opts.min_genes = 5;
  opts.min_conditions = 4;
  opts.gamma = std::stod(gamma);
  opts.epsilon = 0.05;
  opts.collect_stats = true;
  opts.num_threads = 1;
  core::GammaSpec spec;
  spec.policy = opts.gamma_policy;
  spec.gamma = opts.gamma;
  opts.shared_model =
      core::SharedGammaModel::Build(*data, spec, opts.min_conditions);
  core::RegClusterMiner miner(*data, opts);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  core::MinerStats stats = miner.stats();
  core::MineOutcome outcome = miner.outcome();
  io::ZeroVolatileMineFields(&stats, &outcome);
  std::ostringstream doc;
  EXPECT_TRUE(
      io::WriteClustersJson(*clusters, &*data, &outcome, &stats, doc).ok());
  return doc.str();
}

TEST(ServerConcurrency, AppendInvalidatesExactlyTheTouchedEntries) {
  // Fresh binary copies: appends mutate the files, so the shared text
  // fixtures stay untouched.
  const std::string prefix =
      ::testing::TempDir() + std::to_string(static_cast<long>(getpid()));
  const std::string bin_a = prefix + "_append_a.rgx";
  const std::string bin_b = prefix + "_append_b.rgx";
  ASSERT_TRUE(matrix::WriteBinaryMatrix(MatrixA().data, bin_a).ok());
  ASSERT_TRUE(matrix::WriteBinaryMatrix(MatrixB().data, bin_b).ok());

  MiningService service(MiningService::Options{});
  auto mine = [&](const std::string& path, const char* gamma) {
    ServiceResponse r =
        service.HandleHttp("POST", "/mine", MineBodyForPath(path, gamma));
    EXPECT_EQ(r.http_status, 200) << r.body;
    return r.body;
  };
  auto expect_stats = [&](int64_t matrix_hits, int64_t matrix_misses,
                          int64_t model_hits, int64_t model_misses,
                          int64_t invalidations, const char* at) {
    const ResourceCache::Stats s = service.cache_stats();
    EXPECT_EQ(s.matrix_hits, matrix_hits) << at;
    EXPECT_EQ(s.matrix_misses, matrix_misses) << at;
    EXPECT_EQ(s.model_hits, model_hits) << at;
    EXPECT_EQ(s.model_misses, model_misses) << at;
    EXPECT_EQ(s.invalidations, invalidations) << at;
    EXPECT_EQ(s.evictions, 0) << at << ": invalidations are not evictions";
  };

  // Warm A with two gamma models and B with one.
  mine(bin_a, "0.1");
  mine(bin_a, "0.15");
  mine(bin_b, "0.1");
  expect_stats(1, 2, 0, 3, 0, "warm");

  // Append one condition to A: its path entry + BOTH its models drop --
  // and nothing else.
  const ServiceResponse append = service.HandleHttp(
      "POST", "/append",
      AppendBodyForPath(bin_a, MatrixA().data.num_genes(), "t_new"));
  ASSERT_EQ(append.http_status, 200) << append.body;
  EXPECT_EQ(append.body,
            "{\"status\":\"ok\",\"num_conditions\":" +
                std::to_string(MatrixA().data.num_conditions() + 1) +
                ",\"invalidated\":3}\n");
  expect_stats(1, 2, 0, 3, 3, "after append");

  // B's entries survived: a repeat is a pure double hit.
  mine(bin_b, "0.1");
  expect_stats(2, 2, 1, 3, 3, "B still warm");

  // A is cold again and reloads the WIDENED file; the response is
  // byte-identical to a solo mine of the widened matrix.
  const std::string remined = mine(bin_a, "0.1");
  expect_stats(2, 3, 1, 4, 3, "A cold after append");
  EXPECT_EQ(remined, SoloBinaryMineBody(bin_a, "0.1"));

  // And it re-warms normally.
  mine(bin_a, "0.1");
  expect_stats(3, 3, 2, 4, 3, "A warm again");

  // The binary-frame transport serves the same op: appending B through a
  // frame drops its path entry + single model.
  const ServiceResponse frame = service.HandleFrame(
      "{\"op\":\"append\"," +
      AppendBodyForPath(bin_b, MatrixB().data.num_genes(), "t_new").substr(1));
  ASSERT_EQ(frame.http_status, 200) << frame.body;
  EXPECT_NE(frame.body.find("\"invalidated\":2"), std::string::npos)
      << frame.body;
  expect_stats(3, 3, 2, 4, 5, "after frame append");

  // Appending a path nothing cached is fine: zero entries drop.
  const std::string bin_c = prefix + "_append_c.rgx";
  ASSERT_TRUE(matrix::WriteBinaryMatrix(MatrixB().data, bin_c).ok());
  const ServiceResponse cold = service.HandleHttp(
      "POST", "/append",
      AppendBodyForPath(bin_c, MatrixB().data.num_genes(), "t_new"));
  ASSERT_EQ(cold.http_status, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"invalidated\":0"), std::string::npos)
      << cold.body;

  // Misuse: a text matrix cannot append in place.
  const ServiceResponse text = service.HandleHttp(
      "POST", "/append",
      AppendBodyForPath(MatrixA().path, MatrixA().data.num_genes(), "t_new"));
  EXPECT_EQ(text.http_status, 400);
  EXPECT_EQ(text.status_name, "append_error") << text.body;
  // Misuse: a column whose length is not the gene count.
  const ServiceResponse ragged = service.HandleHttp(
      "POST", "/append", AppendBodyForPath(bin_a, 3, "t_new"));
  EXPECT_NE(ragged.http_status, 200);
  EXPECT_EQ(ragged.status_name, "append_error") << ragged.body;
  // Misuse: unknown fields are rejected, not ignored.
  const ServiceResponse unknown = service.HandleHttp(
      "POST", "/append",
      "{\"matrix\":\"" + bin_a + "\",\"names\":[\"x\"],\"columns\":[[1]],"
      "\"gamma\":0.1}");
  EXPECT_EQ(unknown.http_status, 400);
  EXPECT_EQ(unknown.status_name, "bad_request") << unknown.body;
}

// A /sweep point whose MinC exceeds the matrix width gets /mine's 400
// message as its per-run error: it is neither mined nor given a model, so
// the cache sees exactly one model miss (for the one in-range point).
TEST(ServerConcurrency, SweepScreensOutOfRangeMincPerPoint) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 200;
  cfg.num_conditions = 12;
  cfg.num_clusters = 4;
  cfg.avg_cluster_genes_fraction = 0.05;
  cfg.seed = 77;
  auto ds = synth::GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok());
  const std::string bin = ::testing::TempDir() +
                          std::to_string(static_cast<long>(getpid())) +
                          "_wide_minc.rgx";
  ASSERT_TRUE(matrix::WriteBinaryMatrix(ds->data, bin).ok());

  for (int threads : {1, 4}) {
    MiningService::Options options;
    options.num_threads = threads;
    MiningService service(options);
    const ServiceResponse mine = service.HandleHttp(
        "POST", "/mine",
        "{\"matrix\":\"" + bin +
            "\",\"ming\":5,\"minc\":50,\"gamma\":0.1,\"epsilon\":0.1}");
    ASSERT_EQ(mine.http_status, 400) << mine.body;
    const std::string minc50 =
        "minc 50 exceeds the matrix's 12 conditions; no cluster can satisfy "
        "it";
    ASSERT_NE(mine.body.find(minc50), std::string::npos) << mine.body;

    const ServiceResponse sweep = service.HandleHttp(
        "POST", "/sweep",
        "{\"matrix\":\"" + bin +
            "\",\"ming\":5,\"gamma\":0.1,\"epsilon\":0.1,"
            "\"spec\":\"minc=4;50;1000000\",\"deterministic_output\":true}");
    ASSERT_EQ(sweep.http_status, 200) << sweep.body;
    EXPECT_NE(sweep.body.find("\"runs_executed\": 1,"), std::string::npos)
        << sweep.body;
    EXPECT_NE(sweep.body.find(minc50), std::string::npos) << sweep.body;
    EXPECT_NE(sweep.body.find("minc 1000000 exceeds the matrix's 12 "
                              "conditions"),
              std::string::npos)
        << sweep.body;
    // Only run 0 executed, on the cached model; runs 1 and 2 have neither.
    size_t executed = 0;
    size_t shared = 0;
    for (size_t at = 0;
         (at = sweep.body.find("\"executed\": true", at)) != std::string::npos;
         ++at) {
      ++executed;
    }
    for (size_t at = 0; (at = sweep.body.find("\"shared_model\": true", at)) !=
                        std::string::npos;
         ++at) {
      ++shared;
    }
    EXPECT_EQ(executed, 1u) << sweep.body;
    EXPECT_EQ(shared, 1u) << sweep.body;
    const ResourceCache::Stats s = service.cache_stats();
    EXPECT_EQ(s.model_misses, 1) << "threads " << threads;
    EXPECT_EQ(s.model_hits, 0) << "threads " << threads;
  }
}

}  // namespace
}  // namespace server
}  // namespace regcluster
