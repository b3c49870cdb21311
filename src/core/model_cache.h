// Sharded, byte-budgeted LRU cache of per-gene RWave models, backing the
// miner's out-of-core execution path.
//
// Eager mining builds each gene's RWaveModel inside that gene's index bake
// and drops it right after, so no model outlives its index slice.  The
// out-of-core path instead builds models on first use through this cache,
// which keeps hot ones (~1.3 KB per gene at 40 conditions) for explicit
// model lookups and evicts cold ones once the byte budget is exceeded.
//
// Correctness rests on deterministic construction: RWaveModel::Build is a
// pure function of (profile bytes, gamma_abs), so a model rebuilt after
// eviction is byte-identical to the evicted one, and a cached result is
// byte-identical to what the eager path would have produced.  Eviction
// order can therefore affect *when* work is redone, never *what* any query
// answers.
//
// Sharding: gene g lives in shard g % num_shards, each shard with its own
// mutex, LRU list and bytes/num_shards budget slice.  Concurrent Get()s of
// different genes in different shards never contend.  Each shard always
// retains at least its most recently used entry regardless of budget (the
// "one model per shard" floor), so a Get() result is always usable and a
// degenerate budget degrades to rebuild-per-stripe, not a failure.
//
// Handles are shared_ptr<const RWaveModel>: eviction drops the cache's
// reference, but a holder's pin keeps the model alive until released, so a
// caller can never observe a model disappearing mid-use.
//
// Stats: hit/miss/eviction totals are exact under any schedule, but their
// split is schedule-dependent when several threads miss the same gene at
// once (each builds; one insert wins).  With construction forced serial the
// totals are a pure function of the access sequence -- the property the obs
// export tests pin down.

#ifndef REGCLUSTER_CORE_MODEL_CACHE_H_
#define REGCLUSTER_CORE_MODEL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rwave.h"

namespace regcluster {
namespace core {

class ModelCache {
 public:
  struct Options {
    /// Total byte budget across all shards; < 0 = unbounded.  Each shard
    /// keeps its most recently used entry even when over budget.
    int64_t byte_budget = -1;
    /// Number of independent LRU shards (>= 1; clamped).
    int num_shards = 8;
  };

  /// Monotone counters plus the current resident footprint.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Entries dropped because their generation tag predated the current
    /// cache generation (see Invalidate); each is followed by the rebuild's
    /// miss, so stale_drops never exceeds misses.
    int64_t stale_drops = 0;
    int64_t resident_bytes = 0;
  };

  /// Builds gene `gene`'s model; must be deterministic (pure function of
  /// the gene id) -- see the file comment.  Called outside any shard lock,
  /// possibly concurrently from several threads.
  using Builder = std::function<RWaveModel(int gene)>;

  ModelCache(int num_genes, Builder builder, const Options& options);

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Returns gene `gene`'s model, building it on a miss.  The returned
  /// handle pins the model independently of the cache's own retention.
  std::shared_ptr<const RWaveModel> Get(int gene);

  /// Installs a new builder and bumps the cache generation, invalidating
  /// every cached model without an eager flush: entries carry the
  /// generation they were built under, and a stale entry is dropped the
  /// next time its gene is touched (a stale_drop plus the rebuild's miss)
  /// or when eviction reaches it.  Used after a condition append widens
  /// the backing matrix -- an old-width model must never serve new-width
  /// queries -- while leaving the cache object (and any handles pinned by
  /// in-flight readers) intact.
  void Invalidate(Builder builder);

  /// Monotone generation tag, bumped by Invalidate().
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  Stats stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t byte_budget() const { return byte_budget_; }

  /// Bytes currently held by cached models (same figure as
  /// stats().resident_bytes; callable concurrently with Get()).
  int64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    int gene = -1;
    uint64_t gen = 0;  ///< cache generation this model was built under
    std::shared_ptr<const RWaveModel> model;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<int, decltype(lru)::iterator> index;
    int64_t bytes = 0;
  };

  static int64_t EntryBytes(const RWaveModel& m) {
    return static_cast<int64_t>(sizeof(RWaveModel) + m.MemoryBytes());
  }

  /// Guards builder_ only; shared_ptr-held so a Get() that is mid-build
  /// keeps its snapshot alive across a concurrent Invalidate().
  mutable std::mutex builder_mu_;
  std::shared_ptr<const Builder> builder_;
  std::atomic<uint64_t> generation_{0};
  int64_t byte_budget_;
  int64_t shard_budget_;  // byte_budget_ / shards, <0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> stale_drops_{0};
  std::atomic<int64_t> resident_bytes_{0};
};

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_MODEL_CACHE_H_
