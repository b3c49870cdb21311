#include "server/resource_cache.h"

#include <utility>

#include "io/checkpoint.h"
#include "matrix/matrix_io.h"

namespace regcluster {
namespace server {

bool ResourceCache::ModelKey::operator==(const ModelKey& o) const {
  return matrix_hash == o.matrix_hash && policy == o.policy &&
         gamma == o.gamma;
}

size_t ResourceCache::ModelKeyHasher::operator()(const ModelKey& k) const {
  size_t h = util::Hash128Hasher()(k.matrix_hash);
  h ^= static_cast<size_t>(k.policy) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(k.gamma));
  __builtin_memcpy(&bits, &k.gamma, sizeof(bits));
  h ^= static_cast<size_t>(bits) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

util::StatusOr<std::shared_ptr<const ResourceCache::MatrixHandle>>
ResourceCache::GetMatrix(const std::string& path, bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = by_path_.find(path); it != by_path_.end()) {
    ++stats_.matrix_hits;
    if (hit != nullptr) *hit = true;
    Touch(it->second);
    return it->second->matrix;
  }
  ++stats_.matrix_misses;
  if (hit != nullptr) *hit = false;

  // Binary matrices map (their pages are reclaimable and charge nothing
  // against the budget); text matrices load resident.
  auto opened = matrix::OpenMatrixStore(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<const matrix::MatrixStore> store = *std::move(opened);
  if (store->HasMissingValues()) {
    return util::Status::FailedPrecondition(
        "matrix " + path +
        " contains missing values; impute offline first "
        "(regcluster convert --impute=rowmean)");
  }

  auto handle = std::make_shared<MatrixHandle>();
  handle->store = store;
  handle->content_hash = io::HashMatrixContent(*store);
  handle->bytes = store->resident_bytes();
  handle->generation = generation_;

  Entry entry;
  entry.path = path;
  entry.bytes = handle->bytes;
  entry.matrix = handle;
  Insert(std::move(entry));
  return std::shared_ptr<const MatrixHandle>(std::move(handle));
}

util::StatusOr<std::shared_ptr<const core::SharedGammaModel>>
ResourceCache::GetModel(const std::shared_ptr<const MatrixHandle>& handle,
                        const core::GammaSpec& spec, int max_chain_need,
                        bool* hit) {
  if (handle == nullptr || handle->store == nullptr) {
    return util::Status::InvalidArgument("GetModel needs a matrix handle");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ModelKey key;
  key.matrix_hash = handle->content_hash;
  key.policy = spec.policy;
  key.gamma = spec.gamma;
  if (auto it = by_model_.find(key); it != by_model_.end()) {
    if (it->second->model->max_chain_need >= max_chain_need) {
      ++stats_.model_hits;
      if (hit != nullptr) *hit = true;
      Touch(it->second);
      return it->second->model;
    }
    // Ceiling too small: replace with a taller build (miss + eviction), the
    // per-request form of the sweep engine's largest-MinC sharing.
    stats_.resident_bytes -= it->second->bytes;
    ++stats_.evictions;
    lru_.erase(it->second);
    by_model_.erase(it);
  }
  ++stats_.model_misses;
  if (hit != nullptr) *hit = false;

  std::shared_ptr<const core::SharedGammaModel> model =
      core::SharedGammaModel::Build(*handle->store, spec, max_chain_need,
                                    options_.build_threads);

  Entry entry;
  entry.model_key = key;
  entry.is_model = true;
  entry.bytes = static_cast<int64_t>(model->MemoryBytes());
  entry.model = model;
  Insert(std::move(entry));
  return model;
}

int ResourceCache::InvalidateAppend(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  int dropped = 0;
  util::Hash128 hash{0, 0};
  bool have_hash = false;
  if (auto it = by_path_.find(path); it != by_path_.end()) {
    hash = it->second->matrix->content_hash;
    have_hash = true;
    stats_.resident_bytes -= it->second->bytes;
    ++stats_.invalidations;
    ++dropped;
    lru_.erase(it->second);
    by_path_.erase(it);
  }
  if (have_hash) {
    // Every model keyed by the stale matrix content, regardless of spec.
    for (auto it = by_model_.begin(); it != by_model_.end();) {
      if (it->first.matrix_hash == hash) {
        stats_.resident_bytes -= it->second->bytes;
        ++stats_.invalidations;
        ++dropped;
        lru_.erase(it->second);
        it = by_model_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

uint64_t ResourceCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

ResourceCache::Stats ResourceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResourceCache::Touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ResourceCache::Insert(Entry entry) {
  stats_.resident_bytes += entry.bytes;
  lru_.push_front(std::move(entry));
  const LruList::iterator it = lru_.begin();
  if (it->is_model) {
    by_model_[it->model_key] = it;
  } else {
    by_path_[it->path] = it;
  }
  EvictToBudget();
}

void ResourceCache::EvictToBudget() {
  // Never evict the just-touched front: a single entry larger than the
  // whole budget must still be servable (one-entry floor).
  while (stats_.resident_bytes > options_.byte_budget && lru_.size() > 1) {
    const LruList::iterator victim = std::prev(lru_.end());
    stats_.resident_bytes -= victim->bytes;
    ++stats_.evictions;
    if (victim->is_model) {
      by_model_.erase(victim->model_key);
    } else {
      by_path_.erase(victim->path);
    }
    lru_.erase(victim);
  }
}

}  // namespace server
}  // namespace regcluster
