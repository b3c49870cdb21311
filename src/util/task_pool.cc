#include "util/task_pool.h"

#include <algorithm>
#include <utility>

namespace regcluster {
namespace util {
namespace {

/// Identifies the pool (and worker slot) owning the current thread, so
/// Submit() can tell worker-local pushes from external ones.
thread_local const TaskPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

/// Cheap per-thief xorshift64 for victim selection.  Randomness here only
/// affects load balance, never results.
uint64_t NextRandom(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

}  // namespace

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw < 1 ? 1 : hw;
}

TaskPool::TaskPool(int num_threads) {
  const int n = ResolveThreadCount(num_threads);
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int TaskPool::current_worker() const {
  return tls_pool == this ? tls_worker : -1;
}

void TaskPool::Submit(Task task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const int self = current_worker();
  const size_t slot =
      self >= 0 ? static_cast<size_t>(self)
                : static_cast<size_t>(external_cursor_.fetch_add(
                      1, std::memory_order_relaxed)) %
                      queues_.size();
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(task));
    depth = queues_[slot]->tasks.size();
  }
  int64_t hw = queue_high_water_.load(std::memory_order_relaxed);
  while (static_cast<int64_t>(depth) > hw &&
         !queue_high_water_.compare_exchange_weak(
             hw, static_cast<int64_t>(depth), std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++work_epoch_;
  }
  work_cv_.notify_one();
}

bool TaskPool::PopOwn(int index, Task* out) {
  WorkerQueue& q = *queues_[static_cast<size_t>(index)];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  *out = std::move(q.tasks.back());
  q.tasks.pop_back();
  return true;
}

bool TaskPool::StealFrom(int thief, Task* out) {
  const size_t n = queues_.size();
  if (n <= 1) return false;
  thread_local uint64_t rng = 0;
  if (rng == 0) rng = 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(thief) + 1);
  const size_t start = static_cast<size_t>(NextRandom(&rng) % n);
  for (size_t probe = 0; probe < n; ++probe) {
    const size_t victim = (start + probe) % n;
    if (victim == static_cast<size_t>(thief)) continue;
    WorkerQueue& q = *queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    *out = std::move(q.tasks.front());
    q.tasks.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void TaskPool::RunTask(Task* task, int worker) {
  (*task)(worker);
  *task = nullptr;  // release captures before signalling completion
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the batch: wake Wait()ers.  Taking the lock (even empty)
    // orders this notify against a waiter that just evaluated its predicate.
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_all();
  }
}

void TaskPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker = index;
  Task task;
  for (;;) {
    if (PopOwn(index, &task) || StealFrom(index, &task)) {
      RunTask(&task, index);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t seen_epoch = work_epoch_;
    lock.unlock();
    // One more sweep after recording the epoch: a task submitted after this
    // point bumps the epoch, so the wait predicate below cannot miss it.
    if (PopOwn(index, &task) || StealFrom(index, &task)) {
      RunTask(&task, index);
      continue;
    }
    lock.lock();
    work_cv_.wait(lock, [this, seen_epoch] {
      return stop_ || work_epoch_ != seen_epoch;
    });
    if (stop_) return;
  }
}

int64_t TaskPool::CancelPending() {
  // Move tasks out under each queue lock, destroy them outside it (a task's
  // captures may run nontrivial destructors), then settle the pending count
  // exactly as RunTask would have.
  std::vector<Task> dropped;
  for (auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    while (!queue->tasks.empty()) {
      dropped.push_back(std::move(queue->tasks.back()));
      queue->tasks.pop_back();
    }
  }
  const int64_t count = static_cast<int64_t>(dropped.size());
  if (count == 0) return 0;
  dropped.clear();
  if (pending_.fetch_sub(count, std::memory_order_acq_rel) == count) {
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_all();
  }
  return count;
}

void TaskPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace util
}  // namespace regcluster
