// A reusable work-stealing thread pool for coarse-grained, dynamically
// discovered tasks (the miner's per-subtree search units).
//
// Design:
//   * Fixed set of worker threads, created once in the constructor.
//   * One deque per worker.  A worker pushes and pops at the *back* of its
//     own deque (LIFO: newly spawned subtasks run first, keeping caches
//     warm); idle workers steal from the *front* of a victim's deque (FIFO:
//     thieves take the oldest -- usually largest -- pending task).
//   * Victims are probed starting from a per-thief xorshift-random index so
//     thieves do not convoy on worker 0.
//   * Tasks may Submit() further tasks from inside a running task; this is
//     the normal way a search task exposes child subtrees for stealing.
//   * Wait() blocks until every task -- including tasks submitted by tasks
//     -- has completed; afterwards the pool is reusable for another batch.
//
// Determinism contract: the pool makes *no* ordering guarantees.  Callers
// that need deterministic results must write each task's output to its own
// pre-assigned slot and merge the slots in a canonical order after Wait()
// (see core::RegClusterMiner for the pattern).
//
// The implementation uses one mutex per deque plus a pool-wide mutex that is
// only touched when workers go idle or Wait() blocks, so the busy path is a
// single uncontended lock per task transfer.  It contains no lock-free
// cleverness on purpose: tasks here are milliseconds-coarse, and the simple
// scheme is easy to prove TSAN-clean (CI runs it under -fsanitize=thread).

#ifndef REGCLUSTER_UTIL_TASK_POOL_H_
#define REGCLUSTER_UTIL_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace regcluster {
namespace util {

/// Resolves a worker-count knob: a positive count as is, 0 (or less) the
/// hardware concurrency, never below 1.
int ResolveThreadCount(int num_threads);

class TaskPool {
 public:
  /// A task receives the index (in [0, num_workers())) of the worker that
  /// runs it, so callers can maintain per-worker scratch state.
  using Task = std::function<void(int worker)>;

  /// Starts `num_threads` workers; 0 selects std::thread::hardware_concurrency
  /// (at least 1).  The pool is usable immediately.
  explicit TaskPool(int num_threads);

  /// Drains outstanding tasks (equivalent to Wait()), then stops and joins
  /// all workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task.  Callable from any thread.  From inside a task running
  /// on this pool, the task lands at the back of the current worker's own
  /// deque; from outside, deques are fed round-robin.
  void Submit(Task task);

  /// Blocks until all submitted tasks (including transitively submitted
  /// ones) have finished.  Multiple threads may Wait() concurrently.
  void Wait();

  /// Drops every queued-but-not-yet-started task and returns how many were
  /// dropped.  Running tasks are unaffected; once they (and any tasks they
  /// submit afterwards) finish, Wait() returns and idle workers park on the
  /// work condition variable as usual.  Dropped tasks are destroyed without
  /// running, so this is only safe for tasks whose *absence* the caller can
  /// detect and tolerate (the miner records per-task completion and treats a
  /// missing task as abandoned work).  Callable from any thread, idempotent,
  /// and the pool stays reusable for a fresh batch afterwards.
  int64_t CancelPending();

  /// Index of the pool worker executing the calling thread, or -1 when the
  /// caller is not one of this pool's workers.
  int current_worker() const;

  /// Telemetry (relaxed atomics, monotone over the pool's lifetime).  These
  /// describe *scheduling*, not results: values depend on thread timing and
  /// are only comparable between runs statistically.  Read them after Wait()
  /// for a settled snapshot.
  int64_t total_steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Largest single-deque depth observed at any Submit().
  int64_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void WorkerLoop(int index);
  bool PopOwn(int index, Task* out);
  bool StealFrom(int thief, Task* out);
  void RunTask(Task* task, int worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  /// Tasks submitted but not yet finished.
  std::atomic<int64_t> pending_{0};
  /// Round-robin cursor for submissions from non-worker threads.
  std::atomic<uint64_t> external_cursor_{0};
  /// Successful StealFrom() transfers (telemetry only).
  std::atomic<int64_t> steals_{0};
  /// High-water mark of any single deque's depth (telemetry only).
  std::atomic<int64_t> queue_high_water_{0};

  /// Pool-wide state below is only touched on the idle/blocked paths.
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signalled on Submit
  std::condition_variable done_cv_;   ///< signalled when pending_ hits 0
  uint64_t work_epoch_ = 0;           ///< bumped (under mu_) on every Submit
  bool stop_ = false;
};

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_TASK_POOL_H_
