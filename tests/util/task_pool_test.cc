// util::TaskPool: completion semantics, recursive submission (the miner's
// root-task-spawns-subtrees pattern), steal correctness under contention,
// batch reuse, and clean shutdown.

#include "util/task_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace regcluster {
namespace util {
namespace {

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count](int) { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(TaskPoolTest, ZeroSelectsHardwareConcurrency) {
  TaskPool pool(0);
  EXPECT_GE(pool.num_workers(), 1);
  std::atomic<int> count{0};
  pool.Submit([&count](int) { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskPoolTest, WorkerIndexIsInRange) {
  TaskPool pool(3);
  std::atomic<int> bad{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&bad, &pool](int worker) {
      if (worker < 0 || worker >= 3) bad.fetch_add(1);
      if (pool.current_worker() != worker) bad.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
  // From a non-worker thread there is no current worker.
  EXPECT_EQ(pool.current_worker(), -1);
}

TEST(TaskPoolTest, TasksCanSubmitSubtasks) {
  // A binary fan-out submitted entirely from inside tasks: Wait() must
  // cover transitively spawned work, and every leaf must run exactly once.
  TaskPool pool(4);
  std::atomic<int> leaves{0};
  std::function<void(int, int)> spawn = [&](int depth, int) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    pool.Submit([&spawn, depth](int w) { spawn(depth - 1, w); });
    pool.Submit([&spawn, depth](int w) { spawn(depth - 1, w); });
  };
  pool.Submit([&spawn](int w) { spawn(7, w); });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 128);  // 2^7
}

TEST(TaskPoolTest, StealsFromASingleLoadedQueue) {
  // All tasks are spawned from inside one chain-task, so they pile onto one
  // worker's deque; the other workers can only make progress by stealing.
  // Each task burns a little time so the submitting worker cannot drain its
  // own deque before thieves arrive.  Correctness = exactly-once execution.
  TaskPool pool(4);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  pool.Submit([&](int) {
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&runs, i](int) {
        runs[static_cast<size_t>(i)].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    }
  });
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(TaskPoolTest, ReusableAcrossBatches) {
  TaskPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count](int) { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 50);
  }
}

TEST(TaskPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    TaskPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count](int) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPoolTest, WaitOnIdlePoolReturnsImmediately) {
  TaskPool pool(2);
  pool.Wait();  // nothing submitted
  pool.Submit([](int) {});
  pool.Wait();
  pool.Wait();  // already drained
}

}  // namespace
}  // namespace util
}  // namespace regcluster
