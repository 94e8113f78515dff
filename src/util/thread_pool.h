// ThreadPool: fixed-size worker pool for background LSM work (immutable
// memtable flushes, compactions, retention workers).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tu {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `work` for execution on a worker thread. After Shutdown()
  /// (or during destruction) the work is silently dropped instead of
  /// touching a dead queue.
  void Schedule(std::function<void()> work);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  /// Drains the queue, joins all workers, and marks the pool dead.
  /// Idempotent; called by the destructor. Subsequent Schedule() calls
  /// are no-ops.
  void Shutdown();

  size_t pending() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace tu
