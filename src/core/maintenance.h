// MaintenanceWorker: the paper's background worker (§3.3) that "will
// periodically check for old time partitions outside the retention time
// watermark", plus the §3.2 swap-out hint for the mmap'ed structures.
// (Stale log records need no periodic purge: flush marks retire whole WAL
// segments as they arrive, see core/wal.h.) One thread, fixed tick,
// injectable clock for tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace tu::core {

struct MaintenanceOptions {
  /// Tick period. Scaled down from minutes in production deployments.
  int64_t interval_ms = 1000;
  /// Retention window; 0 disables the retention pass.
  int64_t retention_ms = 0;
  /// Hint the OS to reclaim cold mmap pages each tick.
  bool advise_memory_release = false;
  /// Clock returning "now" in the data's timestamp domain (ms). Defaults
  /// to the wall clock; tests inject a virtual clock.
  std::function<int64_t()> now;
};

class MaintenanceWorker {
 public:
  /// `tick` runs on the worker thread with the retention watermark
  /// (now - retention_ms, or INT64_MIN when retention is disabled).
  MaintenanceWorker(MaintenanceOptions options,
                    std::function<void(int64_t watermark)> tick);
  ~MaintenanceWorker();

  MaintenanceWorker(const MaintenanceWorker&) = delete;
  MaintenanceWorker& operator=(const MaintenanceWorker&) = delete;

  void Start();
  void Stop();

  /// Runs one tick synchronously (tests / forced maintenance).
  void TickNow();

  uint64_t ticks() const { return ticks_.load(); }

 private:
  void Loop();

  MaintenanceOptions options_;
  std::function<void(int64_t)> tick_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
  std::atomic<uint64_t> ticks_{0};
};

}  // namespace tu::core
