#include "core/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu::core {
namespace {

using index::TagMatcher;

constexpr int64_t kHour = 3600LL * 1000;

TEST(MaintenanceWorkerTest, TicksPeriodically) {
  MaintenanceOptions opts;
  opts.interval_ms = 5;
  std::atomic<int> ticks{0};
  MaintenanceWorker worker(opts, [&](int64_t) { ++ticks; });
  worker.Start();
  while (ticks.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.Stop();
  EXPECT_GE(ticks.load(), 3);
  const int after_stop = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), after_stop);  // no ticks after Stop
}

TEST(MaintenanceWorkerTest, WatermarkFromInjectedClock) {
  MaintenanceOptions opts;
  opts.interval_ms = 1000;
  opts.retention_ms = 100;
  opts.now = [] { return int64_t{5000}; };
  int64_t seen = 0;
  MaintenanceWorker worker(opts, [&](int64_t wm) { seen = wm; });
  worker.TickNow();
  EXPECT_EQ(seen, 4900);
  EXPECT_EQ(worker.ticks(), 1u);
}

TEST(MaintenanceWorkerTest, RetentionDisabledYieldsSentinel) {
  MaintenanceOptions opts;
  opts.retention_ms = 0;
  int64_t seen = 0;
  MaintenanceWorker worker(opts, [&](int64_t wm) { seen = wm; });
  worker.TickNow();
  EXPECT_EQ(seen, INT64_MIN);
}

TEST(MaintenanceWorkerTest, StopIdempotentAndRestartable) {
  MaintenanceOptions opts;
  opts.interval_ms = 5;
  std::atomic<int> ticks{0};
  MaintenanceWorker worker(opts, [&](int64_t) { ++ticks; });
  worker.Stop();  // never started: no-op
  worker.Start();
  worker.Start();  // double start: no-op
  while (ticks.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.Stop();
  worker.Stop();
  worker.Start();  // restart works
  const int before = ticks.load();
  while (ticks.load() == before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.Stop();
}

TEST(DbMaintenanceTest, BackgroundRetentionPurgesOldData) {
  DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/maint_db";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  opts.background_maintenance = true;
  opts.maintenance_interval_ms = 10;
  opts.retention_ms = 6 * kHour;
  // Virtual clock: held at 0 during ingest (watermark -6h purges nothing,
  // so a tick firing mid-loop can't retire the half-written series), then
  // advanced to hour 30 of the data's timeline.
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);
  opts.maintenance_clock = [now] { return now->load(); };

  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < 28 * 60; ++i) batch.AddSample(ref, i * 60'000LL, 1.0);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  now->store(30 * kHour);

  // Wait for a few maintenance ticks to apply the retention watermark
  // (hour 24 = 30 - 6).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  QueryResult result;
  ASSERT_TRUE(
      db->Query(query::ReadRequest::Range({TagMatcher::Equal("m", "cpu")}, 0,
                                          20 * kHour), &result).ok());
  EXPECT_TRUE(result.empty()) << "data older than the watermark must be gone";
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 26 * kHour, 28 * kHour), &result)
                  .ok());
  EXPECT_FALSE(result.empty()) << "recent data must survive";

  db.reset();
  RemoveDirRecursive(opts.workspace);
}

}  // namespace
}  // namespace tu::core
