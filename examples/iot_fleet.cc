// IoT fleet telemetry: late-arriving (out-of-order) uploads and data
// retention. Devices buffer readings offline and upload them hours later;
// TimeUnion absorbs the stale data through partition merges on the fast
// tier and patch SSTables on the object tier (§3.3), and a retention
// watermark drops old partitions wholesale.
//
//   ./iot_fleet [workspace_dir]
#include <cstdio>
#include <memory>
#include <vector>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "util/random.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::index::Labels;
using tu::index::TagMatcher;
using tu::query::ReadRequest;

namespace {
constexpr int64_t kMinute = 60 * 1000;
constexpr int64_t kHour = 60 * kMinute;
}  // namespace

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_iot";
  tu::RemoveDirRecursive(options.workspace);
  options.lsm.memtable_bytes = 128 << 10;
  options.lsm.patch_threshold = 2;  // merge patches aggressively
  options.enable_wal = true;        // survive gateway crashes

  std::unique_ptr<TimeUnionDB> db;
  Status st = TimeUnionDB::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 20 sensors reporting temperature every minute for 36 hours.
  const int kSensors = 20;
  std::vector<uint64_t> refs(kSensors, 0);
  tu::Random rng(7);
  for (int d = 0; d < kSensors; ++d) {
    const Labels labels = {{"device", "sensor-" + std::to_string(d)},
                           {"metric", "temperature"},
                           {"site", d < 10 ? "plant-a" : "plant-b"}};
    st = db->Insert(labels, 0, 20.0, &refs[d]);
    if (!st.ok()) return 1;
  }
  for (int64_t ts = kMinute; ts < 36 * kHour; ts += kMinute) {
    for (int d = 0; d < kSensors; ++d) {
      // Devices 15..19 are flaky: they skip 30% of live uploads.
      if (d >= 15 && rng.OneIn(3)) continue;
      st = db->InsertFast(refs[d], ts, 20.0 + rng.NextGaussian(0, 2));
      if (!st.ok()) return 1;
    }
  }
  db->Flush();
  std::printf("live ingestion done; L2 partitions on object storage: %zu\n",
              db->time_lsm()->NumL2Partitions());

  // The flaky devices come back online and upload their buffered backlog —
  // hours-old timestamps landing in partitions already migrated to the
  // object tier.
  for (int d = 15; d < kSensors; ++d) {
    for (int64_t ts = kMinute; ts < 30 * kHour; ts += 3 * kMinute) {
      st = db->InsertFast(refs[d], ts, 19.0);  // backfilled reading
      if (!st.ok()) return 1;
    }
  }
  db->Flush();
  const auto& stats = db->time_lsm()->stats();
  std::printf("backlog absorbed: %llu patch SSTables appended, %llu patch "
              "merges\n",
              static_cast<unsigned long long>(stats.patches_created.load()),
              static_cast<unsigned long long>(stats.patch_merges.load()));

  // Verify a backfilled window reads back correctly.
  QueryResult result;
  st = db->Query(ReadRequest::Range({TagMatcher::Equal("device", "sensor-17")},
                                    2 * kHour, 3 * kHour),
                 &result);
  if (!st.ok()) return 1;
  std::printf("sensor-17, hour 2-3: %zu samples after backfill\n",
              result.empty() ? 0 : result[0].timestamps.size());

  // Retention: keep only the last 12 hours.
  st = db->ApplyRetention(24 * kHour);
  if (!st.ok()) return 1;
  st = db->Query(
      ReadRequest::Range({TagMatcher::Equal("metric", "temperature")}, 0,
                         23 * kHour),
      &result);
  if (!st.ok()) return 1;
  std::printf("after retention (watermark 24h): %zu series with data before "
              "hour 23 (expected 0)\n",
              result.size());
  st = db->Query(
      ReadRequest::Range({TagMatcher::Equal("metric", "temperature")},
                         30 * kHour, 36 * kHour),
      &result);
  if (!st.ok()) return 1;
  std::printf("recent window still served: %zu series\n", result.size());
  return 0;
}
