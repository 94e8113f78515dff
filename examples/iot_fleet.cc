// IoT fleet telemetry: late-arriving (out-of-order) uploads and data
// retention. Devices buffer readings offline and upload them hours later;
// TimeUnion absorbs the stale data through partition merges on the fast
// tier and patch SSTables on the object tier (§3.3), and a retention
// watermark drops old partitions wholesale.
//
//   ./iot_fleet [workspace_dir]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "util/random.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::core::WriteBatch;
using tu::core::WriteResult;
using tu::index::Labels;
using tu::index::TagMatcher;
using tu::query::ReadRequest;

namespace {
constexpr int64_t kMinute = 60 * 1000;
constexpr int64_t kHour = 60 * kMinute;

// Exits with status 1 when `st` is not OK.
void Check(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

// Write returns OK when a row fails; the row outcome is in `result`.
void CheckWrite(TimeUnionDB* db, const WriteBatch& batch,
                WriteResult* result) {
  Check(db->Write(batch, result), "write");
  Check(result->first_error, "write row");
}
}  // namespace

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_iot";
  tu::RemoveDirRecursive(options.workspace);
  options.lsm.memtable_bytes = 128 << 10;
  options.lsm.patch_threshold = 2;  // merge patches aggressively
  options.enable_wal = true;        // survive gateway crashes

  std::unique_ptr<TimeUnionDB> db;
  Check(TimeUnionDB::Open(options, &db), "open");

  // 20 sensors reporting temperature every minute for 36 hours. The first
  // reading of each goes by labels and resolves the sensor's reference;
  // each later minute is one batch of ref rows.
  const int kSensors = 20;
  tu::Random rng(7);
  WriteBatch batch;
  WriteResult written;
  for (int d = 0; d < kSensors; ++d) {
    batch.AddSample(Labels{{"device", "sensor-" + std::to_string(d)},
                           {"metric", "temperature"},
                           {"site", d < 10 ? "plant-a" : "plant-b"}},
                    0, 20.0);
  }
  CheckWrite(db.get(), batch, &written);
  const std::vector<uint64_t> refs = written.resolved_refs;
  for (int64_t ts = kMinute; ts < 36 * kHour; ts += kMinute) {
    batch.Clear();
    for (int d = 0; d < kSensors; ++d) {
      // Devices 15..19 are flaky: they skip 30% of live uploads.
      if (d >= 15 && rng.OneIn(3)) continue;
      batch.AddSample(refs[d], ts, 20.0 + rng.NextGaussian(0, 2));
    }
    CheckWrite(db.get(), batch, &written);
  }
  Check(db->Flush(), "flush");
  std::printf("live ingestion done; L2 partitions on object storage: %zu\n",
              db->time_lsm()->NumL2Partitions());

  // The flaky devices come back online and upload their buffered backlog —
  // hours-old timestamps landing in partitions already migrated to the
  // object tier.
  for (int d = 15; d < kSensors; ++d) {
    batch.Clear();
    for (int64_t ts = kMinute; ts < 30 * kHour; ts += 3 * kMinute) {
      batch.AddSample(refs[d], ts, 19.0);  // backfilled reading
    }
    CheckWrite(db.get(), batch, &written);
  }
  Check(db->Flush(), "flush");
  const auto& stats = db->time_lsm()->stats();
  std::printf("backlog absorbed: %llu patch SSTables appended, %llu patch "
              "merges\n",
              static_cast<unsigned long long>(stats.patches_created.load()),
              static_cast<unsigned long long>(stats.patch_merges.load()));

  // Verify a backfilled window reads back correctly.
  QueryResult result;
  Check(db->Query(ReadRequest::Range({TagMatcher::Equal("device", "sensor-17")},
                                     2 * kHour, 3 * kHour),
                  &result),
        "query");
  std::printf("sensor-17, hour 2-3: %zu samples after backfill\n",
              result.empty() ? 0 : result[0].timestamps.size());

  // Retention: keep only the last 12 hours.
  Check(db->ApplyRetention(24 * kHour), "retention");
  Check(db->Query(ReadRequest::Range(
                      {TagMatcher::Equal("metric", "temperature")}, 0,
                      23 * kHour),
                  &result),
        "query");
  std::printf("after retention (watermark 24h): %zu series with data before "
              "hour 23 (expected 0)\n",
              result.size());
  if (!result.empty()) return 1;
  Check(db->Query(ReadRequest::Range(
                      {TagMatcher::Equal("metric", "temperature")},
                      30 * kHour, 36 * kHour),
                  &result),
        "query");
  std::printf("recent window still served: %zu series\n", result.size());
  return result.size() == kSensors ? 0 : 1;
}
