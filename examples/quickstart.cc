// Quickstart: open a TimeUnion database, insert a few timeseries through
// the slow and fast paths, and query them back with tag selectors.
//
//   ./quickstart [workspace_dir]
#include <cstdio>
#include <memory>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::index::Labels;
using tu::index::TagMatcher;
using tu::query::ReadRequest;

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_quickstart";
  tu::RemoveDirRecursive(options.workspace);

  std::unique_ptr<TimeUnionDB> db;
  Status st = TimeUnionDB::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Put (Timeseries), slow path: the first insertion carries the full
  // tag set and returns a series reference.
  const Labels cpu_labels = {
      {"hostname", "web-01"}, {"metric", "cpu_usage"}, {"region", "tokyo"}};
  uint64_t cpu_ref = 0;
  st = db->Insert(cpu_labels, /*ts=*/0, /*value=*/12.5, &cpu_ref);
  if (!st.ok()) {
    std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("registered series ref=%llu\n",
              static_cast<unsigned long long>(cpu_ref));

  // ---- Fast path: subsequent samples go by reference (no tag handling).
  for (int i = 1; i <= 120; ++i) {
    st = db->InsertFast(cpu_ref, i * 30'000LL, 12.5 + i % 7);
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // A second series to demonstrate selectors.
  uint64_t mem_ref = 0;
  db->Insert({{"hostname", "web-01"}, {"metric", "mem_usage"},
              {"region", "tokyo"}},
             0, 2048, &mem_ref);

  // ---- Get: time range + tag selectors (exact and regex).
  QueryResult result;
  st = db->Query(ReadRequest::Range({TagMatcher::Equal("hostname", "web-01"),
                                     TagMatcher::Regex("metric", "cpu.*")},
                                    0, 3'600'000),
                 &result);
  if (!st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const auto& series : result) {
    std::printf("series:");
    for (const auto& label : series.labels) {
      std::printf(" %s=%s", label.name.c_str(), label.value.c_str());
    }
    std::printf("\n  %zu samples; first=(%lld, %.1f) last=(%lld, %.1f)\n",
                series.timestamps.size(),
                static_cast<long long>(series.timestamps.front()),
                series.values.front(),
                static_cast<long long>(series.timestamps.back()),
                series.values.back());
  }

  std::printf("index memory: %llu bytes for %llu series\n",
              static_cast<unsigned long long>(db->IndexMemoryUsage()),
              static_cast<unsigned long long>(db->NumSeries()));
  return 0;
}
