// Quickstart: open a TimeUnion database, write a few timeseries as
// labeled rows and ref rows, and query them back with tag selectors.
//
//   ./quickstart [workspace_dir]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"

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
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_quickstart";
  tu::RemoveDirRecursive(options.workspace);

  std::unique_ptr<TimeUnionDB> db;
  Check(TimeUnionDB::Open(options, &db), "open");

  // ---- Put (Timeseries), labeled rows: a row carries the full tag set,
  // and the write resolves (or registers) the series and returns its
  // reference. A second series demonstrates selectors.
  const Labels cpu_labels = {
      {"hostname", "web-01"}, {"metric", "cpu_usage"}, {"region", "tokyo"}};
  WriteBatch batch;
  WriteResult written;
  batch.AddSample(cpu_labels, /*ts=*/0, /*value=*/12.5);
  batch.AddSample(Labels{{"hostname", "web-01"},
                         {"metric", "mem_usage"},
                         {"region", "tokyo"}},
                  0, 2048);
  CheckWrite(db.get(), batch, &written);
  const uint64_t cpu_ref = written.resolved_refs[0];
  std::printf("registered series ref=%llu\n",
              static_cast<unsigned long long>(cpu_ref));

  // ---- Ref rows: later samples go by reference (no tag handling), many
  // rows to one call.
  batch.Clear();
  for (int i = 1; i <= 120; ++i) {
    batch.AddSample(cpu_ref, i * 30'000LL, 12.5 + i % 7);
  }
  CheckWrite(db.get(), batch, &written);

  // ---- Get: time range + tag selectors (exact and regex).
  QueryResult result;
  Check(db->Query(ReadRequest::Range({TagMatcher::Equal("hostname", "web-01"),
                                      TagMatcher::Regex("metric", "cpu.*")},
                                     0, 3'600'000),
                  &result),
        "query");
  if (result.size() != 1 || result[0].timestamps.size() != 121) {
    std::fprintf(stderr, "query returned the wrong series\n");
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
