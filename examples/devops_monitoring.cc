// DevOps monitoring with the unified GROUP data model (§3.1): each host's
// 101 metrics form one timeseries group sharing the hostname tag and the
// sample timestamps; members keep their own measurement/field tags.
// Demonstrates group registration by tags, group rows by reference,
// member queries through the two-level index, and hybrid-storage
// placement.
//
//   ./devops_monitoring [workspace_dir]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/timeunion_db.h"
#include "tsbs/devops.h"
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

}  // namespace

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_devops";
  tu::RemoveDirRecursive(options.workspace);
  options.lsm.memtable_bytes = 256 << 10;

  std::unique_ptr<TimeUnionDB> db;
  Check(TimeUnionDB::Open(options, &db), "open");

  // The TSBS DevOps schema: 4 hosts x 101 metrics, 6 hours at 30s.
  tu::tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 4;
  gen_opts.interval_ms = 30'000;
  gen_opts.duration_ms = 6LL * 3600 * 1000;
  tu::tsbs::DevOpsGenerator gen(gen_opts);

  std::vector<Labels> member_tags(tu::tsbs::DevOpsGenerator::kSeriesPerHost);
  for (int s = 0; s < tu::tsbs::DevOpsGenerator::kSeriesPerHost; ++s) {
    member_tags[s] = gen.UniqueTags(s);
  }

  // One batch per scrape, one group row per host in it. Write returns OK
  // when a row fails, so the row outcome is checked too.
  WriteBatch batch;
  WriteResult written;
  std::vector<WriteResult::ResolvedGroup> groups;
  std::vector<double> values(tu::tsbs::DevOpsGenerator::kSeriesPerHost);
  for (uint64_t step = 0; step < gen.num_steps(); ++step) {
    const int64_t ts = gen.start_ts() + step * gen.interval_ms();
    batch.Clear();
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      for (int s = 0; s < 101; ++s) values[s] = gen.Value(h, s, ts);
      if (step == 0) {
        // First round: rows by tags register the group (shared tags = host
        // tags) and its members; the result holds the group ref + member
        // slot indexes.
        batch.AddGroupRow(gen.HostTags(h), member_tags, ts, values);
      } else {
        // Later rounds: rows by group ref + slots — timestamps are stored
        // once for the whole group.
        batch.AddGroupRow(groups[h].group_ref, groups[h].slots, ts, values);
      }
    }
    Check(db->Write(batch, &written), "write");
    Check(written.first_error, "write row");
    if (step == 0) groups = written.resolved_groups;
  }
  Check(db->Flush(), "flush");

  std::printf("ingested %llu samples into %llu groups\n",
              static_cast<unsigned long long>(gen.num_series() *
                                              gen.num_steps()),
              static_cast<unsigned long long>(db->NumGroups()));

  // Query one member by its unique tags: resolved group-first, then
  // through the second-level index inside the group.
  QueryResult result;
  Check(db->Query(
            ReadRequest::Range({TagMatcher::Equal("hostname", gen.HostName(2)),
                                TagMatcher::Equal("fieldname",
                                                  gen.FieldName(0))},
                               0, gen.end_ts()),
            &result),
        "query");
  if (result.size() != 1) return 1;
  std::printf("%s on %s: %zu series, %zu samples\n",
              gen.FieldName(0).c_str(), gen.HostName(2).c_str(),
              result.size(), result.empty() ? 0 : result[0].timestamps.size());

  // A cross-host aggregate: MAX cpu_usage_0 over all hosts, 5-min windows.
  Check(db->Query(
            ReadRequest::Range({TagMatcher::Regex("hostname", "host_.*"),
                                TagMatcher::Equal("fieldname",
                                                  gen.FieldName(0))},
                               0, gen.end_ts()),
            &result),
        "query");
  double max_v = 0;
  for (const auto& series : result) {
    const auto agg = tu::tsbs::AggregateMax(series.timestamps,
                                            series.values, 5 * 60 * 1000);
    for (const auto& point : agg) max_v = std::max(max_v, point.max_value);
  }
  std::printf("fleet-wide max %s over 6h: %.2f (%zu member series)\n",
              gen.FieldName(0).c_str(), max_v, result.size());

  // Storage placement after 6 hours: recent partitions on the fast tier,
  // older ones migrated to the object tier.
  std::printf("hybrid storage: fast=%.1f KB (L0+L1), slow=%.1f KB (L2, %zu "
              "partitions)\n",
              db->time_lsm()->FastBytesUsed() / 1024.0,
              db->time_lsm()->SlowBytesUsed() / 1024.0,
              db->time_lsm()->NumL2Partitions());
  return 0;
}
