// Continuous-aggregate query cost: cold/warm AggregateQuery served from
// compaction-maintained rollup partitions vs the equivalent raw-drain
// fold, over a month-scale-in-miniature slow-tier layout (long L2
// partitions, small blocks, so every raw table is many data blocks deep).
// Each cold pass runs on a freshly reopened DB instance — unopened
// readers, empty block cache, zeroed tier counters — so the slow-tier
// get_ops deltas are the real per-query object-store bill. The two paths
// share the same fold kernel, so the bench verifies the aggregate points
// are bitwise identical before reporting any numbers.
//
// Emits one JSON line per (path, pass), e.g.
//   {"bench":"rollup_query","path":"rollup","cache":"cold","series":4,
//    "span_ms":1600000,"step_ms":10000,"points":640,"elapsed_us":1444.0,
//    "slow_gets":67,"rollup_buckets_served":624,"raw_edge_samples":3180}
// and a final summary line with the headline ratio:
//   {"bench":"rollup_query","summary":true,"cold_raw_gets":1051,
//    "cold_agg_gets":67,"gets_reduction":15.7,"results_equal":true}
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compress/rollup.h"
#include "core/timeunion_db.h"
#include "query/aggregate.h"
#include "query/read_context.h"
#include "util/mmap_file.h"

namespace tu::bench {
namespace {

constexpr int64_t kSampleStepMs = 50;
constexpr int64_t kWindowStepMs = 10'000;

// CI smoke mode (TU_BENCH_SMOKE): same pipeline, tiny workload.
int SeriesCount() { return SmokeMode() ? 2 : 4; }
int SamplesPerSeries() { return SmokeMode() ? 4'000 : 32'000; }
int64_t SpanMs() { return SamplesPerSeries() * kSampleStepMs; }
// Unaligned tail so the raw-edge fallback stays on the measured path.
int64_t QueryT0() { return 0; }
int64_t QueryT1() { return SpanMs() - 300; }

core::DBOptions BenchOptions(const std::string& ws) {
  core::DBOptions opts;
  opts.workspace = ws;
  // Long L2 partitions + 256-byte blocks: a miniature of a month-scale
  // object-store layout where one raw table costs a footer/filter/index
  // walk plus dozens of data-block Gets, while its rollup summary is a
  // single prefetched object.
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 10'000;
  opts.lsm.l2_partition_ms = 40'000;
  opts.lsm.partition_lower_bound_ms = 10'000;
  opts.lsm.partition_upper_bound_ms = 40'000;
  opts.lsm.l0_partition_trigger = 1;
  opts.lsm.table_options.block_size = 256;
  opts.lsm.rollup_granularities_ms = {1'000, kWindowStepMs};
  // The series registry replays from the WAL on the per-side reopens, and
  // maintenance must not re-derive anything between measured passes.
  opts.enable_wal = true;
  opts.background_maintenance = false;
  return opts;
}

std::unique_ptr<core::TimeUnionDB> OpenDb(const core::DBOptions& opts) {
  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  return db;
}

bool BuildWorkload(const core::DBOptions& opts) {
  std::unique_ptr<core::TimeUnionDB> db = OpenDb(opts);
  if (!db) return false;
  // Interleave by timestamp: sequential per-series loads would make every
  // series after the first out-of-order against already-compacted L2
  // windows, dirtying the very rollups under measurement.
  // One batch per timestamp; the first goes by labels and resolves the
  // refs.
  core::WriteBatch batch;
  core::WriteResult written;
  for (int i = 0; i < SeriesCount(); ++i) {
    batch.AddSample(index::Labels{{"host", std::to_string(i)}, {"m", "cpu"}},
                    0, 0.5 * i);
  }
  if (!WriteRows(db.get(), batch, &written).ok()) return false;
  const std::vector<uint64_t> refs = written.resolved_refs;
  for (int j = 1; j < SamplesPerSeries(); ++j) {
    batch.Clear();
    for (int i = 0; i < SeriesCount(); ++i) {
      batch.AddSample(refs[i], j * kSampleStepMs, 0.25 * j + 100.0 * i);
    }
    if (!WriteRows(db.get(), batch, &written).ok()) return false;
  }
  if (!db->Flush().ok()) return false;
  if (db->time_lsm()->NumRollupTables() == 0) {
    std::fprintf(stderr, "workload produced no rollup tables\n");
    return false;
  }
  std::printf(
      "{\"bench\":\"rollup_query\",\"phase\":\"build\",\"series\":%d,"
      "\"samples_per_series\":%d,\"l2_partitions\":%llu,"
      "\"rollup_tables\":%llu}\n",
      SeriesCount(), SamplesPerSeries(),
      static_cast<unsigned long long>(db->time_lsm()->NumL2Partitions()),
      static_cast<unsigned long long>(db->time_lsm()->NumRollupTables()));
  std::fflush(stdout);
  return true;
}

void PrintPass(const char* path, const char* cache, size_t points,
               double elapsed_us, uint64_t slow_gets,
               const query::QueryStats& stats) {
  std::printf(
      "{\"bench\":\"rollup_query\",\"path\":\"%s\",\"cache\":\"%s\","
      "\"series\":%d,\"span_ms\":%lld,\"step_ms\":%lld,\"points\":%zu,"
      "\"elapsed_us\":%.1f,\"slow_gets\":%llu,"
      "\"rollup_buckets_served\":%llu,\"raw_edge_samples\":%llu}\n",
      path, cache, SeriesCount(), static_cast<long long>(SpanMs()),
      static_cast<long long>(kWindowStepMs), points, elapsed_us,
      static_cast<unsigned long long>(slow_gets),
      static_cast<unsigned long long>(stats.rollup_buckets_served),
      static_cast<unsigned long long>(stats.raw_edge_samples));
  std::fflush(stdout);
}

/// Folds one raw series drain through the same two-stage kernel the
/// planner uses (samples -> serving-granularity buckets -> step windows).
std::vector<query::AggPoint> FoldRaw(const core::SeriesResult& series,
                                     query::AggFn fn) {
  std::vector<compress::RollupBucket> buckets;
  query::AccumulateIntoBuckets(series.timestamps.data(), series.values.data(),
                               series.timestamps.size(), kWindowStepMs,
                               &buckets);
  return query::FoldBuckets(buckets, kWindowStepMs, fn);
}

int Main() {
  PrintHeader("rollup_query",
              "Aggregate query via rollup partitions vs raw drain fold");
  const std::string workspace = FreshWorkspace("rollup_query");
  const core::DBOptions opts = BenchOptions(workspace);
  if (!BuildWorkload(opts)) return 1;

  const std::vector<index::TagMatcher> matchers = {
      index::TagMatcher::Equal("m", "cpu")};

  // Raw side: cold reopen, drain + client-side fold; repeat warm.
  uint64_t cold_raw_gets = 0;
  core::QueryResult raw;
  {
    std::unique_ptr<core::TimeUnionDB> db = OpenDb(opts);
    if (!db) return 1;
    const auto& slow = db->env().slow().counters();
    for (const char* cache : {"cold", "warm"}) {
      raw = core::QueryResult();
      const uint64_t gets_before = slow.get_ops.load();
      const uint64_t t_start = NowUs();
      if (!db->Query(query::ReadRequest::Range(matchers, QueryT0(), QueryT1()),
                     &raw).ok() ||
          raw.size() != static_cast<size_t>(SeriesCount())) {
        std::fprintf(stderr, "raw query failed\n");
        return 1;
      }
      size_t points = 0;
      for (const auto& series : raw) {
        points += FoldRaw(series, query::AggFn::kMax).size();
      }
      const double elapsed_us = static_cast<double>(NowUs() - t_start);
      const uint64_t gets = slow.get_ops.load() - gets_before;
      if (cache[0] == 'c') cold_raw_gets = gets;
      PrintPass("raw", cache, points, elapsed_us, gets, raw.stats);
    }
  }

  // Rollup side: cold reopen, planner-served AggregateQuery; repeat warm.
  uint64_t cold_agg_gets = 0;
  core::TimeUnionDB::AggregateResult agg;
  std::unique_ptr<core::TimeUnionDB> db = OpenDb(opts);
  if (!db) return 1;
  {
    const auto& slow = db->env().slow().counters();
    for (const char* cache : {"cold", "warm"}) {
      agg = core::TimeUnionDB::AggregateResult();
      const uint64_t gets_before = slow.get_ops.load();
      const uint64_t t_start = NowUs();
      if (!db->AggregateQuery(query::ReadRequest::Aggregate(
          matchers, QueryT0(), QueryT1(), kWindowStepMs, query::AggFn::kMax),
                              &agg)
              .ok() ||
          agg.series.size() != static_cast<size_t>(SeriesCount())) {
        std::fprintf(stderr, "aggregate query failed\n");
        return 1;
      }
      size_t points = 0;
      for (const auto& series : agg.series) points += series.points.size();
      const double elapsed_us = static_cast<double>(NowUs() - t_start);
      const uint64_t gets = slow.get_ops.load() - gets_before;
      if (cache[0] == 'c') cold_agg_gets = gets;
      PrintPass("rollup", cache, points, elapsed_us, gets, agg.stats);
    }
  }

  // Equal-results check, every aggregate function: the planner's mixed
  // rollup/raw answer must be bitwise identical to the raw two-stage fold.
  bool equal = true;
  for (query::AggFn fn : {query::AggFn::kMin, query::AggFn::kMax,
                          query::AggFn::kSum, query::AggFn::kCount,
                          query::AggFn::kMean}) {
    core::TimeUnionDB::AggregateResult check;
    if (!db->AggregateQuery(query::ReadRequest::Aggregate(
        matchers, QueryT0(), QueryT1(), kWindowStepMs, fn), &check)
            .ok() ||
        check.series.size() != raw.size()) {
      equal = false;
      break;
    }
    for (size_t i = 0; i < check.series.size() && equal; ++i) {
      const std::vector<query::AggPoint> expect =
          FoldRaw(raw[i], fn);
      const std::vector<query::AggPoint>& got = check.series[i].points;
      equal = got.size() == expect.size();
      for (size_t p = 0; p < expect.size() && equal; ++p) {
        equal = got[p].window_start == expect[p].window_start &&
                got[p].value == expect[p].value;
      }
    }
    if (!equal) {
      std::fprintf(stderr, "aggregate mismatch vs raw fold (fn=%d)\n",
                   static_cast<int>(fn));
    }
  }

  const double reduction =
      cold_agg_gets == 0
          ? 0.0
          : static_cast<double>(cold_raw_gets) /
                static_cast<double>(cold_agg_gets);
  std::printf(
      "{\"bench\":\"rollup_query\",\"summary\":true,\"cold_raw_gets\":%llu,"
      "\"cold_agg_gets\":%llu,\"gets_reduction\":%.1f,"
      "\"results_equal\":%s}\n",
      static_cast<unsigned long long>(cold_raw_gets),
      static_cast<unsigned long long>(cold_agg_gets), reduction,
      equal ? "true" : "false");
  std::fflush(stdout);

  // Final introspection artifact for CI (parse check).
  WriteSnapshotFile(MetricsSnapshotPath(), db->Metrics().ToJson());
  db.reset();
  RemoveDirRecursive(workspace);
  return equal ? 0 : 1;
}

}  // namespace
}  // namespace tu::bench

int main() { return tu::bench::Main(); }
