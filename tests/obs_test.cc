// Observability subsystem suite (`ctest -L concurrency`, runs under TSan):
//   - Histogram bucket math and percentile estimates vs a reference
//     quantile (log-scale buckets guarantee estimates within 2x).
//   - Multi-threaded Histogram/Counter hammer: totals must be exact and
//     the recording path race-free.
//   - EventTrace ring semantics: bounded size, monotone seqs, drop
//     detection via total_recorded().
//   - MetricsSnapshot::ToJson schema stability (exact string) and
//     Prometheus text exposition.
//   - DB-level: TimeUnionDB::Metrics() covers ingest/flush/compaction/
//     query/slow-tier instruments after a real workload and carries every
//     health, tier, cache, scrub and query name operators read; metrics.jsonl
//     emission; DBOptions::Validate rejections.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/timeunion_db.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu {
namespace {

using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using core::WriteAll;
using core::WriteBatch;
using core::WriteResult;
using index::TagMatcher;

// -- Histogram ----------------------------------------------------------------

TEST(HistogramTest, BucketMath) {
  EXPECT_EQ(obs::Histogram::BucketFor(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketFor(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketFor(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketFor(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketFor(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
  // Every value lands inside its bucket's [lower, upper) range.
  for (uint64_t us : {0ull, 1ull, 7ull, 100ull, 4096ull, 1000000ull}) {
    const size_t b = obs::Histogram::BucketFor(us);
    EXPECT_GE(us, obs::Histogram::BucketLower(b));
    EXPECT_LT(us, obs::Histogram::BucketUpper(b));
  }
}

TEST(HistogramTest, CountSumMax) {
  obs::Histogram h;
  uint64_t sum = 0;
  for (uint64_t v = 0; v < 100; ++v) {
    h.Observe(v);
    sum += v;
  }
  const obs::HistogramSnapshot s = h.Snapshot("t");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum_us, sum);
  EXPECT_EQ(s.max_us, 99u);
  EXPECT_LE(s.p50_us, static_cast<double>(s.max_us));
  EXPECT_LE(s.p99_us, static_cast<double>(s.max_us));
}

// Reference quantile (nearest-rank) over the raw observations.
uint64_t ReferenceQuantile(std::vector<uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

TEST(HistogramTest, PercentilesTrackReferenceQuantile) {
  // A skewed latency-like distribution: mostly fast ops, a slow tail.
  obs::Histogram h;
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(20 + (i * 7) % 80);
  for (int i = 0; i < 200; ++i) values.push_back(1000 + (i * 13) % 3000);
  for (int i = 0; i < 20; ++i) values.push_back(50000 + i * 1000);
  for (uint64_t v : values) h.Observe(v);

  const obs::HistogramSnapshot s = h.Snapshot("lat");
  for (const auto& [est, q] : {std::pair<double, double>{s.p50_us, 0.50},
                               {s.p90_us, 0.90},
                               {s.p99_us, 0.99}}) {
    const double ref = static_cast<double>(ReferenceQuantile(values, q));
    // The estimate interpolates inside the power-of-two bucket holding the
    // true quantile, so it is within a factor of 2 by construction.
    EXPECT_GE(est, ref * 0.5) << "q=" << q;
    EXPECT_LE(est, ref * 2.0) << "q=" << q;
  }
  EXPECT_LE(s.p50_us, s.p90_us);
  EXPECT_LE(s.p90_us, s.p99_us);
  EXPECT_LE(s.p99_us, static_cast<double>(s.max_us));
}

// 8 threads hammer one histogram + one counter; totals must be exact.
// Runs under TSan via the concurrency label (scripts/tsan.sh).
TEST(HistogramTest, ConcurrentHammerExactTotals) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("hammer_us");
  obs::Counter* c = reg.counter("hammer_ops");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe(static_cast<uint64_t>((i + t) % 1000));
        c->Add();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterOr0("hammer_ops"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const obs::HistogramSnapshot* hs = snap.FindHistogram("hammer_us");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(hs->max_us, 1006u);
}

// -- EventTrace ---------------------------------------------------------------

TEST(EventTraceTest, RingBoundsAndSequenceNumbers) {
  obs::EventTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    trace.Record("kind", "detail " + std::to_string(i));
  }
  EXPECT_EQ(trace.total_recorded(), 10u);
  const std::vector<obs::TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);  // ring kept only the newest `capacity`
  // Drop detection: the first retained seq is > 0 when history was lost.
  EXPECT_EQ(events.front().seq, 6u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().detail, "detail 9");
}

// -- Registry -----------------------------------------------------------------

TEST(RegistryTest, StablePointersPerName) {
  obs::MetricsRegistry reg;
  obs::Counter* c1 = reg.counter("a");
  obs::Counter* c2 = reg.counter("a");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.counter("b"), c1);
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
}

// -- Snapshot serialization ---------------------------------------------------

// The JSON schema is a public contract (metrics.jsonl consumers, the CI
// bench-smoke parse check); this pins it byte-for-byte on a deterministic
// snapshot.
TEST(SnapshotTest, ToJsonSchemaIsStable) {
  obs::MetricsSnapshot snap;
  snap.counters.emplace_back("ops", 3);
  snap.gauges.emplace_back("level", -2);
  snap.strings.emplace_back("health", "healthy");
  obs::HistogramSnapshot h;
  h.name = "lat_us";
  h.count = 2;
  h.sum_us = 6;
  h.max_us = 4;
  h.p50_us = 2.0;
  h.p90_us = 4.0;
  h.p99_us = 4.0;
  snap.histograms.push_back(h);
  obs::TraceEvent e;
  e.seq = 0;
  e.wall_ms = 1234;
  e.kind = "flush";
  e.detail = "partitions=1";
  snap.events.push_back(e);
  snap.Canonicalize();

  EXPECT_EQ(snap.ToJson(),
            "{\"counters\":{\"ops\":3},"
            "\"gauges\":{\"level\":-2},"
            "\"strings\":{\"health\":\"healthy\"},"
            "\"histograms\":{\"lat_us\":{\"count\":2,\"sum_us\":6,"
            "\"max_us\":4,\"p50_us\":2.0,\"p90_us\":4.0,\"p99_us\":4.0}},"
            "\"events\":[{\"seq\":0,\"wall_ms\":1234,\"kind\":\"flush\","
            "\"detail\":\"partitions=1\"}]}");
}

TEST(SnapshotTest, ToJsonEscapesStrings) {
  obs::MetricsSnapshot snap;
  obs::TraceEvent e;
  e.kind = "k\"ind";
  e.detail = "line1\nline2\\";
  snap.events.push_back(e);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("k\\\"ind"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\\\"), std::string::npos);
}

TEST(SnapshotTest, PrometheusTextExposition) {
  obs::MetricsSnapshot snap;
  snap.counters.emplace_back("ingest.samples", 42);
  snap.gauges.emplace_back("lsm.fast_bytes", 7);
  snap.strings.emplace_back("db.health", "degraded_writes");
  obs::HistogramSnapshot h;
  h.name = "query.e2e_us";
  h.count = 1;
  h.sum_us = 5;
  h.max_us = 5;
  h.p50_us = h.p90_us = h.p99_us = 5.0;
  snap.histograms.push_back(h);

  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE tu_ingest_samples counter\n"), std::string::npos);
  EXPECT_NE(text.find("tu_ingest_samples 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tu_lsm_fast_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tu_db_health_info{value=\"degraded_writes\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tu_query_e2e_us{quantile=\"0.99\"} 5.0\n"),
            std::string::npos);
  EXPECT_NE(text.find("tu_query_e2e_us_count 1\n"), std::string::npos);
}

// -- DB-level -----------------------------------------------------------------

// Tiny partitions so a modest workload spans head + L0/L1 + slow-tier L2
// (same shape as query_pipeline_test).
DBOptions SmallPartitionOptions(const std::string& ws) {
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.partition_upper_bound_ms = 4000;
  opts.lsm.l0_partition_trigger = 1;
  return opts;
}

/// Writes samples 0..n-1 of series m=cpu (ts i*250 ms, value i) one row
/// per Write, as a per-sample client does: the first by labels, the rest
/// by the resolved ref. The counts checked below (wal.appends, sampled
/// latencies) count these calls.
void WriteCpuSamples(TimeUnionDB* db, int n, uint64_t* ref) {
  WriteBatch batch;
  WriteResult written;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 0, 0.0);
  ASSERT_TRUE(WriteAll(db, batch, &written));
  *ref = written.resolved_refs[0];
  for (int i = 1; i < n; ++i) {
    batch.Clear();
    batch.AddSample(*ref, i * 250LL, 1.0 * i);
    ASSERT_TRUE(WriteAll(db, batch));
  }
}

TEST(DbMetricsTest, SnapshotCoversWholePipeline) {
  const std::string ws = "/tmp/timeunion_test/obs_pipeline";
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(SmallPartitionOptions(ws), &db).ok());

  constexpr int kTotal = 2000;
  uint64_t ref = 0;
  ASSERT_NO_FATAL_FAILURE(WriteCpuSamples(db.get(), kTotal, &ref));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);

  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, kTotal * 250LL), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);

  const obs::MetricsSnapshot snap = db->Metrics();
  // Ingest counters bump on every append; latency is sampled.
  EXPECT_EQ(snap.CounterOr0("ingest.samples"), static_cast<uint64_t>(kTotal));
  EXPECT_GT(snap.CounterOr0("flush.chunks"), 0u);
  const obs::HistogramSnapshot* ingest = snap.FindHistogram("ingest.append_us");
  ASSERT_NE(ingest, nullptr);
  EXPECT_GT(ingest->count, 0u);  // 2000 appends → ~31 sampled at 1/64
  EXPECT_LE(ingest->count, static_cast<uint64_t>(kTotal));

  // Flush / LSM background instruments.
  for (const char* name : {"flush.chunk_us", "lsm.memflush_us",
                           "lsm.table_build_us", "lsm.table_write_us",
                           "lsm.merge_us"}) {
    const obs::HistogramSnapshot* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
    EXPECT_GE(h->max_us, h->p99_us) << name;
  }
  EXPECT_GT(snap.CounterOr0("lsm.flushes"), 0u);

  // Slow-tier ops carry the cost model's charged latency per op.
  const obs::HistogramSnapshot* put = snap.FindHistogram("slow.put_us");
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->count, snap.CounterOr0("slow.puts"));
  EXPECT_GT(put->count, 0u);
  // Instant() charges ~0us/op, so assert the recorded sum tracks the cost
  // model rather than a positive value.
  EXPECT_LE(put->sum_us, snap.CounterOr0("slow.charged_us"));

  // Query pipeline: e2e histogram + stats folded into query.* totals.
  const obs::HistogramSnapshot* e2e = snap.FindHistogram("query.e2e_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 1u);
  EXPECT_EQ(snap.CounterOr0("query.runs"), 1u);
  EXPECT_GT(snap.CounterOr0("query.chunks_decoded"), 0u);
  EXPECT_GT(result.stats.setup_us + result.stats.drain_us, 0u);
  EXPECT_EQ(snap.CounterOr0("query.setup_us_total"), result.stats.setup_us);
  EXPECT_EQ(snap.CounterOr0("query.drain_us_total"), result.stats.drain_us);

  // Background-job events were traced (at least the memtable flushes).
  EXPECT_FALSE(snap.events.empty());
  bool saw_flush = false;
  for (const obs::TraceEvent& e : snap.events) {
    if (e.kind == "flush") saw_flush = true;
  }
  EXPECT_TRUE(saw_flush);

  // The snapshot serializes.
  EXPECT_FALSE(snap.ToJson().empty());
  EXPECT_FALSE(snap.ToPrometheusText().empty());

  db.reset();
  RemoveDirRecursive(ws);
}

// The WAL's instruments are plain registry counters/gauges/histograms: on
// a quiesced DB (every segment retired by a full Flush) their JSON and
// Prometheus renderings are pinned exactly.
TEST(DbMetricsTest, WalInstrumentsSurfaceInJsonAndPrometheus) {
  const std::string ws = "/tmp/timeunion_test/obs_wal";
  RemoveDirRecursive(ws);
  DBOptions opts = SmallPartitionOptions(ws);
  opts.enable_wal = true;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  ASSERT_NO_FATAL_FAILURE(WriteCpuSamples(db.get(), 500, &ref));
  WriteBatch batch;
  batch.AddSample(ref, 500 * 250LL, 500.0);  // stays open
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());

  const obs::MetricsSnapshot snap = db->Metrics();
  const uint64_t deleted = snap.CounterOr0("wal.segments_deleted");
  EXPECT_GT(deleted, 0u);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"wal.appends\":501,\"wal.forced_flushes\":0,"
                      "\"wal.segments_deleted\":" +
                      std::to_string(deleted)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wal.live_bytes\":0,\"wal.segments_live\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wal.append_us\":{\"count\":501,"), std::string::npos);
  EXPECT_NE(json.find("\"wal.seal_sync_us\":{"), std::string::npos);

  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE tu_wal_segments_live gauge\n"
                      "tu_wal_segments_live 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tu_wal_forced_flushes counter\n"
                      "tu_wal_forced_flushes 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("tu_wal_seal_sync_us_count "), std::string::npos);

  db.reset();
  RemoveDirRecursive(ws);
}

// Flush and compaction stalls split into merge, build and write stages:
// one lsm.merge_us observation per merge pass, one lsm.table_write_us per
// table landed on the fast tier, both rendered in JSON and Prometheus.
TEST(DbMetricsTest, CompactionStageInstrumentsSurfaceInJsonAndPrometheus) {
  const std::string ws = "/tmp/timeunion_test/obs_compaction_stages";
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(SmallPartitionOptions(ws), &db).ok());
  uint64_t ref = 0;
  ASSERT_NO_FATAL_FAILURE(WriteCpuSamples(db.get(), 2000, &ref));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);

  const obs::MetricsSnapshot snap = db->Metrics();
  const uint64_t merges = snap.CounterOr0("lsm.compactions_l0_l1") +
                          snap.CounterOr0("lsm.compactions_l1_l2") +
                          snap.CounterOr0("lsm.patch_merges") +
                          snap.CounterOr0("lsm.rollup_partitions_rederived");
  ASSERT_GT(merges, 0u);
  const obs::HistogramSnapshot* merge = snap.FindHistogram("lsm.merge_us");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->count, merges);
  // Every memtable flush and L0->L1 output lands on the fast tier; L2
  // outputs are built too but uploaded instead.
  const obs::HistogramSnapshot* write =
      snap.FindHistogram("lsm.table_write_us");
  const obs::HistogramSnapshot* build =
      snap.FindHistogram("lsm.table_build_us");
  ASSERT_NE(write, nullptr);
  ASSERT_NE(build, nullptr);
  EXPECT_GT(write->count, snap.CounterOr0("lsm.flushes"));
  EXPECT_LT(write->count, build->count);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"lsm.merge_us\":{\"count\":" +
                      std::to_string(merges) + ","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lsm.table_write_us\":{\"count\":" +
                      std::to_string(write->count) + ","),
            std::string::npos)
      << json;
  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE tu_lsm_merge_us summary\n"), std::string::npos);
  EXPECT_NE(
      text.find("tu_lsm_merge_us_count " + std::to_string(merges) + "\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE tu_lsm_table_write_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("tu_lsm_table_write_us_count " +
                      std::to_string(write->count) + "\n"),
            std::string::npos);

  db.reset();
  RemoveDirRecursive(ws);
}

// The read path's index-select and concurrent block fetch instruments:
// one source each, the fetch pair mirrored in QueryStats, all rendered in
// JSON and Prometheus. The slow tier sleeps per Get so the read I/O pool
// exists and the query's L2 blocks go through it.
TEST(DbMetricsTest, QueryFetchInstrumentsSurfaceInJsonAndPrometheus) {
  const std::string ws = "/tmp/timeunion_test/obs_prefetch";
  RemoveDirRecursive(ws);
  DBOptions opts = SmallPartitionOptions(ws);
  opts.env_options.slow_sim = cloud::TierSimOptions::S3Defaults();
  opts.env_options.slow_sim.sleep_scale = 0.01;
  opts.block_cache_bytes = 0;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  ASSERT_NO_FATAL_FAILURE(WriteCpuSamples(db.get(), 2000, &ref));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);

  QueryResult result;
  ASSERT_TRUE(
      db->Query(query::ReadRequest::Range({TagMatcher::Equal("m", "cpu")}, 0,
                                          2000 * 250LL), &result)
          .ok());
  ASSERT_EQ(result.size(), 1u);
  const uint64_t prefetched = result.stats.prefetch_blocks;
  EXPECT_GT(prefetched, 0u);

  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterOr0("query.prefetch_blocks"), prefetched);
  const obs::HistogramSnapshot* wait =
      snap.FindHistogram("query.prefetch_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->sum_us, result.stats.prefetch_wait_us);
  const obs::HistogramSnapshot* select =
      snap.FindHistogram("query.index_select_us");
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->count, 1u);

  const std::string json = snap.ToJson();
  EXPECT_NE(
      json.find("\"query.prefetch_blocks\":" + std::to_string(prefetched)),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"query.prefetch_wait_us\":{\"count\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"query.index_select_us\":{\"count\":1,"),
            std::string::npos);
  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE tu_query_prefetch_blocks counter\n"
                      "tu_query_prefetch_blocks " +
                      std::to_string(prefetched) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tu_query_prefetch_wait_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("tu_query_index_select_us_count 1\n"), std::string::npos);

  db.reset();
  RemoveDirRecursive(ws);
}

// Metrics() is the only introspection view: every name an operator or a
// bench reads for breaker, deferred-upload, fast-tier, admission, cache,
// scrub, integrity, tier I/O, query and health state is present after a
// plain write + flush + query workload (presence, not a zero default).
TEST(DbMetricsTest, IntrospectionNamesPresentAfterWorkload) {
  const std::string ws = "/tmp/timeunion_test/obs_names";
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(SmallPartitionOptions(ws), &db).ok());

  uint64_t ref = 0;
  ASSERT_NO_FATAL_FAILURE(WriteCpuSamples(db.get(), 500, &ref));
  ASSERT_TRUE(db->Flush().ok());
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, 500 * 250LL), &result)
                  .ok());

  const obs::MetricsSnapshot snap = db->Metrics();
  std::vector<std::string> counters = {
      "slow.breaker_rejections",
      "slow.breaker_opens",
      "lsm.deferred_tables_created",
      "lsm.deferred_uploads_drained",
      "lsm.deferred_drain_failures",
      "lsm.fast_bytes_written",
      "admission.writers_delayed",
      "admission.writes_rejected",
      "cache.hits",
      "cache.misses",
      "cache.evictions",
      "scrub.passes",
      "scrub.corruptions_found",
      "scrub.repaired",
      "scrub.quarantined",
      "integrity.read_corruptions_detected",
      "integrity.read_corruptions_healed",
      "error_handler.errors_total",
      "error_handler.errors_soft",
      "error_handler.errors_hard",
      "error_handler.resume_attempts",
      "error_handler.resumes_succeeded",
      "error_handler.resume_failures",
      "query.runs",
      "query.partitions_pruned",
      "query.tables_considered",
      "query.tables_pruned_id",
      "query.tables_pruned_time",
      "query.tables_pruned_bloom",
      "query.tables_skipped_unreachable",
      "query.blocks_read",
      "query.blocks_pruned",
      "query.cache_hits",
      "query.cache_misses",
      "query.slow_tier_fetches",
      "query.block_bytes_read",
      "query.prefetch_blocks",
      "query.chunks_decoded",
      "query.bytes_decoded",
      "query.batches_decoded",
      "query.samples_decoded",
      "query.rollup_buckets_served",
      "query.raw_edge_samples",
      "query.setup_us_total",
      "query.drain_us_total",
  };
  for (const char* tier : {"fast", "slow"}) {
    for (const char* op : {"gets", "puts", "deletes", "read_bytes",
                           "written_bytes", "charged_us", "faults", "retries",
                           "give_ups", "breaker_rejections", "breaker_opens"}) {
      counters.push_back(std::string(tier) + "." + op);
    }
  }
  for (const std::string& name : counters) {
    EXPECT_NE(snap.FindCounter(name), nullptr) << name;
  }
  for (const char* name :
       {"breaker.enabled", "breaker.state", "lsm.deferred_tables",
        "lsm.deferred_bytes", "lsm.fast_bytes", "lsm.fast_limit_bytes",
        "cache.enabled", "cache.usage", "scrub.enabled", "db.health_state"}) {
    EXPECT_NE(snap.FindGauge(name), nullptr) << name;
  }
  const std::string* health = snap.FindString("db.health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(*health, "healthy");
  const std::string* last_error = snap.FindString("db.last_background_error");
  ASSERT_NE(last_error, nullptr);
  EXPECT_EQ(*last_error, "OK");
  EXPECT_EQ(*snap.FindCounter("query.runs"), 1u);

  db.reset();
  RemoveDirRecursive(ws);
}

// With the network front door attached, the server.* instruments land in
// the same registry: Metrics() picks them up without any schema change.
TEST(DbMetricsTest, ServerInstrumentsSurfaceInMetrics) {
  const std::string ws = "/tmp/timeunion_test/obs_server";
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(SmallPartitionOptions(ws), &db).ok());
  auto srv = std::make_unique<server::Server>(db.get(), server::ServerOptions{});
  ASSERT_TRUE(srv->Start().ok());

  std::unique_ptr<server::Client> client;
  ASSERT_TRUE(server::Client::Connect("127.0.0.1", srv->port(), "acme",
                                      &client)
                  .ok());
  core::WriteBatch batch;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 1, 1.0);
  server::WriteAck ack;
  ASSERT_TRUE(client->Write(batch, &ack).ok());
  ASSERT_TRUE(ack.remote_status.ok());
  // A validation reject (reserved tag) bumps the tenant reject counters.
  core::WriteBatch bad;
  bad.AddSample(index::Labels{{server::kTenantTag, "x"}}, 1, 1.0);
  ASSERT_TRUE(client->Write(bad, &ack).ok());
  ASSERT_FALSE(ack.remote_status.ok());

  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_GE(snap.GaugeOr0("server.open_connections"), 1);
  EXPECT_GE(snap.CounterOr0("server.frames"), 2u);
  EXPECT_GE(snap.CounterOr0("server.tenant_rejects"), 1u);
  EXPECT_GE(snap.CounterOr0("server.tenant.acme.requests"), 2u);
  EXPECT_GE(snap.CounterOr0("server.tenant.acme.samples"), 1u);
  EXPECT_GE(snap.CounterOr0("server.tenant.acme.rejects"), 1u);

  EXPECT_NE(snap.FindGauge("server.inflight_requests"), nullptr);

  // The snapshot still serializes under the pinned schema — server.*
  // names are plain counters/gauges, not a new section.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"server.open_connections\""), std::string::npos);
  EXPECT_NE(json.find("\"server.tenant.acme.samples\""), std::string::npos);

  client->Close();
  srv->Shutdown();
  srv.reset();
  // Instruments outlive the server (registry owns them); the gauge drops
  // back to zero on drain.
  EXPECT_EQ(db->Metrics().GaugeOr0("server.open_connections"), 0);
  db.reset();
  RemoveDirRecursive(ws);
}

// emit_jsonl: the maintenance tick appends parseable JSON lines.
TEST(DbMetricsTest, MaintenanceEmitsMetricsJsonl) {
  const std::string ws = "/tmp/timeunion_test/obs_jsonl";
  RemoveDirRecursive(ws);
  DBOptions opts = SmallPartitionOptions(ws);
  opts.background_maintenance = true;
  opts.maintenance_interval_ms = 10;
  opts.metrics.emit_jsonl = true;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  WriteBatch batch;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 0, 1.0);
  ASSERT_TRUE(WriteAll(db.get(), batch));

  const std::string path = ws + "/metrics.jsonl";
  std::string line;
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::ifstream in(path);
    if (in && std::getline(in, line) && !line.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(line.empty()) << "no metrics.jsonl line after 2s";
  EXPECT_EQ(line.rfind("{\"ts_ms\":", 0), 0u);
  EXPECT_NE(line.find(",\"metrics\":{\"counters\":{"), std::string::npos);
  EXPECT_EQ(line.back(), '}');

  db.reset();
  RemoveDirRecursive(ws);
}

// -- DBOptions::Validate ------------------------------------------------------

TEST(DBOptionsValidateTest, RejectsIncoherentConfigs) {
  const std::string ws = "/tmp/timeunion_test/obs_validate";
  RemoveDirRecursive(ws);
  auto expect_invalid = [&](DBOptions opts, const std::string& field) {
    opts.workspace = ws;
    std::unique_ptr<TimeUnionDB> db;
    const Status s = TimeUnionDB::Open(std::move(opts), &db);
    EXPECT_TRUE(s.IsInvalidArgument()) << field << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(field), std::string::npos) << s.ToString();
  };

  {
    DBOptions opts;
    opts.samples_per_chunk = 0;
    expect_invalid(std::move(opts), "samples_per_chunk");
  }
  {
    DBOptions opts;
    opts.registry_shards = 0;
    expect_invalid(std::move(opts), "registry_shards");
  }
  {
    DBOptions opts;
    opts.append_lock_stripes = 0;
    expect_invalid(std::move(opts), "append_lock_stripes");
  }
  {
    DBOptions opts;
    opts.retention_ms = -1;
    expect_invalid(std::move(opts), "retention_ms");
  }
  {
    DBOptions opts;
    opts.admission.enabled = true;
    opts.admission.soft_watermark = 1.0;
    opts.admission.hard_watermark = 0.5;  // hard below soft
    opts.lsm.fast_storage_limit_bytes = 1 << 20;
    expect_invalid(std::move(opts), "hard_watermark");
  }
  {
    DBOptions opts;
    opts.admission.enabled = true;  // no fast_storage_limit_bytes budget
    expect_invalid(std::move(opts), "fast_storage_limit_bytes");
  }
  RemoveDirRecursive(ws);
}

TEST(DBOptionsValidateTest, AcceptsEqualWatermarksAndDefaults) {
  EXPECT_TRUE(DBOptions{}.Validate().ok());
  // hard == soft is a valid (reject-at-the-watermark) configuration.
  DBOptions opts;
  opts.admission.enabled = true;
  opts.admission.soft_watermark = 1.0;
  opts.admission.hard_watermark = 1.0;
  opts.lsm.fast_storage_limit_bytes = 1 << 20;
  EXPECT_TRUE(opts.Validate().ok());
}

}  // namespace
}  // namespace tu
