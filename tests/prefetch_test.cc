// Query-scoped concurrent block fetch suite (`ctest -L query`). A query
// plans every slow-tier block its iterators will read, fetches them on
// the LSM's read I/O pool a window at a time, and each iterator takes its
// blocks from the fetch slots. Two serial references read no block
// through the pool: a DB whose data never leaves the fast tier, and the
// LSM's own iterators built without a fetch plan.
//   - Differential: multi-partition L2 with out-of-order patches, multi-
//     series selectors and group members; raw, streaming and aggregate
//     results are byte-identical to the fast-tier DB, and every slow Get
//     fetched a block the drain consumed.
//   - Faults on prefetched blocks: a failed Get and at-rest rot fail a
//     strict read with the serial path's Status, a transient flip heals,
//     and a partial read reports the serial path's missing spans.
//   - Window: a wide streaming read keeps at most BlockPrefetch::kWindow
//     blocks fetched ahead of its drain.
//   - Lifetime: iterators dropped mid-drain with fetches in flight while
//     retention and compaction delete the tables they read (ASan/TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/fault_injector.h"
#include "core/timeunion_db.h"
#include "lsm/key_format.h"
#include "lsm/table_format.h"
#include "lsm/table_reader.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

namespace tu {
namespace {

using cloud::FaultInjector;
using cloud::FaultRule;
using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using core::WriteAll;
using core::WriteBatch;
using index::TagMatcher;

constexpr int64_t kStepMs = 250;
constexpr int kSteps = 800;
constexpr int64_t kSpanMs = kSteps * kStepMs;
constexpr int kSeries = 6;
constexpr int kMembers = 12;
constexpr int64_t kRollupMs = 1000;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

constexpr int64_t kSlackMs = 8000;

/// Tiny partitions so the load spans many L2 partitions with patches, on
/// a slow tier with the calibrated S3 request model and real (scaled-
/// down) sleeps. `fast_only` instead keeps every table on the fast tier:
/// no L1 window ever closes, so nothing migrates to L2.
DBOptions Options(const std::string& ws, double sleep_scale,
                  bool fast_only = false) {
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.env_options.slow_sim = cloud::TierSimOptions::S3Defaults();
  opts.env_options.slow_sim.sleep_scale = sleep_scale;
  opts.env_options.slow_sim.breaker.enabled = false;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 16 << 10;
  opts.lsm.l0_partition_ms = 2000;
  opts.lsm.l2_partition_ms = fast_only ? int64_t{1} << 50 : 8000;
  opts.lsm.partition_lower_bound_ms = 2000;
  opts.lsm.partition_upper_bound_ms = kSlackMs;
  opts.lsm.l0_partition_trigger = 1;
  // Small blocks: a series spans several blocks of each table, so plans
  // walk real block ranges and stop mid-table at the upper bound.
  opts.lsm.table_options.block_size = 256;
  opts.block_cache_bytes = 16 << 10;  // far below the data: plans mix hits
  return opts;
}

/// Deterministic load: kSeries series on three hosts plus a kMembers-
/// member group on host h1, in-order steps with 1-in-8 rewrites, then
/// out-of-order writes into closed L2 partitions (patch tables). `ids`
/// (nullable) receives the series and group ids.
void Load(TimeUnionDB* db, uint64_t seed, std::vector<uint64_t>* ids = nullptr,
          bool fast_only = false) {
  Random rng(seed);
  std::vector<uint64_t> refs(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    ASSERT_TRUE(db->RegisterSeries({{"host", "h" + std::to_string(s / 2)},
                                    {"m", "s" + std::to_string(s)}},
                                   &refs[s])
                    .ok());
  }
  // Enough group members that an all-series aggregate spans more than
  // one planning batch.
  std::vector<index::Labels> members;
  for (int k = 0; k < kMembers; ++k) {
    members.push_back({{"m", "g" + std::to_string(k)}});
  }
  WriteBatch batch;
  core::WriteResult written;
  batch.AddGroupRow(index::Labels{{"g", "1"}, {"host", "h1"}}, members, 0,
                    std::vector<double>(kMembers, 1.0));
  ASSERT_TRUE(WriteAll(db, batch, &written));
  const core::WriteResult::ResolvedGroup group = written.resolved_groups[0];
  batch.Clear();
  for (int i = 0; i < kSteps; ++i) {
    for (int s = 0; s < kSeries; ++s) {
      int64_t ts = i * kStepMs;
      if (i > 0 && rng.OneIn(8)) ts = rng.Uniform(i) * kStepMs;
      batch.AddSample(refs[s], ts, rng.NextDouble());
    }
    if (i > 0) {
      std::vector<double> row(kMembers);
      for (double& v : row) v = rng.NextDouble();
      batch.AddGroupRow(group.group_ref, group.slots, i * kStepMs,
                        std::move(row));
    }
    if (i % 200 == 199) {
      ASSERT_TRUE(WriteAll(db, batch));
      batch.Clear();
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  ASSERT_TRUE(WriteAll(db, batch));
  batch.Clear();
  ASSERT_TRUE(db->Flush().ok());
  // Out-of-order writes into the first half, long since in L2.
  for (int k = 0; k < 150; ++k) {
    const int s = static_cast<int>(rng.Uniform(kSeries));
    const int64_t ts = rng.Uniform(kSteps / 2) * kStepMs;
    batch.AddSample(refs[s], ts, rng.NextDouble());
  }
  ASSERT_TRUE(WriteAll(db, batch));
  ASSERT_TRUE(db->Flush().ok());
  if (ids != nullptr) {
    *ids = refs;
    ids->push_back(group.group_ref);
  }
  if (fast_only) {
    for (const auto& t : db->time_lsm()->ListTables()) {
      ASSERT_FALSE(t.on_slow) << t.table_id;
    }
    return;
  }
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 5u);
  ASSERT_GT(db->time_lsm()->NumL2Patches(), 0u);
}

std::vector<TagMatcher> Selector(int pick) {
  switch (pick % 5) {
    case 0:
      return {TagMatcher::Equal("m", "s" + std::to_string(pick % kSeries))};
    case 1:
      return {TagMatcher::Equal("host", "h" + std::to_string(pick % 3))};
    case 2:
      return {TagMatcher::Equal("g", "1")};
    case 3:
      return {TagMatcher::Regex("m", "s[0-4]")};
    default:
      return {TagMatcher::Regex("m", ".*")};
  }
}

void ExpectSameQuery(const QueryResult& got, const QueryResult& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.complete, want.complete) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].labels, want[i].labels) << what;
    ASSERT_EQ(got[i].timestamps.size(), want[i].timestamps.size()) << what;
    for (size_t j = 0; j < got[i].timestamps.size(); ++j) {
      ASSERT_EQ(got[i].timestamps[j], want[i].timestamps[j])
          << what;
      ASSERT_EQ(Bits(got[i].values[j]), Bits(want[i].values[j]))
          << what;
    }
  }
}

void ExpectSameAggregate(const TimeUnionDB::AggregateResult& got,
                         const TimeUnionDB::AggregateResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.series.size(), want.series.size()) << what;
  for (size_t i = 0; i < got.series.size(); ++i) {
    ASSERT_EQ(got.series[i].labels, want.series[i].labels) << what;
    const auto& gp = got.series[i].points;
    const auto& wp = want.series[i].points;
    ASSERT_EQ(gp.size(), wp.size()) << what;
    for (size_t j = 0; j < gp.size(); ++j) {
      ASSERT_EQ(gp[j].window_start, wp[j].window_start) << what;
      ASSERT_EQ(Bits(gp[j].value), Bits(wp[j].value)) << what;
    }
  }
}

/// Drains every iterator through NextBatch into a QueryResult-shaped copy.
QueryResult DrainIterators(std::vector<TimeUnionDB::SeriesIterResult>* iters) {
  QueryResult out;
  for (auto& r : *iters) {
    core::SeriesResult series;
    series.id = r.id;
    series.labels = r.labels;
    query::SampleBatch batch;
    while (r.iter->NextBatch(&batch)) {
      series.timestamps.insert(series.timestamps.end(),
                               batch.timestamps.begin(),
                               batch.timestamps.end());
      series.values.insert(series.values.end(), batch.values.begin(),
                           batch.values.end());
    }
    EXPECT_TRUE(r.iter->status().ok()) << r.iter->status().ToString();
    if (!series.timestamps.empty()) out.push_back(std::move(series));
  }
  return out;
}

class PrefetchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefetchDifferentialTest, MatchesFastTierAndFetchesDrainedBlocks) {
  const std::string ws = "/tmp/timeunion_test/prefetch_diff";
  RemoveDirRecursive(ws + "_sim");
  RemoveDirRecursive(ws + "_ref");
  DBOptions sim_opts = Options(ws + "_sim", 0.01);
  DBOptions ref_opts = Options(ws + "_ref", 0.01, /*fast_only=*/true);
  sim_opts.lsm.rollup_granularities_ms = {kRollupMs};
  ref_opts.lsm.rollup_granularities_ms = {kRollupMs};
  std::unique_ptr<TimeUnionDB> sim;
  std::unique_ptr<TimeUnionDB> ref;
  ASSERT_TRUE(TimeUnionDB::Open(sim_opts, &sim).ok());
  ASSERT_TRUE(TimeUnionDB::Open(ref_opts, &ref).ok());
  Load(sim.get(), GetParam());
  Load(ref.get(), GetParam(), nullptr, /*fast_only=*/true);

  // Open every reader once, so Gets below are block reads only.
  QueryResult warm;
  ASSERT_TRUE(
      sim->Query(query::ReadRequest::Range(Selector(4), INT64_MIN / 2,
                                           INT64_MAX / 2), &warm).ok());
  TimeUnionDB::AggregateResult warm_agg;
  ASSERT_TRUE(sim->AggregateQuery(query::ReadRequest::Aggregate(
      Selector(4), 0, kSpanMs, 2 * kRollupMs, query::AggFn::kSum), &warm_agg)
                  .ok());

  const cloud::TierCounters& slow = sim->env().slow().counters();
  Random rng(GetParam() * 31 + 7);
  uint64_t prefetched = 0;
  for (int q = 0; q < 24; ++q) {
    const auto matchers = Selector(static_cast<int>(rng.Uniform(100)));
    int64_t t0 = static_cast<int64_t>(rng.Uniform(kSpanMs + 2000)) - 1000;
    int64_t t1 = t0 + static_cast<int64_t>(rng.Uniform(kSpanMs / 2));
    if (q % 8 == 0) {
      t0 = 0;
      t1 = kSpanMs;
    }
    const std::string what = "query " + std::to_string(q) + " [" +
                             std::to_string(t0) + "," + std::to_string(t1) +
                             "]";

    // Materialized raw read. Every slow Get fetched a block the drain
    // consumed: a fetched block no iterator took would count a Get but no
    // slow_tier_fetch. Blocks the plan did not fetch are the ones a
    // serial drain misses too, e.g. a group block another member's
    // iterator took first and the cache has since evicted.
    uint64_t gets = slow.get_ops.load();
    QueryResult got;
    ASSERT_TRUE(sim->Query(query::ReadRequest::Range(matchers, t0, t1),
                           &got).ok()) << what;
    EXPECT_EQ(slow.get_ops.load() - gets, got.stats.slow_tier_fetches)
        << what;
    EXPECT_LE(got.stats.prefetch_blocks, got.stats.slow_tier_fetches) << what;
    prefetched += got.stats.prefetch_blocks;
    QueryResult want;
    ASSERT_TRUE(ref->Query(query::ReadRequest::Range(matchers, t0, t1),
                           &want).ok()) << what;
    EXPECT_EQ(want.stats.prefetch_blocks, 0u);
    ExpectSameQuery(got, want, what);

    // Streaming read, drained through the public iterator API.
    query::QueryStats stats;
    std::vector<TimeUnionDB::SeriesIterResult> iters;
    ASSERT_TRUE(sim->QueryIterators(query::ReadRequest::Range(matchers, t0, t1),
                                    &iters, &stats).ok());
    ExpectSameQuery(DrainIterators(&iters), want, what + " (iterators)");

    // Aggregate over rollups + raw edges.
    const auto fn = static_cast<query::AggFn>(rng.Uniform(5));
    const int64_t step = kRollupMs * (1 + static_cast<int64_t>(rng.Uniform(4)));
    gets = slow.get_ops.load();
    TimeUnionDB::AggregateResult agg;
    ASSERT_TRUE(sim->AggregateQuery(
        query::ReadRequest::Aggregate(matchers, t0, t1, step, fn), &agg).ok());
    // Rollup blocks are served from whole-object downloads made at reader
    // open, so they count as slow_tier_fetches without a Get.
    EXPECT_LE(slow.get_ops.load() - gets, agg.stats.slow_tier_fetches) << what;
    EXPECT_LE(agg.stats.prefetch_blocks, slow.get_ops.load() - gets) << what;
    TimeUnionDB::AggregateResult ref_agg;
    ASSERT_TRUE(ref->AggregateQuery(query::ReadRequest::Aggregate(matchers, t0,
                                                                  t1, step, fn),
                                    &ref_agg).ok());
    ExpectSameAggregate(agg, ref_agg, what + " (aggregate)");
  }
  EXPECT_GT(prefetched, 0u) << "no query exercised the read I/O pool";

  const obs::MetricsSnapshot snap = sim->Metrics();
  EXPECT_GT(snap.CounterOr0("query.prefetch_blocks"), 0u);
  EXPECT_EQ(ref->Metrics().CounterOr0("query.prefetch_blocks"), 0u);

  sim.reset();
  ref.reset();
  RemoveDirRecursive(ws + "_sim");
  RemoveDirRecursive(ws + "_ref");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefetchDifferentialTest,
                         ::testing::Values(3u, 2024u));

// -- Faults on prefetched blocks ---------------------------------------------

using Spans = std::vector<std::pair<int64_t, int64_t>>;

/// Sorted, with overlapping and adjacent spans coalesced.
Spans Normalize(Spans spans) {
  std::sort(spans.begin(), spans.end());
  Spans out;
  for (const auto& span : spans) {
    if (!out.empty() && span.first <= out.back().second + 1) {
      out.back().second = std::max(out.back().second, span.second);
    } else {
      out.push_back(span);
    }
  }
  return out;
}

/// Two identically loaded sleeping-S3 DBs, WAL on so both can be
/// reopened, each with a slow-tier fault injector. db[0] is read through
/// the query path; db[1] is the serial reference.
struct FaultPair {
  std::string ws;
  DBOptions opts[2];
  std::shared_ptr<FaultInjector> fi[2];
  std::unique_ptr<TimeUnionDB> db[2];
  std::vector<uint64_t> ids;

  explicit FaultPair(const std::string& base) : ws(base) {
    for (int i = 0; i < 2; ++i) {
      const std::string dir = ws + (i == 0 ? "_sim" : "_ref");
      RemoveDirRecursive(dir);
      opts[i] = Options(dir, 0.01);
      opts[i].enable_wal = true;
      opts[i].block_cache_bytes = 0;  // every read reaches the tier
      fi[i] = std::make_shared<FaultInjector>(5);
      opts[i].env_options.slow_sim.fault = fi[i];
    }
  }
  ~FaultPair() {
    for (int i = 0; i < 2; ++i) {
      db[i].reset();
      RemoveDirRecursive(opts[i].workspace);
    }
  }
  Status Open(int i) { return TimeUnionDB::Open(opts[i], &db[i]); }
  /// The first slow table in the manifest: an L2 base every series reads.
  std::string FirstSlowKey() {
    for (const auto& t : db[0]->time_lsm()->ListTables()) {
      if (t.on_slow) return "lsm/" + lsm::TableFileName(t.table_id);
    }
    return "";
  }
  Status Read(query::ReadRequest::Strictness strictness, QueryResult* out) {
    query::ReadRequest r = query::ReadRequest::Range(Selector(4), 0, kSpanMs);
    r.strictness = strictness;
    return db[0]->Query(r, out);
  }
  /// The serial path on db[1]: each id's LSM iterator built without a
  /// fetch plan and drained from the query's seek key, so every block is
  /// read by its own GetBlock. Returns the first error; the gap spans of
  /// a partial read go to `missing` (nullable), normalized.
  Status SerialRead(bool allow_partial, Spans* missing) {
    Spans spans;
    for (uint64_t id : ids) {
      query::ReadContext ctx;
      ctx.t0 = 0;
      ctx.t1 = kSpanMs;
      ctx.scope.allow_partial = allow_partial;
      ctx.scope.missing = &spans;
      std::unique_ptr<lsm::Iterator> it;
      TU_RETURN_IF_ERROR(db[1]->time_lsm()->NewIteratorForId(id, ctx, &it));
      for (it->Seek(lsm::ChunkSeekKey(id, 0, kSlackMs)); it->Valid();
           it->Next()) {
      }
      TU_RETURN_IF_ERROR(it->status());
    }
    if (missing != nullptr) *missing = Normalize(std::move(spans));
    return Status::OK();
  }
};

TEST(PrefetchFaultTest, StrictReadsFailLikeTheSerialPath) {
  FaultPair pair("/tmp/timeunion_test/prefetch_fault_strict");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pair.Open(i).ok());
    Load(pair.db[i].get(), 99, &pair.ids);
  }
  const std::string key = pair.FirstSlowKey();
  ASSERT_FALSE(key.empty());
  QueryResult control;
  ASSERT_TRUE(pair.Read(query::ReadRequest::Strictness::kStrict, &control)
                  .ok());
  const Status serial = pair.SerialRead(false, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.ToString();
  EXPECT_GT(control.stats.prefetch_blocks, 0u);

  // A Get of a planned block fails outright (non-retryable).
  Status failed[2];
  for (int i = 0; i < 2; ++i) {
    FaultRule rule = FaultRule::Permanent(
        static_cast<uint32_t>(cloud::FaultOp::kGet), 1, key);
    pair.fi[i]->AddRule(rule);
    QueryResult r;
    failed[i] = i == 0 ? pair.Read(query::ReadRequest::Strictness::kStrict, &r)
                       : pair.SerialRead(false, nullptr);
    pair.fi[i]->Clear();
  }
  EXPECT_TRUE(failed[0].IsIOError()) << failed[0].ToString();
  EXPECT_EQ(failed[0].ToString(), failed[1].ToString());

  // At-rest rot in a planned block's payload: the self-healing re-reads
  // fail too, and the read reports the checksum mismatch.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pair.db[i]->env().slow().CorruptObjectAtRest(key, 10).ok());
    QueryResult r;
    failed[i] = i == 0 ? pair.Read(query::ReadRequest::Strictness::kStrict, &r)
                       : pair.SerialRead(false, nullptr);
    ASSERT_TRUE(pair.db[i]->env().slow().CorruptObjectAtRest(key, 10).ok());
  }
  EXPECT_TRUE(failed[0].IsCorruption()) << failed[0].ToString();
  EXPECT_EQ(failed[0].ToString(), failed[1].ToString());

  // A transient flip on a planned block heals on the cache-bypassing
  // re-read; the answer is unchanged and counted detected + healed.
  for (int i = 0; i < 2; ++i) {
    const obs::MetricsSnapshot before = pair.db[i]->Metrics();
    FaultRule flip = FaultRule::BitFlipRead(1.0, key, 10);
    flip.max_fires = 1;
    pair.fi[i]->AddRule(flip);
    if (i == 0) {
      QueryResult healed;
      ASSERT_TRUE(
          pair.Read(query::ReadRequest::Strictness::kStrict, &healed).ok());
      ExpectSameQuery(healed, control, "healed");
    } else {
      const Status s = pair.SerialRead(false, nullptr);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    pair.fi[i]->Clear();
    const obs::MetricsSnapshot after = pair.db[i]->Metrics();
    EXPECT_EQ(after.CounterOr0("integrity.read_corruptions_detected") -
                  before.CounterOr0("integrity.read_corruptions_detected"),
              1u);
    EXPECT_EQ(after.CounterOr0("integrity.read_corruptions_healed") -
                  before.CounterOr0("integrity.read_corruptions_healed"),
              1u);
  }
}

TEST(PrefetchFaultTest, PartialReadsReportTheSerialPathsMissingRanges) {
  FaultPair pair("/tmp/timeunion_test/prefetch_fault_partial");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pair.Open(i).ok());
    Load(pair.db[i].get(), 123, &pair.ids);
  }
  const std::string key = pair.FirstSlowKey();
  ASSERT_FALSE(key.empty());
  // Reopen so no reader is open, then rot the table's footer: its open
  // fails, the tier fallback finds no other copy and quarantines it, and
  // the partial read flags its span while every other slow block is
  // prefetched as usual.
  QueryResult partial;
  Spans serial_missing;
  for (int i = 0; i < 2; ++i) {
    pair.db[i].reset();
    ASSERT_TRUE(pair.Open(i).ok());
    uint64_t size = 0;
    ASSERT_TRUE(pair.db[i]->env().slow().ObjectSize(key, &size).ok());
    ASSERT_TRUE(
        pair.db[i]->env().slow().CorruptObjectAtRest(key, size - 8).ok());
  }
  ASSERT_TRUE(
      pair.Read(query::ReadRequest::Strictness::kAllowPartial, &partial).ok());
  ASSERT_TRUE(pair.SerialRead(true, &serial_missing).ok());
  EXPECT_FALSE(partial.complete);
  EXPECT_FALSE(serial_missing.empty());
  EXPECT_EQ(Normalize(partial.missing_ranges), serial_missing);
  EXPECT_GT(partial.stats.prefetch_blocks, 0u);
}

// -- Window -----------------------------------------------------------------

// A streaming read of every series over the whole span plans far more
// slow-tier blocks than one window. Left undrained it fetches exactly one
// window; drained, the Gets it has issued never run more than a window
// ahead of the blocks its iterators took, so a wide read pins at most
// kWindow fetched blocks beyond each iterator's current one.
TEST(PrefetchWindowTest, WideStreamingReadStaysWithinOneWindow) {
  const std::string ws = "/tmp/timeunion_test/prefetch_window";
  RemoveDirRecursive(ws);
  DBOptions opts = Options(ws, 0.01);
  opts.block_cache_bytes = 0;  // every block read is a Get
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  Load(db.get(), 11);
  // Open every reader once, so the Gets below are block reads only.
  QueryResult warm;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(Selector(4), 0, kSpanMs),
                        &warm).ok());

  constexpr uint64_t kWindow = lsm::BlockPrefetch::kWindow;
  const cloud::TierCounters& slow = db->env().slow().counters();
  const uint64_t base = slow.get_ops.load();
  query::QueryStats stats;
  std::vector<TimeUnionDB::SeriesIterResult> iters;
  ASSERT_TRUE(db->QueryIterators(
      query::ReadRequest::Range(Selector(4), 0, kSpanMs), &iters, &stats).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (slow.get_ops.load() - base < kWindow &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(slow.get_ops.load() - base, kWindow);

  for (auto& r : iters) {
    query::SampleBatch batch;
    while (r.iter->NextBatch(&batch)) {
      ASSERT_LE(slow.get_ops.load() - base, stats.slow_tier_fetches + kWindow);
    }
    ASSERT_TRUE(r.iter->status().ok()) << r.iter->status().ToString();
  }
  EXPECT_EQ(slow.get_ops.load() - base, stats.slow_tier_fetches);
  EXPECT_GT(stats.slow_tier_fetches, 4 * kWindow);
  EXPECT_GT(stats.prefetch_blocks, kWindow);
  iters.clear();
  db.reset();
  RemoveDirRecursive(ws);
}

// -- Lifetime ---------------------------------------------------------------

// Streaming results dropped mid-drain while their block fetches are in
// flight, racing retention and patch compaction that delete the very
// tables being fetched: each fetch task owns its reader and its slot, so
// nothing dangles (run under ASan/TSan).
TEST(PrefetchLifetimeTest, DroppedIteratorsRaceRetentionAndCompaction) {
  const std::string ws = "/tmp/timeunion_test/prefetch_lifetime";
  RemoveDirRecursive(ws);
  DBOptions opts = Options(ws, 0.05);
  opts.block_cache_bytes = 0;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  Load(db.get(), 7);
  std::vector<uint64_t> refs(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    ASSERT_TRUE(db->RegisterSeries({{"host", "h" + std::to_string(s / 2)},
                                    {"m", "s" + std::to_string(s)}},
                                   &refs[s])
                    .ok());
  }

  Random rng(77);
  for (int round = 0; round < 12; ++round) {
    query::QueryStats stats;
    std::vector<TimeUnionDB::SeriesIterResult> iters;
    ASSERT_TRUE(
        db->QueryIterators(query::ReadRequest::Range(Selector(4), 0, kSpanMs),
                           &iters, &stats).ok());
    ASSERT_FALSE(iters.empty());
    if (round % 3 != 0) {
      // Pull one batch: the first blocks land, the rest stay in flight.
      query::SampleBatch batch;
      (void)iters[0].iter->NextBatch(&batch);
    }
    const int64_t watermark = (round + 1) * kSpanMs / 24;
    std::vector<std::pair<int, int64_t>> rewrites;
    for (int k = 0; k < 40; ++k) {
      rewrites.emplace_back(
          static_cast<int>(rng.Uniform(kSeries)),
          watermark + static_cast<int64_t>(rng.Uniform(kSteps / 4)) * kStepMs);
    }
    std::thread churn([&] {
      EXPECT_TRUE(db->ApplyRetention(watermark).ok());
      // One row per Write, racing the dropped iterators' fetches.
      WriteBatch row;
      for (const auto& [s, ts] : rewrites) {
        row.Clear();
        row.AddSample(refs[s], ts, 1.0);
        EXPECT_TRUE(WriteAll(db.get(), row));
      }
      EXPECT_TRUE(db->Flush().ok());
    });
    iters.clear();
    churn.join();
  }
  // Fetches of the last round may still be running: the DB must wait for
  // them on close.
  std::vector<TimeUnionDB::SeriesIterResult> iters;
  ASSERT_TRUE(db->QueryIterators(
      query::ReadRequest::Range(Selector(4), 0, kSpanMs), &iters).ok());
  iters.clear();
  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
