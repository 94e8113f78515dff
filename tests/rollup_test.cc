// Continuous-aggregates suite (`ctest -L rollup`):
//   - Codec: RollupChunk roundtrip, truncation/corruption detection.
//   - Kernels: AccumulateIntoBuckets / FoldBuckets per aggregate function,
//     negative-timestamp alignment.
//   - Options: the DBOptions::Validate rollup rules.
//   - Differential: AggregateQuery must be bitwise identical to folding the
//     raw Query drain through the same two-stage kernel — across random
//     workloads with out-of-order rewrites, group series, every AggFn, and
//     against a rollup-free control DB.
//   - Planner: bucket-aligned interiors come from rollup partitions (slow
//     tier get_ops drop vs the raw path), edges drain raw.
//   - Invalidation: an out-of-order rewrite into a compacted window marks
//     buckets dirty (answers stay exact via the raw fallback), and
//     MaintainRollups re-derives the partition.
//   - Degraded reads: breaker-open aggregates report the same missing
//     ranges as a plain Query — rollup gaps are never silently dropped.
//   - Persistence: rollup tables and dirty spans survive reopen.
//   - TSBS: tsbs::AggregateMax stays behaviourally identical to the legacy
//     inline window-max it was deduplicated from.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/fault_injector.h"
#include "cloud/object_store.h"
#include "cloud/tiered_env.h"
#include "compress/rollup.h"
#include "core/timeunion_db.h"
#include "query/aggregate.h"
#include "tsbs/devops.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

namespace tu {
namespace {

using cloud::FaultInjector;
using cloud::FaultRule;
using compress::RollupBucket;
using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using core::WriteAll;
using core::WriteBatch;
using core::WriteResult;
using index::TagMatcher;
using query::AggFn;
using query::AggPoint;

constexpr AggFn kAllFns[] = {AggFn::kMin, AggFn::kMax, AggFn::kSum,
                             AggFn::kCount, AggFn::kMean};

// Tiny partitions so modest workloads reach slow-tier L2; both rollup
// granularities divide the 4 s L2 partition, so interiors are servable.
DBOptions RollupOptions(const std::string& ws) {
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
  opts.lsm.rollup_granularities_ms = {1000, 2000};
  // Reopen-based tests need the WAL (the series registry replays from it),
  // and the dirty-span assertions need re-derivation to happen only when
  // the test calls MaintainRollups itself — not on a background tick.
  opts.enable_wal = true;
  opts.background_maintenance = false;
  return opts;
}

/// The reference AggregateQuery is specified against: fold the raw drain
/// through the identical two-stage kernel (samples -> fold_g buckets ->
/// step windows). `fold_g` must match the serving granularity the planner
/// picked — the largest configured granularity dividing the step, or the
/// step itself when none divides.
std::vector<AggPoint> TwoStage(const core::SeriesResult& series,
                               int64_t fold_g, int64_t step_ms, AggFn fn) {
  std::vector<RollupBucket> buckets;
  query::AccumulateIntoBuckets(series.timestamps.data(), series.values.data(),
                               series.timestamps.size(), fold_g, &buckets);
  return query::FoldBuckets(buckets, step_ms, fn);
}

int64_t ServingGranularity(const DBOptions& opts, int64_t step_ms) {
  int64_t g = 0;
  for (int64_t c : opts.lsm.rollup_granularities_ms) {
    if (c > 0 && step_ms % c == 0) g = std::max(g, c);
  }
  return g;
}

/// Asserts AggregateQuery(matchers, t0, t1, step, fn) on `db` is bitwise
/// identical to the two-stage fold of the raw Query drain, for every
/// aggregate function. `last` (nullable) receives the result of the last
/// fn for callers that want extra assertions.
void ExpectMatchesRawDrain(TimeUnionDB* db, const DBOptions& opts,
                           const std::vector<TagMatcher>& matchers, int64_t t0,
                           int64_t t1, int64_t step_ms,
                           TimeUnionDB::AggregateResult* last = nullptr) {
  QueryResult raw;
  EXPECT_TRUE(db->Query(query::ReadRequest::Range(matchers, t0, t1),
                        &raw).ok());
  const int64_t g = ServingGranularity(opts, step_ms);

  TimeUnionDB::AggregateResult agg;
  for (AggFn fn : kAllFns) {
    EXPECT_TRUE(db->AggregateQuery(query::ReadRequest::Aggregate(
        matchers, t0, t1, step_ms, fn), &agg).ok());
    EXPECT_EQ(agg.complete, raw.complete);
    EXPECT_EQ(agg.missing_ranges, raw.missing_ranges);
    ASSERT_EQ(agg.series.size(), raw.size())
        << "step=" << step_ms << " fn=" << static_cast<int>(fn);
    for (size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(agg.series[i].id, raw[i].id);
      ASSERT_EQ(agg.series[i].labels.size(), raw[i].labels.size());
      for (size_t l = 0; l < raw[i].labels.size(); ++l) {
        EXPECT_EQ(agg.series[i].labels[l].name, raw[i].labels[l].name);
        EXPECT_EQ(agg.series[i].labels[l].value, raw[i].labels[l].value);
      }
      // Individual series fold at the serving granularity; group members
      // go all-raw, which AggregateQuery folds at the same granularity
      // too (fold_g is per-query, not per-series).
      const std::vector<AggPoint> want =
          TwoStage(raw[i], g > 0 ? g : step_ms, step_ms, fn);
      ASSERT_EQ(agg.series[i].points.size(), want.size())
          << "series " << i << " step=" << step_ms
          << " fn=" << static_cast<int>(fn);
      for (size_t p = 0; p < want.size(); ++p) {
        EXPECT_EQ(agg.series[i].points[p].window_start, want[p].window_start);
        EXPECT_EQ(agg.series[i].points[p].value, want[p].value)
            << "series " << i << " window " << want[p].window_start
            << " fn=" << static_cast<int>(fn);
      }
    }
  }
  if (last != nullptr) *last = std::move(agg);
}

// -- Codec -------------------------------------------------------------------

TEST(RollupCodecTest, RoundtripPreservesBuckets) {
  std::vector<RollupBucket> buckets;
  for (int i = 0; i < 300; ++i) {
    RollupBucket b;
    b.start = -60'000 + i * 1000;  // negative starts must survive
    b.min = -1.5 * i;
    b.max = 2.5 * i + 0.25;
    b.sum = 17.0 * i - 3.0;
    b.count = 1 + static_cast<uint64_t>(i % 7);
    buckets.push_back(b);
  }
  std::string blob;
  compress::EncodeRollupChunk(/*max_seq=*/987654321, /*granularity_ms=*/1000,
                              buckets, &blob);

  uint64_t max_seq = 0;
  int64_t g = 0;
  std::vector<RollupBucket> decoded;
  ASSERT_TRUE(compress::DecodeRollupChunk(blob, &max_seq, &g, &decoded).ok());
  EXPECT_EQ(max_seq, 987654321u);
  EXPECT_EQ(g, 1000);
  ASSERT_EQ(decoded.size(), buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(decoded[i], buckets[i]) << "bucket " << i;
  }

  // Dense aligned starts compress far below the flat 33 B/bucket encoding.
  EXPECT_LT(blob.size(), buckets.size() * 33);
}

TEST(RollupCodecTest, EmptyChunkRoundtrips) {
  std::string blob;
  compress::EncodeRollupChunk(7, 500, {}, &blob);
  uint64_t max_seq = 0;
  int64_t g = 0;
  std::vector<RollupBucket> decoded;
  ASSERT_TRUE(compress::DecodeRollupChunk(blob, &max_seq, &g, &decoded).ok());
  EXPECT_EQ(max_seq, 7u);
  EXPECT_EQ(g, 500);
  EXPECT_TRUE(decoded.empty());
}

TEST(RollupCodecTest, TruncationAndGarbageAreRejected) {
  std::vector<RollupBucket> buckets;
  for (int i = 0; i < 16; ++i) {
    buckets.push_back(RollupBucket{i * 1000, 1.0, 2.0, 3.0, 2});
  }
  std::string blob;
  compress::EncodeRollupChunk(1, 1000, buckets, &blob);

  uint64_t max_seq = 0;
  int64_t g = 0;
  std::vector<RollupBucket> decoded;
  for (size_t cut = 0; cut < blob.size(); cut += 3) {
    const std::string truncated = blob.substr(0, cut);
    EXPECT_FALSE(
        compress::DecodeRollupChunk(truncated, &max_seq, &g, &decoded).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(
      compress::DecodeRollupChunk(std::string(64, '\xff'), &max_seq, &g,
                                  &decoded)
          .ok());
}

// -- Kernels -----------------------------------------------------------------

TEST(AggregateKernelTest, AlignmentIsExactForNegatives) {
  EXPECT_EQ(query::AlignDown(2500, 1000), 2000);
  EXPECT_EQ(query::AlignDown(2000, 1000), 2000);
  EXPECT_EQ(query::AlignDown(-1, 1000), -1000);
  EXPECT_EQ(query::AlignDown(-1000, 1000), -1000);
  EXPECT_EQ(query::AlignDown(-1001, 1000), -2000);
  EXPECT_EQ(query::AlignUp(2500, 1000), 3000);
  EXPECT_EQ(query::AlignUp(2000, 1000), 2000);
  EXPECT_EQ(query::AlignUp(-1, 1000), 0);
  EXPECT_EQ(query::AlignUp(-1500, 1000), -1000);
}

TEST(AggregateKernelTest, AccumulateMergesRunsIntoOpenBucket) {
  const int64_t ts1[] = {0, 400, 999};
  const double v1[] = {3.0, 1.0, 5.0};
  std::vector<RollupBucket> buckets;
  query::AccumulateIntoBuckets(ts1, v1, 3, 1000, &buckets);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0], (RollupBucket{0, 1.0, 5.0, 9.0, 3}));

  // A second run continuing the same bucket merges instead of duplicating.
  const int64_t ts2[] = {500, 1000};
  const double v2[] = {-2.0, 7.0};
  query::AccumulateIntoBuckets(ts2, v2, 2, 1000, &buckets);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], (RollupBucket{0, -2.0, 5.0, 7.0, 4}));
  EXPECT_EQ(buckets[1], (RollupBucket{1000, 7.0, 7.0, 7.0, 1}));
}

TEST(AggregateKernelTest, FoldBucketsPerFunction) {
  const std::vector<RollupBucket> buckets = {
      {0, 1.0, 4.0, 10.0, 4},     // window 0
      {1000, -2.0, 3.0, 2.0, 2},  // window 0
      {2000, 5.0, 5.0, 5.0, 1},   // window 1
      {5000, 0.5, 0.5, 0.5, 1},   // window 2 (gap at window index skipped)
  };
  const auto fold = [&](AggFn fn) {
    return query::FoldBuckets(buckets, 2000, fn);
  };
  EXPECT_EQ(fold(AggFn::kMin),
            (std::vector<AggPoint>{{0, -2.0}, {2000, 5.0}, {4000, 0.5}}));
  EXPECT_EQ(fold(AggFn::kMax),
            (std::vector<AggPoint>{{0, 4.0}, {2000, 5.0}, {4000, 0.5}}));
  EXPECT_EQ(fold(AggFn::kSum),
            (std::vector<AggPoint>{{0, 12.0}, {2000, 5.0}, {4000, 0.5}}));
  EXPECT_EQ(fold(AggFn::kCount),
            (std::vector<AggPoint>{{0, 6.0}, {2000, 1.0}, {4000, 1.0}}));
  EXPECT_EQ(fold(AggFn::kMean),
            (std::vector<AggPoint>{{0, 2.0}, {2000, 5.0}, {4000, 0.5}}));
}

// -- Option validation -------------------------------------------------------

TEST(RollupValidationTest, OptionRules) {
  DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/rollup_validate";

  opts.lsm.rollup_granularities_ms = {1000, 2000, 60'000};
  EXPECT_TRUE(opts.Validate().ok());

  opts.lsm.rollup_granularities_ms = {0};
  Status s = opts.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("rollup_granularities_ms"), std::string::npos);

  opts.lsm.rollup_granularities_ms = {1000, 1000};
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  opts.lsm.rollup_granularities_ms = {2000, 1000};
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());

  // 2500 is not a multiple of the finest (1000): resolutions must nest.
  opts.lsm.rollup_granularities_ms = {1000, 2500};
  s = opts.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("multiple of the finest"), std::string::npos);

  opts.lsm.rollup_granularities_ms = {1000};
  opts.backend = DBOptions::Backend::kLeveled;
  s = opts.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("time-partitioned"), std::string::npos);
}

TEST(RollupValidationTest, AggregateQueryRejectsBadArgs) {
  const std::string ws = "/tmp/timeunion_test/rollup_query_args";
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(RollupOptions(ws), &db).ok());
  WriteBatch batch;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 0, 1.0);
  ASSERT_TRUE(WriteAll(db.get(), batch));

  TimeUnionDB::AggregateResult out;
  const auto matcher = TagMatcher::Equal("m", "cpu");
  EXPECT_TRUE(db->AggregateQuery(query::ReadRequest::Aggregate(
      {matcher}, 10, 5, 1000, AggFn::kMax), &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(db->AggregateQuery(
      query::ReadRequest::Aggregate({}, 0, 10, 1000, AggFn::kMax), &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(db->AggregateQuery(
      query::ReadRequest::Aggregate({matcher}, 0, 10, 0, AggFn::kMax), &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(db->AggregateQuery(
      query::ReadRequest::Aggregate({matcher}, 0, 10, -5, AggFn::kMax), &out)
                  .IsInvalidArgument());

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Differential: AggregateQuery vs folded raw drain ------------------------

class RollupDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RollupDifferentialTest, RandomWorkloadMatchesRawDrain) {
  const std::string ws = "/tmp/timeunion_test/rollup_differential";
  RemoveDirRecursive(ws);
  const DBOptions opts = RollupOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kSeries = 2;
  constexpr int kSamplesPerSeries = 1500;
  constexpr int64_t kStepMs = 250;

  // The same seeded load for this DB and the rollup-free control below:
  // two series and a two-member group under dc=east.
  auto load = [&](TimeUnionDB* target) {
    Random rng(GetParam());
    WriteBatch batch;
    for (int s = 0; s < kSeries; ++s) {
      batch.AddSample(
          index::Labels{{"dc", "east"}, {"m", "s" + std::to_string(s)}}, 0,
          0.0);
    }
    batch.AddGroupRow(index::Labels{{"dc", "east"}, {"g", "1"}},
                      {{{"mem", "a"}}, {{"mem", "b"}}}, 0, {0.0, 0.0});
    WriteResult written;
    ASSERT_TRUE(WriteAll(target, batch, &written));
    const std::vector<uint64_t> refs = written.resolved_refs;
    const WriteResult::ResolvedGroup group = written.resolved_groups[0];
    batch.Clear();
    for (int i = 1; i < kSamplesPerSeries; ++i) {
      for (int s = 0; s < kSeries; ++s) {
        int64_t ts = i * kStepMs;
        // Out-of-order rewrites land inside windows that may already be
        // compacted and rolled up — those buckets must invalidate.
        if (rng.OneIn(8)) ts = rng.Uniform(i) * kStepMs;
        batch.AddSample(refs[s], ts, rng.NextDouble());
      }
      batch.AddGroupRow(group.group_ref, group.slots, i * kStepMs,
                        {rng.NextDouble(), rng.NextDouble()});
      if (i == kSamplesPerSeries / 2) {
        ASSERT_TRUE(WriteAll(target, batch));
        batch.Clear();
        ASSERT_TRUE(target->Flush().ok());
      }
    }
    ASSERT_TRUE(WriteAll(target, batch));
    if (GetParam() % 2) ASSERT_TRUE(target->Flush().ok());
  };
  load(db.get());

  const int64_t span = kSamplesPerSeries * kStepMs;
  const auto matcher = TagMatcher::Equal("dc", "east");
  // Steps with a dividing granularity (2000 -> serves from 2000 ms
  // buckets, 3000 -> 1000 ms buckets) and one with none (750 -> all raw);
  // windows cutting through buckets, partitions and single points.
  const int64_t steps[] = {2000, 3000, 750};
  const std::pair<int64_t, int64_t> windows[] = {
      {0, span},
      {span / 3 + 137, 2 * span / 3 + 11},
      {span - 2500, span},
      {4000, 4000}};
  for (const int64_t step : steps) {
    for (const auto& [t0, t1] : windows) {
      ExpectMatchesRawDrain(db.get(), opts, {matcher}, t0, t1, step);
    }
  }

  // Control: a rollup-free DB over the identical workload must agree on
  // the association-free aggregates bit for bit (sum/mean may differ in
  // the last ulp because the fold granularity differs, so they are
  // covered by the raw-drain reference above instead).
  const std::string ws2 = ws + "_control";
  RemoveDirRecursive(ws2);
  DBOptions control_opts = RollupOptions(ws2);
  control_opts.lsm.rollup_granularities_ms.clear();
  std::unique_ptr<TimeUnionDB> control;
  ASSERT_TRUE(TimeUnionDB::Open(control_opts, &control).ok());
  load(control.get());
  for (const AggFn fn : {AggFn::kMin, AggFn::kMax, AggFn::kCount}) {
    TimeUnionDB::AggregateResult with_rollups, without;
    ASSERT_TRUE(
        db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0, span,
                                                         2000, fn),
                           &with_rollups).ok());
    ASSERT_TRUE(
        control->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0,
                                                              span, 2000, fn),
                                &without).ok());
    ASSERT_EQ(with_rollups.series.size(), without.series.size());
    for (size_t i = 0; i < without.series.size(); ++i) {
      EXPECT_EQ(with_rollups.series[i].points, without.series[i].points)
          << "series " << i << " fn=" << static_cast<int>(fn);
    }
  }

  control.reset();
  db.reset();
  RemoveDirRecursive(ws2);
  RemoveDirRecursive(ws);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollupDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// -- Planner: interiors served from rollups, edges raw -----------------------

TEST(RollupPlannerTest, InteriorFromRollupsEdgesRawFewerSlowGets) {
  const std::string ws = "/tmp/timeunion_test/rollup_planner";
  RemoveDirRecursive(ws);
  DBOptions opts = RollupOptions(ws);
  // The get_ops win is structural: a raw table drains every data block
  // while a rollup read is one small chunk. Longer partitions + small
  // blocks make each raw table many blocks deep, like a real month-scale
  // L2 layout in miniature.
  opts.lsm.l0_partition_ms = 10'000;
  opts.lsm.l2_partition_ms = 40'000;
  opts.lsm.partition_lower_bound_ms = 10'000;
  opts.lsm.partition_upper_bound_ms = 40'000;
  opts.lsm.table_options.block_size = 256;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kTotal = 4000;
  constexpr int64_t kStepMs = 250;
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  batch.AddSample(ref, 0, 0.5);
  for (int i = 1; i < kTotal; ++i) batch.AddSample(ref, i * kStepMs, 0.25 * i);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);
  ASSERT_GT(db->time_lsm()->NumRollupTables(), 0u);

  // An old window fully in L2, with deliberately unaligned endpoints so
  // the first/last buckets must drain raw.
  const int64_t t0 = 1500, t1 = 500'000 - 300;
  const auto matcher = TagMatcher::Equal("m", "cpu");

  TimeUnionDB::AggregateResult agg;
  ExpectMatchesRawDrain(db.get(), opts, {matcher}, t0, t1, 2000, &agg);

  EXPECT_GT(agg.stats.rollup_buckets_served, 0u);
  EXPECT_GT(agg.stats.raw_edge_samples, 0u);  // the unaligned edges
  // The interior came from pre-aggregated buckets: the raw drain decodes
  // orders of magnitude more samples than the edge fallback touched.
  EXPECT_LT(agg.stats.raw_edge_samples,
            static_cast<uint64_t>((t1 - t0) / kStepMs) / 4);

  // Cost check: one cold aggregate fetches far fewer slow-tier objects
  // than one cold raw query of the same window. ExpectMatchesRawDrain ran
  // Query first, so the raw tables were already fetched once — measure a
  // fresh DB instance for each side instead.
  db.reset();
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  const cloud::TierCounters& slow2 = db->env().slow().counters();
  const uint64_t before_cold_agg = slow2.get_ops.load();
  TimeUnionDB::AggregateResult cold_agg;
  ASSERT_TRUE(
      db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, t0, t1, 2000,
                                                       AggFn::kSum), &cold_agg)
          .ok());
  const uint64_t cold_agg_gets = slow2.get_ops.load() - before_cold_agg;

  db.reset();
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  const cloud::TierCounters& slow3 = db->env().slow().counters();
  const uint64_t before_cold_raw = slow3.get_ops.load();
  QueryResult cold_raw;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range({matcher}, t0, t1),
                        &cold_raw).ok());
  const uint64_t cold_raw_gets = slow3.get_ops.load() - before_cold_raw;

  EXPECT_LT(cold_agg_gets * 2, cold_raw_gets)
      << "aggregate fetched " << cold_agg_gets << " slow objects vs "
      << cold_raw_gets << " for the raw drain";

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Invalidation + maintenance re-derivation --------------------------------

TEST(RollupDirtyTest, OooRewriteInvalidatesThenMaintenanceRederives) {
  const std::string ws = "/tmp/timeunion_test/rollup_dirty";
  RemoveDirRecursive(ws);
  const DBOptions opts = RollupOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kTotal = 2000;
  constexpr int64_t kStepMs = 250;
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < kTotal; ++i) batch.AddSample(ref, i * kStepMs, 1.0 * i);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumRollupTables(), 0u);
  ASSERT_EQ(db->time_lsm()->NumDirtyRollupPartitions(), 0u);

  const auto matcher = TagMatcher::Equal("m", "cpu");
  const int64_t span = kTotal * kStepMs;
  ExpectMatchesRawDrain(db.get(), opts, {matcher}, 0, span, 2000);

  // Rewrite a handful of timestamps deep inside compacted, rolled-up
  // windows: the touched buckets go stale and must stop serving.
  batch.Clear();
  for (int64_t ts : {10'000LL, 10'250LL, 123'456LL, 300'017LL}) {
    batch.AddSample(ref, ts, 1e6);
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumDirtyRollupPartitions(), 0u);

  // Answers stay exact while dirty — the stale buckets fall back to raw.
  ExpectMatchesRawDrain(db.get(), opts, {matcher}, 0, span, 2000);

  // The maintenance path re-derives one partition per call until clean.
  size_t total_rederived = 0;
  for (int i = 0; i < 200 && db->time_lsm()->NumDirtyRollupPartitions() > 0;
       ++i) {
    size_t n = 0;
    ASSERT_TRUE(db->time_lsm()->MaintainRollups(&n).ok());
    ASSERT_EQ(n, 1u) << "dirty partitions remain but none was re-derived";
    total_rederived += n;
  }
  EXPECT_EQ(db->time_lsm()->NumDirtyRollupPartitions(), 0u);
  EXPECT_GT(total_rederived, 0u);

  // Re-derived buckets carry the rewritten values (last-write-wins).
  TimeUnionDB::AggregateResult after;
  ExpectMatchesRawDrain(db.get(), opts, {matcher}, 0, span, 2000, &after);
  TimeUnionDB::AggregateResult max_res;
  ASSERT_TRUE(
      db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0, span, 2000,
                                                       AggFn::kMax),
                         &max_res).ok());
  ASSERT_EQ(max_res.series.size(), 1u);
  bool saw_rewrite = false;
  for (const AggPoint& p : max_res.series[0].points) {
    if (p.window_start == 10'000 || p.window_start == 122'000) {
      EXPECT_EQ(p.value, 1e6);
      saw_rewrite = true;
    }
  }
  EXPECT_TRUE(saw_rewrite);
  EXPECT_GT(after.stats.rollup_buckets_served, 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Degraded reads: completeness composes with rollup gaps ------------------

TEST(RollupPartialReadTest, BreakerOpenMissingRangesMatchRawQuery) {
  const std::string ws = "/tmp/timeunion_test/rollup_partial";
  RemoveDirRecursive(ws);
  auto fi = std::make_shared<FaultInjector>(13);
  DBOptions opts = RollupOptions(ws);
  opts.env_options.slow_sim.fault = fi;
  opts.env_options.slow_sim.retry.max_attempts = 2;
  opts.env_options.slow_sim.retry.real_sleep = false;
  cloud::CircuitBreakerOptions& b = opts.env_options.slow_sim.breaker;
  b.enabled = true;
  b.window = 8;
  b.min_samples = 4;
  b.consecutive_failures_to_open = 3;

  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  constexpr int kTotal = 2000;
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < kTotal; ++i) batch.AddSample(ref, i * 250LL, 1.0 * i);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumRollupTables(), 0u);
  // Keep fresh samples on the fast tier so the partial read is non-empty.
  batch.Clear();
  for (int i = kTotal; i < kTotal + 64; ++i) {
    batch.AddSample(ref, i * 250LL, 1.0 * i);
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));

  FaultRule outage;
  outage.ops = cloud::kAllFaultOps;
  outage.probability = 1.0;
  outage.kind = FaultRule::Kind::kPermanent;
  fi->AddRule(outage);
  cloud::ObjectStore& slow = db->env().slow();
  for (int i = 0;
       i < 20 && slow.breaker().state() != cloud::BreakerState::kOpen; ++i) {
    (void)slow.PutObject("breaker_probe", "x");
  }
  ASSERT_EQ(slow.breaker().state(), cloud::BreakerState::kOpen);

  const auto matcher = TagMatcher::Equal("m", "cpu");
  const int64_t t1 = (kTotal + 64) * 250LL;
  QueryResult raw;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range({matcher}, 0, t1),
                        &raw).ok());
  ASSERT_FALSE(raw.complete);
  ASSERT_FALSE(raw.missing_ranges.empty());

  // Rollup tables live on the unreachable slow tier too: every span they
  // would have served demotes to the raw path, whose missing-range
  // reporting must therefore be exactly the plain Query's. Nothing is
  // silently treated as "empty but complete".
  TimeUnionDB::AggregateResult agg;
  ASSERT_TRUE(
      db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0, t1, 2000,
                                                       AggFn::kMax),
                         &agg).ok());
  EXPECT_FALSE(agg.complete);
  EXPECT_EQ(agg.missing_ranges, raw.missing_ranges);
  EXPECT_EQ(agg.stats.rollup_buckets_served, 0u);

  // The reachable (fast-tier) remainder still aggregates exactly.
  ASSERT_EQ(agg.series.size(), raw.size());
  const std::vector<AggPoint> want =
      TwoStage(raw[0], 2000, 2000, AggFn::kMax);
  EXPECT_EQ(agg.series[0].points, want);

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Persistence: rollups and dirty spans survive reopen ---------------------

TEST(RollupPersistenceTest, ReopenPreservesRollupsAndDirtySpans) {
  const std::string ws = "/tmp/timeunion_test/rollup_reopen";
  RemoveDirRecursive(ws);
  const DBOptions opts = RollupOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kTotal = 2000;
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < kTotal; ++i) batch.AddSample(ref, i * 250LL, 1.0 * i);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  // Dirty one compacted window, flush so the rewrite reaches L2.
  batch.Clear();
  batch.AddSample(ref, 10'000, 1e6);
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());

  const size_t tables = db->time_lsm()->NumRollupTables();
  const size_t dirty = db->time_lsm()->NumDirtyRollupPartitions();
  ASSERT_GT(tables, 0u);
  ASSERT_GT(dirty, 0u);

  const auto matcher = TagMatcher::Equal("m", "cpu");
  const int64_t span = kTotal * 250LL;
  TimeUnionDB::AggregateResult before;
  ASSERT_TRUE(
      db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0, span, 2000,
                                                       AggFn::kSum),
                         &before).ok());

  db.reset();
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(db->time_lsm()->NumRollupTables(), tables);
  EXPECT_EQ(db->time_lsm()->NumDirtyRollupPartitions(), dirty);

  TimeUnionDB::AggregateResult after;
  ASSERT_TRUE(
      db->AggregateQuery(query::ReadRequest::Aggregate({matcher}, 0, span, 2000,
                                                       AggFn::kSum),
                         &after).ok());
  ASSERT_EQ(after.series.size(), before.series.size());
  ASSERT_EQ(after.series.size(), 1u);
  EXPECT_EQ(after.series[0].points, before.series[0].points);

  // The dirty span survived, so maintenance still knows what to refresh.
  size_t n = 0;
  ASSERT_TRUE(db->time_lsm()->MaintainRollups(&n).ok());
  EXPECT_EQ(n, 1u);

  db.reset();
  RemoveDirRecursive(ws);
}

// -- TSBS dedupe: AggregateMax == legacy inline window-max -------------------

TEST(TsbsAggregateDedupTest, MatchesLegacyImplementation) {
  // The retired hand-rolled fold, kept verbatim as the oracle.
  const auto legacy = [](const std::vector<compress::Sample>& samples,
                         int64_t window_ms) {
    std::vector<tsbs::AggPoint> out;
    for (const compress::Sample& s : samples) {
      const int64_t window = s.timestamp / window_ms * window_ms;
      if (out.empty() || out.back().window_start != window) {
        out.push_back(tsbs::AggPoint{window, s.value});
      } else if (s.value > out.back().max_value) {
        out.back().max_value = s.value;
      }
    }
    return out;
  };

  Random rng(2024);
  for (int round = 0; round < 20; ++round) {
    std::vector<compress::Sample> samples;
    std::vector<int64_t> timestamps;
    std::vector<double> values;
    int64_t ts = static_cast<int64_t>(rng.Uniform(1000));
    const int n = 1 + static_cast<int>(rng.Uniform(400));
    for (int i = 0; i < n; ++i) {
      ts += static_cast<int64_t>(rng.Uniform(120'000));  // gaps spanning windows
      samples.push_back({ts, rng.NextDouble() * 100.0});
      timestamps.push_back(ts);
      values.push_back(samples.back().value);
    }
    const auto got = tsbs::AggregateMax(timestamps, values,
                                        tsbs::QueryPattern::kAggWindowMs);
    const auto want = legacy(samples, tsbs::QueryPattern::kAggWindowMs);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].window_start, want[i].window_start);
      EXPECT_EQ(got[i].max_value, want[i].max_value);
    }
  }
  EXPECT_TRUE(tsbs::AggregateMax({}, {}, 1000).empty());
}

}  // namespace
}  // namespace tu
