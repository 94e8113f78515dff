// Differential suite for the vectorized read path (`ctest -L query`): the
// batch drain (TimeUnionDB::Query bulk materialization and the public
// MergedSeriesIterator::NextBatch API) must be byte-identical to a scalar
// last-write-wins reference model maintained alongside the inserts — an
// oracle independent of every decoder in the product. Covered:
//   - seeded random workloads with out-of-order rewrites at existing
//     timestamps (seq-dedup across overlapping chunks and against the head)
//   - group member columns (member_slot selection + NULL-row compaction)
//   - mixed-granularity drains: per-sample cursor and NextBatch interleaved
//     on one iterator must neither skip nor repeat a sample
//   - breaker-open partial reads: batch drain reports the same samples and
//     missing_ranges as the materialized entry point
//   - block-level upper-bound stops: windows ending mid-data still prune
//     trailing blocks while the batch results stay exact
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/fault_injector.h"
#include "cloud/object_store.h"
#include "core/timeunion_db.h"
#include "query/sample_batch.h"
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
using core::WriteResult;
using index::TagMatcher;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Tiny partitions so modest workloads span head + L0/L1 + slow-tier L2.
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

/// Ground truth: every insert is recorded here with last-write-wins
/// semantics, which is exactly the seq-dedup contract (a rewrite lands in
/// the open chunk by in-place merge or in a newer chunk that outranks the
/// old one).
using Model = std::map<int64_t, double>;

std::vector<compress::Sample> Expected(const Model& m, int64_t t0,
                                       int64_t t1) {
  std::vector<compress::Sample> out;
  for (auto it = m.lower_bound(t0); it != m.end() && it->first <= t1; ++it) {
    out.push_back(compress::Sample{it->first, it->second});
  }
  return out;
}

void ExpectSamplesEqual(const std::vector<compress::Sample>& got,
                        const std::vector<compress::Sample>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << what << " sample " << i;
    EXPECT_EQ(Bits(got[i].value), Bits(want[i].value))
        << what << " sample " << i << " ts=" << got[i].timestamp;
  }
}

/// The same check against a materialized result's columns.
void ExpectSamplesEqual(const core::SeriesResult& got,
                        const std::vector<compress::Sample>& want,
                        const std::string& what) {
  ASSERT_EQ(got.timestamps.size(), want.size()) << what;
  ASSERT_EQ(got.values.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.timestamps[i], want[i].timestamp) << what << " sample " << i;
    EXPECT_EQ(Bits(got.values[i]), Bits(want[i].value))
        << what << " sample " << i << " ts=" << got.timestamps[i];
  }
}

/// Drains one iterator through NextBatch, checking the batch invariants:
/// batches are non-empty, strictly ascending within and across batches,
/// dense (validity empty) and seq-reset.
std::vector<compress::Sample> DrainBatches(core::SampleIterator* iter) {
  std::vector<compress::Sample> out;
  query::SampleBatch batch;
  int64_t prev = INT64_MIN;
  while (iter->NextBatch(&batch)) {
    EXPECT_FALSE(batch.empty()) << "NextBatch must not emit empty batches";
    EXPECT_TRUE(batch.validity.empty()) << "merged output must be dense";
    EXPECT_EQ(batch.seq, 0u);
    EXPECT_EQ(batch.timestamps.size(), batch.values.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GT(batch.timestamps[i], prev) << "strictly ascending";
      prev = batch.timestamps[i];
      out.push_back(compress::Sample{batch.timestamps[i], batch.values[i]});
    }
  }
  EXPECT_FALSE(iter->Valid());
  return out;
}

class BatchDrainDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchDrainDifferentialTest, BatchPathMatchesScalarModel) {
  const std::string ws = "/tmp/timeunion_test/batch_drain_diff";
  RemoveDirRecursive(ws);
  DBOptions opts = SmallPartitionOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  Random rng(GetParam());
  constexpr int kSeries = 2;
  constexpr int kRounds = 900;
  constexpr int64_t kStepMs = 250;

  Model models[kSeries];
  WriteBatch batch;
  for (int s = 0; s < kSeries; ++s) {
    batch.AddSample(index::Labels{{"m", "s" + std::to_string(s)}}, 0, 0.5 * s);
    models[s][0] = 0.5 * s;
  }
  batch.AddGroupRow(index::Labels{{"g", "1"}},
                    {{{"mem", "a"}}, {{"mem", "b"}}}, 0, {1.0, 2.0});
  WriteResult written;
  ASSERT_TRUE(WriteAll(db.get(), batch, &written));
  const std::vector<uint64_t> refs = written.resolved_refs;
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  Model gmodels[2];
  gmodels[0][0] = 1.0;
  gmodels[1][0] = 2.0;

  for (int i = 1; i < kRounds; ++i) {
    for (int s = 0; s < kSeries; ++s) {
      int64_t ts = i * kStepMs;
      // 1-in-6 writes rewrite an existing timestamp: the dedup overlap the
      // suite exists to pin (head-vs-chunk and chunk-vs-chunk).
      if (rng.OneIn(6)) ts = rng.Uniform(i) * kStepMs;
      const double v = rng.NextDouble();
      batch.AddSample(refs[s], ts, v);
      models[s][ts] = v;
    }
    ASSERT_TRUE(WriteAll(db.get(), batch));
    batch.Clear();
    const double ga = rng.NextDouble();
    const double gb = rng.NextDouble();
    int64_t gts = i * kStepMs;
    if (rng.OneIn(10)) gts = rng.Uniform(i) * kStepMs;
    // The group row goes alone, so its own outcome decides the model.
    batch.AddGroupRow(group.group_ref, group.slots, gts, {ga, gb});
    Status gs = core::WriteRows(db.get(), batch);
    batch.Clear();
    if (gs.ok()) {
      gmodels[0][gts] = ga;
      gmodels[1][gts] = gb;
    }
    if (i % 300 == 0) ASSERT_TRUE(db->Flush().ok());
  }
  if (GetParam() % 2) ASSERT_TRUE(db->Flush().ok());

  const int64_t span = kRounds * kStepMs;
  // Windows cutting through chunk, partition and block boundaries; the
  // mid-span windows exercise the block-level upper-bound stop.
  const std::pair<int64_t, int64_t> windows[] = {
      {0, span},
      {span / 3, 2 * span / 3},
      {span / 2, span / 2 + 10 * kStepMs},
      {0, 0},
      {span + 1000, span + 2000}};  // empty

  for (const auto& [t0, t1] : windows) {
    for (int s = 0; s < kSeries; ++s) {
      const auto matcher = TagMatcher::Equal("m", "s" + std::to_string(s));
      const auto want = Expected(models[s], t0, t1);

      QueryResult materialized;
      ASSERT_TRUE(db->Query(query::ReadRequest::Range({matcher}, t0, t1),
                            &materialized).ok());
      if (want.empty()) {
        EXPECT_EQ(materialized.size(), 0u);
      } else {
        ASSERT_EQ(materialized.size(), 1u);
        ExpectSamplesEqual(materialized[0], want, "Query");
        EXPECT_GT(materialized.stats.batches_decoded, 0u);
        EXPECT_GE(materialized.stats.samples_decoded, want.size());
      }

      // Pure batch drain through the public iterator API.
      std::vector<TimeUnionDB::SeriesIterResult> iters;
      ASSERT_TRUE(db->QueryIterators(
          query::ReadRequest::Range({matcher}, t0, t1), &iters).ok());
      ASSERT_EQ(iters.size(), 1u);
      const auto got = DrainBatches(iters[0].iter.get());
      ASSERT_TRUE(iters[0].iter->status().ok());
      ExpectSamplesEqual(got, want, "NextBatch");

      // Mixed granularity: k cursor steps, then batches for the rest.
      if (!want.empty()) {
        const size_t k = rng.Uniform(static_cast<uint32_t>(want.size()));
        std::vector<TimeUnionDB::SeriesIterResult> mixed;
        ASSERT_TRUE(db->QueryIterators(
            query::ReadRequest::Range({matcher}, t0, t1), &mixed).ok());
        ASSERT_EQ(mixed.size(), 1u);
        auto* it = mixed[0].iter.get();
        std::vector<compress::Sample> combined;
        for (size_t i = 0; i < k; ++i) {
          ASSERT_TRUE(it->Valid());
          combined.push_back(it->value());
          it->Next();
        }
        const auto rest = DrainBatches(it);
        combined.insert(combined.end(), rest.begin(), rest.end());
        ExpectSamplesEqual(combined, want, "mixed cursor+batch");
      }
    }

    // Group members through their slot columns.
    const char* mems[] = {"a", "b"};
    for (int g = 0; g < 2; ++g) {
      const auto want = Expected(gmodels[g], t0, t1);
      std::vector<TimeUnionDB::SeriesIterResult> iters;
      ASSERT_TRUE(
          db->QueryIterators(query::ReadRequest::Range(
              {TagMatcher::Equal("mem", mems[g])}, t0, t1), &iters)
              .ok());
      ASSERT_EQ(iters.size(), 1u);
      // Group rewrites are checked bitwise like series: compaction
      // re-stamps merged chunks with the max winning input seq, so a
      // single-row rewrite chunk keeps outranking the window it targets
      // (last-write-wins all the way through the merge ladder).
      const auto got = DrainBatches(iters[0].iter.get());
      ASSERT_TRUE(iters[0].iter->status().ok());
      ExpectSamplesEqual(got, want, std::string("group member ") + mems[g]);
    }
  }

  db.reset();
  RemoveDirRecursive(ws);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDrainDifferentialTest,
                         ::testing::Values(7, 21, 42, 1337));

// Single-row rewrites aimed at windows that have ALREADY been compacted.
// The rewrite lands as a single-row chunk in a fresh table; later
// compactions of that partition merge the old chunks around it. Because
// merged output is re-stamped with the max winning input seq (not a fresh
// next_seq_), the rewrite's newer seq keeps outranking the merged window —
// the differential oracle must match bitwise with no skip list.
TEST(CompactionRestampTest, SingleRowRewriteIntoCompactedWindowWins) {
  const std::string ws = "/tmp/timeunion_test/batch_drain_restamp";
  RemoveDirRecursive(ws);
  DBOptions opts = SmallPartitionOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kRounds = 1200;
  constexpr int64_t kStepMs = 250;
  Random rng(99);

  Model model;
  WriteBatch batch;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 0, 0.0);
  model[0] = 0.0;
  batch.AddGroupRow(index::Labels{{"g", "1"}},
                    {{{"mem", "a"}}, {{"mem", "b"}}}, 0, {1.0, 2.0});
  WriteResult written;
  ASSERT_TRUE(WriteAll(db.get(), batch, &written));
  const uint64_t ref = written.resolved_refs[0];
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  batch.Clear();
  Model gmodels[2];
  gmodels[0][0] = 1.0;
  gmodels[1][0] = 2.0;

  // Phase 1: fill many small partitions, flushing periodically so the
  // early windows are compacted (L0 trigger is 1 table) before any
  // rewrite arrives.
  for (int i = 1; i < kRounds; ++i) {
    const int64_t ts = i * kStepMs;
    const double v = rng.NextDouble();
    batch.AddSample(ref, ts, v);
    model[ts] = v;
    const double ga = rng.NextDouble(), gb = rng.NextDouble();
    batch.AddGroupRow(group.group_ref, group.slots, ts, {ga, gb});
    gmodels[0][ts] = ga;
    gmodels[1][ts] = gb;
    if (i % 200 == 0) {
      ASSERT_TRUE(WriteAll(db.get(), batch));
      batch.Clear();
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  batch.Clear();
  ASSERT_TRUE(db->Flush().ok());
  const obs::MetricsSnapshot before = db->Metrics();
  ASSERT_GT(before.CounterOr0("lsm.compactions_l0_l1"), 0u)
      << "phase 1 must leave compacted windows to rewrite into";

  // Phase 2: single-row rewrites into the compacted windows, one per
  // region of the keyspace. Each misses every open chunk and goes down
  // the single-row-chunk path.
  for (const int64_t ts : {17 * kStepMs, 203 * kStepMs, 450 * kStepMs,
                           799 * kStepMs, 1024 * kStepMs}) {
    const double v = -1000.0 - static_cast<double>(ts);
    batch.AddSample(ref, ts, v);
    model[ts] = v;
    const double ga = -2000.0 - static_cast<double>(ts);
    const double gb = -3000.0 - static_cast<double>(ts);
    batch.AddGroupRow(group.group_ref, group.slots, ts, {ga, gb});
    gmodels[0][ts] = ga;
    gmodels[1][ts] = gb;
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  batch.Clear();
  ASSERT_TRUE(db->Flush().ok());

  // Phase 3: more appends + flushes so the rewritten partitions compact
  // again with the rewrite chunks in play.
  for (int i = kRounds; i < kRounds + 600; ++i) {
    const int64_t ts = i * kStepMs;
    const double v = rng.NextDouble();
    batch.AddSample(ref, ts, v);
    model[ts] = v;
    if (i % 150 == 0) {
      ASSERT_TRUE(WriteAll(db.get(), batch));
      batch.Clear();
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GT(db->Metrics().CounterOr0("lsm.compactions_l0_l1"),
            before.CounterOr0("lsm.compactions_l0_l1"))
      << "phase 3 must re-compact after the rewrites";

  // The rewrites must win bitwise everywhere — materialized and batched.
  const int64_t span = (kRounds + 600) * kStepMs;
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, span), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ExpectSamplesEqual(result[0], Expected(model, 0, span), "series");

  const char* mems[] = {"a", "b"};
  for (int g = 0; g < 2; ++g) {
    std::vector<TimeUnionDB::SeriesIterResult> iters;
    ASSERT_TRUE(db->QueryIterators(query::ReadRequest::Range(
        {TagMatcher::Equal("mem", mems[g])}, 0, span), &iters)
                    .ok());
    ASSERT_EQ(iters.size(), 1u);
    const auto got = DrainBatches(iters[0].iter.get());
    ASSERT_TRUE(iters[0].iter->status().ok());
    ExpectSamplesEqual(got, Expected(gmodels[g], 0, span),
                       std::string("group member ") + mems[g]);
  }

  db.reset();
  RemoveDirRecursive(ws);
}

// Breaker open: the batch drain must agree with the materialized entry
// point on both the surviving samples and the reported gap spans.
TEST(BatchDrainPartialReadTest, BreakerOpenBatchesMatchMaterialized) {
  const std::string ws = "/tmp/timeunion_test/batch_drain_partial";
  RemoveDirRecursive(ws);
  auto fi = std::make_shared<FaultInjector>(29);
  DBOptions opts = SmallPartitionOptions(ws);
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
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);

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

  QueryResult materialized;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, kTotal * 250LL), &materialized)
                  .ok());
  EXPECT_FALSE(materialized.complete);
  ASSERT_FALSE(materialized.missing_ranges.empty());
  ASSERT_EQ(materialized.size(), 1u);

  std::vector<TimeUnionDB::SeriesIterResult> iters;
  ASSERT_TRUE(db->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, kTotal * 250LL), &iters)
                  .ok());
  ASSERT_EQ(iters.size(), 1u);
  EXPECT_FALSE(iters[0].complete);
  EXPECT_EQ(iters[0].missing_ranges, materialized.missing_ranges);
  const auto got = DrainBatches(iters[0].iter.get());
  ASSERT_TRUE(iters[0].iter->status().ok());
  ExpectSamplesEqual(materialized[0], got, "partial batch drain");

  db.reset();
  RemoveDirRecursive(ws);
}

// A window ending mid-data must both stop at the bound (blocks pruned, no
// trailing decode) and stay exact under the batch clip.
TEST(BatchDrainUpperBoundTest, MidDataWindowPrunesAndStaysExact) {
  const std::string ws = "/tmp/timeunion_test/batch_drain_bound";
  RemoveDirRecursive(ws);
  // Default (large) partitions: the whole series lands in few tables with
  // many data blocks each, so the t1 bound must do its pruning at block
  // level instead of riding table-level time pruning.
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  constexpr int kTotal = 20000;
  uint64_t ref = 0;
  Model model;
  ASSERT_TRUE(db->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < kTotal; ++i) {
    batch.AddSample(ref, i * 250LL, 0.25 * i);
    model[i * 250LL] = 0.25 * i;
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());

  // Reference: the full window touches every block and decodes everything.
  QueryResult full;
  ASSERT_TRUE(
      db->Query(query::ReadRequest::Range({TagMatcher::Equal("m", "cpu")}, 0,
                                          kTotal * 250LL), &full)
          .ok());
  ASSERT_EQ(full.size(), 1u);
  ExpectSamplesEqual(full[0], Expected(model, 0, kTotal * 250LL),
                     "full");
  ASSERT_GT(full.stats.blocks_read, 4u) << "need a multi-block table";

  // First tenth of the data only: the t1 bound must stop the block walk
  // right after the edge — a fraction of the blocks read and samples
  // decoded, with the batch results still exact at the clip.
  const int64_t t1 = kTotal / 10 * 250LL;
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, t1), &result).ok());
  ASSERT_EQ(result.size(), 1u);
  ExpectSamplesEqual(result[0], Expected(model, 0, t1), "bounded");
  EXPECT_LT(result.stats.blocks_read, full.stats.blocks_read / 2);
  EXPECT_LT(result.stats.samples_decoded, static_cast<uint64_t>(kTotal) / 2);
  EXPECT_GT(result.stats.batches_decoded, 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
