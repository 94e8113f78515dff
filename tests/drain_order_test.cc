// Drain-order differential suite (`ctest -L query`). The iterators one
// QueryIterators call returns share one LSM cursor: each moves the shared
// table and memtable iterators to its own series, and one that lost the
// cursor to another series seeks back to where it stopped. Whatever order
// a caller drains them in, every sample must match Query bit for bit:
//   - in order, in reverse, round-robin NextBatch, random mixes of the
//     per-sample cursor and NextBatch, and with some iterators dropped
//     half-drained (the rest stay exact, the dropped ones were exact as far
//     as they got);
//   - over memtable, L0, L1 and L2 data with out-of-order patches and group
//     members, on both LSM backends;
//   - with a flush and an L0->L1 compaction run between open and drain;
//   - with slow-tier tables replaced between open and drain (a leveled
//     compaction, a patch merge): their objects stay until the cursor's
//     last pin drops.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

namespace tu {
namespace {

using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using index::TagMatcher;

constexpr int64_t kStepMs = 250;
constexpr int kSteps = 600;
constexpr int64_t kSpanMs = kSteps * kStepMs;
constexpr int kSeries = 6;
constexpr int kMembers = 4;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Tiny partitions and memtables so a modest load spans every layer.
/// `fast_only` keeps every table on the fast tier (no L2 window closes,
/// every leveled level is fast), so a flush between open and drain deletes
/// no slow object under a pinned reader, and compacts on every flush.
DBOptions Options(const std::string& ws, DBOptions::Backend backend,
                  bool fast_only = false) {
  DBOptions opts;
  opts.workspace = ws;
  opts.backend = backend;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 2000;
  opts.lsm.l2_partition_ms = fast_only ? int64_t{1} << 50 : 8000;
  opts.lsm.partition_lower_bound_ms = 2000;
  opts.lsm.partition_upper_bound_ms = 8000;
  opts.lsm.l0_partition_trigger = 1;
  // Small blocks: a series spans several blocks of each table, and
  // neighbouring series share blocks.
  opts.lsm.table_options.block_size = 256;
  opts.leveled.memtable_bytes = 8 << 10;
  opts.leveled.base_level_bytes = 16 << 10;
  opts.leveled.max_output_table_bytes = 8 << 10;
  opts.leveled.l0_compaction_trigger = fast_only ? 1 : 4;
  if (fast_only) opts.leveled.num_fast_levels = opts.leveled.max_levels;
  opts.leveled.table_options.block_size = 256;
  opts.block_cache_bytes = 32 << 10;
  return opts;
}

struct Refs {
  std::vector<uint64_t> series;
  uint64_t group = 0;
  std::vector<uint32_t> slots;
};

/// One step of the load: every series at step `i` (1-in-8 rewrites of an
/// earlier step) plus a group row.
void WriteStep(TimeUnionDB* db, const Refs& refs, Random* rng, int i) {
  core::WriteBatch batch;
  for (uint64_t ref : refs.series) {
    int64_t ts = i * kStepMs;
    if (i > 0 && rng->OneIn(8)) ts = rng->Uniform(i) * kStepMs;
    batch.AddSample(ref, ts, rng->NextDouble());
  }
  std::vector<double> row(kMembers);
  for (double& v : row) v = rng->NextDouble();
  // Member 2 skips every third row: its column holds NULLs.
  std::vector<uint32_t> slots = refs.slots;
  if (i % 3 == 0) {
    slots.erase(slots.begin() + 2);
    row.erase(row.begin() + 2);
  }
  batch.AddGroupRow(refs.group, std::move(slots), i * kStepMs,
                    std::move(row));
  ASSERT_TRUE(core::WriteAll(db, batch));
}

/// Series on three hosts plus a group on h1; in-order steps with rewrites
/// and periodic flushes, out-of-order writes into the oldest third (L2
/// patches on the time-partitioned tree), then a tail that stays in the
/// memtable and the open heads.
Refs Load(TimeUnionDB* db, uint64_t seed) {
  Refs refs;
  Random rng(seed);
  refs.series.resize(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    EXPECT_TRUE(db->RegisterSeries({{"host", "h" + std::to_string(s / 2)},
                                    {"m", "s" + std::to_string(s)}},
                                   &refs.series[s])
                    .ok());
  }
  std::vector<index::Labels> members;
  for (int k = 0; k < kMembers; ++k) {
    members.push_back({{"m", "g" + std::to_string(k)}});
  }
  core::WriteBatch batch;
  core::WriteResult written;
  batch.AddGroupRow(index::Labels{{"g", "1"}, {"host", "h1"}}, members, 0,
                    std::vector<double>(kMembers, 1.0));
  EXPECT_TRUE(core::WriteAll(db, batch, &written));
  refs.group = written.resolved_groups[0].group_ref;
  refs.slots = written.resolved_groups[0].slots;
  const int tail = kSteps - 40;
  for (int i = 1; i < tail; ++i) {
    WriteStep(db, refs, &rng, i);
    if (i % 150 == 149) {
      EXPECT_TRUE(db->Flush().ok());
    }
  }
  EXPECT_TRUE(db->Flush().ok());
  batch.Clear();
  for (int k = 0; k < 120; ++k) {
    const uint64_t ref = refs.series[rng.Uniform(kSeries)];
    const int64_t ts = rng.Uniform(kSteps / 3) * kStepMs;
    batch.AddSample(ref, ts, rng.NextDouble());
  }
  EXPECT_TRUE(core::WriteAll(db, batch));
  EXPECT_TRUE(db->Flush().ok());
  for (int i = tail; i < kSteps; ++i) WriteStep(db, refs, &rng, i);
  return refs;
}

using Samples = std::vector<std::pair<int64_t, double>>;

/// Query's answer per series, in QueryIterators order (Query omits series
/// with no samples; the iterators do not).
std::vector<Samples> Want(const QueryResult& q,
                          const std::vector<TimeUnionDB::SeriesIterResult>&
                              iters) {
  std::vector<Samples> want(iters.size());
  size_t j = 0;
  for (size_t i = 0; i < iters.size() && j < q.size(); ++i) {
    if (q[j].labels != iters[i].labels) continue;
    for (size_t k = 0; k < q[j].timestamps.size(); ++k) {
      want[i].emplace_back(q[j].timestamps[k], q[j].values[k]);
    }
    ++j;
  }
  EXPECT_EQ(j, q.size()) << "Query returned a series the iterators lack";
  return want;
}

void Append(const query::SampleBatch& batch, Samples* out) {
  for (size_t k = 0; k < batch.size(); ++k) {
    out->emplace_back(batch.timestamps[k], batch.values[k]);
  }
}

/// Checks `got` against `want`; with `prefix_only`, `got` may stop early.
void ExpectSame(const Samples& got, const Samples& want, bool prefix_only,
                const std::string& what) {
  if (prefix_only) {
    ASSERT_LE(got.size(), want.size()) << what;
  } else {
    ASSERT_EQ(got.size(), want.size()) << what;
  }
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].first, want[k].first) << what << " sample " << k;
    ASSERT_EQ(Bits(got[k].second), Bits(want[k].second))
        << what << " sample " << k;
  }
}

enum class Order { kInOrder, kReverse, kRoundRobin, kMixed, kDropSome };

const char* Name(Order o) {
  switch (o) {
    case Order::kInOrder:
      return "in-order";
    case Order::kReverse:
      return "reverse";
    case Order::kRoundRobin:
      return "round-robin";
    case Order::kMixed:
      return "mixed";
    case Order::kDropSome:
      return "drop-some";
  }
  return "?";
}

/// Drains `iters` in `order` and compares every series with `want`.
void DrainAndCheck(std::vector<TimeUnionDB::SeriesIterResult>* iters,
                   const std::vector<Samples>& want, Order order,
                   uint64_t seed, const std::string& what_base) {
  const std::string what = what_base + " " + Name(order);
  const size_t n = iters->size();
  std::vector<Samples> got(n);
  std::vector<bool> done(n, false);
  std::vector<bool> dropped(n, false);
  query::SampleBatch batch;
  const auto drain_all = [&](size_t i) {
    while ((*iters)[i].iter->NextBatch(&batch)) Append(batch, &got[i]);
    done[i] = true;
  };
  Random rng(seed);
  switch (order) {
    case Order::kInOrder:
      for (size_t i = 0; i < n; ++i) drain_all(i);
      break;
    case Order::kReverse:
      for (size_t i = n; i-- > 0;) drain_all(i);
      break;
    case Order::kRoundRobin:
    case Order::kDropSome: {
      size_t live = n;
      while (live > 0) {
        for (size_t i = 0; i < n; ++i) {
          if (done[i]) continue;
          if (!(*iters)[i].iter->NextBatch(&batch)) {
            done[i] = true;
            --live;
            continue;
          }
          Append(batch, &got[i]);
          if (order == Order::kDropSome && i % 3 == 1) {
            // Dropped half-drained: the rest of the query reads on.
            (*iters)[i].iter.reset();
            dropped[i] = true;
            done[i] = true;
            --live;
          }
        }
      }
      break;
    }
    case Order::kMixed: {
      size_t live = n;
      while (live > 0) {
        const size_t i = rng.Uniform(static_cast<uint32_t>(n));
        if (done[i]) continue;
        core::SampleIterator* it = (*iters)[i].iter.get();
        bool more = true;
        if (rng.OneIn(2)) {
          more = it->NextBatch(&batch);
          if (more) Append(batch, &got[i]);
        } else {
          for (int k = 1 + static_cast<int>(rng.Uniform(6)); k > 0 && more;
               --k) {
            more = it->Valid();
            if (more) {
              got[i].emplace_back(it->value().timestamp, it->value().value);
              it->Next();
            }
          }
        }
        if (!more) {
          done[i] = true;
          --live;
        }
      }
      break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!dropped[i]) {
      ASSERT_TRUE((*iters)[i].iter->status().ok())
          << what << ": " << (*iters)[i].iter->status().ToString();
    }
    ExpectSame(got[i], want[i], dropped[i],
               what + " series " + std::to_string(i));
  }
}

std::vector<std::vector<TagMatcher>> Selectors() {
  return {
      {TagMatcher::Regex("m", ".*")},         // every series and member
      {TagMatcher::Equal("host", "h1")},      // series + group members
      {TagMatcher::Equal("g", "1")},          // group members only
      {TagMatcher::Regex("m", "s[1-4]")},     // a contiguous id run
      {TagMatcher::Equal("m", "s5")},         // one series
  };
}

class DrainOrderTest : public ::testing::TestWithParam<DBOptions::Backend> {};

TEST_P(DrainOrderTest, EveryDrainOrderMatchesQuery) {
  const bool leveled = GetParam() == DBOptions::Backend::kLeveled;
  const std::string ws = std::string("/tmp/timeunion_test/drain_order_") +
                         (leveled ? "leveled" : "tp");
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(Options(ws, GetParam()), &db).ok());
  Load(db.get(), 17);
  if (leveled) {
    lsm::LeveledLsm* tree = db->leveled_lsm();
    ASSERT_GT(tree->NumTables(0), 0u);
    ASSERT_GT(tree->NumTables(1), 0u);
    ASSERT_GT(tree->NumTables(2), 0u);  // first slow level
  } else {
    lsm::TimePartitionedLsm* tree = db->time_lsm();
    ASSERT_GT(tree->NumL0Partitions(), 0u);
    ASSERT_GT(tree->NumL1Partitions(), 0u);
    ASSERT_GT(tree->NumL2Partitions(), 0u);
    ASSERT_GT(tree->NumL2Patches(), 0u);
  }

  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, kSpanMs}, {kSpanMs / 5, kSpanMs / 2}, {kSpanMs - 3000, kSpanMs}};
  uint64_t seed = 1;
  for (const auto& matchers : Selectors()) {
    for (const auto& [t0, t1] : ranges) {
      const query::ReadRequest request =
          query::ReadRequest::Range(matchers, t0, t1);
      QueryResult q;
      ASSERT_TRUE(db->Query(request, &q).ok());
      for (Order order : {Order::kInOrder, Order::kReverse,
                          Order::kRoundRobin, Order::kMixed,
                          Order::kDropSome}) {
        std::vector<TimeUnionDB::SeriesIterResult> iters;
        query::QueryStats stats;
        ASSERT_TRUE(db->QueryIterators(request, &iters, &stats).ok());
        const std::string what = matchers[0].name + "=" +
                                 matchers[0].value + " [" +
                                 std::to_string(t0) + "," +
                                 std::to_string(t1) + "]";
        DrainAndCheck(&iters, Want(q, iters), order, ++seed, what);
      }
    }
  }
  db.reset();
  RemoveDirRecursive(ws);
}

// Iterators opened, then a flush and an L0->L1 compaction replace the
// memtable and tables they read: the cursor's pins keep its view, and the
// drain still matches the Query answered before the flush.
TEST_P(DrainOrderTest, FlushAndCompactionBetweenOpenAndDrain) {
  const bool leveled = GetParam() == DBOptions::Backend::kLeveled;
  const std::string ws = std::string("/tmp/timeunion_test/drain_flush_") +
                         (leveled ? "leveled" : "tp");
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(
      TimeUnionDB::Open(Options(ws, GetParam(), /*fast_only=*/true), &db)
          .ok());
  const Refs refs = Load(db.get(), 29);
  Random rng(29);
  int next_step = kSteps;
  uint64_t seed = 100;
  for (Order order : {Order::kInOrder, Order::kReverse, Order::kMixed}) {
    // New steps past the loaded span plus rewrites inside it, so the
    // memtable holds work for the flush below.
    for (int k = 0; k < 40; ++k) WriteStep(db.get(), refs, &rng, next_step++);
    const query::ReadRequest request = query::ReadRequest::Range(
        {TagMatcher::Regex("m", ".*")}, 0, next_step * kStepMs);
    QueryResult q;
    ASSERT_TRUE(db->Query(request, &q).ok());
    std::vector<TimeUnionDB::SeriesIterResult> iters;
    query::QueryStats stats;
    ASSERT_TRUE(db->QueryIterators(request, &iters, &stats).ok());
    const uint64_t compactions_before =
        leveled ? db->leveled_lsm()->stats().compactions.load()
                : db->time_lsm()->stats().l0_to_l1_compactions.load();
    ASSERT_TRUE(db->Flush().ok());
    EXPECT_GT(leveled ? db->leveled_lsm()->stats().compactions.load()
                      : db->time_lsm()->stats().l0_to_l1_compactions.load(),
              compactions_before);
    DrainAndCheck(&iters, Want(q, iters), order, ++seed, "after flush");
  }
  db.reset();
  RemoveDirRecursive(ws);
}

// Iterators opened, then background work replaces slow-tier tables they
// read: a flush whose compactions rewrite the slow levels (leveled), or a
// patch merge of an L2 entry (time-partitioned). Every block read of a
// slow-tier table is a Get by key, so the replaced objects must outlive
// the cursor's pins, and the reverse drain (last series first, so most
// blocks are fetched after the merge) must still match Query.
TEST_P(DrainOrderTest, SlowTablesReplacedBetweenOpenAndDrain) {
  // Rewrites land in [0, kRewriteEndMs), inside the oldest L2 window.
  constexpr int64_t kRewriteEndMs = 2000;
  const bool leveled = GetParam() == DBOptions::Backend::kLeveled;
  const std::string ws = std::string("/tmp/timeunion_test/drain_replace_") +
                         (leveled ? "leveled" : "tp");
  RemoveDirRecursive(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(Options(ws, GetParam()), &db).ok());
  const Refs refs = Load(db.get(), 41);
  Random rng(41);
  // The writes below stay out of the read range: the cursor pins the
  // active memtable, whose later inserts it would see.
  const query::ReadRequest request = query::ReadRequest::Range(
      {TagMatcher::Regex("m", ".*")}, kRewriteEndMs, kSpanMs);
  QueryResult q;
  ASSERT_TRUE(db->Query(request, &q).ok());
  std::vector<TimeUnionDB::SeriesIterResult> iters;
  query::QueryStats stats;
  ASSERT_TRUE(db->QueryIterators(request, &iters, &stats).ok());

  core::WriteBatch batch;
  if (leveled) {
    // New steps past the read range push the slow levels into
    // compaction.
    const uint64_t before = db->leveled_lsm()->stats().compactions.load();
    for (int i = kSteps + 1; i <= kSteps + 300; ++i) {
      for (uint64_t ref : refs.series) {
        batch.AddSample(ref, i * kStepMs, rng.NextDouble());
      }
    }
    ASSERT_TRUE(core::WriteAll(db.get(), batch));
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_GT(db->leveled_lsm()->stats().compactions.load(), before);
  } else {
    // Rewrites into the oldest L2 window (below the read range), one flush
    // each, until its entry passes the patch threshold and the merge
    // replaces base and patches, which the read range still covers.
    lsm::TimePartitionedLsm* tree = db->time_lsm();
    const uint64_t before = tree->stats().patch_merges.load();
    for (int round = 0;
         round < 12 && tree->stats().patch_merges.load() == before; ++round) {
      batch.Clear();
      for (uint64_t ref : refs.series) batch.AddSample(ref, 1000 + round, -1.0);
      ASSERT_TRUE(core::WriteAll(db.get(), batch));
      ASSERT_TRUE(db->Flush().ok());
    }
    ASSERT_GT(tree->stats().patch_merges.load(), before);
  }
  DrainAndCheck(&iters, Want(q, iters), Order::kReverse, 7,
                "after replacing slow tables");
  // The replaced objects go with the cursor's last pins.
  const cloud::TierCounters& slow = db->env().slow().counters();
  const uint64_t deletes_before = slow.delete_ops.load();
  iters.clear();
  EXPECT_GT(slow.delete_ops.load(), deletes_before);
  db.reset();
  RemoveDirRecursive(ws);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DrainOrderTest,
    ::testing::Values(DBOptions::Backend::kTimePartitioned,
                      DBOptions::Backend::kLeveled),
    [](const ::testing::TestParamInfo<DBOptions::Backend>& info) {
      return info.param == DBOptions::Backend::kLeveled
                 ? std::string("Leveled")
                 : std::string("TimePartitioned");
    });

}  // namespace
}  // namespace tu
