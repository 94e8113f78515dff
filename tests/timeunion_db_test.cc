#include "core/timeunion_db.h"

#include <gtest/gtest.h>

#include <map>

#include "util/mmap_file.h"
#include "util/random.h"

namespace tu::core {
namespace {

using index::Label;
using index::Labels;
using index::TagMatcher;

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

class TimeUnionDBTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(DefaultOptions()); }

  DBOptions DefaultOptions() {
    DBOptions opts;
    opts.workspace = "/tmp/timeunion_test/db";
    opts.lsm.memtable_bytes = 64 << 10;
    return opts;
  }

  void Recreate(DBOptions opts, bool wipe = true) {
    db_.reset();
    if (wipe) RemoveDirRecursive(opts.workspace);
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db_).ok());
  }

  void TearDown() override {
    db_.reset();
    RemoveDirRecursive("/tmp/timeunion_test/db");
  }

  static Labels SeriesLabels(int host, const std::string& metric) {
    return Labels{{"hostname", "host_" + std::to_string(host)},
                  {"metric", metric},
                  {"region", "tokyo"}};
  }

  std::unique_ptr<TimeUnionDB> db_;
};

TEST_F(TimeUnionDBTest, InsertAndQuerySingleSeries) {
  uint64_t ref = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db_->Insert(SeriesLabels(1, "cpu"), i * kMin, 1.0 * i, &ref).ok());
  }
  EXPECT_EQ(db_->NumSeries(), 1u);

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, 100 * kMin), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(result[0].timestamps[i], i * kMin);
    EXPECT_EQ(result[0].values[i], 1.0 * i);
  }
}

TEST_F(TimeUnionDBTest, FastPathMatchesSlowPath) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "mem"), 0, 1.0, &ref).ok());
  for (int i = 1; i < 200; ++i) {
    ASSERT_TRUE(db_->InsertFast(ref, i * kMin, 1.0 + i).ok());
  }
  QueryResult result;
  ASSERT_TRUE(
      db_->Query(query::ReadRequest::Range({TagMatcher::Equal("metric", "mem")},
                                           0, 200 * kMin), &result)
          .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 200u);
}

TEST_F(TimeUnionDBTest, InsertFastUnknownRefFails) {
  EXPECT_TRUE(db_->InsertFast(999, 0, 1.0).IsNotFound());
}

TEST_F(TimeUnionDBTest, MultipleSeriesSelectors) {
  uint64_t ref = 0;
  for (int host = 0; host < 4; ++host) {
    for (const char* metric : {"cpu", "mem", "disk"}) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(db_->Insert(SeriesLabels(host, metric), i * kMin,
                                host + i * 0.1, &ref)
                        .ok());
      }
    }
  }
  EXPECT_EQ(db_->NumSeries(), 12u);

  QueryResult result;
  // Exact: one host, one metric.
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("hostname", "host_2"),
       TagMatcher::Equal("metric", "cpu")}, 0, kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 1u);

  // Regex across metrics.
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("hostname", "host_1"),
       TagMatcher::Regex("metric", "cpu|mem")}, 0, kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 2u);

  // Regex prefix (the paper's metric="disk.*" example).
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Regex("metric", "disk.*")}, 0, kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 4u);

  // No match.
  ASSERT_TRUE(
      db_->Query(query::ReadRequest::Range(
          {TagMatcher::Equal("metric", "nope")}, 0, kHour), &result)
          .ok());
  EXPECT_TRUE(result.empty());
}

TEST_F(TimeUnionDBTest, LongRangeSpillsToLsmAndQueriesBack) {
  // 26 hours, 1-minute interval: data flows through L0/L1 into L2.
  uint64_t ref = 0;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "cpu"), 0, 0.0, &ref).ok());
  const int n = 26 * 60;
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(db_->InsertFast(ref, i * kMin, 1.0 * i).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_GT(db_->time_lsm()->NumL2Partitions(), 0u);

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, n * kMin), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(result[0].values[i], 1.0 * i);
  }

  // Bounded window query over old (L2) data.
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 2 * kHour, 3 * kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 61u);
}

TEST_F(TimeUnionDBTest, OutOfOrderSamples) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "cpu"), 0, 0.0, &ref).ok());
  for (int i = 1; i < 240; ++i) {
    ASSERT_TRUE(db_->InsertFast(ref, i * kMin, 1.0).ok());
  }
  // In-open-chunk out-of-order + duplicate overwrite.
  ASSERT_TRUE(db_->InsertFast(ref, 239 * kMin - 30000, 5.0).ok());
  ASSERT_TRUE(db_->InsertFast(ref, 238 * kMin, 7.0).ok());
  // Far-in-the-past out-of-order (older than the open chunk).
  ASSERT_TRUE(db_->InsertFast(ref, 10 * kMin, 9.0).ok());

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, 4 * kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  std::map<int64_t, double> samples;
  for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
    samples[result[0].timestamps[i]] = result[0].values[i];
  }
  EXPECT_EQ(samples.at(239 * kMin - 30000), 5.0);
  EXPECT_EQ(samples.at(238 * kMin), 7.0);   // newest wins on duplicate
  EXPECT_EQ(samples.at(10 * kMin), 9.0);
  EXPECT_EQ(samples.at(11 * kMin), 1.0);
}

TEST_F(TimeUnionDBTest, GroupInsertAndQuery) {
  // A host group: shared tag hostname, members differ by metric tags
  // (the Fig. 6/7 model).
  const Labels group_tags{{"hostname", "host_9"}};
  std::vector<Labels> members = {
      {{"metric", "cpu"}, {"core", "0"}},
      {{"metric", "cpu"}, {"core", "1"}},
      {{"metric", "mem"}},
  };
  uint64_t gref = 0;
  std::vector<uint32_t> slots;
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> values = {1.0 * i, 2.0 * i, 3.0 * i};
    if (i == 0) {
      ASSERT_TRUE(db_->InsertGroup(group_tags, members, i * kMin, values,
                                   &gref, &slots)
                      .ok());
      ASSERT_EQ(slots.size(), 3u);
    } else {
      ASSERT_TRUE(db_->InsertGroupFast(gref, slots, i * kMin, values).ok());
    }
  }
  EXPECT_EQ(db_->NumGroups(), 1u);

  // Query one member by its unique tags.
  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("hostname", "host_9"),
       TagMatcher::Equal("metric", "cpu"), TagMatcher::Equal("core", "1")}, 0,
      kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), 50u);
  EXPECT_EQ(result[0].values[10], 20.0);

  // Query spanning members: both cores.
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 2u);

  // Group-tag query returns all members.
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("hostname", "host_9")}, 0, kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 3u);
}

TEST_F(TimeUnionDBTest, GroupMissingAndNewMembers) {
  const Labels group_tags{{"hostname", "host_5"}};
  uint64_t gref = 0;
  std::vector<uint32_t> slots;
  // Round 0: members A, B.
  ASSERT_TRUE(db_->InsertGroup(group_tags,
                               {{{"metric", "a"}}, {{"metric", "b"}}}, 0,
                               {1.0, 2.0}, &gref, &slots)
                  .ok());
  // Round 1: only A reports (B missing -> NULL).
  ASSERT_TRUE(db_->InsertGroup(group_tags, {{{"metric", "a"}}}, kMin, {1.5},
                               &gref, &slots)
                  .ok());
  // Round 2: new member C joins (backfilled NULLs for rounds 0-1).
  ASSERT_TRUE(db_->InsertGroup(group_tags,
                               {{{"metric", "a"}},
                                {{"metric", "b"}},
                                {{"metric", "c"}}},
                               2 * kMin, {1.7, 2.7, 3.7}, &gref, &slots)
                  .ok());

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "b")}, 0, kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), 2u);  // missing round yields no sample
  EXPECT_EQ(result[0].timestamps[0], 0);
  EXPECT_EQ(result[0].timestamps[1], 2 * kMin);

  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "c")}, 0, kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), 1u);
  EXPECT_EQ(result[0].timestamps[0], 2 * kMin);
}

TEST_F(TimeUnionDBTest, GroupLongRangeThroughLsm) {
  const Labels group_tags{{"hostname", "host_1"}};
  std::vector<Labels> members;
  for (int m = 0; m < 5; ++m) {
    members.push_back(Labels{{"metric", "m" + std::to_string(m)}});
  }
  uint64_t gref = 0;
  std::vector<uint32_t> slots;
  const int n = 26 * 60;
  for (int i = 0; i < n; ++i) {
    std::vector<double> values;
    for (int m = 0; m < 5; ++m) values.push_back(m + i * 0.001);
    if (i == 0) {
      ASSERT_TRUE(db_->InsertGroup(group_tags, members, 0, values, &gref,
                                   &slots)
                      .ok());
    } else {
      ASSERT_TRUE(db_->InsertGroupFast(gref, slots, i * kMin, values).ok());
    }
  }
  ASSERT_TRUE(db_->Flush().ok());

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "m3")}, 0, n * kMin), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), static_cast<size_t>(n));
  EXPECT_DOUBLE_EQ(result[0].values[1000], 3 + 1000 * 0.001);
}

TEST_F(TimeUnionDBTest, RetentionPurgesSeries) {
  uint64_t ref_old = 0, ref_new = 0;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "old"), 0, 1.0, &ref_old).ok());
  ASSERT_TRUE(
      db_->Insert(SeriesLabels(1, "new"), 10 * kHour, 1.0, &ref_new).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->ApplyRetention(5 * kHour).ok());

  EXPECT_EQ(db_->NumSeries(), 1u);
  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "old")}, 0, 20 * kHour), &result)
                  .ok());
  EXPECT_TRUE(result.empty());
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "new")}, 0, 20 * kHour), &result)
                  .ok());
  EXPECT_EQ(result.size(), 1u);
}

TEST_F(TimeUnionDBTest, WalRecoveryRestoresUnflushedData) {
  DBOptions opts = DefaultOptions();
  opts.enable_wal = true;
  Recreate(opts);

  uint64_t ref = 0;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "cpu"), 0, 42.0, &ref).ok());
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(db_->InsertFast(ref, i * kMin, 42.0 + i).ok());
  }
  uint64_t gref = 0;
  std::vector<uint32_t> slots;
  ASSERT_TRUE(db_->InsertGroup({{"hostname", "h"}},
                               {{{"metric", "g1"}}, {{"metric", "g2"}}}, 0,
                               {7.0, 8.0}, &gref, &slots)
                  .ok());
  // Simulate a crash: drop the DB without Flush(); reopen on the same
  // workspace.
  db_.reset();
  Recreate(opts, /*wipe=*/false);

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), 10u);
  EXPECT_EQ(result[0].values[3], 45.0);

  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "g2")}, 0, kHour), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].values[0], 8.0);

  // The fast path still works against recovered state.
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "cpu"), 10 * kMin, 99.0, &ref).ok());
}

TEST_F(TimeUnionDBTest, WalRecoverySkipsFlushedData) {
  DBOptions opts = DefaultOptions();
  opts.enable_wal = true;
  Recreate(opts);

  uint64_t ref = 0;
  const int n = 26 * 60;
  ASSERT_TRUE(db_->Insert(SeriesLabels(1, "cpu"), 0, 0.0, &ref).ok());
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(db_->InsertFast(ref, i * kMin, 1.0 * i).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  Recreate(opts, /*wipe=*/false);

  QueryResult result;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("metric", "cpu")}, 0, n * kMin), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(n));
}

class DBPropertyTest : public TimeUnionDBTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(DBPropertyTest, RandomWorkloadMatchesReference) {
  Random rng(GetParam());
  std::map<std::string, std::map<int64_t, double>> reference;
  std::map<std::string, uint64_t> refs;

  for (int i = 0; i < 3000; ++i) {
    const int host = static_cast<int>(rng.Uniform(5));
    const char* metrics[] = {"cpu", "mem", "net"};
    const char* metric = metrics[rng.Uniform(3)];
    // Mostly in-order per series; 10% out-of-order.
    int64_t ts = (i / 10) * kMin;
    if (rng.OneIn(10)) ts = rng.Uniform(i + 1) * kMin / 10;
    const double v = rng.NextGaussian(50, 10);
    const Labels labels = SeriesLabels(host, metric);
    const std::string key = index::LabelsKey(labels);
    uint64_t ref = 0;
    ASSERT_TRUE(db_->Insert(labels, ts, v, &ref).ok());
    reference[key][ts] = v;  // newest write wins, like the DB
    refs[key] = ref;
  }

  for (const auto& [key, samples] : reference) {
    // key format: hostname$host_X,metric$Y,region$tokyo
    const size_t h0 = key.find("host_");
    const size_t h1 = key.find(',', h0);
    const std::string host = key.substr(h0, h1 - h0);
    const size_t m0 = key.find("metric$") + 7;
    const size_t m1 = key.find(',', m0);
    const std::string metric = key.substr(m0, m1 - m0);

    QueryResult result;
    ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
        {TagMatcher::Equal("hostname", host),
         TagMatcher::Equal("metric", metric)}, 0, 1000 * kMin), &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u) << key;
    std::map<int64_t, double> got;
    for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
      got[result[0].timestamps[i]] = result[0].values[i];
    }
    EXPECT_EQ(got, samples) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DBPropertyTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace tu::core
