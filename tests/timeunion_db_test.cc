#include "core/timeunion_db.h"

#include <gtest/gtest.h>

#include <map>

#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

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
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.AddSample(SeriesLabels(1, "cpu"), i * kMin, 1.0 * i);
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  WriteBatch batch;
  WriteResult written;
  batch.AddSample(SeriesLabels(1, "mem"), 0, 1.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch, &written));
  const uint64_t ref = written.resolved_refs[0];
  batch.Clear();
  for (int i = 1; i < 200; ++i) batch.AddSample(ref, i * kMin, 1.0 + i);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  QueryResult result;
  ASSERT_TRUE(
      db_->Query(query::ReadRequest::Range({TagMatcher::Equal("metric", "mem")},
                                           0, 200 * kMin), &result)
          .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 200u);
}

TEST_F(TimeUnionDBTest, UnknownRefRowIsRejected) {
  WriteBatch batch;
  batch.AddSample(999, 0, 1.0);
  WriteResult result;
  // A row failure leaves the call OK; the row outcome carries it.
  ASSERT_TRUE(db_->Write(batch, &result).ok());
  EXPECT_EQ(result.appended, 0u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_TRUE(result.first_error.IsNotFound());
}

// Write's row semantics: one batch with all four sections and a bad row in
// three of them. Each bad row is counted and reported, every other row
// applies, and the call itself stays OK.
TEST_F(TimeUnionDBTest, WriteReportsRowOutcomesPerSection) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->RegisterSeries(SeriesLabels(1, "cpu"), &ref).ok());
  const Labels group_tags{{"hostname", "g"}};
  WriteBatch batch;
  WriteResult written;
  batch.AddGroupRow(group_tags, {{{"metric", "a"}}, {{"metric", "b"}}}, 0,
                    {1.0, 2.0});
  ASSERT_TRUE(WriteAll(db_.get(), batch, &written));
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  ASSERT_EQ(group.slots, (std::vector<uint32_t>{0, 1}));

  batch.Clear();
  batch.AddSample(ref, kMin, 10.0);
  batch.AddSample(999'999, kMin, 11.0);  // unknown ref
  batch.AddSample(ref, 2 * kMin, 12.0);
  batch.AddSample(SeriesLabels(2, "mem"), kMin, 20.0);      // registers
  batch.AddSample(SeriesLabels(1, "cpu"), 3 * kMin, 13.0);  // resolves
  batch.AddGroupRow(group.group_ref, group.slots, kMin, {1.5, 2.5});
  batch.AddGroupRow(group.group_ref, {0, 7}, 2 * kMin,
                    {1.6, 2.6});  // slot out of range
  batch.AddGroupRow(group_tags, {{{"metric", "a"}}, {{"metric", "c"}}},
                    3 * kMin, {1.7, 3.7});  // member c joins
  batch.AddGroupRow(Labels{{"hostname", "h"}}, {{{"metric", "a"}}}, kMin,
                    {1.0, 2.0});  // member/value count mismatch
  WriteResult result;
  ASSERT_TRUE(db_->Write(batch, &result).ok());
  EXPECT_EQ(result.appended, 6u);
  EXPECT_EQ(result.rejected, 3u);
  // Sections apply in order (ref, labeled, group by ref, group by tags), so
  // the first failure is the unknown ref.
  EXPECT_TRUE(result.first_error.IsNotFound())
      << result.first_error.ToString();
  ASSERT_EQ(result.resolved_refs.size(), 2u);
  EXPECT_NE(result.resolved_refs[0], 0u);
  EXPECT_NE(result.resolved_refs[0], ref);
  EXPECT_EQ(result.resolved_refs[1], ref);
  ASSERT_EQ(result.resolved_groups.size(), 2u);
  EXPECT_EQ(result.resolved_groups[0].group_ref, group.group_ref);
  EXPECT_EQ(result.resolved_groups[0].slots, (std::vector<uint32_t>{0, 2}));
  // The failed row resolves nothing and registers no group.
  EXPECT_EQ(result.resolved_groups[1].group_ref, 0u);
  EXPECT_TRUE(result.resolved_groups[1].slots.empty());
  EXPECT_EQ(db_->NumSeries(), 2u);
  EXPECT_EQ(db_->NumGroups(), 1u);

  // The good rows read back; the rejected ones left nothing behind.
  const auto count = [&](std::vector<TagMatcher> matchers) {
    QueryResult q;
    EXPECT_TRUE(
        db_->Query(query::ReadRequest::Range(matchers, 0, kHour), &q).ok());
    std::vector<size_t> sizes;
    for (const SeriesResult& series : q) {
      sizes.push_back(series.timestamps.size());
    }
    return sizes;
  };
  EXPECT_EQ(count({TagMatcher::Equal("metric", "cpu")}),
            (std::vector<size_t>{3}));
  EXPECT_EQ(count({TagMatcher::Equal("metric", "mem")}),
            (std::vector<size_t>{1}));
  EXPECT_EQ(count({TagMatcher::Equal("hostname", "g"),
                   TagMatcher::Equal("metric", "a")}),
            (std::vector<size_t>{3}));
  EXPECT_EQ(count({TagMatcher::Equal("hostname", "g"),
                   TagMatcher::Equal("metric", "b")}),
            (std::vector<size_t>{2}));
  EXPECT_EQ(count({TagMatcher::Equal("hostname", "g"),
                   TagMatcher::Equal("metric", "c")}),
            (std::vector<size_t>{1}));

  // Ref columns of different lengths reject the whole batch, labeled rows
  // included, before any row applies.
  WriteBatch skewed;
  skewed.AddSample(ref, 4 * kMin, 14.0);
  skewed.sample_ts.push_back(5 * kMin);
  skewed.AddSample(SeriesLabels(3, "disk"), kMin, 1.0);
  EXPECT_TRUE(db_->Write(skewed, &result).IsInvalidArgument());
  EXPECT_TRUE(result.first_error.IsInvalidArgument());
  EXPECT_EQ(result.appended, 0u);
  EXPECT_EQ(result.rejected, skewed.NumRows());
  EXPECT_EQ(db_->NumSeries(), 2u);
  EXPECT_EQ(count({TagMatcher::Equal("metric", "cpu")}),
            (std::vector<size_t>{3}));
}

TEST_F(TimeUnionDBTest, MultipleSeriesSelectors) {
  WriteBatch batch;
  for (int host = 0; host < 4; ++host) {
    for (const char* metric : {"cpu", "mem", "disk"}) {
      for (int i = 0; i < 10; ++i) {
        batch.AddSample(SeriesLabels(host, metric), i * kMin,
                        host + i * 0.1);
      }
    }
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  ASSERT_TRUE(db_->RegisterSeries(SeriesLabels(1, "cpu"), &ref).ok());
  const int n = 26 * 60;
  WriteBatch batch;
  for (int i = 0; i < n; ++i) batch.AddSample(ref, i * kMin, 1.0 * i);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  ASSERT_TRUE(db_->RegisterSeries(SeriesLabels(1, "cpu"), &ref).ok());
  WriteBatch batch;
  batch.AddSample(ref, 0, 0.0);
  for (int i = 1; i < 240; ++i) batch.AddSample(ref, i * kMin, 1.0);
  // In-open-chunk out-of-order + duplicate overwrite.
  batch.AddSample(ref, 239 * kMin - 30000, 5.0);
  batch.AddSample(ref, 238 * kMin, 7.0);
  // Far-in-the-past out-of-order (older than the open chunk).
  batch.AddSample(ref, 10 * kMin, 9.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch));

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
  WriteBatch batch;
  WriteResult written;
  batch.AddGroupRow(group_tags, members, 0, {0.0, 0.0, 0.0});
  ASSERT_TRUE(WriteAll(db_.get(), batch, &written));
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  ASSERT_EQ(group.slots.size(), 3u);
  batch.Clear();
  for (int i = 1; i < 50; ++i) {
    batch.AddGroupRow(group.group_ref, group.slots, i * kMin,
                      {1.0 * i, 2.0 * i, 3.0 * i});
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  WriteBatch batch;
  // Round 0: members A, B.
  batch.AddGroupRow(group_tags, {{{"metric", "a"}}, {{"metric", "b"}}}, 0,
                    {1.0, 2.0});
  // Round 1: only A reports (B missing -> NULL).
  batch.AddGroupRow(group_tags, {{{"metric", "a"}}}, kMin, {1.5});
  // Round 2: new member C joins (backfilled NULLs for rounds 0-1).
  batch.AddGroupRow(group_tags,
                    {{{"metric", "a"}}, {{"metric", "b"}}, {{"metric", "c"}}},
                    2 * kMin, {1.7, 2.7, 3.7});
  ASSERT_TRUE(WriteAll(db_.get(), batch));

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
  const int n = 26 * 60;
  WriteBatch batch;
  WriteResult written;
  batch.AddGroupRow(group_tags, members, 0, {0.0, 1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(WriteAll(db_.get(), batch, &written));
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  batch.Clear();
  for (int i = 1; i < n; ++i) {
    std::vector<double> values;
    for (int m = 0; m < 5; ++m) values.push_back(m + i * 0.001);
    batch.AddGroupRow(group.group_ref, group.slots, i * kMin,
                      std::move(values));
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  WriteBatch batch;
  batch.AddSample(SeriesLabels(1, "old"), 0, 1.0);
  batch.AddSample(SeriesLabels(1, "new"), 10 * kHour, 1.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  ASSERT_TRUE(db_->RegisterSeries(SeriesLabels(1, "cpu"), &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < 10; ++i) batch.AddSample(ref, i * kMin, 42.0 + i);
  batch.AddGroupRow({{"hostname", "h"}},
                    {{{"metric", "g1"}}, {{"metric", "g2"}}}, 0, {7.0, 8.0});
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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

  // Writes still work against recovered state.
  batch.Clear();
  batch.AddSample(SeriesLabels(1, "cpu"), 10 * kMin, 99.0);
  batch.AddSample(ref, 11 * kMin, 100.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
}

TEST_F(TimeUnionDBTest, WalRecoverySkipsFlushedData) {
  DBOptions opts = DefaultOptions();
  opts.enable_wal = true;
  Recreate(opts);

  uint64_t ref = 0;
  const int n = 26 * 60;
  ASSERT_TRUE(db_->RegisterSeries(SeriesLabels(1, "cpu"), &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < n; ++i) batch.AddSample(ref, i * kMin, 1.0 * i);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
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
  WriteBatch batch;
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
    batch.AddSample(labels, ts, v);
    reference[key][ts] = v;  // newest write wins, like the DB
  }
  // Rows apply in batch order, so one batch replays the same history.
  ASSERT_TRUE(WriteAll(db_.get(), batch));

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
