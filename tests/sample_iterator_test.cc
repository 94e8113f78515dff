#include <gtest/gtest.h>

#include <map>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

namespace tu::core {
namespace {

using index::TagMatcher;

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

class SampleIteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DBOptions opts;
    opts.workspace = "/tmp/timeunion_test/sample_iter";
    RemoveDirRecursive(opts.workspace);
    opts.lsm.memtable_bytes = 32 << 10;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive("/tmp/timeunion_test/sample_iter");
  }

  /// Drains an iterator into a map, checking ordering.
  std::map<int64_t, double> Drain(SampleIterator* iter) {
    std::map<int64_t, double> out;
    int64_t prev = INT64_MIN;
    while (iter->Valid()) {
      EXPECT_GT(iter->value().timestamp, prev);  // strictly ascending
      prev = iter->value().timestamp;
      out[iter->value().timestamp] = iter->value().value;
      iter->Next();
    }
    EXPECT_TRUE(iter->status().ok());
    return out;
  }

  std::unique_ptr<TimeUnionDB> db_;
};

TEST_F(SampleIteratorTest, StreamsMatchMaterializedQuery) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  const int n = 26 * 60;  // spans head + L0/L1 + L2
  WriteBatch batch;
  for (int i = 0; i < n; ++i) batch.AddSample(ref, i * kMin, 1.0 * i);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  ASSERT_TRUE(db_->Flush().ok());

  QueryResult materialized;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, n * kMin), &materialized)
                  .ok());
  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, n * kMin), &streaming)
                  .ok());
  ASSERT_EQ(streaming.size(), 1u);
  const auto drained = Drain(streaming[0].iter.get());
  const auto& got = materialized[0];
  ASSERT_EQ(drained.size(), got.timestamps.size());
  for (size_t i = 0; i < got.timestamps.size(); ++i) {
    EXPECT_EQ(drained.at(got.timestamps[i]), got.values[i]);
  }
}

TEST_F(SampleIteratorTest, TimeBoundsRespected) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  for (int i = 0; i < 500; ++i) batch.AddSample(ref, i * kMin, 1.0 * i);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 2 * kHour, 3 * kHour), &streaming)
                  .ok());
  const auto drained = Drain(streaming[0].iter.get());
  ASSERT_EQ(drained.size(), 61u);
  EXPECT_EQ(drained.begin()->first, 2 * kHour);
  EXPECT_EQ(drained.rbegin()->first, 3 * kHour);
}

TEST_F(SampleIteratorTest, NewestWinsAcrossOverlappingChunks) {
  uint64_t ref = 0;
  ASSERT_TRUE(db_->RegisterSeries({{"m", "cpu"}}, &ref).ok());
  WriteBatch batch;
  batch.AddSample(ref, 0, 0.0);
  for (int i = 1; i < 300; ++i) batch.AddSample(ref, i * kMin, 1.0);
  // Out-of-order overwrites landing in separate chunks.
  for (int i = 10; i < 50; i += 5) batch.AddSample(ref, i * kMin, 99.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  ASSERT_TRUE(db_->Flush().ok());

  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 0, 300 * kMin), &streaming)
                  .ok());
  const auto drained = Drain(streaming[0].iter.get());
  EXPECT_EQ(drained.at(10 * kMin), 99.0);
  EXPECT_EQ(drained.at(45 * kMin), 99.0);
  EXPECT_EQ(drained.at(11 * kMin), 1.0);
  EXPECT_EQ(drained.size(), 300u);
}

TEST_F(SampleIteratorTest, GroupMemberStreaming) {
  WriteBatch batch;
  WriteResult written;
  batch.AddGroupRow(index::Labels{{"host", "h"}}, {{{"m", "a"}}, {{"m", "b"}}},
                    0, {1.0, 2.0});
  ASSERT_TRUE(WriteAll(db_.get(), batch, &written));
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  batch.Clear();
  for (int i = 1; i < 200; ++i) {
    batch.AddGroupRow(group.group_ref, group.slots, i * kMin,
                      {1.0 + i, 2.0 + i});
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  ASSERT_TRUE(db_->Flush().ok());

  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "b")}, 0, 200 * kMin), &streaming)
                  .ok());
  ASSERT_EQ(streaming.size(), 1u);
  const auto drained = Drain(streaming[0].iter.get());
  ASSERT_EQ(drained.size(), 200u);
  EXPECT_EQ(drained.at(100 * kMin), 102.0);
}

TEST_F(SampleIteratorTest, EmptyRangeIsImmediatelyInvalid) {
  WriteBatch batch;
  batch.AddSample(index::Labels{{"m", "cpu"}}, 0, 1.0);
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "cpu")}, 5 * kHour, 6 * kHour), &streaming)
                  .ok());
  ASSERT_EQ(streaming.size(), 1u);
  EXPECT_FALSE(streaming[0].iter->Valid());
  EXPECT_TRUE(streaming[0].iter->status().ok());
}

TEST_F(SampleIteratorTest, ListTagValues) {
  WriteBatch batch;
  for (const char* host : {"web-01", "web-02", "db-01"}) {
    batch.AddSample(index::Labels{{"hostname", host}, {"metric", "cpu"}}, 0,
                    1.0);
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  std::vector<std::string> values;
  ASSERT_TRUE(db_->ListTagValues("hostname", &values).ok());
  EXPECT_EQ(values,
            (std::vector<std::string>{"db-01", "web-01", "web-02"}));
  ASSERT_TRUE(db_->ListTagValues("nope", &values).ok());
  EXPECT_TRUE(values.empty());
}

class IteratorPropertyTest : public SampleIteratorTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(IteratorPropertyTest, RandomWorkloadStreamEqualsMaterialized) {
  Random rng(GetParam());
  uint64_t ref = 0;
  ASSERT_TRUE(db_->RegisterSeries({{"m", "x"}}, &ref).ok());
  WriteBatch batch;
  batch.AddSample(ref, 0, 0.0);
  for (int i = 0; i < 2000; ++i) {
    int64_t ts = (i / 2) * kMin;
    if (rng.OneIn(8)) ts = rng.Uniform(i + 1) * kMin / 2;
    batch.AddSample(ref, ts, rng.NextDouble());
  }
  ASSERT_TRUE(WriteAll(db_.get(), batch));
  if (GetParam() % 2) ASSERT_TRUE(db_->Flush().ok());

  QueryResult materialized;
  ASSERT_TRUE(db_->Query(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "x")}, 0, 2000 * kMin), &materialized)
                  .ok());
  std::vector<TimeUnionDB::SeriesIterResult> streaming;
  ASSERT_TRUE(db_->QueryIterators(query::ReadRequest::Range(
      {TagMatcher::Equal("m", "x")}, 0, 2000 * kMin), &streaming)
                  .ok());
  const auto drained = Drain(streaming[0].iter.get());
  const auto& got = materialized[0];
  ASSERT_EQ(drained.size(), got.timestamps.size());
  for (size_t i = 0; i < got.timestamps.size(); ++i) {
    EXPECT_EQ(drained.at(got.timestamps[i]), got.values[i])
        << got.timestamps[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratorPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tu::core
