#include "baseline/tsdb_engine.h"

#include <gtest/gtest.h>

#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace tu::baseline {
namespace {

using index::Labels;
using index::TagMatcher;

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

class TsdbEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(DefaultOptions()); }

  static TsdbOptions DefaultOptions() {
    TsdbOptions opts;
    opts.workspace = "/tmp/timeunion_test/tsdb";
    opts.samples_per_chunk = 120;
    return opts;
  }

  void Recreate(TsdbOptions opts) {
    engine_.reset();
    RemoveDirRecursive(opts.workspace);
    ASSERT_TRUE(TsdbEngine::Open(opts, &engine_).ok());
  }

  void TearDown() override {
    engine_.reset();
    RemoveDirRecursive("/tmp/timeunion_test/tsdb");
  }

  static Labels MakeLabels(int host, const std::string& metric) {
    return Labels{{"hostname", "host_" + std::to_string(host)},
                  {"metric", metric}};
  }

  std::unique_ptr<TsdbEngine> engine_;
};

TEST_F(TsdbEngineTest, HeadInsertAndQuery) {
  uint64_t ref = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine_->Insert(MakeLabels(1, "cpu"), i * kMin, 1.0 * i, &ref).ok());
  }
  std::vector<TsdbSeriesResult> result;
  ASSERT_TRUE(engine_->Query({TagMatcher::Equal("metric", "cpu")}, 0,
                             100 * kMin, &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 100u);
}

TEST_F(TsdbEngineTest, RejectsOutOfOrder) {
  uint64_t ref = 0;
  ASSERT_TRUE(engine_->Insert(MakeLabels(1, "cpu"), 100, 1.0, &ref).ok());
  EXPECT_TRUE(engine_->InsertFast(ref, 50, 2.0).IsNotSupported());
  EXPECT_TRUE(engine_->InsertFast(ref, 100, 2.0).IsNotSupported());
  EXPECT_EQ(engine_->stats().rejected_out_of_order.load(), 2u);
}

TEST_F(TsdbEngineTest, BlocksCutAndRemainQueryable) {
  uint64_t ref = 0;
  ASSERT_TRUE(engine_->Insert(MakeLabels(1, "cpu"), 0, 0.0, &ref).ok());
  const int n = 8 * 60;  // 8 hours -> multiple 2h blocks
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(engine_->InsertFast(ref, i * kMin, 1.0 * i).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());
  EXPECT_GT(engine_->stats().blocks_cut.load(), 1u);

  std::vector<TsdbSeriesResult> result;
  ASSERT_TRUE(engine_->Query({TagMatcher::Equal("metric", "cpu")}, 0,
                             n * kMin, &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(n));
  // Blocks live on the slow tier by default (cloud support).
  EXPECT_GT(engine_->env().slow().counters().put_ops.load(), 0u);
}

TEST_F(TsdbEngineTest, BlockCompactionMergesBlocks) {
  auto opts = DefaultOptions();
  opts.compact_block_count = 2;
  Recreate(opts);
  uint64_t ref = 0;
  ASSERT_TRUE(engine_->Insert(MakeLabels(1, "cpu"), 0, 0.0, &ref).ok());
  for (int i = 1; i < 12 * 60; ++i) {
    ASSERT_TRUE(engine_->InsertFast(ref, i * kMin, 1.0).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());
  EXPECT_GT(engine_->stats().compactions.load(), 0u);

  std::vector<TsdbSeriesResult> result;
  ASSERT_TRUE(engine_->Query({TagMatcher::Equal("metric", "cpu")}, 0,
                             12 * kHour, &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(12 * 60));
}

TEST_F(TsdbEngineTest, LevelDbSampleStorageMode) {
  auto opts = DefaultOptions();
  opts.use_leveldb_samples = true;
  opts.leveled.num_fast_levels = 0;  // SSTables on S3, like tsdb-LDB
  Recreate(opts);

  uint64_t ref = 0;
  ASSERT_TRUE(engine_->Insert(MakeLabels(1, "cpu"), 0, 0.0, &ref).ok());
  for (int i = 1; i < 6 * 60; ++i) {
    ASSERT_TRUE(engine_->InsertFast(ref, i * kMin, 2.0 * i).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());

  std::vector<TsdbSeriesResult> result;
  ASSERT_TRUE(engine_->Query({TagMatcher::Equal("metric", "cpu")}, 0,
                             6 * kHour, &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(6 * 60));
  EXPECT_EQ(result[0].values[100], 200.0);
}

TEST_F(TsdbEngineTest, IndexMemoryGrowsLinearlyWithSeries) {
  MemoryTracker::Global().Reset();
  uint64_t ref = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Register(MakeLabels(i, "cpu"), &ref).ok());
  }
  const int64_t after_100 =
      MemoryTracker::Global().Get(MemCategory::kInvertedIndex);
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(engine_->Register(MakeLabels(i, "cpu"), &ref).ok());
  }
  const int64_t after_200 =
      MemoryTracker::Global().Get(MemCategory::kInvertedIndex);
  EXPECT_GT(after_100, 0);
  // Roughly linear: the second hundred costs within 2x of the first.
  EXPECT_LT(after_200, after_100 * 3);
  EXPECT_GT(after_200, after_100 * 3 / 2);
}

}  // namespace
}  // namespace tu::baseline
