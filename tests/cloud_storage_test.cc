#include <gtest/gtest.h>

#include <chrono>

#include "cloud/block_store.h"
#include "cloud/cost_model.h"
#include "cloud/object_store.h"
#include "cloud/tiered_env.h"
#include "util/mmap_file.h"

namespace tu::cloud {
namespace {

class CloudStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = "/tmp/timeunion_test/cloud";
    RemoveDirRecursive(ws_);
  }
  void TearDown() override { RemoveDirRecursive(ws_); }
  std::string ws_;
};

TEST_F(CloudStorageTest, BlockStoreFileLifecycle) {
  BlockStore store(ws_ + "/fast", TierSimOptions::Instant());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(store.NewWritableFile("data.bin", &file).ok());
  ASSERT_TRUE(file->Append("hello ").ok());
  ASSERT_TRUE(file->Append("world").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());

  uint64_t size = 0;
  ASSERT_TRUE(store.GetFileSize("data.bin", &size).ok());
  EXPECT_EQ(size, 11u);

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(store.NewRandomAccessFile("data.bin", &reader).ok());
  Slice result;
  std::string scratch;
  ASSERT_TRUE(reader->Read(6, 5, &result, &scratch).ok());
  EXPECT_EQ(result.ToString(), "world");

  ASSERT_TRUE(store.RenameFile("data.bin", "data2.bin").ok());
  EXPECT_TRUE(store.FileExists("data.bin").IsNotFound());
  EXPECT_TRUE(store.FileExists("data2.bin").ok());
  ASSERT_TRUE(store.DeleteFile("data2.bin").ok());
  EXPECT_TRUE(store.DeleteFile("data2.bin").IsNotFound());
}

TEST_F(CloudStorageTest, BlockStoreCountersAndFirstReadPenalty) {
  TierSimOptions sim;
  sim.per_op_latency_us = 100;
  sim.bandwidth_mb_per_s = 100;
  sim.first_read_penalty = 2.0;
  sim.real_sleep = false;
  BlockStore store(ws_ + "/fast2", sim);

  ASSERT_TRUE(store.WriteStringToFile("f", std::string(1000, 'x')).ok());
  EXPECT_GT(store.counters().bytes_written.load(), 999u);

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(store.NewRandomAccessFile("f", &reader).ok());
  Slice result;
  std::string scratch;
  const uint64_t before = store.counters().charged_us.load();
  reader->Read(0, 1000, &result, &scratch);
  const uint64_t first = store.counters().charged_us.load() - before;
  reader->Read(0, 1000, &result, &scratch);
  const uint64_t second =
      store.counters().charged_us.load() - before - first;
  EXPECT_NEAR(static_cast<double>(first) / second, 2.0, 0.2);
}

TEST_F(CloudStorageTest, ObjectStorePutGetRangeDelete) {
  ObjectStore store(ws_ + "/slow", TierSimOptions::Instant());
  const std::string data = "0123456789abcdef";
  ASSERT_TRUE(store.PutObject("lsm/0001.sst", data).ok());

  std::string out;
  ASSERT_TRUE(store.GetObject("lsm/0001.sst", &out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(store.GetRange("lsm/0001.sst", 10, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
  // Range past the end truncates.
  ASSERT_TRUE(store.GetRange("lsm/0001.sst", 12, 100, &out).ok());
  EXPECT_EQ(out, "cdef");

  uint64_t size = 0;
  ASSERT_TRUE(store.ObjectSize("lsm/0001.sst", &size).ok());
  EXPECT_EQ(size, data.size());
  // Every GetRange is one request (the Eq. 4/6 cost structure).
  EXPECT_EQ(store.counters().get_ops.load(), 3u);

  EXPECT_TRUE(store.GetObject("missing", &out).IsNotFound());
  ASSERT_TRUE(store.DeleteObject("lsm/0001.sst").ok());
  EXPECT_TRUE(store.ObjectExists("lsm/0001.sst").IsNotFound());
}

TEST_F(CloudStorageTest, ObjectStoreGetRangeBoundaries) {
  ObjectStore store(ws_ + "/slow_b", TierSimOptions::Instant());
  const std::string data = "0123456789abcdef";
  ASSERT_TRUE(store.PutObject("k", data).ok());

  std::string out;
  // Short read within bounds succeeds.
  ASSERT_TRUE(store.GetRange("k", 12, 100, &out).ok());
  EXPECT_EQ(out, "cdef");
  // Offset exactly at the object size: nothing there to read.
  EXPECT_TRUE(store.GetRange("k", data.size(), 1, &out).IsInvalidArgument());
  // Offset past the end likewise.
  EXPECT_TRUE(store.GetRange("k", data.size() + 10, 4, &out).IsInvalidArgument());
  // Zero-length reads are fine anywhere (degenerate but harmless).
  ASSERT_TRUE(store.GetRange("k", 0, 0, &out).ok());
  EXPECT_TRUE(out.empty());

  // Empty object: only n == 0 works.
  ASSERT_TRUE(store.PutObject("empty", "").ok());
  ASSERT_TRUE(store.GetRange("empty", 0, 0, &out).ok());
  EXPECT_TRUE(store.GetRange("empty", 0, 1, &out).IsInvalidArgument());
}

TEST_F(CloudStorageTest, BlockStoreReadBoundaries) {
  BlockStore store(ws_ + "/fast_b", TierSimOptions::Instant());
  ASSERT_TRUE(store.WriteStringToFile("f", "hello").ok());

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(store.NewRandomAccessFile("f", &reader).ok());
  Slice result;
  std::string scratch;
  // Short read within bounds succeeds.
  ASSERT_TRUE(reader->Read(3, 100, &result, &scratch).ok());
  EXPECT_EQ(result.ToString(), "lo");
  // Offset at / past EOF with n > 0 is an error.
  EXPECT_TRUE(reader->Read(5, 1, &result, &scratch).IsInvalidArgument());
  EXPECT_TRUE(reader->Read(99, 1, &result, &scratch).IsInvalidArgument());
  // n == 0 is fine (ReadFileToString on an empty file relies on this).
  ASSERT_TRUE(reader->Read(0, 0, &result, &scratch).ok());
  EXPECT_EQ(result.size(), 0u);
}

TEST_F(CloudStorageTest, ObjectStoreRenameObject) {
  ObjectStore store(ws_ + "/slow_r", TierSimOptions::Instant());
  ASSERT_TRUE(store.PutObject("lsm/0001.sst.tmp", "payload").ok());
  ASSERT_TRUE(store.RenameObject("lsm/0001.sst.tmp", "lsm/0001.sst").ok());
  EXPECT_TRUE(store.ObjectExists("lsm/0001.sst.tmp").IsNotFound());
  std::string out;
  ASSERT_TRUE(store.GetObject("lsm/0001.sst", &out).ok());
  EXPECT_EQ(out, "payload");
  EXPECT_TRUE(store.RenameObject("missing", "x").IsNotFound());
}

TEST_F(CloudStorageTest, ObjectStoreListByPrefix) {
  ObjectStore store(ws_ + "/slow2", TierSimOptions::Instant());
  ASSERT_TRUE(store.PutObject("a/1", "x").ok());
  ASSERT_TRUE(store.PutObject("a/2", "x").ok());
  ASSERT_TRUE(store.PutObject("b/1", "x").ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(store.ListObjects("a/", &keys).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a/1", "a/2"}));
  ASSERT_TRUE(store.ListObjects("", &keys).ok());
  EXPECT_EQ(keys.size(), 3u);
}

TEST_F(CloudStorageTest, TieredEnvLayout) {
  TieredEnv env(ws_ + "/env", TieredEnvOptions::Instant());
  ASSERT_TRUE(env.fast().WriteStringToFile("f", "fast data").ok());
  ASSERT_TRUE(env.slow().PutObject("o", "slow data").ok());
  EXPECT_EQ(env.fast().TotalBytesUsed(), 9u);
  EXPECT_EQ(env.slow().TotalBytesUsed(), 9u);
}

TEST(TierSimTest, ChargeFormula) {
  TierSimOptions sim;
  sim.per_op_latency_us = 100;
  sim.bandwidth_mb_per_s = 1;  // 1 B/us
  sim.first_read_penalty = 1.5;
  EXPECT_DOUBLE_EQ(sim.ChargeUs(1000, false), 1100.0);
  EXPECT_DOUBLE_EQ(sim.ChargeUs(1000, true), 1650.0);
  // Defaults: S3 per-request dominates EBS per-request by ~20x.
  const auto ebs = TierSimOptions::EbsDefaults();
  const auto s3 = TierSimOptions::S3Defaults();
  EXPECT_GT(s3.per_op_latency_us / ebs.per_op_latency_us, 10);
}

// Sleeps are paced per thread: a late wake-up shortens the next sleep
// instead of adding to it, so many small charges cost about their sum in
// wall time rather than one timer slack (~50 us on Linux) each.
TEST(TierSimTest, SleepsArePacedPerThread) {
  TierSimOptions sim;
  sim.per_op_latency_us = 5;
  sim.real_sleep = true;
  TierCounters counters;
  constexpr int kOps = 2000;  // 10 ms charged
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    ChargeLatency(sim, &counters, sim.ChargeUs(0, false));
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(counters.charged_us.load(), 5u * kOps);
  // Up to 1 ms carried in from earlier sleeps on this thread may be spent.
  EXPECT_GE(elapsed_ms, 9.0);
  // Unpaced, each 5 us sleep also takes its timer slack: over 100 ms.
  EXPECT_LT(elapsed_ms, 60.0);
}

TEST(CostModelTest, PricingRatios) {
  StoragePricing p;
  EXPECT_NEAR(p.ebs_gp2_per_gb_month / p.s3_per_gb_month, 4.0, 0.5);
  EXPECT_GT(p.ram_per_gb_month / p.ebs_gp2_per_gb_month, 100);
  EXPECT_GT(p.MonthlyCost(1, 0, 0), p.MonthlyCost(0, 1, 0));
  EXPECT_GT(p.MonthlyCost(0, 1, 0), p.MonthlyCost(0, 0, 1));
}

TEST(CostModelTest, GroupingIndexCostMatchesPaperExample) {
  // §3.1: TSBS DevOps: Sg=101, Tu=118, Tg=1, Sp=8, St=15 => grouping
  // beneficial.
  GroupingParams p;
  p.n = 101000;
  p.t = 12;
  p.s_p = 8;
  p.s_t = 15;
  p.s_g = 101;
  p.t_g = 1;
  p.t_u = 118;
  EXPECT_TRUE(GroupingSavesIndexSpace(p));
  EXPECT_LT(IndexCostGrouping(p), IndexCostNoGrouping(p));
  // Degenerate grouping (one series per group, no shared tags' benefit).
  p.s_g = 1;
  p.t_u = 12;
  EXPECT_FALSE(GroupingSavesIndexSpace(p));
}

TEST(CostModelTest, CompactionCostMatchesPaperExample) {
  // §3.3 example: Sb=64MB, M=10, fast=1GB, data=100GB => >= 64GB saved.
  CompactionCostParams c;
  c.s_b = 64e6;
  c.m = 10;
  c.s_fast = 1e9;
  c.s_d = 100e9;
  EXPECT_NEAR(NumLevels(c.s_d, c.s_b, c.m), 4.2, 0.1);
  EXPECT_NEAR(NumLevels(c.s_fast, c.s_b, c.m), 2.2, 0.1);
  EXPECT_GE(SlowWriteCostSaving(c), 64e9 * 0.99);
  EXPECT_GT(SlowWriteCostMultiLevel(c), SlowWriteCostOneLevel(c));
}

TEST(CostModelTest, QueryCostCrossover) {
  // Grouping wins on S3 when the target series share a group (L>G); the
  // individual model wins on EBS for small member counts.
  QueryCostParams q;
  q.p = 12;
  q.s_data = 240 * 16;
  q.l = 5;
  q.g = 1;
  q.s_g = 101;
  EXPECT_LT(QueryCostGroupingS3(q), QueryCostNoGroupingS3(q));
  EXPECT_GT(QueryCostGroupingEbs(q), QueryCostNoGroupingEbs(q));
  // With L == G == 1 the individual model wins on S3 too (Fig. 14's
  // 1-1-24 explanation).
  q.l = 1;
  EXPECT_GT(QueryCostGroupingS3(q), QueryCostNoGroupingS3(q));
}

}  // namespace
}  // namespace tu::cloud
