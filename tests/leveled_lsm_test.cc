#include "lsm/leveled_lsm.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloud/fault_injector.h"
#include "compress/chunk.h"
#include "lsm/key_format.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace tu::lsm {
namespace {

class LeveledLsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workspace_ = "/tmp/timeunion_test/leveled_lsm";
    cache_ = std::make_unique<BlockCache>(8 << 20);
    OpenTree(nullptr);
  }

  /// (Re)opens an empty tree whose slow tier consults `slow_fault`
  /// (nullable).
  void OpenTree(std::shared_ptr<cloud::FaultInjector> slow_fault) {
    lsm_.reset();
    env_.reset();
    RemoveDirRecursive(workspace_);
    cloud::TieredEnvOptions env_options = cloud::TieredEnvOptions::Instant();
    env_options.slow_sim.fault = std::move(slow_fault);
    env_ = std::make_unique<cloud::TieredEnv>(workspace_, env_options);
    LeveledLsmOptions opts;
    opts.memtable_bytes = 64 << 10;  // small, to force flushes
    opts.base_level_bytes = 128 << 10;
    opts.l0_compaction_trigger = 3;
    opts.max_output_table_bytes = 64 << 10;
    lsm_ = std::make_unique<LeveledLsm>(env_.get(), "db", opts, cache_.get());
    ASSERT_TRUE(lsm_->Open().ok());
  }

  void TearDown() override {
    lsm_.reset();
    env_.reset();
    RemoveDirRecursive(workspace_);
  }

  std::string workspace_;
  std::unique_ptr<cloud::TieredEnv> env_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<LeveledLsm> lsm_;
};

std::string ChunkValueFor(uint64_t seq, int64_t ts, double v) {
  std::string payload;
  compress::EncodeSeriesChunk(seq, {compress::Sample{ts, v}}, &payload);
  return MakeChunkValue(ChunkType::kSeries, payload);
}

TEST_F(LeveledLsmTest, PutAndScanSurvivesCompactions) {
  // Insert enough to trigger several flushes and compactions.
  std::map<std::pair<uint64_t, int64_t>, double> reference;
  Random rng(1);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t id = rng.Uniform(50);
    const int64_t ts = static_cast<int64_t>(rng.Uniform(1000000));
    const double v = rng.NextDouble();
    if (reference.count({id, ts})) continue;  // keep reference unambiguous
    reference[{id, ts}] = v;
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(id, ts), ChunkValueFor(i, ts, v)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_GT(lsm_->stats().compactions.load(), 0u);

  // Every key must be retrievable through the per-id iterator.
  for (uint64_t id = 0; id < 50; ++id) {
    std::unique_ptr<Iterator> it;
    ASSERT_TRUE(lsm_->NewIteratorForId(id, 0, 1000000, &it).ok());
    std::map<int64_t, double> got;
    for (it->Seek(MakeChunkKey(id, 0)); it->Valid(); it->Next()) {
      const Slice user_key = InternalKeyUserKey(it->key());
      if (ChunkKeyId(user_key) != id) break;
      uint64_t seq;
      std::vector<compress::Sample> samples;
      ASSERT_TRUE(compress::DecodeSeriesChunk(
                      ChunkValuePayload(it->value()), &seq, &samples)
                      .ok());
      for (const auto& s : samples) got.emplace(s.timestamp, s.value);
    }
    for (const auto& [key, v] : reference) {
      if (key.first != id) continue;
      ASSERT_TRUE(got.count(key.second)) << "id=" << id << " ts=" << key.second;
      EXPECT_EQ(got[key.second], v);
    }
  }
}

TEST_F(LeveledLsmTest, DeepLevelsLandOnSlowTier) {
  // Write enough data that levels >= 2 exist; those must be S3 objects.
  const std::string big_value(1024, 'x');
  for (int i = 0; i < 3000; ++i) {
    std::string payload;
    compress::EncodeSeriesChunk(
        i, {compress::Sample{i, static_cast<double>(i)}}, &payload);
    ASSERT_TRUE(lsm_->Put(MakeChunkKey(i % 100, i * 1000),
                          MakeChunkValue(ChunkType::kSeries, payload + big_value))
                    .ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  uint64_t deep_tables = 0;
  for (int level = 2; level < lsm_->num_levels(); ++level) {
    deep_tables += lsm_->NumTables(level);
  }
  ASSERT_GT(deep_tables, 0u) << "test needs enough data to reach level 2";
  EXPECT_GT(env_->slow().counters().put_ops.load(), 0u);
  EXPECT_GT(lsm_->stats().slow_bytes_written.load(), 0u);
}

TEST_F(LeveledLsmTest, FailedCompactionKeepsItsInputs) {
  // Levels >= 2 live on the slow tier, so the first failing slow-tier Put
  // is an L1 -> L2 compaction output. The failed merge must install
  // nothing and remove nothing: every acked key stays readable, and the
  // next compaction retries the same inputs.
  auto fault = std::make_shared<cloud::FaultInjector>();
  OpenTree(fault);
  fault->AddRule(
      cloud::FaultRule::Permanent(cloud::FaultOpMask(cloud::FaultOp::kPut), 1));
  const std::string big_value(1024, 'x');
  std::vector<std::string> acked;
  Status s;
  for (int i = 0; i < 3000 && s.ok(); ++i) {
    std::string payload;
    compress::EncodeSeriesChunk(
        i, {compress::Sample{i, static_cast<double>(i)}}, &payload);
    const std::string key = MakeChunkKey(i % 100, i * 1000);
    s = lsm_->Put(key, MakeChunkValue(ChunkType::kSeries, payload + big_value));
    if (s.ok()) acked.push_back(key);
  }
  ASSERT_FALSE(s.ok()) << "no compaction reached the slow tier";
  EXPECT_EQ(env_->slow().counters().faults_injected.load(), 1u);

  fault->Clear();
  ASSERT_TRUE(lsm_->FlushAll().ok());
  std::unique_ptr<Iterator> it;
  ASSERT_TRUE(lsm_->NewFullIterator(&it).ok());
  std::set<std::string> scanned;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    scanned.insert(InternalKeyUserKey(it->key()).ToString());
  }
  ASSERT_TRUE(it->status().ok());
  size_t missing = 0;
  for (const std::string& key : acked) missing += scanned.count(key) == 0;
  EXPECT_EQ(missing, 0u) << "of " << acked.size() << " acked keys";
}

TEST_F(LeveledLsmTest, DuplicateUserKeysBothSurvive) {
  // Same (id, ts) chunk key twice: the store is a multiset (§ chunk merge
  // happens at sample level in queries).
  ASSERT_TRUE(lsm_->Put(MakeChunkKey(1, 100), ChunkValueFor(1, 100, 1.0)).ok());
  ASSERT_TRUE(lsm_->Put(MakeChunkKey(1, 100), ChunkValueFor(2, 105, 2.0)).ok());
  ASSERT_TRUE(lsm_->FlushAll().ok());

  std::unique_ptr<Iterator> it;
  ASSERT_TRUE(lsm_->NewIteratorForId(1, 0, 1000, &it).ok());
  int count = 0;
  for (it->Seek(MakeChunkKey(1, 0)); it->Valid(); it->Next()) {
    if (ChunkKeyId(InternalKeyUserKey(it->key())) != 1) break;
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST_F(LeveledLsmTest, CompactionStatsTracked) {
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(lsm_->Put(MakeChunkKey(i % 20, i * 100),
                          ChunkValueFor(i, i * 100, 1.0))
                    .ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  const auto& stats = lsm_->stats();
  EXPECT_GT(stats.compactions.load(), 0u);
  EXPECT_GT(stats.tables_read.load(), 0u);
  EXPECT_GT(stats.bytes_written.load(), 0u);
  // Read amplification: on average >= 1 table read per compaction.
  EXPECT_GE(stats.tables_read.load(), stats.compactions.load());
}

}  // namespace
}  // namespace tu::lsm
