#include "lsm/time_lsm.h"

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

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

std::string OneSampleChunk(uint64_t seq, int64_t ts, double v) {
  std::string payload;
  compress::EncodeSeriesChunk(seq, {compress::Sample{ts, v}}, &payload);
  return MakeChunkValue(ChunkType::kSeries, payload);
}

class TimeLsmTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(DefaultOptions()); }

  static TimeLsmOptions DefaultOptions() {
    TimeLsmOptions opts;
    opts.l0_partition_ms = 30 * kMin;
    opts.l2_partition_ms = 2 * kHour;
    opts.partition_lower_bound_ms = 15 * kMin;
    opts.memtable_bytes = 32 << 10;
    opts.max_output_table_bytes = 256 << 10;
    opts.l0_partition_trigger = 2;
    opts.patch_threshold = 3;
    return opts;
  }

  void Recreate(const TimeLsmOptions& opts,
                cloud::TieredEnvOptions env_options =
                    cloud::TieredEnvOptions::Instant()) {
    lsm_.reset();
    env_.reset();
    workspace_ = "/tmp/timeunion_test/time_lsm";
    RemoveDirRecursive(workspace_);
    env_ = std::make_unique<cloud::TieredEnv>(workspace_, env_options);
    cache_ = std::make_unique<BlockCache>(8 << 20);
    lsm_ = std::make_unique<TimePartitionedLsm>(env_.get(), "db", opts,
                                                cache_.get());
    ASSERT_TRUE(lsm_->Open().ok());
  }

  void TearDown() override {
    lsm_.reset();
    env_.reset();
    RemoveDirRecursive(workspace_);
  }

  /// Collects all decoded samples of `id` within [t0, t1] (newest-wins on
  /// duplicate timestamps).
  std::map<int64_t, double> Query(uint64_t id, int64_t t0, int64_t t1) {
    std::unique_ptr<Iterator> it;
    EXPECT_TRUE(lsm_->NewIteratorForId(id, t0, t1, &it).ok());
    // Entries arrive keyed ascending; equal user keys newest-seq first.
    // Within a single LSM the same timestamp can appear in multiple chunks;
    // keep the sample from the newest chunk (largest seq).
    std::map<int64_t, std::pair<uint64_t, double>> best;  // ts -> (seq, v)
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const Slice user_key = InternalKeyUserKey(it->key());
      if (ChunkKeyId(user_key) != id) continue;
      uint64_t seq;
      std::vector<compress::Sample> samples;
      EXPECT_TRUE(compress::DecodeSeriesChunk(ChunkValuePayload(it->value()),
                                              &seq, &samples)
                      .ok());
      for (const auto& s : samples) {
        if (s.timestamp < t0 || s.timestamp > t1) continue;
        auto found = best.find(s.timestamp);
        if (found == best.end() || seq >= found->second.first) {
          best[s.timestamp] = {seq, s.value};
        }
      }
    }
    std::map<int64_t, double> out;
    for (const auto& [ts, sv] : best) out[ts] = sv.second;
    return out;
  }

  /// One-sample chunks of series 0..9 every 5 minutes over [from, to),
  /// recorded in `reference_`.
  void PutRange(int64_t from, int64_t to) {
    for (int64_t ts = from; ts < to; ts += 5 * kMin) {
      for (uint64_t id = 0; id < 10; ++id) {
        const double v = static_cast<double>(id) + ts * 1e-9;
        reference_[id][ts] = v;
        ASSERT_TRUE(
            lsm_->Put(MakeChunkKey(id, ts), OneSampleChunk(++seq_, ts, v))
                .ok());
      }
    }
  }

  void ExpectAllSeries(int64_t t0, int64_t t1) {
    for (uint64_t id = 0; id < 10; ++id) {
      std::map<int64_t, double> want(reference_[id].lower_bound(t0),
                                     reference_[id].upper_bound(t1));
      EXPECT_EQ(Query(id, t0, t1), want) << "id=" << id;
    }
  }

  std::map<uint64_t, std::map<int64_t, double>> reference_;
  uint64_t seq_ = 0;
  std::string workspace_;
  std::unique_ptr<cloud::TieredEnv> env_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<TimePartitionedLsm> lsm_;
};

TEST_F(TimeLsmTest, InOrderInsertAndQuery) {
  // 10 series, 6 hours of one-sample chunks every 5 minutes.
  std::map<uint64_t, std::map<int64_t, double>> reference;
  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 6 * kHour; ts += 5 * kMin) {
    for (uint64_t id = 0; id < 10; ++id) {
      const double v = static_cast<double>(id) + ts * 1e-9;
      reference[id][ts] = v;
      ASSERT_TRUE(
          lsm_->Put(MakeChunkKey(id, ts), OneSampleChunk(++seq, ts, v)).ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  for (uint64_t id = 0; id < 10; ++id) {
    EXPECT_EQ(Query(id, 0, 6 * kHour), reference[id]) << "id=" << id;
  }
  // Time-bounded query returns only the window.
  const auto window = Query(3, 2 * kHour, 3 * kHour);
  for (const auto& [ts, v] : window) {
    EXPECT_GE(ts, 2 * kHour);
    EXPECT_LE(ts, 3 * kHour);
  }
  EXPECT_FALSE(window.empty());
}

TEST_F(TimeLsmTest, DataMigratesToSlowTierAsOneLevel) {
  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 12 * kHour; ts += kMin) {
    for (uint64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, 1.0))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  EXPECT_GT(lsm_->NumL2Partitions(), 0u);
  EXPECT_GT(lsm_->SlowBytesUsed(), 0u);
  EXPECT_GT(lsm_->stats().l1_to_l2_compactions.load(), 0u);
  // The single-slow-level design: an in-order workload never reads from
  // the slow tier during compaction (Eq. 9: writes only).
  EXPECT_EQ(env_->slow().counters().get_ops.load(), 0u);

  // Old data is still queryable from L2.
  const auto samples = Query(2, 0, 2 * kHour);
  EXPECT_EQ(samples.size(), static_cast<size_t>(2 * kHour / kMin) + 1);
}

TEST_F(TimeLsmTest, OutOfOrderIntoL0L1MergesInFastTier) {
  uint64_t seq = 0;
  // In-order recent data.
  for (int64_t ts = 0; ts < 2 * kHour; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 1.0)).ok());
  }
  // Out-of-order data into the same recent window (overwrites value).
  for (int64_t ts = 0; ts < kHour; ts += 2 * kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 2.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  const auto samples = Query(1, 0, 2 * kHour);
  for (int64_t ts = 0; ts < kHour; ts += 2 * kMin) {
    EXPECT_EQ(samples.at(ts), 2.0) << "ts=" << ts;  // newest wins
  }
  EXPECT_EQ(samples.at(kMin), 1.0);
}

TEST_F(TimeLsmTest, OutOfOrderIntoL2GeneratesPatches) {
  uint64_t seq = 0;
  // Fill 12 hours so early windows migrate to L2.
  for (int64_t ts = 0; ts < 12 * kHour; ts += kMin) {
    for (uint64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, 1.0))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  ASSERT_GT(lsm_->NumL2Partitions(), 0u);
  const uint64_t slow_gets_before = env_->slow().counters().get_ops.load();

  // Stale data for hour 0 (already in L2).
  for (int64_t ts = 0; ts < kHour; ts += 3 * kMin) {
    for (uint64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, 9.0))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  EXPECT_GT(lsm_->stats().patches_created.load(), 0u);
  // Patch generation appends to L2 without reading existing L2 tables.
  EXPECT_EQ(env_->slow().counters().get_ops.load(), slow_gets_before);

  // Queries see the patched (newest) values.
  const auto samples = Query(2, 0, kHour);
  EXPECT_EQ(samples.at(0), 9.0);
  EXPECT_EQ(samples.at(3 * kMin), 9.0);
  EXPECT_EQ(samples.at(kMin), 1.0);  // untouched timestamps keep old values
}

TEST_F(TimeLsmTest, PatchMergeTriggersBeyondThreshold) {
  auto opts = DefaultOptions();
  opts.patch_threshold = 1;  // merge after the 2nd patch
  Recreate(opts);

  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 12 * kHour; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 1.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  ASSERT_GT(lsm_->NumL2Partitions(), 0u);

  // Repeatedly send stale rounds targeting hour 0.
  for (int round = 0; round < 4; ++round) {
    for (int64_t ts = 0; ts < kHour; ts += 2 * kMin) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(1, ts),
                            OneSampleChunk(++seq, ts, 10.0 + round))
                      .ok());
    }
    ASSERT_TRUE(lsm_->FlushAll().ok());
  }
  EXPECT_GT(lsm_->stats().patch_merges.load(), 0u);

  const auto samples = Query(1, 0, kHour);
  EXPECT_EQ(samples.at(0), 13.0);  // last round wins
}

TEST_F(TimeLsmTest, RetentionDropsOldPartitions) {
  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 12 * kHour; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 1.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  const size_t l2_before = lsm_->NumL2Partitions();
  ASSERT_GT(l2_before, 1u);

  ASSERT_TRUE(lsm_->ApplyRetention(4 * kHour).ok());
  EXPECT_LT(lsm_->NumL2Partitions(), l2_before);
  EXPECT_GT(lsm_->stats().partitions_retired.load(), 0u);

  EXPECT_TRUE(Query(1, 0, 4 * kHour - kMin).empty());
  EXPECT_FALSE(Query(1, 5 * kHour, 6 * kHour).empty());
}

TEST_F(TimeLsmTest, DynamicSizeControlShrinksPartitions) {
  auto opts = DefaultOptions();
  opts.fast_storage_limit_bytes = 32 << 10;  // very tight budget
  Recreate(opts);

  const int64_t initial_len = lsm_->l0_partition_ms();
  uint64_t seq = 0;
  Random rng(5);
  for (int64_t ts = 0; ts < 4 * kHour; ts += 10 * 1000) {
    for (uint64_t id = 0; id < 16; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, rng.NextDouble()))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_LT(lsm_->l0_partition_ms(), initial_len);
  EXPECT_GE(lsm_->l0_partition_ms(), opts.partition_lower_bound_ms);
}

TEST_F(TimeLsmTest, BackgroundFlushMatchesInline) {
  auto opts = DefaultOptions();
  opts.background_flush = true;
  Recreate(opts);

  std::map<int64_t, double> reference;
  uint64_t seq = 0;
  Random rng(3);
  for (int64_t ts = 0; ts < 6 * kHour; ts += kMin) {
    const double v = rng.NextDouble();
    reference[ts] = v;
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, v)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_EQ(Query(1, 0, 6 * kHour), reference);
}

TEST_F(TimeLsmTest, GroupChunksSurviveCompactions) {
  uint64_t seq = 0;
  auto put_group = [&](int64_t ts, double base) {
    std::vector<compress::GroupRow> rows(1);
    rows[0].timestamp = ts;
    rows[0].values = {base, base + 1, std::nullopt};
    std::string payload;
    compress::EncodeGroupChunk(++seq, 3, rows, &payload);
    return lsm_->Put(MakeChunkKey(100, ts),
                     MakeChunkValue(ChunkType::kGroup, payload));
  };
  for (int64_t ts = 0; ts < 8 * kHour; ts += kMin) {
    ASSERT_TRUE(put_group(ts, static_cast<double>(ts / kMin)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  std::unique_ptr<Iterator> it;
  ASSERT_TRUE(lsm_->NewIteratorForId(100, 0, kHour, &it).ok());
  size_t rows_seen = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (ChunkKeyId(InternalKeyUserKey(it->key())) != 100) continue;
    ASSERT_EQ(ChunkValueType(it->value()), ChunkType::kGroup);
    std::vector<compress::Sample> member1;
    ASSERT_TRUE(compress::DecodeGroupMember(ChunkValuePayload(it->value()), 1,
                                            &member1)
                    .ok());
    for (const auto& s : member1) {
      if (s.timestamp <= kHour) {
        EXPECT_EQ(s.value, static_cast<double>(s.timestamp / kMin) + 1);
        ++rows_seen;
      }
    }
  }
  EXPECT_EQ(rows_seen, static_cast<size_t>(kHour / kMin) + 1);
}

TEST_F(TimeLsmTest, FlushAndCompactionWriteEachTableWithOnePut) {
  // Every table lands with one fast-tier write: tables written (live now,
  // minus live before, plus inputs deleted) equals the puts issued.
  const cloud::TierCounters& fast = env_->fast().counters();
  auto expect_one_put_per_table = [&](auto&& step) {
    const uint64_t puts = fast.put_ops.load();
    const uint64_t deletes = fast.delete_ops.load();
    const size_t live = lsm_->ListTables().size();
    step();
    const uint64_t written =
        lsm_->ListTables().size() - live + (fast.delete_ops.load() - deletes);
    EXPECT_GT(written, 0u);
    EXPECT_EQ(fast.put_ops.load() - puts, written);
  };
  // A flush: two L0 partitions, no compaction (the trigger is 2).
  expect_one_put_per_table([&] {
    PutRange(0, kHour);
    ASSERT_TRUE(lsm_->FlushAll().ok());
  });
  ASSERT_EQ(lsm_->stats().l0_to_l1_compactions.load(), 0u);
  // A flush plus an L0->L1 compaction of the oldest partition.
  expect_one_put_per_table([&] {
    PutRange(kHour, 90 * kMin);
    ASSERT_TRUE(lsm_->FlushAll().ok());
  });
  EXPECT_GT(lsm_->stats().l0_to_l1_compactions.load(), 0u);
  ExpectAllSeries(0, 90 * kMin);
}

TEST_F(TimeLsmTest, CompactionNeitherReadsNorFillsBlockCache) {
  PutRange(0, kHour);
  ASSERT_TRUE(lsm_->FlushAll().ok());
  ASSERT_EQ(lsm_->NumL0Partitions(), 2u);
  // Queries open the readers on the handles and fill the cache.
  ExpectAllSeries(0, kHour);
  const uint64_t inserts = cache_->inserts();
  const uint64_t lookups = cache_->hits() + cache_->misses();
  ASSERT_GT(inserts, 0u);

  // A third partition pushes the oldest through L0->L1: the compaction
  // scans inputs whose readers the queries opened, without the cache.
  PutRange(kHour, 90 * kMin);
  ASSERT_TRUE(lsm_->FlushAll().ok());
  ASSERT_GT(lsm_->stats().l0_to_l1_compactions.load(), 0u);
  EXPECT_EQ(cache_->inserts(), inserts);
  EXPECT_EQ(cache_->hits() + cache_->misses(), lookups);
  ExpectAllSeries(0, 90 * kMin);
}

TEST_F(TimeLsmTest, FailedCompactionLeavesInputsReadThroughCache) {
  auto fault = std::make_shared<cloud::FaultInjector>(5);
  cloud::TieredEnvOptions env_options = cloud::TieredEnvOptions::Instant();
  env_options.fast_sim.fault = fault;
  Recreate(DefaultOptions(), env_options);

  // Two L0 partitions nobody has queried: the compaction below opens its
  // own readers for them.
  PutRange(0, kHour);
  ASSERT_TRUE(lsm_->FlushAll().ok());
  // The flush of a third partition appends once; the compaction it
  // triggers fails on its first output append.
  fault->AddRule(cloud::FaultRule::Permanent(
      cloud::FaultOpMask(cloud::FaultOp::kAppend), 2, "db/"));
  PutRange(kHour, 90 * kMin);
  ASSERT_FALSE(lsm_->FlushAll().ok());
  ASSERT_EQ(lsm_->stats().l0_to_l1_compactions.load(), 0u);
  ASSERT_EQ(lsm_->NumL0Partitions(), 3u);

  // The restored victim partition serves queries through the cache: the
  // first read fills it, the second hits it.
  const uint64_t inserts = cache_->inserts();
  ExpectAllSeries(0, 29 * kMin);
  EXPECT_GT(cache_->inserts(), inserts);
  const uint64_t hits = cache_->hits();
  ExpectAllSeries(0, 29 * kMin);
  EXPECT_GT(cache_->hits(), hits);

  // The retry compacts.
  fault->Clear();
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_GT(lsm_->stats().l0_to_l1_compactions.load(), 0u);
  ExpectAllSeries(0, 90 * kMin);
}

}  // namespace
}  // namespace tu::lsm
