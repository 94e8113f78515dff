// Concurrency and failure-injection tests: background flushing with
// concurrent readers (the pinned-iterator path), and corruption surfacing
// through the query path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cloud/fault_injector.h"
#include "compress/chunk.h"
#include "core/timeunion_db.h"
#include "lsm/key_format.h"
#include "lsm/time_lsm.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu {
namespace {

constexpr int64_t kMin = 60 * 1000;

TEST(ConcurrencyTest, BackgroundFlushWithConcurrentQueries) {
  const std::string ws = "/tmp/timeunion_test/conc_lsm";
  RemoveDirRecursive(ws);
  cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
  lsm::BlockCache cache(8 << 20);
  lsm::TimeLsmOptions opts;
  opts.memtable_bytes = 16 << 10;
  opts.background_flush = true;
  lsm::TimePartitionedLsm tree(&env, "db", opts, &cache);
  ASSERT_TRUE(tree.Open().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> query_errors{0};
  std::atomic<int64_t> watermark{0};

  // Reader thread: repeatedly scans series 1 while the writer churns
  // flushes and compactions underneath it.
  std::thread reader([&] {
    while (!stop.load()) {
      std::unique_ptr<lsm::Iterator> it;
      Status s = tree.NewIteratorForId(1, 0, watermark.load(), &it);
      if (!s.ok()) {
        ++query_errors;
        continue;
      }
      for (it->Seek(lsm::MakeChunkKey(1, 0)); it->Valid(); it->Next()) {
        const Slice user_key = lsm::InternalKeyUserKey(it->key());
        if (lsm::ChunkKeyId(user_key) != 1) break;
        uint64_t seq;
        std::vector<compress::Sample> samples;
        if (!compress::DecodeSeriesChunk(lsm::ChunkValuePayload(it->value()),
                                         &seq, &samples)
                 .ok()) {
          ++query_errors;
          break;
        }
      }
      if (!it->status().ok()) ++query_errors;
    }
  });

  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 8LL * 3600 * 1000; ts += 30'000) {
    for (uint64_t id = 1; id <= 4; ++id) {
      std::string payload;
      compress::EncodeSeriesChunk(++seq, {compress::Sample{ts, 1.0}},
                                  &payload);
      ASSERT_TRUE(
          tree.Put(lsm::MakeChunkKey(id, ts),
                   lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload))
              .ok());
    }
    watermark.store(ts);
  }
  ASSERT_TRUE(tree.FlushAll().ok());
  stop.store(true);
  reader.join();
  EXPECT_EQ(query_errors.load(), 0);

  // Everything inserted is present after the storm.
  std::unique_ptr<lsm::Iterator> it;
  ASSERT_TRUE(tree.NewIteratorForId(1, 0, 8LL * 3600 * 1000, &it).ok());
  size_t total = 0;
  for (it->Seek(lsm::MakeChunkKey(1, 0)); it->Valid(); it->Next()) {
    const Slice user_key = lsm::InternalKeyUserKey(it->key());
    if (lsm::ChunkKeyId(user_key) != 1) break;
    uint64_t s;
    std::vector<compress::Sample> samples;
    ASSERT_TRUE(compress::DecodeSeriesChunk(
                    lsm::ChunkValuePayload(it->value()), &s, &samples)
                    .ok());
    total += samples.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(8 * 120));
  RemoveDirRecursive(ws);
}

TEST(ConcurrencyTest, ParallelInsertersThroughDb) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_db";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  // Register refs up front, then hammer from 4 threads on disjoint series.
  const int kThreads = 4;
  const int kSeriesPerThread = 8;
  const int kSamples = 500;
  std::vector<uint64_t> refs(kThreads * kSeriesPerThread);
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(db->RegisterSeries({{"t", std::to_string(i)}}, &refs[i]).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One row per Write: the writers race per sample.
      core::WriteBatch batch;
      for (int i = 0; i < kSamples; ++i) {
        for (int s = 0; s < kSeriesPerThread; ++s) {
          batch.Clear();
          batch.AddSample(refs[t * kSeriesPerThread + s], i * kMin, t);
          if (!core::WriteAll(db.get(), batch)) ++errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  for (size_t i = 0; i < refs.size(); ++i) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("t", std::to_string(i))}, 0, kSamples * kMin),
                          &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u) << i;
    EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(kSamples)) << i;
  }
  RemoveDirRecursive(opts.workspace);
}

// Checks one queried series: every expected timestamp present exactly once,
// in strictly ascending order.
void ExpectCompleteSeries(const core::QueryResult& result, size_t expected) {
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].timestamps.size(), expected);
  for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
    ASSERT_EQ(result[0].timestamps[i], static_cast<int64_t>(i) * kMin);
    if (i > 0) {
      ASSERT_GT(result[0].timestamps[i],
                result[0].timestamps[i - 1]);
    }
  }
}

// K writer threads, each owning a disjoint set of series: the sharded fast
// path must lose no samples and keep per-series timestamps monotonic.
TEST(ConcurrencyTest, MultiWriterDisjointSeriesLosesNothing) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_disjoint";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 8;
  const int kSeriesPerThread = 4;
  const int kSamples = 400;
  std::vector<uint64_t> refs(kThreads * kSeriesPerThread);
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(
        db->RegisterSeries({{"d", std::to_string(i)}}, &refs[i]).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One row per Write: the writers race per sample.
      core::WriteBatch batch;
      for (int i = 0; i < kSamples; ++i) {
        for (int s = 0; s < kSeriesPerThread; ++s) {
          batch.Clear();
          batch.AddSample(refs[t * kSeriesPerThread + s], i * kMin, t);
          if (!core::WriteAll(db.get(), batch)) ++errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  EXPECT_EQ(db->NumSeries(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("d", std::to_string(i))}, 0, kSamples * kMin),
                          &result)
                    .ok());
    ExpectCompleteSeries(result, kSamples);
  }
  RemoveDirRecursive(opts.workspace);
}

// All writers hammer the SAME series with interleaved timestamp ranges:
// the per-entry lock serializes them, and out-of-order samples (relative
// to whatever another thread just appended) take the too-old single-chunk
// path — either way nothing is lost.
TEST(ConcurrencyTest, MultiWriterSharedSeriesLosesNothing) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_shared";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 4;
  const int kSamplesPerThread = 300;
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"m", "shared"}}, &ref).ok());

  // Thread t owns timestamps t, t+K, t+2K, ... — all threads interleave
  // over one timeline, so appends constantly land out of order.
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::WriteBatch batch;
      for (int i = 0; i < kSamplesPerThread; ++i) {
        const int64_t ts = (static_cast<int64_t>(i) * kThreads + t) * kMin;
        batch.Clear();
        batch.AddSample(ref, ts, 1.0);
        if (!core::WriteAll(db.get(), batch)) ++errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  core::QueryResult result;
  const int total = kThreads * kSamplesPerThread;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("m", "shared")}, 0,
      static_cast<int64_t>(total) * kMin), &result)
                  .ok());
  ExpectCompleteSeries(result, total);
  RemoveDirRecursive(opts.workspace);
}

// Readers + slow-path registrars at full tilt: Query and ListTagValues
// must never error or see a key→ref mapping without its entry while new
// series register concurrently.
TEST(ConcurrencyTest, QueriesDuringSlowPathRegistration) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_register";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kWriters = 4;
  const int kSeriesPerWriter = 200;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load()) {
      core::QueryResult result;
      if (!db->Query(query::ReadRequest::Range(
          {index::TagMatcher::Equal("job", "ingest")}, 0, 1'000'000), &result)
               .ok()) {
        ++errors;
      }
      for (const auto& series : result) {
        if (series.timestamps.empty()) ++errors;
      }
      std::vector<std::string> values;
      if (!db->ListTagValues("s", &values).ok()) ++errors;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      core::WriteBatch batch;
      for (int i = 0; i < kSeriesPerWriter; ++i) {
        const std::string name = std::to_string(t) + "_" + std::to_string(i);
        batch.Clear();
        batch.AddSample(index::Labels{{"job", "ingest"}, {"s", name}}, 60'000,
                        1.0);
        if (!core::WriteAll(db.get(), batch)) ++errors;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0);

  EXPECT_EQ(db->NumSeries(),
            static_cast<uint64_t>(kWriters * kSeriesPerWriter));
  std::vector<std::string> values;
  ASSERT_TRUE(db->ListTagValues("s", &values).ok());
  EXPECT_EQ(values.size(), static_cast<size_t>(kWriters * kSeriesPerWriter));
  RemoveDirRecursive(opts.workspace);
}

// Writers + explicit Flush + retention ticks, all concurrent. Retention's
// watermark sits below every inserted timestamp, so no sample may vanish.
TEST(ConcurrencyTest, ConcurrentFlushAndRetentionTicks) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_flush";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 4;
  const int kSeries = 8;
  const int kSamples = 300;
  std::vector<uint64_t> refs(kSeries);
  for (int i = 0; i < kSeries; ++i) {
    ASSERT_TRUE(db->RegisterSeries({{"f", std::to_string(i)}}, &refs[i]).ok());
  }

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::thread maintainer([&] {
    while (!stop.load()) {
      if (!db->Flush().ok()) ++errors;
      // Watermark below all data: must retire nothing.
      if (!db->ApplyRetention(-1).ok()) ++errors;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Thread t writes series where s % kThreads == t (disjoint).
      core::WriteBatch batch;
      for (int i = 0; i < kSamples; ++i) {
        for (int s = t; s < kSeries; s += kThreads) {
          batch.Clear();
          batch.AddSample(refs[s], i * kMin, t);
          if (!core::WriteAll(db.get(), batch)) ++errors;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  maintainer.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  EXPECT_EQ(db->NumSeries(), static_cast<uint64_t>(kSeries));
  for (int i = 0; i < kSeries; ++i) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("f", std::to_string(i))}, 0, kSamples * kMin),
                          &result)
                    .ok());
    ExpectCompleteSeries(result, kSamples);
  }
  RemoveDirRecursive(opts.workspace);
}

// A read that starts after a write was acked must see it, even while a
// flush turns the memtables holding it into tables: FlushAll keeps each
// drained memtable readable until its tables are installed, so a reader in
// between sees the data twice (deduped), never zero times. The readers
// outnumber the cores so that one now and then reaches the manifest lock
// between the flush's memtable swap and its install.
TEST(ConcurrencyTest, ReadsRacingRepeatedFlushSeeEveryAckedPut) {
  const std::string ws = "/tmp/timeunion_test/conc_flush_visibility";
  constexpr int kReaders = 16;
  constexpr int kRounds = 4;
  constexpr int kPuts = 3000;
  for (int round = 0; round < kRounds; ++round) {
    RemoveDirRecursive(ws);
    cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
    lsm::BlockCache cache(8 << 20);
    lsm::TimeLsmOptions opts;
    opts.memtable_bytes = 64 << 20;  // only FlushAll moves data
    lsm::TimePartitionedLsm tree(&env, "db", opts, &cache);
    ASSERT_TRUE(tree.Open().ok());

    std::atomic<int> acked{0};
    std::atomic<bool> stop{false};
    std::atomic<int> errors{0};
    std::atomic<int> short_reads{0};
    std::thread flusher([&] {
      while (!stop.load()) {
        if (!tree.FlushAll().ok()) ++errors;
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        while (!stop.load()) {
          const int n = acked.load();
          std::unique_ptr<lsm::Iterator> it;
          if (!tree.NewIteratorForId(1, 0, kPuts, &it).ok()) {
            ++errors;
            continue;
          }
          int seen = 0;
          for (it->Seek(lsm::MakeChunkKey(1, 0)); it->Valid(); it->Next()) {
            if (lsm::ChunkKeyId(lsm::InternalKeyUserKey(it->key())) != 1) {
              break;
            }
            ++seen;
          }
          if (seen < n) ++short_reads;
        }
      });
    }
    for (int i = 0; i < kPuts; ++i) {
      std::string payload;
      compress::EncodeSeriesChunk(i + 1, {compress::Sample{i, 1.0}}, &payload);
      ASSERT_TRUE(
          tree.Put(lsm::MakeChunkKey(1, i),
                   lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload))
              .ok());
      acked.store(i + 1);
      // Pace the writer so many flushes interleave with the puts.
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    stop.store(true);
    flusher.join();
    for (auto& t : readers) t.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(short_reads.load(), 0) << "round " << round;
  }
  RemoveDirRecursive(ws);
}

// Multi-writer with the WAL on: the serialized WAL append point must keep
// per-series (id, seq) consistent so a reopen replays to the same state.
TEST(ConcurrencyTest, MultiWriterWithWalSurvivesReopen) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_wal";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  opts.enable_wal = true;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 4;
  const int kSeriesPerThread = 2;
  const int kSamples = 200;
  std::vector<uint64_t> refs(kThreads * kSeriesPerThread);
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(db->RegisterSeries({{"w", std::to_string(i)}}, &refs[i]).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One row per Write: the writers race per sample.
      core::WriteBatch batch;
      for (int i = 0; i < kSamples; ++i) {
        for (int s = 0; s < kSeriesPerThread; ++s) {
          batch.Clear();
          batch.AddSample(refs[t * kSeriesPerThread + s], i * kMin, t);
          if (!core::WriteAll(db.get(), batch)) ++errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->SyncWal().ok());

  // Drop the DB without Flush: everything lives in WAL + whatever the
  // memtables spilled. Reopen must replay it all.
  db.reset();
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  EXPECT_TRUE(db->recovery_report().wal.Clean());
  for (size_t i = 0; i < refs.size(); ++i) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("w", std::to_string(i))}, 0, kSamples * kMin),
                          &result)
                    .ok());
    ExpectCompleteSeries(result, kSamples);
  }
  db.reset();
  RemoveDirRecursive(opts.workspace);
}

// Parallel group fast-path ingest on disjoint groups.
TEST(ConcurrencyTest, MultiWriterGroupFastPath) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_group";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 32 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 4;
  const int kMembers = 3;
  const int kRows = 300;
  std::vector<uint64_t> group_refs(kThreads);
  std::vector<std::vector<uint32_t>> slots(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::vector<index::Labels> members;
    std::vector<double> row;
    for (int m = 0; m < kMembers; ++m) {
      members.push_back({{"core", std::to_string(m)}});
      row.push_back(m);
    }
    core::WriteBatch batch;
    core::WriteResult written;
    batch.AddGroupRow(index::Labels{{"host", std::to_string(t)}}, members, 0,
                      row);
    ASSERT_TRUE(core::WriteAll(db.get(), batch, &written));
    group_refs[t] = written.resolved_groups[0].group_ref;
    slots[t] = written.resolved_groups[0].slots;
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> row(kMembers, t);
      core::WriteBatch batch;
      for (int i = 1; i <= kRows; ++i) {
        batch.Clear();
        batch.AddGroupRow(group_refs[t], slots[t], i * kMin, row);
        if (!core::WriteAll(db.get(), batch)) ++errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  for (int t = 0; t < kThreads; ++t) {
    core::QueryResult result;
    ASSERT_TRUE(
        db->Query(query::ReadRequest::Range(
            {index::TagMatcher::Equal("host", std::to_string(t))}, 0,
            (kRows + 1) * kMin), &result)
            .ok());
    ASSERT_EQ(result.size(), static_cast<size_t>(kMembers));
    for (const auto& series : result) {
      EXPECT_EQ(series.timestamps.size(), static_cast<size_t>(kRows + 1));
    }
  }
  RemoveDirRecursive(opts.workspace);
}

// Eight writers under a 10% transient slow-tier fault rate: every write
// must succeed (retries + deferred uploads absorb the churn) and the
// fault/retry/breaker/deferred counter families must stay mutually
// consistent despite concurrent updates. Runs under TSan via
// scripts/tsan.sh.
TEST(ConcurrencyTest, FaultCountersConsistentUnderConcurrentWriters) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/conc_fault_counters";
  RemoveDirRecursive(opts.workspace);
  auto fi = std::make_shared<cloud::FaultInjector>(17);
  fi->AddRule(cloud::FaultRule::Transient(cloud::kAllFaultOps, 0.10));
  opts.env_options.slow_sim.fault = fi;
  opts.env_options.slow_sim.retry.max_attempts = 8;
  opts.env_options.slow_sim.retry.real_sleep = false;
  opts.env_options.slow_sim.breaker.enabled = true;
  // Tiny partitions so writers drive L2 uploads while the faults fire.
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int kThreads = 8;
  const int kSamples = 400;
  std::vector<uint64_t> refs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(
        db->RegisterSeries({{"w", std::to_string(t)}}, &refs[t]).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::WriteBatch batch;
      for (int i = 0; i < kSamples; ++i) {
        batch.Clear();
        batch.AddSample(refs[t], i * 250LL, 1.0 * i);
        if (!core::WriteAll(db.get(), batch)) ++errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  // Counter consistency: every retry and every give-up was caused by an
  // injected fault (breaker rejections are separate — they are refusals,
  // not faults), and rejections can only exist once the breaker opened.
  const cloud::TierCounters& slow = db->env().slow().counters();
  EXPECT_GT(slow.faults_injected.load(), 0u);
  EXPECT_GT(slow.retries.load(), 0u);
  EXPECT_LE(slow.retries.load() + slow.retry_give_ups.load(),
            slow.faults_injected.load());
  EXPECT_EQ(fi->faults_injected(), slow.faults_injected.load());
  if (slow.breaker_rejections.load() > 0) {
    EXPECT_GT(slow.breaker_opens.load(), 0u);
  }
  EXPECT_EQ(slow.breaker_opens.load(), db->env().slow().breaker().opens());

  // Give-ups park L2 tables on the fast tier; once the faults stop, the
  // drainer uploads them all and the deferred counters reconcile. The loop
  // tolerates a pass skipped by the maintenance tick holding the drain
  // lock or by a breaker cooldown still running down.
  const auto& stats = db->time_lsm()->stats();
  EXPECT_GE(stats.deferred_tables_created.load(),
            stats.deferred_uploads_drained.load());
  fi->Clear();
  for (int i = 0; i < 400 && db->time_lsm()->NumDeferredTables() > 0; ++i) {
    ASSERT_TRUE(db->time_lsm()->DrainDeferredUploads().ok());
    if (db->time_lsm()->NumDeferredTables() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(db->time_lsm()->NumDeferredTables(), 0u);
  EXPECT_EQ(stats.deferred_tables_created.load(),
            stats.deferred_uploads_drained.load());

  // Admission control is off: the snapshot must show no outcomes, and no
  // flush or compaction failed (drain failures during the fault window are
  // only noted).
  const obs::MetricsSnapshot health = db->Metrics();
  EXPECT_EQ(health.CounterOr0("admission.writers_delayed"), 0u);
  EXPECT_EQ(health.CounterOr0("admission.writes_rejected"), 0u);
  EXPECT_EQ(health.CounterOr0("error_handler.errors_by_scope.flush"), 0u);
  EXPECT_EQ(health.CounterOr0("error_handler.errors_by_scope.compaction"), 0u);

  // With the backlog drained every write is durable and fully readable.
  for (int t = 0; t < kThreads; ++t) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("w", std::to_string(t))}, 0,
        kSamples * 250LL), &result)
                    .ok());
    EXPECT_TRUE(result.complete);
    ASSERT_EQ(result.size(), 1u) << t;
    ASSERT_EQ(result[0].timestamps.size(), static_cast<size_t>(kSamples)) << t;
    for (int i = 0; i < kSamples; ++i) {
      ASSERT_EQ(result[0].timestamps[i], i * 250LL) << t;
    }
  }
  RemoveDirRecursive(opts.workspace);
}

TEST(FailureInjectionTest, CorruptedSlowTierObjectSurfacesError) {
  const std::string ws = "/tmp/timeunion_test/conc_corrupt";
  RemoveDirRecursive(ws);
  cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
  lsm::BlockCache cache(8 << 20);
  lsm::TimeLsmOptions opts;
  opts.memtable_bytes = 16 << 10;
  lsm::TimePartitionedLsm tree(&env, "db", opts, &cache);
  ASSERT_TRUE(tree.Open().ok());

  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 12LL * 3600 * 1000; ts += kMin) {
    std::string payload;
    compress::EncodeSeriesChunk(++seq, {compress::Sample{ts, 1.0}}, &payload);
    ASSERT_TRUE(
        tree.Put(lsm::MakeChunkKey(1, ts),
                 lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload))
            .ok());
  }
  ASSERT_TRUE(tree.FlushAll().ok());
  ASSERT_GT(tree.NumL2Partitions(), 0u);

  // Corrupt the middle of every slow-tier object.
  std::vector<std::string> keys;
  ASSERT_TRUE(env.slow().ListObjects("db/", &keys).ok());
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) {
    std::string blob;
    ASSERT_TRUE(env.slow().GetObject(key, &blob).ok());
    blob[blob.size() / 2] ^= 0x77;
    ASSERT_TRUE(env.slow().PutObject(key, blob).ok());
  }

  // Reading old data must fail loudly (checksums), never silently return
  // wrong samples.
  std::unique_ptr<lsm::Iterator> it;
  Status s = tree.NewIteratorForId(1, 0, 2LL * 3600 * 1000, &it);
  bool saw_error = !s.ok();
  if (s.ok()) {
    for (it->Seek(lsm::MakeChunkKey(1, 0)); it->Valid(); it->Next()) {
    }
    saw_error = !it->status().ok();
  }
  EXPECT_TRUE(saw_error);
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
