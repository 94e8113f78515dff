// Segmented WAL suite (`ctest -L fault`):
//   - Record codec: every record type round-trips; sample runs are encoded
//     columnar (delta-of-delta timestamps, XOR values) and keep NaN/±inf
//     bit-exact.
//   - Segment lifecycle: a sealed segment is unlinked only when every id in
//     it is covered by a flush mark, and only as a prefix of the log;
//     registrations live in REGISTRY and survive any deletion.
//   - Damage: a torn tail in the last segment is benign; a bad frame in a
//     middle segment stops replay there and is reported.
//   - DB level: replay parity under a seeded fuzz (seq gaps, duplicates,
//     rejected rows, out-of-order and too-old samples, group rows, NaN/±inf),
//     the live-log budget forcing a flush, and a legacy single-file WAL
//     being refused at Open.
#include "core/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu::core {
namespace {

constexpr char kDir[] = "wal";

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = "/tmp/timeunion_test/wal";
    RemoveDirRecursive(ws_);
    store_ = std::make_unique<cloud::BlockStore>(
        ws_, cloud::TierSimOptions::Instant());
  }
  void TearDown() override {
    store_.reset();
    RemoveDirRecursive(ws_);
  }

  /// A writer over whatever the directory holds.
  std::unique_ptr<WalWriter> OpenWriter(uint64_t segment_bytes) {
    WalLog log;
    EXPECT_TRUE(WalLog::Load(store_.get(), kDir, &log).ok());
    auto writer =
        std::make_unique<WalWriter>(store_.get(), kDir, segment_bytes);
    EXPECT_TRUE(writer->Open(log).ok());
    return writer;
  }

  /// Every data and mark record, in log order.
  std::vector<WalRecord> Replay(WalLog* log) {
    std::vector<WalRecord> records;
    EXPECT_TRUE(WalLog::Load(store_.get(), kDir, log).ok());
    EXPECT_TRUE(log->ForEachRecord([&](const WalRecord& r) {
                     records.push_back(r);
                     return Status::OK();
                   })
                    .ok());
    return records;
  }

  std::vector<std::string> SegmentFiles() {
    std::vector<std::string> names, segments;
    EXPECT_TRUE(store_->ListDir(kDir, &names).ok());
    for (const std::string& n : names) {
      if (n.size() > 4 && n.compare(n.size() - 4, 4, ".seg") == 0) {
        segments.push_back(n);
      }
    }
    std::sort(segments.begin(), segments.end());
    return segments;
  }

  /// Adds a run of `n` samples for `id`: seqs base_seq.., ts 1000*seq.
  static void AddRun(WalBatch* batch, uint64_t id, uint64_t base_seq,
                     size_t n) {
    std::vector<int64_t> ts;
    std::vector<double> vs;
    for (size_t k = 0; k < n; ++k) {
      ts.push_back(static_cast<int64_t>(1000 * (base_seq + k)));
      vs.push_back(0.5 * static_cast<double>(base_seq + k));
    }
    batch->AddSampleRun(id, base_seq, ts.data(), vs.data(), n);
  }

  static WalBatch Samples(uint64_t id, uint64_t base_seq, size_t n) {
    WalBatch batch;
    AddRun(&batch, id, base_seq, n);
    return batch;
  }

  static WalRecord Register(uint64_t id, const std::string& name) {
    WalRecord r;
    r.type = WalRecordType::kRegisterSeries;
    r.id = id;
    r.labels = {{"metric", name}};
    return r;
  }

  std::string ws_;
  std::unique_ptr<cloud::BlockStore> store_;
};

TEST_F(WalTest, AllRecordTypesRoundTrip) {
  auto writer = OpenWriter(WalWriter::kSegmentBytes);

  WalRecord reg = Register(7, "cpu");
  reg.labels.push_back({"host", "a"});
  ASSERT_TRUE(writer->AppendRegistration(reg).ok());
  WalRecord greg;
  greg.type = WalRecordType::kRegisterGroup;
  greg.id = 8;
  greg.labels = {{"hostname", "h1"}};
  ASSERT_TRUE(writer->AppendRegistration(greg).ok());
  WalRecord member;
  member.type = WalRecordType::kRegisterMember;
  member.id = 8;
  member.slot = 3;
  member.labels = {{"metric", "mem"}};
  ASSERT_TRUE(writer->AppendRegistration(member).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<int64_t> ts = {-123456, -123000, 0, 5, 1'000'000'000'000};
  const std::vector<double> vs = {3.25, nan, inf, -inf, -0.0};
  WalBatch batch;
  batch.AddSampleRun(7, 42, ts.data(), vs.data(), ts.size());
  batch.AddGroupRow(8, 43, 1000, {0, 3}, {1.5, nan});
  EXPECT_EQ(batch.entries(), ts.size() + 1);
  ASSERT_TRUE(writer->Append(batch).ok());
  ASSERT_TRUE(writer->AppendMarks({{7, 44}, {8, 43}}).ok());
  ASSERT_TRUE(writer->Sync().ok());

  WalLog log;
  const auto records = Replay(&log);
  const WalReplayStats& stats = log.stats();
  // An intact log replays clean: boundary EOF, nothing dropped.
  EXPECT_TRUE(stats.Clean());
  EXPECT_TRUE(stats.clean_eof);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.records_applied, 6u);
  EXPECT_EQ(stats.records_dropped, 0u);

  ASSERT_EQ(log.registrations().size(), 3u);
  EXPECT_EQ(log.registrations()[0].labels.size(), 2u);
  EXPECT_EQ(log.registrations()[2].slot, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kSampleRun);
  EXPECT_EQ(records[0].id, 7u);
  EXPECT_EQ(records[0].seq, 42u);
  EXPECT_EQ(records[0].timestamps, ts);
  ASSERT_EQ(records[0].values.size(), vs.size());
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(Bits(records[0].values[i]), Bits(vs[i])) << i;
  }
  EXPECT_EQ(records[1].type, WalRecordType::kGroupRow);
  EXPECT_EQ(records[1].ts, 1000);
  EXPECT_EQ(records[1].slots, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Bits(records[1].values[1]), Bits(nan));
  EXPECT_EQ(records[2].type, WalRecordType::kFlushMarks);
  EXPECT_EQ(records[2].marks, (SeqMarks{{7, 44}, {8, 43}}));

  // The replay index: marks per id, and where each head's seq resumes.
  EXPECT_EQ(log.mark(7), 44u);
  EXPECT_EQ(log.mark(9), 0u);
  EXPECT_EQ(log.seq_floor(7), 46u);  // samples 42..46
  EXPECT_EQ(log.seq_floor(8), 43u);
}

TEST_F(WalTest, SampleRunsAreCompact) {
  // 25 regularly spaced samples of monitoring-shaped values: the run costs
  // a fraction of the 8-byte timestamp + 8-byte value it carries per sample.
  std::vector<int64_t> ts;
  std::vector<double> vs;
  for (int k = 0; k < 25; ++k) {
    ts.push_back(1'700'000'000'000 + 10'000 * k);
    vs.push_back(std::floor(50 + 30 * std::sin(k / 5.0)) + (k % 7) * 0.25);
  }
  WalBatch batch;
  batch.AddSampleRun(10100, 1'000'000, ts.data(), vs.data(), ts.size());
  EXPECT_LT(batch.data().size(), 25u * 8);  // under 8 B/sample, framed
}

TEST_F(WalTest, PrefixDeletionOnlyWhenEveryIdCovered) {
  // Segments smaller than any batch: every batch seals the one before.
  auto writer = OpenWriter(/*segment_bytes=*/64);
  ASSERT_TRUE(writer->AppendRegistration(Register(1, "a")).ok());
  ASSERT_TRUE(writer->AppendRegistration(Register(2, "b")).ok());
  // Segment 1: ids 1 and 2. Segment 2: id 1 only. Segment 3: id 1 (active).
  WalBatch both;
  AddRun(&both, 1, 1, 10);
  AddRun(&both, 2, 1, 10);
  ASSERT_TRUE(writer->Append(both).ok());
  ASSERT_TRUE(writer->Append(Samples(1, 11, 10)).ok());
  ASSERT_TRUE(writer->Append(Samples(1, 21, 10)).ok());
  ASSERT_EQ(SegmentFiles().size(), 3u);

  // Id 1 fully covered, id 2 not: segment 2 is covered but segment 1 is
  // not, and only a prefix is ever deleted.
  ASSERT_TRUE(writer->AppendMarks({{1, 30}}).ok());
  EXPECT_EQ(SegmentFiles().size(), 3u);
  uint64_t oldest = 0;
  EXPECT_EQ(writer->PinningIds(&oldest), (SeqMarks{{2, 10}}));
  EXPECT_EQ(oldest, 1u);

  // A mark below id 2's newest seq in segment 1 still does not cover it.
  ASSERT_TRUE(writer->AppendMarks({{2, 9}}).ok());
  EXPECT_EQ(SegmentFiles().size(), 3u);

  // Covering id 2 frees segments 1 and 2 — and the active segment, whose
  // only data (id 1) is covered too, is retired for a fresh one.
  ASSERT_TRUE(writer->AppendMarks({{2, 10}}).ok());
  const auto left = SegmentFiles();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], "000000000004.seg");
  EXPECT_EQ(writer->live_bytes(), 0u);

  // Nothing left to replay but the registrations.
  WalLog log;
  EXPECT_TRUE(Replay(&log).empty());
  EXPECT_EQ(log.registrations().size(), 2u);
}

TEST_F(WalTest, RegistrationsSurviveSegmentDeletionAndReopen) {
  {
    auto writer = OpenWriter(/*segment_bytes=*/64);
    for (uint64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(
          writer->AppendRegistration(Register(id, std::to_string(id))).ok());
      ASSERT_TRUE(writer->Append(Samples(id, 1, 12)).ok());
    }
    ASSERT_TRUE(writer->AppendMarks({{1, 12}, {2, 12}, {3, 12}}).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Reopen: REGISTRY is appended to, not rewritten; a new active segment
  // follows the inherited ones until they are dropped.
  {
    WalLog log;
    ASSERT_TRUE(WalLog::Load(store_.get(), kDir, &log).ok());
    EXPECT_EQ(log.registrations().size(), 3u);
    WalWriter writer(store_.get(), kDir, 64);
    ASSERT_TRUE(writer.Open(log).ok());
    ASSERT_TRUE(writer.AppendRegistration(Register(4, "4")).ok());
    ASSERT_TRUE(writer.Append(Samples(4, 1, 3)).ok());
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.DropReplayedSegments().ok());
  }
  WalLog log;
  const auto records = Replay(&log);
  EXPECT_EQ(log.registrations().size(), 4u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 4u);
}

TEST_F(WalTest, TornTailInLastSegmentTolerated) {
  auto writer = OpenWriter(WalWriter::kSegmentBytes);
  ASSERT_TRUE(writer->AppendRegistration(Register(1, "a")).ok());
  ASSERT_TRUE(writer->Append(Samples(1, 1, 4)).ok());
  ASSERT_TRUE(writer->Append(Samples(1, 5, 4)).ok());
  ASSERT_TRUE(writer->Sync().ok());

  // Chop bytes off the tail (torn final write).
  const std::string seg = std::string(kDir) + "/" + SegmentFiles().back();
  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(seg, &contents).ok());
  contents.resize(contents.size() - 5);
  ASSERT_TRUE(store_->WriteStringToFile(seg, contents).ok());

  WalLog log;
  const auto records = Replay(&log);
  ASSERT_EQ(records.size(), 1u);  // the intact record survives
  EXPECT_EQ(records[0].seq, 1u);
  // A torn tail is the benign crash-mid-append shape, not corruption.
  EXPECT_TRUE(log.stats().Clean());
  EXPECT_TRUE(log.stats().torn_tail);
  EXPECT_FALSE(log.stats().clean_eof);
  EXPECT_EQ(log.stats().records_dropped, 0u);
  EXPECT_EQ(log.seq_floor(1), 4u);
}

TEST_F(WalTest, MidLogCorruptionInMiddleSegmentStopsReplay) {
  // Single-sample records frame to 30 bytes: three per segment, five
  // segments.
  auto writer = OpenWriter(/*segment_bytes=*/90);
  ASSERT_TRUE(writer->AppendRegistration(Register(1, "a")).ok());
  for (uint64_t seq = 1; seq <= 15; ++seq) {
    ASSERT_TRUE(writer->Append(Samples(1, seq, 1)).ok());
  }
  ASSERT_TRUE(writer->Sync().ok());
  const auto segments = SegmentFiles();
  ASSERT_EQ(segments.size(), 5u);

  // Corrupt the second record of segment 2.
  const std::string seg = std::string(kDir) + "/" + segments[1];
  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(seg, &contents).ok());
  const uint64_t frame = contents.size() / 3;  // identical-size records
  ASSERT_TRUE(store_->CorruptFileAtRest(seg, frame + 12).ok());

  WalLog log;
  const auto records = Replay(&log);
  // Segment 1 and the first record of segment 2 are applied; replay stops
  // at the bad frame and counts everything after it as dropped.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().seq, 4u);
  const WalReplayStats& stats = log.stats();
  EXPECT_FALSE(stats.Clean());
  EXPECT_EQ(stats.corruption_file, seg);
  EXPECT_EQ(stats.corruption_offset, frame);
  EXPECT_EQ(stats.records_dropped, 10u);  // 1 in segment 2, 9 after it
  EXPECT_EQ(stats.records_applied, 5u);   // + the registration
  EXPECT_NE(stats.ToString().find("corruption_at="), std::string::npos);
  // Nothing past the damage feeds the replay index either.
  EXPECT_EQ(log.seq_floor(1), 4u);
}

TEST_F(WalTest, LegacySingleFileWalRefused) {
  ASSERT_TRUE(store_->WriteStringToFile("WAL", "old records").ok());
  WalLog log;
  const Status s = WalLog::Load(store_.get(), kDir, &log);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find(ws_ + "/WAL"), std::string::npos);
}

// -- DB level ----------------------------------------------------------------

DBOptions WalDbOptions(const std::string& ws) {
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 4 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;
  opts.wal_purge_bytes = 16 << 10;
  return opts;
}

TEST(WalDbTest, LegacyWalFailsOpenNamingTheFile) {
  const std::string ws = "/tmp/timeunion_test/wal_legacy";
  RemoveDirRecursive(ws);
  {
    cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
    ASSERT_TRUE(env.fast().WriteStringToFile("WAL", "unflushed").ok());
  }
  std::unique_ptr<TimeUnionDB> db;
  const Status s = TimeUnionDB::Open(WalDbOptions(ws), &db);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("/WAL"), std::string::npos) << s.ToString();
  RemoveDirRecursive(ws);
}

/// Every series (and group member) the DB answers for, bit-exact.
std::map<std::string, std::vector<std::pair<int64_t, uint64_t>>> Dump(
    TimeUnionDB* db) {
  std::map<std::string, std::vector<std::pair<int64_t, uint64_t>>> out;
  QueryResult result;
  EXPECT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Regex("metric", ".*")}, 0, int64_t{1} << 40), &result)
                  .ok());
  for (const SeriesResult& s : result) {
    auto& samples = out[index::LabelsKey(s.labels)];
    for (size_t i = 0; i < s.timestamps.size(); ++i) {
      samples.emplace_back(s.timestamps[i], Bits(s.values[i]));
    }
  }
  return out;
}

// Random batches that exercise every path feeding the log: runs split by
// partition crossings (seq gaps), same-timestamp rewrites, out-of-order and
// too-old samples, rows for unknown refs, group rows, NaN/±inf. Closing the
// DB without Flush leaves the open chunks to the WAL; each reopen must
// answer bit-for-bit what the DB answered before.
TEST(WalDbTest, ColumnarReplayParityFuzz) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    const std::string ws =
        "/tmp/timeunion_test/wal_fuzz_" + std::to_string(seed);
    RemoveDirRecursive(ws);
    std::mt19937_64 rng(seed);
    auto pick = [&](uint64_t n) { return rng() % n; };
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               -0.0};
    auto value = [&]() -> double {
      if (pick(10) == 0) return specials[pick(4)];
      return std::floor(static_cast<double>(pick(10000))) / 8.0;
    };

    std::map<std::string, std::vector<std::pair<int64_t, uint64_t>>> before;
    {
      std::unique_ptr<TimeUnionDB> db;
      ASSERT_TRUE(TimeUnionDB::Open(WalDbOptions(ws), &db).ok());
      std::vector<uint64_t> refs;
      for (int s = 0; s < 6; ++s) {
        uint64_t ref = 0;
        ASSERT_TRUE(
            db->RegisterSeries({{"metric", "m" + std::to_string(s)}}, &ref)
                .ok());
        refs.push_back(ref);
      }
      std::vector<int64_t> next_ts(refs.size(), 0);
      int64_t group_ts = 0;
      for (int round = 0; round < 60; ++round) {
        WriteBatch batch;
        for (int run = 0; run < 4; ++run) {
          const size_t s = pick(refs.size());
          const int len = 1 + static_cast<int>(pick(12));
          for (int k = 0; k < len; ++k) {
            int64_t ts;
            switch (pick(10)) {
              case 0:  // rewrite a recent timestamp
                ts = std::max<int64_t>(0, next_ts[s] - 250);
                break;
              case 1:  // too old for the open chunk
                ts = static_cast<int64_t>(pick(
                    static_cast<uint64_t>(std::max<int64_t>(1, next_ts[s]))));
                break;
              default:
                next_ts[s] += 250 * (1 + static_cast<int64_t>(pick(3)));
                ts = next_ts[s];
            }
            batch.AddSample(refs[s], ts, value());
          }
        }
        if (pick(4) == 0) batch.AddSample(999'999, 1, 1.0);  // rejected row
        if (pick(2) == 0) {
          group_ts += 250;
          std::vector<index::Labels> members = {{{"metric", "g0"}},
                                                {{"metric", "g1"}}};
          batch.AddGroupRow({{"group", "g"}}, members, group_ts,
                            {value(), value()});
        }
        WriteResult result;
        ASSERT_TRUE(db->Write(batch, &result).ok());
        if (round % 20 == 19) {
          ASSERT_TRUE(db->SyncWal().ok());
        }
      }
      ASSERT_TRUE(db->SyncWal().ok());
      before = Dump(db.get());
      ASSERT_FALSE(before.empty());
    }
    for (int reopen = 0; reopen < 2; ++reopen) {
      std::unique_ptr<TimeUnionDB> db;
      ASSERT_TRUE(TimeUnionDB::Open(WalDbOptions(ws), &db).ok());
      EXPECT_TRUE(db->recovery_report().wal.Clean());
      EXPECT_EQ(Dump(db.get()), before)
          << "seed " << seed << " reopen " << reopen;
    }
    RemoveDirRecursive(ws);
  }
}

// One idle series keeps its only sample in an open chunk forever, so no
// flush mark ever covers the segment holding it. Past the live-log budget
// the DB must close that chunk and flush, instead of letting the log grow.
TEST(WalDbTest, LiveLogBudgetForcesFlush) {
  const std::string ws = "/tmp/timeunion_test/wal_budget";
  RemoveDirRecursive(ws);
  DBOptions opts = WalDbOptions(ws);
  opts.samples_per_chunk = 32;
  opts.lsm.l0_partition_ms = 1 << 30;  // no partition crossings
  opts.wal_purge_bytes = 8 << 10;      // 2 KiB segments
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    uint64_t busy = 0;
    core::WriteBatch batch;
    batch.AddSample(index::Labels{{"metric", "idle"}}, 0, 42.0);
    ASSERT_TRUE(core::WriteAll(db.get(), batch));
    ASSERT_TRUE(db->RegisterSeries({{"metric", "busy"}}, &busy).ok());
    // One row per Write: the budget is checked after each call.
    for (int i = 1; i <= 4000; ++i) {
      batch.Clear();
      batch.AddSample(busy, i * 1000LL, 0.1 * i);
      ASSERT_TRUE(core::WriteAll(db.get(), batch));
    }
    const obs::MetricsSnapshot snap = db->Metrics();
    EXPECT_GE(snap.CounterOr0("wal.forced_flushes"), 1u);
    EXPECT_GT(snap.CounterOr0("wal.segments_deleted"), 0u);
    // Bounded: the budget plus the segment being filled, give or take one.
    EXPECT_LE(snap.GaugeOr0("wal.live_bytes"), (8 << 10) + 2 * (2 << 10));
    ASSERT_TRUE(db->SyncWal().ok());
  }
  // The idle sample was flushed, not dropped.
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "idle")}, 0, 10), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].values.size(), 1u);
  EXPECT_EQ(result[0].values[0], 42.0);
  RemoveDirRecursive(ws);
}

// A full Flush covers every record, so the log shrinks to an empty active
// segment plus REGISTRY, and the instruments say so.
TEST(WalDbTest, FlushRetiresEverySegment) {
  const std::string ws = "/tmp/timeunion_test/wal_flush";
  RemoveDirRecursive(ws);
  DBOptions opts = WalDbOptions(ws);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  // 1001 samples, one Write each: the last one is still in the open chunk
  // when Flush runs.
  for (int i = 0; i <= 1000; ++i) {
    ASSERT_TRUE(core::WriteCpuSample(db.get(), i, 250, &ref).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.GaugeOr0("wal.segments_live"), 1);
  EXPECT_EQ(snap.GaugeOr0("wal.live_bytes"), 0);
  EXPECT_GT(snap.CounterOr0("wal.segments_deleted"), 0u);
  EXPECT_EQ(snap.CounterOr0("wal.appends"), 1001u);
  EXPECT_EQ(snap.CounterOr0("wal.forced_flushes"), 0u);
  // Every batch append is timed (one Write = one batch).
  const obs::HistogramSnapshot* append = snap.FindHistogram("wal.append_us");
  ASSERT_NE(append, nullptr);
  EXPECT_EQ(append->count, 1001u);
  ASSERT_NE(snap.FindHistogram("wal.seal_sync_us"), nullptr);
  const std::string json = snap.ToJson();
  const std::string prom = snap.ToPrometheusText();
  for (const char* name : {"wal.segments_live", "wal.live_bytes",
                           "wal.segments_deleted", "wal.forced_flushes",
                           "wal.seal_sync_us"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
    std::string prom_name = std::string("tu_") + name;
    std::replace(prom_name.begin(), prom_name.end(), '.', '_');
    EXPECT_NE(prom.find(prom_name), std::string::npos) << name;
  }
  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu::core
