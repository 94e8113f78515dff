// Cross-module integration tests: the TU-LDB backend, the end-to-end
// remote layer (CortexSim / TimeUnionRemote), and system-level invariants
// that span heads + LSM + index.
#include <gtest/gtest.h>

#include <map>

#include "baseline/cortex_sim.h"
#include "core/timeunion_db.h"
#include "tsbs/devops.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu {
namespace {

using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using core::WriteAll;
using core::WriteBatch;
using core::WriteResult;
using index::Labels;
using index::TagMatcher;

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

TEST(TuLdbBackendTest, SameApiSameAnswers) {
  // The leveled backend (TU-LDB) must answer queries identically to the
  // time-partitioned backend; only the storage behaviour differs.
  auto run = [](DBOptions::Backend backend, const std::string& ws) {
    DBOptions opts;
    opts.workspace = ws;
    RemoveDirRecursive(ws);
    opts.backend = backend;
    opts.lsm.memtable_bytes = 32 << 10;
    opts.leveled.memtable_bytes = 32 << 10;
    std::unique_ptr<TimeUnionDB> db;
    EXPECT_TRUE(TimeUnionDB::Open(opts, &db).ok());

    uint64_t ref = 0;
    EXPECT_TRUE(db->RegisterSeries({{"m", "cpu"}, {"h", "a"}}, &ref).ok());
    WriteBatch batch;
    for (int i = 0; i < 12 * 60; ++i) batch.AddSample(ref, i * kMin, 1.0 * i);
    EXPECT_TRUE(WriteAll(db.get(), batch));
    EXPECT_TRUE(db->Flush().ok());

    QueryResult result;
    EXPECT_TRUE(db->Query(query::ReadRequest::Range(
        {TagMatcher::Equal("m", "cpu")}, 2 * kHour, 8 * kHour), &result)
                    .ok());
    std::map<int64_t, double> samples;
    for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
      samples[result[0].timestamps[i]] = result[0].values[i];
    }
    return samples;
  };
  const auto tp = run(DBOptions::Backend::kTimePartitioned,
                      "/tmp/timeunion_test/int_tp");
  const auto lv = run(DBOptions::Backend::kLeveled,
                      "/tmp/timeunion_test/int_lv");
  EXPECT_EQ(tp, lv);
  EXPECT_EQ(tp.size(), static_cast<size_t>(6 * 60 + 1));
  RemoveDirRecursive("/tmp/timeunion_test/int_tp");
  RemoveDirRecursive("/tmp/timeunion_test/int_lv");
}

TEST(TuLdbBackendTest, GroupsWorkOnLeveledBackend) {
  DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/int_lv_group";
  RemoveDirRecursive(opts.workspace);
  opts.backend = DBOptions::Backend::kLeveled;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  WriteBatch batch;
  WriteResult written;
  batch.AddGroupRow(Labels{{"host", "h"}}, {{{"m", "a"}}, {{"m", "b"}}}, 0,
                    {1.0, 2.0});
  ASSERT_TRUE(WriteAll(db.get(), batch, &written));
  const WriteResult::ResolvedGroup group = written.resolved_groups[0];
  batch.Clear();
  for (int i = 1; i < 200; ++i) {
    batch.AddGroupRow(group.group_ref, group.slots, i * kMin,
                      {1.0 + i, 2.0 + i});
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range({TagMatcher::Equal("m", "b")},
                                                  0, 200 * kMin), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 200u);
  EXPECT_EQ(result[0].values[10], 12.0);
  RemoveDirRecursive(opts.workspace);
}

TEST(EndToEndTest, CortexSimInsertsAndQueries) {
  baseline::TsdbOptions opts;
  opts.workspace = "/tmp/timeunion_test/int_cortex";
  RemoveDirRecursive(opts.workspace);
  baseline::CortexSim cortex(opts, baseline::RpcCosts{});
  ASSERT_TRUE(cortex.Open().ok());

  std::vector<baseline::RemoteSample> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back({Labels{{"metric", "cpu"}, {"host", "a"}},
                     i * kMin, 1.0 * i});
  }
  ASSERT_TRUE(cortex.RemoteWrite(batch).ok());
  ASSERT_TRUE(cortex.Flush().ok());
  EXPECT_EQ(cortex.write_stats().requests, 1u);
  EXPECT_EQ(cortex.write_stats().samples, 500u);
  EXPECT_GT(cortex.write_stats().charged_us, 0.0);

  std::vector<baseline::TsdbSeriesResult> result;
  ASSERT_TRUE(cortex.QueryRange({TagMatcher::Equal("metric", "cpu")}, 0,
                                500 * kMin, &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), 500u);
  RemoveDirRecursive(opts.workspace);
}

TEST(EndToEndTest, TimeUnionRemoteFastAndGroupModes) {
  // Fast mode.
  {
    DBOptions db_opts;
    db_opts.workspace = "/tmp/timeunion_test/int_remote_fast";
    RemoveDirRecursive(db_opts.workspace);
    baseline::TimeUnionRemote remote(
        db_opts, baseline::RpcCosts{},
        baseline::TimeUnionRemote::Mode::kFastPath);
    ASSERT_TRUE(remote.Open().ok());
    uint64_t ref = 0;
    ASSERT_TRUE(
        remote.RegisterSeries({{"metric", "cpu"}, {"host", "x"}}, &ref).ok());
    std::vector<baseline::TimeUnionRemote::RefSample> batch;
    for (int i = 0; i < 300; ++i) batch.push_back({ref, i * kMin, 5.0});
    ASSERT_TRUE(remote.RemoteWriteFast(batch).ok());
    core::QueryResult result;
    ASSERT_TRUE(remote.QueryRange({TagMatcher::Equal("metric", "cpu")}, 0,
                                  300 * kMin, &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].timestamps.size(), 300u);
    RemoveDirRecursive(db_opts.workspace);
  }
  // Group mode: registration row then ID+slot rows.
  {
    DBOptions db_opts;
    db_opts.workspace = "/tmp/timeunion_test/int_remote_group";
    RemoveDirRecursive(db_opts.workspace);
    baseline::TimeUnionRemote remote(db_opts, baseline::RpcCosts{},
                                     baseline::TimeUnionRemote::Mode::kGroup);
    ASSERT_TRUE(remote.Open().ok());

    baseline::TimeUnionRemote::GroupRow reg_row;
    reg_row.group_key = 1;
    reg_row.group_tags = {{"host", "h1"}};
    reg_row.member_tags = {{{"m", "a"}}, {{"m", "b"}}};
    reg_row.ts = 0;
    reg_row.values = {1.0, 2.0};
    ASSERT_TRUE(remote.RemoteWriteGroups({reg_row}).ok());

    std::vector<baseline::TimeUnionRemote::GroupRow> fast_rows;
    for (int i = 1; i < 100; ++i) {
      baseline::TimeUnionRemote::GroupRow row;
      row.group_key = 1;
      row.ts = i * kMin;
      row.values = {1.0 + i, 2.0 + i};
      fast_rows.push_back(std::move(row));
    }
    ASSERT_TRUE(remote.RemoteWriteGroups(fast_rows).ok());

    core::QueryResult result;
    ASSERT_TRUE(remote.QueryRange({TagMatcher::Equal("m", "a")}, 0,
                                  100 * kMin, &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].timestamps.size(), 100u);
    EXPECT_EQ(result[0].values[50], 51.0);

    // A new member joins by tags (its row and the next one in the same
    // request); the next request names it and goes by ref.
    std::vector<baseline::TimeUnionRemote::GroupRow> rows(3);
    for (int i = 0; i < 3; ++i) {
      rows[i].group_key = 1;
      rows[i].group_tags = reg_row.group_tags;
      rows[i].ts = (100 + i) * kMin;
    }
    rows[0].member_tags = {{{"m", "a"}}, {{"m", "b"}}, {{"m", "c"}}};
    rows[0].values = {101.0, 102.0, 103.0};
    rows[1].member_tags = {{{"m", "c"}}};
    rows[1].values = {113.0};
    rows[2].member_tags = {{{"m", "c"}}};
    rows[2].values = {123.0};
    ASSERT_TRUE(remote.RemoteWriteGroups({rows[0], rows[1]}).ok());
    ASSERT_TRUE(remote.RemoteWriteGroups({rows[2]}).ok());
    ASSERT_TRUE(remote.QueryRange({TagMatcher::Equal("m", "c")}, 0,
                                  200 * kMin, &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].values, (std::vector<double>{103.0, 113.0, 123.0}));
    EXPECT_EQ(remote.db().NumGroups(), 1u);
    RemoveDirRecursive(db_opts.workspace);
  }
  // Labeled samples through RemoteWrite in fast mode: a series goes by
  // labels until a request resolves its ref, and by ref after. A request
  // is one Write.
  {
    DBOptions db_opts;
    db_opts.workspace = "/tmp/timeunion_test/int_remote_labels";
    RemoveDirRecursive(db_opts.workspace);
    baseline::TimeUnionRemote remote(
        db_opts, baseline::RpcCosts{},
        baseline::TimeUnionRemote::Mode::kFastPath);
    ASSERT_TRUE(remote.Open().ok());
    for (int request = 0; request < 2; ++request) {
      std::vector<baseline::RemoteSample> batch;
      for (int i = request * 10; i < request * 10 + 10; ++i) {
        batch.push_back({Labels{{"metric", "mem"}, {"host", i % 2 ? "a" : "b"}},
                         i * kMin, 1.0 * i});
      }
      ASSERT_TRUE(remote.RemoteWrite(batch).ok());
    }
    EXPECT_EQ(remote.db().NumSeries(), 2u);
    core::QueryResult result;
    ASSERT_TRUE(remote.QueryRange({TagMatcher::Equal("host", "a")}, 0,
                                  20 * kMin, &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u);
    ASSERT_EQ(result[0].values.size(), 10u);
    for (size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(result[0].values[k], 2.0 * k + 1);
    }
    RemoveDirRecursive(db_opts.workspace);
  }
}

TEST(MmapFileTest, ArraysGrowAndPersist) {
  const std::string ws = "/tmp/timeunion_test/int_mmap";
  RemoveDirRecursive(ws);
  {
    MmapFileArray arr(ws, "data", 4096);
    ASSERT_TRUE(arr.Reserve(10000).ok());  // 3 files
    EXPECT_EQ(arr.num_files(), 3u);
    EXPECT_GE(arr.capacity(), 10000u);
    // Cross-boundary write/read.
    const std::string payload(3000, 'z');
    arr.WriteBytes(3000, payload.data(), payload.size());  // crosses 4096
    std::string out(3000, '\0');
    arr.ReadBytes(3000, 3000, out.data());
    EXPECT_EQ(out, payload);
    ASSERT_TRUE(arr.Sync().ok());
  }
  // Contents survive remapping.
  {
    MmapFileArray arr(ws, "data", 4096);
    ASSERT_TRUE(arr.Reserve(10000).ok());
    std::string out(3000, '\0');
    arr.ReadBytes(3000, 3000, out.data());
    EXPECT_EQ(out, std::string(3000, 'z'));
  }
  RemoveDirRecursive(ws);
}

TEST(MmapFileTest, SlotArrayIsolatesSlots) {
  const std::string ws = "/tmp/timeunion_test/int_mmap2";
  RemoveDirRecursive(ws);
  MmapSlotArray arr(ws, "slots", 64, 16);
  ASSERT_TRUE(arr.ReserveSlots(40).ok());
  for (int i = 0; i < 40; ++i) memset(arr.Slot(i), i, 64);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(arr.Slot(i)[0]), i);
    EXPECT_EQ(static_cast<unsigned char>(arr.Slot(i)[63]), i);
  }
  RemoveDirRecursive(ws);
}

TEST(DevOpsIntegration, FullPipelineSmall) {
  // End-to-end sanity over the actual workload generator: every generated
  // series must be queryable with exactly the inserted values.
  DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/int_devops";
  RemoveDirRecursive(opts.workspace);
  opts.lsm.memtable_bytes = 64 << 10;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 2;
  gen_opts.interval_ms = 60'000;
  gen_opts.duration_ms = 3 * kHour;
  tsbs::DevOpsGenerator gen(gen_opts);

  // The first step goes by labels and resolves the refs; the rest go by
  // ref.
  WriteBatch batch;
  WriteResult written;
  for (uint64_t h = 0; h < 2; ++h) {
    for (int s = 0; s < 101; ++s) {
      batch.AddSample(gen.SeriesLabels(h, s), gen.start_ts(),
                      gen.Value(h, s, gen.start_ts()));
    }
  }
  ASSERT_TRUE(WriteAll(db.get(), batch, &written));
  const std::vector<uint64_t> refs = written.resolved_refs;
  batch.Clear();
  for (uint64_t step = 1; step < gen.num_steps(); ++step) {
    const int64_t ts = gen.start_ts() + step * gen.interval_ms();
    for (uint64_t h = 0; h < 2; ++h) {
      for (int s = 0; s < 101; ++s) {
        batch.AddSample(refs[h * 101 + s], ts, gen.Value(h, s, ts));
      }
    }
  }
  ASSERT_TRUE(WriteAll(db.get(), batch));
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->NumSeries(), 202u);

  // Spot-check 10 series end to end.
  for (int s = 0; s < 10; ++s) {
    QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {TagMatcher::Equal("hostname", gen.HostName(1)),
         TagMatcher::Equal("fieldname", gen.FieldName(s))}, 0, gen.end_ts()),
                          &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u) << s;
    ASSERT_EQ(result[0].timestamps.size(), gen.num_steps()) << s;
    for (uint64_t step = 0; step < gen.num_steps(); ++step) {
      const int64_t ts = static_cast<int64_t>(step) * gen.interval_ms();
      EXPECT_EQ(result[0].values[step], gen.Value(1, s, ts));
    }
  }
  RemoveDirRecursive(opts.workspace);
}

}  // namespace
}  // namespace tu
