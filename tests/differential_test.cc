// Differential tests: the full TimeUnion engine against a trivial
// in-memory reference model, under randomized workload programs that mix
// every API — series/group inserts, fast paths, out-of-order writes,
// duplicate overwrites, flushes, reopen-with-WAL — then verify every
// series via both Query and QueryIterators.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "write_util.h"

namespace tu::core {
namespace {

using index::Labels;
using index::TagMatcher;

constexpr int64_t kMin = 60 * 1000;

/// The reference model: per series key, newest-write-wins sample map.
struct Reference {
  std::map<std::string, std::map<int64_t, double>> series;  // by labels key
  std::map<std::string, Labels> labels;

  void Write(const Labels& sorted, int64_t ts, double v) {
    const std::string key = index::LabelsKey(sorted);
    series[key][ts] = v;
    labels[key] = sorted;
  }
};

class DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ws_ = "/tmp/timeunion_test/diff_" + std::to_string(GetParam());
    RemoveDirRecursive(ws_);
  }
  void TearDown() override { RemoveDirRecursive(ws_); }

  static Labels SeriesLabels(int family, int member) {
    return Labels{{"family", "f" + std::to_string(family)},
                  {"member", "m" + std::to_string(member)}};
  }

  void VerifyAll(TimeUnionDB* db, const Reference& ref, int64_t t1) {
    for (const auto& [key, samples] : ref.series) {
      const Labels& labels = ref.labels.at(key);
      std::vector<TagMatcher> matchers;
      for (const auto& l : labels) {
        matchers.push_back(TagMatcher::Equal(l.name, l.value));
      }
      QueryResult result;
      ASSERT_TRUE(db->Query(query::ReadRequest::Range(matchers, 0, t1),
                            &result).ok()) << key;
      ASSERT_EQ(result.size(), 1u) << key;
      std::map<int64_t, double> got;
      for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
        got[result[0].timestamps[i]] = result[0].values[i];
      }
      ASSERT_EQ(got, samples) << key;

      // Streaming path must agree with the materialized path.
      std::vector<TimeUnionDB::SeriesIterResult> streaming;
      ASSERT_TRUE(db->QueryIterators(query::ReadRequest::Range(matchers, 0, t1),
                                     &streaming).ok());
      ASSERT_EQ(streaming.size(), 1u) << key;
      std::map<int64_t, double> drained;
      auto* it = streaming[0].iter.get();
      while (it->Valid()) {
        drained[it->value().timestamp] = it->value().value;
        it->Next();
      }
      ASSERT_TRUE(it->status().ok());
      ASSERT_EQ(drained, samples) << key << " (streaming)";
    }
  }

  std::string ws_;
};

TEST_P(DifferentialTest, MixedSeriesWorkload) {
  Random rng(GetParam() * 7919 + 13);
  DBOptions opts;
  opts.workspace = ws_;
  opts.lsm.memtable_bytes = 24 << 10;
  opts.enable_wal = (GetParam() % 2 == 0);
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  Reference ref;
  std::map<std::string, uint64_t> refs;
  int64_t clock = 0;
  WriteBatch batch;

  for (int op = 0; op < 4000; ++op) {
    const int family = static_cast<int>(rng.Uniform(3));
    const int member = static_cast<int>(rng.Uniform(4));
    Labels labels = SeriesLabels(family, member);
    index::SortLabels(&labels);
    const std::string key = index::LabelsKey(labels);

    // Mostly advancing time, some out-of-order, some exact duplicates.
    int64_t ts;
    const uint64_t mode = rng.Uniform(10);
    if (mode < 7 || clock == 0) {
      clock += rng.Uniform(3) * kMin;
      ts = clock;
    } else if (mode < 9) {
      ts = static_cast<int64_t>(rng.Uniform(clock / kMin + 1)) * kMin;
    } else {
      ts = clock;  // duplicate of the newest timestamp
    }
    const double v = rng.NextGaussian(100, 20);

    // One row per Write: label- and ref-addressed rows interleave per op,
    // and a batch would apply its ref section before its labeled one.
    batch.Clear();
    auto it = refs.find(key);
    if (it == refs.end() || rng.OneIn(20)) {
      batch.AddSample(labels, ts, v);
      WriteResult written;
      ASSERT_TRUE(WriteAll(db.get(), batch, &written));
      refs[key] = written.resolved_refs[0];
    } else {
      batch.AddSample(it->second, ts, v);
      ASSERT_TRUE(WriteAll(db.get(), batch));
    }
    ref.Write(labels, ts, v);

    if (rng.OneIn(500)) ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  VerifyAll(db.get(), ref, clock + kMin);

  if (opts.enable_wal) {
    // Crash-reopen over the same workspace; everything must survive.
    db.reset();
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    VerifyAll(db.get(), ref, clock + kMin);
  }
}

TEST_P(DifferentialTest, MixedGroupWorkload) {
  Random rng(GetParam() * 104729 + 7);
  DBOptions opts;
  opts.workspace = ws_;
  opts.lsm.memtable_bytes = 24 << 10;
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());

  const int kGroups = 2;
  const int kMaxMembers = 5;
  Reference ref;
  std::vector<int> member_count(kGroups, 2);
  WriteBatch batch;
  int64_t clock = 0;

  auto group_tags = [](int g) {
    return Labels{{"host", "g" + std::to_string(g)}};
  };
  auto member_tags = [](int m) {
    return Labels{{"metric", "x" + std::to_string(m)}};
  };
  auto full_labels = [&](int g, int m) {
    Labels full = group_tags(g);
    const Labels mt = member_tags(m);
    full.insert(full.end(), mt.begin(), mt.end());
    index::SortLabels(&full);
    return full;
  };

  for (int op = 0; op < 1500; ++op) {
    const int g = static_cast<int>(rng.Uniform(kGroups));
    // Occasionally a new member joins the group (§3.1 case 2).
    if (member_count[g] < kMaxMembers && rng.OneIn(100)) ++member_count[g];
    // A random subset of members reports this round (§3.1 case 3).
    std::vector<Labels> present_tags;
    std::vector<double> values;
    std::vector<int> present;
    for (int m = 0; m < member_count[g]; ++m) {
      if (rng.OneIn(4)) continue;  // member missing this round
      present.push_back(m);
      present_tags.push_back(member_tags(m));
      values.push_back(rng.NextGaussian(50, 5));
    }
    if (present.empty()) continue;

    int64_t ts;
    if (rng.Uniform(10) < 8 || clock == 0) {
      clock += rng.Uniform(3) * kMin;
      ts = clock;
    } else {
      ts = static_cast<int64_t>(rng.Uniform(clock / kMin + 1)) * kMin;
    }

    batch.Clear();
    batch.AddGroupRow(group_tags(g), std::move(present_tags), ts, values);
    ASSERT_TRUE(WriteAll(db.get(), batch));
    for (size_t i = 0; i < present.size(); ++i) {
      ref.Write(full_labels(g, present[i]), ts, values[i]);
    }
    if (rng.OneIn(400)) ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  VerifyAll(db.get(), ref, clock + kMin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace tu::core
