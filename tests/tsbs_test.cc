#include "tsbs/devops.h"

#include <gtest/gtest.h>

#include <set>

namespace tu::tsbs {
namespace {

TEST(DevOps, SeriesPerHostIs101) {
  DevOpsGenerator gen(DevOpsOptions{});
  EXPECT_EQ(DevOpsGenerator::kSeriesPerHost, 101);
  std::set<std::string> fields;
  for (int i = 0; i < DevOpsGenerator::kSeriesPerHost; ++i) {
    fields.insert(gen.FieldName(i));
  }
  EXPECT_EQ(fields.size(), 101u);  // all fields distinct
}

TEST(DevOps, LabelsAreDeterministicAndDistinct) {
  DevOpsOptions opts;
  opts.num_hosts = 4;
  DevOpsGenerator gen(opts);
  DevOpsGenerator gen2(opts);

  std::set<std::string> keys;
  for (uint64_t h = 0; h < opts.num_hosts; ++h) {
    for (int i = 0; i < DevOpsGenerator::kSeriesPerHost; ++i) {
      const auto labels = gen.SeriesLabels(h, i);
      EXPECT_EQ(labels, gen2.SeriesLabels(h, i));
      keys.insert(index::LabelsKey(labels));
    }
  }
  EXPECT_EQ(keys.size(), opts.num_hosts * DevOpsGenerator::kSeriesPerHost);
}

TEST(DevOps, HostTagCountConfigurable) {
  DevOpsOptions opts;
  opts.num_host_tags = 5;
  DevOpsGenerator gen(opts);
  EXPECT_EQ(gen.HostTags(0).size(), 5u);
  opts.num_host_tags = 20;
  DevOpsGenerator gen20(opts);
  EXPECT_EQ(gen20.HostTags(0).size(), 20u);
}

TEST(DevOps, ValuesDeterministicAndBounded) {
  DevOpsGenerator gen(DevOpsOptions{});
  for (int i = 0; i < 100; ++i) {
    const double v = gen.Value(3, 7, i * 30000);
    EXPECT_EQ(v, gen.Value(3, 7, i * 30000));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 110.0);
  }
}

TEST(Patterns, StandardSetMatchesTable2) {
  const auto patterns = StandardPatterns();
  ASSERT_EQ(patterns.size(), 7u);
  EXPECT_EQ(patterns[0].name, "1-1-1");
  EXPECT_EQ(patterns[4].name, "5-1-24");
  EXPECT_EQ(patterns[4].num_metrics, 5);
  EXPECT_EQ(patterns[4].hours, 24);
  EXPECT_TRUE(patterns[6].lastpoint);
  EXPECT_EQ(BigPatterns().size(), 9u);
}

TEST(Patterns, SelectorsResolveHostsAndMetrics) {
  DevOpsOptions opts;
  opts.num_hosts = 16;
  DevOpsGenerator gen(opts);
  const auto patterns = StandardPatterns();
  for (const auto& p : patterns) {
    const auto matchers = PatternSelectors(p, gen, 7);
    ASSERT_EQ(matchers.size(), 2u) << p.name;
    EXPECT_EQ(matchers[0].name, "hostname");
    EXPECT_EQ(matchers[1].name, "fieldname");
    if (p.num_hosts > 1) {
      EXPECT_EQ(matchers[0].type, index::TagMatcher::Type::kRegex);
    }
    if (p.num_metrics > 1) {
      EXPECT_EQ(matchers[1].type, index::TagMatcher::Type::kRegex);
    }
  }
}

TEST(Aggregate, MaxEveryWindow) {
  std::vector<int64_t> timestamps;
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) {
    timestamps.push_back(i * 60'000);
    values.push_back(static_cast<double>(i % 7));
  }
  const auto agg = AggregateMax(timestamps, values, 5 * 60'000);
  ASSERT_EQ(agg.size(), 4u);
  EXPECT_EQ(agg[0].window_start, 0);
  EXPECT_EQ(agg[0].max_value, 4.0);  // values 0..4
  EXPECT_EQ(agg[1].max_value, 6.0);  // values 5,6,0,1,2
}

}  // namespace
}  // namespace tu::tsbs
