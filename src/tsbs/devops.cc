#include "tsbs/devops.h"

#include <cmath>

#include "query/aggregate.h"
#include "util/random.h"

namespace tu::tsbs {

namespace {

struct Family {
  const char* measurement;
  int num_fields;
  const char* field_prefix;
};

// Nine measurement families totalling 101 fields per host (TSBS DevOps).
constexpr Family kFamilies[] = {
    {"cpu", 10, "usage"},      {"diskio", 7, "io"},
    {"disk", 7, "fs"},         {"kernel", 5, "kern"},
    {"mem", 8, "vm"},          {"net", 7, "if"},
    {"nginx", 7, "req"},       {"postgresl", 13, "pg"},
    {"redis", 37, "rd"},
};

constexpr const char* kHostTagNames[] = {
    "region",          "datacenter", "rack",
    "os",              "arch",       "team",
    "service",         "service_version",
    "service_environment", "cluster",
    "zone",            "tenant",     "pool",
    "tier",            "release",    "build",
    "role",            "shard",      "generation",
};

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

DevOpsGenerator::DevOpsGenerator(DevOpsOptions options)
    : options_(options) {
  measurements_.reserve(kSeriesPerHost);
  fields_.reserve(kSeriesPerHost);
  for (const Family& family : kFamilies) {
    for (int f = 0; f < family.num_fields; ++f) {
      measurements_.push_back(family.measurement);
      fields_.push_back(std::string(family.measurement) + "_" +
                        family.field_prefix + "_" + std::to_string(f));
    }
  }
}

std::string DevOpsGenerator::HostName(uint64_t host) const {
  return "host_" + std::to_string(host);
}

index::Labels DevOpsGenerator::HostTags(uint64_t host) const {
  index::Labels tags;
  tags.push_back({"hostname", HostName(host)});
  const int extra = std::min<int>(
      options_.num_host_tags - 1,
      static_cast<int>(sizeof(kHostTagNames) / sizeof(kHostTagNames[0])));
  for (int i = 0; i < extra; ++i) {
    // Low-cardinality host attributes (TSBS picks from small pools).
    const uint64_t v = MixHash(options_.seed + i, host) % 8;
    tags.push_back({kHostTagNames[i],
                    std::string(kHostTagNames[i]) + "_" + std::to_string(v)});
  }
  index::SortLabels(&tags);
  return tags;
}

index::Labels DevOpsGenerator::UniqueTags(int series_idx) const {
  index::Labels tags;
  tags.push_back({"measurement", measurements_[series_idx]});
  tags.push_back({"fieldname", fields_[series_idx]});
  index::SortLabels(&tags);
  return tags;
}

index::Labels DevOpsGenerator::SeriesLabels(uint64_t host,
                                            int series_idx) const {
  index::Labels labels = HostTags(host);
  const index::Labels unique = UniqueTags(series_idx);
  labels.insert(labels.end(), unique.begin(), unique.end());
  index::SortLabels(&labels);
  return labels;
}

double DevOpsGenerator::Value(uint64_t host, int series_idx,
                              int64_t ts) const {
  // Daily sine + per-series phase + small integer jitter: compresses like
  // real monitoring data and is deterministic (reproducible benches).
  const double phase =
      static_cast<double>(MixHash(host, series_idx) % 628) / 100.0;
  const double day_fraction =
      static_cast<double>(ts % (24LL * 3600 * 1000)) / (24.0 * 3600 * 1000);
  const double wave = 50.0 + 35.0 * std::sin(2 * M_PI * day_fraction + phase);
  const uint64_t h = MixHash(MixHash(host, series_idx),
                             static_cast<uint64_t>(ts));
  const double jitter = static_cast<double>(h % 20);
  const double frac = static_cast<double>((h >> 8) % 100) / 100.0;
  return std::floor(wave) + jitter + frac;
}

const std::string& DevOpsGenerator::FieldName(int series_idx) const {
  return fields_[series_idx];
}

const std::string& DevOpsGenerator::Measurement(int series_idx) const {
  return measurements_[series_idx];
}

int DevOpsGenerator::CpuSeriesIndex(int n) const { return n % 10; }

std::vector<QueryPattern> StandardPatterns() {
  return {
      {"1-1-1", 1, 1, 1, false},   {"1-1-24", 1, 1, 24, false},
      {"1-8-1", 1, 8, 1, false},   {"5-1-1", 5, 1, 1, false},
      {"5-1-24", 5, 1, 24, false}, {"5-8-1", 5, 8, 1, false},
      {"lastpoint", 1, 1, 0, true},
  };
}

std::vector<QueryPattern> BigPatterns() {
  auto patterns = StandardPatterns();
  patterns.push_back({"1-1-all", 1, 1, -1, false});
  patterns.push_back({"5-1-all", 5, 1, -1, false});
  return patterns;
}

std::vector<index::TagMatcher> PatternSelectors(const QueryPattern& pattern,
                                                const DevOpsGenerator& gen,
                                                uint64_t seed) {
  Random rng(seed);
  std::vector<index::TagMatcher> matchers;

  // Hosts: exact match for one, regex union for several.
  if (pattern.num_hosts == 1) {
    matchers.push_back(index::TagMatcher::Equal(
        "hostname", gen.HostName(rng.Uniform(gen.num_hosts()))));
  } else {
    std::string pat = "(";
    for (int i = 0; i < pattern.num_hosts; ++i) {
      if (i > 0) pat += "|";
      pat += gen.HostName((rng.Uniform(gen.num_hosts()) + i) %
                          gen.num_hosts());
    }
    pat += ")";
    matchers.push_back(index::TagMatcher::Regex("hostname", pat));
  }

  // Metrics: cpu fields, per TSBS.
  if (pattern.num_metrics == 1) {
    matchers.push_back(index::TagMatcher::Equal(
        "fieldname", gen.FieldName(gen.CpuSeriesIndex(
                         static_cast<int>(rng.Uniform(10))))));
  } else {
    std::string pat = "(";
    for (int i = 0; i < pattern.num_metrics; ++i) {
      if (i > 0) pat += "|";
      pat += gen.FieldName(gen.CpuSeriesIndex(i));
    }
    pat += ")";
    matchers.push_back(index::TagMatcher::Regex("fieldname", pat));
  }
  return matchers;
}

std::vector<AggPoint> AggregateMax(const std::vector<int64_t>& timestamps,
                                   const std::vector<double>& values,
                                   int64_t window_ms) {
  // Deduplicated onto the shared continuous-aggregate kernels so the TSBS
  // client-side post-processing folds samples exactly like AggregateQuery.
  std::vector<compress::RollupBucket> buckets;
  query::AccumulateIntoBuckets(timestamps.data(), values.data(),
                               timestamps.size(), window_ms, &buckets);
  const std::vector<query::AggPoint> folded =
      query::FoldBuckets(buckets, window_ms, query::AggFn::kMax);
  std::vector<AggPoint> out;
  out.reserve(folded.size());
  for (const query::AggPoint& p : folded) {
    out.push_back(AggPoint{p.window_start, p.value});
  }
  return out;
}

}  // namespace tu::tsbs
