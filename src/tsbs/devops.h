// TSBS DevOps workload (§4.2/§4.3): deterministic reimplementation of the
// Time Series Benchmark Suite's DevOps data set — each simulated host
// exposes 101 timeseries across nine measurement families (cpu, diskio,
// disk, kernel, mem, net, nginx, postgres, redis), sharing the host tag
// set; per-series unique tags are the measurement and field names. This is
// the paper's grouping sweet spot: Sg = 101, Tg = 1 (hostname), Tu ≈ 118.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compress/chunk.h"
#include "index/inverted_index.h"
#include "index/labels.h"

namespace tu::tsbs {

struct DevOpsOptions {
  uint64_t num_hosts = 10;
  int64_t start_ts = 0;
  /// Sample interval (paper: 60 s end-to-end, 30 s storage-engine, 10 s
  /// big-DevOps).
  int64_t interval_ms = 30'000;
  /// Total time span (paper: 24 h; 1-7 days for big DevOps).
  int64_t duration_ms = 24LL * 60 * 60 * 1000;
  /// Extra per-host tags beyond hostname (TSBS has 10 host tags; Fig. 3
  /// uses 20 tags/series, Fig. 4 uses 5).
  int num_host_tags = 10;
  uint64_t seed = 42;
};

class DevOpsGenerator {
 public:
  static constexpr int kSeriesPerHost = 101;

  explicit DevOpsGenerator(DevOpsOptions options);

  uint64_t num_hosts() const { return options_.num_hosts; }
  uint64_t num_series() const { return options_.num_hosts * kSeriesPerHost; }
  int64_t start_ts() const { return options_.start_ts; }
  int64_t end_ts() const { return options_.start_ts + options_.duration_ms; }
  int64_t interval_ms() const { return options_.interval_ms; }
  uint64_t num_steps() const {
    return static_cast<uint64_t>(options_.duration_ms / options_.interval_ms);
  }

  /// Host tag set (the group tags; hostname is the grouping key).
  index::Labels HostTags(uint64_t host) const;

  /// Per-series unique tags: measurement + field name.
  index::Labels UniqueTags(int series_idx) const;

  /// Full identifier = host tags + unique tags (sorted).
  index::Labels SeriesLabels(uint64_t host, int series_idx) const;

  /// Deterministic monitoring-style value: smooth daily wave + small
  /// integer jitter (limited precision, like real metrics).
  double Value(uint64_t host, int series_idx, int64_t ts) const;

  std::string HostName(uint64_t host) const;
  /// Field name of a series (e.g. "cpu_usage_user").
  const std::string& FieldName(int series_idx) const;
  const std::string& Measurement(int series_idx) const;
  /// Index of the n-th cpu metric (TSBS queries target cpu fields).
  int CpuSeriesIndex(int n) const;

 private:
  DevOpsOptions options_;
  std::vector<std::string> measurements_;  // per series
  std::vector<std::string> fields_;        // per series
};

// ---------------------------------------------------------------------------
// Table 2 query patterns.
// ---------------------------------------------------------------------------

struct QueryPattern {
  std::string name;   // "5-1-24", "lastpoint", "1-1-all", ...
  int num_metrics = 1;
  int num_hosts = 1;
  /// Query span in hours; -1 = whole data span ("all"); 0 = lastpoint.
  int hours = 1;
  bool lastpoint = false;

  /// Aggregation window (TSBS: MAX every 5 minutes).
  static constexpr int64_t kAggWindowMs = 5 * 60 * 1000;
};

/// The seven patterns of Table 2.
std::vector<QueryPattern> StandardPatterns();

/// Fig. 15's extra whole-span patterns (1-1-all, 5-1-all).
std::vector<QueryPattern> BigPatterns();

/// Builds the tag selectors of one pattern instance: `num_metrics` cpu
/// fields and `num_hosts` hosts chosen deterministically from `seed`.
std::vector<index::TagMatcher> PatternSelectors(const QueryPattern& pattern,
                                                const DevOpsGenerator& gen,
                                                uint64_t seed);

/// Client-side MAX aggregation every kAggWindowMs over raw samples (the
/// same post-processing is applied to every engine, so comparisons are
/// fair).
struct AggPoint {
  int64_t window_start;
  double max_value;
};
std::vector<AggPoint> AggregateMax(const std::vector<int64_t>& timestamps,
                                   const std::vector<double>& values,
                                   int64_t window_ms);

}  // namespace tu::tsbs
