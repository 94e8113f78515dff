// cold_history: closed-loop history reads, one reader, no ingest.
//
// Set-up bulk-loads two days of DevOps data through one writer onto the
// calibrated EBS/S3 simulation, with 5-minute rollups, and flushes, so most
// of it sits in S3-sim L2 partitions; the block cache is far smaller than
// the data. The set-up runs several times per run for a median set-up
// time; its batches also give the write metrics of this workload. The
// reader then cycles through a seeded mix of TSBS patterns (1-1-24, 5-1-24,
// 1-1-all): for each request it times the MAX-per-5-min AggregateQuery and
// the raw read of the same selectors and range, checks the raw samples
// exactly against the generator and the aggregate bitwise against a fold
// of the raw samples.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using tu::Status;
namespace core = tu::core;
namespace query = tu::query;
namespace tsbs = tu::tsbs;

constexpr int kFields = tsbs::DevOpsGenerator::kSeriesPerHost;
constexpr int64_t kIntervalMs = 60'000;
constexpr int64_t kHourMs = 3'600'000;
constexpr int64_t kAggStepMs = tsbs::QueryPattern::kAggWindowMs;
constexpr int kStepsPerBatch = 10;
constexpr int kSetups = 3;
constexpr int64_t kL2PartitionMs = 6 * kHourMs;
/// Latency percentiles are taken per window of this many seconds; the run
/// reports their median.
constexpr double kWindowS = 2;

struct Shape {
  uint64_t hosts;
  int64_t span_ms;
  size_t cache_bytes;
};

Shape ShapeFor(const RunOptions& o) {
  if (o.tiny) return {2, 30 * kHourMs, 64 << 10};
  return {10, 48 * kHourMs, 512 << 10};
}

struct Request {
  tsbs::QueryPattern pattern;
  std::vector<tu::index::TagMatcher> matchers;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

struct Load {
  double setup_s = -1;
  double sps = 0;
  std::vector<double> write_us;
};

class ColdWorkload {
 public:
  explicit ColdWorkload(const RunOptions& options)
      : o_(options),
        shape_(ShapeFor(options)),
        gen_(DevOpsFor(options.seed, shape_.hosts, kIntervalMs, shape_.span_ms,
                       kL2PartitionMs)) {}

  Report Run();

 private:
  core::DBOptions Options(const std::string& ws) const;
  Load Setup(const std::string& ws, std::unique_ptr<core::TimeUnionDB>* db,
             const std::vector<BatchTemplate>& templates);
  std::vector<Request> MakeRequests() const;
  /// Runs the request mix for `seconds`, recording latencies by window.
  void Measure(core::TimeUnionDB* db, const std::vector<Request>& requests,
               size_t* next, double seconds, WindowedLatency* query_us,
               WindowedLatency* agg_us, ReadTally* tally);

  const RunOptions o_;
  const Shape shape_;
  const tsbs::DevOpsGenerator gen_;
  Report report_;
};

core::DBOptions ColdWorkload::Options(const std::string& ws) const {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = tu::cloud::TieredEnvOptions();  // calibrated EBS/S3
  // Flushes and compactions run inline in the loader's Write calls, so the
  // load and the tree it leaves do not depend on thread timing.
  opts.lsm.background_flush = false;
  opts.lsm.l0_partition_ms = kHourMs;
  opts.lsm.l2_partition_ms = kL2PartitionMs;
  opts.lsm.partition_lower_bound_ms = kHourMs;
  opts.lsm.rollup_granularities_ms = {kAggStepMs};
  opts.block_cache_bytes = shape_.cache_bytes;
  return opts;
}

Load ColdWorkload::Setup(
    const std::string& ws, std::unique_ptr<core::TimeUnionDB>* db,
    const std::vector<BatchTemplate>& templates) {
  Load load;
  RemoveTree(ws);
  const int64_t start = NowNs();
  Status s = core::TimeUnionDB::Open(Options(ws), db);
  std::vector<uint64_t> refs;
  if (s.ok()) s = RegisterAll(db->get(), gen_, &refs);
  report_.Op(s.ok(), "open and register");
  if (!s.ok()) {
    report_.Fail("setup: " + s.ToString());
    return load;
  }

  const double register_s = static_cast<double>(NowNs() - start) / 1e9;

  // Binding the generated rows to this DB's refs is not set-up work.
  std::vector<core::WriteBatch> batches;
  for (const BatchTemplate& t : templates) batches.push_back(t.Bind(refs));
  const int64_t load_start = NowNs();
  core::WriteResult result;
  for (const core::WriteBatch& b : batches) {
    const uint64_t req = Tracer::Get().NewId();
    const int64_t t = NowNs();
    Span root("req.write", req, 0, t);
    bool ok;
    {
      Span span("core.write", req, root.id());
      ok = (*db)->Write(b, &result).ok() && result.ok() &&
           result.appended == b.NumRows();
    }
    load.write_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    report_.Op(ok, "load batch");
  }
  load.sps = static_cast<double>(gen_.num_steps() * gen_.num_series()) /
             (static_cast<double>(NowNs() - load_start) / 1e9);
  {
    Span span("core.flush", 0, 0);
    s = (*db)->Flush();
  }
  report_.Op(s.ok(), "flush");
  load.setup_s =
      register_s + static_cast<double>(NowNs() - load_start) / 1e9;
  return load;
}

std::vector<Request> ColdWorkload::MakeRequests() const {
  std::vector<tsbs::QueryPattern> patterns;
  for (const tsbs::QueryPattern& p : tsbs::BigPatterns()) {
    if (p.name == "1-1-24" || p.name == "5-1-24" || p.name == "1-1-all") {
      patterns.push_back(p);
    }
  }
  // The seed picks selectors and ranges; the patterns take fixed turns so
  // every run serves the same mix.
  Rng rng(o_.seed * 15485863 + 17);
  std::vector<Request> out(4095);
  const int64_t first = gen_.start_ts();
  const int64_t last = gen_.end_ts() - kIntervalMs;
  for (size_t i = 0; i < out.size(); ++i) {
    Request& r = out[i];
    r.pattern = patterns[i % patterns.size()];
    r.matchers = tsbs::PatternSelectors(r.pattern, gen_, rng.Next());
    if (r.pattern.hours < 0) {
      r.t0 = first;
      r.t1 = last;
    } else {
      const int64_t span = std::min<int64_t>(r.pattern.hours * kHourMs,
                                             last - first);
      r.t0 = first + static_cast<int64_t>(
                         rng.Uniform(static_cast<uint64_t>(last - first - span) + 1));
      r.t1 = r.t0 + span;
    }
  }
  return out;
}

void ColdWorkload::Measure(core::TimeUnionDB* db,
                           const std::vector<Request>& requests, size_t* next,
                           double seconds, WindowedLatency* query_us,
                           WindowedLatency* agg_us, ReadTally* tally) {
  const auto& slow = db->env().slow().counters();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const Request& r = requests[(*next)++ % requests.size()];
    // Aggregate first, then the raw read of the same selectors and range.
    core::TimeUnionDB::AggregateResult agg;
    Status sa;
    {
      const uint64_t req = Tracer::Get().NewId();
      const uint64_t gets = slow.get_ops.load();
      const int64_t t = NowNs();
      {
        Span root("req.agg", req, 0, t);
        Span span("core.aggregate", req, root.id());
        sa = db->AggregateQuery(
            query::ReadRequest::Aggregate(r.matchers, r.t0, r.t1, kAggStepMs,
                                          query::AggFn::kMax),
            &agg);
      }
      agg_us->Add(t, static_cast<double>(NowNs() - t) / 1e3);
      tally->agg_slow_gets += slow.get_ops.load() - gets;
      tally->agg_stats.Add(agg.stats);
      ++tally->aggs;
    }
    std::vector<SeriesData> raw;
    Status sq;
    {
      const uint64_t req = Tracer::Get().NewId();
      const uint64_t gets = slow.get_ops.load();
      const int64_t t = NowNs();
      {
        Span root("req.query", req, 0, t);
        sq = DrainQuery(db, query::ReadRequest::Range(r.matchers, r.t0, r.t1),
                        req, root.id(), &raw, &tally->query_stats);
      }
      query_us->Add(t, static_cast<double>(NowNs() - t) / 1e3);
      tally->query_slow_gets += slow.get_ops.load() - gets;
      ++tally->queries;
    }

    // Checks: raw exactly as generated, aggregate bitwise equal to the fold
    // of the raw samples.
    bool raw_ok = sq.ok() &&
                  raw.size() == static_cast<size_t>(r.pattern.num_metrics);
    std::map<std::string, const SeriesData*> by_key;
    for (const SeriesData& d : raw) {
      tally->samples_returned += d.ts.size();
      uint64_t host = 0;
      int field = 0;
      raw_ok = raw_ok && ParseSeries(gen_, d.labels, &host, &field) &&
               MatchesGenerator(gen_, host, field, r.t0, r.t1,
                                gen_.num_steps(), d.ts.data(), d.vs.data(),
                                d.ts.size());
      by_key[tu::index::LabelsKey(d.labels)] = &d;
    }
    report_.Op(raw_ok, "history query");
    bool agg_ok = sa.ok() && raw_ok && agg.series.size() == raw.size();
    for (const auto& a : agg.series) {
      auto it = by_key.find(tu::index::LabelsKey(a.labels));
      agg_ok = agg_ok && it != by_key.end() &&
               SamePoints(a.points, FoldRaw(it->second->ts, it->second->vs,
                                            kAggStepMs, query::AggFn::kMax));
    }
    report_.Op(agg_ok, "history aggregate");
  }
}

Report ColdWorkload::Run() {
  report_.header["hosts"] = std::to_string(shape_.hosts);
  report_.header["series"] = std::to_string(gen_.num_series());
  report_.header["span_hours"] = std::to_string(shape_.span_ms / kHourMs);
  report_.header["samples"] =
      std::to_string(gen_.num_steps() * gen_.num_series());
  report_.header["block_cache_bytes"] = std::to_string(shape_.cache_bytes);
  report_.header["patterns"] = "1-1-24,5-1-24,1-1-all (raw + MAX/5min)";
  report_.header["wal"] = "off";
  const core::DBOptions opts = Options("");
  report_.header["fast_tier"] = DescribeTier(opts.env_options.fast_sim);
  report_.header["slow_tier"] = DescribeTier(opts.env_options.slow_sim);

  const std::vector<Request> requests = MakeRequests();
  // One loader, time-major: every partition is complete before a later
  // one starts, so the tree's layout does not depend on thread timing.
  const auto templates =
      MakeHostBatches(gen_, 0, static_cast<int64_t>(gen_.num_steps()),
                      kStepsPerBatch, 1)[0];
  const std::string ws = o_.work_dir + "/cold";
  std::vector<double> setups, sps;
  std::vector<std::vector<double>> writes;
  std::unique_ptr<core::TimeUnionDB> db;
  int64_t mem_base = 0;
  const int setups_wanted = o_.trace ? 1 : kSetups;
  for (int i = 0; i < setups_wanted; ++i) {
    db.reset();
    mem_base = TrackedBytesExCache();
    Tracer::Get().SetOn(o_.trace);
    Load load = Setup(ws, &db, templates);
    Tracer::Get().SetOn(false);
    if (load.setup_s < 0) return report_;
    setups.push_back(load.setup_s);
    sps.push_back(load.sps);
    writes.push_back(std::move(load.write_us));
  }
  const double samples = static_cast<double>(gen_.num_steps() * gen_.num_series());
  const double disk = static_cast<double>(TierDirBytes(ws)) / samples;
  const double mem = static_cast<double>(TrackedBytesExCache() - mem_base) /
                     static_cast<double>(db->NumSeries());
  report_.header["data_bytes"] = std::to_string(TierDirBytes(ws));
  report_.header["l2_partitions"] =
      std::to_string(db->time_lsm()->NumL2Partitions());

  size_t next = 0;
  const int64_t window_ns = static_cast<int64_t>(kWindowS * 1e9);
  WindowedLatency query_us(NowNs(), window_ns);
  WindowedLatency agg_us(NowNs(), window_ns);
  ReadTally tally;
  // A traced run splits its time between an untraced and a traced pass.
  const double pass_seconds = o_.trace ? o_.seconds / 2 : o_.seconds;
  Measure(db.get(), requests, &next, pass_seconds, &query_us, &agg_us, &tally);
  if (o_.trace) {
    // A traced pass after the untraced one: the difference is the tracing
    // overhead.
    const Counters before = Counters::Take(db.get());
    WindowedLatency traced_query_us(NowNs(), window_ns);
    WindowedLatency traced_agg_us(NowNs(), window_ns);
    ReadTally traced_tally;
    Tracer::Get().SetOn(true);
    Measure(db.get(), requests, &next, pass_seconds, &traced_query_us,
            &traced_agg_us, &traced_tally);
    Tracer::Get().SetOn(false);
    const Counters after = Counters::Take(db.get());
    FillLayerMetrics(db.get(), before, after, Summarize(Tracer::Get().All()),
                     traced_tally, 0, &report_);
    const double untraced = query_us.Stat(0.5);
    report_.per_layer["trace.overhead_p50_pct"] =
        untraced > 0 ? (traced_query_us.Stat(0.5) - untraced) / untraced * 100
                     : 0;
    report_.per_layer["write.p90_us"] = MedianOfPercentiles(writes, 0.90);
    report_.per_layer["query.p90_us"] = query_us.Stat(0.90);
    report_.per_layer["agg.p90_us"] = agg_us.Stat(0.90);
    report_.per_layer["write.p99_us"] = MedianOfPercentiles(writes, 0.99);
    report_.per_layer["query.p99_us"] = query_us.Stat(0.99);
    report_.per_layer["agg.p99_us"] = agg_us.Stat(0.99);
  }
  db.reset();
  RemoveTree(ws);

  auto& e = report_.end_to_end;
  e["setup_s"] = Median(setups);
  e["ingest_sps"] = Median(sps);
  e["write_p50_us"] = MedianOfPercentiles(writes, 0.50);
  e["query_p50_us"] = query_us.Stat(0.50);
  e["agg_p50_us"] = agg_us.Stat(0.50);
  e["disk_bytes_per_sample"] = disk;
  e["mem_bytes_per_series"] = mem;
  report_.header["setups"] = std::to_string(setups.size());
  report_.header["queries"] = std::to_string(query_us.Pooled().size());
  report_.header["aggregates"] = std::to_string(agg_us.Pooled().size());
  report_.header["window_s"] = std::to_string(kWindowS);
  return report_;
}

}  // namespace

Report RunCold(const RunOptions& options) {
  return ColdWorkload(options).Run();
}

}  // namespace perfbench
