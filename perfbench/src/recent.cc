// recent_under_ingest: open-loop reads beside open-loop writes on the
// calibrated EBS/S3 simulation.
//
// One writer sends DevOps batches at a fixed rate (100k samples/s);
// one reader sends recent-window requests at a fixed rate: raw Query of the
// last 2 s of one series (1000/s) and, every eleventh request, a MAX per
// 10 s aggregate over its last 60 s. Both are timed from the instant each
// request was due, so a stall also charges the requests queued behind it.
// Data time runs about five times faster than wall time and partitions are
// short, so every run completes several flush, L0->L1 and L1->L2 (S3
// upload) cycles. The working set fits in the block cache.
//
// The rate is half the 200k samples/s this shape was first sized at: there
// the background flush/compaction cascade holds the tree's lock about 40%
// of the time, and the median read flips between a stalled and an
// unstalled mode from run to run. At 100k it holds it about 20%, so the
// median shows service time and the tail shows the stalls.
//
// Correctness: a read's window ends at the newest step fully acked before
// the read was issued; every sample of the window must come back exactly
// as generated.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using tu::Status;
namespace core = tu::core;
namespace query = tu::query;
namespace tsbs = tu::tsbs;

constexpr int kFields = tsbs::DevOpsGenerator::kSeriesPerHost;
constexpr int64_t kIntervalMs = 100;
constexpr uint64_t kHostsPerBatch = 10;
constexpr double kSamplesPerSec = 100'000;
constexpr double kRequestsPerSec = 1'100;
constexpr int kAggEvery = 11;  // request i is an aggregate when i % 11 == 10
constexpr int64_t kRawWindowMs = 2'000;
constexpr int64_t kAggWindowMs = 60'000;
constexpr int64_t kAggStepMs = 10'000;
constexpr int kPrefillSteps = 30;
constexpr int64_t kL0PartitionMs = 5'000;
constexpr int64_t kL2PartitionMs = 10'000;
constexpr int kSetups = 3;
/// Latency percentiles are taken per window of this many seconds (by due
/// time); the run reports their median. A window spans several stall
/// cycles, so its tail percentiles are not decided by a single stall.
constexpr double kWindowS = 5;

uint64_t HostsFor(const RunOptions& o) { return o.tiny ? kHostsPerBatch : 20; }

struct Pass {
  double setup_s = 0;
  double sps = 0;
  double disk_bytes_per_sample = 0;
  double mem_bytes_per_series = 0;
  // Latencies from due time, by due-time window.
  WindowedLatency write_us{0, 1}, query_us{0, 1}, agg_us{0, 1};
  std::vector<double> late_us;
  uint64_t l1_l2_compactions = 0;
};

class RecentWorkload {
 public:
  explicit RecentWorkload(const RunOptions& options)
      : o_(options),
        hosts_(HostsFor(options)),
        batches_per_step_(hosts_ / kHostsPerBatch),
        batch_samples_(kHostsPerBatch * kFields),
        // A traced run splits its time between an untraced and a traced
        // pass.
        pass_seconds_(options.trace ? options.seconds / 2 : options.seconds),
        timed_batches_(static_cast<uint64_t>(
            pass_seconds_ * kSamplesPerSec / static_cast<double>(batch_samples_))),
        timed_steps_(timed_batches_ / batches_per_step_),
        gen_(DevOpsFor(options.seed, hosts_, kIntervalMs,
                       (kPrefillSteps + timed_steps_ + 1) * kIntervalMs,
                       kL2PartitionMs)) {}

  Report Run();

 private:
  core::DBOptions Options(const std::string& ws) const;
  /// Open, register, prefill. Returns the set-up seconds (< 0 on failure).
  double Setup(const std::string& ws, std::unique_ptr<core::TimeUnionDB>* db,
               std::vector<uint64_t>* refs);
  core::WriteBatch MakeBatch(uint64_t step, uint64_t part,
                             const std::vector<uint64_t>& refs) const;
  Pass RunPass(int index, bool traced);

  const RunOptions o_;
  const uint64_t hosts_;
  const uint64_t batches_per_step_;
  const uint64_t batch_samples_;
  const double pass_seconds_;
  const uint64_t timed_batches_;
  const uint64_t timed_steps_;
  const tsbs::DevOpsGenerator gen_;
  Report report_;
};

core::DBOptions RecentWorkload::Options(const std::string& ws) const {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = tu::cloud::TieredEnvOptions();  // calibrated EBS/S3
  opts.lsm.background_flush = true;
  opts.lsm.memtable_bytes = 1 << 20;
  opts.lsm.l0_partition_ms = kL0PartitionMs;
  opts.lsm.l2_partition_ms = kL2PartitionMs;
  opts.lsm.partition_lower_bound_ms = kL0PartitionMs;
  return opts;
}

core::WriteBatch RecentWorkload::MakeBatch(
    uint64_t step, uint64_t part, const std::vector<uint64_t>& refs) const {
  core::WriteBatch b;
  const int64_t ts = gen_.start_ts() + static_cast<int64_t>(step) * kIntervalMs;
  for (uint64_t h = part * kHostsPerBatch; h < (part + 1) * kHostsPerBatch;
       ++h) {
    for (int f = 0; f < kFields; ++f) {
      b.AddSample(refs[h * kFields + f], ts, gen_.Value(h, f, ts));
    }
  }
  return b;
}

double RecentWorkload::Setup(const std::string& ws,
                             std::unique_ptr<core::TimeUnionDB>* db,
                             std::vector<uint64_t>* refs) {
  RemoveTree(ws);
  const int64_t start = NowNs();
  Status s = core::TimeUnionDB::Open(Options(ws), db);
  if (s.ok()) s = RegisterAll(db->get(), gen_, refs);
  core::WriteResult result;
  for (int step = 0; s.ok() && step < kPrefillSteps; ++step) {
    for (uint64_t part = 0; s.ok() && part < batches_per_step_; ++part) {
      s = (*db)->Write(MakeBatch(step, part, *refs), &result);
      if (s.ok()) s = result.first_error;
    }
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  report_.Op(s.ok(), "open, register and prefill");
  if (!s.ok()) {
    report_.Fail("setup: " + s.ToString());
    return -1;
  }
  return seconds;
}

Pass RecentWorkload::RunPass(int index, bool traced) {
  Pass pass;
  const std::string ws = o_.work_dir + "/recent-" + std::to_string(index);
  const int64_t mem_base = TrackedBytesExCache();
  Tracer::Get().SetOn(traced);
  std::unique_ptr<core::TimeUnionDB> db;
  std::vector<uint64_t> refs;
  pass.setup_s = Setup(ws, &db, &refs);
  if (pass.setup_s < 0) {
    Tracer::Get().SetOn(false);
    return pass;
  }

  // Inputs, generated before timing: the writer's batches and the reader's
  // series choices.
  std::vector<core::WriteBatch> batches;
  batches.reserve(timed_batches_);
  for (uint64_t i = 0; i < timed_steps_ * batches_per_step_; ++i) {
    batches.push_back(MakeBatch(kPrefillSteps + i / batches_per_step_,
                                i % batches_per_step_, refs));
  }
  const uint64_t num_requests =
      static_cast<uint64_t>(pass_seconds_ * kRequestsPerSec);
  std::vector<uint64_t> picks(num_requests);
  Rng rng(o_.seed * 104729 + static_cast<uint64_t>(index));
  for (uint64_t& p : picks) p = rng.Uniform(gen_.num_series());

  const Counters before = Counters::Take(db.get());
  std::atomic<uint64_t> acked_steps{kPrefillSteps};
  std::atomic<uint64_t> write_failures{0};
  std::vector<double> writer_late;
  ReadTally tally;
  std::vector<double> reader_late;
  const int64_t write_period_ns =
      static_cast<int64_t>(1e9 * static_cast<double>(batch_samples_) /
                           kSamplesPerSec);
  const int64_t read_period_ns = static_cast<int64_t>(1e9 / kRequestsPerSec);
  const int64_t t0 = NowNs() + 1'000'000;
  int64_t last_ack = t0;
  const int64_t window_ns = static_cast<int64_t>(kWindowS * 1e9);
  pass.write_us = WindowedLatency(t0, window_ns);
  pass.query_us = WindowedLatency(t0, window_ns);
  pass.agg_us = WindowedLatency(t0, window_ns);

  std::thread writer([&] {
    core::WriteResult result;
    for (size_t i = 0; i < batches.size(); ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i) * write_period_ns;
      SleepUntilNs(due);
      const uint64_t req = Tracer::Get().NewId();
      Span root("req.write", req, 0, due);
      const int64_t sent = NowNs();
      bool ok;
      {
        Span span("core.write", req, root.id());
        ok = db->Write(batches[i], &result).ok() && result.ok() &&
             result.appended == batches[i].NumRows();
      }
      last_ack = NowNs();
      pass.write_us.Add(due, static_cast<double>(last_ack - due) / 1e3);
      writer_late.push_back(static_cast<double>(sent - due) / 1e3);
      if (!ok) write_failures.fetch_add(1);
      if ((i + 1) % batches_per_step_ == 0) {
        acked_steps.store(kPrefillSteps + (i + 1) / batches_per_step_,
                          std::memory_order_release);
      }
    }
  });

  std::thread reader([&] {
    for (uint64_t i = 0; i < num_requests; ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i) * read_period_ns;
      SleepUntilNs(due);
      const uint64_t series = picks[i];
      const uint64_t host = series / kFields;
      const int field = static_cast<int>(series % kFields);
      const uint64_t steps = acked_steps.load(std::memory_order_acquire);
      const int64_t newest =
          gen_.start_ts() + static_cast<int64_t>(steps - 1) * kIntervalMs;
      const bool is_agg = i % kAggEvery == kAggEvery - 1;
      const int64_t from = newest - (is_agg ? kAggWindowMs : kRawWindowMs);
      const auto matchers = SeriesMatchers(gen_, host, field);
      const uint64_t req = Tracer::Get().NewId();
      const uint64_t slow_before = db->env().slow().counters().get_ops.load();
      int64_t sent = 0;
      int64_t done = 0;
      bool ok = false;
      if (is_agg) {
        core::TimeUnionDB::AggregateResult agg;
        Status s;
        {
          Span root("req.agg", req, 0, due);
          sent = NowNs();
          {
            Span span("core.aggregate", req, root.id());
            s = db->AggregateQuery(
                query::ReadRequest::Aggregate(matchers, from, newest,
                                              kAggStepMs, query::AggFn::kMax),
                &agg);
          }
          done = NowNs();
        }
        pass.agg_us.Add(due, static_cast<double>(done - due) / 1e3);
        tally.agg_stats.Add(agg.stats);
        tally.agg_slow_gets +=
            db->env().slow().counters().get_ops.load() - slow_before;
        ++tally.aggs;
        // Expected: the generator's samples of the window, all acked.
        std::vector<int64_t> ts;
        std::vector<double> vs;
        for (int64_t t = std::max(from, gen_.start_ts()); t <= newest;
             t += kIntervalMs) {
          if ((t - gen_.start_ts()) % kIntervalMs != 0) continue;
          ts.push_back(t);
          vs.push_back(gen_.Value(host, field, t));
        }
        ok = s.ok() && agg.series.size() == 1 &&
             SamePoints(agg.series[0].points,
                        FoldRaw(ts, vs, kAggStepMs, query::AggFn::kMax));
        report_.Op(ok, "recent aggregate");
      } else {
        std::vector<SeriesData> got;
        Status s;
        {
          Span root("req.query", req, 0, due);
          sent = NowNs();
          s = DrainQuery(db.get(),
                         query::ReadRequest::Range(matchers, from, newest), req,
                         root.id(), &got, &tally.query_stats);
          done = NowNs();
        }
        pass.query_us.Add(due, static_cast<double>(done - due) / 1e3);
        tally.query_slow_gets +=
            db->env().slow().counters().get_ops.load() - slow_before;
        ++tally.queries;
        for (const SeriesData& d : got) tally.samples_returned += d.ts.size();
        ok = s.ok() && got.size() == 1 &&
             MatchesGenerator(gen_, host, field, from, newest, steps,
                              got[0].ts.data(), got[0].vs.data(),
                              got[0].ts.size());
        report_.Op(ok, "recent query");
      }
      reader_late.push_back(static_cast<double>(sent - due) / 1e3);
    }
  });
  writer.join();
  reader.join();

  const uint64_t timed_samples = batches.size() * batch_samples_;
  pass.sps = static_cast<double>(timed_samples) /
             (static_cast<double>(last_ack - t0) / 1e9);
  report_.attempted += batches.size();
  report_.failed += write_failures.load();
  if (write_failures.load() != 0) report_.Fail("recent writes failed");
  pass.mem_bytes_per_series =
      static_cast<double>(TrackedBytesExCache() - mem_base) /
      static_cast<double>(db->NumSeries());
  pass.late_us = writer_late;
  pass.late_us.insert(pass.late_us.end(), reader_late.begin(),
                      reader_late.end());

  Status s;
  {
    Span span("core.flush", 0, 0);
    s = db->Flush();
  }
  report_.Op(s.ok(), "flush");
  const uint64_t samples_in_db =
      (kPrefillSteps + timed_steps_) * gen_.num_series();
  pass.disk_bytes_per_sample = static_cast<double>(TierDirBytes(ws)) /
                               static_cast<double>(samples_in_db);
  const Counters after = Counters::Take(db.get());
  pass.l1_l2_compactions = after.Counter("lsm.compactions_l1_l2") -
                           before.Counter("lsm.compactions_l1_l2");
  Tracer::Get().SetOn(false);
  if (traced) {
    FillLayerMetrics(db.get(), before, after,
                     Summarize(Tracer::Get().All()), tally, timed_samples,
                     &report_);
  }
  db.reset();
  RemoveTree(ws);
  return pass;
}

Report RecentWorkload::Run() {
  report_.header["hosts"] = std::to_string(hosts_);
  report_.header["series"] = std::to_string(gen_.num_series());
  report_.header["batch_samples"] = std::to_string(batch_samples_);
  report_.header["offered_samples_per_s"] = std::to_string(kSamplesPerSec);
  report_.header["offered_requests_per_s"] = std::to_string(kRequestsPerSec);
  report_.header["timed_batches_per_pass"] = std::to_string(timed_batches_);
  report_.header["data_interval_ms"] = std::to_string(kIntervalMs);
  report_.header["wal"] = "off";
  const core::DBOptions opts = Options("");
  report_.header["fast_tier"] = DescribeTier(opts.env_options.fast_sim);
  report_.header["slow_tier"] = DescribeTier(opts.env_options.slow_sim);

  std::vector<double> setups;
  std::vector<Pass> passes;
  if (o_.trace) {
    // Untraced then traced pass: the difference is the tracing overhead.
    passes.push_back(RunPass(0, false));
    passes.push_back(RunPass(1, true));
    const double untraced = passes[0].query_us.Stat(0.5);
    report_.per_layer["trace.overhead_p50_pct"] =
        untraced > 0
            ? (passes[1].query_us.Stat(0.5) - untraced) / untraced * 100
            : 0;
    report_.per_layer["query.p999_us"] =
        Percentile(passes[0].query_us.Pooled(), 0.999);
    report_.per_layer["write.p90_us"] = passes[0].write_us.Stat(0.90);
    report_.per_layer["query.p90_us"] = passes[0].query_us.Stat(0.90);
    report_.per_layer["agg.p90_us"] = passes[0].agg_us.Stat(0.90);
    report_.per_layer["write.p99_us"] = passes[0].write_us.Stat(0.99);
    report_.per_layer["query.p99_us"] = passes[0].query_us.Stat(0.99);
    report_.per_layer["agg.p99_us"] = passes[0].agg_us.Stat(0.99);
    report_.per_layer["loadgen.late_us.p99"] =
        Percentile(passes[0].late_us, 0.99);
    report_.per_layer["loadgen.late_us.max"] = MaxOf(passes[0].late_us);
  } else {
    // Extra set-ups for a median set-up time, then the measured pass.
    for (int i = 1; i < kSetups; ++i) {
      std::unique_ptr<core::TimeUnionDB> db;
      std::vector<uint64_t> refs;
      const std::string ws = o_.work_dir + "/recent-setup";
      setups.push_back(Setup(ws, &db, &refs));
      db.reset();
      RemoveTree(ws);
    }
    passes.push_back(RunPass(0, false));
  }
  const Pass& p = passes[0];
  setups.push_back(p.setup_s);
  auto& e = report_.end_to_end;
  e["setup_s"] = Median(setups);
  e["ingest_sps"] = p.sps;
  e["write_p50_us"] = p.write_us.Stat(0.50);
  e["query_p50_us"] = p.query_us.Stat(0.50);
  e["agg_p50_us"] = p.agg_us.Stat(0.50);
  e["disk_bytes_per_sample"] = p.disk_bytes_per_sample;
  e["mem_bytes_per_series"] = p.mem_bytes_per_series;
  report_.header["write_batches"] = std::to_string(p.write_us.Pooled().size());
  report_.header["queries"] = std::to_string(p.query_us.Pooled().size());
  report_.header["aggregates"] = std::to_string(p.agg_us.Pooled().size());
  report_.header["window_s"] = std::to_string(kWindowS);
  report_.header["generator_late_us_p99"] =
      std::to_string(Percentile(p.late_us, 0.99));
  report_.header["generator_late_us_max"] = std::to_string(MaxOf(p.late_us));
  report_.header["l1_l2_compactions"] = std::to_string(p.l1_l2_compactions);
  return report_;
}

}  // namespace

Report RunRecent(const RunOptions& options) {
  return RecentWorkload(options).Run();
}

}  // namespace perfbench
