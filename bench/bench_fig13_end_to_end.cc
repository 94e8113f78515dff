// Figure 13: end-to-end evaluation through the simulated remote-write /
// HTTP layer — Cortex vs TU (slow path) vs TU-fast vs TU-Group.
//  (a) insertion throughput (10,000-sample batches per request);
//  (b) query latency, pattern 5-1-24;
//  (c) query latency, pattern 5-8-1;
//  (d) memory usage.
// Reported time = CPU wall time + charged RPC time (see cortex_sim.h).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "baseline/cortex_sim.h"
#include "tsbs/devops.h"
#include "util/memory_tracker.h"

using namespace tu;
using namespace tu::bench;

namespace {

constexpr size_t kBatchSamples = 10'000;

struct SystemResult {
  const char* name;
  double insert_throughput = 0;
  double q_5_1_24_us = 0;
  double q_5_8_1_us = 0;
  double memory_mb = 0;
};

tsbs::DevOpsOptions GenOptions() {
  tsbs::DevOpsOptions o;
  o.num_hosts = 8;
  o.interval_ms = 60'000;
  o.duration_ms = 24LL * 3600 * 1000;
  return o;
}

/// Feeds the whole workload in kBatchSamples batches.
template <typename WriteBatch>
Status DriveInsert(const tsbs::DevOpsGenerator& gen, WriteBatch&& write,
                   double* charged_us_out, double* wall_s) {
  const uint64_t start = NowUs();
  std::vector<baseline::RemoteSample> batch;
  batch.reserve(kBatchSamples);
  for (uint64_t step = 0; step < gen.num_steps(); ++step) {
    const int64_t ts = gen.start_ts() + step * gen.interval_ms();
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      for (int s = 0; s < tsbs::DevOpsGenerator::kSeriesPerHost; ++s) {
        batch.push_back(
            {gen.SeriesLabels(h, s), ts, gen.Value(h, s, ts)});
        if (batch.size() >= kBatchSamples) {
          TU_RETURN_IF_ERROR(write(batch));
          batch.clear();
        }
      }
    }
  }
  if (!batch.empty()) TU_RETURN_IF_ERROR(write(batch));
  *wall_s = (NowUs() - start) / 1e6;
  (void)charged_us_out;
  return Status::OK();
}

Status QueryLatency(const tsbs::DevOpsGenerator& gen,
                    const tsbs::QueryPattern& pattern,
                    const std::function<Status(
                        const std::vector<index::TagMatcher>&, int64_t,
                        int64_t)>& run,
                    double extra_us_per_query, double* out_us) {
  double total = 0;
  const int repeats = 3;
  for (int r = 0; r < repeats; ++r) {
    const auto matchers = tsbs::PatternSelectors(pattern, gen, 500 + r);
    const int64_t t1 = gen.end_ts();
    const int64_t t0 = std::max<int64_t>(
        gen.start_ts(), t1 - pattern.hours * 3600LL * 1000);
    const uint64_t start = NowUs();
    TU_RETURN_IF_ERROR(run(matchers, t0, t1));
    total += (NowUs() - start) + extra_us_per_query;
  }
  *out_us = total / repeats;
  return Status::OK();
}

}  // namespace

int main() {
  const auto gen_opts = GenOptions();
  tsbs::DevOpsGenerator gen(gen_opts);
  const auto patterns = tsbs::StandardPatterns();
  const auto& p_5_1_24 = patterns[4];
  const auto& p_5_8_1 = patterns[5];
  baseline::RpcCosts costs;

  std::vector<SystemResult> results;

  // ---- Cortex ------------------------------------------------------------
  {
    MemoryTracker::Global().Reset();
    baseline::TsdbOptions opts;
    opts.workspace = FreshWorkspace("fig13_cortex");
    baseline::CortexSim cortex(opts, costs);
    Status st = cortex.Open();
    SystemResult r{"Cortex"};
    double wall_s = 0;
    if (st.ok()) {
      st = DriveInsert(gen,
                       [&](const std::vector<baseline::RemoteSample>& batch) {
                         return cortex.RemoteWrite(batch);
                       },
                       nullptr, &wall_s);
    }
    if (st.ok()) st = cortex.Flush();
    if (st.ok()) {
      const double total_s =
          wall_s + cortex.write_stats().charged_us / 1e6;
      r.insert_throughput = gen.num_series() * gen.num_steps() / total_s;
      const double rpc_us = costs.http_request_us + costs.grpc_hop_us;
      auto run = [&](const std::vector<index::TagMatcher>& m, int64_t t0,
                     int64_t t1) {
        std::vector<baseline::TsdbSeriesResult> result;
        return cortex.QueryRange(m, t0, t1, &result);
      };
      st = QueryLatency(gen, p_5_1_24, run, rpc_us, &r.q_5_1_24_us);
      if (st.ok()) st = QueryLatency(gen, p_5_8_1, run, rpc_us, &r.q_5_8_1_us);
      r.memory_mb = MemoryTracker::Global().Total() / 1048576.0;
    }
    if (!st.ok()) std::printf("Cortex FAILED: %s\n", st.ToString().c_str());
    results.push_back(r);
  }

  // ---- TU / TU-fast ------------------------------------------------------
  for (bool fast : {false, true}) {
    MemoryTracker::Global().Reset();
    core::DBOptions opts;
    opts.workspace = FreshWorkspace(fast ? "fig13_tufast" : "fig13_tu");
    opts.lsm.memtable_bytes = 256 << 10;
    baseline::TimeUnionRemote remote(
        opts, costs,
        fast ? baseline::TimeUnionRemote::Mode::kFastPath
             : baseline::TimeUnionRemote::Mode::kSlowPath);
    Status st = remote.Open();
    SystemResult r{fast ? "TU-fast" : "TU"};
    double wall_s = 0;
    if (st.ok() && fast) {
      // TU-fast: the client registers once, then streams ID payloads.
      std::vector<uint64_t> refs(gen.num_series());
      for (uint64_t h = 0; h < gen.num_hosts() && st.ok(); ++h) {
        for (int s = 0; s < 101; ++s) {
          st = remote.RegisterSeries(gen.SeriesLabels(h, s),
                                     &refs[h * 101 + s]);
          if (!st.ok()) break;
        }
      }
      const uint64_t start = NowUs();
      std::vector<baseline::TimeUnionRemote::RefSample> batch;
      batch.reserve(kBatchSamples);
      for (uint64_t step = 0; step < gen.num_steps() && st.ok(); ++step) {
        const int64_t ts = gen.start_ts() + step * gen.interval_ms();
        for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
          for (int s = 0; s < 101; ++s) {
            batch.push_back({refs[h * 101 + s], ts, gen.Value(h, s, ts)});
            if (batch.size() >= kBatchSamples) {
              st = remote.RemoteWriteFast(batch);
              batch.clear();
              if (!st.ok()) break;
            }
          }
        }
      }
      if (st.ok() && !batch.empty()) st = remote.RemoteWriteFast(batch);
      wall_s = (NowUs() - start) / 1e6;
    } else if (st.ok()) {
      st = DriveInsert(gen,
                       [&](const std::vector<baseline::RemoteSample>& batch) {
                         return remote.RemoteWrite(batch);
                       },
                       nullptr, &wall_s);
    }
    if (st.ok()) st = remote.Flush();
    if (st.ok()) {
      const double total_s = wall_s + remote.write_stats().charged_us / 1e6;
      r.insert_throughput = gen.num_series() * gen.num_steps() / total_s;
      auto run = [&](const std::vector<index::TagMatcher>& m, int64_t t0,
                     int64_t t1) {
        core::QueryResult result;
        return remote.QueryRange(m, t0, t1, &result);
      };
      st = QueryLatency(gen, p_5_1_24, run, costs.http_request_us,
                        &r.q_5_1_24_us);
      if (st.ok()) {
        st = QueryLatency(gen, p_5_8_1, run, costs.http_request_us,
                          &r.q_5_8_1_us);
      }
      r.memory_mb = MemoryTracker::Global().Total() / 1048576.0;
    }
    if (!st.ok()) std::printf("%s FAILED: %s\n", r.name, st.ToString().c_str());
    results.push_back(r);
  }

  // ---- TU-Group ----------------------------------------------------------
  {
    MemoryTracker::Global().Reset();
    core::DBOptions opts;
    opts.workspace = FreshWorkspace("fig13_tugroup");
    opts.lsm.memtable_bytes = 256 << 10;
    baseline::TimeUnionRemote remote(opts, costs,
                                     baseline::TimeUnionRemote::Mode::kGroup);
    Status st = remote.Open();
    SystemResult r{"TU-Group"};
    double wall_s = 0;
    if (st.ok()) {
      const uint64_t start = NowUs();
      std::vector<index::Labels> member_tags(101);
      for (int s = 0; s < 101; ++s) member_tags[s] = gen.UniqueTags(s);
      std::vector<baseline::TimeUnionRemote::GroupRow> batch;
      const size_t rows_per_batch = kBatchSamples / 101;
      for (uint64_t step = 0; step < gen.num_steps() && st.ok(); ++step) {
        const int64_t ts = gen.start_ts() + step * gen.interval_ms();
        for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
          baseline::TimeUnionRemote::GroupRow row;
          row.group_key = h;
          row.ts = ts;
          if (step == 0) {
            // First round registers the group and its members; later
            // rounds stream ID+slot payloads (fast group API).
            row.group_tags = gen.HostTags(h);
            row.member_tags = member_tags;
          }
          row.values.resize(101);
          for (int s = 0; s < 101; ++s) row.values[s] = gen.Value(h, s, ts);
          batch.push_back(std::move(row));
          if (batch.size() >= rows_per_batch) {
            st = remote.RemoteWriteGroups(batch);
            batch.clear();
            if (!st.ok()) break;
          }
        }
        // The registration round goes out alone: a request is one Write,
        // and later rows carry only the group refs this round resolves.
        if (st.ok() && step == 0 && !batch.empty()) {
          st = remote.RemoteWriteGroups(batch);
          batch.clear();
        }
      }
      if (st.ok() && !batch.empty()) st = remote.RemoteWriteGroups(batch);
      wall_s = (NowUs() - start) / 1e6;
    }
    if (st.ok()) st = remote.Flush();
    if (st.ok()) {
      const double total_s = wall_s + remote.write_stats().charged_us / 1e6;
      r.insert_throughput = gen.num_series() * gen.num_steps() / total_s;
      auto run = [&](const std::vector<index::TagMatcher>& m, int64_t t0,
                     int64_t t1) {
        core::QueryResult result;
        return remote.QueryRange(m, t0, t1, &result);
      };
      st = QueryLatency(gen, p_5_1_24, run, costs.http_request_us,
                        &r.q_5_1_24_us);
      if (st.ok()) {
        st = QueryLatency(gen, p_5_8_1, run, costs.http_request_us,
                          &r.q_5_8_1_us);
      }
      r.memory_mb = MemoryTracker::Global().Total() / 1048576.0;
    }
    if (!st.ok()) std::printf("TU-Group FAILED: %s\n", st.ToString().c_str());
    results.push_back(r);
  }

  PrintHeader("Figure 13", "end-to-end evaluation (remote write / HTTP)");
  std::printf("  %-10s %16s %14s %14s %12s\n", "system", "insert(sm/s)",
              "5-1-24(us)", "5-8-1(us)", "memory(MB)");
  for (const auto& r : results) {
    std::printf("  %-10s %16.0f %14.0f %14.0f %12.2f\n", r.name,
                r.insert_throughput, r.q_5_1_24_us, r.q_5_8_1_us, r.memory_mb);
  }
  std::printf(
      "\n  shape checks: TU > Cortex on insertion (gRPC hop overhead);\n"
      "  TU-fast >> TU (no per-sample tag handling); TU-Group > TU-fast\n"
      "  (timestamp dedup); Cortex worst on 5-1-24 (index fetches).\n");
  return 0;
}
