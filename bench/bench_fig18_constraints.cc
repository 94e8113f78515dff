// Figure 18: TimeUnion configuration sweeps.
//  (a) different EBS limits: normalized insert throughput + query latency
//      as the fast-storage budget grows;
//  (b) different amounts of out-of-order data (p0/p5/p10/p20): insertion,
//      short- and long-range queries as stale-volume grows.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/timeunion_db.h"
#include "tsbs/devops.h"
#include "util/random.h"

using namespace tu;
using namespace tu::bench;

namespace {

struct RunResult {
  double insert_throughput = 0;
  double q_short_us = 0;  // 1-1-1
  double q_long_us = 0;   // 5-1-24
  uint64_t patches = 0;
  uint64_t fast_bytes = 0;
  int64_t final_l0_ms = 0;
};

Status RunTimeUnion(const std::string& tag, uint64_t fast_limit,
                    double ooo_fraction, RunResult* result) {
  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 4;
  gen_opts.interval_ms = 10'000;
  gen_opts.duration_ms = 12LL * 3600 * 1000;
  tsbs::DevOpsGenerator gen(gen_opts);

  core::DBOptions opts;
  opts.workspace = FreshWorkspace("fig18_" + tag);
  opts.lsm.memtable_bytes = 256 << 10;
  opts.lsm.fast_storage_limit_bytes = fast_limit;
  std::unique_ptr<core::TimeUnionDB> db;
  TU_RETURN_IF_ERROR(core::TimeUnionDB::Open(opts, &db));

  std::vector<uint64_t> refs(gen.num_series());
  // One row per Write, through one reused batch.
  core::WriteBatch batch;
  core::WriteResult written;
  const uint64_t start = NowUs();
  uint64_t samples = 0;
  for (uint64_t step = 0; step < gen.num_steps(); ++step) {
    const int64_t ts = gen.start_ts() + step * gen.interval_ms();
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      for (int s = 0; s < 101; ++s) {
        const size_t slot = h * 101 + s;
        batch.Clear();
        if (step == 0) {
          batch.AddSample(gen.SeriesLabels(h, s), ts, gen.Value(h, s, ts));
          TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
          refs[slot] = written.resolved_refs[0];
        } else {
          batch.AddSample(refs[slot], ts, gen.Value(h, s, ts));
          TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
        }
        ++samples;
      }
    }
  }
  // Out-of-order injection: after normal insertion, a p% volume of stale
  // samples at random past timestamps of random series (§4.3).
  if (ooo_fraction > 0) {
    Random rng(99);
    const uint64_t ooo_samples =
        static_cast<uint64_t>(samples * ooo_fraction);
    for (uint64_t i = 0; i < ooo_samples; ++i) {
      const uint64_t slot = rng.Uniform(refs.size());
      const int64_t ts = gen.start_ts() +
                         static_cast<int64_t>(rng.Uniform(gen.num_steps())) *
                             gen.interval_ms();
      batch.Clear();
      batch.AddSample(refs[slot], ts, 999.0);
      TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
      ++samples;
    }
  }
  const double wall_s = (NowUs() - start) / 1e6;
  TU_RETURN_IF_ERROR(db->Flush());

  result->insert_throughput = samples / wall_s;
  result->patches = db->time_lsm()->stats().patches_created.load();
  result->fast_bytes = db->time_lsm()->FastBytesUsed();
  result->final_l0_ms = db->time_lsm()->l0_partition_ms();

  const auto patterns = tsbs::StandardPatterns();
  auto run_query = [&](const tsbs::QueryPattern& p, double* out) -> Status {
    double total = 0;
    for (int r = 0; r < 3; ++r) {
      const auto matchers = tsbs::PatternSelectors(p, gen, 40 + r);
      const int64_t t1 = gen.end_ts();
      const int64_t t0 = std::max<int64_t>(
          gen.start_ts(), t1 - p.hours * 3600LL * 1000);
      core::QueryResult qr;
      const uint64_t qstart = NowUs();
      TU_RETURN_IF_ERROR(db->Query(query::ReadRequest::Range(matchers, t0, t1),
                                   &qr));
      total += NowUs() - qstart;
    }
    *out = total / 3;
    return Status::OK();
  };
  TU_RETURN_IF_ERROR(run_query(patterns[0], &result->q_short_us));  // 1-1-1
  TU_RETURN_IF_ERROR(run_query(patterns[4], &result->q_long_us));   // 5-1-24
  return Status::OK();
}

}  // namespace

int main() {
  PrintHeader("Figure 18a", "different EBS limits (normalized to first)");
  const std::vector<uint64_t> limits = {256ull << 10, 1ull << 20, 4ull << 20,
                                        16ull << 20};
  RunResult base{};
  std::printf("  %-12s %14s %12s %12s %14s\n", "limit", "insert(norm)",
              "1-1-1(norm)", "5-1-24(norm)", "fast used(KB)");
  for (size_t i = 0; i < limits.size(); ++i) {
    RunResult r;
    Status st = RunTimeUnion("limit" + std::to_string(i), limits[i], 0, &r);
    if (!st.ok()) {
      std::printf("  FAILED: %s\n", st.ToString().c_str());
      return 1;
    }
    if (i == 0) base = r;
    std::printf("  %-12llu %14.2f %12.2f %12.2f %14.0f\n",
                static_cast<unsigned long long>(limits[i] >> 10),
                r.insert_throughput / base.insert_throughput,
                r.q_short_us / base.q_short_us,
                r.q_long_us / base.q_long_us, r.fast_bytes / 1024.0);
  }

  PrintHeader("Figure 18b", "different volumes of out-of-order data");
  std::printf("  %-6s %16s %12s %12s %10s\n", "ooo", "insert(sm/s)",
              "1-1-1(us)", "5-1-24(us)", "patches");
  for (double p : {0.0, 0.05, 0.10, 0.20}) {
    RunResult r;
    Status st =
        RunTimeUnion("p" + std::to_string(static_cast<int>(p * 100)),
                     4ull << 20, p, &r);
    if (!st.ok()) {
      std::printf("  FAILED: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("  p%-5d %16.0f %12.0f %12.0f %10llu\n",
                static_cast<int>(p * 100), r.insert_throughput, r.q_short_us,
                r.q_long_us, static_cast<unsigned long long>(r.patches));
  }
  std::printf(
      "\n  shape checks: insertion stable across limits and OOO volumes;\n"
      "  long-range latency falls as the EBS limit grows and rises with\n"
      "  more out-of-order data (more patch SSTables on S3).\n");
  return 0;
}
