// Figure 16: memory usage monitoring.
//  (a) average memory vs #series, tsdb vs TU vs TU-Group;
//  (b) memory-over-time trace during one insertion run (tsdb skyrockets
//      toward its limit; TU stays flat thanks to mmap-backed structures).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "engine_harness.h"
#include "util/memory_tracker.h"

using namespace tu;
using namespace tu::bench;

namespace {

/// Runs an insertion while sampling total tracked memory every `stride`
/// steps.
Status TraceRun(EngineKind kind, uint64_t hosts,
                std::vector<double>* trace_mb, double* avg_mb) {
  MemoryTracker::Global().Reset();
  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = hosts;
  gen_opts.interval_ms = 30'000;
  gen_opts.duration_ms = 24LL * 3600 * 1000;
  tsbs::DevOpsGenerator gen(gen_opts);

  HarnessOptions opts;
  opts.workspace = FreshWorkspace(std::string("fig16_") + EngineName(kind) +
                                  std::to_string(hosts));
  EngineHarness harness(kind, opts);
  TU_RETURN_IF_ERROR(harness.Open());

  // Manual insert loop with sampling (RunInsert doesn't sample).
  trace_mb->clear();
  double sum = 0;
  int count = 0;
  const uint64_t stride = std::max<uint64_t>(1, gen.num_steps() / 48);
  std::vector<uint64_t> refs(gen.num_series());
  std::vector<uint64_t> grefs(hosts);
  std::vector<std::vector<uint32_t>> gslots(hosts);
  std::vector<index::Labels> member_tags(101);
  for (int s = 0; s < 101; ++s) member_tags[s] = gen.UniqueTags(s);
  // TimeUnion takes one row per Write, through one reused batch.
  core::WriteBatch batch;
  core::WriteResult written;

  for (uint64_t step = 0; step < gen.num_steps(); ++step) {
    const int64_t ts = gen.start_ts() + step * gen.interval_ms();
    for (uint64_t h = 0; h < hosts; ++h) {
      if (kind == EngineKind::kTUGroup) {
        std::vector<double> values(101);
        for (int s = 0; s < 101; ++s) values[s] = gen.Value(h, s, ts);
        batch.Clear();
        if (step == 0) {
          batch.AddGroupRow(gen.HostTags(h), member_tags, ts,
                            std::move(values));
          TU_RETURN_IF_ERROR(WriteRows(harness.tu(), batch, &written));
          grefs[h] = written.resolved_groups[0].group_ref;
          gslots[h] = written.resolved_groups[0].slots;
        } else {
          batch.AddGroupRow(grefs[h], gslots[h], ts, std::move(values));
          TU_RETURN_IF_ERROR(WriteRows(harness.tu(), batch, &written));
        }
        continue;
      }
      for (int s = 0; s < 101; ++s) {
        const size_t slot = h * 101 + s;
        const double v = gen.Value(h, s, ts);
        if (step == 0) {
          if (harness.tu()) {
            batch.Clear();
            batch.AddSample(gen.SeriesLabels(h, s), ts, v);
            TU_RETURN_IF_ERROR(WriteRows(harness.tu(), batch, &written));
            refs[slot] = written.resolved_refs[0];
          } else {
            TU_RETURN_IF_ERROR(harness.tsdb()->Insert(gen.SeriesLabels(h, s),
                                                      ts, v, &refs[slot]));
          }
        } else if (harness.tu()) {
          batch.Clear();
          batch.AddSample(refs[slot], ts, v);
          TU_RETURN_IF_ERROR(WriteRows(harness.tu(), batch, &written));
        } else {
          TU_RETURN_IF_ERROR(harness.tsdb()->InsertFast(refs[slot], ts, v));
        }
      }
    }
    if (step % stride == 0) {
      const double mb = MemoryTracker::Global().Total() / 1048576.0;
      trace_mb->push_back(mb);
      sum += mb;
      ++count;
    }
  }
  *avg_mb = count ? sum / count : 0;
  return Status::OK();
}

}  // namespace

int main() {
  PrintHeader("Figure 16a", "average memory vs #series (MB)");
  std::printf("  %-10s %10s %10s %10s\n", "#series", "tsdb", "TU", "TU-Group");
  for (uint64_t hosts : {2, 5, 10}) {
    double avg_tsdb = 0, avg_tu = 0, avg_group = 0;
    std::vector<double> trace;
    if (!TraceRun(EngineKind::kTsdb, hosts, &trace, &avg_tsdb).ok() ||
        !TraceRun(EngineKind::kTU, hosts, &trace, &avg_tu).ok() ||
        !TraceRun(EngineKind::kTUGroup, hosts, &trace, &avg_group).ok()) {
      std::printf("  round failed\n");
      return 1;
    }
    std::printf("  %-10llu %10.2f %10.2f %10.2f\n",
                static_cast<unsigned long long>(hosts * 101), avg_tsdb,
                avg_tu, avg_group);
  }

  PrintHeader("Figure 16b", "memory over time, largest round (MB)");
  std::vector<double> tsdb_trace, tu_trace;
  double avg;
  if (!TraceRun(EngineKind::kTsdb, 10, &tsdb_trace, &avg).ok() ||
      !TraceRun(EngineKind::kTU, 10, &tu_trace, &avg).ok()) {
    return 1;
  }
  std::printf("  %-8s %10s %10s\n", "t(%)", "tsdb", "TU");
  for (size_t i = 0; i < tsdb_trace.size(); i += 4) {
    std::printf("  %-8zu %10.2f %10.2f\n", i * 100 / tsdb_trace.size(),
                tsdb_trace[i], i < tu_trace.size() ? tu_trace[i] : 0.0);
  }
  std::printf(
      "\n  shape checks: tsdb memory climbs with time (head + pinned block\n"
      "  metadata accumulate); TU stays flat and far below tsdb; TU-Group\n"
      "  lowest.\n");
  return 0;
}
