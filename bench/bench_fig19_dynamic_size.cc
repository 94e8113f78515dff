// Figure 19: dynamic size control under a fixed (scaled) EBS limit.
// Three phases like the paper: dense samples (10 s) push the partition
// length down; sparse samples (60 s) let it grow; a second dense phase
// pushes it down again, with EBS usage staying under the limit.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/timeunion_db.h"
#include "tsbs/devops.h"

using namespace tu;
using namespace tu::bench;

int main() {
  const uint64_t kLimit = 3ull << 19;  // 1.5 MB, scaled from the paper's 512 MB

  core::DBOptions opts;
  opts.workspace = FreshWorkspace("fig19");
  opts.lsm.memtable_bytes = 128 << 10;
  opts.lsm.fast_storage_limit_bytes = kLimit;
  std::unique_ptr<core::TimeUnionDB> db;
  Status st = core::TimeUnionDB::Open(opts, &db);
  if (!st.ok()) {
    std::printf("FAILED: %s\n", st.ToString().c_str());
    return 1;
  }

  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 4;
  tsbs::DevOpsGenerator gen(gen_opts);
  std::vector<uint64_t> refs(gen.num_series(), 0);

  PrintHeader("Figure 19",
              "dynamic size control (1.5MB scaled limit; paper: 512MB)");
  std::printf("  %-26s %16s %14s\n", "phase/progress",
              "partition(min)", "EBS used(KB)");

  int64_t ts = 0;
  // One row per Write, through one reused batch.
  core::WriteBatch batch;
  core::WriteResult written;
  auto run_phase = [&](const char* name, int64_t interval_ms,
                       int64_t duration_ms) -> Status {
    const int64_t phase_end = ts + duration_ms;
    const int64_t report_stride = duration_ms / 4;
    int64_t next_report = ts + report_stride;
    while (ts < phase_end) {
      for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
        for (int s = 0; s < 101; ++s) {
          const size_t slot = h * 101 + s;
          batch.Clear();
          if (refs[slot] == 0) {
            batch.AddSample(gen.SeriesLabels(h, s), ts, gen.Value(h, s, ts));
            TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
            refs[slot] = written.resolved_refs[0];
          } else {
            batch.AddSample(refs[slot], ts, gen.Value(h, s, ts));
            TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
          }
        }
      }
      ts += interval_ms;
      if (ts >= next_report) {
        std::printf("  %-26s %16.1f %14.0f\n", name,
                    db->time_lsm()->l0_partition_ms() / 60000.0,
                    db->time_lsm()->FastBytesUsed() / 1024.0);
        next_report += report_stride;
      }
    }
    return Status::OK();
  };

  st = run_phase("dense (10s interval)", 10'000, 6LL * 3600 * 1000);
  if (st.ok()) st = run_phase("sparse (60s interval)", 60'000,
                              18LL * 3600 * 1000);
  if (st.ok()) st = run_phase("dense again (10s)", 10'000,
                              6LL * 3600 * 1000);
  if (!st.ok()) {
    std::printf("FAILED: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "\n  shape checks: partition length halves under dense load, grows\n"
      "  in the sparse phase, halves again under the second dense phase;\n"
      "  EBS usage stays near/below the limit throughout.\n");
  return 0;
}
