// Table 3: persisted index and data sizes, tsdb vs TU vs TU-Group
// (paper, at 2M series: index 3.27 / 2.70 / 2.20 GB; data 20.28 / 8.61 /
// 2.42 GB — tsdb's per-partition indexes duplicate data; the paper's
// SSTable blocks get a further LZ compression pass, which this repo leaves
// out (DESIGN.md "SSTable format"); group chunks deduplicate timestamps).
#include <cstdio>

#include "bench_util.h"
#include "engine_harness.h"
#include "util/memory_tracker.h"

using namespace tu;
using namespace tu::bench;

int main() {
  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 10;
  gen_opts.interval_ms = 30'000;
  gen_opts.duration_ms = 24LL * 3600 * 1000;
  tsbs::DevOpsGenerator gen(gen_opts);

  PrintHeader("Table 3", "persisted index and data size (MB)");
  std::printf("  %-10s %12s %12s\n", "engine", "index(MB)", "data(MB)");

  const EngineKind engines[] = {EngineKind::kTsdb, EngineKind::kTU,
                                EngineKind::kTUGroup};
  double data_tsdb = 0, data_tu = 0, data_group = 0;
  for (EngineKind kind : engines) {
    MemoryTracker::Global().Reset();
    HarnessOptions opts;
    opts.workspace =
        FreshWorkspace(std::string("table3_") + EngineName(kind));
    EngineHarness harness(kind, opts);
    Status st = harness.Open();
    InsertReport report;
    if (st.ok()) st = harness.RunInsert(gen, &report);
    if (st.ok()) st = harness.Flush();
    if (!st.ok()) {
      std::printf("  %-10s FAILED: %s\n", EngineName(kind),
                  st.ToString().c_str());
      return 1;
    }
    const double index_mb = harness.PersistedIndexBytes() / 1048576.0;
    const double data_mb = harness.PersistedDataBytes() / 1048576.0;
    std::printf("  %-10s %12.2f %12.2f\n", EngineName(kind), index_mb,
                data_mb);
    if (kind == EngineKind::kTsdb) data_tsdb = data_mb;
    if (kind == EngineKind::kTU) data_tu = data_mb;
    if (kind == EngineKind::kTUGroup) data_group = data_mb;
  }
  PrintRow("data: tsdb / TU", data_tsdb / data_tu, "x");
  PrintRow("data: TU / TU-Group", data_tu / data_group, "x");
  std::printf(
      "\n  shape checks: tsdb > TU on both rows (duplicate per-partition\n"
      "  indexes; TU's compaction merges chunks); TU-Group smallest (shared\n"
      "  timestamp columns).\n");
  return 0;
}
