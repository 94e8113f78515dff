// Ingest scaling: one-row Write throughput at 1/2/4/8 writer threads on the
// time-partitioned backend, WAL off and on, disjoint series per thread.
// Demonstrates the sharded write path: with the global lock gone, disjoint
// writers scale with available cores (target: 4 writers ≥ 2× one). The
// `cpus` field records hardware concurrency — on a single-core host the
// honest ceiling is ~1× regardless of the locking scheme, so interpret
// the trajectory relative to it.
//
// Emits one JSON line per configuration, e.g.
//   {"bench":"ingest_scaling","threads":4,"wal":false,"disjoint":true,
//    "cpus":8,"samples":3200000,"elapsed_s":1.234,
//    "throughput_sps":2593192.9}
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/timeunion_db.h"
#include "util/mmap_file.h"

namespace tu::bench {
namespace {

constexpr int kSeriesPerThread = 16;
constexpr int64_t kStepMs = 10'000;

// CI smoke mode (TU_BENCH_SMOKE): same configurations, tiny workload.
int SamplesPerSeries() { return SmokeMode() ? 1'000 : 25'000; }

struct Config {
  int threads = 1;
  bool wal = false;
};

double RunOne(const Config& cfg) {
  core::DBOptions opts;
  opts.workspace = FreshWorkspace("ingest_scaling");
  opts.lsm.memtable_bytes = 4 << 20;
  // Writers must not flush memtables inline — that's the background
  // workers' job (§3.3); here we measure the front-door write path.
  opts.lsm.background_flush = true;
  opts.enable_wal = cfg.wal;

  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return -1;
  }

  const int num_series = cfg.threads * kSeriesPerThread;
  std::vector<uint64_t> refs(num_series);
  for (int i = 0; i < num_series; ++i) {
    s = db->RegisterSeries({{"host", std::to_string(i)}, {"m", "cpu"}},
                           &refs[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return -1;
    }
  }

  const int samples_per_series = SamplesPerSeries();
  std::atomic<uint64_t> errors{0};
  const uint64_t t_start = NowUs();
  std::vector<std::thread> writers;
  for (int t = 0; t < cfg.threads; ++t) {
    writers.emplace_back([&, t] {
      // One row per Write, through one reused batch per writer.
      core::WriteBatch batch;
      core::WriteResult written;
      for (int i = 0; i < samples_per_series; ++i) {
        const int64_t ts = static_cast<int64_t>(i) * kStepMs;
        for (int sr = 0; sr < kSeriesPerThread; ++sr) {
          batch.Clear();
          batch.AddSample(refs[t * kSeriesPerThread + sr], ts, i);
          if (!WriteRows(db.get(), batch, &written).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  const uint64_t t_end = NowUs();

  if (errors.load() != 0) {
    std::fprintf(stderr, "insert errors: %llu\n",
                 static_cast<unsigned long long>(errors.load()));
    return -1;
  }
  const uint64_t total =
      static_cast<uint64_t>(num_series) * samples_per_series;
  const double elapsed_s = static_cast<double>(t_end - t_start) / 1e6;
  const double throughput = static_cast<double>(total) / elapsed_s;
  std::printf(
      "{\"bench\":\"ingest_scaling\",\"threads\":%d,\"wal\":%s,"
      "\"disjoint\":true,\"cpus\":%u,\"samples\":%llu,\"elapsed_s\":%.3f,"
      "\"throughput_sps\":%.1f}\n",
      cfg.threads, cfg.wal ? "true" : "false",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(total), elapsed_s, throughput);
  std::fflush(stdout);

  // Final-config introspection artifact for CI (satisfies the parse check).
  WriteSnapshotFile(MetricsSnapshotPath(), db->Metrics().ToJson());

  db.reset();
  RemoveDirRecursive(opts.workspace);
  return throughput;
}

int Main() {
  PrintHeader("ingest_scaling", "One-row Write throughput vs writer threads");
  double single_nowal = 0, quad_nowal = 0;
  for (bool wal : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      const double tput = RunOne(Config{threads, wal});
      if (tput < 0) return 1;
      if (!wal && threads == 1) single_nowal = tput;
      if (!wal && threads == 4) quad_nowal = tput;
    }
  }
  if (single_nowal > 0) {
    PrintRow("4-thread speedup (wal off)", quad_nowal / single_nowal, "x");
  }
  return 0;
}

}  // namespace
}  // namespace tu::bench

int main() { return tu::bench::Main(); }
