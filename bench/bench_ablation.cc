// Ablations of DESIGN.md's design choices:
//  (a) samples-per-chunk sweep — §3.2's "adjusted by users for the
//      trade-off between compression ratio and memory usage";
//  (b) patch-threshold sweep — §3.3's adjustable patch merge trigger:
//      more patches = cheaper OOO absorption but more S3 Gets per query.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/timeunion_db.h"
#include "util/memory_tracker.h"
#include "util/random.h"

using namespace tu;
using namespace tu::bench;

namespace {

constexpr int64_t kMin = 60 * 1000;

Status RunChunkSize(uint32_t samples_per_chunk, double* persisted_mb,
                    int64_t* sample_mem_peak, double* throughput) {
  MemoryTracker::Global().Reset();
  core::DBOptions opts;
  opts.workspace =
      FreshWorkspace("ablation_chunk" + std::to_string(samples_per_chunk));
  opts.samples_per_chunk = samples_per_chunk;
  opts.series_chunk_bytes = 64 + samples_per_chunk * 20;  // slot sized to fit
  opts.lsm.memtable_bytes = 256 << 10;
  std::unique_ptr<core::TimeUnionDB> db;
  TU_RETURN_IF_ERROR(core::TimeUnionDB::Open(opts, &db));

  const int kSeries = 64;
  std::vector<uint64_t> refs(kSeries);
  Random rng(1);
  const uint64_t start = NowUs();
  int64_t peak = 0;
  uint64_t samples = 0;
  // One row per Write, through one reused batch.
  core::WriteBatch batch;
  core::WriteResult written;
  for (int64_t ts = 0; ts < 6LL * 3600 * 1000; ts += 30'000) {
    for (int s = 0; s < kSeries; ++s) {
      batch.Clear();
      if (ts == 0) {
        batch.AddSample(index::Labels{{"s", std::to_string(s)}}, 0,
                        rng.NextDouble());
        TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
        refs[s] = written.resolved_refs[0];
      } else {
        batch.AddSample(refs[s], ts, rng.NextDouble());
        TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
      }
      ++samples;
    }
    peak = std::max(peak,
                    MemoryTracker::Global().Get(MemCategory::kSamples));
  }
  *throughput = samples / ((NowUs() - start) / 1e6);
  TU_RETURN_IF_ERROR(db->Flush());
  *persisted_mb = (db->time_lsm()->FastBytesUsed() +
                   db->time_lsm()->SlowBytesUsed()) /
                  1048576.0;
  *sample_mem_peak = peak;
  return Status::OK();
}

Status RunPatchThreshold(int threshold, uint64_t* patch_merges,
                         uint64_t* s3_gets_during_query,
                         double* query_us) {
  core::DBOptions opts;
  opts.workspace =
      FreshWorkspace("ablation_patch" + std::to_string(threshold));
  opts.lsm.memtable_bytes = 64 << 10;
  opts.lsm.patch_threshold = threshold;
  std::unique_ptr<core::TimeUnionDB> db;
  TU_RETURN_IF_ERROR(core::TimeUnionDB::Open(opts, &db));

  uint64_t ref = 0;
  TU_RETURN_IF_ERROR(db->RegisterSeries({{"m", "x"}}, &ref));
  core::WriteBatch batch;
  core::WriteResult written;
  batch.AddSample(ref, 0, 0.0);
  for (int64_t ts = kMin; ts < 12LL * 3600 * 1000; ts += kMin) {
    batch.AddSample(ref, ts, 1.0);
  }
  TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
  TU_RETURN_IF_ERROR(db->Flush());
  // Repeated stale rounds into hour 0, one batch each.
  for (int round = 0; round < 6; ++round) {
    batch.Clear();
    for (int64_t ts = 0; ts < 3600 * 1000; ts += 2 * kMin) {
      batch.AddSample(ref, ts, 10.0 + round);
    }
    TU_RETURN_IF_ERROR(WriteRows(db.get(), batch, &written));
    TU_RETURN_IF_ERROR(db->Flush());
  }
  *patch_merges = db->time_lsm()->stats().patch_merges.load();

  const uint64_t gets_before = db->env().slow().counters().get_ops.load();
  const uint64_t start = NowUs();
  core::QueryResult result;
  TU_RETURN_IF_ERROR(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("m", "x")}, 0, 3600 * 1000), &result));
  *query_us = static_cast<double>(NowUs() - start);
  *s3_gets_during_query =
      db->env().slow().counters().get_ops.load() - gets_before;
  return Status::OK();
}

}  // namespace

int main() {
  PrintHeader("Ablation (a)", "samples per chunk: compression vs memory");
  std::printf("  %-8s %14s %18s %16s\n", "chunk", "persisted(MB)",
              "peak samples(KB)", "insert(sm/s)");
  for (uint32_t n : {8, 16, 32, 64, 128}) {
    double mb = 0, thr = 0;
    int64_t peak = 0;
    if (!RunChunkSize(n, &mb, &peak, &thr).ok()) return 1;
    std::printf("  %-8u %14.2f %18.1f %16.0f\n", n, mb, peak / 1024.0, thr);
  }
  std::printf("  (larger chunks: better compression, more open-chunk "
              "memory — §3.2)\n");

  PrintHeader("Ablation (b)", "patch threshold: merges vs query reads");
  std::printf("  %-10s %12s %16s %12s\n", "threshold", "merges",
              "S3 gets/query", "query(us)");
  for (int t : {1, 3, 8, 1000}) {
    uint64_t merges, gets;
    double us;
    if (!RunPatchThreshold(t, &merges, &gets, &us).ok()) return 1;
    std::printf("  %-10d %12llu %16llu %12.0f\n", t,
                static_cast<unsigned long long>(merges),
                static_cast<unsigned long long>(gets), us);
  }
  std::printf("  (low threshold: frequent merges, fewer tables per query; "
              "high: patches pile up — §3.3)\n");
  return 0;
}
