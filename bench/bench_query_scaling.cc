// Query scaling: latency/throughput of the unified read pipeline at
// 1/2/4/8 reader threads, cold vs warm block cache, with the data either
// entirely on the fast tier or mostly L2-resident on the slow tier.
// Readers query disjoint series concurrently; the DB is rebuilt per
// configuration so the cold pass really starts with unopened readers and
// an empty block cache. The per-pass QueryStats totals (slow fetches,
// cache hits) are emitted so the cold/warm distinction is verifiable, not
// assumed.
//
// Emits one JSON line per (placement, threads, pass), e.g.
//   {"bench":"query_scaling","placement":"l2","threads":4,"cache":"cold",
//    "mode":"batch","queries":32,"elapsed_s":0.041,"avg_latency_us":5125.0,
//    "qps":780.5,"samples_per_s":1561000.0,"slow_fetches":96,"cache_hits":0,
//    "samples_per_query":2000}
//
// TU_BENCH_SCALAR_DRAIN=1 switches the drain to the per-sample cursor API
// (QueryIterators + Valid/value/Next) instead of the vectorized Query
// materialization — the escape hatch CI uses to keep the legacy drain
// path measured next to the batch one.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/timeunion_db.h"
#include "query/read_context.h"
#include "util/mmap_file.h"

namespace tu::bench {
namespace {

constexpr int64_t kStepMs = 250;

// CI smoke mode (TU_BENCH_SMOKE): same pipeline, tiny workload.
int SeriesCount() { return SmokeMode() ? 8 : 32; }
int SamplesPerSeries() { return SmokeMode() ? 400 : 2000; }
int64_t SpanMs() { return SamplesPerSeries() * kStepMs; }
int WarmRounds() { return SmokeMode() ? 2 : 5; }

bool ScalarDrainMode() {
  const char* v = std::getenv("TU_BENCH_SCALAR_DRAIN");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

struct Placement {
  const char* name;
  bool l2_resident;
};

std::unique_ptr<core::TimeUnionDB> BuildDb(const Placement& placement,
                                           std::vector<uint64_t>* refs) {
  core::DBOptions opts;
  opts.workspace = FreshWorkspace("query_scaling");
  if (placement.l2_resident) {
    // Tiny partitions: the 500 s workload ages through L0/L1 into many
    // slow-tier L2 partitions.
    opts.samples_per_chunk = 4;
    opts.lsm.memtable_bytes = 8 << 10;
    opts.lsm.l0_partition_ms = 1000;
    opts.lsm.l2_partition_ms = 4000;
    opts.lsm.partition_lower_bound_ms = 1000;
    opts.lsm.partition_upper_bound_ms = 4000;
    opts.lsm.l0_partition_trigger = 1;
  }
  // With default (2 h) partitions the whole span stays on the fast tier.

  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  refs->resize(SeriesCount());
  core::WriteBatch batch;
  core::WriteResult written;
  for (int i = 0; i < SeriesCount(); ++i) {
    // One batch per series, after registration resolves its ref.
    if (!db->RegisterSeries({{"host", std::to_string(i)}, {"m", "cpu"}},
                            &(*refs)[i])
             .ok()) {
      return nullptr;
    }
    batch.Clear();
    for (int j = 0; j < SamplesPerSeries(); ++j) {
      batch.AddSample((*refs)[i], j * kStepMs, 1.0 * j);
    }
    if (!WriteRows(db.get(), batch, &written).ok()) return nullptr;
  }
  if (!db->Flush().ok()) return nullptr;
  return db;
}

/// One pass: `threads` readers split the series round-robin, each series
/// queried `rounds` times over the full range. Returns false on error.
bool RunPass(core::TimeUnionDB* db, const Placement& placement, int threads,
             const char* cache, int rounds) {
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> queries{0};
  std::mutex stats_mu;
  query::QueryStats totals;

  const uint64_t t_start = NowUs();
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      query::QueryStats local;
      const bool scalar = ScalarDrainMode();
      for (int r = 0; r < rounds; ++r) {
        for (int i = t; i < SeriesCount(); i += threads) {
          const auto matcher =
              index::TagMatcher::Equal("host", std::to_string(i));
          size_t samples = 0;
          bool ok;
          if (scalar) {
            // Legacy drain: per-sample cursor over the streaming API.
            query::QueryStats qs;
            std::vector<core::TimeUnionDB::SeriesIterResult> iters;
            ok = db->QueryIterators(query::ReadRequest::Range({matcher}, 0,
                                                              SpanMs()), &iters,
                                    &qs).ok() &&
                 iters.size() == 1;
            if (ok) {
              std::vector<compress::Sample> out;
              for (auto* it = iters[0].iter.get(); it->Valid(); it->Next()) {
                out.push_back(it->value());
              }
              ok = iters[0].iter->status().ok();
              samples = out.size();
              local.Add(qs);
            }
          } else {
            core::QueryResult result;
            ok = db->Query(query::ReadRequest::Range({matcher}, 0, SpanMs()),
                           &result).ok() &&
                 result.size() == 1;
            if (ok) {
              samples = result[0].timestamps.size();
              local.Add(result.stats);
            }
          }
          if (!ok || samples != static_cast<size_t>(SamplesPerSeries())) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          queries.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(stats_mu);
      totals.Add(local);
    });
  }
  for (auto& r : readers) r.join();
  const uint64_t t_end = NowUs();

  if (errors.load() != 0) {
    std::fprintf(stderr, "query errors: %llu\n",
                 static_cast<unsigned long long>(errors.load()));
    return false;
  }
  const uint64_t q = queries.load();
  const double elapsed_s = static_cast<double>(t_end - t_start) / 1e6;
  const double qps = static_cast<double>(q) / elapsed_s;
  std::printf(
      "{\"bench\":\"query_scaling\",\"placement\":\"%s\",\"threads\":%d,"
      "\"cache\":\"%s\",\"mode\":\"%s\",\"queries\":%llu,\"elapsed_s\":%.3f,"
      "\"avg_latency_us\":%.1f,\"qps\":%.1f,\"samples_per_s\":%.0f,"
      "\"slow_fetches\":%llu,\"cache_hits\":%llu,\"samples_per_query\":%d}\n",
      placement.name, threads, cache,
      ScalarDrainMode() ? "scalar" : "batch",
      static_cast<unsigned long long>(q), elapsed_s,
      static_cast<double>(t_end - t_start) / (q ? q : 1), qps,
      qps * SamplesPerSeries(),
      static_cast<unsigned long long>(totals.slow_tier_fetches),
      static_cast<unsigned long long>(totals.cache_hits), SamplesPerSeries());
  std::fflush(stdout);
  return true;
}

int Main() {
  PrintHeader("query_scaling",
              "Query latency vs reader threads, cache state and placement");
  for (const Placement& placement :
       {Placement{"fast", false}, Placement{"l2", true}}) {
    for (int threads : {1, 2, 4, 8}) {
      std::vector<uint64_t> refs;
      std::unique_ptr<core::TimeUnionDB> db = BuildDb(placement, &refs);
      if (!db) return 1;
      // First pass after the build is the cold-cache measurement (readers
      // unopened, block cache empty); repeat passes are warm.
      if (!RunPass(db.get(), placement, threads, "cold", 1)) return 1;
      if (!RunPass(db.get(), placement, threads, "warm", WarmRounds())) {
        return 1;
      }
      // Final-config introspection artifact for CI (parse check).
      WriteSnapshotFile(MetricsSnapshotPath(), db->Metrics().ToJson());
      const std::string workspace = db->env().workspace();
      db.reset();
      RemoveDirRecursive(workspace);
    }
  }
  return 0;
}

}  // namespace
}  // namespace tu::bench

int main() { return tu::bench::Main(); }
