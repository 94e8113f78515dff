// Observability tour: run a small write + query workload, then export the
// DB's introspection snapshot in both supported formats — JSON (stable,
// machine-readable schema) and Prometheus text exposition — and read the
// health and tier counters back out of the same snapshot.
//
//   ./metrics_snapshot [workspace_dir]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/timeunion_db.h"
#include "obs/metrics.h"
#include "util/mmap_file.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::core::WriteBatch;
using tu::core::WriteResult;
using tu::index::Labels;
using tu::index::TagMatcher;
using tu::query::ReadRequest;

namespace {

// Exits with status 1 when `st` is not OK.
void Check(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_metrics_example";
  tu::RemoveDirRecursive(options.workspace);
  // Metrics are on by default; Validate() runs inside Open and rejects
  // incoherent configs (e.g. hard < soft admission watermarks).

  std::unique_ptr<TimeUnionDB> db;
  Check(TimeUnionDB::Open(options, &db), "open");

  // A little traffic so the snapshot has something to say: one batch per
  // series, its first row by labels and the rest by the resolved ref.
  WriteBatch batch;
  WriteResult written;
  for (int series = 0; series < 4; ++series) {
    batch.Clear();
    batch.AddSample(Labels{{"host", std::to_string(series)}, {"m", "cpu"}}, 0,
                    0.0);
    Check(db->Write(batch, &written), "write");
    Check(written.first_error, "write row");
    const uint64_t ref = written.resolved_refs[0];
    batch.Clear();
    for (int i = 1; i < 500; ++i) batch.AddSample(ref, i * 1000LL, 0.5 * i);
    Check(db->Write(batch, &written), "write");
    Check(written.first_error, "write row");
  }
  Check(db->Flush(), "flush");
  QueryResult result;
  Check(db->Query(ReadRequest::Range({TagMatcher::Equal("m", "cpu")}, 0,
                                     500'000),
                  &result),
        "query");

  // One consistent snapshot: counters, gauges, latency histograms with
  // p50/p90/p99, and the recent-event ring buffer.
  tu::obs::MetricsSnapshot snap = db->Metrics();

  std::printf("--- JSON snapshot ---\n%s\n", snap.ToJson().c_str());
  std::printf("\n--- Prometheus exposition ---\n%s",
              snap.ToPrometheusText().c_str());

  // Scalar lookups against the same snapshot.
  std::printf("\nsamples ingested: %llu, queries run: %llu\n",
              static_cast<unsigned long long>(snap.CounterOr0("ingest.samples")),
              static_cast<unsigned long long>(snap.CounterOr0("query.runs")));
  if (const tu::obs::HistogramSnapshot* h =
          snap.FindHistogram("query.e2e_us")) {
    std::printf("query latency: p50=%.1fus p99=%.1fus max=%llu us\n",
                h->p50_us, h->p99_us,
                static_cast<unsigned long long>(h->max_us));
  }

  // Health and degraded-operation state live in the same snapshot: the
  // state-machine name, the sticky background error, breaker and
  // deferred-upload backlog, and per-tier I/O counters.
  std::printf("\n--- health ---\n"
              "db.health=%s db.last_background_error=%s breaker.state=%lld "
              "lsm.deferred_tables=%lld lsm.fast_bytes=%lld\n"
              "slow: gets=%llu puts=%llu retries=%llu give_ups=%llu\n",
              snap.FindString("db.health")->c_str(),
              snap.FindString("db.last_background_error")->c_str(),
              static_cast<long long>(snap.GaugeOr0("breaker.state")),
              static_cast<long long>(snap.GaugeOr0("lsm.deferred_tables")),
              static_cast<long long>(snap.GaugeOr0("lsm.fast_bytes")),
              static_cast<unsigned long long>(snap.CounterOr0("slow.gets")),
              static_cast<unsigned long long>(snap.CounterOr0("slow.puts")),
              static_cast<unsigned long long>(snap.CounterOr0("slow.retries")),
              static_cast<unsigned long long>(
                  snap.CounterOr0("slow.give_ups")));
  return 0;
}
