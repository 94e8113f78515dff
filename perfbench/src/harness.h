// Shared machinery of the TimeUnion benchmark: run options, the result
// report, latency statistics, the in-memory span tracer, counter snapshots
// taken from outside the library, and the DevOps data helpers every
// workload builds its inputs from.
//
// Every layer is measured from outside: the benchmark times its own calls
// into the public API (server::Client, core::TimeUnionDB) and diffs the
// counters the library already exposes (Metrics(), tier counters,
// MemoryTracker, IndexMemoryUsage()). Nothing here reaches into src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/tiered_env.h"
#include "core/timeunion_db.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "tsbs/devops.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the DB workspaces are created in (and removed from).
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
  /// Self-test size: same code paths, tiny inputs.
  bool tiny = false;
};

/// What one workload run hands back to main: end-to-end metrics (untraced
/// measurement), per-layer metrics (traced measurement), operation counts
/// and the header fields describing its inputs.
struct Report {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Free-form header fields: input size, tier-sim settings, layout.
  std::map<std::string, std::string> header;

  void Fail(const std::string& what);
  /// Counts one operation; `ok` false counts it as failed.
  void Op(bool ok, const char* what);
  std::vector<std::string> first_failures;
};

// -- time ---------------------------------------------------------------

int64_t NowNs();
/// Sleeps until the steady-clock instant `ns` (no-op when already past).
void SleepUntilNs(int64_t ns);

// -- statistics -------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of `v`; sorts a copy. 0 if empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double MaxOf(const std::vector<double>& v);

/// Latency samples in microseconds, split into consecutive fixed-length
/// time windows by the instant each was recorded. Reporting the median of
/// the per-window percentiles keeps one window disturbed by something
/// outside the benchmark from moving the result. Not thread-safe: one per
/// recording thread.
class WindowedLatency {
 public:
  WindowedLatency(int64_t t0_ns, int64_t window_ns)
      : t0_ns_(t0_ns), window_ns_(window_ns) {}
  void Add(int64_t at_ns, double us);
  /// Median over windows of the per-window q-percentile.
  double Stat(double q) const;
  /// Every sample, in one vector.
  std::vector<double> Pooled() const;

 private:
  int64_t t0_ns_;
  int64_t window_ns_;
  std::vector<std::vector<double>> windows_;
};

/// Median over groups (rounds, windows) of each group's q-percentile.
double MedianOfPercentiles(const std::vector<std::vector<double>>& groups,
                           double q);

// -- tracing ------------------------------------------------------------------

/// One recorded span. Spans of one request share `req`; `parent` is the id
/// of the enclosing span (0 for a root).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Process-wide in-memory tracer. Spans are appended to per-thread buffers
/// (no lock on the hot path) and only read after the recording threads
/// joined. Off by default; when off a Span records nothing and reads no
/// clock.
class Tracer {
 public:
  static Tracer& Get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& span);
  /// Every span recorded so far (call with recording threads joined).
  std::vector<SpanRecord> All() const;
  /// Writes the spans as JSON lines; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. `start_ns` >= 0 backdates the start (open-loop requests
/// start at their due time).
class Span {
 public:
  Span(const char* name, uint64_t req, uint64_t parent, int64_t start_ns = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return rec_.id; }

 private:
  bool on_;
  SpanRecord rec_;
};

/// Per-layer figures derived from the recorded spans: latency percentiles
/// of named spans, and self time per layer averaged over request trees.
struct SpanSummary {
  /// Durations in microseconds per span name.
  std::map<std::string, std::vector<double>> durations_us;
  /// Self time (span minus the part its children cover), summed per
  /// layer (the span name up to the first '.') over request trees.
  std::map<std::string, double> self_us;
  uint64_t requests = 0;  ///< root spans named "req.*"
  uint64_t spans = 0;
};
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

// -- counters observed from outside ------------------------------------------

/// Everything the benchmark diffs around a measured phase.
struct Counters {
  tu::obs::MetricsSnapshot snap;
  uint64_t slow_charged_us = 0;
  uint64_t slow_retries = 0;
  uint64_t slow_breaker_rejections = 0;
  uint64_t fast_written = 0;

  static Counters Take(tu::core::TimeUnionDB* db);
  uint64_t Counter(const char* name) const { return snap.CounterOr0(name); }
  /// Lifetime histogram field of the DB (fresh DB per measured phase).
  double HistP99(const char* name) const;
  double HistMax(const char* name) const;
};

/// Bytes in the fast- and slow-tier directories of a workspace.
uint64_t TierDirBytes(const std::string& workspace);

/// MemoryTracker total excluding the block cache.
int64_t TrackedBytesExCache();

// -- DevOps data ------------------------------------------------------------

/// The seed picks host tag values and the data's start offset (values
/// follow a daily wave, so the offset changes every sample value). The
/// offset is a multiple of `align_ms`, the workload's longest partition,
/// so every seed lays the same partitions out.
tu::tsbs::DevOpsOptions DevOpsFor(uint64_t seed, uint64_t hosts,
                                  int64_t interval_ms, int64_t duration_ms,
                                  int64_t align_ms);

/// Registers every series host-major (series index = host * 101 + field)
/// and returns refs by series index; records core.register spans.
tu::Status RegisterAll(tu::core::TimeUnionDB* db,
                       const tu::tsbs::DevOpsGenerator& gen,
                       std::vector<uint64_t>* refs);

/// A pre-generated batch of by-ref samples: series indexes (mapped to the
/// refs a registration returned by Bind) plus the sample columns.
struct BatchTemplate {
  std::vector<uint32_t> series;
  std::vector<int64_t> ts;
  std::vector<double> values;

  tu::core::WriteBatch Bind(const std::vector<uint64_t>& refs) const;
};

/// Batches of `steps_per_batch` consecutive steps of one host's 101 series
/// (sorted by series, so runs share locks), time-major: every host's batch
/// of one block before the next block. Writer w of `writers` gets the
/// hosts h with h % writers == w. Steps are [first_step, first_step+steps).
std::vector<std::vector<BatchTemplate>> MakeHostBatches(
    const tu::tsbs::DevOpsGenerator& gen, int64_t first_step, int64_t steps,
    int steps_per_batch, int writers);

/// Matchers addressing exactly one series.
std::vector<tu::index::TagMatcher> SeriesMatchers(
    const tu::tsbs::DevOpsGenerator& gen, uint64_t host, int field);

/// Exact check of one series' samples against the generator: every
/// interval step in [t0, t1] (clamped to the data that must be there:
/// steps < `steps_present`) appears once with the generated value; later
/// steps may appear, but only with their generated value.
bool MatchesGenerator(const tu::tsbs::DevOpsGenerator& gen, uint64_t host,
                      int field, int64_t t0, int64_t t1,
                      uint64_t steps_present, const int64_t* ts,
                      const double* vs, size_t n);

/// Folds raw samples into `step_ms` windows with the same two-stage
/// kernel the rollup planner uses (granularity = step).
std::vector<tu::query::AggPoint> FoldRaw(const std::vector<int64_t>& ts,
                                         const std::vector<double>& vs,
                                         int64_t step_ms, tu::query::AggFn fn);
bool SamePoints(const std::vector<tu::query::AggPoint>& a,
                const std::vector<tu::query::AggPoint>& b);

/// One series of a raw read, as columns.
struct SeriesData {
  tu::index::Labels labels;
  std::vector<int64_t> ts;
  std::vector<double> vs;
};

/// Raw read through QueryIterators + NextBatch drain, with query.setup and
/// query.drain spans under `parent`. Appends every returned series to
/// `out` and adds the request's stats to `stats`.
tu::Status DrainQuery(tu::core::TimeUnionDB* db,
                      const tu::query::ReadRequest& request, uint64_t req,
                      uint64_t parent, std::vector<SeriesData>* out,
                      tu::query::QueryStats* stats);

/// Host and field index of a DevOps series from its labels; false when
/// the labels name no generated series.
bool ParseSeries(const tu::tsbs::DevOpsGenerator& gen,
                 const tu::index::Labels& labels, uint64_t* host, int* field);

// -- shared metric assembly ----------------------------------------------------

/// Read-side per-request figures of one measured pass.
struct ReadTally {
  uint64_t queries = 0;
  uint64_t aggs = 0;
  uint64_t samples_returned = 0;
  uint64_t query_slow_gets = 0;
  uint64_t agg_slow_gets = 0;
  tu::query::QueryStats query_stats;
  tu::query::QueryStats agg_stats;
};

/// Fills every per-layer metric that comes from counter deltas, DB state,
/// spans and read tallies. Metrics a workload does not exercise come out
/// as their measured value (usually 0).
void FillLayerMetrics(tu::core::TimeUnionDB* db, const Counters& before,
                      const Counters& after, const SpanSummary& spans,
                      const ReadTally& reads, uint64_t samples_written,
                      Report* report);

/// Removes a directory tree; ignores errors.
void RemoveTree(const std::string& path);

/// Deterministic generator for seeded choices (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// Metric name/unit tables: what main emits and checks.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

/// Header string for a tier-sim configuration.
std::string DescribeTier(const tu::cloud::TierSimOptions& t);

}  // namespace perfbench
