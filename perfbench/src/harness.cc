#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "compress/rollup.h"
#include "util/memory_tracker.h"

namespace perfbench {

using tu::Status;
namespace core = tu::core;
namespace query = tu::query;
namespace tsbs = tu::tsbs;

void Report::Fail(const std::string& what) {
  ++failed;
  if (first_failures.size() < 8) first_failures.push_back(what);
}

void Report::Op(bool ok, const char* what) {
  ++attempted;
  if (!ok) Fail(what);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

void WindowedLatency::Add(int64_t at_ns, double us) {
  const size_t w = static_cast<size_t>(std::max<int64_t>(0, at_ns - t0_ns_) /
                                       window_ns_);
  if (windows_.size() <= w) windows_.resize(w + 1);
  windows_[w].push_back(us);
}

double WindowedLatency::Stat(double q) const {
  return MedianOfPercentiles(windows_, q);
}

std::vector<double> WindowedLatency::Pooled() const {
  std::vector<double> out;
  for (const auto& w : windows_) out.insert(out.end(), w.begin(), w.end());
  return out;
}

double MedianOfPercentiles(const std::vector<std::vector<double>>& groups,
                           double q) {
  std::vector<double> per_group;
  for (const auto& g : groups) {
    if (!g.empty()) per_group.push_back(Percentile(g, q));
  }
  return Median(per_group);
}

// -- Tracer -------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

void Tracer::Record(const SpanRecord& span) {
  Buffer* b = ThreadBuffer();
  b->spans.push_back(span);
  b->spans.back().thread = b->thread;
}

std::vector<SpanRecord> Tracer::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : All()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t req, uint64_t parent, int64_t start_ns)
    : on_(Tracer::Get().on()) {
  if (!on_) return;
  rec_.id = Tracer::Get().NewId();
  rec_.parent = parent;
  rec_.req = req;
  rec_.name = name;
  rec_.start_ns = start_ns >= 0 ? start_ns : NowNs();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = NowNs();
  Tracer::Get().Record(rec_);
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary out;
  out.spans = spans.size();
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    out.durations_us[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (s.parent == 0) {
      if (std::string(s.name).rfind("req.", 0) == 0) ++out.requests;
      continue;
    }
    auto it = by_id.find(s.parent);
    if (it != by_id.end()) children[it->second].push_back({s.start_ns, s.end_ns});
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.req == 0) continue;  // set-up spans are not part of a request
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out.self_us[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return out;
}

// -- counters -------------------------------------------------------------------

Counters Counters::Take(core::TimeUnionDB* db) {
  Counters c;
  c.snap = db->Metrics();
  const auto& slow = db->env().slow().counters();
  c.slow_charged_us = slow.charged_us.load();
  c.slow_retries = slow.retries.load();
  c.slow_breaker_rejections = slow.breaker_rejections.load();
  c.fast_written = db->env().fast().counters().bytes_written.load();
  return c;
}

double Counters::HistP99(const char* name) const {
  const tu::obs::HistogramSnapshot* h = snap.FindHistogram(name);
  return h == nullptr ? 0 : h->p99_us;
}

double Counters::HistMax(const char* name) const {
  const tu::obs::HistogramSnapshot* h = snap.FindHistogram(name);
  return h == nullptr ? 0 : static_cast<double>(h->max_us);
}

uint64_t TierDirBytes(const std::string& workspace) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  for (const char* tier : {"/fast", "/slow"}) {
    std::error_code ec;
    fs::recursive_directory_iterator it(workspace + tier, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
      std::error_code size_ec;
      if (it->is_regular_file(size_ec)) {
        const uint64_t n = it->file_size(size_ec);
        if (!size_ec) total += n;
      }
    }
  }
  return total;
}

int64_t TrackedBytesExCache() {
  const tu::MemoryTracker& m = tu::MemoryTracker::Global();
  return m.Total() - m.Get(tu::MemCategory::kCache);
}

// -- DevOps data ------------------------------------------------------------------

tsbs::DevOpsOptions DevOpsFor(uint64_t seed, uint64_t hosts,
                              int64_t interval_ms, int64_t duration_ms,
                              int64_t align_ms) {
  tsbs::DevOpsOptions o;
  o.num_hosts = hosts;
  o.interval_ms = interval_ms;
  o.duration_ms = duration_ms;
  o.num_host_tags = 10;
  o.seed = seed;
  o.start_ts =
      static_cast<int64_t>(Rng(seed).Uniform(86'400'000 / align_ms)) * align_ms;
  return o;
}

Status RegisterAll(core::TimeUnionDB* db, const tsbs::DevOpsGenerator& gen,
                   std::vector<uint64_t>* refs) {
  refs->assign(gen.num_series(), 0);
  for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
    for (int f = 0; f < tsbs::DevOpsGenerator::kSeriesPerHost; ++f) {
      const tu::index::Labels labels = gen.SeriesLabels(h, f);
      Span span("core.register", 0, 0);
      Status s = db->RegisterSeries(
          labels, &(*refs)[h * tsbs::DevOpsGenerator::kSeriesPerHost + f]);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

core::WriteBatch BatchTemplate::Bind(const std::vector<uint64_t>& refs) const {
  core::WriteBatch b;
  b.sample_refs.reserve(series.size());
  for (uint32_t s : series) b.sample_refs.push_back(refs[s]);
  b.sample_ts = ts;
  b.sample_values = values;
  return b;
}

std::vector<std::vector<BatchTemplate>> MakeHostBatches(
    const tsbs::DevOpsGenerator& gen, int64_t first_step, int64_t steps,
    int steps_per_batch, int writers) {
  constexpr int kFields = tsbs::DevOpsGenerator::kSeriesPerHost;
  std::vector<std::vector<BatchTemplate>> out(writers);
  for (int64_t block = 0; block < steps; block += steps_per_batch) {
    const int64_t block_end = std::min(steps, block + steps_per_batch);
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      BatchTemplate b;
      for (int f = 0; f < kFields; ++f) {
        for (int64_t k = block; k < block_end; ++k) {
          const int64_t ts =
              gen.start_ts() + (first_step + k) * gen.interval_ms();
          b.series.push_back(static_cast<uint32_t>(h * kFields + f));
          b.ts.push_back(ts);
          b.values.push_back(gen.Value(h, f, ts));
        }
      }
      out[h % writers].push_back(std::move(b));
    }
  }
  return out;
}

std::vector<tu::index::TagMatcher> SeriesMatchers(
    const tsbs::DevOpsGenerator& gen, uint64_t host, int field) {
  return {tu::index::TagMatcher::Equal("hostname", gen.HostName(host)),
          tu::index::TagMatcher::Equal("fieldname", gen.FieldName(field))};
}

bool MatchesGenerator(const tsbs::DevOpsGenerator& gen, uint64_t host,
                      int field, int64_t t0, int64_t t1,
                      uint64_t steps_present, const int64_t* ts,
                      const double* vs, size_t n) {
  const int64_t start = gen.start_ts();
  const int64_t step = gen.interval_ms();
  const int64_t last_present = static_cast<int64_t>(steps_present) - 1;
  int64_t kmin = t0 <= start ? 0 : (t0 - start + step - 1) / step;
  int64_t kmax = t1 < start ? -1 : (t1 - start) / step;
  kmax = std::min(kmax, last_present);
  const int64_t required = std::max<int64_t>(0, kmax - kmin + 1);
  int64_t have = 0;
  int64_t prev = INT64_MIN;
  for (size_t i = 0; i < n; ++i) {
    if (ts[i] <= prev || ts[i] < t0 || ts[i] > t1 || ts[i] < start) return false;
    if ((ts[i] - start) % step != 0) return false;
    if (vs[i] != gen.Value(host, field, ts[i])) return false;
    if ((ts[i] - start) / step <= last_present) ++have;
    prev = ts[i];
  }
  return have == required;
}

std::vector<query::AggPoint> FoldRaw(const std::vector<int64_t>& ts,
                                     const std::vector<double>& vs,
                                     int64_t step_ms, query::AggFn fn) {
  std::vector<tu::compress::RollupBucket> buckets;
  query::AccumulateIntoBuckets(ts.data(), vs.data(), ts.size(), step_ms,
                               &buckets);
  return query::FoldBuckets(buckets, step_ms, fn);
}

bool SamePoints(const std::vector<query::AggPoint>& a,
                const std::vector<query::AggPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise: the planner and the raw fold share one kernel.
    if (a[i].window_start != b[i].window_start ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

Status DrainQuery(core::TimeUnionDB* db, const query::ReadRequest& request,
                  uint64_t req, uint64_t parent, std::vector<SeriesData>* out,
                  query::QueryStats* stats) {
  query::QueryStats local;
  std::vector<core::TimeUnionDB::SeriesIterResult> iters;
  {
    Span span("query.setup", req, parent);
    Status s = db->QueryIterators(request, &iters, &local);
    if (!s.ok()) return s;
  }
  {
    Span span("query.drain", req, parent);
    query::SampleBatch batch;
    for (auto& r : iters) {
      out->push_back({std::move(r.labels), {}, {}});
      SeriesData& d = out->back();
      while (r.iter->NextBatch(&batch)) {
        d.ts.insert(d.ts.end(), batch.timestamps.begin(),
                    batch.timestamps.end());
        d.vs.insert(d.vs.end(), batch.values.begin(), batch.values.end());
      }
      if (!r.iter->status().ok()) return r.iter->status();
    }
  }
  // Lazy iterators count until drained; fold in only once they are done.
  iters.clear();
  stats->Add(local);
  return Status::OK();
}

bool ParseSeries(const tsbs::DevOpsGenerator& gen,
                 const tu::index::Labels& labels, uint64_t* host, int* field) {
  bool have_host = false;
  bool have_field = false;
  for (const tu::index::Label& l : labels) {
    if (l.name == "hostname" && l.value.rfind("host_", 0) == 0) {
      *host = std::stoull(l.value.substr(5));
      have_host = *host < gen.num_hosts();
    } else if (l.name == "fieldname") {
      for (int f = 0; f < tsbs::DevOpsGenerator::kSeriesPerHost; ++f) {
        if (gen.FieldName(f) == l.value) {
          *field = f;
          have_field = true;
          break;
        }
      }
    }
  }
  return have_host && have_field;
}

// -- metric assembly -------------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void FillLayerMetrics(core::TimeUnionDB* db, const Counters& before,
                      const Counters& after, const SpanSummary& spans,
                      const ReadTally& reads, uint64_t samples_written,
                      Report* report) {
  auto& m = report->per_layer;
  auto delta = [&](const char* name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  auto durations = [&](const char* name) {
    auto it = spans.durations_us.find(name);
    return it == spans.durations_us.end() ? std::vector<double>{} : it->second;
  };

  const std::vector<double> writes = durations("core.write");
  m["core.write_us.p50"] = Percentile(writes, 0.50);
  m["core.write_us.p99"] = Percentile(writes, 0.99);
  m["core.write_us.max"] = MaxOf(writes);
  m["core.write_stalls_1ms"] = static_cast<double>(
      std::count_if(writes.begin(), writes.end(),
                    [](double us) { return us > 1000; }));

  m["wal.append_us.p99"] = after.HistP99("wal.append_us");
  m["wal.append_us.max"] = after.HistMax("wal.append_us");
  m["wal.appends"] = delta("wal.appends");
  m["wal.bytes_per_sample"] = Ratio(
      static_cast<double>(after.fast_written - before.fast_written) -
          delta("lsm.fast_bytes_written"),
      static_cast<double>(samples_written));
  m["ingest.append_us.p99"] = after.HistP99("ingest.append_us");
  m["flush.chunk_us.p99"] = after.HistP99("flush.chunk_us");
  m["flush.chunks"] = delta("flush.chunks");
  m["admission.writers_delayed"] = delta("admission.writers_delayed");

  const std::vector<double> client_writes = durations("server.client_write");
  m["server.client_write_us.p50"] = Percentile(client_writes, 0.50);
  m["server.client_write_us.p99"] = Percentile(client_writes, 0.99);
  m["server.wire_bytes_per_sample"] = 0;  // set by the remote workload
  m["server.frames"] = delta("server.frames");
  m["server.protocol_errors"] = delta("server.protocol_errors");
  m["server.tenant_rejects"] = delta("server.tenant_rejects");

  const std::vector<double> registers = durations("core.register");
  m["core.register_us.p50"] = Percentile(registers, 0.50);
  m["core.register_us.p99"] = Percentile(registers, 0.99);

  const double series = static_cast<double>(db->NumSeries());
  m["index.bytes_per_series"] =
      Ratio(static_cast<double>(db->IndexMemoryUsage()), series);
  const tu::MemoryTracker& mem = tu::MemoryTracker::Global();
  m["mem.index_bytes"] =
      static_cast<double>(mem.Get(tu::MemCategory::kInvertedIndex));
  m["mem.tags_bytes"] = static_cast<double>(mem.Get(tu::MemCategory::kTags));
  m["mem.samples_bytes"] =
      static_cast<double>(mem.Get(tu::MemCategory::kSamples));
  m["mem.memtable_bytes"] =
      static_cast<double>(mem.Get(tu::MemCategory::kMemtable));

  m["lsm.flushes"] = delta("lsm.flushes");
  m["lsm.memflush_us.p99"] = after.HistP99("lsm.memflush_us");
  m["lsm.compactions_l1_l2"] = delta("lsm.compactions_l1_l2");
  m["lsm.compact_l1_l2_us.p99"] = after.HistP99("lsm.compact_l1_l2_us");
  m["lsm.compact_l1_l2_us.max"] = after.HistMax("lsm.compact_l1_l2_us");
  m["lsm.compact_l0_l1_us.p99"] = after.HistP99("lsm.compact_l0_l1_us");
  m["lsm.compact_l0_l1_us.max"] = after.HistMax("lsm.compact_l0_l1_us");
  const double lifetime_samples =
      static_cast<double>(after.Counter("ingest.samples"));
  m["lsm.write_amp"] =
      Ratio(static_cast<double>(after.Counter("lsm.fast_bytes_written") +
                                after.Counter("lsm.slow_bytes_written")),
            16.0 * lifetime_samples);
  m["core.flush_us"] = MaxOf(durations("core.flush"));

  const std::vector<double> setups = durations("query.setup");
  const std::vector<double> drains = durations("query.drain");
  m["query.setup_us.p50"] = Percentile(setups, 0.50);
  m["query.setup_us.p99"] = Percentile(setups, 0.99);
  m["query.drain_us.p50"] = Percentile(drains, 0.50);
  m["query.drain_us.p99"] = Percentile(drains, 0.99);

  query::QueryStats all = reads.query_stats;
  all.Add(reads.agg_stats);
  m["query.tables_pruned_frac"] =
      Ratio(static_cast<double>(all.tables_pruned_id + all.tables_pruned_time +
                                all.tables_pruned_bloom),
            static_cast<double>(all.tables_considered));
  const double queries = static_cast<double>(reads.queries);
  const double aggs = static_cast<double>(reads.aggs);
  const query::QueryStats& q = reads.query_stats;
  m["query.blocks_read_per_query"] =
      Ratio(static_cast<double>(q.blocks_read), queries);
  m["query.decoded_per_returned"] =
      Ratio(static_cast<double>(q.samples_decoded),
            static_cast<double>(reads.samples_returned));
  // Drain time of raw reads (query.drain spans; the streaming API leaves
  // QueryStats::drain_us to its consumer) per decoded sample.
  double drain_us = 0;
  for (double us : drains) drain_us += us;
  m["compress.decode_ns_per_sample"] =
      Ratio(drain_us * 1e3, static_cast<double>(q.samples_decoded));
  m["query.rollup_buckets_per_agg"] =
      Ratio(static_cast<double>(reads.agg_stats.rollup_buckets_served), aggs);
  m["query.raw_edge_samples_per_agg"] =
      Ratio(static_cast<double>(reads.agg_stats.raw_edge_samples), aggs);
  m["slow.gets_per_query"] =
      Ratio(static_cast<double>(reads.query_slow_gets), queries);
  m["slow.gets_per_agg"] = Ratio(static_cast<double>(reads.agg_slow_gets), aggs);

  m["slow.get_us.p99"] = after.HistP99("slow.get_us");
  m["slow.put_us.p99"] = after.HistP99("slow.put_us");
  m["slow.charged_us"] =
      static_cast<double>(after.slow_charged_us - before.slow_charged_us);
  m["slow.retries"] =
      static_cast<double>(after.slow_retries - before.slow_retries);
  m["slow.breaker_rejections"] = static_cast<double>(
      after.slow_breaker_rejections - before.slow_breaker_rejections);

  const double hits = delta("cache.hits");
  const double misses = delta("cache.misses");
  m["cache.hit_rate"] = Ratio(hits, hits + misses);
  m["cache.evictions"] = delta("cache.evictions");

  const double requests = static_cast<double>(spans.requests);
  for (const char* layer : {"req", "server", "core", "query"}) {
    auto it = spans.self_us.find(layer);
    m[std::string("trace.self_us.") + layer] =
        it == spans.self_us.end() ? 0 : Ratio(it->second, requests);
  }
  m["trace.spans"] = static_cast<double>(spans.spans);

  // Workload-specific entries; the open-loop and remote workloads
  // overwrite them.
  m["query.p999_us"] = 0;
  m["loadgen.late_us.p99"] = 0;
  m["loadgen.late_us.max"] = 0;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string DescribeTier(const tu::cloud::TierSimOptions& t) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "per_op_us=%g bandwidth_mb_s=%g first_read_x=%g "
                "real_sleep=%d sleep_scale=%g",
                t.per_op_latency_us, t.bandwidth_mb_per_s,
                t.first_read_penalty, t.real_sleep ? 1 : 0, t.sleep_scale);
  return buf;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ingest_sps", "1/s"},
      {"write_p50_us", "us"},
      {"query_p50_us", "us"},
      {"agg_p50_us", "us"},
      {"disk_bytes_per_sample", "B"},
      {"mem_bytes_per_series", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"core.write_us.p50", "us"},
      {"core.write_us.p99", "us"},
      {"core.write_us.max", "us"},
      {"core.write_stalls_1ms", "count"},
      {"wal.append_us.p99", "us"},
      {"wal.append_us.max", "us"},
      {"wal.appends", "count"},
      {"wal.bytes_per_sample", "B"},
      {"ingest.append_us.p99", "us"},
      {"flush.chunk_us.p99", "us"},
      {"flush.chunks", "count"},
      {"admission.writers_delayed", "count"},
      {"server.client_write_us.p50", "us"},
      {"server.client_write_us.p99", "us"},
      {"server.wire_bytes_per_sample", "B"},
      {"server.frames", "count"},
      {"server.protocol_errors", "count"},
      {"server.tenant_rejects", "count"},
      {"core.register_us.p50", "us"},
      {"core.register_us.p99", "us"},
      {"index.bytes_per_series", "B"},
      {"mem.index_bytes", "B"},
      {"mem.tags_bytes", "B"},
      {"mem.samples_bytes", "B"},
      {"mem.memtable_bytes", "B"},
      {"lsm.flushes", "count"},
      {"lsm.memflush_us.p99", "us"},
      {"lsm.compactions_l1_l2", "count"},
      {"lsm.compact_l1_l2_us.p99", "us"},
      {"lsm.compact_l1_l2_us.max", "us"},
      {"lsm.compact_l0_l1_us.p99", "us"},
      {"lsm.compact_l0_l1_us.max", "us"},
      {"lsm.write_amp", "ratio"},
      {"core.flush_us", "us"},
      {"query.setup_us.p50", "us"},
      {"query.setup_us.p99", "us"},
      {"query.drain_us.p50", "us"},
      {"query.drain_us.p99", "us"},
      {"query.tables_pruned_frac", "ratio"},
      {"query.blocks_read_per_query", "count"},
      {"query.decoded_per_returned", "ratio"},
      {"compress.decode_ns_per_sample", "ns"},
      {"query.rollup_buckets_per_agg", "count"},
      {"query.raw_edge_samples_per_agg", "count"},
      {"write.p90_us", "us"},
      {"query.p90_us", "us"},
      {"agg.p90_us", "us"},
      {"write.p99_us", "us"},
      {"query.p99_us", "us"},
      {"agg.p99_us", "us"},
      {"query.p999_us", "us"},
      {"slow.gets_per_query", "count"},
      {"slow.gets_per_agg", "count"},
      {"slow.get_us.p99", "us"},
      {"slow.put_us.p99", "us"},
      {"slow.charged_us", "us"},
      {"slow.retries", "count"},
      {"slow.breaker_rejections", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"loadgen.late_us.p99", "us"},
      {"loadgen.late_us.max", "us"},
      {"trace.overhead_p50_pct", "%"},
      {"trace.spans", "count"},
      {"trace.self_us.req", "us"},
      {"trace.self_us.server", "us"},
      {"trace.self_us.core", "us"},
      {"trace.self_us.query", "us"},
      {"failed_frac", "ratio"},
  };
  return defs;
}

}  // namespace perfbench
