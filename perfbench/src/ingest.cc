// ingest_durable and remote_ingest: closed-loop batched ingest of DevOps
// rows, in rounds of a fixed sample count.
//
// Each round opens a fresh DB (ingest throughput falls as the WAL grows, so
// the input size, not the wall time, defines one measurement), registers
// every series, times the writers over the pre-generated batches, records
// memory and disk footprint, then reads a seeded subset of hosts back and
// checks every series exactly against the generator, timing those raw
// queries and MAX-per-5-min aggregates too. Rounds repeat until the run's
// time is spent; metrics are medians over rounds or pooled latencies.
//
//   ingest_durable: two threads calling TimeUnionDB::Write, WAL on at the
//                   default purge threshold, background flush, instant
//                   tiers.
//   remote_ingest:  the same rows through a loopback server::Server and
//                   one server::Client connection, WAL off.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tu::Status;
namespace core = tu::core;
namespace query = tu::query;
namespace server = tu::server;
namespace tsbs = tu::tsbs;

constexpr int kFields = tsbs::DevOpsGenerator::kSeriesPerHost;
constexpr int64_t kIntervalMs = 10'000;
constexpr int64_t kAggStepMs = tsbs::QueryPattern::kAggWindowMs;
constexpr int kStepsPerBatch = 25;
/// The default L0/L1 partition length (30 min); a round's 1000 s of data
/// fit in one.
constexpr int64_t kL0PartitionMs = 30LL * 60 * 1000;

struct Shape {
  uint64_t hosts;
  int steps;          // timed steps per series and round
  int readback;       // hosts read back per round
};

Shape ShapeFor(const RunOptions& o) {
  if (o.tiny) return {4, 20, 8};
  return {100, 100, 100};
}

struct Round {
  double setup_s = 0;
  double sps = 0;
  double disk_bytes_per_sample = 0;
  double mem_bytes_per_series = 0;
  std::vector<double> write_us, query_us, agg_us;
};

class IngestWorkload {
 public:
  IngestWorkload(const RunOptions& options, bool remote)
      : o_(options),
        remote_(remote),
        // Remote ingest is one client in lock step with the server: with
        // two, run-to-run throughput spread 35% on a shared 4-core host.
        writers_(remote ? 1 : 2),
        shape_(ShapeFor(options)),
        first_step_(remote ? 1 : 0),
        gen_(DevOpsFor(options.seed, shape_.hosts, kIntervalMs,
                       (shape_.steps + first_step_) * kIntervalMs,
                       kL0PartitionMs)) {}

  Report Run();

 private:
  void Generate();
  core::DBOptions Options(const std::string& ws) const;
  Round RunRound(int index, bool traced);
  Status Setup(core::TimeUnionDB* db, std::unique_ptr<server::Server>* srv,
               std::vector<std::unique_ptr<server::Client>>* clients,
               std::vector<uint64_t>* refs);
  void Readback(core::TimeUnionDB* db, server::Client* client, Round* round,
                ReadTally* tally, Rng* rng);

  const RunOptions o_;
  const bool remote_;
  const int writers_;
  const Shape shape_;
  const int first_step_;
  const tsbs::DevOpsGenerator gen_;
  /// Per writer: its batches in send order.
  std::vector<std::vector<BatchTemplate>> batches_;
  uint64_t samples_per_round_ = 0;
  Report report_;
};

void IngestWorkload::Generate() {
  batches_ = MakeHostBatches(gen_, first_step_, shape_.steps, kStepsPerBatch,
                             writers_);
  samples_per_round_ = static_cast<uint64_t>(shape_.steps) * gen_.num_series();
}

core::DBOptions IngestWorkload::Options(const std::string& ws) const {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = tu::cloud::TieredEnvOptions::Instant();
  // Remote ingest flushes memtables inline: with a flush thread competing
  // with the server's threads its throughput spread 25% between runs.
  opts.lsm.background_flush = !remote_;
  opts.enable_wal = !remote_;
  return opts;
}

Status IngestWorkload::Setup(
    core::TimeUnionDB* db, std::unique_ptr<server::Server>* srv,
    std::vector<std::unique_ptr<server::Client>>* clients,
    std::vector<uint64_t>* refs) {
  if (!remote_) return RegisterAll(db, gen_, refs);
  server::ServerOptions sopts;
  sopts.num_workers = writers_;
  *srv = std::make_unique<server::Server>(db, sopts);
  Status s = (*srv)->Start();
  if (!s.ok()) return s;
  for (int w = 0; w < writers_; ++w) {
    std::unique_ptr<server::Client> c;
    s = server::Client::Connect("127.0.0.1", (*srv)->port(), "perfbench", &c);
    if (!s.ok()) return s;
    clients->push_back(std::move(c));
  }
  // Remote registration: one labeled batch per host carrying its step-0
  // samples; the acks resolve the tenant's remote refs.
  refs->assign(gen_.num_series(), 0);
  for (uint64_t h = 0; h < shape_.hosts; ++h) {
    core::WriteBatch batch;
    for (int f = 0; f < kFields; ++f) {
      batch.AddSample(gen_.SeriesLabels(h, f), gen_.start_ts(),
                      gen_.Value(h, f, gen_.start_ts()));
    }
    server::WriteAck ack;
    Span span("core.register", 0, 0);
    s = (*clients)[0]->Write(batch, &ack);
    if (!s.ok()) return s;
    if (!ack.remote_status.ok()) return ack.remote_status;
    if (ack.resolved_refs.size() != static_cast<size_t>(kFields)) {
      return Status::Corruption("registration ack size");
    }
    std::copy(ack.resolved_refs.begin(), ack.resolved_refs.end(),
              refs->begin() + h * kFields);
  }
  return Status::OK();
}

void IngestWorkload::Readback(core::TimeUnionDB* db, server::Client* client,
                              Round* round, ReadTally* tally, Rng* rng) {
  const uint64_t steps_present = first_step_ + shape_.steps;
  const int64_t t0 = gen_.start_ts();
  const int64_t t1 = gen_.start_ts() + steps_present * gen_.interval_ms();
  const auto& slow = db->env().slow().counters();
  for (int i = 0; i < shape_.readback; ++i) {
    // One host's 101 series per request: enough decode work per request
    // that thread hand-offs do not decide its latency.
    const uint64_t host = rng->Uniform(gen_.num_hosts());
    const std::vector<tu::index::TagMatcher> matchers = {
        tu::index::TagMatcher::Equal("hostname", gen_.HostName(host))};

    // Raw read-back.
    std::vector<SeriesData> got;
    Status s;
    {
      const uint64_t req = Tracer::Get().NewId();
      const uint64_t gets = slow.get_ops.load();
      const int64_t start = NowNs();
      Span root("req.query", req, 0, start);
      if (remote_) {
        server::QueryReply reply;
        {
          Span span("server.client_query", req, root.id());
          s = client->Query(query::ReadRequest::Range(matchers, t0, t1),
                            &reply);
        }
        if (s.ok()) s = reply.remote_status;
        for (auto& r : reply.series) {
          got.push_back({std::move(r.labels), std::move(r.timestamps),
                         std::move(r.values)});
        }
      } else {
        s = DrainQuery(db, query::ReadRequest::Range(matchers, t0, t1), req,
                       root.id(), &got, &tally->query_stats);
      }
      round->query_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      tally->query_slow_gets += slow.get_ops.load() - gets;
    }
    ++tally->queries;
    bool raw_ok = s.ok() && got.size() == static_cast<size_t>(kFields);
    std::map<std::string, const SeriesData*> by_key;
    for (const SeriesData& d : got) {
      tally->samples_returned += d.ts.size();
      uint64_t h = 0;
      int field = 0;
      raw_ok = raw_ok && ParseSeries(gen_, d.labels, &h, &field) &&
               h == host &&
               MatchesGenerator(gen_, h, field, t0, t1, steps_present,
                                d.ts.data(), d.vs.data(), d.ts.size());
      by_key[tu::index::LabelsKey(d.labels)] = &d;
    }
    report_.Op(raw_ok, "read-back query");

    // Aggregate of the same host, checked bitwise against a fold of the
    // raw answer.
    std::vector<std::pair<tu::index::Labels, std::vector<query::AggPoint>>>
        points;
    {
      const auto request = query::ReadRequest::Aggregate(
          matchers, t0, t1, kAggStepMs, query::AggFn::kMax);
      const uint64_t req = Tracer::Get().NewId();
      const uint64_t gets = slow.get_ops.load();
      const int64_t start = NowNs();
      Span root("req.agg", req, 0, start);
      if (remote_) {
        server::QueryReply reply;
        {
          Span span("server.client_query", req, root.id());
          s = client->Query(request, &reply);
        }
        if (s.ok()) s = reply.remote_status;
        for (auto& r : reply.series) {
          std::vector<query::AggPoint> p;
          for (size_t k = 0; k < r.timestamps.size(); ++k) {
            p.push_back({r.timestamps[k], r.values[k]});
          }
          points.emplace_back(std::move(r.labels), std::move(p));
        }
      } else {
        core::TimeUnionDB::AggregateResult agg;
        {
          Span span("core.aggregate", req, root.id());
          s = db->AggregateQuery(request, &agg);
        }
        for (auto& a : agg.series) {
          points.emplace_back(std::move(a.labels), std::move(a.points));
        }
        tally->agg_stats.Add(agg.stats);
      }
      round->agg_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      tally->agg_slow_gets += slow.get_ops.load() - gets;
    }
    ++tally->aggs;
    bool agg_ok = s.ok() && raw_ok && points.size() == got.size();
    for (const auto& [labels, p] : points) {
      auto it = by_key.find(tu::index::LabelsKey(labels));
      agg_ok = agg_ok && it != by_key.end() &&
               SamePoints(p, FoldRaw(it->second->ts, it->second->vs,
                                     kAggStepMs, query::AggFn::kMax));
    }
    report_.Op(agg_ok, "read-back aggregate");
  }
}

Round IngestWorkload::RunRound(int index, bool traced) {
  Round round;
  Tracer::Get().SetOn(traced);
  const std::string ws =
      o_.work_dir + "/" + (remote_ ? "remote" : "durable") + "-" +
      std::to_string(index);
  RemoveTree(ws);
  const int64_t mem_base = TrackedBytesExCache();

  const int64_t setup_start = NowNs();
  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(Options(ws), &db);
  std::unique_ptr<server::Server> srv;
  std::vector<std::unique_ptr<server::Client>> clients;
  std::vector<uint64_t> refs;
  if (s.ok()) s = Setup(db.get(), &srv, &clients, &refs);
  round.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  report_.Op(s.ok(), "open and register");
  if (!s.ok()) {
    report_.Fail("setup: " + s.ToString());
    return round;
  }

  // Rows are addressed by the refs this round's registration returned.
  std::vector<std::vector<core::WriteBatch>> batches(writers_);
  for (int w = 0; w < writers_; ++w) {
    for (const BatchTemplate& t : batches_[w]) batches[w].push_back(t.Bind(refs));
  }

  const Counters before = Counters::Take(db.get());
  std::vector<std::vector<double>> lat(writers_);
  std::atomic<uint64_t> failures{0};
  const int64_t t0 = NowNs();
  std::vector<std::thread> writers;
  for (int w = 0; w < writers_; ++w) {
    writers.emplace_back([&, w] {
      core::WriteResult result;
      server::WriteAck ack;
      for (const core::WriteBatch& b : batches[w]) {
        const uint64_t req = Tracer::Get().NewId();
        const int64_t start = NowNs();
        Span root("req.write", req, 0, start);
        bool ok;
        if (remote_) {
          Span span("server.client_write", req, root.id());
          ok = clients[w]->Write(b, &ack).ok() && ack.remote_status.ok() &&
               ack.appended == b.NumRows();
        } else {
          Span span("core.write", req, root.id());
          ok = db->Write(b, &result).ok() && result.ok() &&
               result.appended == b.NumRows();
        }
        lat[w].push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  const double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  round.sps = static_cast<double>(samples_per_round_) / elapsed_s;
  for (const auto& l : lat) {
    round.write_us.insert(round.write_us.end(), l.begin(), l.end());
  }
  report_.attempted += round.write_us.size();
  report_.failed += failures.load();
  if (failures.load() != 0) report_.Fail("write batches failed");
  {
    Span span("core.flush", 0, 0);
    s = db->Flush();
  }
  report_.Op(s.ok(), "flush");
  // After the flush no memtable or open chunk depends on flush timing.
  round.mem_bytes_per_series =
      static_cast<double>(TrackedBytesExCache() - mem_base) /
      static_cast<double>(db->NumSeries());
  const uint64_t samples_in_db = (first_step_ + shape_.steps) * gen_.num_series();
  round.disk_bytes_per_sample = static_cast<double>(TierDirBytes(ws)) /
                                static_cast<double>(samples_in_db);

  ReadTally tally;
  Rng rng(o_.seed * 7919 + static_cast<uint64_t>(index));
  Readback(db.get(), remote_ ? clients[0].get() : nullptr, &round, &tally,
           &rng);

  if (traced) {
    const Counters after = Counters::Take(db.get());
    Tracer::Get().SetOn(false);
    FillLayerMetrics(db.get(), before, after, Summarize(Tracer::Get().All()),
                     tally, samples_per_round_, &report_);
    if (remote_) {
      uint64_t wire = 0;
      for (const auto& c : clients) wire += c->bytes_sent();
      report_.per_layer["server.wire_bytes_per_sample"] =
          static_cast<double>(wire) / static_cast<double>(samples_in_db);
    }
  }
  Tracer::Get().SetOn(false);
  for (auto& c : clients) c->Close();
  clients.clear();
  if (srv) srv->Shutdown();
  srv.reset();
  db.reset();
  RemoveTree(ws);
  return round;
}

Report IngestWorkload::Run() {
  Generate();
  report_.header["hosts"] = std::to_string(shape_.hosts);
  report_.header["series"] = std::to_string(gen_.num_series());
  report_.header["samples_per_round"] = std::to_string(samples_per_round_);
  report_.header["batch_samples"] = std::to_string(kFields * kStepsPerBatch);
  report_.header["writers"] = std::to_string(writers_);
  report_.header["wal"] = remote_ ? "off" : "on";
  report_.header["tiers"] = "instant";
  report_.header["fast_tier"] = DescribeTier(tu::cloud::TierSimOptions::Instant());
  report_.header["slow_tier"] = DescribeTier(tu::cloud::TierSimOptions::Instant());

  // Fixed-size untraced rounds until the run's time is spent (at least
  // three); a traced run keeps one round's time for a final traced round.
  std::vector<Round> rounds;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o_.seconds * 1e9);
  const int64_t reserved = o_.trace ? 1 : 0;
  int64_t round_ns = 0;
  while (rounds.size() < 3 || NowNs() + (1 + reserved) * round_ns <= deadline) {
    const int64_t start = NowNs();
    rounds.push_back(RunRound(static_cast<int>(rounds.size()), false));
    round_ns = std::max(round_ns, NowNs() - start);
  }
  report_.header["rounds"] = std::to_string(rounds.size());

  // Every figure is per round; the run reports the median round.
  std::vector<double> setup, sps, disk, mem;
  std::vector<std::vector<double>> writes, queries, aggs;
  size_t batches = 0;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    sps.push_back(r.sps);
    disk.push_back(r.disk_bytes_per_sample);
    mem.push_back(r.mem_bytes_per_series);
    writes.push_back(r.write_us);
    queries.push_back(r.query_us);
    aggs.push_back(r.agg_us);
    batches += r.write_us.size();
  }
  auto& e = report_.end_to_end;
  e["setup_s"] = Median(setup);
  e["ingest_sps"] = Median(sps);
  e["write_p50_us"] = MedianOfPercentiles(writes, 0.50);
  e["query_p50_us"] = MedianOfPercentiles(queries, 0.50);
  e["agg_p50_us"] = MedianOfPercentiles(aggs, 0.50);
  e["disk_bytes_per_sample"] = Median(disk);
  e["mem_bytes_per_series"] = Median(mem);

  if (o_.trace) {
    const Round traced = RunRound(static_cast<int>(rounds.size()), true);
    auto& l = report_.per_layer;
    l["write.p90_us"] = MedianOfPercentiles(writes, 0.90);
    l["query.p90_us"] = MedianOfPercentiles(queries, 0.90);
    l["agg.p90_us"] = MedianOfPercentiles(aggs, 0.90);
    l["write.p99_us"] = MedianOfPercentiles(writes, 0.99);
    l["query.p99_us"] = MedianOfPercentiles(queries, 0.99);
    l["agg.p99_us"] = MedianOfPercentiles(aggs, 0.99);
    // Traced minus untraced median batch latency.
    const double untraced = e["write_p50_us"];
    l["trace.overhead_p50_pct"] =
        untraced > 0 ? (Median(traced.write_us) - untraced) / untraced * 100
                     : 0;
  }
  report_.header["write_batches"] = std::to_string(batches);
  report_.header["readback_per_round"] = std::to_string(shape_.readback);
  return report_;
}

}  // namespace

Report RunIngest(const RunOptions& options, bool remote) {
  return IngestWorkload(options, remote).Run();
}

}  // namespace perfbench
