// Outage recovery drill: ingest throughput before, during, and after a
// scripted total slow-tier outage, plus the time to drain the deferred
// upload backlog once the tier returns (EXPERIMENTS.md "Degraded
// operation" drill). The circuit breaker trips during the outage, L2
// compactions park their outputs on the fast tier, and ingest keeps
// going; afterwards the drainer uploads the backlog.
//
// Phase lengths default to 2s / 3s / 2s so the bench stays quick; set
// TU_OUTAGE_MS=30000 to run the full 30-second drill.
//
// Emits one JSON line per phase plus a drain summary, e.g.
//   {"bench":"outage_recovery","phase":"outage","elapsed_s":3.001,
//    "samples":412992,"throughput_sps":137618.5,"write_errors":0}
//   {"bench":"outage_recovery","metric":"drain","deferred_tables":7,
//    "drain_s":0.012,"breaker_opens":1,"breaker_rejections":42}
//
// A second drill then fills the FAST tier (injected ENOSPC on LSM table
// writes): ingest quiesces (fail-fast kResourceExhausted), space is
// released, and the maintenance tick's resume probe reopens the write
// path. Emits the time from release to healthy:
//   {"bench":"outage_recovery","metric":"enospc","quiesce_s":0.041,
//    "time_to_resume_s":0.031,"resume_attempts":2,"resumes_succeeded":1}
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cloud/fault_injector.h"
#include "core/timeunion_db.h"
#include "lsm/time_lsm.h"
#include "util/mmap_file.h"

namespace tu::bench {
namespace {

// Writers pace themselves (~1 ms sleep per batch) like a scrape-driven
// ingest pipeline: the interesting signal is the throughput RATIO across
// phases and the drain time, not the unconstrained peak rate. Pacing also
// keeps the virtual time span — and with it the partition count the final
// flush must compact — bounded regardless of host speed.
constexpr int kThreads = 4;
constexpr int kSeriesPerThread = 16;
constexpr int kBatchPerSeries = 4;
constexpr int64_t kStepMs = 50;

struct PhaseStat {
  const char* name;
  double elapsed_s = 0;
  uint64_t samples = 0;
  uint64_t errors = 0;
};

void PrintPhase(const PhaseStat& p) {
  std::printf(
      "{\"bench\":\"outage_recovery\",\"phase\":\"%s\",\"elapsed_s\":%.3f,"
      "\"samples\":%llu,\"throughput_sps\":%.1f,\"write_errors\":%llu}\n",
      p.name, p.elapsed_s, static_cast<unsigned long long>(p.samples),
      p.elapsed_s > 0 ? static_cast<double>(p.samples) / p.elapsed_s : 0.0,
      static_cast<unsigned long long>(p.errors));
  std::fflush(stdout);
}

int Main() {
  PrintHeader("outage_recovery",
              "Ingest throughput across a slow-tier outage + drain time");

  int64_t outage_ms = 3000;
  if (const char* env = std::getenv("TU_OUTAGE_MS")) {
    outage_ms = std::atoll(env);
    if (outage_ms <= 0) outage_ms = 3000;
  }
  const int64_t steady_ms = outage_ms >= 30'000 ? 10'000 : 2000;

  core::DBOptions opts;
  opts.workspace = FreshWorkspace("outage_recovery");
  opts.lsm.memtable_bytes = 64 << 10;
  opts.lsm.background_flush = true;
  // Short partitions so L2 uploads happen throughout every phase.
  opts.lsm.l0_partition_ms = 4000;
  opts.lsm.l2_partition_ms = 16'000;
  opts.lsm.partition_lower_bound_ms = 4000;
  opts.lsm.l0_partition_trigger = 1;

  auto fi = std::make_shared<cloud::FaultInjector>(7);
  opts.env_options.slow_sim.fault = fi;
  opts.env_options.slow_sim.retry.max_attempts = 3;
  opts.env_options.slow_sim.retry.real_sleep = false;
  opts.env_options.slow_sim.breaker.enabled = true;
  opts.env_options.slow_sim.breaker.consecutive_failures_to_open = 4;

  // Fast-tier injector + maintenance worker for the ENOSPC drill: the
  // resume probe runs from the tick, so the measured time-to-resume is
  // tick interval + probe backoff + retry cost.
  auto fi_fast = std::make_shared<cloud::FaultInjector>(17);
  opts.env_options.fast_sim.fault = fi_fast;
  opts.background_maintenance = true;
  opts.maintenance_interval_ms = 25;
  opts.error_handler.resume_backoff_initial_ms = 25;

  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<uint64_t> refs(kThreads * kSeriesPerThread);
  for (size_t i = 0; i < refs.size(); ++i) {
    s = db->RegisterSeries({{"host", std::to_string(i)}, {"m", "cpu"}},
                           &refs[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_samples{0};
  std::atomic<uint64_t> total_errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // One row per Write, through one reused batch per writer.
      core::WriteBatch batch;
      core::WriteResult written;
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int b = 0; b < kBatchPerSeries; ++b) {
          const int64_t ts = (i + b) * kStepMs;
          for (int sr = 0; sr < kSeriesPerThread; ++sr) {
            batch.Clear();
            batch.AddSample(refs[t * kSeriesPerThread + sr], ts,
                            static_cast<double>(i + b));
            if (WriteRows(db.get(), batch, &written).ok()) {
              total_samples.fetch_add(1, std::memory_order_relaxed);
            } else {
              total_errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        i += kBatchPerSeries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Three phases on the same running writers: healthy, total slow-tier
  // outage (breaker trips, uploads defer), healthy again.
  PhaseStat phases[3] = {{"pre"}, {"outage"}, {"post"}};
  const int64_t durations_ms[3] = {steady_ms, outage_ms, steady_ms};
  for (int p = 0; p < 3; ++p) {
    if (p == 1) {
      cloud::FaultRule down;
      down.ops = cloud::kAllFaultOps;
      down.probability = 1.0;
      down.kind = cloud::FaultRule::Kind::kPermanent;
      fi->AddRule(down);
    } else if (p == 2) {
      fi->Clear();
    }
    const uint64_t s0 = total_samples.load();
    const uint64_t e0 = total_errors.load();
    const uint64_t t0 = NowUs();
    std::this_thread::sleep_for(std::chrono::milliseconds(durations_ms[p]));
    phases[p].elapsed_s = static_cast<double>(NowUs() - t0) / 1e6;
    phases[p].samples = total_samples.load() - s0;
    phases[p].errors = total_errors.load() - e0;
    PrintPhase(phases[p]);
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Drain the deferred backlog and time it. A pass can come back with
  // tables still parked (breaker cooldown, maintenance tick holding the
  // drain lock), so poll until empty.
  s = db->Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const size_t deferred_peak = db->time_lsm()->NumDeferredTables();
  const uint64_t drain_t0 = NowUs();
  while (db->time_lsm()->NumDeferredTables() > 0) {
    s = db->time_lsm()->DrainDeferredUploads();
    if (!s.ok()) {
      std::fprintf(stderr, "drain failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (db->time_lsm()->NumDeferredTables() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const double drain_s = static_cast<double>(NowUs() - drain_t0) / 1e6;

  const obs::MetricsSnapshot health = db->Metrics();
  std::printf(
      "{\"bench\":\"outage_recovery\",\"metric\":\"drain\","
      "\"deferred_tables\":%llu,\"drained_total\":%llu,\"drain_s\":%.3f,"
      "\"breaker_opens\":%llu,\"breaker_rejections\":%llu}\n",
      static_cast<unsigned long long>(deferred_peak),
      static_cast<unsigned long long>(
          health.CounterOr0("lsm.deferred_uploads_drained")),
      drain_s,
      static_cast<unsigned long long>(health.CounterOr0("slow.breaker_opens")),
      static_cast<unsigned long long>(
          health.CounterOr0("slow.breaker_rejections")));
  std::fflush(stdout);

  PrintRow("outage/pre throughput ratio",
           phases[0].samples > 0 ? static_cast<double>(phases[1].samples) /
                                       phases[1].elapsed_s /
                                       (static_cast<double>(phases[0].samples) /
                                        phases[0].elapsed_s)
                                 : 0.0,
           "x");
  PrintRow("time to drain backlog", drain_s, "s");

  // -- Fast-tier ENOSPC drill: quiesce -> release -> auto-resume ------------
  fi_fast->AddRule(cloud::FaultRule::NoSpace(
      cloud::FaultOp::kAppend | cloud::FaultOp::kSync, "lsm/"));
  const uint64_t enospc_t0 = NowUs();
  constexpr uint64_t kEnospcCapUs = 20'000'000;
  bool quiesced = false;
  // Far past the writer phase so the drill only creates fresh partitions.
  int64_t ts = 100'000'000;
  core::WriteBatch batch;
  core::WriteResult written;
  while (NowUs() - enospc_t0 < kEnospcCapUs) {
    batch.Clear();
    batch.AddSample(refs[0], ts, 1.0);
    if (!WriteRows(db.get(), batch, &written).ok()) {
      quiesced = true;
      break;
    }
    ts += kStepMs;
  }
  const double quiesce_s = static_cast<double>(NowUs() - enospc_t0) / 1e6;

  double resume_s = -1.0;
  if (quiesced) {
    fi_fast->ReleaseNoSpace();
    const uint64_t rt0 = NowUs();
    while (db->Health() != core::DbHealth::kHealthy &&
           NowUs() - rt0 < kEnospcCapUs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (db->Health() == core::DbHealth::kHealthy) {
      resume_s = static_cast<double>(NowUs() - rt0) / 1e6;
    }
  }
  const obs::MetricsSnapshot after = db->Metrics();
  std::printf(
      "{\"bench\":\"outage_recovery\",\"metric\":\"enospc\","
      "\"quiesce_s\":%.3f,\"time_to_resume_s\":%.3f,"
      "\"resume_attempts\":%llu,\"resumes_succeeded\":%llu}\n",
      quiesce_s, resume_s,
      static_cast<unsigned long long>(
          after.CounterOr0("error_handler.resume_attempts")),
      static_cast<unsigned long long>(
          after.CounterOr0("error_handler.resumes_succeeded")));
  std::fflush(stdout);
  PrintRow("time to resume after ENOSPC", resume_s, "s");

  int rc = total_errors.load() == 0 ? 0 : 1;
  if (!quiesced || resume_s < 0) rc = 1;
  db.reset();
  RemoveDirRecursive(opts.workspace);
  return rc;
}

}  // namespace
}  // namespace tu::bench

int main() { return tu::bench::Main(); }
