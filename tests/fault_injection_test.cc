// Fault-injection / crash-recovery suite (`ctest -L fault`):
//   - FaultInjector rule matching (Nth-op, probabilistic, prefix, torn).
//   - RunWithRetry backoff semantics and give-up accounting.
//   - End-to-end workload under a 10% transient slow-tier error rate:
//     insert -> flush -> compact -> query must complete via retries.
//   - Crash matrix: fork a child, arm one crash point (WAL append, L0
//     flush, L2 upload pre/post commit), let it _Exit mid-operation, then
//     reopen and verify every acknowledged sample survived and a second
//     reopen finds nothing left to quarantine or sweep.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cloud/circuit_breaker.h"
#include "cloud/fault_injector.h"
#include "cloud/object_store.h"
#include "cloud/retry_policy.h"
#include "cloud/tiered_env.h"
#include "core/timeunion_db.h"
#include "util/interval_set.h"
#include "util/mmap_file.h"
#include "write_util.h"

namespace tu {
namespace {

using cloud::FaultInjector;
using cloud::FaultOp;
using cloud::FaultOpMask;
using cloud::FaultRule;

// -- Injector rule matching --------------------------------------------------

TEST(FaultInjectorTest, NthOpRuleFiresExactlyOnce) {
  FaultInjector fi;
  fi.AddRule(FaultRule::Permanent(FaultOpMask(FaultOp::kPut), 2));
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "a").ok());
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "b").IsIOError());
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "c").ok());
  EXPECT_EQ(fi.faults_injected(), 1u);
}

TEST(FaultInjectorTest, OpMaskAndPrefixFilterMatches) {
  FaultInjector fi;
  fi.AddRule(FaultRule::Permanent(FaultOpMask(FaultOp::kGet), 1, "lsm/"));
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "lsm/x").ok());  // wrong op kind
  EXPECT_TRUE(fi.Intercept(FaultOp::kGet, "wal/x").ok());  // wrong prefix
  EXPECT_TRUE(fi.Intercept(FaultOp::kGet, "lsm/x").IsIOError());
}

TEST(FaultInjectorTest, TransientIsRetryableAndBoundedByMaxFires) {
  FaultInjector fi;
  FaultRule rule = FaultRule::Transient(cloud::kAllFaultOps, 1.0);
  rule.max_fires = 2;
  fi.AddRule(rule);
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "k").IsBusy());
  EXPECT_TRUE(fi.Intercept(FaultOp::kSync, "k").IsBusy());
  EXPECT_TRUE(fi.Intercept(FaultOp::kPut, "k").ok());  // budget exhausted
  EXPECT_EQ(fi.faults_injected(), 2u);
}

TEST(FaultInjectorTest, TornWriteReportsKeptPrefix) {
  FaultInjector fi;
  fi.AddRule(FaultRule::TornWrite(FaultOpMask(FaultOp::kAppend), 1, 0.5));
  size_t keep = 999;
  Status s = fi.InterceptWrite(FaultOp::kAppend, "WAL", 100, &keep);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(keep, 50u);
  keep = 999;
  EXPECT_TRUE(fi.InterceptWrite(FaultOp::kAppend, "WAL", 100, &keep).ok());
  EXPECT_EQ(keep, 0u);
}

TEST(FaultInjectorTest, TornPutThroughObjectStorePersistsPrefix) {
  const std::string ws = "/tmp/timeunion_test/fault_torn";
  RemoveDirRecursive(ws);
  auto fi = std::make_shared<FaultInjector>();
  fi->AddRule(FaultRule::TornWrite(FaultOpMask(FaultOp::kPut), 1, 0.25));
  cloud::TierSimOptions sim = cloud::TierSimOptions::Instant();
  sim.fault = fi;
  cloud::ObjectStore store(ws, sim);

  EXPECT_FALSE(store.PutObject("k", std::string(16, 'x')).ok());
  uint64_t size = 0;
  ASSERT_TRUE(store.ObjectSize("k", &size).ok());
  EXPECT_EQ(size, 4u);  // only the torn prefix landed
  EXPECT_EQ(store.counters().faults_injected.load(), 1u);

  // The next Put overwrites the torn object cleanly.
  ASSERT_TRUE(store.PutObject("k", std::string(16, 'x')).ok());
  ASSERT_TRUE(store.ObjectSize("k", &size).ok());
  EXPECT_EQ(size, 16u);
  RemoveDirRecursive(ws);
}

// -- RunWithRetry ------------------------------------------------------------

TEST(RetryPolicyTest, TransientErrorsRetriedUntilSuccess) {
  cloud::TierCounters counters;
  cloud::RetryPolicy policy;
  policy.real_sleep = false;
  int calls = 0;
  Status s = cloud::RunWithRetry(policy, &counters, "op", [&] {
    return ++calls < 3 ? Status::Busy("throttled") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(counters.retries.load(), 2u);
  EXPECT_EQ(counters.retry_give_ups.load(), 0u);
}

TEST(RetryPolicyTest, PermanentErrorsSurfaceImmediately) {
  cloud::TierCounters counters;
  cloud::RetryPolicy policy;
  policy.real_sleep = false;
  int calls = 0;
  Status s = cloud::RunWithRetry(policy, &counters, "op", [&] {
    ++calls;
    return Status::IOError("disk on fire");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(counters.retries.load(), 0u);
  EXPECT_EQ(counters.retry_give_ups.load(), 0u);
}

TEST(RetryPolicyTest, ExhaustedAttemptsCountAsGiveUp) {
  cloud::TierCounters counters;
  cloud::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.real_sleep = false;
  int calls = 0;
  Status s = cloud::RunWithRetry(policy, &counters, "upload 0001.sst", [&] {
    ++calls;
    return Status::Busy("throttled");
  });
  EXPECT_TRUE(s.IsIOError());  // give-up converts to a permanent failure
  EXPECT_NE(s.ToString().find("upload 0001.sst"), std::string::npos);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(counters.retries.load(), 2u);
  EXPECT_EQ(counters.retry_give_ups.load(), 1u);
}

// -- Circuit breaker state machine -------------------------------------------

cloud::CircuitBreakerOptions TestBreakerOptions(uint64_t* fake_now) {
  cloud::CircuitBreakerOptions o;
  o.enabled = true;
  o.window = 8;
  o.min_samples = 4;
  o.failure_rate_to_open = 0.5;
  o.consecutive_failures_to_open = 3;
  o.open_cooldown_us = 1000;
  o.half_open_max_probes = 2;
  o.half_open_successes_to_close = 2;
  o.now_us = [fake_now] { return *fake_now; };
  return o;
}

TEST(CircuitBreakerTest, DisabledBreakerAdmitsEverything) {
  uint64_t now = 0;
  cloud::CircuitBreakerOptions o = TestBreakerOptions(&now);
  o.enabled = false;
  cloud::CircuitBreaker breaker(o, nullptr);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::IOError("down"));
  }
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kClosed);
  EXPECT_EQ(breaker.rejections(), 0u);
}

TEST(CircuitBreakerTest, ConsecutiveFailuresTripAndCooldownProbesClose) {
  uint64_t now = 0;
  cloud::TierCounters counters;
  cloud::CircuitBreaker breaker(TestBreakerOptions(&now), &counters);

  // Three consecutive failures trip the fast condition.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::IOError("down"));
  }
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // While open (cooldown pending) every call is rejected instantly with
  // the non-retryable class, and the rejections mirror into the tier
  // counters.
  Status rejected = breaker.Admit();
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_GT(breaker.rejections(), 0u);
  EXPECT_EQ(counters.breaker_rejections.load(), breaker.rejections());
  EXPECT_EQ(counters.breaker_opens.load(), 1u);

  // Cooldown elapses -> half-open: at most two concurrent probes admitted.
  now += 1001;
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kHalfOpen);
  ASSERT_TRUE(breaker.Admit().ok());
  ASSERT_TRUE(breaker.Admit().ok());
  EXPECT_TRUE(breaker.Admit().IsUnavailable());  // probe slots exhausted
  breaker.OnResult(Status::OK());
  breaker.OnResult(Status::OK());
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kClosed);

  // Closed again: admissions flow freely.
  EXPECT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
}

TEST(CircuitBreakerTest, FailureRateTripsAndProbeFailureReopens) {
  uint64_t now = 0;
  cloud::CircuitBreakerOptions o = TestBreakerOptions(&now);
  o.consecutive_failures_to_open = 100;  // isolate the rate condition
  cloud::CircuitBreaker breaker(o, nullptr);

  // Alternate success/failure: 50% failure rate over >= min_samples.
  for (int i = 0; i < 4 && breaker.state() == cloud::BreakerState::kClosed;
       ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::OK());
    if (breaker.Admit().ok()) breaker.OnResult(Status::Busy("throttle"));
  }
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // A failed half-open probe re-opens immediately and restarts cooldown.
  now += 1001;
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::IOError("still down"));
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_TRUE(breaker.Admit().IsUnavailable());

  // NotFound is evidence of liveness, not failure: probes that hit missing
  // keys still close the breaker.
  now += 1001;
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::NotFound("no such key"));
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::NotFound("no such key"));
  EXPECT_EQ(breaker.state(), cloud::BreakerState::kClosed);
}

// -- Acceptance workload: 10% transient slow-tier faults ---------------------

TEST(FaultInjectionDbTest, TransientSlowTierFaultsAbsorbedByRetries) {
  const std::string ws = "/tmp/timeunion_test/fault_db";
  RemoveDirRecursive(ws);

  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  // Every slow-tier Put/Get fails transiently 10% of the time.
  auto fi = std::make_shared<FaultInjector>(7);
  fi->AddRule(FaultRule::Transient(FaultOp::kPut | FaultOp::kGet, 0.10));
  opts.env_options.slow_sim.fault = fi;
  opts.env_options.slow_sim.retry.max_attempts = 6;
  opts.env_options.slow_sim.retry.real_sleep = false;
  // Tiny partitions so the workload exercises L2 uploads and reads.
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  const int n = 2000;
  uint64_t ref = 0;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(core::WriteCpuSample(db.get(), i, 250, &ref).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GT(db->time_lsm()->NumL2Partitions(), 0u);

  core::QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "cpu")}, 0, n * 250LL), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].timestamps.size(), static_cast<size_t>(n));

  // The workload only completed because retries absorbed every fault.
  const cloud::TierCounters& slow = db->env().slow().counters();
  EXPECT_GT(slow.faults_injected.load(), 0u);
  EXPECT_GT(slow.retries.load(), 0u);
  EXPECT_EQ(slow.retry_give_ups.load(), 0u);
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterOr0("slow.retries"), slow.retries.load());
  EXPECT_EQ(snap.CounterOr0("slow.give_ups"), 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Degraded operation: full outage lifecycle -------------------------------

// Tiny-partition workload options shared by the control and outage DBs.
// The outage DB additionally gets the fault injector and a breaker driven
// by a fake clock (so "open" holds exactly until the test advances time).
core::DBOptions OutageWorkloadOptions(const std::string& ws) {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;
  return opts;
}

void ArmOutageBreaker(core::DBOptions* opts,
                      std::shared_ptr<std::atomic<uint64_t>> clock) {
  opts->env_options.slow_sim.retry.max_attempts = 2;
  opts->env_options.slow_sim.retry.real_sleep = false;
  cloud::CircuitBreakerOptions& b = opts->env_options.slow_sim.breaker;
  b.enabled = true;
  b.window = 8;
  b.min_samples = 4;
  b.consecutive_failures_to_open = 3;
  b.open_cooldown_us = 1000;
  b.half_open_max_probes = 2;
  b.half_open_successes_to_close = 2;
  b.now_us = [clock] { return clock->load(); };
}

FaultRule TotalSlowTierOutage() {
  FaultRule rule;
  rule.ops = cloud::kAllFaultOps;
  rule.probability = 1.0;
  rule.kind = FaultRule::Kind::kPermanent;
  return rule;
}

// Failed writes trip the breaker implicitly; this makes it deterministic
// before a partial query depends on the open state.
void TripBreakerHard(core::TimeUnionDB* db) {
  cloud::ObjectStore& slow = db->env().slow();
  for (int i = 0; i < 20 && slow.breaker().state() != cloud::BreakerState::kOpen;
       ++i) {
    (void)slow.PutObject("breaker_probe", "x");
  }
  ASSERT_EQ(slow.breaker().state(), cloud::BreakerState::kOpen);
}

TEST(OutageLifecycleTest, IngestQueryDeferDrainAcrossSlowTierOutage) {
  const std::string ws = "/tmp/timeunion_test/outage_lifecycle";
  const std::string control_ws = ws + "_control";
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);

  constexpr int kPreOutage = 1000;
  constexpr int kTotal = 2000;
  constexpr int64_t kStepMs = 250;
  const auto matcher = index::TagMatcher::Equal("metric", "cpu");

  // Control run: identical workload, healthy slow tier throughout.
  std::unique_ptr<core::TimeUnionDB> control;
  ASSERT_TRUE(
      core::TimeUnionDB::Open(OutageWorkloadOptions(control_ws), &control)
          .ok());

  auto fi = std::make_shared<FaultInjector>(11);
  auto clock = std::make_shared<std::atomic<uint64_t>>(0);
  core::DBOptions opts = OutageWorkloadOptions(ws);
  opts.env_options.slow_sim.fault = fi;
  ArmOutageBreaker(&opts, clock);
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  uint64_t ref = 0, control_ref = 0;
  auto ingest = [&](core::TimeUnionDB* target, uint64_t* r, int from,
                    int to) {
    for (int i = from; i < to; ++i) {
      Status s = core::WriteCpuSample(target, i, kStepMs, r);
      ASSERT_TRUE(s.ok()) << "sample " << i << ": " << s.ToString();
    }
  };

  // Phase 1 (healthy): both DBs ingest and flush; data reaches L2.
  ingest(control.get(), &control_ref, 0, kPreOutage);
  ingest(db.get(), &ref, 0, kPreOutage);
  ASSERT_TRUE(control->Flush().ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);
  ASSERT_EQ(db->time_lsm()->NumDeferredTables(), 0u);

  // Phase 2: total slow-tier outage. Ingest must continue error-free;
  // L1->L2 compaction parks its outputs on the fast tier.
  fi->AddRule(TotalSlowTierOutage());
  TripBreakerHard(db.get());
  ingest(control.get(), &control_ref, kPreOutage, kTotal);
  ingest(db.get(), &ref, kPreOutage, kTotal);
  ASSERT_TRUE(control->Flush().ok());
  ASSERT_TRUE(db->Flush().ok());

  // Deferral is not a failure: writes stay healthy, and no flush or
  // compaction error reached the error handler (drain attempts against
  // the open breaker are only noted).
  obs::MetricsSnapshot health = db->Metrics();
  EXPECT_EQ(health.GaugeOr0("breaker.state"),
            static_cast<int64_t>(cloud::BreakerState::kOpen));
  EXPECT_GT(health.CounterOr0("slow.breaker_opens"), 0u);
  EXPECT_GT(health.CounterOr0("slow.breaker_rejections"), 0u);
  EXPECT_GT(health.GaugeOr0("lsm.deferred_tables"), 0);
  EXPECT_GT(health.GaugeOr0("lsm.deferred_bytes"), 0);
  EXPECT_EQ(*health.FindString("db.health"), "healthy");
  EXPECT_EQ(health.CounterOr0("error_handler.errors_by_scope.flush"), 0u);
  EXPECT_EQ(health.CounterOr0("error_handler.errors_by_scope.compaction"), 0u);

  // Mid-outage query: answers from the fast tier, flags the L2 gap.
  core::QueryResult control_result;
  ASSERT_TRUE(
      control->Query(query::ReadRequest::Range({matcher}, 0, kTotal * kStepMs),
                     &control_result).ok());
  ASSERT_EQ(control_result.size(), 1u);
  ASSERT_EQ(control_result[0].timestamps.size(), static_cast<size_t>(kTotal));

  auto check_partial = [&](core::TimeUnionDB* target) {
    core::QueryResult partial;
    ASSERT_TRUE(target->Query(query::ReadRequest::Range({matcher}, 0,
                                                        kTotal * kStepMs),
                              &partial).ok());
    EXPECT_FALSE(partial.complete);
    ASSERT_FALSE(partial.missing_ranges.empty());
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_LT(partial[0].timestamps.size(), static_cast<size_t>(kTotal));
    // Returned samples match the control bit-for-bit; absent ones lie
    // inside the reported gaps.
    std::map<int64_t, double> got;
    for (size_t i = 0; i < partial[0].timestamps.size(); ++i) {
      got[partial[0].timestamps[i]] = partial[0].values[i];
    }
    const auto& control = control_result[0];
    for (size_t i = 0; i < control.timestamps.size(); ++i) {
      const int64_t ts = control.timestamps[i];
      auto it = got.find(ts);
      if (it != got.end()) {
        EXPECT_EQ(it->second, control.values[i]) << "ts " << ts;
      } else {
        EXPECT_TRUE(util::IntervalsContain(partial.missing_ranges, ts))
            << "lost sample at ts " << ts
            << " not covered by missing_ranges";
      }
    }
    // The streaming path reports the same degradation.
    std::vector<core::TimeUnionDB::SeriesIterResult> iters;
    ASSERT_TRUE(
        target->QueryIterators(query::ReadRequest::Range({matcher}, 0,
                                                         kTotal * kStepMs),
                               &iters).ok());
    ASSERT_EQ(iters.size(), 1u);
    EXPECT_FALSE(iters[0].complete);
    EXPECT_FALSE(iters[0].missing_ranges.empty());
  };
  check_partial(db.get());

  // Phase 3: reopen mid-outage. The deferred queue is manifest-recorded,
  // and recovery must not quarantine slow-tier tables it merely cannot
  // verify while the tier is down.
  const size_t deferred_before = db->time_lsm()->NumDeferredTables();
  ASSERT_GT(deferred_before, 0u);
  db.reset();
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(db->recovery_report().tables_quarantined, 0u);
  // Replay-triggered compactions may park additional tables, but nothing
  // deferred may be lost across the reopen.
  const size_t deferred_after_reopen = db->time_lsm()->NumDeferredTables();
  EXPECT_GE(deferred_after_reopen, deferred_before);
  TripBreakerHard(db.get());
  check_partial(db.get());

  // Phase 4: outage ends. The breaker's cooldown elapses, half-open
  // probes succeed, and the drainer uploads every parked table.
  fi->Clear();
  clock->fetch_add(10'000);
  size_t drained = 0;
  ASSERT_TRUE(db->time_lsm()->DrainDeferredUploads(&drained).ok());
  EXPECT_EQ(drained, deferred_after_reopen);
  EXPECT_EQ(db->time_lsm()->NumDeferredTables(), 0u);
  EXPECT_EQ(db->env().slow().breaker().state(), cloud::BreakerState::kClosed);
  health = db->Metrics();
  EXPECT_EQ(health.GaugeOr0("lsm.deferred_tables"), 0);
  EXPECT_EQ(health.CounterOr0("lsm.deferred_uploads_drained"),
            deferred_after_reopen);

  // Post-outage query: complete again, identical to the no-fault control.
  core::QueryResult final_result;
  ASSERT_TRUE(
      db->Query(query::ReadRequest::Range({matcher}, 0, kTotal * kStepMs),
                &final_result).ok());
  EXPECT_TRUE(final_result.complete);
  EXPECT_TRUE(final_result.missing_ranges.empty());
  ASSERT_EQ(final_result.size(), 1u);
  ASSERT_EQ(final_result[0].timestamps.size(),
            control_result[0].timestamps.size());
  for (size_t i = 0; i < final_result[0].timestamps.size(); ++i) {
    EXPECT_EQ(final_result[0].timestamps[i],
              control_result[0].timestamps[i]);
    EXPECT_EQ(final_result[0].values[i],
              control_result[0].values[i]);
  }

  db.reset();
  control.reset();
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);
}

// -- Degraded operation: teardown, sticky errors, admission ------------------

TEST(FaultInjectionDbTest, TeardownDuringOutageDoesNotWaitOutBackoffs) {
  const std::string ws = "/tmp/timeunion_test/fault_teardown";
  RemoveDirRecursive(ws);

  auto fi = std::make_shared<FaultInjector>(3);
  fi->AddRule(TotalSlowTierOutage());
  core::DBOptions opts = OutageWorkloadOptions(ws);
  opts.enable_wal = false;
  opts.env_options.slow_sim.fault = fi;
  // Real, slow backoffs with an unlimited budget: an uncancelled upload
  // would sleep for many seconds inside RunWithRetry. No breaker — this
  // exercises the retry cancellation path alone.
  opts.env_options.slow_sim.retry.max_attempts = 10;
  opts.env_options.slow_sim.retry.initial_backoff_us = 200'000;
  opts.env_options.slow_sim.retry.max_backoff_us = 2'000'000;
  opts.env_options.slow_sim.retry.total_budget_us = 0;
  opts.env_options.slow_sim.retry.real_sleep = true;
  opts.lsm.background_flush = true;

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(core::WriteCpuSample(db.get(), i, 250, &ref).ok());
  }
  // Wait until a background upload attempt has actually hit the outage
  // (so teardown races an in-flight retry loop, not an idle pool).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->env().slow().counters().faults_injected.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(db->env().slow().counters().faults_injected.load(), 0u);

  const auto start = std::chrono::steady_clock::now();
  db.reset();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Cancellation slices sleeps at ~1ms; with an unlimited retry budget an
  // uncancelled backoff ladder would never finish at all, so any finite
  // bound proves cancellation — keep it well below a single full ladder
  // slipping through (~13s: 200ms doubling to a 2s cap over 10 attempts).
  // The slack above the uncontended teardown (~tens of ms) absorbs
  // wall-clock noise from parallel ctest runs on small hosts; sanitizer
  // instrumentation slows the clock severalfold, so scale further there.
  int64_t bound_ms = 5000;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  bound_ms *= 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  bound_ms *= 10;
#endif
#endif
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            bound_ms);
  RemoveDirRecursive(ws);
}

TEST(FaultInjectionDbTest, BackgroundFlushErrorIsStickyAndObservable) {
  const std::string ws = "/tmp/timeunion_test/fault_bg_error";
  RemoveDirRecursive(ws);

  // Permanent faults on fast-tier LSM file appends: every background
  // memtable flush fails at the table write. (WAL off so the injector
  // only sees LSM files; BlockStore writes go through kAppend, not kPut.)
  auto fi = std::make_shared<FaultInjector>(5);
  FaultRule rule;
  rule.ops = FaultOpMask(FaultOp::kAppend);
  rule.key_prefix = "lsm/";
  rule.probability = 1.0;
  rule.kind = FaultRule::Kind::kPermanent;
  fi->AddRule(rule);

  core::DBOptions opts = OutageWorkloadOptions(ws);
  opts.enable_wal = false;
  opts.env_options.fast_sim.fault = fi;
  opts.lsm.background_flush = true;
  opts.lsm.memtable_bytes = 4 << 10;
  std::atomic<int> callbacks{0};
  opts.lsm.on_background_error = [&callbacks](lsm::BgWorkKind,
                                              const Status& s) {
    EXPECT_FALSE(s.ok());
    callbacks.fetch_add(1);
  };

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  ASSERT_TRUE(core::WriteCpuSample(db.get(), 0, 1, &ref).ok());
  // 1 ms steps and a hard iteration cap keep the virtual time span (and
  // thus the partition/flush backlog teardown must chew through) small
  // even if the callback never fires and the test fails.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 1;
  while (callbacks.load() == 0 && i < 100'000 &&
         std::chrono::steady_clock::now() < deadline) {
    Status s = core::WriteCpuSample(db.get(), i, 1, &ref);
    if (!s.ok()) {
      // The error handler may quiesce writes before this loop observes the
      // callback counter; that fail-fast IS the error surfacing.
      ASSERT_TRUE(s.IsResourceExhausted()) << s.ToString();
      break;
    }
    ++i;
  }
  // The callback fires on the flush worker right after the handler trips
  // the write gate, so give it a moment when the gate won the race.
  while (callbacks.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(callbacks.load(), 0) << "background flush error never surfaced";

  // The error handler latched the error (Metrics() shows it as
  // db.last_background_error) and classified it as soft (write-quiesce,
  // auto-resume).
  EXPECT_NE(*db->Metrics().FindString("db.last_background_error"), "OK");
  EXPECT_EQ(db->Health(), core::DbHealth::kDegradedWrites);
  EXPECT_FALSE(db->error_handler().LastError().ok());

  // Clear the injector and resume manually: retained memtables flush,
  // the latched error clears, and the write path reopens.
  fi->Clear();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_EQ(db->Health(), core::DbHealth::kHealthy);
  EXPECT_EQ(*db->Metrics().FindString("db.last_background_error"), "OK");
  core::WriteBatch batch;
  batch.AddSample(ref, 200'000, 1.0);
  ASSERT_TRUE(core::WriteAll(db.get(), batch));

  db.reset();
  RemoveDirRecursive(ws);
}

TEST(FaultInjectionDbTest, AdmissionControlDelaysThenRejectsWrites) {
  const std::string ws = "/tmp/timeunion_test/fault_admission";

  // Phase A: soft watermark only (hard unreachable) — writes are delayed
  // but all admitted.
  RemoveDirRecursive(ws);
  core::DBOptions opts = OutageWorkloadOptions(ws);
  opts.enable_wal = false;
  opts.lsm.fast_storage_limit_bytes = 1;  // any resident table exceeds it
  opts.admission.enabled = true;
  opts.admission.soft_watermark = 1.0;
  opts.admission.hard_watermark = 1e15;
  opts.admission.soft_delay_us = 0;  // count delays without slowing the test
  opts.admission.refresh_every_ops = 1;
  {
    std::unique_ptr<core::TimeUnionDB> db;
    ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
    uint64_t ref = 0;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(core::WriteCpuSample(db.get(), i, 250, &ref).ok());
    }
    ASSERT_TRUE(db->Flush().ok());  // something now lives on the fast tier
    for (int i = 200; i < 400; ++i) {
      ASSERT_TRUE(core::WriteCpuSample(db.get(), i, 250, &ref).ok());
    }
    const obs::MetricsSnapshot health = db->Metrics();
    EXPECT_GT(health.CounterOr0("admission.writers_delayed"), 0u);
    EXPECT_EQ(health.CounterOr0("admission.writes_rejected"), 0u);
    db.reset();
  }

  // Phase B: hard watermark at the soft level — the same pressure now
  // rejects with the dedicated status code. Writes are admitted until the
  // first flush parks a table on the fast tier (memtables also rotate at
  // partition boundaries on their own, so rejection can arrive before the
  // explicit Flush); after that the refreshed gauge trips the watermark.
  RemoveDirRecursive(ws);
  opts.admission.hard_watermark = 1.0;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  ASSERT_TRUE(core::WriteCpuSample(db.get(), 0, 250, &ref).ok());
  Status rejected;
  for (int i = 1; i < 400 && rejected.ok(); ++i) {
    Status s = core::WriteCpuSample(db.get(), i, 250, &ref);
    if (s.IsResourceExhausted()) {
      rejected = s;
      break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (i == 100) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_GT(db->Metrics().CounterOr0("admission.writes_rejected"), 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

// -- Crash matrix ------------------------------------------------------------

// One armed crash site per case; skip_hits lets a few hits commit first so
// the child dies mid-stream rather than on its very first operation.
struct CrashCase {
  const char* site;
  uint64_t skip_hits;
};

core::DBOptions CrashWorkloadOptions(const std::string& ws) {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;
  // 256-byte segments: the workload seals and retires dozens of them.
  opts.wal_purge_bytes = 1 << 10;
  return opts;
}

constexpr int kCrashSamples = 300;
constexpr int64_t kCrashIntervalMs = 250;

// Records "samples [0, n) are acknowledged" durably (write + rename so the
// parent never reads a half-written count).
void WriteAck(const std::string& ws, int n) {
  const std::string tmp = ws + "/ack.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) std::_Exit(85);
  std::fprintf(f, "%d", n);
  std::fclose(f);
  if (std::rename(tmp.c_str(), (ws + "/ack").c_str()) != 0) std::_Exit(86);
}

int ReadAck(const std::string& ws) {
  std::ifstream in(ws + "/ack");
  int n = 0;
  in >> n;
  return n;
}

// Child body: insert+sync+ack until the armed crash point _Exits the
// process with kFaultCrashExitCode. Exit codes other than 43 mark distinct
// unexpected failures for the parent's diagnostics. Never returns.
[[noreturn]] void CrashChildWorkload(const std::string& ws,
                                     const CrashCase& c) {
  auto fi = std::make_shared<FaultInjector>();
  fi->ArmCrashPoint(c.site, c.skip_hits);
  core::DBOptions opts = CrashWorkloadOptions(ws);
  opts.env_options.fast_sim.fault = fi;
  opts.env_options.slow_sim.fault = fi;

  std::unique_ptr<core::TimeUnionDB> db;
  if (!core::TimeUnionDB::Open(opts, &db).ok()) std::_Exit(81);
  uint64_t ref = 0;
  for (int i = 0; i < kCrashSamples; ++i) {
    if (!core::WriteCpuSample(db.get(), i, kCrashIntervalMs, &ref).ok()) {
      std::_Exit(82);
    }
    if (!db->SyncWal().ok()) std::_Exit(83);
    WriteAck(ws, i + 1);  // sample i is now acknowledged
    if ((i + 1) % 16 == 0 && !db->Flush().ok()) std::_Exit(84);
  }
  std::_Exit(0);  // crash point never fired — the parent flags this
}

class CrashRecoveryTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashRecoveryTest, AcknowledgedSamplesSurviveCrash) {
  const CrashCase c = GetParam();
  std::string ws = "/tmp/timeunion_test/crash_";
  for (const char* p = c.site; *p != '\0'; ++p) {
    ws += (*p == '.') ? '_' : *p;
  }
  RemoveDirRecursive(ws);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) CrashChildWorkload(ws, c);  // never returns

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << c.site;
  ASSERT_EQ(WEXITSTATUS(wstatus), cloud::kFaultCrashExitCode)
      << c.site << ": child exited " << WEXITSTATUS(wstatus)
      << " (0 = crash point never reached; 8x = workload error)";

  const int acked = ReadAck(ws);
  ASSERT_GT(acked, 0) << c.site;

  // First reopen: recovery may quarantine/sweep crash leftovers, then WAL
  // replay must restore every acknowledged sample.
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(CrashWorkloadOptions(ws), &db).ok())
      << c.site;

  core::QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "cpu")}, 0,
      kCrashSamples * kCrashIntervalMs), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u) << c.site;
  // No duplicated data: timestamps strictly ascending.
  for (size_t i = 1; i < result[0].timestamps.size(); ++i) {
    ASSERT_LT(result[0].timestamps[i - 1],
              result[0].timestamps[i])
        << c.site;
  }
  // Byte-identical to the fault-free control: every sample is one the
  // workload wrote, with the value it wrote.
  std::map<int64_t, double> samples;
  for (size_t k = 0; k < result[0].timestamps.size(); ++k) {
    const int64_t ts = result[0].timestamps[k];
    const double value = result[0].values[k];
    samples[ts] = value;
    ASSERT_EQ(ts % kCrashIntervalMs, 0) << c.site;
    const int64_t i = ts / kCrashIntervalMs;
    ASSERT_LT(i, kCrashSamples) << c.site;
    EXPECT_EQ(value, 1.0 * static_cast<double>(i)) << c.site;
  }
  for (int i = 0; i < acked; ++i) {
    auto it = samples.find(i * kCrashIntervalMs);
    ASSERT_NE(it, samples.end())
        << c.site << ": acked sample " << i << "/" << acked << " lost";
    EXPECT_EQ(it->second, 1.0 * i) << c.site << ": sample " << i;
  }

  // Second reopen: the first recovery left nothing dangling behind.
  db.reset();
  ASSERT_TRUE(core::TimeUnionDB::Open(CrashWorkloadOptions(ws), &db).ok())
      << c.site;
  EXPECT_EQ(db->recovery_report().tables_quarantined, 0u) << c.site;
  EXPECT_EQ(db->recovery_report().orphans_swept, 0u) << c.site;

  db.reset();
  RemoveDirRecursive(ws);
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, CrashRecoveryTest,
    ::testing::Values(CrashCase{"wal.append", 25},
                      CrashCase{"wal.seal", 2},
                      CrashCase{"wal.segment_delete", 2},
                      CrashCase{"l0.flush.pre_manifest", 0},
                      CrashCase{"l2.upload.pre_commit", 0},
                      CrashCase{"l2.upload.post_commit", 1}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = info.param.site;
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

// A sample older than its series' open chunk becomes a single-sample chunk
// stamped with the head's newest seq. When that chunk reaches level 0, its
// flush mark must not cover the older samples still waiting in the open
// chunk: replay would skip them, losing acked, synced samples in a crash.
TEST(TooOldFlushMarkTest, OpenChunkSamplesSurviveCrash) {
  const std::string ws = "/tmp/timeunion_test/crash_too_old_mark";
  RemoveDirRecursive(ws);
  core::DBOptions opts = CrashWorkloadOptions(ws);
  opts.samples_per_chunk = 32;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    core::DBOptions child = opts;
    // Every chunk Put fills the memtable: the too-old chunk reaches level
    // 0, and logs its flush mark, before the insert returns.
    child.lsm.memtable_bytes = 1;
    std::unique_ptr<core::TimeUnionDB> db;
    if (!core::TimeUnionDB::Open(child, &db).ok()) std::_Exit(81);
    // Per series and per group: four samples in the open chunk (one L0
    // partition), then a too-old one.
    // One row per Write, the series row before the group row.
    core::WriteBatch series_row, group_row;
    core::WriteResult written;
    series_row.AddSample(index::Labels{{"metric", "cpu"}}, 10'000, 1.0);
    if (!core::WriteRows(db.get(), series_row, &written).ok()) std::_Exit(82);
    const uint64_t ref = written.resolved_refs[0];
    group_row.AddGroupRow(index::Labels{{"host", "h"}},
                          {{{"metric", "mem"}}}, 10'000, {1.0});
    if (!core::WriteRows(db.get(), group_row, &written).ok()) std::_Exit(82);
    const core::WriteResult::ResolvedGroup group = written.resolved_groups[0];
    auto write_both = [&](int64_t ts, double v) {
      series_row.Clear();
      series_row.AddSample(ref, ts, v);
      group_row.Clear();
      group_row.AddGroupRow(group.group_ref, group.slots, ts, {v});
      return core::WriteRows(db.get(), series_row).ok() &&
             core::WriteRows(db.get(), group_row).ok();
    };
    for (int k = 1; k < 4; ++k) {
      if (!write_both(10'000 + 250 * k, 1.0 + k)) std::_Exit(82);
    }
    if (!write_both(0, -1.0)) std::_Exit(82);
    if (!db->SyncWal().ok()) std::_Exit(83);
    std::_Exit(cloud::kFaultCrashExitCode);  // crash: the open chunk is lost
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), cloud::kFaultCrashExitCode);

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  const std::vector<std::pair<int64_t, double>> want = {
      {0, -1.0}, {10'000, 1.0}, {10'250, 2.0}, {10'500, 3.0}, {10'750, 4.0}};
  for (const char* metric : {"cpu", "mem"}) {
    core::QueryResult result;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range(
        {index::TagMatcher::Equal("metric", metric)}, 0, 20'000), &result)
                    .ok());
    ASSERT_EQ(result.size(), 1u) << metric;
    std::vector<std::pair<int64_t, double>> got;
    for (size_t i = 0; i < result[0].timestamps.size(); ++i) {
      got.emplace_back(result[0].timestamps[i], result[0].values[i]);
    }
    EXPECT_EQ(got, want) << metric;
  }
  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
