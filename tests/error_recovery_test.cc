// Background-error recovery suite (`ctest -L fault`):
//   - ErrorHandler state machine: classification by (scope x status code),
//     write-quiesce gating, resume backoff, escalation to read-only after
//     backoff exhaustion, fatal manifest corruption.
//   - ENOSPC drill: fast tier goes disk-full mid-ingest. Appends fail fast
//     (kResourceExhausted) while reads keep serving; once space is
//     released the maintenance tick auto-resumes and the DB ends
//     byte-identical to a fault-free control run.
//   - fsync-failure discipline: a failed WAL sync poisons the writer
//     (fsyncgate: the dirty pages may be gone), Rotate() rebuilds the
//     active segment from its durable prefix plus the in-memory unsynced
//     tail, and replay afterwards sees every record that was ever
//     acknowledged.
//   - Crash while degraded: a process that dies mid-quiesce must still
//     recover every acknowledged sample on reopen.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/fault_injector.h"
#include "core/error_handler.h"
#include "core/timeunion_db.h"
#include "core/wal.h"
#include "util/mmap_file.h"

namespace tu {
namespace {

using cloud::FaultInjector;
using cloud::FaultOp;
using cloud::FaultOpMask;
using cloud::FaultRule;
using core::BgErrorScope;
using core::DbHealth;
using core::ErrorHandler;
using core::ErrorHandlerOptions;

// -- ErrorHandler state machine ----------------------------------------------

TEST(ErrorHandlerTest, ClassifiesByScopeAndCode) {
  ErrorHandler h;
  // Retryable / resource classes are soft regardless of scope.
  EXPECT_EQ(h.OnBackgroundError(BgErrorScope::kFlush,
                                Status::OutOfSpace("disk full"), 0),
            ErrorHandler::Severity::kSoft);
  EXPECT_EQ(h.health(), DbHealth::kDegradedWrites);
  EXPECT_TRUE(h.CheckWriteAllowed().IsResourceExhausted());
  EXPECT_TRUE(h.CanResume());

  // Deferred-drain failures are expected during outages: noted, never
  // latched into the health state.
  ErrorHandler noted;
  EXPECT_EQ(noted.OnBackgroundError(BgErrorScope::kDeferredDrain,
                                    Status::IOError("tier down"), 0),
            ErrorHandler::Severity::kNoted);
  EXPECT_EQ(noted.health(), DbHealth::kHealthy);
  EXPECT_TRUE(noted.CheckWriteAllowed().ok());

  // Corruption outside the manifest is hard (stop writes, manual resume).
  ErrorHandler hard;
  EXPECT_EQ(hard.OnBackgroundError(BgErrorScope::kCompaction,
                                   Status::Corruption("bad chunk"), 0),
            ErrorHandler::Severity::kHard);
  EXPECT_EQ(hard.health(), DbHealth::kReadOnly);
  EXPECT_TRUE(hard.CheckWriteAllowed().IsUnavailable());
  EXPECT_TRUE(hard.CanResume());
  EXPECT_FALSE(hard.ShouldAttemptResume(1'000'000));  // auto never, manual ok

  // Manifest corruption is fatal: no resume path short of a reopen.
  ErrorHandler fatal;
  EXPECT_EQ(fatal.OnBackgroundError(BgErrorScope::kManifest,
                                    Status::Corruption("manifest"), 0),
            ErrorHandler::Severity::kFatal);
  EXPECT_EQ(fatal.health(), DbHealth::kFatal);
  EXPECT_FALSE(fatal.CanResume());
}

TEST(ErrorHandlerTest, ResumeClearsErrorAndCountersAccumulate) {
  ErrorHandler h;
  h.OnBackgroundError(BgErrorScope::kWalSync, Status::IOError("fsync"), 100);
  EXPECT_FALSE(h.LastError().ok());
  EXPECT_EQ(h.LastScope(), BgErrorScope::kWalSync);
  // First probe is due immediately at the error's timestamp.
  EXPECT_TRUE(h.ShouldAttemptResume(100));

  h.OnResumeAttempt();
  h.OnResumeSuccess();
  EXPECT_EQ(h.health(), DbHealth::kHealthy);
  EXPECT_TRUE(h.LastError().ok());
  EXPECT_TRUE(h.CheckWriteAllowed().ok());

  const ErrorHandler::Counters c = h.counters();
  EXPECT_EQ(c.errors_total, 1u);
  EXPECT_EQ(c.soft_errors, 1u);
  EXPECT_EQ(c.errors_by_scope[static_cast<int>(BgErrorScope::kWalSync)], 1u);
  EXPECT_EQ(c.resume_attempts, 1u);
  EXPECT_EQ(c.resumes_succeeded, 1u);
  EXPECT_EQ(c.consecutive_resume_failures, 0u);
}

TEST(ErrorHandlerTest, BackoffDoublesAndExhaustionEscalatesToReadOnly) {
  ErrorHandlerOptions opts;
  opts.max_resume_attempts = 3;
  opts.resume_backoff_initial_ms = 100;
  opts.resume_backoff_max_ms = 10'000;
  ErrorHandler h(opts);

  h.OnBackgroundError(BgErrorScope::kFlush, Status::Busy("throttled"), 1000);
  ASSERT_EQ(h.health(), DbHealth::kDegradedWrites);
  ASSERT_TRUE(h.ShouldAttemptResume(1000));

  // Failure 1: next probe 100ms out, not before.
  h.OnResumeAttempt();
  h.OnResumeFailure(Status::Busy("still"), 1000);
  EXPECT_EQ(h.health(), DbHealth::kDegradedWrites);
  EXPECT_FALSE(h.ShouldAttemptResume(1050));
  EXPECT_TRUE(h.ShouldAttemptResume(1100));

  // Failure 2: backoff doubled to 200ms.
  h.OnResumeAttempt();
  h.OnResumeFailure(Status::Busy("still"), 1100);
  EXPECT_FALSE(h.ShouldAttemptResume(1250));
  EXPECT_TRUE(h.ShouldAttemptResume(1300));

  // Failure 3 exhausts the budget: read-only, auto probes stop, manual
  // Resume() remains possible.
  h.OnResumeAttempt();
  h.OnResumeFailure(Status::Busy("still"), 1300);
  EXPECT_EQ(h.health(), DbHealth::kReadOnly);
  EXPECT_FALSE(h.ShouldAttemptResume(1'000'000));
  EXPECT_TRUE(h.CanResume());
  EXPECT_TRUE(h.CheckWriteAllowed().IsUnavailable());
  EXPECT_EQ(h.counters().consecutive_resume_failures, 3u);

  // A manual resume that succeeds recovers even from read-only.
  h.OnResumeAttempt();
  h.OnResumeSuccess();
  EXPECT_EQ(h.health(), DbHealth::kHealthy);
  EXPECT_TRUE(h.CheckWriteAllowed().ok());
}

// -- fsync-failure discipline (WAL rotation) ---------------------------------

// One single-sample log record per seq: ts = seq * 250, value = seq.
core::WalBatch SampleRecord(uint64_t id, uint64_t seq) {
  const int64_t ts = static_cast<int64_t>(seq) * 250;
  const double value = 1.0 * static_cast<double>(seq);
  core::WalBatch batch;
  batch.AddSampleRun(id, seq, &ts, &value, 1);
  return batch;
}

TEST(WalRotationTest, FsyncFailurePoisonsThenRotationPreservesUnsyncedTail) {
  const std::string ws = "/tmp/timeunion_test/error_recovery_wal";
  RemoveDirRecursive(ws);
  auto fi = std::make_shared<FaultInjector>(7);
  cloud::TierSimOptions sim = cloud::TierSimOptions::Instant();
  sim.fault = fi;
  cloud::BlockStore store(ws, sim);

  core::WalLog empty;
  ASSERT_TRUE(core::WalLog::Load(&store, "wal", &empty).ok());
  core::WalWriter writer(&store, "wal");
  ASSERT_TRUE(writer.Open(empty).ok());

  // Records 0..9: appended AND synced — the durable prefix.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(1, i)).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());

  // Records 10..14: appended but not yet synced when the disk fills.
  for (uint64_t i = 10; i < 15; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(1, i)).ok());
  }
  fi->AddRule(FaultRule::NoSpace(FaultOpMask(FaultOp::kSync), "wal/",
                                 /*release_after_fires=*/1));
  Status s = writer.Sync();
  ASSERT_FALSE(s.ok()) << "injected fsync failure must surface";
  ASSERT_FALSE(writer.poison().ok());

  // fsyncgate: the poisoned writer fails everything fast — no retrying the
  // sync, no appending past a possibly-partial frame, no flush marks.
  EXPECT_FALSE(writer.Append(SampleRecord(1, 99)).ok());
  EXPECT_FALSE(writer.Sync().ok());
  EXPECT_FALSE(writer.AppendMarks({{1, 3}}).ok());

  // Rotation rebuilds only the active segment, from its synced prefix + the
  // in-memory tail, and starts a fresh one that keeps accepting records.
  ASSERT_TRUE(writer.Rotate().ok());
  EXPECT_TRUE(writer.poison().ok());
  for (uint64_t i = 15; i < 20; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(1, i)).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());

  // Replay parity: every record framed before the failure survived the
  // rotation — including the unsynced 10..14 tail — in order, clean EOF.
  core::WalLog log;
  ASSERT_TRUE(core::WalLog::Load(&store, "wal", &log).ok());
  std::vector<core::WalRecord> records;
  ASSERT_TRUE(log.ForEachRecord([&](const core::WalRecord& r) {
                   records.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(records.size(), 20u);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(records[i].seq, i);
    ASSERT_EQ(records[i].timestamps.size(), 1u);
    EXPECT_EQ(records[i].timestamps[0], static_cast<int64_t>(i) * 250);
  }
  EXPECT_TRUE(log.stats().Clean());
  EXPECT_TRUE(log.stats().clean_eof);

  RemoveDirRecursive(ws);
}

// -- ENOSPC drill -------------------------------------------------------------

core::DBOptions DrillOptions(const std::string& ws) {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 4 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;
  return opts;
}

// A flush mark that cannot be appended is a WAL append failure like any
// other: it poisons the log, so it must reach the error handler (quiesce,
// then auto-resume by rotation) instead of being dropped by the flush hook.
TEST(WalMarkFailureTest, FailedMarkAppendReachesErrorHandler) {
  const std::string ws = "/tmp/timeunion_test/error_recovery_mark";
  RemoveDirRecursive(ws);
  auto fi = std::make_shared<FaultInjector>(11);
  core::DBOptions opts = DrillOptions(ws);
  opts.env_options.fast_sim.fault = fi;
  opts.lsm.memtable_bytes = 1 << 20;  // nothing flushes before Flush()
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  uint64_t ref = 0;
  ASSERT_TRUE(db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref).ok());
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(db->InsertFast(ref, i * 250LL, 1.0 * i).ok());
  }
  // The log's disk fills; the LSM's does not. Flush's tables land, and the
  // only WAL append it makes is the memtable's mark record.
  fi->AddRule(FaultRule::NoSpace(FaultOpMask(FaultOp::kAppend), "wal/"));
  EXPECT_FALSE(db->Flush().ok());
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_GE(snap.CounterOr0("error_handler.errors_by_scope.wal_append"), 1u);
  EXPECT_EQ(db->Health(), DbHealth::kDegradedWrites);
  EXPECT_TRUE(db->InsertFast(ref, 50 * 250LL, 50.0).IsResourceExhausted());

  // Space returns: the resume probe rotates the log and writes flow again.
  ASSERT_GT(fi->ReleaseNoSpace(), 0u);
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_EQ(db->Health(), DbHealth::kHealthy);
  ASSERT_TRUE(db->InsertFast(ref, 50 * 250LL, 50.0).ok());
  db.reset();
  RemoveDirRecursive(ws);
}

// Fast-tier tables are fdatasync'ed only when a persisted manifest can
// reach them after a reopen, which the WAL turns on. A sync fault on the
// table files therefore fails the flush with the WAL and is never hit
// without it.
TEST(TableSyncTest, TablesSyncOnlyUnderPersistedManifest) {
  for (const bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    const std::string ws = "/tmp/timeunion_test/table_sync";
    RemoveDirRecursive(ws);
    auto fi = std::make_shared<FaultInjector>(17);
    core::DBOptions opts = DrillOptions(ws);
    opts.enable_wal = wal;
    opts.env_options.fast_sim.fault = fi;
    opts.lsm.memtable_bytes = 1 << 20;  // nothing flushes before Flush()
    std::unique_ptr<core::TimeUnionDB> db;
    ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
    uint64_t ref = 0;
    ASSERT_TRUE(db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref).ok());
    for (int i = 1; i < 50; ++i) {
      ASSERT_TRUE(db->InsertFast(ref, i * 250LL, 1.0 * i).ok());
    }
    // Table files are "lsm/<8-digit id>.sst"; the manifest is not matched.
    fi->AddRule(FaultRule::NoSpace(FaultOpMask(FaultOp::kSync), "lsm/0"));
    const Status s = db->Flush();
    if (wal) {
      EXPECT_FALSE(s.ok());
      EXPECT_GE(fi->faults_injected(), 1u);
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(fi->faults_injected(), 0u);
      const lsm::TimePartitionedLsm* tree = db->time_lsm();
      EXPECT_GT(tree->NumL0Partitions() + tree->NumL1Partitions() +
                    tree->NumL2Partitions(),
                0u);
    }
    db.reset();
    RemoveDirRecursive(ws);
  }
}

TEST(EnospcDrillTest, QuiesceServeReadsReleaseThenAutoResume) {
  const std::string ws = "/tmp/timeunion_test/enospc_drill";
  const std::string control_ws = ws + "_control";
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);
  constexpr int64_t kStepMs = 250;

  // Control: identical acked workload, never a fault.
  std::unique_ptr<core::TimeUnionDB> control;
  ASSERT_TRUE(
      core::TimeUnionDB::Open(DrillOptions(control_ws), &control).ok());

  auto fi = std::make_shared<FaultInjector>(13);
  core::DBOptions opts = DrillOptions(ws);
  opts.env_options.fast_sim.fault = fi;
  opts.lsm.background_flush = true;
  opts.background_maintenance = true;
  opts.maintenance_interval_ms = 10;
  opts.error_handler.resume_backoff_initial_ms = 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

  uint64_t ref = 0, control_ref = 0;
  ASSERT_TRUE(db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref).ok());
  ASSERT_TRUE(control->Insert({{"metric", "cpu"}}, 0, 0.0, &control_ref).ok());
  int acked = 1;  // samples [0, acked) are in both DBs

  // Phase 1 (healthy): several memtables' worth reaches the fast tier.
  for (; acked < 400; ++acked) {
    ASSERT_TRUE(db->InsertFast(ref, acked * kStepMs, 1.0 * acked).ok());
    ASSERT_TRUE(
        control->InsertFast(control_ref, acked * kStepMs, 1.0 * acked).ok());
  }

  // Phase 2: the fast tier's disk fills. Background flushes start failing;
  // the error handler must quiesce appends (fail-fast, no pile-up).
  fi->AddRule(FaultRule::NoSpace(FaultOp::kAppend | FaultOp::kSync, "lsm/"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  Status quiesced;
  while (quiesced.ok() && acked < 100'000 &&
         std::chrono::steady_clock::now() < deadline) {
    Status s = db->InsertFast(ref, acked * kStepMs, 1.0 * acked);
    if (!s.ok()) {
      quiesced = s;
      break;
    }
    ASSERT_TRUE(
        control->InsertFast(control_ref, acked * kStepMs, 1.0 * acked).ok());
    ++acked;
  }
  ASSERT_FALSE(quiesced.ok()) << "disk-full never quiesced the write path";
  EXPECT_TRUE(quiesced.IsResourceExhausted()) << quiesced.ToString();
  EXPECT_EQ(db->Health(), DbHealth::kDegradedWrites);

  // Reads keep serving the full acked history while writes are quiesced.
  const auto matcher = index::TagMatcher::Equal("metric", "cpu");
  {
    core::QueryResult degraded, reference;
    ASSERT_TRUE(db->Query(query::ReadRequest::Range({matcher}, 0,
                                                    acked * kStepMs),
                          &degraded).ok());
    ASSERT_TRUE(
        control->Query(query::ReadRequest::Range({matcher}, 0, acked * kStepMs),
                       &reference).ok());
    ASSERT_EQ(degraded.size(), 1u);
    ASSERT_EQ(reference.size(), 1u);
    ASSERT_EQ(degraded[0].samples.size(), reference[0].samples.size());
  }

  // The degradation is fully observable from one snapshot.
  {
    const obs::MetricsSnapshot snap = db->Metrics();
    const std::string* health = snap.FindString("db.health");
    ASSERT_NE(health, nullptr);
    EXPECT_EQ(*health, "degraded_writes");
    const std::string* err = snap.FindString("db.last_background_error");
    ASSERT_NE(err, nullptr);
    EXPECT_NE(err->find("disk full"), std::string::npos) << *err;
    EXPECT_GT(snap.CounterOr0("error_handler.errors_soft"), 0u);
    EXPECT_GT(snap.GaugeOr0("db.health_state"), 0);
  }

  // Phase 3: space is released. The maintenance tick's resume probe
  // retries the retained flush work and reopens the write path — no
  // reopen, no manual intervention.
  ASSERT_GT(fi->ReleaseNoSpace(), 0u);
  while (db->Health() != DbHealth::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(db->Health(), DbHealth::kHealthy) << "auto-resume never fired";
  {
    const obs::MetricsSnapshot health = db->Metrics();
    EXPECT_GT(health.CounterOr0("error_handler.resume_attempts"), 0u);
    EXPECT_GT(health.CounterOr0("error_handler.resumes_succeeded"), 0u);
    EXPECT_EQ(*health.FindString("db.last_background_error"), "OK");
  }

  // Phase 4: ingest continues where it left off; both DBs flush and must
  // be byte-identical over the whole history.
  const int total = acked + 300;
  for (; acked < total; ++acked) {
    ASSERT_TRUE(db->InsertFast(ref, acked * kStepMs, 1.0 * acked).ok());
    ASSERT_TRUE(
        control->InsertFast(control_ref, acked * kStepMs, 1.0 * acked).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(control->Flush().ok());

  core::QueryResult got, want;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range({matcher}, 0,
                                                  total * kStepMs), &got).ok());
  ASSERT_TRUE(control->Query(
      query::ReadRequest::Range({matcher}, 0, total * kStepMs), &want).ok());
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(got[0].samples.size(), want[0].samples.size());
  for (size_t i = 0; i < got[0].samples.size(); ++i) {
    ASSERT_EQ(got[0].samples[i].timestamp, want[0].samples[i].timestamp)
        << "sample " << i;
    uint64_t gb, wb;
    std::memcpy(&gb, &got[0].samples[i].value, sizeof(gb));
    std::memcpy(&wb, &want[0].samples[i].value, sizeof(wb));
    ASSERT_EQ(gb, wb) << "sample " << i;
  }

  db.reset();
  control.reset();
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);
}

// -- Crash while degraded -----------------------------------------------------

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

constexpr int64_t kCrashStepMs = 250;

// Child: ingest with per-sample WAL sync + ack; fill the disk mid-stream;
// once the write path quiesces, die hard — the process never gets to clean
// up its degraded state.
[[noreturn]] void DegradedCrashChild(const std::string& ws) {
  auto fi = std::make_shared<FaultInjector>(3);
  core::DBOptions opts = DrillOptions(ws);
  opts.env_options.fast_sim.fault = fi;
  opts.lsm.background_flush = true;

  std::unique_ptr<core::TimeUnionDB> db;
  if (!core::TimeUnionDB::Open(opts, &db).ok()) std::_Exit(81);
  uint64_t ref = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int i = 0; i < 100'000; ++i) {
    if (std::chrono::steady_clock::now() >= deadline) std::_Exit(82);
    Status s = (i == 0) ? db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref)
                        : db->InsertFast(ref, i * kCrashStepMs, 1.0 * i);
    if (!s.ok()) {
      // Quiesced. The WAL holds every acked sample; die without teardown.
      if (!s.IsResourceExhausted()) std::_Exit(87);
      if (db->Health() != DbHealth::kDegradedWrites) std::_Exit(88);
      std::_Exit(cloud::kFaultCrashExitCode);
    }
    if (!db->SyncWal().ok()) std::_Exit(83);
    WriteAck(ws, i + 1);
    if (i == 200) {
      fi->AddRule(
          FaultRule::NoSpace(FaultOp::kAppend | FaultOp::kSync, "lsm/"));
    }
  }
  std::_Exit(84);  // never quiesced
}

TEST(CrashWhileDegradedTest, AckedSamplesSurviveCrashDuringQuiesce) {
  const std::string ws = "/tmp/timeunion_test/crash_degraded";
  RemoveDirRecursive(ws);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) DegradedCrashChild(ws);  // never returns

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), cloud::kFaultCrashExitCode)
      << "child exited " << WEXITSTATUS(wstatus)
      << " (8x = workload error, see DegradedCrashChild)";

  const int acked = ReadAck(ws);
  ASSERT_GT(acked, 200) << "crash must happen after the disk filled";

  // Reopen on a healthy disk: WAL replay + recovery sweep must restore
  // every acknowledged sample, despite the crash landing mid-quiesce with
  // retained memtables and possibly half-written .tmp tables.
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(DrillOptions(ws), &db).ok());
  EXPECT_EQ(db->Health(), DbHealth::kHealthy);

  core::QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "cpu")}, 0, 100'000 * kCrashStepMs),
                        &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  std::map<int64_t, double> samples;
  for (const auto& s : result[0].samples) samples[s.timestamp] = s.value;
  for (int i = 0; i < acked; ++i) {
    auto it = samples.find(i * kCrashStepMs);
    ASSERT_NE(it, samples.end()) << "acked sample " << i << "/" << acked
                                 << " lost";
    EXPECT_EQ(it->second, 1.0 * i) << "sample " << i;
  }

  // Second reopen: the first recovery left nothing dangling.
  db.reset();
  ASSERT_TRUE(core::TimeUnionDB::Open(DrillOptions(ws), &db).ok());
  EXPECT_EQ(db->recovery_report().tables_quarantined, 0u);
  EXPECT_EQ(db->recovery_report().orphans_swept, 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
