// Silent-corruption defense suite (`ctest -L integrity`):
//   - Corruption-matrix: a planted bit flip in a block payload, block
//     trailer, table footer, manifest body or WAL record — on either tier —
//     is always detected, never silently served.
//   - Self-healing reads: a transient on-read flip is detected, the block
//     re-read, and the query answers correctly; a 1% on-read flip drill
//     byte-matches an uninjected control modulo flagged missing_ranges.
//   - Background scrub: at-rest corruption is found by a full pass,
//     repaired where a healthy second copy exists, quarantined otherwise;
//     budgeted increments resume from a persisted cursor.
//   - Upload verification: a write-side flip on the L2 upload path is
//     caught by the read-back CRC (Status::Corruption) and healed by the
//     retry re-putting the source bytes.
//   - Fast-open verification: a flipped byte in a fast-tier table fails
//     the whole-file CRC when its reader opens, and the table is
//     quarantined (a partial read) or the query fails (a strict read).
//   - Deterministic corruption-fuzz smoke: seeded random single-byte flips
//     across a table file are all detected by the scrub.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cloud/fault_injector.h"
#include "cloud/tiered_env.h"
#include "core/scrub.h"
#include "core/timeunion_db.h"
#include "lsm/key_format.h"
#include "lsm/memtable.h"
#include "lsm/table_format.h"
#include "lsm/table_reader.h"
#include "util/interval_set.h"
#include "util/mmap_file.h"

namespace tu {
namespace {

using cloud::FaultInjector;
using cloud::FaultOp;
using cloud::FaultRule;
using lsm::TimePartitionedLsm;
using ScrubOutcome = TimePartitionedLsm::ScrubOutcome;

// -- Manifest envelope -------------------------------------------------------

TEST(ManifestEnvelopeTest, RoundTripsPayload) {
  const std::string payload = "level manifest bytes";
  const std::string wrapped = lsm::WrapManifest(payload);
  EXPECT_EQ(wrapped.size(), payload.size() + lsm::kManifestEnvelopeBytes);
  Slice out;
  ASSERT_TRUE(lsm::UnwrapManifest(wrapped, &out).ok());
  EXPECT_EQ(out.ToString(), payload);
}

TEST(ManifestEnvelopeTest, DistinguishesTornFromCorrupt) {
  const std::string wrapped = lsm::WrapManifest("the payload");
  Slice out;

  // Torn write: a prefix of the file. Reported as "torn", not "corrupt".
  for (size_t keep : {size_t{0}, size_t{5}, wrapped.size() - 1}) {
    Status s = lsm::UnwrapManifest(wrapped.substr(0, keep), &out);
    ASSERT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("torn"), std::string::npos) << keep;
  }

  // Silent flip in the payload: checksum mismatch.
  std::string flipped = wrapped;
  flipped[lsm::kManifestEnvelopeBytes - 4] ^= 0x01;  // payload byte 0
  Status s = lsm::UnwrapManifest(flipped, &out);
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos);

  // Wrong magic: not a manifest at all.
  std::string bad_magic = wrapped;
  bad_magic[0] ^= 0xff;
  s = lsm::UnwrapManifest(bad_magic, &out);
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("magic"), std::string::npos);
}

// -- Shared workload ---------------------------------------------------------

// Tiny-partition workload: data lands in L0/L1 (fast tier) and L2 (slow
// tier), with whole-file CRCs in a persisted manifest.
core::DBOptions IntegrityWorkloadOptions(const std::string& ws) {
  core::DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;
  opts.lsm.persist_manifest = true;
  return opts;
}

constexpr int kSamples = 2000;
constexpr int64_t kStepMs = 250;

void IngestWorkload(core::TimeUnionDB* db) {
  uint64_t ref = 0;
  ASSERT_TRUE(db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref).ok());
  for (int i = 1; i < kSamples; ++i) {
    ASSERT_TRUE(db->InsertFast(ref, i * kStepMs, 1.0 * i).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GT(db->time_lsm()->NumL2Partitions(), 0u);
}

core::QueryResult QueryAll(core::TimeUnionDB* db) {
  core::QueryResult result;
  Status s = db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "cpu")}, 0, kSamples * kStepMs),
                       &result);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return result;
}

// Returned samples must byte-match the control; control samples absent
// from `got` must lie inside got's flagged missing_ranges.
void ExpectMatchesControlModuloMissing(const core::QueryResult& got,
                                       const core::QueryResult& control) {
  ASSERT_EQ(control.size(), 1u);
  ASSERT_EQ(got.size(), 1u);
  std::map<int64_t, double> have;
  for (const auto& s : got.series[0].samples) have[s.timestamp] = s.value;
  for (const auto& s : control.series[0].samples) {
    auto it = have.find(s.timestamp);
    if (it != have.end()) {
      EXPECT_EQ(it->second, s.value) << "ts " << s.timestamp;
    } else {
      EXPECT_FALSE(got.complete);
      EXPECT_TRUE(util::IntervalsContain(got.missing_ranges, s.timestamp))
          << "lost sample at ts " << s.timestamp
          << " not covered by missing_ranges";
    }
  }
  EXPECT_LE(got.series[0].samples.size(), control.series[0].samples.size());
}

// -- Corruption matrix: every structural region, both tiers ------------------

TEST(CorruptionMatrixTest, PlantedFlipsDetectedInEveryRegionOnBothTiers) {
  const std::string ws = "/tmp/timeunion_test/integrity_matrix";
  RemoveDirRecursive(ws);
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &db).ok());
  IngestWorkload(db.get());

  TimePartitionedLsm* tree = db->time_lsm();
  const auto tables = tree->ListTables();
  const TimePartitionedLsm::TableListEntry* fast_table = nullptr;
  const TimePartitionedLsm::TableListEntry* slow_table = nullptr;
  for (const auto& t : tables) {
    if (t.on_slow && slow_table == nullptr) slow_table = &t;
    if (!t.on_slow && fast_table == nullptr) fast_table = &t;
  }
  ASSERT_NE(fast_table, nullptr);
  ASSERT_NE(slow_table, nullptr);

  // Region offsets within a table file: first data block payload, the last
  // block's trailer area, and the fixed-size footer.
  auto region_offsets = [](uint64_t file_size) {
    return std::vector<uint64_t>{
        10,                                                  // block payload
        file_size - lsm::kFooterSize - lsm::kBlockTrailerSize + 1,  // trailer
        file_size - 8,                                       // footer
    };
  };

  // Fast tier: corrupt, scrub detects (detect-only), un-corrupt (XOR twice
  // restores), scrub verifies clean again.
  for (uint64_t off : region_offsets(fast_table->file_size)) {
    const std::string fname = "lsm/" + lsm::TableFileName(fast_table->table_id);
    ASSERT_TRUE(db->env().fast().CorruptFileAtRest(fname, off).ok());
    ScrubOutcome outcome;
    std::string detail;
    ASSERT_TRUE(tree->ScrubOneTable(fast_table->table_id, /*repair=*/false,
                                    &outcome, &detail)
                    .ok());
    EXPECT_EQ(outcome, ScrubOutcome::kCorrupt) << "offset " << off;
    ASSERT_TRUE(db->env().fast().CorruptFileAtRest(fname, off).ok());
    ASSERT_TRUE(tree->ScrubOneTable(fast_table->table_id, /*repair=*/false,
                                    &outcome, &detail)
                    .ok());
    EXPECT_EQ(outcome, ScrubOutcome::kClean) << "offset " << off;
  }

  // Slow tier: same matrix through the object store.
  for (uint64_t off : region_offsets(slow_table->file_size)) {
    const std::string key = "lsm/" + lsm::TableFileName(slow_table->table_id);
    ASSERT_TRUE(db->env().slow().CorruptObjectAtRest(key, off).ok());
    ScrubOutcome outcome;
    std::string detail;
    ASSERT_TRUE(tree->ScrubOneTable(slow_table->table_id, /*repair=*/false,
                                    &outcome, &detail)
                    .ok());
    EXPECT_EQ(outcome, ScrubOutcome::kCorrupt) << "offset " << off;
    ASSERT_TRUE(db->env().slow().CorruptObjectAtRest(key, off).ok());
    ASSERT_TRUE(tree->ScrubOneTable(slow_table->table_id, /*repair=*/false,
                                    &outcome, &detail)
                    .ok());
    EXPECT_EQ(outcome, ScrubOutcome::kClean) << "offset " << off;
  }

  db.reset();
  RemoveDirRecursive(ws);
}

TEST(CorruptionMatrixTest, CorruptManifestBodyFailsReopenAsCorruption) {
  const std::string ws = "/tmp/timeunion_test/integrity_manifest";
  RemoveDirRecursive(ws);
  {
    std::unique_ptr<core::TimeUnionDB> db;
    ASSERT_TRUE(
        core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &db).ok());
    IngestWorkload(db.get());
  }
  // Flip one byte inside the manifest payload (past the envelope header).
  cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
  ASSERT_TRUE(
      env.fast()
          .CorruptFileAtRest("lsm/MANIFEST", lsm::kManifestEnvelopeBytes + 3)
          .ok());

  std::unique_ptr<core::TimeUnionDB> reopened;
  Status s = core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &reopened);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("manifest"), std::string::npos);
  RemoveDirRecursive(ws);
}

TEST(CorruptionMatrixTest, CorruptWalRecordDetectedAndPrefixSalvaged) {
  const std::string ws = "/tmp/timeunion_test/integrity_wal";
  RemoveDirRecursive(ws);
  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  opts.enable_wal = true;
  {
    std::unique_ptr<core::TimeUnionDB> db;
    ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
    uint64_t ref = 0;
    ASSERT_TRUE(db->Insert({{"metric", "cpu"}}, 0, 0.0, &ref).ok());
    for (int i = 1; i < 200; ++i) {
      ASSERT_TRUE(db->InsertFast(ref, i * kStepMs, 1.0 * i).ok());
    }
    ASSERT_TRUE(db->SyncWal().ok());
    // No Flush: every sample lives only in the WAL.
  }
  // The 200 single-sample records fill one segment; flip a byte mid-way.
  cloud::TieredEnv env(ws, cloud::TieredEnvOptions::Instant());
  std::vector<std::string> names;
  ASSERT_TRUE(env.fast().ListDir("wal", &names).ok());
  std::string segment;
  for (const std::string& n : names) {
    if (n.size() > 4 && n.compare(n.size() - 4, 4, ".seg") == 0) {
      ASSERT_TRUE(segment.empty()) << "expected one segment";
      segment = "wal/" + n;
    }
  }
  ASSERT_FALSE(segment.empty());
  uint64_t wal_size = 0;
  ASSERT_TRUE(env.fast().GetFileSize(segment, &wal_size).ok());
  ASSERT_TRUE(env.fast().CorruptFileAtRest(segment, wal_size / 2).ok());

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  const core::WalReplayStats& wal = db->recovery_report().wal;
  EXPECT_NE(wal.corruption_offset, core::WalReplayStats::kNoCorruption);
  EXPECT_EQ(wal.corruption_file, segment);
  EXPECT_GT(wal.records_applied, 0u);
  EXPECT_LT(wal.records_applied, 200u);  // the tail was not trusted
  EXPECT_GT(wal.records_dropped, 0u);

  core::QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
      {index::TagMatcher::Equal("metric", "cpu")}, 0, 200 * kStepMs), &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  // The salvaged prefix is intact and in order.
  for (size_t i = 0; i < result[0].samples.size(); ++i) {
    EXPECT_EQ(result[0].samples[i].timestamp, static_cast<int64_t>(i) * kStepMs);
    EXPECT_EQ(result[0].samples[i].value, 1.0 * static_cast<double>(i));
  }
  db.reset();
  RemoveDirRecursive(ws);
}

// -- Self-healing reads ------------------------------------------------------

TEST(SelfHealingReadTest, TransientOnReadFlipHealedByCacheBypassingReread) {
  const std::string ws = "/tmp/timeunion_test/integrity_selfheal";
  RemoveDirRecursive(ws);
  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  opts.block_cache_bytes = 0;  // every query re-reads blocks from the tier
  auto fi = std::make_shared<FaultInjector>(17);
  opts.env_options.fast_sim.fault = fi;

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  IngestWorkload(db.get());

  const core::QueryResult control = QueryAll(db.get());
  ASSERT_EQ(control.size(), 1u);
  ASSERT_EQ(control[0].samples.size(), static_cast<size_t>(kSamples));

  // Arm exactly one read-side flip on the next fast-tier table read. The
  // readers are already open (the control query above), so it lands on a
  // data block; the block CRC catches it and the re-read serves clean
  // bytes — the query must not notice.
  FaultRule flip = FaultRule::BitFlipRead(1.0, "lsm/");
  flip.max_fires = 1;
  fi->AddRule(flip);

  const core::QueryResult healed = QueryAll(db.get());
  EXPECT_TRUE(healed.complete);
  ASSERT_EQ(healed.size(), 1u);
  ASSERT_EQ(healed[0].samples.size(), control[0].samples.size());
  for (size_t i = 0; i < control[0].samples.size(); ++i) {
    EXPECT_EQ(healed[0].samples[i].timestamp, control[0].samples[i].timestamp);
    EXPECT_EQ(healed[0].samples[i].value, control[0].samples[i].value);
  }

  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterOr0("integrity.read_corruptions_detected"), 1u);
  EXPECT_EQ(snap.CounterOr0("integrity.read_corruptions_healed"), 1u);
  db.reset();
  RemoveDirRecursive(ws);
}

TEST(SelfHealingReadTest, OnePercentOnReadFlipDrillMatchesControl) {
  const std::string ws = "/tmp/timeunion_test/integrity_drill";
  const std::string control_ws = ws + "_control";
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);

  std::unique_ptr<core::TimeUnionDB> control;
  ASSERT_TRUE(
      core::TimeUnionDB::Open(IntegrityWorkloadOptions(control_ws), &control)
          .ok());
  IngestWorkload(control.get());
  const core::QueryResult control_result = QueryAll(control.get());
  ASSERT_EQ(control_result[0].samples.size(), static_cast<size_t>(kSamples));

  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  opts.block_cache_bytes = 0;  // keep the tiers (and the injector) hot
  auto fast_fi = std::make_shared<FaultInjector>(23);
  auto slow_fi = std::make_shared<FaultInjector>(29);
  opts.env_options.fast_sim.fault = fast_fi;
  opts.env_options.slow_sim.fault = slow_fi;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  IngestWorkload(db.get());

  // 1% of every table read on either tier returns flipped bytes.
  fast_fi->AddRule(FaultRule::BitFlipRead(0.01, "lsm/"));
  slow_fi->AddRule(FaultRule::BitFlipRead(0.01, "lsm/"));

  for (int round = 0; round < 20; ++round) {
    const core::QueryResult got = QueryAll(db.get());
    ExpectMatchesControlModuloMissing(got, control_result);
  }
  // The drill exercised the defense, not a fault-free path.
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_GT(snap.CounterOr0("integrity.read_corruptions_detected"), 0u);
  EXPECT_GE(snap.CounterOr0("integrity.read_corruptions_detected"),
            snap.CounterOr0("integrity.read_corruptions_healed"));
  db.reset();
  control.reset();
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);
}

// -- Compaction read windows -------------------------------------------------

// Every table of the tree with its bytes, read straight from its tier.
std::map<uint64_t, std::string> TreeBytes(core::TimeUnionDB* db) {
  std::map<uint64_t, std::string> out;
  for (const auto& t : db->time_lsm()->ListTables()) {
    const std::string name = "lsm/" + lsm::TableFileName(t.table_id);
    std::string bytes;
    const Status s = t.on_slow
                         ? db->env().slow().GetObject(name, &bytes)
                         : db->env().fast().ReadFileToString(name, &bytes);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
    out[t.table_id] = std::move(bytes);
  }
  return out;
}

TEST(CompactionReadTest, InFlightFlipInReadWindowHealsToControlTree) {
  const std::string ws = "/tmp/timeunion_test/integrity_compaction_window";
  const std::string control_ws = ws + "_control";
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);

  std::unique_ptr<core::TimeUnionDB> control;
  ASSERT_TRUE(
      core::TimeUnionDB::Open(IntegrityWorkloadOptions(control_ws), &control)
          .ok());
  IngestWorkload(control.get());

  // Table 1 is the first L0 table; nothing reads it before the L0->L1
  // compaction that consumes it. That compaction's reader issues footer,
  // index and filter reads, then its first data window: flip the first
  // byte of that fourth read, the first data block's, in flight.
  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  auto fi = std::make_shared<FaultInjector>(41);
  FaultRule flip = FaultRule::BitFlipRead(0.0, "lsm/" + lsm::TableFileName(1),
                                          /*offset=*/0);
  flip.fail_nth = 4;
  fi->AddRule(flip);
  opts.env_options.fast_sim.fault = fi;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  IngestWorkload(db.get());

  // The flip was caught by a block CRC, and the block re-read alone came
  // back clean: no tier fallback, no quarantine.
  EXPECT_EQ(fi->faults_injected(), 1u);
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterOr0("integrity.read_corruptions_detected"), 1u);
  EXPECT_EQ(snap.CounterOr0("integrity.read_corruptions_healed"), 1u);
  EXPECT_EQ(db->time_lsm()->stats().tier_fallback_opens.load(), 0u);
  EXPECT_EQ(db->time_lsm()->stats().runtime_quarantines.load(), 0u);

  // The tree is the fault-free control's, byte for byte.
  const std::map<uint64_t, std::string> tree = TreeBytes(db.get());
  const std::map<uint64_t, std::string> control_tree =
      TreeBytes(control.get());
  ASSERT_EQ(tree.size(), control_tree.size());
  for (const auto& [id, bytes] : control_tree) {
    const auto it = tree.find(id);
    ASSERT_NE(it, tree.end()) << "table " << id;
    EXPECT_TRUE(it->second == bytes) << "table " << id;
  }
  const core::QueryResult got = QueryAll(db.get());
  const core::QueryResult want = QueryAll(control.get());
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_TRUE(got[0].samples == want[0].samples);
  db.reset();
  control.reset();
  RemoveDirRecursive(ws);
  RemoveDirRecursive(control_ws);
}

// -- Background scrub --------------------------------------------------------

TEST(ScrubTest, AtRestCorruptionDetectedRepairedOrQuarantined) {
  const std::string ws = "/tmp/timeunion_test/integrity_scrub";
  RemoveDirRecursive(ws);
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &db).ok());
  IngestWorkload(db.get());
  const core::QueryResult control = QueryAll(db.get());

  TimePartitionedLsm* tree = db->time_lsm();
  const auto tables = tree->ListTables();
  const TimePartitionedLsm::TableListEntry* repairable = nullptr;
  const TimePartitionedLsm::TableListEntry* doomed = nullptr;
  for (const auto& t : tables) {
    if (!t.on_slow) continue;
    if (repairable == nullptr) {
      repairable = &t;
    } else if (doomed == nullptr) {
      doomed = &t;
    }
  }
  ASSERT_NE(repairable, nullptr);
  ASSERT_NE(doomed, nullptr);

  // Table 1: plant a healthy fast-tier duplicate (the state a crash leaves
  // between a deferred-upload drain's manifest flip and its fast-file
  // unlink), then rot the slow copy. The scrub must repair from it.
  const std::string repair_key =
      "lsm/" + lsm::TableFileName(repairable->table_id);
  std::string healthy;
  ASSERT_TRUE(db->env().slow().GetObject(repair_key, &healthy).ok());
  ASSERT_TRUE(db->env().fast().WriteStringToFile(repair_key, healthy).ok());
  ASSERT_TRUE(db->env().slow().CorruptObjectAtRest(repair_key, 7).ok());

  // Table 2: rot the only copy. The scrub must quarantine it.
  ASSERT_TRUE(db->env()
                  .slow()
                  .CorruptObjectAtRest(
                      "lsm/" + lsm::TableFileName(doomed->table_id), 7)
                  .ok());

  core::Scrubber::PassReport report;
  ASSERT_TRUE(db->ScrubNow(&report).ok());
  EXPECT_EQ(report.tables_scanned, tables.size());
  EXPECT_EQ(report.corruptions_found, 2u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_GT(report.bytes_verified, 0u);

  // Metrics/health agree with the pass report.
  const obs::MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterOr0("scrub.corruptions_found"), 2u);
  EXPECT_EQ(snap.CounterOr0("scrub.repaired"), 1u);
  EXPECT_EQ(snap.CounterOr0("scrub.quarantined"), 1u);
  EXPECT_EQ(snap.CounterOr0("scrub.passes"), 1u);

  // The repaired table serves byte-identical data; the quarantined one is
  // out of the manifest, so its span is flagged, never silently wrong.
  const core::QueryResult after = QueryAll(db.get());
  ExpectMatchesControlModuloMissing(after, control);
  EXPECT_FALSE(after.complete);

  // A second pass over the healed tree finds nothing new.
  core::Scrubber::PassReport second;
  ASSERT_TRUE(db->ScrubNow(&second).ok());
  EXPECT_EQ(second.corruptions_found, 0u);
  EXPECT_EQ(second.repaired, 0u);
  EXPECT_EQ(second.quarantined, 0u);

  db.reset();
  RemoveDirRecursive(ws);
}

TEST(ScrubTest, BudgetedTicksResumeFromPersistedCursor) {
  const std::string ws = "/tmp/timeunion_test/integrity_cursor";
  RemoveDirRecursive(ws);
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &db).ok());
  IngestWorkload(db.get());

  const size_t num_tables = db->time_lsm()->ListTables().size();
  ASSERT_GT(num_tables, 2u);

  // A 1-byte budget stops every tick after a single table.
  core::ScrubOptions sopts;
  sopts.bytes_per_tick = 1;
  core::Scrubber scrubber(db->time_lsm(), &db->env(), sopts,
                          &db->metrics_registry());
  obs::Counter* scanned = db->metrics_registry().counter("scrub.tables_scanned");
  obs::Counter* passes = db->metrics_registry().counter("scrub.passes");
  const uint64_t scanned0 = scanned->value();

  ASSERT_TRUE(scrubber.Tick().ok());
  EXPECT_EQ(scanned->value() - scanned0, 1u);
  EXPECT_EQ(passes->value(), 0u);
  // The cursor survived to disk, pointing past the scanned table.
  std::string cursor;
  ASSERT_TRUE(db->env().fast().ReadFileToString("SCRUB_CURSOR", &cursor).ok());
  EXPECT_FALSE(cursor.empty());
  EXPECT_NE(cursor, "0");

  // A fresh scrubber (a restart) resumes mid-pass instead of rescanning.
  core::Scrubber resumed(db->time_lsm(), &db->env(), sopts,
                         &db->metrics_registry());
  for (size_t i = 1; i < num_tables; ++i) {
    ASSERT_TRUE(resumed.Tick().ok());
  }
  EXPECT_EQ(scanned->value() - scanned0, num_tables);
  EXPECT_EQ(passes->value(), 1u);  // exactly one full pass, no rescans
  ASSERT_TRUE(db->env().fast().ReadFileToString("SCRUB_CURSOR", &cursor).ok());
  EXPECT_EQ(cursor, "0");

  db.reset();
  RemoveDirRecursive(ws);
}

TEST(ScrubTest, MaintenanceTickDrivesScrub) {
  const std::string ws = "/tmp/timeunion_test/integrity_bg";
  RemoveDirRecursive(ws);
  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  opts.scrub.enabled = true;
  opts.scrub.bytes_per_tick = 0;  // whole pass per tick
  opts.background_maintenance = true;
  opts.maintenance_interval_ms = 10;
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  IngestWorkload(db.get());

  // Corrupt the only copy of a slow table, then wait for the background
  // tick to find it.
  const auto tables = db->time_lsm()->ListTables();
  const TimePartitionedLsm::TableListEntry* victim = nullptr;
  for (const auto& t : tables) {
    if (t.on_slow) victim = &t;
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(db->env()
                  .slow()
                  .CorruptObjectAtRest(
                      "lsm/" + lsm::TableFileName(victim->table_id), 3)
                  .ok());
  obs::Counter* found =
      db->metrics_registry().counter("scrub.corruptions_found");
  for (int i = 0; i < 500 && found->value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(found->value(), 1u);
  EXPECT_EQ(db->metrics_registry().counter("scrub.quarantined")->value(), 1u);
  db.reset();
  RemoveDirRecursive(ws);
}

TEST(ScrubTest, LeveledBackendRejectsScrubConfig) {
  core::DBOptions opts;
  opts.workspace = "/tmp/timeunion_test/integrity_leveled";
  opts.backend = core::DBOptions::Backend::kLeveled;
  opts.scrub.enabled = true;
  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("scrub"), std::string::npos);
}

// -- Upload read-back verification -------------------------------------------

TEST(UploadVerifyTest, WriteSideFlipCaughtByCrcAndHealedByRetry) {
  const std::string ws = "/tmp/timeunion_test/integrity_upload";
  RemoveDirRecursive(ws);
  core::DBOptions opts = IntegrityWorkloadOptions(ws);
  opts.lsm.integrity.verify_upload = true;
  opts.env_options.slow_sim.retry.real_sleep = false;
  auto fi = std::make_shared<FaultInjector>(31);
  // The first L2 upload persists one flipped byte; the read-back CRC must
  // catch it (as Corruption, not Busy) and the retry re-put heals it.
  fi->AddRule(FaultRule::BitFlipWrite(1, "lsm/"));
  opts.env_options.slow_sim.fault = fi;

  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
  IngestWorkload(db.get());  // upload succeeds despite the flip

  const cloud::TierCounters& slow = db->env().slow().counters();
  EXPECT_GT(slow.faults_injected.load(), 0u);
  EXPECT_GT(slow.retries.load(), 0u);
  EXPECT_EQ(slow.retry_give_ups.load(), 0u);

  // Everything on the slow tier verifies clean end-to-end.
  core::Scrubber::PassReport report;
  ASSERT_TRUE(db->ScrubNow(&report).ok());
  EXPECT_EQ(report.corruptions_found, 0u);
  db.reset();
  RemoveDirRecursive(ws);
}

// -- Fast-tier open verification --------------------------------------------

TEST(FastOpenVerifyTest, AtRestFlipQuarantinesTableWhenItsReaderOpens) {
  for (const bool strict : {false, true}) {
    SCOPED_TRACE(strict ? "strict_reads" : "partial reads");
    const std::string ws = "/tmp/timeunion_test/integrity_fast_open";
    RemoveDirRecursive(ws);
    core::DBOptions opts = IntegrityWorkloadOptions(ws);
    opts.lsm.integrity.verify_fast_open = true;
    opts.strict_reads = strict;
    opts.enable_wal = true;  // the reopen recovers the series registry
    std::unique_ptr<core::TimeUnionDB> db;
    ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());
    IngestWorkload(db.get());
    const core::QueryResult control = QueryAll(db.get());

    // An L0/L1 table: the only copy lives on the fast tier.
    uint64_t victim = 0;
    for (const auto& t : db->time_lsm()->ListTables()) {
      if (!t.on_slow) {
        victim = t.table_id;
        break;
      }
    }
    ASSERT_NE(victim, 0u);
    const std::string fname = "lsm/" + lsm::TableFileName(victim);

    // The table's span: its first and last chunk start.
    int64_t first_ts = INT64_MAX;
    int64_t last_ts = INT64_MIN;
    {
      std::unique_ptr<lsm::TableSource> source;
      ASSERT_TRUE(
          lsm::FastTableSource::Open(&db->env().fast(), fname, &source).ok());
      std::unique_ptr<lsm::TableReader> reader;
      ASSERT_TRUE(lsm::TableReader::Open(lsm::TableReaderOptions{},
                                         std::move(source), &reader)
                      .ok());
      auto it = reader->NewIterator();
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        const int64_t ts =
            lsm::ChunkKeyTimestamp(lsm::InternalKeyUserKey(it->key()));
        first_ts = std::min(first_ts, ts);
        last_ts = std::max(last_ts, ts);
      }
      ASSERT_TRUE(it->status().ok());
    }
    ASSERT_LE(first_ts, last_ts);

    // Flip one byte of the first data block, then reopen so the next query
    // opens a fresh reader of the table.
    ASSERT_TRUE(db->env().fast().CorruptFileAtRest(fname, 10).ok());
    db.reset();
    ASSERT_TRUE(core::TimeUnionDB::Open(opts, &db).ok());

    core::QueryResult result;
    const Status s = db->Query(
        query::ReadRequest::Range({index::TagMatcher::Equal("metric", "cpu")},
                                  0, kSamples * kStepMs),
        &result);
    if (strict) {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_FALSE(result.complete);
      EXPECT_TRUE(util::IntervalsContain(result.missing_ranges, first_ts));
      EXPECT_TRUE(util::IntervalsContain(result.missing_ranges, last_ts));
      ExpectMatchesControlModuloMissing(result, control);
    }
    EXPECT_EQ(db->Metrics().CounterOr0("integrity.runtime_quarantines"), 1u);
    db.reset();
    RemoveDirRecursive(ws);
  }
}

// -- Deterministic corruption-fuzz smoke -------------------------------------

TEST(CorruptionFuzzTest, SeededSingleByteFlipsAlwaysDetected) {
  const std::string ws = "/tmp/timeunion_test/integrity_fuzz";
  RemoveDirRecursive(ws);
  std::unique_ptr<core::TimeUnionDB> db;
  ASSERT_TRUE(core::TimeUnionDB::Open(IntegrityWorkloadOptions(ws), &db).ok());
  IngestWorkload(db.get());

  TimePartitionedLsm* tree = db->time_lsm();
  const auto tables = tree->ListTables();
  const TimePartitionedLsm::TableListEntry* victim = nullptr;
  for (const auto& t : tables) {
    if (!t.on_slow) victim = &t;
  }
  ASSERT_NE(victim, nullptr);
  const std::string fname = "lsm/" + lsm::TableFileName(victim->table_id);

  std::mt19937_64 rng(0xf00dcafe);  // fixed seed: the fuzz is reproducible
  for (int round = 0; round < 24; ++round) {
    const uint64_t offset = rng() % victim->file_size;
    const uint8_t mask = static_cast<uint8_t>(1u << (rng() % 8));
    ASSERT_TRUE(db->env().fast().CorruptFileAtRest(fname, offset, mask).ok());
    ScrubOutcome outcome;
    std::string detail;
    ASSERT_TRUE(
        tree->ScrubOneTable(victim->table_id, /*repair=*/false, &outcome,
                            &detail)
            .ok());
    EXPECT_EQ(outcome, ScrubOutcome::kCorrupt)
        << "round " << round << " offset " << offset << " mask "
        << static_cast<int>(mask);
    // XOR is an involution: the same call restores the byte.
    ASSERT_TRUE(db->env().fast().CorruptFileAtRest(fname, offset, mask).ok());
  }
  ScrubOutcome outcome;
  std::string detail;
  ASSERT_TRUE(tree->ScrubOneTable(victim->table_id, /*repair=*/false, &outcome,
                                  &detail)
                  .ok());
  EXPECT_EQ(outcome, ScrubOutcome::kClean);
  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu
