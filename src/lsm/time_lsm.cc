#include "lsm/time_lsm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_set>

#include "cloud/fault_injector.h"
#include "lsm/chunk_merge.h"
#include "lsm/key_format.h"
#include "lsm/merging_iterator.h"
#include "query/aggregate.h"
#include "util/crc32c.h"
#include "util/memory_tracker.h"

namespace tu::lsm {

namespace {

/// Cap on merged chunk size during compaction ("merged into larger
/// key-value pairs", §3.3). Kept moderate: per-chunk overhead is what the
/// group model amortizes across members (Table 3).
constexpr uint32_t kMaxSamplesPerMergedChunk = 64;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TimePartitionedLsm::TimePartitionedLsm(cloud::TieredEnv* env, std::string name,
                                       TimeLsmOptions options,
                                       BlockCache* block_cache)
    : env_(env),
      name_(std::move(name)),
      options_(options),
      block_cache_(block_cache),
      l0_len_ms_(options.l0_partition_ms),
      l2_len_ms_(options.l2_partition_ms) {
  if (options_.metrics != nullptr) {
    h_memflush_us_ = options_.metrics->histogram("lsm.memflush_us");
    h_compact_l0_l1_us_ = options_.metrics->histogram("lsm.compact_l0_l1_us");
    h_compact_l1_l2_us_ = options_.metrics->histogram("lsm.compact_l1_l2_us");
    h_patch_merge_us_ = options_.metrics->histogram("lsm.patch_merge_us");
    h_table_build_us_ = options_.metrics->histogram("lsm.table_build_us");
    h_table_write_us_ = options_.metrics->histogram("lsm.table_write_us");
    h_merge_us_ = options_.metrics->histogram("lsm.merge_us");
    h_prefetch_wait_us_ = options_.metrics->histogram("query.prefetch_wait_us");
    trace_ = &options_.metrics->trace();
  }
  read_io_pool_ = std::make_unique<ThreadPool>(kReadIoThreads);
  deferred_deletes_ = std::make_shared<DeferredDeletes>(
      [this](uint64_t table_id) { (void)DeleteObject(table_id); });
}

TimePartitionedLsm::~TimePartitionedLsm() {
  // Cancel in-flight retry backoffs before waiting: a flush worker stuck
  // in RunWithRetry against a dead tier would otherwise hold WaitIdle for
  // the full backoff budget.
  shutting_down_.store(true, std::memory_order_release);
  if (flush_pool_) flush_pool_->WaitIdle();
  // In-flight block fetches use the tiers and the integrity counters.
  read_io_pool_.reset();
  deferred_deletes_->Close();
  if (mem_) {
    MemoryTracker::Global().Sub(
        MemCategory::kMemtable,
        static_cast<int64_t>(mem_->ApproximateMemoryUsage()));
  }
}

namespace {

/// Creates a memtable and registers its initial arena footprint, so the
/// full-usage Sub at flush time balances exactly.
std::shared_ptr<MemTable> NewTrackedMemTable() {
  auto mem = std::make_shared<MemTable>();
  MemoryTracker::Global().Add(
      MemCategory::kMemtable,
      static_cast<int64_t>(mem->ApproximateMemoryUsage()));
  return mem;
}

}  // namespace

Status TimePartitionedLsm::Open() {
  TU_RETURN_IF_ERROR(env_->fast().CreateDir(name_));
  mem_ = NewTrackedMemTable();
  if (options_.background_flush) {
    flush_pool_ = std::make_unique<ThreadPool>(1);
  }
  if (options_.persist_manifest) {
    TU_RETURN_IF_ERROR(LoadManifest());
    TU_RETURN_IF_ERROR(RecoverStorageState());
  }
  return Status::OK();
}

Status TimePartitionedLsm::RecoverStorageState() {
  std::lock_guard<std::mutex> lock(mu_);

  // Pass 1: verify every manifest-referenced table is present with the
  // recorded size; quarantine the rest. A quarantined L2 base leaves its
  // patches behind as standalone entries (they still carry valid data).
  //
  // Quarantine needs definitive evidence: a missing object (NotFound) or a
  // wrong size. A transient/tier-down probe error (Busy, IOError,
  // breaker-open Unavailable) proves nothing about the table — dropping
  // live L2 data because the store reopened during an outage would turn a
  // temporary failure into permanent loss, so such tables are kept
  // optimistically.
  enum class Verify { kOk, kBad, kUnknown };
  bool changed = false;
  auto verify = [&](const TableHandle& t, std::string* reason) -> Verify {
    uint64_t size = 0;
    Status s = t.on_slow
                   ? env_->slow().ObjectSize(SlowKey(t.meta.table_id), &size)
                   : env_->fast().GetFileSize(FastName(t.meta.table_id), &size);
    if (s.IsNotFound()) {
      *reason = s.ToString();
      return Verify::kBad;
    }
    if (!s.ok()) {
      std::fprintf(stderr,
                   "[time_lsm] cannot verify table %llu at open (%s); "
                   "keeping it: %s\n",
                   static_cast<unsigned long long>(t.meta.table_id),
                   t.on_slow ? "slow tier" : "fast tier",
                   s.ToString().c_str());
      return Verify::kUnknown;
    }
    if (size != t.meta.file_size) {
      *reason = "size " + std::to_string(size) + " != manifest " +
                std::to_string(t.meta.file_size);
      return Verify::kBad;
    }
    return Verify::kOk;
  };
  auto quarantine = [&](const TableHandle& t, std::string reason) {
    std::fprintf(stderr,
                 "[time_lsm] quarantining table %llu (%s tier): %s\n",
                 static_cast<unsigned long long>(t.meta.table_id),
                 t.on_slow ? "slow" : "fast", reason.c_str());
    quarantined_.push_back(QuarantinedTable{
        t.meta.table_id, t.on_slow, std::move(reason), t.meta.min_series_id,
        t.meta.max_series_id, t.meta.min_ts,
        DataBoundLocked(t.meta.table_id),
        /*is_rollup=*/t.meta.rollup_granularity_ms != 0});
    stats_.tables_quarantined.fetch_add(1, std::memory_order_relaxed);
    changed = true;
  };

  auto scrub_level = [&](std::vector<Partition>* level) {
    for (Partition& p : *level) {
      for (auto it = p.tables.begin(); it != p.tables.end();) {
        std::string reason;
        if (verify(*it, &reason) == Verify::kBad) {
          quarantine(*it, std::move(reason));
          it = p.tables.erase(it);
        } else {
          ++it;
        }
      }
    }
    std::erase_if(*level, [](const Partition& p) { return p.tables.empty(); });
  };
  scrub_level(&l0_);
  scrub_level(&l1_);

  for (L2Partition& p : l2_) {
    std::vector<L2Entry> kept;
    for (L2Entry& e : p.entries) {
      std::vector<TableHandle> patches = std::move(e.patches);
      e.patches.clear();
      std::string reason;
      const bool base_ok = verify(e.base, &reason) != Verify::kBad;
      if (!base_ok) quarantine(e.base, std::move(reason));
      for (TableHandle& t : patches) {
        std::string patch_reason;
        if (verify(t, &patch_reason) == Verify::kBad) {
          quarantine(t, std::move(patch_reason));
        } else if (base_ok) {
          e.patches.push_back(std::move(t));
        } else {
          // Base lost: promote the surviving patch to its own entry.
          L2Entry promoted;
          promoted.base = std::move(t);
          kept.push_back(std::move(promoted));
        }
      }
      if (base_ok) kept.push_back(std::move(e));
    }
    std::sort(kept.begin(), kept.end(), [](const L2Entry& a, const L2Entry& b) {
      return a.base.meta.min_series_id < b.base.meta.min_series_id;
    });
    p.entries = std::move(kept);
    // A lost rollup table costs no data — the raw path still has every
    // sample — so the partition just degrades aggregate reads to raw.
    for (auto it = p.rollups.begin(); it != p.rollups.end();) {
      std::string reason;
      if (verify(*it, &reason) == Verify::kBad) {
        quarantine(*it, std::move(reason));
        it = p.rollups.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::erase_if(l2_, [](const L2Partition& p) { return p.entries.empty(); });

  // Pass 2: sweep files neither tier should hold — `.tmp`/`.upload`
  // leftovers of interrupted uploads and table files the (authoritative)
  // manifest no longer references. The live sets are per tier: a deferred
  // L2 table is live on the FAST tier only, so a crash between a drain's
  // manifest flip and its fast-file unlink leaves a fast orphan this sweep
  // removes (and vice versa for a crash between upload and flip).
  std::unordered_set<uint64_t> live_fast;
  std::unordered_set<uint64_t> live_slow;
  auto mark_live = [&](const TableHandle& t) {
    (t.on_slow ? live_slow : live_fast).insert(t.meta.table_id);
  };
  for (const Partition& p : l0_) {
    for (const TableHandle& t : p.tables) mark_live(t);
  }
  for (const Partition& p : l1_) {
    for (const TableHandle& t : p.tables) mark_live(t);
  }
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      mark_live(e.base);
      for (const TableHandle& t : e.patches) mark_live(t);
    }
    for (const TableHandle& t : p.rollups) mark_live(t);
  }
  auto sweepable = [](const std::unordered_set<uint64_t>& live,
                      const std::string& name) {
    if (name.ends_with(".tmp") || name.ends_with(".upload")) return true;
    uint64_t id = 0;
    return ParseTableFileName(name, &id) && !live.contains(id);
  };

  std::vector<std::string> names;
  Status s = env_->fast().ListDir(name_, &names);
  if (s.ok()) {
    for (const std::string& name : names) {
      if (name == "MANIFEST" || !sweepable(live_fast, name)) continue;
      if (env_->fast().DeleteFile(name_ + "/" + name).ok()) {
        stats_.orphans_swept.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::vector<std::string> keys;
  s = env_->slow().ListObjects(name_ + "/", &keys);
  if (s.ok()) {
    for (const std::string& key : keys) {
      const std::string name = key.substr(name_.size() + 1);
      if (!sweepable(live_slow, name)) continue;
      if (env_->slow().DeleteObject(key).ok()) {
        stats_.orphans_swept.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (changed) return SaveManifest();
  return Status::OK();
}

Status TimePartitionedLsm::SaveManifest() {
  // Every manifest mutation passes through here (under mu_), so this is
  // the one place the admission gauge needs refreshing.
  UpdateFastResidentGaugeLocked();
  if (!options_.persist_manifest) return Status::OK();
  std::string out;
  PutVarint64(&out, next_table_id_);
  PutVarint64(&out, next_seq_);
  PutFixed64(&out, static_cast<uint64_t>(l0_len_ms_));
  PutFixed64(&out, static_cast<uint64_t>(l2_len_ms_));

  auto encode_level = [&out](const std::vector<Partition>& level) {
    PutVarint32(&out, static_cast<uint32_t>(level.size()));
    for (const Partition& p : level) {
      PutFixed64(&out, static_cast<uint64_t>(p.start));
      PutFixed64(&out, static_cast<uint64_t>(p.end));
      PutVarint32(&out, static_cast<uint32_t>(p.tables.size()));
      for (const TableHandle& t : p.tables) t.meta.EncodeTo(&out);
    }
  };
  encode_level(l0_);
  encode_level(l1_);
  // Each L2 table carries a flags varint (bit 0: on_slow). A deferred
  // table — parked on the fast tier during an outage — thus survives a
  // crash/reopen still marked deferred, which is the queue's persistence.
  auto encode_l2_table = [&out](const TableHandle& t) {
    t.meta.EncodeTo(&out);
    PutVarint32(&out, t.on_slow ? 1 : 0);
  };
  PutVarint32(&out, static_cast<uint32_t>(l2_.size()));
  for (const L2Partition& p : l2_) {
    PutFixed64(&out, static_cast<uint64_t>(p.start));
    PutFixed64(&out, static_cast<uint64_t>(p.end));
    PutVarint32(&out, static_cast<uint32_t>(p.entries.size()));
    for (const L2Entry& e : p.entries) {
      encode_l2_table(e.base);
      PutVarint32(&out, static_cast<uint32_t>(e.patches.size()));
      for (const TableHandle& t : e.patches) encode_l2_table(t);
    }
    // Rollup tables and their pending dirty spans persist with the
    // partition, so a reopen neither loses materialized aggregates nor
    // forgets which buckets a pre-crash rewrite invalidated.
    PutVarint32(&out, static_cast<uint32_t>(p.rollups.size()));
    for (const TableHandle& t : p.rollups) encode_l2_table(t);
    PutVarint32(&out, static_cast<uint32_t>(p.rollup_dirty.size()));
    for (const auto& [lo, hi] : p.rollup_dirty) {
      PutFixed64(&out, static_cast<uint64_t>(lo));
      PutFixed64(&out, static_cast<uint64_t>(hi));
    }
  }
  // The envelope (length + checksum) lets a reopen tell a torn manifest
  // write apart from silent at-rest corruption.
  return env_->fast().WriteStringToFile(name_ + "/MANIFEST",
                                        WrapManifest(out));
}

Status TimePartitionedLsm::LoadManifest() {
  std::string contents;
  Status s = env_->fast().ReadFileToString(name_ + "/MANIFEST", &contents);
  if (s.IsNotFound()) return Status::OK();
  TU_RETURN_IF_ERROR(s);
  Slice in;
  TU_RETURN_IF_ERROR(UnwrapManifest(contents, &in));
  auto corrupt = [] { return Status::Corruption("bad lsm manifest"); };
  uint64_t next_seq = 0;
  if (!GetVarint64(&in, &next_table_id_) || !GetVarint64(&in, &next_seq) ||
      in.size() < 16) {
    return corrupt();
  }
  next_seq_ = next_seq;
  l0_len_ms_ = static_cast<int64_t>(DecodeFixed64(in.data()));
  l2_len_ms_ = static_cast<int64_t>(DecodeFixed64(in.data() + 8));
  in.remove_prefix(16);

  auto decode_table = [&](TableHandle* t, bool on_slow) -> bool {
    if (!t->meta.DecodeFrom(&in)) return false;
    t->on_slow = on_slow;
    return true;
  };
  auto decode_l2_table = [&](TableHandle* t) -> bool {
    uint32_t flags = 0;
    if (!t->meta.DecodeFrom(&in) || !GetVarint32(&in, &flags)) return false;
    t->on_slow = (flags & 1) != 0;
    return true;
  };
  auto decode_level = [&](std::vector<Partition>* level) -> bool {
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return false;
    level->clear();
    for (uint32_t i = 0; i < n; ++i) {
      Partition p;
      if (in.size() < 16) return false;
      p.start = static_cast<int64_t>(DecodeFixed64(in.data()));
      p.end = static_cast<int64_t>(DecodeFixed64(in.data() + 8));
      in.remove_prefix(16);
      uint32_t tables = 0;
      if (!GetVarint32(&in, &tables)) return false;
      for (uint32_t j = 0; j < tables; ++j) {
        TableHandle t;
        if (!decode_table(&t, false)) return false;
        p.tables.push_back(std::move(t));
      }
      level->push_back(std::move(p));
    }
    return true;
  };
  if (!decode_level(&l0_) || !decode_level(&l1_)) return corrupt();
  uint32_t n2 = 0;
  if (!GetVarint32(&in, &n2)) return corrupt();
  l2_.clear();
  for (uint32_t i = 0; i < n2; ++i) {
    L2Partition p;
    if (in.size() < 16) return corrupt();
    p.start = static_cast<int64_t>(DecodeFixed64(in.data()));
    p.end = static_cast<int64_t>(DecodeFixed64(in.data() + 8));
    in.remove_prefix(16);
    uint32_t entries = 0;
    if (!GetVarint32(&in, &entries)) return corrupt();
    for (uint32_t j = 0; j < entries; ++j) {
      L2Entry e;
      if (!decode_l2_table(&e.base)) return corrupt();
      uint32_t patches = 0;
      if (!GetVarint32(&in, &patches)) return corrupt();
      for (uint32_t k = 0; k < patches; ++k) {
        TableHandle t;
        if (!decode_l2_table(&t)) return corrupt();
        e.patches.push_back(std::move(t));
      }
      p.entries.push_back(std::move(e));
    }
    uint32_t rollups = 0;
    if (!GetVarint32(&in, &rollups)) return corrupt();
    for (uint32_t j = 0; j < rollups; ++j) {
      TableHandle t;
      if (!decode_l2_table(&t)) return corrupt();
      p.rollups.push_back(std::move(t));
    }
    uint32_t dirty = 0;
    if (!GetVarint32(&in, &dirty)) return corrupt();
    for (uint32_t j = 0; j < dirty; ++j) {
      if (in.size() < 16) return corrupt();
      const int64_t lo = static_cast<int64_t>(DecodeFixed64(in.data()));
      const int64_t hi = static_cast<int64_t>(DecodeFixed64(in.data() + 8));
      in.remove_prefix(16);
      p.rollup_dirty.emplace_back(lo, hi);
    }
    l2_.push_back(std::move(p));
  }
  UpdateFastResidentGaugeLocked();
  return Status::OK();
}

std::string TimePartitionedLsm::FastName(uint64_t table_id) const {
  return name_ + "/" + TableFileName(table_id);
}

std::string TimePartitionedLsm::SlowKey(uint64_t table_id) const {
  return name_ + "/" + TableFileName(table_id);
}

Status TimePartitionedLsm::Put(const Slice& user_key, const Slice& value) {
  std::shared_ptr<MemTable> imm;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    const size_t before = mem_->ApproximateMemoryUsage();
    mem_->Add(next_seq_++, user_key, value);
    MemoryTracker::Global().Add(
        MemCategory::kMemtable,
        static_cast<int64_t>(mem_->ApproximateMemoryUsage() - before));
    if (mem_->ApproximateMemoryUsage() < options_.memtable_bytes) {
      return Status::OK();
    }
    // Memtable full: rotate. With background flushing the immutable joins
    // the queue (§3.3 "Immutable MemTable queue to allow multiple flushes")
    // and a worker drains it without blocking this writer.
    imm = mem_;
    mem_ = NewTrackedMemTable();
    immutables_.push_back(imm);
  }
  if (flush_pool_) {
    flush_pool_->Schedule([this] {
      std::shared_ptr<MemTable> target;
      {
        std::lock_guard<std::mutex> lock(mem_mu_);
        if (immutables_.empty()) return;
        target = immutables_.front();
      }
      Status fs, ms;
      {
        std::lock_guard<std::mutex> manifest_lock(mu_);
        fs = FlushQueuedLocked(target.get());
        if (fs.ok()) ms = MaybeMaintain();
      }
      // Background failures don't reach a caller; latch them (with the
      // stage that failed) so the DB's error handler and health report
      // see them.
      if (!fs.ok()) RecordBackgroundError(BgWorkKind::kFlush, fs);
      if (!ms.ok()) RecordBackgroundError(BgWorkKind::kCompaction, ms);
      // A failed flush RETAINS its memtable in the queue so the resume
      // probe (RetryBackgroundWork) can replay it from memory once the
      // environment heals — dropping it would lose acked data.
      if (fs.ok()) RetireQueued(target);
    });
    return Status::OK();
  }
  Status fs, ms;
  {
    std::lock_guard<std::mutex> manifest_lock(mu_);
    fs = FlushQueuedLocked(imm.get());
    if (fs.ok()) ms = MaybeMaintain();
  }
  // Same retained-input rule as the background worker.
  if (fs.ok()) RetireQueued(imm);
  return fs.ok() ? ms : fs;
}

Status TimePartitionedLsm::FlushQueuedLocked(MemTable* mem) {
  if (mem->installed()) return Status::OK();
  TU_RETURN_IF_ERROR(FlushMemTable(mem));
  mem->MarkInstalled();
  return Status::OK();
}

void TimePartitionedLsm::RetireQueued(const std::shared_ptr<MemTable>& mem) {
  std::lock_guard<std::mutex> lock(mem_mu_);
  auto it = std::find(immutables_.begin(), immutables_.end(), mem);
  if (it != immutables_.end()) immutables_.erase(it);
}

Status TimePartitionedLsm::FlushAll() {
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    if (!mem_->empty()) {
      immutables_.push_back(mem_);
      mem_ = NewTrackedMemTable();
    }
  }
  return RetryBackgroundWork();
}

Status TimePartitionedLsm::RetryBackgroundWork() {
  if (flush_pool_) flush_pool_->WaitIdle();
  // Replay the queued memtables oldest-first. Each stays in immutables_,
  // visible to readers, until its tables are installed: a read between
  // the two steps sees the data twice (deduped by seq), never zero times.
  // Re-flushing a memtable whose earlier attempt partially installed
  // tables is safe: entries keep the internal-key seq stamped at Put
  // time, so duplicates dedup to identical values at merge time.
  std::vector<std::shared_ptr<MemTable>> queued;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    queued.assign(immutables_.begin(), immutables_.end());
  }
  for (const std::shared_ptr<MemTable>& mem : queued) {
    {
      std::lock_guard<std::mutex> manifest_lock(mu_);
      TU_RETURN_IF_ERROR(FlushQueuedLocked(mem.get()));
    }
    RetireQueued(mem);
  }
  std::lock_guard<std::mutex> manifest_lock(mu_);
  return MaybeMaintain();
}

Status TimePartitionedLsm::WriteTable(
    const std::vector<std::pair<std::string, std::string>>& entries,
    bool to_slow, TableHandle* out) {
  const uint64_t table_id = next_table_id_++;
  const uint64_t build_start_us = NowUs();
  BufferTableSink sink;
  TableBuilder builder(options_.table_options, &sink);
  for (const auto& [key, value] : entries) builder.Add(key, value);
  builder.Finish(&out->meta);
  out->meta.table_id = table_id;
  if (h_table_build_us_ != nullptr) {
    h_table_build_us_->Observe(NowUs() - build_start_us);
  }
  const std::string& data = sink.buffer();
  if (to_slow) {
    Status up = UploadBufferToSlow(table_id, data, out->meta.object_crc32c);
    if (up.ok()) {
      stats_.slow_bytes_written.fetch_add(data.size(),
                                          std::memory_order_relaxed);
      out->on_slow = true;
      if (trace_ != nullptr) {
        trace_->Record("l2.upload",
                       "table=" + std::to_string(table_id) +
                           " bytes=" + std::to_string(data.size()));
      }
    } else if (up.IsUnavailable() || up.IsIOError() || up.IsBusy()) {
      // Slow tier unreachable (breaker open / retries exhausted): park the
      // table on the fast tier instead of failing the compaction. The
      // handle installs with on_slow=false, so queries read it
      // transparently and the manifest records the deferral — the drainer
      // uploads and flips it once the tier heals.
      TU_RETURN_IF_ERROR(WriteFastTable(table_id, data));
      stats_.deferred_tables_created.fetch_add(1, std::memory_order_relaxed);
      out->on_slow = false;
      if (trace_ != nullptr) {
        trace_->Record("l2.upload.deferred",
                       "table=" + std::to_string(table_id) +
                           " bytes=" + std::to_string(data.size()));
      }
    } else {
      return up;  // Corruption etc.: not an outage, surface it
    }
  } else {
    TU_RETURN_IF_ERROR(WriteFastTable(table_id, data));
    out->on_slow = false;
  }
  out->reader.reset();
  return Status::OK();
}

Status TimePartitionedLsm::WriteFastTable(uint64_t table_id,
                                          const std::string& data) {
  // One Append and one fdatasync under a .tmp name, then a rename
  // (discard-and-rebuild): a failed Append or a poisoned fsync leaves
  // nothing at the final name, so the retried build starts from scratch
  // instead of trusting pages the kernel may have dropped. The open-time
  // sweep reclaims .tmp leftovers after a crash. Without a persisted
  // manifest no reopen can find the table, so it is not synced: the
  // fdatasync would wait on the disk for a file a crash orphans anyway.
  const uint64_t start_us = NowUs();
  const std::string fname = FastName(table_id);
  Status s = env_->fast().WriteStringToFile(fname, data,
                                            options_.persist_manifest);
  if (!s.ok()) {
    (void)env_->fast().DeleteFile(fname + ".tmp");
    return s;
  }
  if (h_table_write_us_ != nullptr) {
    h_table_write_us_->Observe(NowUs() - start_us);
  }
  stats_.fast_bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status TimePartitionedLsm::UploadBufferToSlow(uint64_t table_id,
                                              const Slice& data,
                                              uint32_t expected_crc) {
  // Atomic upload protocol: land the bytes under a .tmp key, verify the
  // object (size, optionally CRC), then commit with a rename. A crash at
  // any point leaves either nothing at the final key or the complete
  // table — never a torn one; .tmp leftovers are swept at open.
  cloud::ObjectStore& slow = env_->slow();
  const std::string key = SlowKey(table_id);
  const std::string tmp = key + ".tmp";
  // A CRC mismatch on the read-back is Corruption, not Busy — but it is
  // still worth retrying here: re-putting the same bytes heals in-flight
  // corruption, and only a persistent mismatch (at-rest rot on our source
  // buffer, or a mangling store) surfaces as Corruption to the caller,
  // where it is treated as permanent rather than parked as deferred.
  cloud::RetryPolicy upload_retry = slow.sim().retry;
  upload_retry.retry_corruption = true;
  cloud::CrashPoint(slow.fault(), "l2.upload.pre_put");
  TU_RETURN_IF_ERROR(cloud::RunWithRetry(
      upload_retry, &slow.counters(), "upload " + tmp,
      [&]() -> Status {
        TU_RETURN_IF_ERROR(slow.PutObject(tmp, data));
        uint64_t uploaded = 0;
        TU_RETURN_IF_ERROR(slow.ObjectSize(tmp, &uploaded));
        if (uploaded != data.size()) {
          return Status::Busy("torn upload: " + std::to_string(uploaded) +
                              " of " + std::to_string(data.size()) +
                              " bytes at " + tmp);
        }
        if (options_.integrity.verify_upload) {
          std::string back;
          TU_RETURN_IF_ERROR(slow.GetObject(tmp, &back));
          const uint32_t want = expected_crc != 0
                                    ? expected_crc
                                    : crc32c::Value(data.data(), data.size());
          if (crc32c::Value(back.data(), back.size()) != want) {
            return Status::Corruption("upload crc mismatch at " + tmp);
          }
        }
        return Status::OK();
      },
      &shutting_down_));
  cloud::CrashPoint(slow.fault(), "l2.upload.pre_commit");
  TU_RETURN_IF_ERROR(cloud::RunWithRetry(
      slow.sim().retry, &slow.counters(), "commit " + key,
      [&] { return slow.RenameObject(tmp, key); }, &shutting_down_));
  cloud::CrashPoint(slow.fault(), "l2.upload.post_commit");
  return Status::OK();
}

Status TimePartitionedLsm::DeleteTable(const TableHandle& handle) {
  // Deletes run only after the manifest stopped referencing the table, so
  // they are idempotent (NotFound is fine) and may fail without harm — a
  // missed delete is an orphan the next open sweeps. The tier comes from
  // the handle itself: a deferred L2 table still lives on the fast tier.
  if (!handle.on_slow) {
    // An open reader keeps its file descriptor, so the unlink cannot fail
    // a query still reading the table.
    Status s = env_->fast().DeleteFile(FastName(handle.meta.table_id));
    return s.IsNotFound() ? Status::OK() : s;
  }
  if (handle.reader != nullptr) {
    // The object goes with the reader's last holder: a query or fetch
    // thread when one outlives this compaction, else this caller once its
    // copies of the handle drop.
    DeferredDeletes::DeleteWhenReleased(deferred_deletes_, handle);
    return Status::OK();
  }
  return DeleteObject(handle.meta.table_id);
}

Status TimePartitionedLsm::DeleteObject(uint64_t table_id) {
  cloud::ObjectStore& slow = env_->slow();
  Status s = cloud::RunWithRetry(
      slow.sim().retry, &slow.counters(), "delete table",
      [&] { return slow.DeleteObject(SlowKey(table_id)); }, &shutting_down_);
  return s.IsNotFound() ? Status::OK() : s;
}

Status TimePartitionedLsm::FlushMemTable(MemTable* mem) {
  const uint64_t flush_start_us = NowUs();
  // Split the sorted stream by L0 time partition (§3.3: "the key-value
  // pairs are separated into different time partitions according to the
  // timestamps contained in the keys").
  std::map<int64_t, std::vector<std::pair<std::string, std::string>>> buckets;
  auto it = mem->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const Slice user_key = InternalKeyUserKey(it->key());
    const int64_t ts = ChunkKeyTimestamp(user_key);
    const int64_t part_start = AlignDown(ts, l0_len_ms_);
    buckets[part_start].emplace_back(it->key().ToString(),
                                     it->value().ToString());
  }

  for (auto& [part_start, entries] : buckets) {
    TableHandle handle;
    TU_RETURN_IF_ERROR(WriteTable(entries, /*to_slow=*/false, &handle));
    // Find or create the L0 partition.
    Partition* target = nullptr;
    for (Partition& p : l0_) {
      if (p.start == part_start) {
        target = &p;
        break;
      }
    }
    if (target == nullptr) {
      Partition p;
      p.start = part_start;
      p.end = part_start + l0_len_ms_;
      l0_.push_back(std::move(p));
      std::sort(l0_.begin(), l0_.end(),
                [](const Partition& a, const Partition& b) {
                  return a.start < b.start;
                });
      for (Partition& q : l0_) {
        if (q.start == part_start) {
          target = &q;
          break;
        }
      }
    }
    target->tables.insert(target->tables.begin(), std::move(handle));
  }

  cloud::CrashPoint(env_->fast().fault(), "l0.flush.pre_manifest");
  TU_RETURN_IF_ERROR(SaveManifest());
  // Accounting only after the manifest commit: a failed flush is retried
  // whole from its retained memtable, so booking the memory release or the
  // flush count early would double on the retry.
  MemoryTracker::Global().Sub(
      MemCategory::kMemtable,
      static_cast<int64_t>(mem->ApproximateMemoryUsage()));
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  if (h_memflush_us_ != nullptr) {
    h_memflush_us_->Observe(NowUs() - flush_start_us);
  }
  if (trace_ != nullptr) {
    trace_->Record("flush", "partitions=" + std::to_string(buckets.size()));
  }
  // Flush marks (the §3.3 log retirement hook) only after the flushed
  // tables are durably referenced: a crash before this point keeps the WAL
  // records live, so replay rebuilds what the flush had not yet committed.
  if (options_.on_flush) {
    std::vector<std::pair<uint64_t, uint64_t>> id_seqs;
    for (const auto& [part_start, entries] : buckets) {
      for (const auto& [ikey, value] : entries) {
        uint64_t chunk_seq = 0;
        Slice payload = ChunkValuePayload(value);
        if (GetVarint64(&payload, &chunk_seq)) {
          id_seqs.emplace_back(ChunkKeyId(InternalKeyUserKey(ikey)), chunk_seq);
        }
      }
    }
    // One (id, newest seq) per id.
    std::sort(id_seqs.begin(), id_seqs.end());
    size_t out = 0;
    for (size_t i = 0; i < id_seqs.size(); ++i) {
      if (out > 0 && id_seqs[out - 1].first == id_seqs[i].first) {
        id_seqs[out - 1].second = id_seqs[i].second;
      } else {
        id_seqs[out++] = id_seqs[i];
      }
    }
    id_seqs.resize(out);
    options_.on_flush(id_seqs);
  }
  return Status::OK();
}

Status TimePartitionedLsm::MaybeMaintain() {
  while (static_cast<int>(l0_.size()) > options_.l0_partition_trigger) {
    TU_RETURN_IF_ERROR(CompactOldestL0());
  }
  // Size control runs before the L1->L2 migration: the growth rule needs
  // to observe the accumulated level-1 time span before it is drained.
  if (options_.fast_storage_limit_bytes > 0) {
    TU_RETURN_IF_ERROR(RunDynamicSizeControl());
  }
  TU_RETURN_IF_ERROR(MaybeCompactL1ToL2());
  TU_RETURN_IF_ERROR(MergePatchesIfNeeded());
  return SaveManifest();
}

Status TimePartitionedLsm::OpenReaderOnTier(
    const TableHandle& handle, bool use_slow, BlockCache* cache, bool scan,
    std::unique_ptr<TableReader>* reader) {
  std::unique_ptr<TableSource> source;
  if (use_slow) {
    // Rollup summaries are a few hundred bytes per partition: download the
    // whole object in one Get instead of paying 4+ ranged Gets for the
    // footer/filter/index/data walk. Raw tables stay ranged — a query
    // usually touches a fraction of their blocks.
    if (handle.meta.rollup_granularity_ms != 0) {
      TU_RETURN_IF_ERROR(PrefetchedTableSource::Open(
          &env_->slow(), SlowKey(handle.meta.table_id), &source));
    } else {
      TU_RETURN_IF_ERROR(SlowTableSource::Open(
          &env_->slow(), SlowKey(handle.meta.table_id), &source));
    }
  } else {
    TU_RETURN_IF_ERROR(FastTableSource::Open(
        &env_->fast(), FastName(handle.meta.table_id), &source));
    if (scan) {
      source = std::make_unique<ReadAheadTableSource>(std::move(source));
    }
  }
  if (handle.meta.file_size != 0 && source->Size() != handle.meta.file_size) {
    return Status::Corruption(
        "table " + std::to_string(handle.meta.table_id) + " size " +
        std::to_string(source->Size()) + " != manifest " +
        std::to_string(handle.meta.file_size));
  }
  if (!use_slow && options_.integrity.verify_fast_open &&
      handle.meta.object_crc32c != 0) {
    std::string all;
    TU_RETURN_IF_ERROR(source->ReadAt(0, source->Size(), &all));
    if (crc32c::Value(all.data(), all.size()) != handle.meta.object_crc32c) {
      return Status::Corruption("table " +
                                std::to_string(handle.meta.table_id) +
                                " whole-file crc mismatch on fast tier");
    }
  }
  TableReaderOptions opts;
  opts.block_cache = cache;
  opts.cache_id = name_ + ":" + std::to_string(handle.meta.table_id);
  opts.on_slow = use_slow;
  opts.prefetch_wait_us = h_prefetch_wait_us_;
  opts.corruptions_detected = &stats_.read_corruptions_detected;
  opts.corruptions_healed = &stats_.read_corruptions_healed;
  return TableReader::Open(opts, std::move(source), reader);
}

Status TimePartitionedLsm::OpenReader(TableHandle* handle) {
  if (handle->reader) return Status::OK();
  std::unique_ptr<TableReader> reader;
  TU_RETURN_IF_ERROR(
      OpenTableReader(handle, block_cache_, /*scan=*/false, &reader));
  handle->reader = std::move(reader);
  return Status::OK();
}

Status TimePartitionedLsm::OpenTableReader(
    TableHandle* handle, BlockCache* cache, bool scan,
    std::unique_ptr<TableReader>* reader) {
  if (handle->quarantined) {
    return Status::Corruption("table " +
                              std::to_string(handle->meta.table_id) +
                              " quarantined");
  }
  Status s = OpenReaderOnTier(*handle, handle->on_slow, cache, scan, reader);
  if (!s.IsCorruption()) return s;

  // The handle's tier holds rotten bytes. The other tier may still hold a
  // healthy duplicate — a deferred upload's fast-tier copy not yet
  // unlinked, or an object committed just before a crash — so try it
  // before giving up on the table.
  Status alt =
      OpenReaderOnTier(*handle, !handle->on_slow, cache, scan, reader);
  if (alt.ok()) {
    stats_.tier_fallback_opens.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      trace_->Record("integrity.tier_fallback",
                     "table=" + std::to_string(handle->meta.table_id) +
                         " tier=" + (handle->on_slow ? "slow" : "fast"));
    }
    return Status::OK();
  }
  // Quarantine needs definitive evidence about the other copy (absent or
  // corrupt too). A transient probe failure (tier down, breaker open)
  // proves nothing — leave the handle alone so a later read retries.
  if (alt.IsCorruption() || alt.IsNotFound()) {
    handle->quarantined = true;
    stats_.runtime_quarantines.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      trace_->Record("integrity.quarantine",
                     "table=" + std::to_string(handle->meta.table_id) + " " +
                         s.ToString());
    }
  }
  return s;
}

Status TimePartitionedLsm::MergePartitionTables(
    std::vector<TableHandle*> inputs, std::vector<int64_t> boundaries,
    bool to_slow, std::vector<MergeSegment>* outputs,
    RollupBuild* rollup_build) {
  outputs->clear();
  const std::vector<int64_t>& grans = options_.rollup_granularities_ms;
  const bool build_rollups = rollup_build != nullptr && !grans.empty();
  const bool skip_raw = rollup_build != nullptr && rollup_build->skip_raw;
  // Per-granularity rollup entries, accumulated in series-ID order (the
  // merge stream is ID-sorted and each series contributes one chunk), so
  // they feed the table builder pre-sorted.
  std::vector<std::vector<std::pair<std::string, std::string>>> rollup_entries(
      build_rollups ? grans.size() : 0);
  RollupOutput rollup_out;
  if (build_rollups) rollup_out.granularities_ms = grans;

  // Each input gets a reader of its own, dropped with the merge: its scan
  // reads fast-tier tables in large windows, neither looks up nor fills
  // the shared block cache (the blocks are dead once the outputs install),
  // and leaves a query's reader on the handle, or the lack of one, as it
  // was whether the merge succeeds or fails.
  std::vector<std::unique_ptr<TableReader>> readers;
  std::vector<std::unique_ptr<Iterator>> children;
  readers.reserve(inputs.size());
  children.reserve(inputs.size());
  for (TableHandle* h : inputs) {
    std::unique_ptr<TableReader> reader;
    TU_RETURN_IF_ERROR(
        OpenTableReader(h, /*cache=*/nullptr, /*scan=*/true, &reader));
    children.push_back(reader->NewIterator());
    readers.push_back(std::move(reader));
  }
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();

  // Per-interval pending entries, keyed by the interval's start boundary
  // (MergeChunks can extend `boundaries` at either end, so indices are not
  // stable but start timestamps are). Flushed to tables when large enough,
  // but only at series boundaries so output tables keep disjoint ID ranges
  // (Fig. 11 patch-merge splitting relies on this).
  struct PendingOutput {
    std::vector<std::pair<std::string, std::string>> entries;
    size_t bytes = 0;
  };
  std::map<int64_t, PendingOutput> pending;
  std::map<int64_t, std::vector<TableHandle>> tables_by_segment;

  auto flush_segment = [&](int64_t seg_start) -> Status {
    PendingOutput& p = pending[seg_start];
    if (p.entries.empty()) return Status::OK();
    TableHandle handle;
    TU_RETURN_IF_ERROR(WriteTable(p.entries, to_slow, &handle));
    tables_by_segment[seg_start].push_back(std::move(handle));
    p.entries.clear();
    p.bytes = 0;
    return Status::OK();
  };

  // Group the sorted stream by series/group ID; merge each series once.
  // A deque keeps each copied value in place as more arrive, so the
  // inputs' Slices stay valid.
  std::deque<std::string> value_copies;
  std::vector<ChunkInput> chunk_inputs;
  uint64_t current_id = 0;
  bool have_id = false;
  uint64_t merge_us = 0;

  auto emit_series = [&]() -> Status {
    if (chunk_inputs.empty()) return Status::OK();
    std::vector<MergedChunk> merged_chunks;
    const uint64_t merge_start_us = NowUs();
    TU_RETURN_IF_ERROR(MergeChunks(chunk_inputs, &boundaries,
                                   kMaxSamplesPerMergedChunk,
                                   &merged_chunks,
                                   build_rollups ? &rollup_out : nullptr));
    merge_us += NowUs() - merge_start_us;
    if (!skip_raw) {
      for (MergedChunk& chunk : merged_chunks) {
        // The merge extended `boundaries` to cover every row, so the
        // chunk's interval is always real — out-of-range rows are never
        // clamped into an edge partition they do not belong to.
        const int interval = PartitionIndexOf(boundaries, chunk.start_ts);
        PendingOutput& p = pending[boundaries[interval]];
        p.bytes += chunk.value.size() + kInternalKeySize;
        // Stamp the output with the max seq of its winning inputs — NOT a
        // fresh next_seq_. A fresh stamp would outrank any rewrite chunk
        // that was flushed after these inputs but excluded from this merge,
        // silently reviving overwritten values (last-write-wins).
        p.entries.emplace_back(
            MakeInternalKey(MakeChunkKey(current_id, chunk.start_ts),
                            chunk.max_seq),
            std::move(chunk.value));
      }
    }
    if (build_rollups) {
      // Keep only buckets fully inside the window being materialized:
      // buckets that straddle the window edge (or belong to extension
      // segments) would summarize rows the target partition doesn't hold.
      for (size_t gi = 0; gi < grans.size(); ++gi) {
        const int64_t g = grans[gi];
        std::vector<compress::RollupBucket> trimmed;
        for (const compress::RollupBucket& b : rollup_out.buckets[gi]) {
          if (b.start >= rollup_build->w_start &&
              b.start + g <= rollup_build->w_end) {
            trimmed.push_back(b);
          }
        }
        if (trimmed.empty()) continue;
        std::string payload;
        compress::EncodeRollupChunk(rollup_out.max_seq, g, trimmed, &payload);
        rollup_entries[gi].emplace_back(
            MakeInternalKey(MakeChunkKey(current_id, trimmed.front().start),
                            rollup_out.max_seq),
            MakeChunkValue(ChunkType::kRollup, payload));
      }
    }
    chunk_inputs.clear();
    value_copies.clear();
    // Series boundary: safe point to split oversized outputs.
    for (auto& [seg_start, p] : pending) {
      if (p.bytes >= options_.max_output_table_bytes) {
        TU_RETURN_IF_ERROR(flush_segment(seg_start));
      }
    }
    return Status::OK();
  };

  for (; merged->Valid(); merged->Next()) {
    const Slice user_key = InternalKeyUserKey(merged->key());
    const uint64_t id = ChunkKeyId(user_key);
    if (have_id && id != current_id) {
      TU_RETURN_IF_ERROR(emit_series());
    }
    current_id = id;
    have_id = true;
    value_copies.emplace_back(merged->value().ToString());
    chunk_inputs.push_back(
        ChunkInput{InternalKeySeq(merged->key()), Slice(value_copies.back())});
  }
  TU_RETURN_IF_ERROR(merged->status());
  TU_RETURN_IF_ERROR(emit_series());
  if (h_merge_us_ != nullptr) h_merge_us_->Observe(merge_us);
  for (auto& [seg_start, p] : pending) {
    (void)p;
    TU_RETURN_IF_ERROR(flush_segment(seg_start));
  }
  if (build_rollups) {
    for (size_t gi = 0; gi < grans.size(); ++gi) {
      if (rollup_entries[gi].empty()) continue;
      TableHandle handle;
      TU_RETURN_IF_ERROR(WriteTable(rollup_entries[gi], to_slow, &handle));
      handle.meta.rollup_granularity_ms = grans[gi];
      rollup_build->tables.push_back(std::move(handle));
      stats_.rollup_tables_built.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (auto& [seg_start, tables] : tables_by_segment) {
    if (tables.empty()) continue;
    const auto it =
        std::upper_bound(boundaries.begin(), boundaries.end(), seg_start);
    MergeSegment seg;
    seg.start = seg_start;
    seg.end = *it;
    seg.tables = std::move(tables);
    outputs->push_back(std::move(seg));
  }
  return Status::OK();
}

Status TimePartitionedLsm::CompactOldestL0() {
  const uint64_t start_us = NowUs();
  Partition victim = std::move(l0_.front());
  l0_.erase(l0_.begin());

  // Overlapping L1 partitions join the merge (ordinary for in-order data;
  // this is also the §3.3 out-of-order L0 partition path).
  std::vector<Partition> l1_inputs;
  for (auto it = l1_.begin(); it != l1_.end();) {
    if (it->start < victim.end && it->end > victim.start) {
      l1_inputs.push_back(std::move(*it));
      it = l1_.erase(it);
    } else {
      ++it;
    }
  }

  // Fig. 12 (left): align new partitions to the shortest involved length.
  int64_t shortest = victim.end - victim.start;
  int64_t range_start = victim.start;
  int64_t range_end = victim.end;
  for (const Partition& p : l1_inputs) {
    shortest = std::min(shortest, p.end - p.start);
    range_start = std::min(range_start, p.start);
    range_end = std::max(range_end, p.end);
  }
  std::vector<int64_t> boundaries;
  for (int64_t b = range_start; b <= range_end; b += shortest) {
    boundaries.push_back(b);
  }

  std::vector<TableHandle*> inputs;
  for (TableHandle& t : victim.tables) inputs.push_back(&t);
  for (Partition& p : l1_inputs) {
    for (TableHandle& t : p.tables) inputs.push_back(&t);
  }

  std::vector<MergeSegment> outputs;
  const Status merged =
      MergePartitionTables(inputs, boundaries, /*to_slow=*/false, &outputs);
  if (!merged.ok()) {
    // A failed merge (ENOSPC writing an output, say) leaves its inputs the
    // only copy: put them back so reads keep seeing them and the retry
    // finds them.
    l0_.insert(l0_.begin(), std::move(victim));
    RestoreL1(std::move(l1_inputs));
    return merged;
  }

  // Install the new L1 partitions. Segments beyond the merged range (rows
  // of wide-spanning head chunks) land in an existing L1 partition of the
  // same span when one exists, else become their own partition — the next
  // L0 compaction touching that range will pull them into its merge.
  for (MergeSegment& seg : outputs) {
    Partition* existing = nullptr;
    for (Partition& p : l1_) {
      if (p.start == seg.start && p.end == seg.end) {
        existing = &p;
        break;
      }
    }
    if (existing != nullptr) {
      for (TableHandle& t : seg.tables) {
        existing->tables.push_back(std::move(t));
      }
      continue;
    }
    Partition p;
    p.start = seg.start;
    p.end = seg.end;
    p.tables = std::move(seg.tables);
    l1_.push_back(std::move(p));
  }
  std::sort(l1_.begin(), l1_.end(),
            [](const Partition& a, const Partition& b) {
              return a.start < b.start;
            });

  // Durability order: the manifest must reference the outputs before any
  // input is unlinked — a crash in between leaves only removable orphans,
  // never a manifest pointing at deleted tables. Delete failures are
  // tolerated for the same reason.
  TU_RETURN_IF_ERROR(SaveManifest());
  for (const TableHandle& t : victim.tables) {
    (void)DeleteTable(t);
  }
  for (const Partition& p : l1_inputs) {
    for (const TableHandle& t : p.tables) {
      (void)DeleteTable(t);
    }
  }

  stats_.l0_to_l1_compactions.fetch_add(1, std::memory_order_relaxed);
  const uint64_t l0_l1_us = NowUs() - start_us;
  stats_.compaction_us.fetch_add(l0_l1_us, std::memory_order_relaxed);
  if (h_compact_l0_l1_us_ != nullptr) h_compact_l0_l1_us_->Observe(l0_l1_us);
  if (trace_ != nullptr) {
    trace_->Record("compact.l0l1", "us=" + std::to_string(l0_l1_us));
  }
  return Status::OK();
}

void TimePartitionedLsm::RestoreL1(std::vector<Partition> partitions) {
  for (Partition& p : partitions) l1_.push_back(std::move(p));
  std::sort(l1_.begin(), l1_.end(),
            [](const Partition& a, const Partition& b) {
              return a.start < b.start;
            });
}

Status TimePartitionedLsm::MaybeCompactL1ToL2() {
  while (!l1_.empty()) {
    const int64_t w_start = AlignDown(l1_.front().start, l2_len_ms_);
    const int64_t w_end = w_start + l2_len_ms_;

    // The window must be "closed": newer data already exists beyond it
    // (margin of one trigger's worth of L0 partitions).
    int64_t newest_end = INT64_MIN;
    for (const Partition& p : l0_) newest_end = std::max(newest_end, p.end);
    for (const Partition& p : l1_) newest_end = std::max(newest_end, p.end);
    const int64_t margin = l0_len_ms_ * options_.l0_partition_trigger;
    if (newest_end < w_end + margin) return Status::OK();

    // Collect the L1 partitions inside the window.
    std::vector<Partition> inputs;
    for (auto it = l1_.begin(); it != l1_.end();) {
      if (it->start >= w_start && it->start < w_end) {
        inputs.push_back(std::move(*it));
        it = l1_.erase(it);
      } else {
        ++it;
      }
    }
    if (inputs.empty()) return Status::OK();
    TU_RETURN_IF_ERROR(CompactL1WindowToL2(w_start, w_end, std::move(inputs)));
  }
  return Status::OK();
}

Status TimePartitionedLsm::CompactL1WindowToL2(int64_t w_start, int64_t w_end,
                                               std::vector<Partition> inputs) {
  const uint64_t start_us = NowUs();

  std::vector<TableHandle*> input_tables;
  for (Partition& p : inputs) {
    for (TableHandle& t : p.tables) input_tables.push_back(&t);
  }

  // Existing L2 partitions overlapping the window => this is stale
  // (out-of-order) data: generate patches instead of rewriting them.
  std::vector<L2Partition*> overlapping;
  for (L2Partition& p : l2_) {
    if (p.start < w_end && p.end > w_start) overlapping.push_back(&p);
  }

  // Boundary granularity: the normal path (no overlapping L2) keeps the
  // whole window as one interval — one write to slow storage, zero slow
  // reads (Eq. 9). The stale path (§3.3 out-of-order handling) splits the
  // window at the edges of the covered L2 partitions, aligned to the
  // shortest covered partition length (Fig. 12 right).
  std::vector<int64_t> boundaries;
  if (overlapping.empty()) {
    boundaries = {w_start, w_end};
  } else {
    int64_t shortest = l2_len_ms_;
    for (L2Partition* p : overlapping) {
      shortest = std::min(shortest, p->end - p->start);
    }
    for (int64_t b = w_start; b <= w_end; b += shortest) boundaries.push_back(b);
  }

  // Rollups are materialized only on the clean path: the window's merged
  // output IS the partition's full content, so the buckets summarize it
  // exactly. The stale path rewrites existing partitions instead — its
  // segments mark rollup buckets dirty in RouteSegmentToL2.
  RollupBuild rollup_build;
  rollup_build.w_start = w_start;
  rollup_build.w_end = w_end;
  const bool want_rollups =
      overlapping.empty() && !options_.rollup_granularities_ms.empty();

  std::vector<MergeSegment> outputs;
  const Status merged = MergePartitionTables(
      input_tables, boundaries, /*to_slow=*/true, &outputs,
      want_rollups ? &rollup_build : nullptr);
  if (!merged.ok()) {
    RestoreL1(std::move(inputs));  // see CompactOldestL0
    return merged;
  }

  // Route every segment — including ones the merge added beyond the window
  // for wide-spanning head-chunk rows — to the partition that truly covers
  // its time range. RouteSegmentToL2 may grow l2_, so the `overlapping`
  // pointers are dead past this point.
  for (MergeSegment& seg : outputs) {
    RouteSegmentToL2(std::move(seg));
  }
  if (!rollup_build.tables.empty()) {
    // Attach the rollups to the (freshly created) partition covering the
    // window. Extension segments never produce rollup buckets — they were
    // trimmed to [w_start, w_end) — so the window partition is the one
    // home. If no in-window segment existed the buckets were empty and no
    // table was built; the fallback delete only guards the impossible.
    L2Partition* home = nullptr;
    for (L2Partition& p : l2_) {
      if (p.start <= w_start && p.end >= w_end) {
        home = &p;
        break;
      }
    }
    for (TableHandle& t : rollup_build.tables) {
      if (home != nullptr) {
        home->rollups.push_back(std::move(t));
      } else {
        (void)DeleteTable(t);
      }
    }
    rollup_build.tables.clear();
  }
  std::sort(l2_.begin(), l2_.end(),
            [](const L2Partition& a, const L2Partition& b) {
              return a.start < b.start;
            });

  // Same durability order as CompactOldestL0: outputs reach the manifest
  // before inputs are unlinked.
  TU_RETURN_IF_ERROR(SaveManifest());
  for (const Partition& p : inputs) {
    for (const TableHandle& t : p.tables) {
      (void)DeleteTable(t);
    }
  }
  stats_.l1_to_l2_compactions.fetch_add(1, std::memory_order_relaxed);
  const uint64_t l1_l2_us = NowUs() - start_us;
  stats_.compaction_us.fetch_add(l1_l2_us, std::memory_order_relaxed);
  if (h_compact_l1_l2_us_ != nullptr) h_compact_l1_l2_us_->Observe(l1_l2_us);
  if (trace_ != nullptr) {
    trace_->Record("compact.l1l2", "us=" + std::to_string(l1_l2_us));
  }
  return Status::OK();
}

void TimePartitionedLsm::RouteSegmentToL2(MergeSegment segment) {
  L2Partition* covered = nullptr;
  for (L2Partition& p : l2_) {
    if (p.start <= segment.start && p.end >= segment.end) {
      covered = &p;
      break;
    }
  }
  if (covered == nullptr) {
    L2Partition p;
    p.start = segment.start;
    p.end = segment.end;
    for (TableHandle& t : segment.tables) {
      L2Entry entry;
      entry.base = std::move(t);
      p.entries.push_back(std::move(entry));
    }
    l2_.push_back(std::move(p));
    return;
  }
  // A segment landing inside an already-rolled-up window is a rewrite of
  // pre-aggregated time: every bucket the segment touches is stale until
  // the maintenance tick re-derives the partition.
  if (!covered->rollups.empty() && segment.start < segment.end) {
    covered->rollup_dirty.emplace_back(segment.start, segment.end - 1);
  }
  // Attach each table as a patch of the base entry whose ID range covers
  // it; strays go to the closest entry.
  for (TableHandle& t : segment.tables) {
    if (covered->entries.empty()) {
      L2Entry entry;
      entry.base = std::move(t);
      covered->entries.push_back(std::move(entry));
      continue;
    }
    size_t target = covered->entries.size() - 1;
    for (size_t e = 0; e < covered->entries.size(); ++e) {
      if (covered->entries[e].base.meta.max_series_id >=
          t.meta.min_series_id) {
        target = e;
        break;
      }
    }
    covered->entries[target].patches.push_back(std::move(t));
    stats_.patches_created.fetch_add(1, std::memory_order_relaxed);
  }
}

Status TimePartitionedLsm::MergePatchesIfNeeded() {
  // MergeEntryPatches removes the victim plus any ID-overlapping entries,
  // appends fresh ones, and can create or grow OTHER partitions (rows
  // beyond the partition's range get routed to their true home), so
  // restart the whole scan after each merge instead of trusting indices.
  // Termination: each merge moves out-of-range rows strictly toward (and
  // into) partitions that cover them, and merged entries restart with
  // zero patches.
  for (bool merged = true; merged;) {
    merged = false;
    for (size_t pi = 0; pi < l2_.size() && !merged; ++pi) {
      for (size_t e = 0; e < l2_[pi].entries.size(); ++e) {
        if (static_cast<int>(l2_[pi].entries[e].patches.size()) >
            options_.patch_threshold) {
          TU_RETURN_IF_ERROR(MergeEntryPatches(pi, e));
          merged = true;
          break;
        }
      }
    }
  }
  return Status::OK();
}

Status TimePartitionedLsm::MergeEntryPatches(size_t partition_index,
                                             size_t entry_index) {
  const uint64_t start_us = NowUs();
  L2Partition* partition = &l2_[partition_index];
  // Pull the victim PLUS every entry whose series-ID range overlaps the
  // merge's range, transitively. Patch tables can span several entries'
  // ID ranges (they are routed whole to one entry), so merging a single
  // entry can emit a base that overlaps its neighbours; two entries
  // covering the same ID would then rewrite the same rows independently,
  // and chunk-granularity seq dedup could over-rank a stale value past a
  // newer rewrite that rode the other entry (last-write-wins violation).
  std::vector<L2Entry> victims;
  victims.push_back(std::move(partition->entries[entry_index]));
  partition->entries.erase(partition->entries.begin() + entry_index);
  const auto range_of = [](const L2Entry& e) {
    uint64_t lo = e.base.meta.min_series_id;
    uint64_t hi = e.base.meta.max_series_id;
    for (const TableHandle& t : e.patches) {
      lo = std::min(lo, t.meta.min_series_id);
      hi = std::max(hi, t.meta.max_series_id);
    }
    return std::make_pair(lo, hi);
  };
  auto [lo, hi] = range_of(victims.front());
  for (bool grew = true; grew;) {
    grew = false;
    for (auto it = partition->entries.begin();
         it != partition->entries.end();) {
      const auto [elo, ehi] = range_of(*it);
      if (elo <= hi && ehi >= lo) {
        lo = std::min(lo, elo);
        hi = std::max(hi, ehi);
        victims.push_back(std::move(*it));
        it = partition->entries.erase(it);
        grew = true;
      } else {
        ++it;
      }
    }
  }

  std::vector<TableHandle*> inputs;
  for (L2Entry& entry : victims) {
    inputs.push_back(&entry.base);
    for (TableHandle& t : entry.patches) inputs.push_back(&t);
  }

  std::vector<int64_t> boundaries = {partition->start, partition->end};
  std::vector<MergeSegment> outputs;
  const Status merged = MergePartitionTables(inputs, boundaries,
                                             /*to_slow=*/true, &outputs);
  if (!merged.ok()) {
    // As in CompactOldestL0: the entries stay live until a merge succeeds.
    for (L2Entry& entry : victims) {
      partition->entries.push_back(std::move(entry));
    }
    std::sort(partition->entries.begin(), partition->entries.end(),
              [](const L2Entry& a, const L2Entry& b) {
                return a.base.meta.min_series_id < b.base.meta.min_series_id;
              });
    return merged;
  }

  // Fig. 11: the merge yields new base tables with disjoint ID ranges.
  // Patch tables can carry rows outside this partition's time range (they
  // came from wide-spanning head chunks); those rows come back as extra
  // segments and are routed to the partitions that truly cover them.
  std::vector<MergeSegment> foreign;
  for (MergeSegment& seg : outputs) {
    if (seg.start >= partition->start && seg.end <= partition->end) {
      for (TableHandle& t : seg.tables) {
        L2Entry fresh;
        fresh.base = std::move(t);
        partition->entries.push_back(std::move(fresh));
      }
    } else {
      foreign.push_back(std::move(seg));
    }
  }
  std::sort(partition->entries.begin(), partition->entries.end(),
            [](const L2Entry& a, const L2Entry& b) {
              return a.base.meta.min_series_id < b.base.meta.min_series_id;
            });
  // RouteSegmentToL2 may grow l2_ and invalidate `partition` — done with
  // it past this point.
  partition = nullptr;
  for (MergeSegment& seg : foreign) {
    RouteSegmentToL2(std::move(seg));
  }
  std::sort(l2_.begin(), l2_.end(),
            [](const L2Partition& a, const L2Partition& b) {
              return a.start < b.start;
            });

  TU_RETURN_IF_ERROR(SaveManifest());
  for (const L2Entry& entry : victims) {
    (void)DeleteTable(entry.base);
    for (const TableHandle& t : entry.patches) {
      (void)DeleteTable(t);
    }
  }
  stats_.patch_merges.fetch_add(1, std::memory_order_relaxed);
  const uint64_t merge_us = NowUs() - start_us;
  stats_.compaction_us.fetch_add(merge_us, std::memory_order_relaxed);
  if (h_patch_merge_us_ != nullptr) h_patch_merge_us_->Observe(merge_us);
  if (trace_ != nullptr) {
    trace_->Record("patch.merge", "us=" + std::to_string(merge_us));
  }
  return Status::OK();
}

Status TimePartitionedLsm::RunDynamicSizeControl() {
  // Algorithm 1: adapt partition lengths to the fast-storage budget.
  uint64_t total_size = 0;
  for (const Partition& p : l0_) {
    for (const TableHandle& t : p.tables) total_size += t.meta.file_size;
  }
  for (const Partition& p : l1_) {
    for (const TableHandle& t : p.tables) total_size += t.meta.file_size;
  }
  if (total_size == 0) return Status::OK();

  const uint64_t st = options_.fast_storage_limit_bytes;
  const int64_t lb = options_.partition_lower_bound_ms;
  const int64_t ub = options_.partition_upper_bound_ms;
  const int64_t old_len = l0_len_ms_.load(std::memory_order_relaxed);
  int64_t len = old_len;
  const double thres = static_cast<double>(st) /
                       static_cast<double>(total_size) *
                       static_cast<double>(len);

  if (total_size > st) {
    grow_votes_ = 0;
    while (static_cast<double>(len) / 2 >= thres && len / 2 >= lb) {
      len /= 2;
    }
    if (len == old_len && len / 2 >= lb) {
      len /= 2;  // always make progress under pressure
    }
  } else {
    // Sparse data: grow partitions when level 1 already spans a level-2
    // window but the budget is underused.
    int64_t l1_span = 0;
    if (!l1_.empty()) l1_span = l1_.back().end - l1_.front().start;
    if (l1_span * 2 >= l2_len_ms_.load(std::memory_order_relaxed) &&
        total_size < st / 2 && len * 2 <= ub &&
        static_cast<double>(len) * 2 <= thres) {
      // Hysteresis: usage dips transiently right after an L1->L2 drain, so
      // grow only after several consecutive eligible observations.
      if (++grow_votes_ >= 3) {
        len *= 2;
        grow_votes_ = 0;
      }
    } else {
      grow_votes_ = 0;
    }
  }

  if (len != old_len) {
    // Keep the L2/L0 length ratio; L2 partitions never shrink below L0.
    const int64_t ratio =
        std::max<int64_t>(1, options_.l2_partition_ms /
                                 options_.l0_partition_ms);
    l0_len_ms_.store(len, std::memory_order_relaxed);
    l2_len_ms_.store(std::max(len * ratio, len), std::memory_order_relaxed);
  }
  return Status::OK();
}

Status TimePartitionedLsm::ApplyRetention(int64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  // Unreference first, unlink after the manifest is durable: a crash
  // mid-retention then leaves orphans (swept at open), not dangling refs.
  std::vector<TableHandle> doomed;
  auto retire_partitions = [&](std::vector<Partition>* level) {
    for (auto it = level->begin(); it != level->end();) {
      if (it->end <= watermark) {
        for (TableHandle& t : it->tables) {
          doomed.push_back(std::move(t));
        }
        stats_.partitions_retired.fetch_add(1, std::memory_order_relaxed);
        it = level->erase(it);
      } else {
        ++it;
      }
    }
  };
  retire_partitions(&l0_);
  retire_partitions(&l1_);
  for (auto it = l2_.begin(); it != l2_.end();) {
    if (it->end <= watermark) {
      for (L2Entry& e : it->entries) {
        doomed.push_back(std::move(e.base));
        for (TableHandle& t : e.patches) {
          doomed.push_back(std::move(t));
        }
      }
      for (TableHandle& t : it->rollups) {
        doomed.push_back(std::move(t));
      }
      stats_.partitions_retired.fetch_add(1, std::memory_order_relaxed);
      it = l2_.erase(it);
    } else {
      ++it;
    }
  }
  TU_RETURN_IF_ERROR(SaveManifest());
  for (const TableHandle& handle : doomed) {
    (void)DeleteTable(handle);
  }
  if (trace_ != nullptr && !doomed.empty()) {
    trace_->Record("retention", "watermark=" + std::to_string(watermark) +
                                    " tables=" + std::to_string(doomed.size()));
  }
  return Status::OK();
}

Status TimePartitionedLsm::NewCursor(const ReadContext& ctx,
                                     std::span<SeriesRead> reads,
                                     std::shared_ptr<ReadCursor>* out) {
  const bool allow_partial = ctx.scope.allow_partial;
  query::QueryStats* qs = ctx.stats;
  // Chunks can overhang their partition end by at most one (pre-shrink)
  // partition length, so widen the selection window on the left.
  const int64_t overhang = options_.partition_upper_bound_ms;
  auto cursor = std::make_shared<ReadCursor>(qs, reads);
  {
    std::lock_guard<std::mutex> mem_lock(mem_mu_);
    cursor->AddMemTable(mem_);
    for (const auto& imm : immutables_) cursor->AddMemTable(imm);
  }
  std::unique_lock<std::mutex> lock(mu_);

  // `max_data_ts` bounds the last sample a table can hold: L2 compaction
  // splits merged chunks at partition boundaries, so an L2 table's data
  // ends before its partition does — that bound makes the missing span of
  // a skipped (unreachable) table tight.
  // While the slow-tier breaker is open, don't touch slow tables at all:
  // an already-open reader would still fail (or half-succeed off the block
  // cache) on its lazy per-block Gets, and query reads would eat the
  // half-open probe budget the upload drainer needs to heal.
  const cloud::CircuitBreaker& slow_breaker = env_->slow().breaker();
  const bool slow_tier_down =
      slow_breaker.enabled() &&
      slow_breaker.state() == cloud::BreakerState::kOpen;

  // The reads whose window the current partition overlaps.
  std::vector<size_t> live;
  live.reserve(reads.size());
  const auto select_partition = [&](int64_t start, int64_t end) {
    live.clear();
    for (size_t r = 0; r < reads.size(); ++r) {
      if (start > reads[r].t1 || end + overhang <= reads[r].t0) {
        if (qs != nullptr) ++qs->partitions_pruned;
        continue;
      }
      live.push_back(r);
    }
  };

  // Each live read examines the table as if alone — the pruning counts
  // stay per (read, table) — but the reader is opened at most once per
  // query and the table joins the cursor once.
  const auto consider_table = [&](TableHandle& handle,
                                  int64_t max_data_ts) -> Status {
    bool opened = false;
    Status open_status;
    int64_t index = -1;
    for (size_t r : live) {
      SeriesRead& read = reads[r];
      if (qs != nullptr) ++qs->tables_considered;
      if (handle.meta.min_series_id > read.id ||
          handle.meta.max_series_id < read.id) {
        if (qs != nullptr) ++qs->tables_pruned_id;
        continue;
      }
      if (handle.meta.min_ts > read.t1 ||
          handle.meta.max_ts < read.t0 - overhang) {
        if (qs != nullptr) ++qs->tables_pruned_time;
        continue;
      }
      const auto skip = [&] {
        const int64_t lo = std::max(handle.meta.min_ts, read.t0);
        const int64_t hi = std::min(max_data_ts, read.t1);
        if (lo <= hi) read.missing.emplace_back(lo, hi);
        stats_.partial_read_skips.fetch_add(1, std::memory_order_relaxed);
        if (qs != nullptr) ++qs->tables_skipped_unreachable;
      };
      if (allow_partial && handle.on_slow && slow_tier_down) {
        skip();
        continue;
      }
      if (!opened) {
        open_status = OpenReader(&handle);
        opened = true;
      }
      if (!open_status.ok()) {
        // Partial read: an unreachable slow-tier table — or a corrupt/
        // quarantined table on either tier after repair attempts failed —
        // is skipped with its possible [min_ts, max_data_ts] span reported
        // missing. Other fast-tier failures (including deferred tables,
        // which live there) and definitive errors still fail the read.
        const bool skippable =
            (handle.on_slow &&
             (open_status.IsUnavailable() || open_status.IsIOError() ||
              open_status.IsBusy())) ||
            open_status.IsCorruption();
        if (allow_partial && skippable) {
          skip();
          continue;
        }
        return open_status;
      }
      if (!handle.reader->MayContainId(read.id)) {
        if (qs != nullptr) ++qs->tables_pruned_bloom;
        continue;
      }
      if (index < 0) index = cursor->AddTable(handle.reader);
      cursor->Admit(r, static_cast<uint32_t>(index));
    }
    return Status::OK();
  };

  for (std::vector<Partition>* level : {&l0_, &l1_}) {
    for (Partition& p : *level) {
      select_partition(p.start, p.end);
      for (TableHandle& t : p.tables) {
        TU_RETURN_IF_ERROR(consider_table(t, t.meta.max_ts + overhang));
      }
    }
  }
  for (L2Partition& p : l2_) {
    select_partition(p.start, p.end);
    for (L2Entry& e : p.entries) {
      TU_RETURN_IF_ERROR(consider_table(e.base, p.end - 1));
      for (TableHandle& t : e.patches) {
        TU_RETURN_IF_ERROR(consider_table(t, p.end - 1));
      }
    }
  }

  // Tables quarantined this process lifetime (open-time sweep or scrub) are
  // gone from the tree but may have held data in the query window. A
  // partial read flags the hole; a strict read proceeds — the bytes are
  // unrecoverable, so failing every future query would make the quarantine
  // worse than the corruption it contained.
  if (allow_partial) {
    for (const QuarantinedTable& q : quarantined_) {
      // A lost rollup table costs no raw data — never report it missing.
      if (q.is_rollup) continue;
      for (SeriesRead& read : reads) {
        if (q.min_series_id > read.id || q.max_series_id < read.id) continue;
        const int64_t lo = std::max(q.min_ts, read.t0);
        const int64_t hi = std::min(q.max_data_ts, read.t1);
        if (lo <= hi) read.missing.emplace_back(lo, hi);
      }
    }
  }
  lock.unlock();

  // Iterators and fetch plans need no manifest lock: the cursor's pins
  // keep the memtables and tables alive.
  cursor->Finish();
  if (ctx.prefetch != nullptr) {
    cursor->PlanFetches(ctx.prefetch, read_io_pool_.get(), overhang);
  }
  *out = std::move(cursor);
  return Status::OK();
}

Status TimePartitionedLsm::PlanRollupRead(
    uint64_t id, const ReadContext& ctx, int64_t granularity_ms,
    const std::vector<std::pair<int64_t, int64_t>>& extra_dirty,
    RollupPlan* out) {
  out->buckets.clear();
  out->raw_spans.clear();
  const int64_t t0 = ctx.t0;
  const int64_t t1 = ctx.t1;
  if (t0 > t1) return Status::OK();
  const int64_t g = granularity_ms;
  auto all_raw = [&]() {
    out->buckets.clear();
    out->raw_spans.assign(1, {t0, t1});
    return Status::OK();
  };
  if (g <= 0 || t1 >= INT64_MAX - g) return all_raw();

  // Only whole granularity buckets are servable: an edge bucket straddling
  // t0/t1 would fold out-of-range samples into the answer.
  const int64_t interior_lo = query::AlignUp(t0, g);
  const int64_t interior_hi = query::AlignDown(t1 + 1, g);  // exclusive
  if (interior_lo >= interior_hi) return all_raw();

  const int64_t overhang = options_.partition_upper_bound_ms;

  // Dirty spans (closed): data newer than any rollup. Start from the
  // caller's head-snapshot spans and add the write buffer's — a chunk
  // starting at max_ts can overhang by one pre-shrink partition length,
  // the same bound the raw read path prunes with.
  std::vector<std::pair<int64_t, int64_t>> dirty = extra_dirty;
  {
    std::lock_guard<std::mutex> mem_lock(mem_mu_);
    auto add_mem = [&dirty, overhang](const MemTable& m) {
      if (!m.empty()) dirty.emplace_back(m.min_ts(), m.max_ts() + overhang);
    };
    add_mem(*mem_);
    for (const auto& imm : immutables_) add_mem(*imm);
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Every fast-tier (L0/L1) table that may hold this series is newer than
  // the rollups too: its samples have not been folded into any bucket yet.
  for (const std::vector<Partition>* level : {&l0_, &l1_}) {
    for (const Partition& p : *level) {
      for (const TableHandle& t : p.tables) {
        if (t.meta.min_series_id > id || t.meta.max_series_id < id) continue;
        dirty.emplace_back(t.meta.min_ts, t.meta.max_ts + overhang);
      }
    }
  }

  // Bucket-expand each dirty span to a half-open g-aligned span: a bucket
  // is either wholly clean or wholly dirty, never split.
  std::vector<std::pair<int64_t, int64_t>> dirty_aligned;
  for (const auto& [lo, hi] : dirty) {
    if (lo > hi) continue;
    dirty_aligned.emplace_back(query::AlignDown(lo, g),
                               query::AlignDown(hi, g) + g);
  }

  // Subtracts sorted half-open `cuts` from [lo, hi); returns clean spans.
  const auto subtract =
      [](const std::vector<std::pair<int64_t, int64_t>>& cuts, int64_t lo,
         int64_t hi) {
        std::vector<std::pair<int64_t, int64_t>> clean;
        int64_t cursor = lo;
        for (const auto& [clo, chi] : cuts) {
          if (chi <= cursor || clo >= hi) continue;
          if (clo > cursor) clean.emplace_back(cursor, clo);
          cursor = std::max(cursor, chi);
          if (cursor >= hi) break;
        }
        if (cursor < hi) clean.emplace_back(cursor, hi);
        return clean;
      };

  const cloud::CircuitBreaker& slow_breaker = env_->slow().breaker();
  const bool slow_tier_down =
      slow_breaker.enabled() &&
      slow_breaker.state() == cloud::BreakerState::kOpen;

  std::vector<std::pair<int64_t, int64_t>> covered;  // half-open, g-aligned
  for (L2Partition& p : l2_) {
    if (p.rollups.empty()) continue;
    if (p.start >= interior_hi || p.end <= interior_lo) continue;
    TableHandle* handle = nullptr;
    for (TableHandle& t : p.rollups) {
      if (t.meta.rollup_granularity_ms == g) {
        handle = &t;
        break;
      }
    }
    if (handle == nullptr) continue;

    // Candidate span: g-buckets wholly inside both the partition and the
    // query interior (compaction trimmed buckets to the partition window,
    // so nothing outside it exists in the table anyway).
    const int64_t cand_lo = std::max(interior_lo, query::AlignUp(p.start, g));
    const int64_t cand_hi =
        std::min(interior_hi, query::AlignDown(p.end, g));
    if (cand_lo >= cand_hi) continue;

    std::vector<std::pair<int64_t, int64_t>> cuts = dirty_aligned;
    for (const auto& [lo, hi] : p.rollup_dirty) {
      if (lo > hi) continue;
      cuts.emplace_back(query::AlignDown(lo, g), query::AlignDown(hi, g) + g);
    }
    std::sort(cuts.begin(), cuts.end());
    const auto clean = subtract(cuts, cand_lo, cand_hi);
    if (clean.empty()) continue;

    // Unreachable (breaker open) or unreadable rollup table: demote the
    // whole partition to the raw path, which reports its own exact missing
    // spans — breaker-open completeness composes unchanged.
    if (handle->on_slow && slow_tier_down) continue;
    if (!OpenReader(handle).ok()) continue;

    // One rollup chunk per series per table. A bloom miss or an id outside
    // the table's range means the series genuinely has no samples in this
    // window — covered with zero buckets, NOT a raw fallback.
    std::vector<compress::RollupBucket> buckets;
    if (handle->meta.min_series_id <= id && handle->meta.max_series_id >= id &&
        handle->reader->MayContainId(id)) {
      auto it = handle->reader->NewIterator();
      it->Seek(MakeInternalKey(MakeChunkKey(id, INT64_MIN), UINT64_MAX));
      if (it->Valid() && ChunkKeyId(InternalKeyUserKey(it->key())) == id) {
        const Slice value = it->value();
        uint64_t chunk_seq = 0;
        int64_t chunk_g = 0;
        if (ChunkValueType(value) != ChunkType::kRollup ||
            !compress::DecodeRollupChunk(ChunkValuePayload(value), &chunk_seq,
                                         &chunk_g, &buckets)
                 .ok() ||
            chunk_g != g) {
          continue;  // corrupt rollup chunk -> raw path for this partition
        }
      } else if (!it->status().ok()) {
        continue;
      }
    }

    size_t served = 0;
    for (const auto& [lo, hi] : clean) {
      covered.emplace_back(lo, hi);
      for (const compress::RollupBucket& b : buckets) {
        if (b.start >= lo && b.start + g <= hi) {
          out->buckets.push_back(b);
          ++served;
        }
      }
    }
    if (ctx.stats != nullptr) ctx.stats->rollup_buckets_served += served;
  }

  // Raw spans = the complement of the covered spans within [t0, t1].
  std::sort(covered.begin(), covered.end());
  int64_t cursor = t0;
  for (const auto& [lo, hi] : covered) {
    if (cursor > t1) break;
    if (lo > cursor) out->raw_spans.emplace_back(cursor, lo - 1);
    cursor = std::max(cursor, hi);
  }
  if (cursor <= t1) out->raw_spans.emplace_back(cursor, t1);
  std::sort(out->buckets.begin(), out->buckets.end(),
            [](const compress::RollupBucket& a,
               const compress::RollupBucket& b) { return a.start < b.start; });
  return Status::OK();
}

uint64_t TimePartitionedLsm::FastBytesUsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Partition& p : l0_) {
    for (const TableHandle& t : p.tables) total += t.meta.file_size;
  }
  for (const Partition& p : l1_) {
    for (const TableHandle& t : p.tables) total += t.meta.file_size;
  }
  // Deferred L2 tables occupy the same budget until they drain.
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      if (!e.base.on_slow) total += e.base.meta.file_size;
      for (const TableHandle& t : e.patches) {
        if (!t.on_slow) total += t.meta.file_size;
      }
    }
    for (const TableHandle& t : p.rollups) {
      if (!t.on_slow) total += t.meta.file_size;
    }
  }
  return total;
}

void TimePartitionedLsm::UpdateFastResidentGaugeLocked() {
  uint64_t total = 0;
  for (const Partition& p : l0_) {
    for (const TableHandle& t : p.tables) total += t.meta.file_size;
  }
  for (const Partition& p : l1_) {
    for (const TableHandle& t : p.tables) total += t.meta.file_size;
  }
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      if (!e.base.on_slow) total += e.base.meta.file_size;
      for (const TableHandle& t : e.patches) {
        if (!t.on_slow) total += t.meta.file_size;
      }
    }
    for (const TableHandle& t : p.rollups) {
      if (!t.on_slow) total += t.meta.file_size;
    }
  }
  fast_resident_bytes_.store(total, std::memory_order_relaxed);
}

uint64_t TimePartitionedLsm::SlowBytesUsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      total += e.base.meta.file_size;
      for (const TableHandle& t : e.patches) total += t.meta.file_size;
    }
    for (const TableHandle& t : p.rollups) total += t.meta.file_size;
  }
  return total;
}

size_t TimePartitionedLsm::NumL0Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l0_.size();
}

size_t TimePartitionedLsm::NumL1Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l1_.size();
}

size_t TimePartitionedLsm::NumL2Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l2_.size();
}

size_t TimePartitionedLsm::NumL2Patches() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) total += e.patches.size();
  }
  return total;
}

size_t TimePartitionedLsm::NumDeferredTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      if (!e.base.on_slow) ++total;
      for (const TableHandle& t : e.patches) {
        if (!t.on_slow) ++total;
      }
    }
    for (const TableHandle& t : p.rollups) {
      if (!t.on_slow) ++total;
    }
  }
  return total;
}

size_t TimePartitionedLsm::NumRollupTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const L2Partition& p : l2_) total += p.rollups.size();
  return total;
}

size_t TimePartitionedLsm::NumDirtyRollupPartitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const L2Partition& p : l2_) {
    if (!p.rollups.empty() && !p.rollup_dirty.empty()) ++total;
  }
  return total;
}

uint64_t TimePartitionedLsm::DeferredBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      if (!e.base.on_slow) total += e.base.meta.file_size;
      for (const TableHandle& t : e.patches) {
        if (!t.on_slow) total += t.meta.file_size;
      }
    }
    for (const TableHandle& t : p.rollups) {
      if (!t.on_slow) total += t.meta.file_size;
    }
  }
  return total;
}

Status TimePartitionedLsm::DrainDeferredUploads(size_t* drained) {
  if (drained != nullptr) *drained = 0;
  // One drain pass at a time; a tick overlapping an explicit call just
  // skips (the other pass is doing the work).
  std::unique_lock<std::mutex> drain_lock(drain_mu_, std::try_to_lock);
  if (!drain_lock.owns_lock()) return Status::OK();

  // While the breaker is firmly open, don't even attempt: the cooldown
  // hasn't elapsed, so every upload would be rejected up front. Once it
  // reports half-open, the first upload below IS the probe.
  if (env_->slow().breaker().enabled() &&
      env_->slow().breaker().state() == cloud::BreakerState::kOpen) {
    return Status::OK();
  }

  size_t done = 0;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    // Pick the oldest deferred table under the manifest lock...
    uint64_t table_id = 0;
    uint32_t table_crc = 0;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const L2Partition& p : l2_) {
        for (const L2Entry& e : p.entries) {
          if (!e.base.on_slow) {
            table_id = e.base.meta.table_id;
            table_crc = e.base.meta.object_crc32c;
            found = true;
            break;
          }
          for (const TableHandle& t : e.patches) {
            if (!t.on_slow) {
              table_id = t.meta.table_id;
              table_crc = t.meta.object_crc32c;
              found = true;
              break;
            }
          }
          if (found) break;
        }
        for (const TableHandle& t : p.rollups) {
          if (found) break;
          if (!t.on_slow) {
            table_id = t.meta.table_id;
            table_crc = t.meta.object_crc32c;
            found = true;
          }
        }
        if (found) break;
      }
    }
    if (!found) break;

    // ...then upload outside it (the slow tier sleeps; holding mu_ through
    // that would stall every flush and query). Verify the parked fast copy
    // against the manifest CRC first: uploading rotted bytes would replace
    // the one corruption the scrub could otherwise have repaired.
    std::string data;
    Status s = env_->fast().ReadFileToString(FastName(table_id), &data);
    if (s.ok() && table_crc != 0 &&
        crc32c::Value(data.data(), data.size()) != table_crc) {
      s = Status::Corruption("deferred table " + std::to_string(table_id) +
                             " corrupt on fast tier; not uploading");
    }
    if (s.ok()) s = UploadBufferToSlow(table_id, data, table_crc);
    if (!s.ok()) {
      // Outage persists (or re-tripped mid-drain): stop quietly, the next
      // tick retries. Anything already drained stays drained. Reported as
      // kDrain (noted, never latched) so the error handler can count it.
      stats_.deferred_drain_failures.fetch_add(1, std::memory_order_relaxed);
      RecordBackgroundError(BgWorkKind::kDrain, s);
      break;
    }

    // Flip the handle and commit the manifest; only then unlink the fast
    // copy (crash in between leaves a fast orphan for the open-time sweep,
    // never a manifest entry without bytes).
    bool flipped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (L2Partition& p : l2_) {
        auto flip = [&](TableHandle& t) {
          if (t.meta.table_id == table_id && !t.on_slow) {
            t.on_slow = true;
            t.reader.reset();  // readers reopen against the slow tier
            flipped = true;
          }
        };
        for (L2Entry& e : p.entries) {
          flip(e.base);
          for (TableHandle& t : e.patches) flip(t);
        }
        for (TableHandle& t : p.rollups) flip(t);
      }
      if (flipped) {
        Status ms = SaveManifest();
        if (!ms.ok()) return ms;
      }
    }
    if (!flipped) {
      // The table vanished while we uploaded (retention / patch merge):
      // remove the now-orphaned object, best effort.
      (void)env_->slow().DeleteObject(SlowKey(table_id));
      continue;
    }
    (void)env_->fast().DeleteFile(FastName(table_id));
    stats_.deferred_uploads_drained.fetch_add(1, std::memory_order_relaxed);
    ++done;
  }
  if (drained != nullptr) *drained = done;
  if (trace_ != nullptr && done > 0) {
    trace_->Record("deferred.drain", "tables=" + std::to_string(done));
  }
  return Status::OK();
}

Status TimePartitionedLsm::MaintainRollups(size_t* rederived) {
  if (rederived != nullptr) *rederived = 0;
  if (options_.rollup_granularities_ms.empty()) return Status::OK();
  // The re-merge reads the partition's slow-tier tables; while the breaker
  // is open every one of those reads would fail. Keep the dirty spans —
  // the planner serves them raw until the tier heals.
  if (env_->slow().breaker().enabled() &&
      env_->slow().breaker().state() == cloud::BreakerState::kOpen) {
    return Status::OK();
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Budget: at most one partition per call — the re-merge reads the whole
  // partition, so this keeps a maintenance tick bounded.
  for (L2Partition& p : l2_) {
    if (p.rollups.empty() || p.rollup_dirty.empty()) continue;

    std::vector<TableHandle*> inputs;
    for (L2Entry& e : p.entries) {
      inputs.push_back(&e.base);
      for (TableHandle& t : e.patches) inputs.push_back(&t);
    }
    RollupBuild build;
    build.w_start = p.start;
    build.w_end = p.end;
    build.skip_raw = true;  // refresh the rollups, keep the raw tables
    std::vector<MergeSegment> outputs;  // stays empty under skip_raw
    Status s = MergePartitionTables(inputs, {p.start, p.end}, /*to_slow=*/true,
                                    &outputs, &build);
    if (!s.ok()) {
      for (const TableHandle& t : build.tables) (void)DeleteTable(t);
      return s;
    }

    // Same durability order as compactions: the manifest references the
    // fresh rollups before the stale ones are unlinked.
    std::vector<TableHandle> stale = std::move(p.rollups);
    p.rollups = std::move(build.tables);
    p.rollup_dirty.clear();
    TU_RETURN_IF_ERROR(SaveManifest());
    for (const TableHandle& t : stale) (void)DeleteTable(t);

    stats_.rollup_partitions_rederived.fetch_add(1, std::memory_order_relaxed);
    if (rederived != nullptr) *rederived = 1;
    if (trace_ != nullptr) {
      trace_->Record("rollup.rederive",
                     "partition_start=" + std::to_string(p.start));
    }
    break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scrub support (core::Scrubber)
// ---------------------------------------------------------------------------

namespace {

/// In-memory TableSource over already-downloaded bytes; lets the scrub
/// block-walk a table it has just read without touching the tier again.
class BufferTableSource : public TableSource {
 public:
  explicit BufferTableSource(const std::string* data) : data_(data) {}
  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
    if (offset > data_->size() || n > data_->size() - offset) {
      return Status::Corruption("short table read");
    }
    out->assign(data_->data() + offset, n);
    return Status::OK();
  }
  uint64_t Size() const override { return data_->size(); }

 private:
  const std::string* data_;
};

/// Structural verification for tables built before whole-file checksums
/// existed (object_crc32c == 0 in the manifest): parse the footer/index and
/// walk every data block so each per-block CRC is checked.
Status VerifyTableBlocks(const std::string& data) {
  TableReaderOptions opts;
  opts.corrupt_read_retries = 0;  // the source is a buffer; retries are moot
  std::unique_ptr<TableSource> source =
      std::make_unique<BufferTableSource>(&data);
  std::unique_ptr<TableReader> reader;
  TU_RETURN_IF_ERROR(TableReader::Open(opts, std::move(source), &reader));
  auto it = reader->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
  }
  return it->status();
}

}  // namespace

std::vector<TimePartitionedLsm::TableListEntry> TimePartitionedLsm::ListTables()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableListEntry> out;
  auto add = [&out](const TableHandle& t) {
    out.push_back(TableListEntry{t.meta.table_id, t.on_slow, t.meta.file_size,
                                 t.meta.object_crc32c});
  };
  for (const Partition& p : l0_) {
    for (const TableHandle& t : p.tables) add(t);
  }
  for (const Partition& p : l1_) {
    for (const TableHandle& t : p.tables) add(t);
  }
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      add(e.base);
      for (const TableHandle& t : e.patches) add(t);
    }
    for (const TableHandle& t : p.rollups) add(t);
  }
  std::sort(out.begin(), out.end(),
            [](const TableListEntry& a, const TableListEntry& b) {
              return a.table_id < b.table_id;
            });
  return out;
}

TableHandle* TimePartitionedLsm::FindTableLocked(uint64_t table_id) {
  for (std::vector<Partition>* level : {&l0_, &l1_}) {
    for (Partition& p : *level) {
      for (TableHandle& t : p.tables) {
        if (t.meta.table_id == table_id) return &t;
      }
    }
  }
  for (L2Partition& p : l2_) {
    for (L2Entry& e : p.entries) {
      if (e.base.meta.table_id == table_id) return &e.base;
      for (TableHandle& t : e.patches) {
        if (t.meta.table_id == table_id) return &t;
      }
    }
    for (TableHandle& t : p.rollups) {
      if (t.meta.table_id == table_id) return &t;
    }
  }
  return nullptr;
}

int64_t TimePartitionedLsm::DataBoundLocked(uint64_t table_id) const {
  for (const std::vector<Partition>* level : {&l0_, &l1_}) {
    for (const Partition& p : *level) {
      for (const TableHandle& t : p.tables) {
        if (t.meta.table_id == table_id) {
          return t.meta.max_ts + options_.partition_upper_bound_ms;
        }
      }
    }
  }
  for (const L2Partition& p : l2_) {
    for (const L2Entry& e : p.entries) {
      if (e.base.meta.table_id == table_id) return p.end - 1;
      for (const TableHandle& t : e.patches) {
        if (t.meta.table_id == table_id) return p.end - 1;
      }
    }
    for (const TableHandle& t : p.rollups) {
      if (t.meta.table_id == table_id) return p.end - 1;
    }
  }
  return 0;
}

bool TimePartitionedLsm::RemoveTableLocked(uint64_t table_id) {
  for (std::vector<Partition>* level : {&l0_, &l1_}) {
    for (Partition& p : *level) {
      const size_t before = p.tables.size();
      std::erase_if(p.tables, [table_id](const TableHandle& t) {
        return t.meta.table_id == table_id;
      });
      if (p.tables.size() != before) {
        std::erase_if(*level,
                      [](const Partition& q) { return q.tables.empty(); });
        return true;
      }
    }
  }
  for (L2Partition& p : l2_) {
    for (size_t i = 0; i < p.entries.size(); ++i) {
      L2Entry& e = p.entries[i];
      if (e.base.meta.table_id == table_id) {
        // The base goes; its patches still carry valid data — promote each
        // to a standalone entry (same rule as RecoverStorageState).
        std::vector<TableHandle> patches = std::move(e.patches);
        p.entries.erase(p.entries.begin() + static_cast<ptrdiff_t>(i));
        for (TableHandle& t : patches) {
          L2Entry promoted;
          promoted.base = std::move(t);
          p.entries.push_back(std::move(promoted));
        }
        std::sort(p.entries.begin(), p.entries.end(),
                  [](const L2Entry& a, const L2Entry& b) {
                    return a.base.meta.min_series_id < b.base.meta.min_series_id;
                  });
        std::erase_if(l2_,
                      [](const L2Partition& q) { return q.entries.empty(); });
        return true;
      }
      const size_t before = e.patches.size();
      std::erase_if(e.patches, [table_id](const TableHandle& t) {
        return t.meta.table_id == table_id;
      });
      if (e.patches.size() != before) return true;
    }
    // Removing a rollup table just degrades its partition to the raw path —
    // no promotion or partition pruning needed.
    const size_t before = p.rollups.size();
    std::erase_if(p.rollups, [table_id](const TableHandle& t) {
      return t.meta.table_id == table_id;
    });
    if (p.rollups.size() != before) return true;
  }
  return false;
}

Status TimePartitionedLsm::ScrubOneTable(uint64_t table_id, bool repair,
                                         ScrubOutcome* outcome,
                                         std::string* detail,
                                         uint64_t* bytes_verified) {
  *outcome = ScrubOutcome::kSkipped;
  detail->clear();

  // Snapshot the handle's metadata under the lock; all tier I/O below runs
  // outside it (a slow-tier download under mu_ would stall every flush).
  bool on_slow = false;
  TableMeta meta;
  int64_t max_data_ts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TableHandle* t = FindTableLocked(table_id);
    if (t == nullptr) {
      *detail = "not in manifest (raced a compaction?)";
      return Status::OK();
    }
    on_slow = t->on_slow;
    meta = t->meta;
    max_data_ts = DataBoundLocked(table_id);
  }
  const uint64_t file_size = meta.file_size;
  const uint32_t crc = meta.object_crc32c;

  // Reads the table's bytes from one tier. NotFound counts as corruption
  // (the manifest says the copy should exist); other failures are
  // environmental and abort the scrub of this table.
  auto read_copy = [&](bool slow, std::string* data) -> Status {
    if (slow) {
      cloud::ObjectStore& store = env_->slow();
      return cloud::RunWithRetry(
          store.sim().retry, &store.counters(), "scrub get " + SlowKey(table_id),
          [&] { return store.GetObject(SlowKey(table_id), data); },
          &shutting_down_);
    }
    return env_->fast().ReadFileToString(FastName(table_id), data);
  };
  auto verify_copy = [&](const std::string& data) -> Status {
    if (bytes_verified != nullptr) *bytes_verified += data.size();
    if (file_size != 0 && data.size() != file_size) {
      return Status::Corruption("size " + std::to_string(data.size()) +
                                " != manifest " + std::to_string(file_size));
    }
    if (crc != 0) {
      if (crc32c::Value(data.data(), data.size()) != crc) {
        return Status::Corruption("whole-file crc mismatch");
      }
      return Status::OK();
    }
    return VerifyTableBlocks(data);
  };

  std::string primary;
  Status s = read_copy(on_slow, &primary);
  if (s.ok()) s = verify_copy(primary);
  if (s.ok()) {
    // A runtime quarantine (read-path verdict) is overruled by a clean
    // full verification — e.g. the poisoning was a since-healed transient
    // flip during open. Lift it so queries use the table again.
    std::lock_guard<std::mutex> lock(mu_);
    if (TableHandle* t = FindTableLocked(table_id);
        t != nullptr && t->quarantined) {
      t->quarantined = false;
      t->reader.reset();
    }
    *outcome = ScrubOutcome::kClean;
    return Status::OK();
  }
  if (!s.IsCorruption() && !s.IsNotFound()) return s;  // tier unreachable
  const std::string primary_fault = s.ToString();

  if (!repair) {
    *outcome = ScrubOutcome::kCorrupt;
    *detail = primary_fault;
    return Status::OK();
  }

  // The other tier may hold a healthy duplicate: a deferred L2 table's slow
  // copy uploaded just before a crash, or a fast copy not yet unlinked
  // after a drain. Verify before trusting it — repairing from rot would
  // just copy the disease.
  std::string alt;
  Status alt_read = read_copy(!on_slow, &alt);
  Status alt_ok = alt_read.ok() ? verify_copy(alt) : alt_read;
  if (alt_ok.ok()) {
    if (on_slow) {
      TU_RETURN_IF_ERROR(UploadBufferToSlow(table_id, alt, crc));
    } else {
      TU_RETURN_IF_ERROR(
          env_->fast().WriteStringToFile(FastName(table_id), alt));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (TableHandle* t = FindTableLocked(table_id); t != nullptr) {
      t->reader.reset();  // readers reopen against the healed bytes
      t->quarantined = false;
    }
    *outcome = ScrubOutcome::kRepaired;
    *detail = primary_fault + "; repaired from " +
              (on_slow ? "fast" : "slow") + " tier copy";
    return Status::OK();
  }
  if (!alt_ok.IsCorruption() && !alt_ok.IsNotFound()) {
    // Can't tell whether a healthy copy exists (tier down): leave the
    // table alone, the next pass decides.
    return alt_ok;
  }

  // No healthy copy anywhere: make the quarantine durable. The corrupt
  // bytes are deleted best-effort — the open-time sweep catches leftovers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!RemoveTableLocked(table_id)) {
      *detail = "vanished during scrub";
      return Status::OK();
    }
    quarantined_.push_back(QuarantinedTable{
        table_id, on_slow, primary_fault, meta.min_series_id,
        meta.max_series_id, meta.min_ts, max_data_ts});
    stats_.tables_quarantined.fetch_add(1, std::memory_order_relaxed);
    TU_RETURN_IF_ERROR(SaveManifest());
  }
  TableHandle doomed;
  doomed.meta.table_id = table_id;
  doomed.on_slow = on_slow;
  (void)DeleteTable(doomed);
  doomed.on_slow = !on_slow;
  (void)DeleteTable(doomed);
  *outcome = ScrubOutcome::kQuarantined;
  *detail = primary_fault + "; no healthy copy (" + alt_ok.ToString() + ")";
  return Status::OK();
}

void TimePartitionedLsm::RecordBackgroundError(BgWorkKind kind,
                                               const Status& s) {
  if (options_.on_background_error) options_.on_background_error(kind, s);
}

}  // namespace tu::lsm
