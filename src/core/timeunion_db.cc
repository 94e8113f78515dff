#include "core/timeunion_db.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <span>

#include <chrono>
#include <thread>

#include "lsm/key_format.h"
#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace tu::core {

using compress::Sample;
using index::Label;
using index::Labels;
using index::TagMatcher;

namespace {

uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Monotonic milliseconds for the error handler's resume-backoff clock.
int64_t SteadyNowMs() {
  return static_cast<int64_t>(obs::MonotonicUs() / 1000);
}

/// The WAL's directory on the fast tier.
constexpr char kWalDir[] = "wal";

/// Slot size of the group timestamp and value chunk arrays.
constexpr size_t kGroupChunkBytes = 192;

/// Segment size under a live-log budget: the full segment, or a quarter of
/// the budget when that is smaller, so the budget always spans several
/// segments and forcing a flush can retire one.
uint64_t WalSegmentBytes(uint64_t budget) {
  return std::clamp<uint64_t>(budget / 4, 256, WalWriter::kSegmentBytes);
}

/// Splits the rows one series took from a ref-run into kSampleRun records:
/// consecutive rows whose head seqs are contiguous share one record.
class SeqRunLogger {
 public:
  SeqRunLogger(WalBatch* wal, uint64_t id, const int64_t* ts,
               const double* values)
      : wal_(wal), id_(id), ts_(ts), values_(values) {}
  ~SeqRunLogger() { Finish(); }

  /// Row `k` (an index into ts/values) was appended with head seq `seq`.
  void Add(size_t k, uint64_t seq) {
    if (len_ > 0 && k == begin_ + len_ && seq == seq_ + len_) {
      ++len_;
      return;
    }
    Finish();
    begin_ = k;
    seq_ = seq;
    len_ = 1;
  }

  void Finish() {
    if (len_ == 0) return;
    wal_->AddSampleRun(id_, seq_, ts_ + begin_, values_ + begin_, len_);
    len_ = 0;
  }

 private:
  WalBatch* wal_;
  uint64_t id_;
  const int64_t* ts_;
  const double* values_;
  size_t begin_ = 0;
  uint64_t seq_ = 0;
  size_t len_ = 0;
};

core::BgErrorScope ScopeForLsmWork(lsm::BgWorkKind kind) {
  switch (kind) {
    case lsm::BgWorkKind::kFlush: return BgErrorScope::kFlush;
    case lsm::BgWorkKind::kCompaction: return BgErrorScope::kCompaction;
    case lsm::BgWorkKind::kDrain: return BgErrorScope::kDeferredDrain;
  }
  return BgErrorScope::kFlush;
}

}  // namespace

Status DBOptions::Validate() const {
  if (samples_per_chunk == 0) {
    return Status::InvalidArgument(
        "DBOptions::samples_per_chunk must be greater than 0");
  }
  if (registry_shards == 0) {
    return Status::InvalidArgument(
        "DBOptions::registry_shards must be greater than 0");
  }
  if (append_lock_stripes == 0) {
    return Status::InvalidArgument(
        "DBOptions::append_lock_stripes must be greater than 0");
  }
  if (retention_ms < 0) {
    return Status::InvalidArgument("DBOptions::retention_ms must be >= 0");
  }
  if (enable_wal && wal_purge_bytes == 0) {
    return Status::InvalidArgument(
        "DBOptions::wal_purge_bytes must be greater than 0 when the WAL is "
        "enabled");
  }
  if (scrub.enabled && backend == Backend::kLeveled) {
    return Status::InvalidArgument(
        "DBOptions::scrub requires the time-partitioned backend (the scrub "
        "walks the two-tier manifest)");
  }
  if (admission.enabled) {
    if (admission.hard_watermark < admission.soft_watermark) {
      return Status::InvalidArgument(
          "DBOptions::admission.hard_watermark must be >= "
          "admission.soft_watermark");
    }
    if (lsm.fast_storage_limit_bytes == 0) {
      return Status::InvalidArgument(
          "DBOptions::lsm.fast_storage_limit_bytes must be set when "
          "admission control is enabled");
    }
  }
  if (!lsm.rollup_granularities_ms.empty()) {
    if (backend == Backend::kLeveled) {
      return Status::InvalidArgument(
          "DBOptions::lsm.rollup_granularities_ms requires the "
          "time-partitioned backend (rollups live in its L2 partitions)");
    }
    const int64_t finest = lsm.rollup_granularities_ms.front();
    for (size_t i = 0; i < lsm.rollup_granularities_ms.size(); ++i) {
      const int64_t g = lsm.rollup_granularities_ms[i];
      if (g <= 0) {
        return Status::InvalidArgument(
            "DBOptions::lsm.rollup_granularities_ms entries must be > 0");
      }
      if (i > 0 && g <= lsm.rollup_granularities_ms[i - 1]) {
        return Status::InvalidArgument(
            "DBOptions::lsm.rollup_granularities_ms must be strictly "
            "ascending (no duplicates)");
      }
      if (g % finest != 0) {
        // Keeps the resolutions nested, so any step a coarse granularity
        // divides is also exactly representable at the finest one.
        return Status::InvalidArgument(
            "DBOptions::lsm.rollup_granularities_ms: each granularity must "
            "be a multiple of the finest");
      }
    }
  }
  return Status::OK();
}

TimeUnionDB::TimeUnionDB(DBOptions options)
    : options_(std::move(options)),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      error_handler_(options_.error_handler),
      append_locks_(std::max<uint32_t>(1, options_.append_lock_stripes)),
      sample_cells_(std::make_unique<StripeCell[]>(append_locks_.stripes())) {
  const uint32_t shards =
      RoundUpPow2(std::max<uint32_t>(1, options_.registry_shards));
  shard_mask_ = shards - 1;
  key_shards_ = std::make_unique<KeyShard[]>(shards);
  entry_shards_ = std::make_unique<EntryShard[]>(shards);
}

TimeUnionDB::~TimeUnionDB() {
  if (maintenance_) maintenance_->Stop();
  // Tear down the LSM before the WAL writer: its background flush workers
  // fire the on_flush hook, which appends flush marks through wal_. Member
  // destruction alone would run in reverse declaration order and free wal_
  // while those workers can still be draining.
  time_lsm_ = nullptr;
  leveled_lsm_ = nullptr;
  lsm_.reset();
  wal_.reset();
  MemoryTracker::Global().Sub(MemCategory::kTags, registry_bytes_);
}

Status TimeUnionDB::Open(DBOptions options, std::unique_ptr<TimeUnionDB>* db) {
  TU_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<TimeUnionDB> result(new TimeUnionDB(std::move(options)));
  TU_RETURN_IF_ERROR(result->Init());
  *db = std::move(result);
  return Status::OK();
}

Status TimeUnionDB::Init() {
  // Record breaker transitions into the event trace. Installed before the
  // env is built so the breaker never sees a half-wired callback; the
  // registry is declared before env_ and therefore outlives it.
  if (!options_.env_options.slow_sim.breaker.on_transition) {
    obs::EventTrace* trace = &metrics_->trace();
    options_.env_options.slow_sim.breaker.on_transition =
        [trace](cloud::BreakerState from, cloud::BreakerState to) {
          trace->Record("breaker",
                        std::string(cloud::BreakerStateName(from)) + "->" +
                            cloud::BreakerStateName(to));
        };
  }
  h_ingest_append_ = metrics_->histogram("ingest.append_us");
  h_group_append_ = metrics_->histogram("ingest.group_append_us");
  h_wal_append_ = metrics_->histogram("wal.append_us");
  h_chunk_flush_ = metrics_->histogram("flush.chunk_us");
  h_query_e2e_ = metrics_->histogram("query.e2e_us");
  h_query_setup_ = metrics_->histogram("query.setup_us");
  h_query_index_select_ = metrics_->histogram("query.index_select_us");
  c_rows_ = metrics_->counter("ingest.rows");
  c_wal_appends_ = metrics_->counter("wal.appends");
  c_wal_forced_flushes_ = metrics_->counter("wal.forced_flushes");
  c_chunk_flushes_ = metrics_->counter("flush.chunks");
  env_ = std::make_unique<cloud::TieredEnv>(options_.workspace,
                                            options_.env_options);
  // Slow-tier op latency as charged by the cost model, attributed per op.
  env_->slow().set_op_latency_histograms(metrics_->histogram("slow.put_us"),
                                         metrics_->histogram("slow.get_us"));
  // block_cache_bytes == 0 disables caching outright (readers tolerate a
  // null cache) instead of running a sharded cache that evicts every block.
  if (options_.block_cache_bytes > 0) {
    block_cache_ =
        std::make_unique<lsm::BlockCache>(options_.block_cache_bytes);
  }

  // Mmap-backed structures are working storage; recovery rebuilds them from
  // the WAL, so a fresh open starts them clean.
  const std::string mmap_dir = env_->mmap_dir();
  TU_RETURN_IF_ERROR(RemoveDirRecursive(mmap_dir));
  TU_RETURN_IF_ERROR(EnsureDir(mmap_dir));

  index_ = std::make_unique<index::InvertedIndex>(mmap_dir, "index",
                                                  options_.trie);
  TU_RETURN_IF_ERROR(index_->Init());
  tag_store_ = std::make_unique<index::TagStore>(mmap_dir, "tags");
  series_chunks_ = std::make_unique<mem::ChunkArray>(
      mmap_dir, "series_chunks", options_.series_chunk_bytes);
  group_ts_chunks_ = std::make_unique<mem::ChunkArray>(
      mmap_dir, "group_ts_chunks", kGroupChunkBytes);
  group_val_chunks_ = std::make_unique<mem::ChunkArray>(
      mmap_dir, "group_val_chunks", kGroupChunkBytes);

  if (options_.backend == DBOptions::Backend::kLeveled) {
    // TU-LDB baseline: TimeUnion data model over a classic leveled LSM
    // (first two levels fast, deeper levels slow). WAL unsupported here.
    lsm::LeveledLsmOptions leveled_options = options_.leveled;
    leveled_options.metrics = metrics_.get();
    auto leveled = std::make_unique<lsm::LeveledLsm>(
        env_.get(), "lsm", leveled_options, block_cache_.get());
    leveled_lsm_ = leveled.get();
    lsm_ = std::move(leveled);
    TU_RETURN_IF_ERROR(lsm_->Open());
    return StartMaintenance();
  }

  lsm::TimeLsmOptions lsm_options = options_.lsm;
  lsm_options.metrics = metrics_.get();
  {
    // Every background error the LSM swallows feeds the DB's error-handler
    // state machine (classification, quiesce, auto-resume). A
    // caller-provided callback still runs afterwards.
    auto user_cb = lsm_options.on_background_error;
    lsm_options.on_background_error = [this, user_cb](lsm::BgWorkKind kind,
                                                      const Status& s) {
      error_handler_.OnBackgroundError(ScopeForLsmWork(kind), s,
                                       SteadyNowMs());
      if (user_cb) user_cb(kind, s);
    };
  }
  if (options_.enable_wal) {
    lsm_options.persist_manifest = true;
    lsm_options.on_flush = [this](const SeqMarks& id_seqs) {
      OnMemTableFlushed(id_seqs);
    };
  }
  auto time_lsm = std::make_unique<lsm::TimePartitionedLsm>(
      env_.get(), "lsm", lsm_options, block_cache_.get());
  time_lsm_ = time_lsm.get();
  lsm_ = std::move(time_lsm);
  TU_RETURN_IF_ERROR(options_.enable_wal ? OpenWal() : lsm_->Open());
  // The scrubber exists whenever the backend supports it — ScrubNow()
  // drills work even when the background tick is disabled.
  scrubber_ = std::make_unique<Scrubber>(time_lsm_, env_.get(),
                                         options_.scrub, metrics_.get());
  return StartMaintenance();
}

Status TimeUnionDB::StartMaintenance() {
  if (!options_.background_maintenance) return Status::OK();
  MaintenanceOptions mopts;
  mopts.interval_ms = options_.maintenance_interval_ms;
  mopts.retention_ms = options_.retention_ms;
  mopts.advise_memory_release = true;
  mopts.now = options_.maintenance_clock;
  maintenance_ = std::make_unique<MaintenanceWorker>(
      std::move(mopts), [this](int64_t watermark) {
        if (watermark != INT64_MIN) ApplyRetention(watermark);
        // Auto-resume: while writes are quiesced by a soft background
        // error, probe recovery under the handler's bounded backoff. The
        // first probe is due immediately, so a condition that already
        // cleared (space freed, fsync flake) heals within one tick.
        if (error_handler_.ShouldAttemptResume(SteadyNowMs())) {
          TryResumeInternal();
        }
        // Heal after a slow-tier outage: upload deferred L2 tables parked
        // on the fast tier. Cheap when nothing is deferred or the breaker
        // is still open; its first attempt doubles as the breaker's
        // half-open probe, so recovery needs no operator action.
        if (time_lsm_) time_lsm_->DrainDeferredUploads();
        // Re-derive rollups dirtied by out-of-order rewrites into compacted
        // windows, one partition per tick (budgeted: the re-merge reads the
        // whole partition). Failures stay inside the LSM's error reporting.
        if (time_lsm_) time_lsm_->MaintainRollups();
        // Budgeted integrity increment: verify a slice of the table set,
        // resuming at the persisted cursor (DBOptions::scrub).
        if (scrubber_ && options_.scrub.enabled) scrubber_->Tick();
        AdviseMemoryRelease();
        if (options_.metrics.emit_jsonl) EmitMetricsLine();
      });
  maintenance_->Start();
  return Status::OK();
}

Status TimeUnionDB::LogRegistration(const WalRecord& record) {
  if (!wal_) return Status::OK();
  Status s = wal_->AppendRegistration(record);
  if (!s.ok()) {
    // Background-class even though it fires on a foreground thread: the
    // log is poisoned and every write will fail until the resume probe
    // rotates it — classify, quiesce, auto-resume.
    error_handler_.OnBackgroundError(BgErrorScope::kWalAppend, s,
                                     SteadyNowMs());
  }
  return s;
}

void TimeUnionDB::NoteTooOldChunk(uint64_t id, uint64_t chunk_seq,
                                  uint64_t open_first_seq) {
  std::lock_guard<std::mutex> lock(marks_mu_);
  mark_clamps_[id].emplace_back(chunk_seq, open_first_seq - 1);
}

void TimeUnionDB::OnMemTableFlushed(const SeqMarks& id_seqs) {
  // §3.3: the memtable's chunks are durably in level 0, so every record at
  // or below each id's newest chunk seq is obsolete — except where that
  // chunk is a too-old single-sample chunk stamped while the open chunk
  // held older, unflushed samples. Chunks of one id enter memtables in seq
  // order and memtables flush oldest first, so only the newest chunk of
  // each id in this memtable decides; every clamp at or below it is spent.
  SeqMarks marks = id_seqs;
  {
    std::lock_guard<std::mutex> lock(marks_mu_);
    if (!mark_clamps_.empty()) {
      for (auto& [id, seq] : marks) {
        auto it = mark_clamps_.find(id);
        if (it == mark_clamps_.end()) continue;
        SeqMarks& clamps = it->second;
        size_t spent = 0;
        uint64_t mark = seq;
        for (; spent < clamps.size() && clamps[spent].first <= seq; ++spent) {
          if (clamps[spent].first == seq) mark = clamps[spent].second;
        }
        seq = mark;
        clamps.erase(clamps.begin(), clamps.begin() + spent);
        if (clamps.empty()) mark_clamps_.erase(it);
      }
    }
    if (replaying_) {
      held_marks_.insert(held_marks_.end(), marks.begin(), marks.end());
      return;
    }
  }
  if (!wal_) return;
  Status s = wal_->AppendMarks(marks);
  if (!s.ok()) {
    error_handler_.OnBackgroundError(BgErrorScope::kWalAppend, s,
                                     SteadyNowMs());
  }
}

void TimeUnionDB::MaybeForceWalFlush() {
  if (wal_->live_bytes() <= options_.wal_purge_bytes) return;
  if (forcing_wal_flush_.exchange(true, std::memory_order_acquire)) return;
  Status s = ForceWalFlush();
  forcing_wal_flush_.store(false, std::memory_order_release);
  if (!s.ok()) {
    error_handler_.OnBackgroundError(BgErrorScope::kFlush, s, SteadyNowMs());
  }
}

Status TimeUnionDB::ForceWalFlush() {
  uint64_t segment = 0;
  const SeqMarks pinning = wal_->PinningIds(&segment);
  // Once per oldest segment: when forcing did not retire it (the mark
  // append failed, say), forcing again would not either.
  if (pinning.empty() || segment <= forced_segment_) return Status::OK();
  forced_segment_ = segment;
  SeqMarks marks;
  marks.reserve(pinning.size());
  for (const auto& [id, pinned_seq] : pinning) {
    EntryShard& es = EntryShardFor(id);
    std::shared_lock<std::shared_mutex> shard_lock(es.mu);
    std::lock_guard<std::mutex> entry_lock(append_locks_.For(id));
    bool flushed = false;
    // With its open chunk closed, every sample of the id up to the head's
    // seq sits in a memtable; the FlushAll below puts it in level 0. An id
    // retention retired has nothing left to flush: its records are dead.
    uint64_t seq = pinned_seq;
    if (auto it = es.series.find(id); it != es.series.end()) {
      TU_RETURN_IF_ERROR(FlushSeriesChunk(it->second.head.get(), &flushed));
      seq = it->second.head->seq_id();
    } else if (auto git = es.groups.find(id); git != es.groups.end()) {
      TU_RETURN_IF_ERROR(FlushGroupChunk(&git->second, &flushed));
      seq = git->second.head->seq_id();
    }
    marks.emplace_back(id, seq);
  }
  TU_RETURN_IF_ERROR(lsm_->FlushAll());
  c_wal_forced_flushes_->Add();
  metrics_->trace().Record("wal.forced_flush",
                           "segment=" + std::to_string(segment) +
                               " ids=" + std::to_string(marks.size()));
  return wal_->AppendMarks(marks);
}

Status TimeUnionDB::OpenWal() {
  recovery_report_ = RecoveryReport{};
  WalLog log;
  TU_RETURN_IF_ERROR(WalLog::Load(&env_->fast(), kWalDir, &log));
  wal_ = std::make_unique<WalWriter>(
      &env_->fast(), kWalDir, WalSegmentBytes(options_.wal_purge_bytes),
      metrics_.get());
  TU_RETURN_IF_ERROR(wal_->Open(log));
  {
    std::lock_guard<std::mutex> lock(marks_mu_);
    replaying_ = true;
  }
  TU_RETURN_IF_ERROR(lsm_->Open());

  // Registrations first (REGISTRY holds them all), then every sample and
  // group row no mark covers, re-logged as it is applied. Replay is
  // single-threaded (maintenance has not started) but takes the normal
  // locks so the code stays valid under any future overlap.
  for (const WalRecord& r : log.registrations()) {
    TU_RETURN_IF_ERROR(ReplayRegistration(r, log));
  }
  constexpr size_t kRelogBytes = 1 << 20;
  WalBatch relog;
  Status s = log.ForEachRecord([&](const WalRecord& r) -> Status {
    TU_RETURN_IF_ERROR(ReplayRecord(r, log.mark(r.id), &relog));
    if (relog.data().size() < kRelogBytes) return Status::OK();
    TU_RETURN_IF_ERROR(wal_->Append(relog));
    relog.Clear();
    return Status::OK();
  });
  if (s.ok()) s = wal_->Append(relog);
  // The re-logged tail is durable before the segments it came from go.
  if (s.ok()) s = wal_->Sync();
  if (s.ok()) s = wal_->DropReplayedSegments();
  SeqMarks held;
  {
    std::lock_guard<std::mutex> lock(marks_mu_);
    replaying_ = false;
    held.swap(held_marks_);
  }
  if (s.ok()) s = wal_->AppendMarks(held);

  recovery_report_.wal = log.stats();
  if (time_lsm_ != nullptr) {
    recovery_report_.tables_quarantined =
        time_lsm_->stats().tables_quarantined.load(std::memory_order_relaxed);
    recovery_report_.orphans_swept =
        time_lsm_->stats().orphans_swept.load(std::memory_order_relaxed);
  }
  if (!log.stats().Clean() || recovery_report_.tables_quarantined > 0) {
    std::fprintf(stderr, "[timeunion_db] recovery: wal %s, quarantined=%llu\n",
                 log.stats().ToString().c_str(),
                 static_cast<unsigned long long>(
                     recovery_report_.tables_quarantined));
  }
  return s;
}

Status TimeUnionDB::ReplayRegistration(const WalRecord& r, const WalLog& log) {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  switch (r.type) {
    case WalRecordType::kRegisterSeries: {
      const std::string key = index::LabelsKey(r.labels);
      uint64_t existing = 0;
      if (LookupSeriesRef(key, &existing)) return Status::OK();
      uint64_t tag_offset = 0;
      TU_RETURN_IF_ERROR(tag_store_->Append(r.labels, &tag_offset));
      TU_RETURN_IF_ERROR(index_->Add(r.id, r.labels));
      SeriesEntry entry;
      entry.head = std::make_unique<mem::SeriesHead>(
          r.id, tag_offset, series_chunks_.get(), options_.samples_per_chunk);
      // New samples (and the chunks and marks stamped from them) must sort
      // after everything the log already holds for this id.
      entry.head->AdvanceSeq(log.seq_floor(r.id));
      entry.labels = r.labels;
      {
        EntryShard& es = EntryShardFor(r.id);
        std::unique_lock<std::shared_mutex> lock(es.mu);
        es.series.emplace(r.id, std::move(entry));
      }
      {
        KeyShard& ks = KeyShardFor(key);
        std::unique_lock<std::shared_mutex> lock(ks.mu);
        ks.series_by_key[key] = r.id;
      }
      next_id_ = std::max(next_id_, r.id + 1);
      return Status::OK();
    }
    case WalRecordType::kRegisterGroup: {
      const std::string key = index::LabelsKey(r.labels);
      uint64_t existing = 0;
      if (LookupGroupRef(key, &existing)) return Status::OK();
      uint64_t tag_offset = 0;
      TU_RETURN_IF_ERROR(tag_store_->Append(r.labels, &tag_offset));
      TU_RETURN_IF_ERROR(index_->Add(r.id, r.labels));
      GroupEntry entry;
      entry.head = std::make_unique<mem::GroupHead>(
          r.id, tag_offset, group_ts_chunks_.get(), group_val_chunks_.get(),
          options_.samples_per_chunk);
      entry.head->AdvanceSeq(log.seq_floor(r.id));
      entry.group_labels = r.labels;
      {
        EntryShard& es = EntryShardFor(r.id);
        std::unique_lock<std::shared_mutex> lock(es.mu);
        es.groups.emplace(r.id, std::move(entry));
      }
      {
        KeyShard& ks = KeyShardFor(key);
        std::unique_lock<std::shared_mutex> lock(ks.mu);
        ks.group_by_key[key] = r.id;
      }
      next_id_ = std::max(next_id_, r.id + 1);
      return Status::OK();
    }
    case WalRecordType::kRegisterMember: {
      EntryShard& es = EntryShardFor(r.id);
      std::shared_lock<std::shared_mutex> shard_lock(es.mu);
      auto it = es.groups.find(r.id);
      if (it == es.groups.end()) {
        return Status::Corruption("wal member before group");
      }
      GroupEntry& entry = it->second;
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(r.id));
      const std::string key = index::LabelsKey(r.labels);
      if (entry.head->FindMember(key) >= 0) return Status::OK();
      uint64_t tag_offset = 0;
      TU_RETURN_IF_ERROR(tag_store_->Append(r.labels, &tag_offset));
      TU_RETURN_IF_ERROR(index_->Add(r.id, r.labels));
      uint32_t slot = 0;
      TU_RETURN_IF_ERROR(entry.head->AddMember(tag_offset, key, &slot));
      entry.member_labels.resize(
          std::max<size_t>(entry.member_labels.size(), slot + 1));
      entry.member_labels[slot] = r.labels;
      return Status::OK();
    }
    default:
      return Status::Corruption("wal registry holds a non-registration record");
  }
}

Status TimeUnionDB::ReplayRecord(const WalRecord& r, uint64_t mark,
                                 WalBatch* relog) {
  switch (r.type) {
    case WalRecordType::kSampleRun: {
      // Sample k carries seq r.seq + k; those at or below the mark are in
      // the LSM already.
      const size_t n = r.timestamps.size();
      const size_t skip =
          mark >= r.seq ? static_cast<size_t>(
                              std::min<uint64_t>(n, mark - r.seq + 1))
                        : 0;
      if (skip == n) return Status::OK();
      EntryShard& es = EntryShardFor(r.id);
      std::shared_lock<std::shared_mutex> shard_lock(es.mu);
      auto found = es.series.find(r.id);
      if (found == es.series.end()) {
        return Status::Corruption("wal sample before register");
      }
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(r.id));
      SeqRunLogger logger(relog, r.id, r.timestamps.data(), r.values.data());
      for (size_t k = skip; k < n; ++k) {
        TU_RETURN_IF_ERROR(
            AppendToSeries(&found->second, r.timestamps[k], r.values[k]));
        logger.Add(k, found->second.head->seq_id());
      }
      return Status::OK();
    }
    case WalRecordType::kGroupRow: {
      if (r.seq <= mark) return Status::OK();
      EntryShard& es = EntryShardFor(r.id);
      std::shared_lock<std::shared_mutex> shard_lock(es.mu);
      auto found = es.groups.find(r.id);
      if (found == es.groups.end()) {
        return Status::Corruption("wal group sample before register");
      }
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(r.id));
      for (uint32_t slot : r.slots) {
        if (slot >= found->second.head->num_members()) {
          return Status::Corruption("wal group row before its member");
        }
      }
      return AppendRowToGroup(&found->second, r.slots, r.ts, r.values, relog);
    }
    default:
      return Status::OK();  // marks were consumed by WalLog::Load
  }
}

Status TimeUnionDB::SyncWal() {
  if (!wal_) return Status::OK();
  Status s = wal_->Sync();
  if (!s.ok()) {
    // fsyncgate discipline: a failed fsync poisons the writer (the kernel
    // may have dropped the dirty pages while marking them clean). Quiesce
    // writes; the resume probe rotates the log, replaying the unacked
    // in-memory tail into a fresh durable file.
    error_handler_.OnBackgroundError(BgErrorScope::kWalSync, s, SteadyNowMs());
  }
  return s;
}

Status TimeUnionDB::TryResumeInternal() {
  error_handler_.OnResumeAttempt();
  Status probe;
  // Order matters: rotate a poisoned WAL first so the retried flushes'
  // flush marks land in a healthy log.
  if (wal_ && !wal_->poison().ok()) probe = wal_->Rotate();
  if (probe.ok() && time_lsm_ != nullptr) {
    probe = time_lsm_->RetryBackgroundWork();
  }
  if (probe.ok()) {
    error_handler_.OnResumeSuccess();
    metrics_->trace().Record("resume", "recovered");
  } else {
    error_handler_.OnResumeFailure(probe, SteadyNowMs());
    metrics_->trace().Record("resume", "failed: " + probe.ToString());
  }
  return probe;
}

Status TimeUnionDB::Resume() {
  if (error_handler_.health() == DbHealth::kHealthy) return Status::OK();
  if (!error_handler_.CanResume()) {
    return Status::Unavailable(
        "db is fatal after background error; reopen required (" +
        error_handler_.LastError().ToString() + ")");
  }
  return TryResumeInternal();
}

// ---------------------------------------------------------------------------
// Registry lookups and slow-path registration
// ---------------------------------------------------------------------------

bool TimeUnionDB::LookupSeriesRef(const std::string& key,
                                  uint64_t* ref) const {
  KeyShard& ks = KeyShardFor(key);
  std::shared_lock<std::shared_mutex> lock(ks.mu);
  auto it = ks.series_by_key.find(key);
  if (it == ks.series_by_key.end()) return false;
  *ref = it->second;
  return true;
}

bool TimeUnionDB::LookupGroupRef(const std::string& key, uint64_t* ref) const {
  KeyShard& ks = KeyShardFor(key);
  std::shared_lock<std::shared_mutex> lock(ks.mu);
  auto it = ks.group_by_key.find(key);
  if (it == ks.group_by_key.end()) return false;
  *ref = it->second;
  return true;
}

Status TimeUnionDB::RegisterSeriesSlow(const Labels& sorted,
                                       const std::string& key,
                                       uint64_t* series_ref) {
  // Double-check under reg_mu_: another registrar may have won the race
  // between the caller's lock-free lookup and this point.
  if (LookupSeriesRef(key, series_ref)) return Status::OK();

  const uint64_t id = next_id_++;
  uint64_t tag_offset = 0;
  TU_RETURN_IF_ERROR(tag_store_->Append(sorted, &tag_offset));
  TU_RETURN_IF_ERROR(index_->Add(id, sorted));

  SeriesEntry fresh;
  fresh.head = std::make_unique<mem::SeriesHead>(
      id, tag_offset, series_chunks_.get(), options_.samples_per_chunk);
  fresh.labels = sorted;
  // Publish the entry before the key mapping, so a ref resolved through
  // the key map always finds its entry.
  {
    EntryShard& es = EntryShardFor(id);
    std::unique_lock<std::shared_mutex> lock(es.mu);
    es.series.emplace(id, std::move(fresh));
  }
  {
    KeyShard& ks = KeyShardFor(key);
    std::unique_lock<std::shared_mutex> lock(ks.mu);
    ks.series_by_key[key] = id;
  }
  *series_ref = id;

  const int64_t bytes =
      static_cast<int64_t>(key.size() + sizeof(SeriesEntry) + 64);
  registry_bytes_ += bytes;
  MemoryTracker::Global().Add(MemCategory::kTags, bytes);

  WalRecord reg;
  reg.type = WalRecordType::kRegisterSeries;
  reg.id = id;
  reg.labels = sorted;
  return LogRegistration(reg);
}

Status TimeUnionDB::RegisterGroupSlow(const Labels& sorted_group,
                                      const std::string& group_key,
                                      uint64_t* group_ref) {
  if (LookupGroupRef(group_key, group_ref)) return Status::OK();

  const uint64_t id = next_id_++;
  uint64_t tag_offset = 0;
  TU_RETURN_IF_ERROR(tag_store_->Append(sorted_group, &tag_offset));
  // Group tags are indexed once with the group ID as postings ID (§3.1).
  TU_RETURN_IF_ERROR(index_->Add(id, sorted_group));

  GroupEntry fresh;
  fresh.head = std::make_unique<mem::GroupHead>(
      id, tag_offset, group_ts_chunks_.get(), group_val_chunks_.get(),
      options_.samples_per_chunk);
  fresh.group_labels = sorted_group;
  {
    EntryShard& es = EntryShardFor(id);
    std::unique_lock<std::shared_mutex> lock(es.mu);
    es.groups.emplace(id, std::move(fresh));
  }
  {
    KeyShard& ks = KeyShardFor(group_key);
    std::unique_lock<std::shared_mutex> lock(ks.mu);
    ks.group_by_key[group_key] = id;
  }
  *group_ref = id;

  const int64_t bytes =
      static_cast<int64_t>(group_key.size() + sizeof(GroupEntry) + 64);
  registry_bytes_ += bytes;
  MemoryTracker::Global().Add(MemCategory::kTags, bytes);

  WalRecord reg;
  reg.type = WalRecordType::kRegisterGroup;
  reg.id = id;
  reg.labels = sorted_group;
  return LogRegistration(reg);
}

Status TimeUnionDB::RegisterSeries(const Labels& labels,
                                   uint64_t* series_ref) {
  Labels sorted = labels;
  index::SortLabels(&sorted);
  const std::string key = index::LabelsKey(sorted);
  if (LookupSeriesRef(key, series_ref)) return Status::OK();
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  return RegisterSeriesSlow(sorted, key, series_ref);
}

// ---------------------------------------------------------------------------
// Write paths
// ---------------------------------------------------------------------------

Status TimeUnionDB::FlushSeriesChunk(mem::SeriesHead* head, bool* flushed) {
  std::string payload;
  int64_t first_ts = 0;
  *flushed = head->CloseChunk(&payload, &first_ts);
  if (!*flushed) return Status::OK();
  c_chunk_flushes_->Add();
  obs::ScopedTimer flush_timer(h_chunk_flush_);
  return lsm_->Put(
      lsm::MakeChunkKey(head->id(), first_ts),
      lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload));
}

Status TimeUnionDB::FlushGroupChunk(GroupEntry* entry, bool* flushed) {
  std::string payload;
  int64_t first_ts = 0;
  *flushed = entry->head->CloseChunk(&payload, &first_ts);
  if (!*flushed) return Status::OK();
  c_chunk_flushes_->Add();
  obs::ScopedTimer flush_timer(h_chunk_flush_);
  return lsm_->Put(
      lsm::MakeChunkKey(entry->head->id(), first_ts),
      lsm::MakeChunkValue(lsm::ChunkType::kGroup, payload));
}

Status TimeUnionDB::AppendToSeries(SeriesEntry* entry, int64_t ts,
                                   double value) {
  mem::SeriesHead* head = entry->head.get();
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int64_t partition_end = lsm_->PartitionEndFor(ts);
    mem::AppendResult result;
    bool too_old = false;
    TU_RETURN_IF_ERROR(
        head->Append(ts, value, partition_end, &result, &too_old));
    if (too_old) {
      // §3.1 case 4: older than the open chunk — route straight to the
      // LSM as a single-sample chunk; the tree's time partitions place it.
      if (wal_ && head->open_first_seq() != 0) {
        NoteTooOldChunk(head->id(), head->seq_id(), head->open_first_seq());
      }
      std::string payload;
      compress::EncodeSeriesChunk(head->seq_id(), {Sample{ts, value}},
                                  &payload);
      return lsm_->Put(
          lsm::MakeChunkKey(head->id(), ts),
          lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload));
    }
    switch (result) {
      case mem::AppendResult::kOk:
      case mem::AppendResult::kDuplicate:
        return Status::OK();
      case mem::AppendResult::kChunkClosed: {
        bool flushed = false;
        return FlushSeriesChunk(head, &flushed);
      }
      case mem::AppendResult::kNeedsFlush: {
        bool flushed = false;
        TU_RETURN_IF_ERROR(FlushSeriesChunk(head, &flushed));
        continue;  // retry the append on a fresh chunk
      }
    }
  }
  return Status::Corruption("series append did not converge");
}

Status TimeUnionDB::AdmitWrite(uint64_t num_samples) {
  const DBOptions::AdmissionControl& ac = options_.admission;
  if (!ac.enabled || time_lsm_ == nullptr) return Status::OK();
  const uint64_t limit = options_.lsm.fast_storage_limit_bytes;
  if (limit == 0) return Status::OK();

  // One relaxed RMW per admitted batch; the gauge itself is re-read only
  // when the batch crosses a refresh_every_ops boundary, so pressure
  // transitions lag by at most that many samples.
  const uint64_t op =
      admission_ops_.fetch_add(num_samples, std::memory_order_relaxed);
  if (ac.refresh_every_ops <= 1 || op == 0 ||
      op / ac.refresh_every_ops !=
          (op + num_samples) / ac.refresh_every_ops) {
    const uint64_t fast_bytes = time_lsm_->FastBytesGauge();
    const auto hard =
        static_cast<uint64_t>(ac.hard_watermark * static_cast<double>(limit));
    const auto soft =
        static_cast<uint64_t>(ac.soft_watermark * static_cast<double>(limit));
    int level = 0;
    if (fast_bytes >= hard) {
      level = 2;
    } else if (fast_bytes >= soft) {
      level = 1;
    }
    admission_level_.store(level, std::memory_order_relaxed);
  }

  switch (admission_level_.load(std::memory_order_relaxed)) {
    case 2:
      writes_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "fast tier over hard watermark; write rejected");
    case 1:
      // Bounded delay, not a queue: the writer eats a fixed pause so
      // ingest slows toward the drain rate without unbounded blocking.
      writers_delayed_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(ac.soft_delay_us));
      return Status::OK();
    default:
      return Status::OK();
  }
}

// ---------------------------------------------------------------------------
// Batched write pipeline
// ---------------------------------------------------------------------------

void TimeUnionDB::RowReject(WriteResult* result, const Status& s) {
  ++result->rejected;
  if (result->first_error.ok()) result->first_error = s;
}

// Inlined into both callers, so the ingest loop of WriteRefSamples pays no
// call per run.
[[gnu::always_inline]] inline Status TimeUnionDB::AppendSampleRun(
    uint64_t ref, const int64_t* ts, const double* values, size_t begin,
    size_t end, WriteResult* result, WalBatch* wal) {
  // Appends are counted exactly in a per-stripe cell (plain load+store
  // under the stripe lock — no locked RMW), and the same cell doubles as
  // the 1-in-64 latency sampling tick: the pre-lock read is racy, which
  // only perturbs *which* runs get timed, never the count, and it warms
  // the cache line the in-lock bump writes. Sampled runs pay the two
  // clock reads; unsampled runs pay two branches and the bumps.
  const size_t stripe = append_locks_.IndexFor(ref);
  const bool timed =
      ((sample_cells_[stripe].v.load(std::memory_order_relaxed) + 1) & 63) ==
      0;
  const uint64_t append_start_us = timed ? obs::MonotonicUs() : 0;
  EntryShard& es = EntryShardFor(ref);
  std::shared_lock<std::shared_mutex> shard_lock(es.mu);
  auto it = es.series.find(ref);
  if (it == es.series.end()) {
    return Status::NotFound("unknown series reference");
  }
  {
    // The entry lock serializes the head mutations and keeps each log
    // record's seq consistent with the appends it logs.
    std::lock_guard<std::mutex> entry_lock(append_locks_.MutexAt(stripe));
    // The run's log records come straight from the caller's columns.
    SeqRunLogger logger(wal, ref, ts, values);
    for (size_t k = begin; k < end; ++k) {
      sample_cells_[stripe].Bump();
      Status s = AppendToSeries(&it->second, ts[k], values[k]);
      if (!s.ok()) {
        RowReject(result, s);
        continue;
      }
      ++result->appended;
      if (wal != nullptr) logger.Add(k, it->second.head->seq_id());
    }
  }
  if (timed) [[unlikely]] {
    h_ingest_append_->Observe(obs::MonotonicUs() - append_start_us);
  }
  return Status::OK();
}

void TimeUnionDB::WriteRefSamples(const WriteBatch& batch, WriteResult* result,
                                  WalBatch* wal) {
  const size_t n = batch.sample_refs.size();
  size_t i = 0;
  while (i < n) {
    const uint64_t ref = batch.sample_refs[i];
    size_t run_end = i + 1;
    while (run_end < n && batch.sample_refs[run_end] == ref) ++run_end;
    // A run of consecutive rows for one series shares a single shard +
    // stripe lock acquisition — the batched path's second amortization
    // after the WAL. Clients that sort their batches by ref degenerate to
    // one acquisition per series.
    Status s = AppendSampleRun(ref, batch.sample_ts.data(),
                               batch.sample_values.data(), i, run_end, result,
                               wal);
    if (!s.ok()) {
      for (size_t k = i; k < run_end; ++k) RowReject(result, s);
    }
    i = run_end;
  }
}

void TimeUnionDB::WriteLabeledSamples(const WriteBatch& batch,
                                      WriteResult* result, WalBatch* wal) {
  if (batch.labeled_samples.empty()) return;
  result->resolved_refs.assign(batch.labeled_samples.size(), 0);
  for (size_t i = 0; i < batch.labeled_samples.size(); ++i) {
    const WriteBatch::LabeledSample& row = batch.labeled_samples[i];
    Labels sorted = row.labels;
    index::SortLabels(&sorted);
    const std::string key = index::LabelsKey(sorted);
    uint64_t ref = 0;
    Status s;
    const uint64_t appended_before = result->appended;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (!LookupSeriesRef(key, &ref)) {
        std::lock_guard<std::mutex> reg_lock(reg_mu_);
        s = RegisterSeriesSlow(sorted, key, &ref);
        if (!s.ok()) break;
      }
      // A run of one: the append's own outcome is folded into `result`.
      s = AppendSampleRun(ref, &row.ts, &row.value, 0, 1, result, wal);
      // NotFound: retention retired the entry between lookup and append (it
      // removed the key mapping too) — re-register and retry once.
      if (!s.IsNotFound()) break;
      s = Status::NotFound("series retired during insert");
    }
    if (!s.ok()) {
      RowReject(result, s);
    } else if (result->appended > appended_before) {
      result->resolved_refs[i] = ref;
    }
  }
}

Status TimeUnionDB::Write(const WriteBatch& batch, WriteResult* result) {
  WriteResult local;
  if (result == nullptr) result = &local;
  result->Clear();
  const uint64_t rows = batch.NumRows();
  if (rows == 0) return Status::OK();
  if (batch.sample_refs.size() != batch.sample_ts.size() ||
      batch.sample_refs.size() != batch.sample_values.size()) {
    result->rejected = rows;
    result->first_error =
        Status::InvalidArgument("WriteBatch ref-sample columns not parallel");
    return result->first_error;
  }
  // Batch-scoped gates, paid once per batch instead of once per sample:
  // the quiesce check is one relaxed load, and admission is charged with
  // the whole sample count (at most one soft-watermark delay per batch).
  Status gate = error_handler_.CheckWriteAllowed();
  if (gate.ok()) gate = AdmitWrite(batch.NumSamples());
  if (!gate.ok()) {
    result->rejected = rows;
    result->first_error = gate;
    return gate;
  }
  // The rows' log records are encoded columnar into a per-thread WalBatch
  // and appended in one call at the end (one WAL mutex + one file write
  // per batch). Registration records go to REGISTRY immediately inside the
  // resolve paths; replay reads REGISTRY before any segment.
  WalBatch* wal = nullptr;
  if (wal_) {
    static thread_local WalBatch tls_wal;
    wal = &tls_wal;
    wal->Clear();
  }
  WriteRefSamples(batch, result, wal);
  WriteLabeledSamples(batch, result, wal);
  WriteGroupRows(batch, result, wal);
  WriteLabeledGroupRows(batch, result, wal);
  if (wal == nullptr || wal->empty()) return Status::OK();
  c_wal_appends_->Add(wal->entries());
  const uint64_t append_start_us = obs::MonotonicUs();
  Status ws = wal_->Append(*wal);
  if (!ws.ok()) {
    error_handler_.OnBackgroundError(BgErrorScope::kWalAppend, ws,
                                     SteadyNowMs());
    // The heads already hold the samples but the log does not: report
    // the whole batch as failed so no caller acks rows the WAL may lose.
    result->first_error = ws;
    result->rejected += result->appended;
    result->appended = 0;
    return ws;
  }
  h_wal_append_->Observe(obs::MonotonicUs() - append_start_us);
  MaybeForceWalFlush();
  return Status::OK();
}

Status TimeUnionDB::AppendRowToGroup(GroupEntry* entry,
                                     const std::vector<uint32_t>& slots,
                                     int64_t ts,
                                     const std::vector<double>& values,
                                     WalBatch* wal) {
  mem::GroupHead* head = entry->head.get();
  Status s = [&]() -> Status {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const int64_t partition_end = lsm_->PartitionEndFor(ts);
      mem::AppendResult result;
      bool too_old = false;
      TU_RETURN_IF_ERROR(head->InsertRow(ts, slots, values, partition_end,
                                         &result, &too_old));
      if (too_old) {
        // Single-row group chunk straight into the LSM.
        if (wal_ && head->open_first_seq() != 0) {
          NoteTooOldChunk(head->id(), head->seq_id(), head->open_first_seq());
        }
        std::vector<compress::GroupRow> rows(1);
        rows[0].timestamp = ts;
        rows[0].values.resize(head->num_members());
        for (size_t i = 0; i < slots.size(); ++i) {
          rows[0].values[slots[i]] = values[i];
        }
        std::string payload;
        compress::EncodeGroupChunk(head->seq_id(),
                                   static_cast<uint32_t>(head->num_members()),
                                   rows, &payload);
        return lsm_->Put(lsm::MakeChunkKey(head->id(), ts),
                         lsm::MakeChunkValue(lsm::ChunkType::kGroup, payload));
      }
      switch (result) {
        case mem::AppendResult::kOk:
        case mem::AppendResult::kDuplicate:
          return Status::OK();
        case mem::AppendResult::kChunkClosed: {
          bool flushed = false;
          return FlushGroupChunk(entry, &flushed);
        }
        case mem::AppendResult::kNeedsFlush: {
          bool flushed = false;
          TU_RETURN_IF_ERROR(FlushGroupChunk(entry, &flushed));
          continue;
        }
      }
    }
    return Status::Corruption("group append did not converge");
  }();
  if (s.ok() && wal != nullptr) {
    wal->AddGroupRow(head->id(), head->seq_id(), ts, slots, values);
  }
  return s;
}

void TimeUnionDB::WriteGroupRows(const WriteBatch& batch, WriteResult* result,
                                 WalBatch* wal) {
  for (const WriteBatch::GroupRow& row : batch.group_rows) {
    Status s = [&]() -> Status {
      if (row.slots.size() != row.values.size()) {
        return Status::InvalidArgument("slot/value count mismatch");
      }
      c_rows_->Add();
      const bool timed = obs::SampleOneIn<6>();
      const uint64_t append_start_us = timed ? obs::MonotonicUs() : 0;
      EntryShard& es = EntryShardFor(row.group_ref);
      std::shared_lock<std::shared_mutex> shard_lock(es.mu);
      auto it = es.groups.find(row.group_ref);
      if (it == es.groups.end()) {
        return Status::NotFound("unknown group reference");
      }
      // Slot validation under the entry lock: a labeled group row may grow
      // the member array concurrently.
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(row.group_ref));
      for (uint32_t slot : row.slots) {
        if (slot >= it->second.head->num_members()) {
          return Status::InvalidArgument("member slot out of range");
        }
      }
      TU_RETURN_IF_ERROR(
          AppendRowToGroup(&it->second, row.slots, row.ts, row.values, wal));
      if (timed) h_group_append_->Observe(obs::MonotonicUs() - append_start_us);
      return Status::OK();
    }();
    if (s.ok()) {
      ++result->appended;
    } else {
      RowReject(result, s);
    }
  }
}

void TimeUnionDB::WriteLabeledGroupRows(const WriteBatch& batch,
                                        WriteResult* result, WalBatch* wal) {
  if (batch.labeled_group_rows.empty()) return;
  result->resolved_groups.resize(batch.labeled_group_rows.size());
  for (size_t i = 0; i < batch.labeled_group_rows.size(); ++i) {
    const WriteBatch::LabeledGroupRow& row = batch.labeled_group_rows[i];
    WriteResult::ResolvedGroup* resolved = &result->resolved_groups[i];
    Status s = [&]() -> Status {
      if (row.member_tags.size() != row.values.size()) {
        return Status::InvalidArgument("member/value count mismatch");
      }
      c_rows_->Add();
      Labels sorted_group = row.group_tags;
      index::SortLabels(&sorted_group);
      const std::string group_key = index::LabelsKey(sorted_group);

      // Member resolution may register new members (index/tag-store
      // writes), so the whole slow path serializes behind the registration
      // mutex; the by-ref path never takes it. Member registrations go to
      // the WAL's REGISTRY right away, and replay reads REGISTRY before any
      // row that references the new slot.
      std::lock_guard<std::mutex> reg_lock(reg_mu_);
      uint64_t group_ref = 0;
      if (!LookupGroupRef(group_key, &group_ref)) {
        TU_RETURN_IF_ERROR(
            RegisterGroupSlow(sorted_group, group_key, &group_ref));
      }

      EntryShard& es = EntryShardFor(group_ref);
      std::shared_lock<std::shared_mutex> shard_lock(es.mu);
      auto git = es.groups.find(group_ref);
      if (git == es.groups.end()) {
        // Cannot happen while reg_mu_ is held (retention also serializes
        // on it).
        return Status::NotFound("group retired during insert");
      }
      GroupEntry* entry = &git->second;
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(group_ref));

      // Resolve/append members (§3.4: an appending array ordered by first
      // insertion; lookups check whether the timeseries is already
      // recorded).
      std::vector<uint32_t>* slots = &resolved->slots;
      slots->clear();
      slots->reserve(row.member_tags.size());
      for (const Labels& tags : row.member_tags) {
        Labels sorted = tags;
        index::SortLabels(&sorted);
        const std::string key = index::LabelsKey(sorted);
        int slot = entry->head->FindMember(key);
        if (slot < 0) {
          uint64_t tag_offset = 0;
          TU_RETURN_IF_ERROR(tag_store_->Append(sorted, &tag_offset));
          // Member unique tags also map to the group ID in the first-level
          // index.
          TU_RETURN_IF_ERROR(index_->Add(group_ref, sorted));
          uint32_t new_slot = 0;
          TU_RETURN_IF_ERROR(
              entry->head->AddMember(tag_offset, key, &new_slot));
          entry->member_labels.resize(
              std::max<size_t>(entry->member_labels.size(), new_slot + 1));
          entry->member_labels[new_slot] = sorted;
          slot = static_cast<int>(new_slot);

          WalRecord reg;
          reg.type = WalRecordType::kRegisterMember;
          reg.id = group_ref;
          reg.slot = new_slot;
          reg.labels = sorted;
          TU_RETURN_IF_ERROR(LogRegistration(reg));
        }
        slots->push_back(static_cast<uint32_t>(slot));
      }

      TU_RETURN_IF_ERROR(
          AppendRowToGroup(entry, *slots, row.ts, row.values, wal));
      resolved->group_ref = group_ref;
      return Status::OK();
    }();
    if (s.ok()) {
      ++result->appended;
    } else {
      RowReject(result, s);
    }
  }
}

// ---------------------------------------------------------------------------
// Query path
// ---------------------------------------------------------------------------

namespace {

bool MatcherMatches(const TagMatcher& m, const Labels& labels) {
  for (const Label& l : labels) {
    if (l.name != m.name) continue;
    if (m.type == TagMatcher::Type::kEqual) return l.value == m.value;
    try {
      return std::regex_match(l.value, std::regex(m.value));
    } catch (const std::regex_error&) {
      return false;
    }
  }
  return false;
}

/// Shared input validation of the two public query entry points.
Status ValidateQueryArgs(const std::vector<TagMatcher>& matchers, int64_t t0,
                         int64_t t1) {
  if (t0 > t1) return Status::InvalidArgument("query time range: t0 > t1");
  if (matchers.empty()) {
    return Status::InvalidArgument("query requires at least one tag matcher");
  }
  return Status::OK();
}

}  // namespace

bool TimeUnionDB::AllowPartialReads(
    query::ReadRequest::Strictness s) const {
  switch (s) {
    case query::ReadRequest::Strictness::kStrict:
      return false;
    case query::ReadRequest::Strictness::kAllowPartial:
      return true;
    case query::ReadRequest::Strictness::kDefault:
      break;
  }
  return !options_.strict_reads;
}

Status TimeUnionDB::SelectIds(const std::vector<TagMatcher>& matchers,
                              index::Postings* ids) {
  obs::ScopedTimer timer(h_query_index_select_);
  return index_->Select(matchers, ids);
}

Status TimeUnionDB::SnapshotHeads(const std::vector<TagMatcher>& matchers,
                                  std::span<const uint64_t> ids, int64_t t0,
                                  int64_t t1, std::vector<HeadSnapshot>* out) {
  for (uint64_t id : ids) {
    // Snapshot the entry under its shard/entry locks: labels plus the
    // range-filtered open chunk. The LSM reads that follow run without
    // any DB lock — anything flushed before the snapshot is already in
    // the LSM, and a flush racing us lands in both sources and dedups by
    // seq inside MergedSeriesIterator.
    EntryShard& es = EntryShardFor(id);
    std::shared_lock<std::shared_mutex> shard_lock(es.mu);
    auto series_it = es.series.find(id);
    if (series_it != es.series.end()) {
      HeadSnapshot snap;
      snap.id = id;
      snap.labels = series_it->second.labels;
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(id));
      TU_RETURN_IF_ERROR(
          series_it->second.head->SnapshotOpen(t0, t1, &snap.open));
      out->push_back(std::move(snap));
      continue;
    }
    auto group_it = es.groups.find(id);
    if (group_it == es.groups.end()) continue;  // retired id

    // Second level of indexing (§2.4 challenge 3): locate the members of
    // this group that themselves satisfy every matcher against the union
    // of group tags and member unique tags.
    GroupEntry& entry = group_it->second;
    std::lock_guard<std::mutex> entry_lock(append_locks_.For(id));
    for (uint32_t slot = 0; slot < entry.head->num_members(); ++slot) {
      Labels full = entry.group_labels;
      full.insert(full.end(), entry.member_labels[slot].begin(),
                  entry.member_labels[slot].end());
      const bool all_match = std::all_of(
          matchers.begin(), matchers.end(),
          [&](const TagMatcher& m) { return MatcherMatches(m, full); });
      if (!all_match) continue;
      HeadSnapshot snap;
      snap.id = id;
      index::SortLabels(&full);
      snap.labels = std::move(full);
      snap.member_slot = static_cast<int>(slot);
      TU_RETURN_IF_ERROR(
          entry.head->SnapshotMember(slot, t0, t1, &snap.open));
      out->push_back(std::move(snap));
    }
  }
  return Status::OK();
}

Status TimeUnionDB::QueryIteratorsImpl(const std::vector<TagMatcher>& matchers,
                                       int64_t t0, int64_t t1,
                                       bool allow_partial,
                                       std::vector<SeriesIterResult>* out,
                                       query::QueryStats* stats) {
  out->clear();
  const uint64_t setup_start_us = obs::MonotonicUs();
  index::Postings ids;
  TU_RETURN_IF_ERROR(SelectIds(matchers, &ids));
  std::vector<HeadSnapshot> heads;
  TU_RETURN_IF_ERROR(SnapshotHeads(matchers, ids, t0, t1, &heads));
  const int64_t slack = options_.lsm.partition_upper_bound_ms;

  // One LSM cursor serves every series, opened after all head snapshots
  // (a chunk flushed in between is visible to the cursor and dedups
  // against the snapshot). It plans every series' slow-tier blocks into
  // one query-wide fetch plan before any series reads a block; the
  // iterators seek lazily, on the caller's first pull, by which time the
  // plan's first window of fetches is in flight.
  std::vector<lsm::SeriesRead> reads(heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    reads[i].id = heads[i].id;
    reads[i].t0 = t0;
    reads[i].t1 = t1;
  }
  query::ReadContext ctx;
  ctx.t0 = t0;
  ctx.t1 = t1;
  ctx.matchers = &matchers;
  ctx.scope.allow_partial = allow_partial;
  ctx.stats = stats;
  lsm::BlockPrefetch prefetch;
  ctx.prefetch = &prefetch;
  std::shared_ptr<lsm::ReadCursor> cursor;
  if (!heads.empty()) TU_RETURN_IF_ERROR(lsm_->NewCursor(ctx, reads, &cursor));
  for (size_t i = 0; i < heads.size(); ++i) {
    HeadSnapshot& head = heads[i];
    SeriesIterResult result;
    result.id = head.id;
    result.labels = std::move(head.labels);
    result.iter = std::make_unique<SampleIterator>(
        head.id, ctx, cursor->NewSeriesCursor(i), std::move(head.open),
        head.member_slot, slack);
    // Degraded reads: each iterator reports its own gap spans, clamped
    // and merged, so streaming consumers know what the stream may lack.
    if (!reads[i].missing.empty()) result.AddMissing(reads[i].missing, t0, t1);
    out->push_back(std::move(result));
  }
  prefetch.Issue();
  const uint64_t setup_us = obs::MonotonicUs() - setup_start_us;
  if (stats != nullptr) stats->setup_us += setup_us;
  h_query_setup_->Observe(setup_us);
  return Status::OK();
}

void TimeUnionDB::AddQueryTotals(const query::QueryStats& stats) {
  std::lock_guard<std::mutex> lock(query_totals_mu_);
  query_totals_.Add(stats);
  ++queries_run_;
}

Status TimeUnionDB::Query(const query::ReadRequest& request,
                          QueryResult* out) {
  out->clear();
  TU_RETURN_IF_ERROR(
      ValidateQueryArgs(request.matchers, request.t0, request.t1));
  if (request.IsAggregate()) {
    return Status::InvalidArgument(
        "Query: aggregate request (step_ms > 0) — use AggregateQuery");
  }
  const uint64_t query_start_us = obs::MonotonicUs();

  // Query is a thin materializer over the iterator pipeline: build the
  // per-series merged streams, drain each into a vector, union the gap
  // spans. `out->stats` outlives the iterators (both are scoped here), so
  // drain-time counters (block reads, cache hits, decodes) land in it too.
  std::vector<SeriesIterResult> iters;
  TU_RETURN_IF_ERROR(QueryIteratorsImpl(
      request.matchers, request.t0, request.t1,
      AllowPartialReads(request.strictness), &iters, &out->stats));

  const uint64_t drain_start_us = obs::MonotonicUs();
  query::SampleBatch batch;
  for (SeriesIterResult& r : iters) {
    SeriesResult result;
    result.id = r.id;
    result.labels = std::move(r.labels);
    // Vectorized drain: each finalized column run lands straight on the
    // result's columns (the first one is moved in), with no per-sample
    // work between the iterators and the caller.
    while (r.iter->NextBatch(&batch)) {
      if (result.timestamps.empty()) {
        result.timestamps.swap(batch.timestamps);
        result.values.swap(batch.values);
        continue;
      }
      result.timestamps.insert(result.timestamps.end(),
                               batch.timestamps.begin(),
                               batch.timestamps.end());
      result.values.insert(result.values.end(), batch.values.begin(),
                           batch.values.end());
    }
    TU_RETURN_IF_ERROR(r.iter->status());
    // Per-iterator spans are already clamped; the merge unions them across
    // series.
    out->MergeCompleteness(r);
    if (!result.timestamps.empty()) out->push_back(std::move(result));
  }
  out->stats.drain_us += obs::MonotonicUs() - drain_start_us;

  AddQueryTotals(out->stats);
  h_query_e2e_->Observe(obs::MonotonicUs() - query_start_us);
  return Status::OK();
}

Status TimeUnionDB::QueryIterators(const query::ReadRequest& request,
                                   std::vector<SeriesIterResult>* out,
                                   query::QueryStats* stats) {
  TU_RETURN_IF_ERROR(
      ValidateQueryArgs(request.matchers, request.t0, request.t1));
  if (request.IsAggregate()) {
    return Status::InvalidArgument(
        "QueryIterators: aggregate request (step_ms > 0) — use "
        "AggregateQuery");
  }
  TU_RETURN_IF_ERROR(QueryIteratorsImpl(
      request.matchers, request.t0, request.t1,
      AllowPartialReads(request.strictness), out, stats));
  // DB-lifetime totals for streaming queries capture the creation-time
  // counters (table/partition pruning); counters that accrue while the
  // caller drains the lazy iterators land only in `stats`.
  AddQueryTotals(stats != nullptr ? *stats : query::QueryStats());
  return Status::OK();
}

Status TimeUnionDB::AggregateQuery(const query::ReadRequest& request,
                                   AggregateResult* out) {
  const std::vector<TagMatcher>& matchers = request.matchers;
  const int64_t t0 = request.t0;
  const int64_t t1 = request.t1;
  const int64_t step_ms = request.step_ms;
  const query::AggFn fn = request.fn;
  const bool allow_partial = AllowPartialReads(request.strictness);
  out->series.clear();
  out->ResetCompleteness();
  out->stats = query::QueryStats();
  TU_RETURN_IF_ERROR(ValidateQueryArgs(matchers, t0, t1));
  if (step_ms <= 0) {
    return Status::InvalidArgument("AggregateQuery: step_ms must be > 0");
  }
  const uint64_t query_start_us = obs::MonotonicUs();

  // Serving granularity: the largest configured rollup granularity that
  // divides the step, so every step window is a whole number of buckets.
  // No divisor (or the leveled backend) -> everything goes raw, through
  // the same fold kernel.
  int64_t serving_g = 0;
  if (time_lsm_ != nullptr) {
    for (int64_t g : options_.lsm.rollup_granularities_ms) {
      if (g > 0 && step_ms % g == 0) serving_g = std::max(serving_g, g);
    }
  }
  // Raw samples fold at the serving granularity too: each bucket is then
  // built by the identical ascending accumulation compaction ran, which is
  // what makes mixed rollup+raw sums bitwise equal to all-raw sums.
  const int64_t fold_g = serving_g > 0 ? serving_g : step_ms;

  index::Postings ids;
  TU_RETURN_IF_ERROR(SelectIds(matchers, &ids));
  std::vector<HeadSnapshot> heads;
  TU_RETURN_IF_ERROR(SnapshotHeads(matchers, ids, t0, t1, &heads));
  const int64_t slack = options_.lsm.partition_upper_bound_ms;

  // Plan every series (rollup plan, then one raw read per raw span), then
  // open one LSM cursor for all raw reads after every head snapshot; the
  // cursor plans their slow-tier blocks into one fetch plan, issued before
  // the first series drains.
  std::vector<lsm::TimePartitionedLsm::RollupPlan> rollups(heads.size());
  std::vector<lsm::SeriesRead> reads;
  std::vector<size_t> first_read(heads.size() + 1);
  for (size_t i = 0; i < heads.size(); ++i) {
    const HeadSnapshot& head = heads[i];
    lsm::TimePartitionedLsm::RollupPlan& plan = rollups[i];
    // Individual series serve bucket-aligned interiors from rollup
    // partitions; group members (whose chunks rollups never summarize)
    // and configurations without a dividing granularity go all-raw.
    if (serving_g > 0 && head.member_slot < 0) {
      // The open head chunk is newer than every rollup; its span is
      // dirty by definition.
      std::vector<std::pair<int64_t, int64_t>> extra_dirty;
      if (!head.open.empty()) {
        extra_dirty.emplace_back(head.open.front().timestamp,
                                 head.open.back().timestamp);
      }
      query::ReadContext plan_ctx;
      plan_ctx.t0 = t0;
      plan_ctx.t1 = t1;
      plan_ctx.matchers = &matchers;
      plan_ctx.stats = &out->stats;
      TU_RETURN_IF_ERROR(time_lsm_->PlanRollupRead(
          head.id, plan_ctx, serving_g, extra_dirty, &plan));
    } else {
      plan.raw_spans.emplace_back(t0, t1);
    }
    first_read[i] = reads.size();
    for (const auto& [lo, hi] : plan.raw_spans) {
      reads.push_back(lsm::SeriesRead{head.id, lo, hi, {}});
    }
  }
  first_read[heads.size()] = reads.size();
  query::ReadContext cursor_ctx;
  cursor_ctx.t0 = t0;
  cursor_ctx.t1 = t1;
  cursor_ctx.matchers = &matchers;
  cursor_ctx.scope.allow_partial = allow_partial;
  cursor_ctx.stats = &out->stats;
  lsm::BlockPrefetch prefetch;
  cursor_ctx.prefetch = &prefetch;
  std::shared_ptr<lsm::ReadCursor> cursor;
  if (!reads.empty()) {
    TU_RETURN_IF_ERROR(lsm_->NewCursor(cursor_ctx, reads, &cursor));
  }
  prefetch.Issue();

  for (size_t i = 0; i < heads.size(); ++i) {
    HeadSnapshot& head = heads[i];
    // Raw spans drain through the same merged batch pipeline a plain
    // Query uses, folding into fold_g buckets as they stream.
    std::vector<compress::RollupBucket> raw_buckets;
    for (size_t k = first_read[i]; k < first_read[i + 1]; ++k) {
      const lsm::SeriesRead& read = reads[k];
      query::ReadContext ctx;
      ctx.t0 = read.t0;
      ctx.t1 = read.t1;
      ctx.stats = &out->stats;
      std::vector<Sample> open_span;
      for (const Sample& s : head.open) {
        if (s.timestamp >= read.t0 && s.timestamp <= read.t1) {
          open_span.push_back(s);
        }
      }
      SampleIterator iter(head.id, ctx, cursor->NewSeriesCursor(k),
                          std::move(open_span), head.member_slot, slack);
      query::SampleBatch batch;
      while (iter.NextBatch(&batch)) {
        query::AccumulateIntoBuckets(batch.timestamps.data(),
                                     batch.values.data(), batch.size(),
                                     fold_g, &raw_buckets);
        out->stats.raw_edge_samples += batch.size();
      }
      TU_RETURN_IF_ERROR(iter.status());
      if (!read.missing.empty()) out->AddMissing(read.missing, t0, t1);
    }

    // Raw spans ascend and never share a bucket with a rollup-covered
    // span (coverage is whole g-buckets), so a plain ordered merge of the
    // two disjoint ascending runs restores the full bucket stream.
    const std::vector<compress::RollupBucket>& rolled = rollups[i].buckets;
    std::vector<compress::RollupBucket> combined;
    combined.reserve(rolled.size() + raw_buckets.size());
    std::merge(rolled.begin(), rolled.end(), raw_buckets.begin(),
               raw_buckets.end(), std::back_inserter(combined),
               [](const compress::RollupBucket& a,
                  const compress::RollupBucket& b) {
                 return a.start < b.start;
               });

    AggregateSeries series;
    series.id = head.id;
    series.labels = std::move(head.labels);
    series.points = query::FoldBuckets(combined, step_ms, fn);
    if (!series.points.empty()) out->series.push_back(std::move(series));
  }

  AddQueryTotals(out->stats);
  h_query_e2e_->Observe(obs::MonotonicUs() - query_start_us);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status TimeUnionDB::ListTagValues(const std::string& tag_name,
                                  std::vector<std::string>* values) const {
  // The index is internally synchronized, but a slow-path insert touches
  // it once per label; serializing against registration gives this API an
  // insert-atomic view of multi-label series.
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  return index_->TagValues(tag_name, values);
}

Status TimeUnionDB::Flush() {
  for (uint32_t shard = 0; shard <= shard_mask_; ++shard) {
    EntryShard& es = entry_shards_[shard];
    std::shared_lock<std::shared_mutex> shard_lock(es.mu);
    for (auto& [id, entry] : es.series) {
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(id));
      bool flushed = false;
      TU_RETURN_IF_ERROR(FlushSeriesChunk(entry.head.get(), &flushed));
    }
    for (auto& [id, entry] : es.groups) {
      std::lock_guard<std::mutex> entry_lock(append_locks_.For(id));
      bool flushed = false;
      TU_RETURN_IF_ERROR(FlushGroupChunk(&entry, &flushed));
    }
  }
  TU_RETURN_IF_ERROR(lsm_->FlushAll());
  if (wal_) {
    TU_RETURN_IF_ERROR(wal_->Sync());
  }
  return Status::OK();
}

Status TimeUnionDB::ApplyRetention(int64_t watermark) {
  // Retention unlinks registry entries and mutates the index, so it
  // serializes with registration; appenders are only excluded per shard
  // while that shard's dead entries are erased.
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  TU_RETURN_IF_ERROR(lsm_->ApplyRetention(watermark));

  // Purge memory objects whose newest sample is older than the watermark
  // (§3.3 data retention).
  for (uint32_t shard = 0; shard <= shard_mask_; ++shard) {
    EntryShard& es = entry_shards_[shard];
    std::unique_lock<std::shared_mutex> shard_lock(es.mu);
    for (auto it = es.series.begin(); it != es.series.end();) {
      // Never-written heads report last_ts == INT64_MIN; skip them so a
      // freshly registered ref can't be retired before its first append.
      if (it->second.head->last_ts() != INT64_MIN &&
          it->second.head->last_ts() < watermark) {
        TU_RETURN_IF_ERROR(index_->Remove(it->first, it->second.labels));
        const std::string key = index::LabelsKey(it->second.labels);
        {
          KeyShard& ks = KeyShardFor(key);
          std::unique_lock<std::shared_mutex> key_lock(ks.mu);
          ks.series_by_key.erase(key);
        }
        it = es.series.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = es.groups.begin(); it != es.groups.end();) {
      if (it->second.head->last_ts() != INT64_MIN &&
          it->second.head->last_ts() < watermark) {
        TU_RETURN_IF_ERROR(index_->Remove(it->first, it->second.group_labels));
        for (const Labels& member : it->second.member_labels) {
          TU_RETURN_IF_ERROR(index_->Remove(it->first, member));
        }
        const std::string key = index::LabelsKey(it->second.group_labels);
        {
          KeyShard& ks = KeyShardFor(key);
          std::unique_lock<std::shared_mutex> key_lock(ks.mu);
          ks.group_by_key.erase(key);
        }
        it = es.groups.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

uint64_t TimeUnionDB::NumSeries() const {
  uint64_t total = 0;
  for (uint32_t shard = 0; shard <= shard_mask_; ++shard) {
    EntryShard& es = entry_shards_[shard];
    std::shared_lock<std::shared_mutex> lock(es.mu);
    total += es.series.size();
  }
  return total;
}

uint64_t TimeUnionDB::NumGroups() const {
  uint64_t total = 0;
  for (uint32_t shard = 0; shard <= shard_mask_; ++shard) {
    EntryShard& es = entry_shards_[shard];
    std::shared_lock<std::shared_mutex> lock(es.mu);
    total += es.groups.size();
  }
  return total;
}

uint64_t TimeUnionDB::IndexMemoryUsage() const { return index_->MemoryUsage(); }

uint64_t TimeUnionDB::SumSampleCells() const {
  uint64_t total = 0;
  for (size_t i = 0; i < append_locks_.stripes(); ++i) {
    total += sample_cells_[i].v.load(std::memory_order_relaxed);
  }
  return total;
}

Status TimeUnionDB::ScrubNow(Scrubber::PassReport* report) {
  if (scrubber_ == nullptr) {
    return Status::InvalidArgument(
        "ScrubNow requires the time-partitioned backend");
  }
  return scrubber_->RunFullPass(report);
}

obs::MetricsSnapshot TimeUnionDB::Metrics() const {
  // Start from the registry (instrument histograms/counters + event trace)
  // and fold in the counters that live outside it — tier I/O, breaker,
  // cache, LSM stats, query totals — so one snapshot is the whole story.
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  auto add_c = [&snap](std::string name, uint64_t v) {
    snap.counters.emplace_back(std::move(name), v);
  };
  auto add_g = [&snap](std::string name, int64_t v) {
    snap.gauges.emplace_back(std::move(name), v);
  };
  auto load = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };

  // Series appends are counted in per-stripe cells (see AppendSampleByRef)
  // rather than a registry counter, so they fold in here like the other
  // external totals.
  add_c("ingest.samples", SumSampleCells());

  auto add_tier = [&](const std::string& prefix,
                      const cloud::TierCounters& c) {
    add_c(prefix + ".gets", load(c.get_ops));
    add_c(prefix + ".puts", load(c.put_ops));
    add_c(prefix + ".deletes", load(c.delete_ops));
    add_c(prefix + ".read_bytes", load(c.bytes_read));
    add_c(prefix + ".written_bytes", load(c.bytes_written));
    add_c(prefix + ".charged_us", load(c.charged_us));
    add_c(prefix + ".faults", load(c.faults_injected));
    add_c(prefix + ".retries", load(c.retries));
    add_c(prefix + ".give_ups", load(c.retry_give_ups));
    add_c(prefix + ".breaker_rejections", load(c.breaker_rejections));
    add_c(prefix + ".breaker_opens", load(c.breaker_opens));
  };
  add_tier("fast", env_->fast().counters());
  add_tier("slow", env_->slow().counters());

  const cloud::CircuitBreaker& breaker = env_->slow().breaker();
  add_g("breaker.enabled", breaker.enabled() ? 1 : 0);
  add_g("breaker.state", static_cast<int64_t>(breaker.state()));

  add_c("admission.writers_delayed",
        writers_delayed_.load(std::memory_order_relaxed));
  add_c("admission.writes_rejected",
        writes_rejected_.load(std::memory_order_relaxed));

  add_g("cache.enabled", block_cache_ != nullptr ? 1 : 0);
  add_g("cache.usage",
        block_cache_ != nullptr
            ? static_cast<int64_t>(block_cache_->usage())
            : 0);
  add_c("cache.hits", block_cache_ != nullptr ? block_cache_->hits() : 0);
  add_c("cache.misses", block_cache_ != nullptr ? block_cache_->misses() : 0);
  add_c("cache.evictions",
        block_cache_ != nullptr ? block_cache_->evictions() : 0);

  if (time_lsm_ != nullptr) {
    const lsm::TimeLsmStats& s = time_lsm_->stats();
    add_c("lsm.flushes", load(s.flushes));
    add_c("lsm.compactions_l0_l1", load(s.l0_to_l1_compactions));
    add_c("lsm.compactions_l1_l2", load(s.l1_to_l2_compactions));
    add_c("lsm.patches_created", load(s.patches_created));
    add_c("lsm.patch_merges", load(s.patch_merges));
    add_c("lsm.partitions_retired", load(s.partitions_retired));
    add_c("lsm.fast_bytes_written", load(s.fast_bytes_written));
    add_c("lsm.slow_bytes_written", load(s.slow_bytes_written));
    add_c("lsm.compaction_us_total", load(s.compaction_us));
    add_c("lsm.tables_quarantined", load(s.tables_quarantined));
    add_c("lsm.orphans_swept", load(s.orphans_swept));
    add_c("lsm.deferred_tables_created", load(s.deferred_tables_created));
    add_c("lsm.deferred_uploads_drained", load(s.deferred_uploads_drained));
    add_c("lsm.deferred_drain_failures", load(s.deferred_drain_failures));
    add_c("lsm.partial_read_skips", load(s.partial_read_skips));
    add_c("lsm.rollup_tables_built", load(s.rollup_tables_built));
    add_c("lsm.rollup_partitions_rederived",
          load(s.rollup_partitions_rederived));
    add_c("integrity.read_corruptions_detected",
          load(s.read_corruptions_detected));
    add_c("integrity.read_corruptions_healed",
          load(s.read_corruptions_healed));
    add_c("integrity.tier_fallback_opens", load(s.tier_fallback_opens));
    add_c("integrity.runtime_quarantines", load(s.runtime_quarantines));
    add_g("lsm.rollup_tables",
          static_cast<int64_t>(time_lsm_->NumRollupTables()));
    add_g("lsm.rollup_dirty_partitions",
          static_cast<int64_t>(time_lsm_->NumDirtyRollupPartitions()));
    add_g("lsm.fast_bytes", static_cast<int64_t>(time_lsm_->FastBytesGauge()));
    add_g("lsm.fast_limit_bytes",
          static_cast<int64_t>(options_.lsm.fast_storage_limit_bytes));
    add_g("lsm.deferred_tables",
          static_cast<int64_t>(time_lsm_->NumDeferredTables()));
    add_g("lsm.deferred_bytes",
          static_cast<int64_t>(time_lsm_->DeferredBytes()));
  } else if (leveled_lsm_ != nullptr) {
    const lsm::CompactionStats& s = leveled_lsm_->stats();
    add_c("lsm.compactions", load(s.compactions));
    add_c("lsm.tables_read", load(s.tables_read));
    add_c("lsm.bytes_read", load(s.bytes_read));
    add_c("lsm.bytes_written", load(s.bytes_written));
    add_c("lsm.slow_bytes_written", load(s.slow_bytes_written));
    add_c("lsm.compaction_us_total", load(s.total_us));
    add_c("integrity.read_corruptions_detected",
          load(s.read_corruptions_detected));
    add_c("integrity.read_corruptions_healed",
          load(s.read_corruptions_healed));
    add_c("integrity.runtime_quarantines", load(s.runtime_quarantines));
  }
  add_g("scrub.enabled", options_.scrub.enabled ? 1 : 0);

  {
    std::lock_guard<std::mutex> lock(query_totals_mu_);
    add_c("query.runs", queries_run_);
    add_c("query.partitions_pruned", query_totals_.partitions_pruned);
    add_c("query.tables_considered", query_totals_.tables_considered);
    add_c("query.tables_pruned_id", query_totals_.tables_pruned_id);
    add_c("query.tables_pruned_time", query_totals_.tables_pruned_time);
    add_c("query.tables_pruned_bloom", query_totals_.tables_pruned_bloom);
    add_c("query.tables_skipped_unreachable",
          query_totals_.tables_skipped_unreachable);
    add_c("query.blocks_read", query_totals_.blocks_read);
    add_c("query.blocks_pruned", query_totals_.blocks_pruned);
    add_c("query.cache_hits", query_totals_.cache_hits);
    add_c("query.cache_misses", query_totals_.cache_misses);
    add_c("query.slow_tier_fetches", query_totals_.slow_tier_fetches);
    add_c("query.block_bytes_read", query_totals_.block_bytes_read);
    add_c("query.prefetch_blocks", query_totals_.prefetch_blocks);
    add_c("query.chunks_decoded", query_totals_.chunks_decoded);
    add_c("query.bytes_decoded", query_totals_.bytes_decoded);
    add_c("query.batches_decoded", query_totals_.batches_decoded);
    add_c("query.samples_decoded", query_totals_.samples_decoded);
    add_c("query.rollup_buckets_served", query_totals_.rollup_buckets_served);
    add_c("query.raw_edge_samples", query_totals_.raw_edge_samples);
    add_c("query.setup_us_total", query_totals_.setup_us);
    add_c("query.drain_us_total", query_totals_.drain_us);
  }

  add_g("db.series", static_cast<int64_t>(NumSeries()));
  add_g("db.groups", static_cast<int64_t>(NumGroups()));

  // Background-error state machine: one gauge for dashboards to alert on,
  // the full counter set for postmortems, and string views of the health
  // name and last error so a single snapshot explains *why* writes are
  // quiesced without a debugger.
  {
    const DbHealth health = error_handler_.health();
    const ErrorHandler::Counters ec = error_handler_.counters();
    add_g("db.health_state", static_cast<int64_t>(health));
    add_g("db.background_error", error_handler_.LastError().ok() ? 0 : 1);
    add_c("error_handler.errors_total", ec.errors_total);
    add_c("error_handler.errors_soft", ec.soft_errors);
    add_c("error_handler.errors_hard", ec.hard_errors);
    add_c("error_handler.errors_fatal", ec.fatal_errors);
    add_c("error_handler.errors_noted", ec.noted_errors);
    add_c("error_handler.resume_attempts", ec.resume_attempts);
    add_c("error_handler.resumes_succeeded", ec.resumes_succeeded);
    add_c("error_handler.resume_failures", ec.resume_failures);
    for (int i = 0; i < kNumBgErrorScopes; ++i) {
      add_c(std::string("error_handler.errors_by_scope.") +
                BgErrorScopeName(static_cast<BgErrorScope>(i)),
            ec.errors_by_scope[i]);
    }
    snap.strings.emplace_back("db.health", DbHealthName(health));
    snap.strings.emplace_back("db.last_background_error",
                              error_handler_.LastError().ToString());
  }

  snap.Canonicalize();
  return snap;
}

void TimeUnionDB::EmitMetricsLine() {
  const std::string path = env_->workspace() + "/metrics.jsonl";
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << "{\"ts_ms\":" << obs::WallMs()
      << ",\"metrics\":" << Metrics().ToJson() << "}\n";
}

void TimeUnionDB::AdviseMemoryRelease() {
  index_->AdviseDontNeed();
  {
    // The tag store is externally synchronized by reg_mu_ (registration is
    // its only writer).
    std::lock_guard<std::mutex> reg_lock(reg_mu_);
    tag_store_->AdviseDontNeed();
  }
  series_chunks_->AdviseDontNeed();
  group_ts_chunks_->AdviseDontNeed();
  group_val_chunks_->AdviseDontNeed();
}

}  // namespace tu::core
