#include "lsm/leveled_lsm.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "lsm/key_format.h"
#include "lsm/merging_iterator.h"
#include "util/memory_tracker.h"

namespace tu::lsm {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool RangesOverlap(const TableMeta& a, const TableMeta& b) {
  return Slice(a.smallest_key).compare(b.largest_key) <= 0 &&
         Slice(b.smallest_key).compare(a.largest_key) <= 0;
}

}  // namespace

LeveledLsm::LeveledLsm(cloud::TieredEnv* env, std::string name,
                       LeveledLsmOptions options, BlockCache* block_cache)
    : env_(env),
      name_(std::move(name)),
      options_(options),
      block_cache_(block_cache) {
  levels_.resize(options_.max_levels);
  if (options_.metrics != nullptr) {
    h_memflush_us_ = options_.metrics->histogram("lsm.memflush_us");
    h_compact_us_ = options_.metrics->histogram("lsm.compact_us");
    h_table_build_us_ = options_.metrics->histogram("lsm.table_build_us");
    trace_ = &options_.metrics->trace();
  }
  deferred_deletes_ = std::make_shared<DeferredDeletes>([this](uint64_t id) {
    (void)env_->slow().DeleteObject(SlowKey(id));
  });
}

LeveledLsm::~LeveledLsm() {
  deferred_deletes_->Close();
  if (mem_) {
    MemoryTracker::Global().Sub(
        MemCategory::kMemtable,
        static_cast<int64_t>(mem_->ApproximateMemoryUsage()));
  }
}

namespace {

std::shared_ptr<MemTable> NewTrackedMemTable() {
  auto mem = std::make_shared<MemTable>();
  MemoryTracker::Global().Add(
      MemCategory::kMemtable,
      static_cast<int64_t>(mem->ApproximateMemoryUsage()));
  return mem;
}

}  // namespace

Status LeveledLsm::Open() {
  TU_RETURN_IF_ERROR(env_->fast().CreateDir(name_));
  mem_ = NewTrackedMemTable();
  return Status::OK();
}

std::string LeveledLsm::FastName(uint64_t table_id) const {
  return name_ + "/" + TableFileName(table_id);
}

std::string LeveledLsm::SlowKey(uint64_t table_id) const {
  return name_ + "/" + TableFileName(table_id);
}

Status LeveledLsm::Put(const Slice& user_key, const Slice& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t before = mem_->ApproximateMemoryUsage();
  mem_->Add(next_seq_++, user_key, value);
  MemoryTracker::Global().Add(
      MemCategory::kMemtable,
      static_cast<int64_t>(mem_->ApproximateMemoryUsage() - before));
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    TU_RETURN_IF_ERROR(FlushMemTable());
    return MaybeCompact();
  }
  return Status::OK();
}

Status LeveledLsm::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!mem_->empty()) {
    TU_RETURN_IF_ERROR(FlushMemTable());
  }
  return MaybeCompact();
}

Status LeveledLsm::FlushMemTable() {
  const uint64_t flush_start_us = NowUs();
  auto it = mem_->NewIterator();
  it->SeekToFirst();
  std::vector<TableHandle> outputs;
  TU_RETURN_IF_ERROR(BuildTables(it.get(), 0, &outputs));
  // L0 keeps newest tables first.
  for (auto& t : outputs) {
    levels_[0].insert(levels_[0].begin(), std::move(t));
  }
  if (h_memflush_us_ != nullptr) {
    h_memflush_us_->Observe(NowUs() - flush_start_us);
  }
  if (trace_ != nullptr) {
    trace_->Record("flush", "tables=" + std::to_string(outputs.size()));
  }
  MemoryTracker::Global().Sub(
      MemCategory::kMemtable,
      static_cast<int64_t>(mem_->ApproximateMemoryUsage()));
  mem_ = NewTrackedMemTable();
  return Status::OK();
}

Status LeveledLsm::BuildTables(Iterator* input, int target_level,
                               std::vector<TableHandle>* outputs) {
  outputs->clear();
  const bool fast = LevelIsFast(target_level);

  std::unique_ptr<BufferTableSink> sink;
  std::unique_ptr<TableBuilder> builder;
  uint64_t table_id = 0;
  uint64_t build_start_us = 0;

  auto open_output = [&]() {
    table_id = next_table_id_++;
    build_start_us = NowUs();
    sink = std::make_unique<BufferTableSink>();
    builder =
        std::make_unique<TableBuilder>(options_.table_options, sink.get());
  };

  auto close_output = [&]() -> Status {
    if (!builder || builder->num_entries() == 0) {
      builder.reset();
      sink.reset();
      return Status::OK();
    }
    TableHandle handle;
    builder->Finish(&handle.meta);
    handle.meta.table_id = table_id;
    if (h_table_build_us_ != nullptr) {
      h_table_build_us_->Observe(NowUs() - build_start_us);
    }
    if (fast) {
      // One write per table: Append + fdatasync under .tmp, then rename.
      TU_RETURN_IF_ERROR(
          env_->fast().WriteStringToFile(FastName(table_id), sink->buffer()));
    } else {
      TU_RETURN_IF_ERROR(
          env_->slow().PutObject(SlowKey(table_id), sink->buffer()));
      stats_.slow_bytes_written.fetch_add(sink->buffer().size(),
                                          std::memory_order_relaxed);
      handle.on_slow = true;
    }
    stats_.bytes_written.fetch_add(handle.meta.file_size,
                                   std::memory_order_relaxed);
    outputs->push_back(std::move(handle));
    builder.reset();
    sink.reset();
    return Status::OK();
  };

  for (; input->Valid(); input->Next()) {
    if (!builder) open_output();
    builder->Add(input->key(), input->value());
    if (builder->EstimatedSize() >= options_.max_output_table_bytes) {
      TU_RETURN_IF_ERROR(close_output());
    }
  }
  TU_RETURN_IF_ERROR(input->status());
  return close_output();
}

Status LeveledLsm::MaybeCompact() {
  // Run compactions until every level is within its threshold.
  bool again = true;
  while (again) {
    again = false;
    if (static_cast<int>(levels_[0].size()) >= options_.l0_compaction_trigger) {
      TU_RETURN_IF_ERROR(CompactLevel(0));
      again = true;
      continue;
    }
    for (int level = 1; level < options_.max_levels - 1; ++level) {
      const uint64_t limit = static_cast<uint64_t>(
          options_.base_level_bytes *
          std::pow(options_.level_multiplier, level - 1));
      if (TotalBytes(level) > limit) {
        TU_RETURN_IF_ERROR(CompactLevel(level));
        again = true;
        break;
      }
    }
  }
  return Status::OK();
}

Status LeveledLsm::OpenReader(TableHandle* handle) {
  if (handle->reader) return Status::OK();
  std::unique_ptr<TableReader> reader;
  TU_RETURN_IF_ERROR(OpenTableReader(handle, block_cache_, &reader));
  handle->reader = std::move(reader);
  return Status::OK();
}

Status LeveledLsm::OpenTableReader(TableHandle* handle, BlockCache* cache,
                                   std::unique_ptr<TableReader>* reader) {
  if (handle->quarantined) {
    return Status::Corruption("table " +
                              std::to_string(handle->meta.table_id) +
                              " quarantined");
  }
  std::unique_ptr<TableSource> source;
  if (handle->on_slow) {
    TU_RETURN_IF_ERROR(SlowTableSource::Open(
        &env_->slow(), SlowKey(handle->meta.table_id), &source));
  } else {
    TU_RETURN_IF_ERROR(FastTableSource::Open(
        &env_->fast(), FastName(handle->meta.table_id), &source));
  }
  if (handle->meta.file_size != 0 && source->Size() != handle->meta.file_size) {
    handle->quarantined = true;
    stats_.runtime_quarantines.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption(
        "table " + std::to_string(handle->meta.table_id) + " size " +
        std::to_string(source->Size()) + " != expected " +
        std::to_string(handle->meta.file_size));
  }
  TableReaderOptions opts;
  opts.block_cache = cache;
  opts.cache_id = name_ + ":" + std::to_string(handle->meta.table_id);
  opts.on_slow = handle->on_slow;
  opts.corruptions_detected = &stats_.read_corruptions_detected;
  opts.corruptions_healed = &stats_.read_corruptions_healed;
  Status s = TableReader::Open(opts, std::move(source), reader);
  if (s.IsCorruption()) {
    // One copy per table in this backend: corruption that survives the
    // reader's own re-reads has nowhere to heal from.
    handle->quarantined = true;
    stats_.runtime_quarantines.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Status LeveledLsm::DeleteTable(const TableHandle& handle, bool was_fast) {
  if (was_fast) {
    return env_->fast().DeleteFile(FastName(handle.meta.table_id));
  }
  if (handle.reader != nullptr) {
    DeferredDeletes::DeleteWhenReleased(deferred_deletes_, handle);
    return Status::OK();
  }
  return env_->slow().DeleteObject(SlowKey(handle.meta.table_id));
}

Status LeveledLsm::CompactLevel(int level) {
  const uint64_t start_us = NowUs();
  const int next = level + 1;

  // Inputs stay in levels_ until the outputs are installed, so a failed
  // merge leaves the tree as it was and a later compaction retries it.
  // Victims come first: all of L0 (overlapping), or one table round-robin.
  std::vector<TableHandle*> inputs;
  if (level == 0) {
    for (TableHandle& t : levels_[0]) inputs.push_back(&t);
  } else if (!levels_[level].empty()) {
    inputs.push_back(
        &levels_[level][compaction_pointer_ % levels_[level].size()]);
    ++compaction_pointer_;
  }
  if (inputs.empty()) return Status::OK();

  // Key range of the victims.
  TableMeta range;
  range.smallest_key = inputs[0]->meta.smallest_key;
  range.largest_key = inputs[0]->meta.largest_key;
  for (const TableHandle* v : inputs) {
    if (Slice(v->meta.smallest_key).compare(range.smallest_key) < 0) {
      range.smallest_key = v->meta.smallest_key;
    }
    if (Slice(v->meta.largest_key).compare(range.largest_key) > 0) {
      range.largest_key = v->meta.largest_key;
    }
  }

  // All overlapping tables in the next level join the merge ("at least one
  // overlapping SSTable needs to be read from the next level", §2.4).
  for (TableHandle& t : levels_[next]) {
    if (RangesOverlap(t.meta, range)) inputs.push_back(&t);
  }

  // Merge: victims (newer) first so equal internal keys keep newest order.
  // Each input is read through an uncached reader local to this merge.
  std::vector<std::unique_ptr<TableReader>> readers;
  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<uint64_t> input_ids;
  for (TableHandle* t : inputs) {
    std::unique_ptr<TableReader> reader;
    TU_RETURN_IF_ERROR(OpenTableReader(t, /*cache=*/nullptr, &reader));
    stats_.tables_read.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(t->meta.file_size, std::memory_order_relaxed);
    children.push_back(reader->NewIterator());
    readers.push_back(std::move(reader));
    input_ids.push_back(t->meta.table_id);
  }
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();

  std::vector<TableHandle> outputs;
  Status s = BuildTables(merged.get(), next, &outputs);
  if (!s.ok()) {
    // Nothing was installed: drop the outputs already written.
    for (const TableHandle& t : outputs) {
      (void)DeleteTable(t, LevelIsFast(next));
    }
    return s;
  }

  // Swap the inputs for the outputs (the next level stays sorted by
  // smallest key), then delete the input files.
  std::vector<std::pair<TableHandle, bool>> consumed;  // handle, was_fast
  for (const int l : {level, next}) {
    std::vector<TableHandle>& tables = levels_[l];
    auto first_input = std::stable_partition(
        tables.begin(), tables.end(), [&](const TableHandle& t) {
          return std::find(input_ids.begin(), input_ids.end(),
                           t.meta.table_id) == input_ids.end();
        });
    for (auto it = first_input; it != tables.end(); ++it) {
      consumed.emplace_back(std::move(*it), LevelIsFast(l));
    }
    tables.erase(first_input, tables.end());
  }
  std::vector<TableHandle>& next_level = levels_[next];
  for (auto& t : outputs) next_level.push_back(std::move(t));
  std::sort(next_level.begin(), next_level.end(),
            [](const TableHandle& a, const TableHandle& b) {
              return Slice(a.meta.smallest_key).compare(b.meta.smallest_key) <
                     0;
            });
  for (auto& [handle, was_fast] : consumed) {
    TU_RETURN_IF_ERROR(DeleteTable(handle, was_fast));
  }

  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  const uint64_t compact_us = NowUs() - start_us;
  stats_.total_us.fetch_add(compact_us, std::memory_order_relaxed);
  if (h_compact_us_ != nullptr) h_compact_us_->Observe(compact_us);
  if (trace_ != nullptr) {
    trace_->Record("compact.leveled", "level=" + std::to_string(level) +
                                          " us=" + std::to_string(compact_us));
  }
  return Status::OK();
}

Status LeveledLsm::NewCursor(const ReadContext& ctx,
                             std::span<SeriesRead> reads,
                             std::shared_ptr<ReadCursor>* out) {
  const bool allow_partial = ctx.scope.allow_partial;
  query::QueryStats* qs = ctx.stats;
  auto cursor = std::make_shared<ReadCursor>(qs, reads);
  std::vector<std::string> lo(reads.size());
  std::vector<std::string> hi(reads.size());
  for (size_t r = 0; r < reads.size(); ++r) {
    lo[r] = MakeChunkKey(reads[r].id, reads[r].t0);
    hi[r] = MakeChunkKey(reads[r].id, reads[r].t1);
  }

  std::lock_guard<std::mutex> lock(mu_);
  cursor->AddMemTable(mem_);
  // Breaker open: skip slow-level tables without touching them — a cached
  // reader would still fail its lazy per-block Gets mid-iteration.
  const cloud::CircuitBreaker& slow_breaker = env_->slow().breaker();
  const bool slow_tier_down =
      slow_breaker.enabled() &&
      slow_breaker.state() == cloud::BreakerState::kOpen;

  for (int level = 0; level < options_.max_levels; ++level) {
    for (auto& handle : levels_[level]) {
      // One open attempt per table per query, shared by every read that
      // gets that far; the table joins the cursor once.
      bool opened = false;
      Status open_status;
      int64_t index = -1;
      for (size_t r = 0; r < reads.size(); ++r) {
        SeriesRead& read = reads[r];
        if (qs != nullptr) ++qs->tables_considered;
        // Chunks have no time-partition bound under this backend, so a
        // chunk starting before t0 may still reach into the range — only
        // the "starts past t1" side of the time meta is safe to prune on.
        if (handle.meta.min_ts > read.t1) {
          if (qs != nullptr) ++qs->tables_pruned_time;
          continue;
        }
        if (Slice(handle.meta.largest_key).compare(lo[r]) < 0) {
          if (qs != nullptr) ++qs->tables_pruned_time;
          continue;
        }
        if (Slice(handle.meta.smallest_key).compare(hi[r]) > 0 &&
            InternalKeyUserKey(handle.meta.smallest_key).compare(hi[r]) > 0) {
          if (qs != nullptr) ++qs->tables_pruned_id;
          continue;
        }
        if (handle.meta.min_series_id > read.id ||
            handle.meta.max_series_id < read.id) {
          if (qs != nullptr) ++qs->tables_pruned_id;
          continue;
        }
        // Without time partitioning a chunk can extend arbitrarily past
        // its start timestamp, so the missing span of a skipped table is
        // conservative: from its first chunk start to the end of the range.
        const auto skip = [&] {
          const int64_t lo_ts = std::max(handle.meta.min_ts, read.t0);
          if (lo_ts <= read.t1) read.missing.emplace_back(lo_ts, read.t1);
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
          // A corrupt (quarantined) table degrades the same way on either
          // tier — detection must never become a wrong result.
          if (allow_partial &&
              (open_status.IsCorruption() ||
               (handle.on_slow &&
                (open_status.IsUnavailable() || open_status.IsIOError() ||
                 open_status.IsBusy())))) {
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
    }
  }
  cursor->Finish();
  *out = std::move(cursor);
  return Status::OK();
}

Status LeveledLsm::NewFullIterator(std::unique_ptr<Iterator>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(mem_->NewIterator());
  for (auto& level : levels_) {
    for (auto& handle : level) {
      TU_RETURN_IF_ERROR(OpenReader(&handle));
      children.push_back(handle.reader->NewIterator());
    }
  }
  *out = NewMergingIterator(std::move(children));
  return Status::OK();
}

uint64_t LeveledLsm::NumTables(int level) const {
  return levels_[level].size();
}

uint64_t LeveledLsm::TotalBytes(int level) const {
  uint64_t total = 0;
  for (const auto& t : levels_[level]) total += t.meta.file_size;
  return total;
}

}  // namespace tu::lsm
