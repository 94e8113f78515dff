#include "lsm/table_reader.h"

#include <algorithm>
#include <deque>

#include "cloud/retry_policy.h"
#include "lsm/bloom.h"
#include "lsm/memtable.h"
#include "util/crc32c.h"

namespace tu::lsm {

Status FastTableSource::Open(cloud::BlockStore* store, const std::string& fname,
                             std::unique_ptr<TableSource>* out) {
  std::unique_ptr<cloud::RandomAccessFile> file;
  TU_RETURN_IF_ERROR(store->NewRandomAccessFile(fname, &file));
  out->reset(new FastTableSource(std::move(file)));
  return Status::OK();
}

Status FastTableSource::ReadAt(uint64_t offset, size_t n,
                               std::string* out) const {
  Slice result;
  TU_RETURN_IF_ERROR(file_->Read(offset, n, &result, out));
  out->resize(result.size());
  if (result.size() != n) {
    return Status::Corruption("short table read");
  }
  return Status::OK();
}

Status ReadAheadTableSource::ReadAt(uint64_t offset, size_t n,
                                    std::string* out) const {
  if (offset < window_offset_ ||
      offset + n > window_offset_ + window_.size()) {
    const uint64_t left = offset < Size() ? Size() - offset : 0;
    const uint64_t len =
        std::max<uint64_t>(n, std::min<uint64_t>(kWindowBytes, left));
    Status s = base_->ReadAt(offset, len, &window_);
    if (!s.ok()) {
      window_.clear();
      return s;
    }
    window_offset_ = offset;
  }
  out->assign(window_.data() + (offset - window_offset_), n);
  return Status::OK();
}

Status PrefetchedTableSource::Open(cloud::ObjectStore* store,
                                   const std::string& key,
                                   std::unique_ptr<TableSource>* out) {
  std::string data;
  TU_RETURN_IF_ERROR(cloud::RunWithRetry(
      store->sim().retry, &store->counters(), "get " + key,
      [&] { return store->GetObject(key, &data); }));
  out->reset(new PrefetchedTableSource(std::move(data)));
  return Status::OK();
}

Status PrefetchedTableSource::ReadAt(uint64_t offset, size_t n,
                                     std::string* out) const {
  if (offset > data_.size() || n > data_.size() - offset) {
    return Status::Corruption("short table read");
  }
  out->assign(data_.data() + offset, n);
  return Status::OK();
}

Status SlowTableSource::Open(cloud::ObjectStore* store, const std::string& key,
                             std::unique_ptr<TableSource>* out) {
  uint64_t size = 0;
  TU_RETURN_IF_ERROR(cloud::RunWithRetry(
      store->sim().retry, &store->counters(), "stat " + key,
      [&] { return store->ObjectSize(key, &size); }));
  out->reset(new SlowTableSource(store, key, size));
  return Status::OK();
}

Status SlowTableSource::ReadAt(uint64_t offset, size_t n,
                               std::string* out) const {
  // Block fetches hit the object store per call; transient throttling here
  // would otherwise fail a whole query.
  TU_RETURN_IF_ERROR(cloud::RunWithRetry(
      store_->sim().retry, &store_->counters(), "get " + key_,
      [&] { return store_->GetRange(key_, offset, n, out); }));
  if (out->size() != n) {
    return Status::Corruption("short object read");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

namespace {

/// True if `handle`'s bytes plus `extra` trailing bytes lie within
/// [0, limit), computed without overflow: footer and index handles are
/// plain varints, so a corrupt one can hold any 64-bit value.
bool HandleWithin(const BlockHandle& handle, uint64_t extra, uint64_t limit) {
  return handle.offset <= limit && handle.size <= limit - handle.offset &&
         extra <= limit - handle.offset - handle.size;
}

}  // namespace

Status TableReader::Open(TableReaderOptions options,
                         std::unique_ptr<TableSource> source,
                         std::unique_ptr<TableReader>* out) {
  const uint64_t size = source->Size();
  if (size < kFooterSize) return Status::Corruption("table too small");

  std::string footer_bytes;
  TU_RETURN_IF_ERROR(
      source->ReadAt(size - kFooterSize, kFooterSize, &footer_bytes));
  Footer footer;
  TU_RETURN_IF_ERROR(footer.DecodeFrom(footer_bytes));
  if (!HandleWithin(footer.index_handle, kBlockTrailerSize,
                    size - kFooterSize) ||
      !HandleWithin(footer.filter_handle, 0, size - kFooterSize)) {
    return Status::Corruption("footer handle past end of table");
  }

  std::unique_ptr<TableReader> reader(
      new TableReader(std::move(options), std::move(source)));

  // Index block is pinned for the reader's lifetime.
  std::string index_contents;
  TU_RETURN_IF_ERROR(
      reader->ReadBlockContents(footer.index_handle, &index_contents));
  reader->index_block_ = std::make_shared<Block>(Slice(index_contents));

  // Filter block (raw bytes, no trailer).
  if (footer.filter_handle.size > 0) {
    TU_RETURN_IF_ERROR(reader->source_->ReadAt(footer.filter_handle.offset,
                                               footer.filter_handle.size,
                                               &reader->filter_));
  }

  *out = std::move(reader);
  return Status::OK();
}

Status TableReader::ReadBlockContents(const BlockHandle& handle,
                                      std::string* out) const {
  if (!HandleWithin(handle, kBlockTrailerSize, source_->Size())) {
    return Status::Corruption("block handle past end of table");
  }
  std::string raw;
  TU_RETURN_IF_ERROR(
      source_->ReadAt(handle.offset, handle.size + kBlockTrailerSize, &raw));
  const char* trailer = raw.data() + handle.size;

  const uint32_t expected = crc32c::Unmask(DecodeFixed32(trailer + 1));
  uint32_t actual = crc32c::Value(raw.data(), handle.size);
  actual = crc32c::Extend(actual, trailer, 1);
  if (expected != actual) {
    return Status::Corruption("block checksum mismatch");
  }
  if (static_cast<BlockCompression>(trailer[0]) != BlockCompression::kNone) {
    return Status::Corruption("unknown block type");
  }
  raw.resize(handle.size);
  *out = std::move(raw);
  return Status::OK();
}

std::string TableReader::CacheKey(const BlockHandle& handle) const {
  return options_.cache_id + ":" + std::to_string(handle.offset);
}

bool TableReader::LookupCached(const BlockHandle& handle,
                               std::shared_ptr<Block>* block,
                               query::QueryStats* stats) const {
  if (options_.block_cache == nullptr) return false;
  auto cached = options_.block_cache->Lookup(CacheKey(handle));
  if (stats != nullptr) ++(cached ? stats->cache_hits : stats->cache_misses);
  if (!cached) return false;
  *block = std::move(cached);
  return true;
}

Status TableReader::GetBlock(const BlockHandle& handle,
                             std::shared_ptr<Block>* block,
                             query::QueryStats* stats) const {
  if (LookupCached(handle, block, stats)) return Status::OK();
  return ReadBlock(handle, block, stats);
}

Status TableReader::ReadBlock(const BlockHandle& handle,
                              std::shared_ptr<Block>* block,
                              query::QueryStats* stats) const {
  std::string contents;
  Status s = ReadBlockContents(handle, &contents);
  if (s.IsCorruption() && options_.corrupt_read_retries > 0) {
    // Self-healing read: the bytes may have been mangled in flight (or a
    // poisoned entry may still sit in the cache under this key). Evict and
    // re-read from the source — a transient flip heals, at-rest rot fails
    // every attempt and surfaces to the caller for tier fallback.
    if (options_.corruptions_detected != nullptr) {
      options_.corruptions_detected->fetch_add(1, std::memory_order_relaxed);
    }
    for (int attempt = 0;
         attempt < options_.corrupt_read_retries && s.IsCorruption();
         ++attempt) {
      if (options_.block_cache != nullptr) {
        options_.block_cache->Erase(CacheKey(handle));
      }
      source_->DropReadAhead();
      s = ReadBlockContents(handle, &contents);
    }
    if (s.ok() && options_.corruptions_healed != nullptr) {
      options_.corruptions_healed->fetch_add(1, std::memory_order_relaxed);
    }
  }
  TU_RETURN_IF_ERROR(s);
  if (stats != nullptr) {
    stats->block_bytes_read += contents.size();
    if (options_.on_slow) ++stats->slow_tier_fetches;
  }
  auto parsed = std::make_shared<Block>(Slice(contents));
  if (options_.block_cache != nullptr) {
    options_.block_cache->Insert(CacheKey(handle), parsed, parsed->size());
  }
  *block = std::move(parsed);
  return Status::OK();
}

std::vector<BlockHandle> TableReader::BlockRange(
    const Slice& seek_key, const std::string& upper_bound_user_key) const {
  std::vector<BlockHandle> out;
  auto index_iter = index_block_->NewIterator();
  for (index_iter->Seek(seek_key); index_iter->Valid(); index_iter->Next()) {
    BlockHandle handle;
    Slice handle_bytes = index_iter->value();
    // A bad entry ends the plan; the drain reaches it and reports it.
    if (!handle.DecodeFrom(&handle_bytes)) break;
    out.push_back(handle);
    if (!upper_bound_user_key.empty() &&
        InternalKeyUserKey(index_iter->key()).compare(upper_bound_user_key) >
            0) {
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Query-scoped block prefetch.
// ---------------------------------------------------------------------------

/// The fetch window of one query: planned slots in plan order, started
/// while fewer than BlockPrefetch::kWindow are in flight or untaken.
/// Shared by the plan and its slots; holds the slots weakly, so a slot
/// every iterator dropped is never fetched.
class FetchQueue {
 public:
  void Add(std::weak_ptr<BlockFetch> fetch) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fetch));
  }

  /// Starts queued fetches up to the window: a cached block completes at
  /// once, any other is read on its pool.
  void Pump() {
    std::vector<std::shared_ptr<BlockFetch>> start;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (outstanding_ < BlockPrefetch::kWindow && !queue_.empty()) {
        std::shared_ptr<BlockFetch> fetch = queue_.front().lock();
        queue_.pop_front();
        if (fetch != nullptr && fetch->ClaimForWindow()) {
          ++outstanding_;
          start.push_back(std::move(fetch));
        }
      }
    }
    for (std::shared_ptr<BlockFetch>& fetch : start) {
      query::QueryStats stats;
      if (fetch->CompleteFromCache(&stats)) continue;
      // The task owns the slot, and through it the reader: the query may
      // drop its iterators (and compaction its table) while the Get is in
      // flight. It drops the slot before returning, outside the pool lock,
      // since dropping the last reference may start the next fetch.
      ThreadPool* pool = fetch->pool_;
      pool->Schedule([fetch = std::move(fetch), stats]() mutable {
        fetch->ReadFromSource(stats);
        fetch.reset();
      });
    }
  }

  /// A windowed slot was taken or dropped: its place goes to the next.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    Pump();
  }

 private:
  std::mutex mu_;
  std::deque<std::weak_ptr<BlockFetch>> queue_;
  size_t outstanding_ = 0;
};

BlockFetch::~BlockFetch() {
  if (windowed_ && !taken_) queue_->Release();
}

bool BlockFetch::ClaimForWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kPlanned) return false;
  state_ = State::kIssued;
  windowed_ = true;
  return true;
}

bool BlockFetch::CompleteFromCache(query::QueryStats* stats) {
  std::shared_ptr<Block> block;
  if (!reader_->LookupCached(handle_, &block, stats)) return false;
  Complete(Status::OK(), std::move(block), *stats);
  return true;
}

void BlockFetch::Fetch() {
  query::QueryStats stats;
  if (!CompleteFromCache(&stats)) ReadFromSource(stats);
}

void BlockFetch::ReadFromSource(query::QueryStats stats) {
  // `stats` already holds the cache miss.
  std::shared_ptr<Block> block;
  Status s = reader_->ReadBlock(handle_, &block, &stats);
  ++stats.prefetch_blocks;
  Complete(std::move(s), std::move(block), stats);
}

void BlockFetch::Complete(Status status, std::shared_ptr<Block> block,
                          const query::QueryStats& stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = std::move(status);
    block_ = std::move(block);
    stats_ = stats;
    state_ = State::kDone;
  }
  cv_.notify_all();
}

Status BlockFetch::Take(std::shared_ptr<Block>* block, query::QueryStats* stats,
                        obs::Histogram* wait_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == State::kPlanned) {
    // Outside the window (the drain runs ahead of plan order): read here.
    state_ = State::kIssued;
    lock.unlock();
    Fetch();
    lock.lock();
  } else if (state_ != State::kDone) {
    const uint64_t start = obs::MonotonicUs();
    cv_.wait(lock, [this] { return state_ == State::kDone; });
    const uint64_t waited = obs::MonotonicUs() - start;
    if (stats != nullptr) stats->prefetch_wait_us += waited;
    if (wait_us != nullptr) wait_us->Observe(waited);
  }
  const bool first = !taken_;
  taken_ = true;
  if (first) {
    if (stats != nullptr) stats->Add(stats_);
    *block = std::move(block_);
  } else {
    block->reset();
  }
  Status s = status_;
  const bool release = first && windowed_;
  lock.unlock();
  if (release) queue_->Release();
  return s;
}

BlockPrefetch::BlockPrefetch() : queue_(std::make_shared<FetchQueue>()) {}

std::shared_ptr<BlockFetch> BlockPrefetch::Plan(
    ThreadPool* pool, std::shared_ptr<const TableReader> reader,
    const BlockHandle& handle) {
  std::shared_ptr<BlockFetch>& slot =
      slots_[std::make_pair(reader.get(), handle.offset)];
  if (!slot) {
    slot = std::make_shared<BlockFetch>(queue_, pool, std::move(reader),
                                        handle);
    queue_->Add(slot);
  }
  return slot;
}

void BlockPrefetch::Issue() {
  // From here on only the iterators hold the slots.
  slots_.clear();
  queue_->Pump();
}

bool TableReader::MayContainId(uint64_t id) const {
  if (filter_.empty()) return true;
  std::string id_key;
  PutBigEndian64(&id_key, id);
  return BloomFilterMayContain(filter_, id_key);
}

// ---------------------------------------------------------------------------
// Two-level iterator: index block entries -> data block iterators.
// ---------------------------------------------------------------------------

TableIterator::TableIterator(const TableReader* table,
                             query::QueryStats* stats,
                             std::string upper_bound_user_key)
    : table_(table),
      stats_(stats),
      own_upper_bound_(std::move(upper_bound_user_key)),
      upper_bound_(own_upper_bound_),
      index_iter_(table->index_block_->NewIterator()) {}

void TableIterator::SeekToFirst() {
  status_ = Status::OK();
  stopped_at_bound_ = false;
  index_iter_->SeekToFirst();
  InitDataBlock();
  if (data_iter_) data_iter_->SeekToFirst();
  SkipEmptyBlocksForward();
}

void TableIterator::Seek(const Slice& target) {
  if (Valid() && index_iter_->Valid() &&
      target.compare(data_iter_->key()) >= 0 &&
      target.compare(index_iter_->key()) <= 0) {
    data_iter_->Seek(target);
    return;
  }
  status_ = Status::OK();
  stopped_at_bound_ = false;
  index_iter_->Seek(target);
  InitDataBlock();
  if (data_iter_) data_iter_->Seek(target);
  SkipEmptyBlocksForward();
}

void TableIterator::Next() {
  data_iter_->Next();
  SkipEmptyBlocksForward();
}

Status TableIterator::NextBatch(int member_slot, query::SampleBatch* batch) {
  batch->clear();
  if (!Valid()) return status_;
  TU_RETURN_IF_ERROR(DecodeChunkEntryBatch(data_iter_->key(),
                                           data_iter_->value(), member_slot,
                                           batch));
  Next();
  return status_;
}

void TableIterator::AddFetches(
    std::vector<std::shared_ptr<BlockFetch>> fetches) {
  fetches_.reserve(fetches_.size() + fetches.size());
  for (std::shared_ptr<BlockFetch>& fetch : fetches) {
    const uint64_t offset = fetch->handle().offset;
    auto at = std::lower_bound(
        fetches_.begin(), fetches_.end(), offset,
        [](const auto& slot, uint64_t o) { return slot.first < o; });
    // One slot per block: BlockPrefetch hands every series the same one.
    if (at != fetches_.end() && at->first == offset) continue;
    fetches_.emplace(at, offset, std::move(fetch));
  }
}

void TableIterator::InitDataBlock() {
  data_iter_.reset();
  data_block_.reset();
  if (!index_iter_->Valid()) return;
  BlockHandle handle;
  Slice handle_bytes = index_iter_->value();
  if (!handle.DecodeFrom(&handle_bytes)) {
    status_ = Status::Corruption("bad index entry");
    return;
  }
  Status s = FetchBlock(handle);
  if (!s.ok()) {
    status_ = s;
    return;
  }
  if (stats_ != nullptr) ++stats_->blocks_read;
  data_iter_ = data_block_->NewIterator();
}

/// A planned block comes from its fetch slot. A forward move past planned
/// blocks (a seek that skipped them) drops their slots, so their window
/// places go to blocks a drain reads; a block without a slot (not
/// planned, already taken, or sought back to), or whose fetched copy
/// another reader took, is read directly.
Status TableIterator::FetchBlock(const BlockHandle& handle) {
  const auto by_offset = [](const auto& slot, uint64_t o) {
    return slot.first < o;
  };
  auto at = std::lower_bound(fetches_.begin(), fetches_.end(), handle.offset,
                             by_offset);
  if (have_loaded_ && handle.offset > loaded_offset_) {
    for (auto skipped = std::lower_bound(fetches_.begin(), at,
                                         loaded_offset_ + 1, by_offset);
         skipped != at; ++skipped) {
      skipped->second.reset();
    }
  }
  have_loaded_ = true;
  loaded_offset_ = handle.offset;
  if (at != fetches_.end() && at->first == handle.offset && at->second) {
    std::shared_ptr<BlockFetch> fetch = std::move(at->second);
    TU_RETURN_IF_ERROR(fetch->Take(&data_block_, stats_,
                                   table_->options_.prefetch_wait_us));
    // Another iterator of the query took the fetched block first.
    if (data_block_ != nullptr) return Status::OK();
  }
  return table_->GetBlock(handle, &data_block_, stats_);
}

/// Index entries carry the LAST internal key of their block: once that
/// user key sorts strictly past the upper bound, every later block lies
/// entirely past it too, so the iterator can stop without fetching them.
/// Equality must continue — the next block may open with the same user
/// key at an older sequence number, which newest-wins dedup still needs.
bool TableIterator::PastUpperBound() const {
  return !upper_bound_.empty() && index_iter_->Valid() &&
         InternalKeyUserKey(index_iter_->key()).compare(upper_bound_) > 0;
}

void TableIterator::SkipEmptyBlocksForward() {
  while (data_iter_ != nullptr && !data_iter_->Valid()) {
    if (PastUpperBound()) {
      // Count the data blocks the bound saved us from fetching, then
      // park the iterator in the exhausted state. Walking the remaining
      // index entries is cheap: the index block is pinned in memory.
      if (stats_ != nullptr) {
        for (index_iter_->Next(); index_iter_->Valid(); index_iter_->Next()) {
          ++stats_->blocks_pruned;
        }
      }
      data_iter_.reset();
      data_block_.reset();
      stopped_at_bound_ = true;
      return;
    }
    index_iter_->Next();
    InitDataBlock();
    if (data_iter_) data_iter_->SeekToFirst();
    if (!index_iter_->Valid()) return;
  }
}

std::unique_ptr<Iterator> TableReader::NewIterator() const {
  return NewIterator(nullptr, std::string());
}

std::unique_ptr<TableIterator> TableReader::NewIterator(
    query::QueryStats* stats, std::string upper_bound_user_key) const {
  return std::make_unique<TableIterator>(this, stats,
                                         std::move(upper_bound_user_key));
}

}  // namespace tu::lsm
