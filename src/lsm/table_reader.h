// TableReader: reads SSTables from either storage tier through the
// TableSource abstraction. Fast-tier reads are positional file reads; the
// slow tier serves each block read as one S3 Get request — exactly the
// per-request cost structure of Eqs. 4/6. A shared block cache (the 1 GB
// LRU of §4.1) absorbs repeated slow-tier block fetches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/block_store.h"
#include "cloud/object_store.h"
#include "lsm/block.h"
#include "lsm/iterator.h"
#include "lsm/table_format.h"
#include "obs/metrics.h"
#include "query/read_context.h"
#include "util/lru_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tu::lsm {

/// Random-access byte source of one table.
class TableSource {
 public:
  virtual ~TableSource() = default;
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* out) const = 0;
  virtual uint64_t Size() const = 0;
  /// Forgets bytes read ahead, so the next ReadAt goes to the tier (a
  /// self-healing re-read must not be served the bytes that failed).
  virtual void DropReadAhead() const {}
};

/// Fast-tier source (EBS-like positional reads).
class FastTableSource : public TableSource {
 public:
  static Status Open(cloud::BlockStore* store, const std::string& fname,
                     std::unique_ptr<TableSource>* out);

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  uint64_t Size() const override { return file_->Size(); }

 private:
  explicit FastTableSource(std::unique_ptr<cloud::RandomAccessFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<cloud::RandomAccessFile> file_;
};

/// Read-ahead source for a compaction's in-order scan of a fast-tier
/// table: a read outside the buffered window refills it with one read of
/// up to kWindowBytes from the requested offset (at least the request,
/// at most to the end of the table), so a scan pays one tier read per
/// window instead of one per block. One scan owns it; not thread-safe.
class ReadAheadTableSource : public TableSource {
 public:
  /// Bounds what one compaction input holds in memory (DESIGN.md "Flush
  /// and compaction I/O").
  static constexpr uint64_t kWindowBytes = 1 << 20;

  explicit ReadAheadTableSource(std::unique_ptr<TableSource> base)
      : base_(std::move(base)) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  uint64_t Size() const override { return base_->Size(); }
  void DropReadAhead() const override { window_.clear(); }

 private:
  std::unique_ptr<TableSource> base_;
  mutable std::string window_;
  mutable uint64_t window_offset_ = 0;
};

/// Whole-object slow-tier source: one Get downloads the entire table and
/// every ReadAt is served from memory. The footer/filter/index/data walk
/// of TableReader::Open otherwise costs 4+ ranged Gets — for tables known
/// to be tiny (rollup summaries are a few hundred bytes per partition)
/// the single download is strictly cheaper in both ops and latency.
class PrefetchedTableSource : public TableSource {
 public:
  static Status Open(cloud::ObjectStore* store, const std::string& key,
                     std::unique_ptr<TableSource>* out);

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  uint64_t Size() const override { return data_.size(); }

 private:
  explicit PrefetchedTableSource(std::string data) : data_(std::move(data)) {}

  std::string data_;
};

/// Slow-tier source (S3-like ranged Gets; one Get per block read).
class SlowTableSource : public TableSource {
 public:
  static Status Open(cloud::ObjectStore* store, const std::string& key,
                     std::unique_ptr<TableSource>* out);

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  uint64_t Size() const override { return size_; }

 private:
  SlowTableSource(cloud::ObjectStore* store, std::string key, uint64_t size)
      : store_(store), key_(std::move(key)), size_(size) {}

  cloud::ObjectStore* store_;
  std::string key_;
  uint64_t size_;
};

using BlockCache = LRUCache<Block>;

struct TableReaderOptions {
  /// Shared block cache; nullptr disables caching.
  BlockCache* block_cache = nullptr;
  /// Cache key prefix, unique per table (e.g. "sst:<table_id>").
  std::string cache_id;
  /// Whether this table's source is the slow object tier — lets per-query
  /// stats attribute block fetches to the tier that served them.
  bool on_slow = false;
  /// Self-healing reads: on a corrupt block, evict the (possibly poisoned)
  /// cache entry and re-read from the source up to this many extra times —
  /// a transient on-read flip heals, at-rest rot keeps failing. 0 disables.
  int corrupt_read_retries = 2;
  /// Integrity counters (nullable; typically the owning LSM's stats):
  /// corrupt blocks detected on read, and how many of those healed on a
  /// cache-bypassing re-read.
  std::atomic<uint64_t>* corruptions_detected = nullptr;
  std::atomic<uint64_t>* corruptions_healed = nullptr;
  /// Time an iterator blocked on an in-flight prefetched block (nullable).
  obs::Histogram* prefetch_wait_us = nullptr;
};

class TableReader;
class FetchQueue;

/// One data block a query plans to read, fetched ahead of the drain on an
/// I/O pool. Shared by the iterators that read the block and by the task
/// that fetches it; the fetch itself runs through the reader's cache and
/// GetBlock source path.
class BlockFetch {
 public:
  BlockFetch(std::shared_ptr<FetchQueue> queue, ThreadPool* pool,
             std::shared_ptr<const TableReader> reader,
             const BlockHandle& handle)
      : queue_(std::move(queue)),
        pool_(pool),
        reader_(std::move(reader)),
        handle_(handle) {}
  /// A slot dropped before anyone took it gives its window place back.
  ~BlockFetch();

  const BlockHandle& handle() const { return handle_; }

  /// Hands the block to the first caller, with the fetch's cache/tier
  /// counters in `stats` (nullable), waiting if the fetch is in flight;
  /// the wait goes to stats->prefetch_wait_us and `wait_us` (nullable).
  /// A block the query's fetch window has not reached yet is read on the
  /// calling thread instead. A later caller (another iterator reading the
  /// same block) gets a null block and reads it through the cache, so a
  /// slot never pins its block past the first take. A failed fetch
  /// returns its Status to every caller.
  Status Take(std::shared_ptr<Block>* block, query::QueryStats* stats,
              obs::Histogram* wait_us);

 private:
  friend class FetchQueue;

  enum class State { kPlanned, kIssued, kDone };

  /// Moves a planned slot into its query's window (false if a taker
  /// already claimed it).
  bool ClaimForWindow();
  /// Completes the slot from the block cache; false on a miss.
  bool CompleteFromCache(query::QueryStats* stats);
  /// The fetch on the calling thread: the cache, then the source.
  void Fetch();
  /// Reads the block from the table (the Get) and completes the slot.
  void ReadFromSource(query::QueryStats stats);
  void Complete(Status status, std::shared_ptr<Block> block,
                const query::QueryStats& stats);

  const std::shared_ptr<FetchQueue> queue_;
  ThreadPool* const pool_;
  const std::shared_ptr<const TableReader> reader_;
  const BlockHandle handle_;
  std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kPlanned;
  bool windowed_ = false;  ///< holds a place in the query's fetch window
  bool taken_ = false;
  Status status_;
  std::shared_ptr<Block> block_;
  query::QueryStats stats_;
};

/// Query-scoped fetch plan (the ReadContext::prefetch hand-off slot): the
/// stores add every slow-tier block their iterators will read, in the
/// order a series-by-series drain reads them. Once all series are
/// planned, Issue starts fetching in plan order, with at most kWindow
/// blocks in flight or fetched and not yet taken; each take lets the next
/// planned block in. That bounds both the blocks a query pins and the
/// pool queue it occupies. Destroying the plan issues nothing: a slot
/// never issued is read by its own iterator, if one ever asks for it.
class BlockPrefetch {
 public:
  /// Blocks one query keeps in flight or fetched-but-untaken: two rounds
  /// of the read I/O pool (TimePartitionedLsm::kReadIoThreads).
  static constexpr size_t kWindow = 32;

  BlockPrefetch();
  BlockPrefetch(const BlockPrefetch&) = delete;
  BlockPrefetch& operator=(const BlockPrefetch&) = delete;

  /// The slot for block `handle` of `reader`, shared by every iterator of
  /// the query that reads it; its fetch runs on `pool`.
  std::shared_ptr<BlockFetch> Plan(ThreadPool* pool,
                                   std::shared_ptr<const TableReader> reader,
                                   const BlockHandle& handle);
  /// Ends planning and starts the first window of fetches.
  void Issue();
  /// Distinct blocks planned so far (0 after Issue).
  size_t planned() const { return slots_.size(); }

 private:
  std::shared_ptr<FetchQueue> queue_;
  std::map<std::pair<const TableReader*, uint64_t>,
           std::shared_ptr<BlockFetch>>
      slots_;
};

class TableReader {
 public:
  static Status Open(TableReaderOptions options,
                     std::unique_ptr<TableSource> source,
                     std::unique_ptr<TableReader>* out);

  /// Iterator over the whole table (internal keys).
  std::unique_ptr<Iterator> NewIterator() const;

  /// Query-path iterator: accumulates block/cache counters into `stats`
  /// (nullable) and, when `upper_bound_user_key` is non-empty, stops
  /// fetching data blocks once the current block's last user key sorts
  /// strictly past the bound — with last-key index entries no later block
  /// can hold a key at or below it, so cold blocks past the query range
  /// are never read. `stats` must outlive the iterator.
  /// `fetches` are the slots BlockRange planned for this iterator, in
  /// index order: a block with a slot is taken from it instead of read.
  std::unique_ptr<Iterator> NewIterator(
      query::QueryStats* stats, std::string upper_bound_user_key,
      std::vector<std::shared_ptr<BlockFetch>> fetches = {}) const;

  /// The data blocks a query iterator sought to `seek_key` and bounded by
  /// `upper_bound_user_key` reads when drained to the bound: from the
  /// first block whose last key is at or past `seek_key` through the
  /// first block whose last user key sorts past the bound — the walk
  /// TwoLevelIter's Seek and upper-bound stop make, taken on the pinned
  /// index block without reading any data block.
  std::vector<BlockHandle> BlockRange(
      const Slice& seek_key, const std::string& upper_bound_user_key) const;

  /// Bloom-filter test on a series/group ID: false means no chunk of that
  /// ID is in this table.
  bool MayContainId(uint64_t id) const;

  uint64_t Size() const { return source_->Size(); }
  bool on_slow() const { return options_.on_slow; }

 private:
  friend class BlockFetch;

  TableReader(TableReaderOptions options, std::unique_ptr<TableSource> source)
      : options_(std::move(options)), source_(std::move(source)) {}

  Status ReadBlockContents(const BlockHandle& handle, std::string* out) const;
  /// Reads (through the cache if configured) the block at `handle`,
  /// counting cache/tier outcomes into `stats` (nullable).
  Status GetBlock(const BlockHandle& handle, std::shared_ptr<Block>* block,
                  query::QueryStats* stats) const;
  std::string CacheKey(const BlockHandle& handle) const;
  /// The cache half of GetBlock: true (and `block` set) on a hit.
  bool LookupCached(const BlockHandle& handle, std::shared_ptr<Block>* block,
                    query::QueryStats* stats) const;
  /// The source half of GetBlock: reads the block with self-healing
  /// re-reads and fills the cache.
  Status ReadBlock(const BlockHandle& handle, std::shared_ptr<Block>* block,
                   query::QueryStats* stats) const;

  class TwoLevelIter;

  TableReaderOptions options_;
  std::unique_ptr<TableSource> source_;
  std::shared_ptr<Block> index_block_;
  std::string filter_;
};

}  // namespace tu::lsm
