// LeveledLsm ("leveldb-lite"): a from-scratch classic leveled LSM-tree —
// memtable, L0 with overlapping tables, size-tiered deeper levels with
// LevelDB's level-based compaction (victim table + all overlapping tables
// in the next level). This is the baseline architecture of §2.3/Fig. 4 and
// the storage engine of the TU-LDB / tsdb-LDB comparison systems: levels
// below `num_fast_levels` live on the slow object tier, which is exactly
// what makes its compactions pay the S3 traffic the paper measures.
//
// Values are opaque (no chunk merging): the store is a duplicate-tolerant
// multiset over internal keys, queries do sample-level newest-wins.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/tiered_env.h"
#include "lsm/chunk_store.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "obs/metrics.h"

namespace tu::lsm {

/// A placed SSTable: metadata + lazily opened reader.
struct TableHandle {
  TableMeta meta;
  bool on_slow = false;
  std::shared_ptr<TableReader> reader;
  /// Set when the read path found this table corrupt with no healthy copy
  /// to fall back to. Queries skip it (recording the missing span when
  /// partial reads are allowed) instead of re-probing rotten bytes; the
  /// scrub job makes the quarantine durable (manifest removal) or clears
  /// it after a repair.
  bool quarantined = false;
};

/// Deletes of replaced slow-tier tables that wait for the table's last
/// reader: every block read of a slow-tier table is a Get by key, so a
/// query cursor or block fetch still holding the reader needs the object.
/// DeleteWhenReleased hands the delete to the reader (TableReader::
/// RunOnRelease); it runs in the thread that drops the last holder. The
/// store and the waiting readers share this object, and the store closes
/// it on shutdown: a reader that outlives its store deletes nothing and
/// leaves the object to the next open's orphan sweep.
class DeferredDeletes {
 public:
  explicit DeferredDeletes(std::function<void(uint64_t)> del)
      : del_(std::move(del)) {}

  /// Deletes `handle`'s object when its reader is released. Call after the
  /// manifest stopped referencing the table, with a non-null reader.
  static void DeleteWhenReleased(const std::shared_ptr<DeferredDeletes>& self,
                                 const TableHandle& handle) {
    handle.reader->RunOnRelease([self, id = handle.meta.table_id] {
      std::lock_guard<std::mutex> lock(self->mu_);
      if (self->del_) self->del_(id);
    });
  }
  /// Waits for a running delete; later releases delete nothing.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    del_ = nullptr;
  }

 private:
  std::mutex mu_;
  std::function<void(uint64_t)> del_;
};

struct LeveledLsmOptions {
  size_t memtable_bytes = 4 << 20;
  /// Target size of level 1; level i target = base * multiplier^(i-1).
  uint64_t base_level_bytes = 8 << 20;
  double level_multiplier = 10.0;
  int l0_compaction_trigger = 4;
  int max_levels = 7;
  /// Levels [0, num_fast_levels) on the fast tier, the rest on slow.
  int num_fast_levels = 2;
  size_t max_output_table_bytes = 2 << 20;
  /// Observability registry (owned by the DB, outlives the LSM). When set,
  /// the tree records flush/compaction/table-build latency histograms and
  /// background-job events.
  obs::MetricsRegistry* metrics = nullptr;
  TableBuilderOptions table_options;
};

/// Compaction statistics for the Fig. 4 analysis.
struct CompactionStats {
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> tables_read{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> slow_bytes_written{0};
  std::atomic<uint64_t> total_us{0};
  // Integrity: corrupt blocks seen / healed by the self-healing read path,
  // and tables quarantined at read time (this backend keeps one copy per
  // table, so there is no second tier to fall back to).
  std::atomic<uint64_t> read_corruptions_detected{0};
  std::atomic<uint64_t> read_corruptions_healed{0};
  std::atomic<uint64_t> runtime_quarantines{0};
};

class LeveledLsm : public ChunkStore {
 public:
  /// Files live under `<env fast root>/<name>/`; slow-tier objects use the
  /// key prefix `<name>/`.
  LeveledLsm(cloud::TieredEnv* env, std::string name, LeveledLsmOptions options,
             BlockCache* block_cache);
  ~LeveledLsm() override;

  Status Open() override;

  /// Inserts an entry; flush + compactions run inline when thresholds trip.
  Status Put(const Slice& user_key, const Slice& value) override;

  /// Forces the memtable to disk and runs all pending compactions.
  Status FlushAll() override;

  /// One query's cursor over `reads` (see ChunkStore::NewCursor): each
  /// read merges the memtable plus every table possibly containing its
  /// id/range, newest-first at equal keys. With ctx.scope.allow_partial,
  /// unreachable slow-level tables are skipped; without time partitioning
  /// the missing span is conservative ([min_ts, t1]). Never plans block
  /// fetches.
  Status NewCursor(const ReadContext& ctx, std::span<SeriesRead> reads,
                   std::shared_ptr<ReadCursor>* out) override;

  /// No time partitioning: chunks close on sample count only.
  int64_t PartitionEndFor(int64_t ts) const override {
    (void)ts;
    return INT64_MAX;
  }

  /// Iterator over everything (integration tests / full scans).
  Status NewFullIterator(std::unique_ptr<Iterator>* out);

  const CompactionStats& stats() const { return stats_; }
  uint64_t NumTables(int level) const;
  uint64_t TotalBytes(int level) const;
  int num_levels() const { return options_.max_levels; }

 private:
  Status FlushMemTable();
  Status MaybeCompact();
  Status CompactLevel(int level);
  /// Opens the handle's shared query reader, through the block cache,
  /// unless it has one.
  Status OpenReader(TableHandle* handle);
  /// Opens a reader of `handle` through `cache` (nullable) without storing
  /// it; compactions read their inputs this way, uncached, so they neither
  /// pollute the query block cache nor leave cache-less readers on the
  /// handles. A size mismatch or a corrupt table quarantines the handle.
  Status OpenTableReader(TableHandle* handle, BlockCache* cache,
                         std::unique_ptr<TableReader>* reader);
  Status BuildTables(Iterator* input, int target_level,
                     std::vector<TableHandle>* outputs);
  std::string FastName(uint64_t table_id) const;
  std::string SlowKey(uint64_t table_id) const;
  bool LevelIsFast(int level) const {
    return level < options_.num_fast_levels;
  }
  /// Deletes a consumed table. A slow-tier table with an open reader goes
  /// when that reader's last holder drops it.
  Status DeleteTable(const TableHandle& handle, bool was_fast);

  cloud::TieredEnv* env_;
  std::string name_;
  LeveledLsmOptions options_;
  BlockCache* block_cache_;

  std::mutex mu_;
  std::shared_ptr<MemTable> mem_;  // shared: query cursors pin it
  std::vector<std::vector<TableHandle>> levels_;  // L0 newest-first
  uint64_t next_table_id_ = 1;
  uint64_t next_seq_ = 1;
  int compaction_pointer_ = 0;  // round-robin victim index heuristic
  /// Deletes waiting for a replaced slow-tier table's last reader.
  std::shared_ptr<DeferredDeletes> deferred_deletes_;

  /// Cached observability instruments (null when options_.metrics is null).
  obs::Histogram* h_memflush_us_ = nullptr;
  obs::Histogram* h_compact_us_ = nullptr;
  obs::Histogram* h_table_build_us_ = nullptr;
  obs::EventTrace* trace_ = nullptr;

  CompactionStats stats_;
};

}  // namespace tu::lsm
