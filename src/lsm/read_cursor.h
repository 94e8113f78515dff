// ReadCursor: one query's pass over an LSM store. Chunk keys sort by
// (series id, start time), and ids are handed out at registration, so the
// series of one query sit next to each other in every table. A cursor
// pins the memtables and selects the tables for all of a query's series
// under one acquisition of the store's locks (ChunkStore::NewCursor), and
// keeps ONE iterator per memtable and per selected table. Each series
// reads through a SeriesCursor handle that moves those shared iterators to
// its own id, so a query that drains its series in id order walks every
// table once, front to back, instead of building and seeking a fresh
// iterator stack per series.
//
// Rules (DESIGN.md "Query pipeline"):
//   - Selection is per series: a series merges only the tables whose id
//     range, time meta and bloom admit its id, and keeps its own missing
//     spans and pruning counts.
//   - Skip rule: every shared iterator remembers a floor — no key of its
//     source lies in [floor, key()) after a seek, or in (floor, key())
//     after an advance past `floor`. A series seeking to T leaves an
//     iterator where it is when floor <= T and T <= key() (or the source
//     has ended): the first key >= T is the current one (or none).
//     Draining in id order, every iterator a series finds has passed only
//     keys of smaller ids, so one is sought only to skip keys of series
//     the query does not read; a table iterator that must move forward
//     stays in its current block when T falls there (TableIterator::Seek).
//   - Resume rule: a handle that loses the cursor to another series
//     records the internal key it stood at and seeks back there when it
//     is used again, so any drain order (reverse, round-robin, mixed) is
//     exact. Handles drained in id order never lose the cursor mid-series.
//
// Handles of one cursor share iterators and the query's QueryStats: use
// them from one thread at a time (in any order).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/merging_iterator.h"
#include "query/read_context.h"

namespace tu {
class ThreadPool;
}  // namespace tu

namespace tu::lsm {

class BlockPrefetch;
class TableIterator;
class TableReader;

/// One series read a cursor serves: all chunks of `id` that may hold
/// samples in [t0, t1]. NewCursor fills `missing` with the closed spans a
/// partial read could not serve (unclamped; callers clamp and merge).
struct SeriesRead {
  uint64_t id = 0;
  int64_t t0 = INT64_MIN;
  int64_t t1 = INT64_MAX;
  std::vector<std::pair<int64_t, int64_t>> missing;
};

class SeriesCursor;

class ReadCursor : public std::enable_shared_from_this<ReadCursor> {
 public:
  /// `stats` (nullable) receives the block and cache counters of every
  /// table iterator; it must outlive the cursor.
  ReadCursor(query::QueryStats* stats, std::span<const SeriesRead> reads);
  ReadCursor(const ReadCursor&) = delete;
  ReadCursor& operator=(const ReadCursor&) = delete;

  // -- Building (ChunkStore::NewCursor) ------------------------------------

  /// Pins a memtable; every series reads every memtable. Memtables are
  /// added before any table.
  void AddMemTable(std::shared_ptr<MemTable> mem);
  /// Pins a table some series admits; returns its index for Admit.
  uint32_t AddTable(std::shared_ptr<TableReader> reader);
  /// Series `read` merges table `table` (in call order after memtables).
  void Admit(size_t read, uint32_t table);
  /// Ends selection: creates the shared iterators (no store lock needed,
  /// the pins keep the sources alive).
  void Finish();
  /// Adds, series by series, every slow-tier block a drain of each series
  /// from ChunkSeekKey(id, t0, seek_slack_ms) to its (id, t1) bound reads
  /// to `prefetch`, fetched on `pool`; the slots go to the table's single
  /// iterator. Fast-tier tables are never planned. After Finish().
  void PlanFetches(BlockPrefetch* prefetch, ThreadPool* pool,
                   int64_t seek_slack_ms);

  /// The handle of series `read`, positioned nowhere until its first seek.
  std::unique_ptr<SeriesCursor> NewSeriesCursor(size_t read);

 private:
  friend class SeriesCursor;

  /// One shared iterator with its skip-rule floor. The pins come first,
  /// so they outlive the iterator that reads them.
  struct Source {
    std::shared_ptr<MemTable> mem;        ///< pin (memtable sources)
    std::shared_ptr<TableReader> reader;  ///< pin (table sources)
    std::unique_ptr<Iterator> it;
    TableIterator* table = nullptr;       ///< == it.get() for tables
    /// Inline (no allocation per source): keys are internal keys and seek
    /// targets no longer. A longer target leaves no floor, and the next
    /// positioning seeks.
    char floor[kInternalKeySize] = {};
    uint8_t floor_size = 0;
    bool has_floor = false;
    bool floor_open = false;  ///< floor itself was passed (exclusive)
  };

  struct Read {
    uint64_t id = 0;
    int64_t t0 = 0;
    std::string upper_bound;       ///< MakeChunkKey(id, t1)
    std::vector<uint32_t> tables;  ///< admitted table sources, in order
    /// The merge children: every memtable, then `tables` (after Finish).
    std::vector<Iterator*> iters;
  };

  /// The source behind merge child `ordinal` of `read`.
  Source& SourceOf(const Read& read, uint32_t ordinal) {
    return sources_[ordinal < num_mems_ ? ordinal
                                        : read.tables[ordinal - num_mems_]];
  }
  /// Positions `src` at the first key >= target, under the skip rule.
  static void Position(Source* src, const Slice& target);
  /// Records `key` as `src`'s floor (`open`: the key itself was passed).
  static void SetFloor(Source* src, const Slice& key, bool open);

  query::QueryStats* stats_;
  uint32_t num_mems_ = 0;
  std::vector<Source> sources_;  ///< memtables first, then tables
  std::vector<Read> reads_;
  /// The handle the shared iterators are positioned for (null: none).
  SeriesCursor* owner_ = nullptr;
};

/// One series' view of a ReadCursor: the merge of the memtables and of
/// the tables the series admits, newest source first at equal keys. The
/// one Iterator a series reads through — NewIteratorForId hands out the
/// one-series case.
class SeriesCursor final : public Iterator {
 public:
  SeriesCursor(std::shared_ptr<ReadCursor> cursor, size_t read);
  ~SeriesCursor() override;

  bool Valid() const override {
    Resume();
    return !heap_.empty();
  }
  void SeekToFirst() override { Seek(Slice()); }
  void Seek(const Slice& target) override;
  void Next() override;
  Slice key() const override {
    Resume();
    return heap_.top_key();
  }
  Slice value() const override {
    Resume();
    return heap_.top()->value();
  }
  Status status() const override { return heap_.status(); }
  Status NextBatch(int member_slot, query::SampleBatch* batch) override;

 private:
  /// Takes the cursor back if another handle moved it since this one
  /// parked. Logically const: to the caller the handle never moved.
  void Resume() const {
    if (parked_) const_cast<SeriesCursor*>(this)->Reacquire();
  }
  void Reacquire();
  /// Makes this handle the cursor's owner, parking the previous one.
  void TakeOver();
  /// Called when another handle takes the cursor: remembers the key to
  /// resume at (nothing to remember when exhausted or never sought).
  void Park();
  void PositionAt(const Slice& target);
  /// The top source is about to advance past its key: raise its floor.
  void RaiseFloor();

  std::shared_ptr<ReadCursor> cursor_;
  const ReadCursor::Read* read_;
  MergeHeap heap_;
  bool parked_ = false;
  std::string resume_key_;
};

}  // namespace tu::lsm
