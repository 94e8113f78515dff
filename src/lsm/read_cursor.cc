#include "lsm/read_cursor.h"

#include <cstring>

#include "lsm/key_format.h"
#include "lsm/table_reader.h"

namespace tu::lsm {

ReadCursor::ReadCursor(query::QueryStats* stats,
                       std::span<const SeriesRead> reads)
    : stats_(stats) {
  reads_.reserve(reads.size());
  for (const SeriesRead& r : reads) {
    reads_.push_back(Read{r.id, r.t0, MakeChunkKey(r.id, r.t1), {}, {}});
  }
}

void ReadCursor::AddMemTable(std::shared_ptr<MemTable> mem) {
  Source src;
  src.mem = std::move(mem);
  sources_.push_back(std::move(src));
  ++num_mems_;
}

uint32_t ReadCursor::AddTable(std::shared_ptr<TableReader> reader) {
  Source src;
  src.reader = std::move(reader);
  sources_.push_back(std::move(src));
  return static_cast<uint32_t>(sources_.size() - 1);
}

void ReadCursor::Admit(size_t read, uint32_t table) {
  reads_[read].tables.push_back(table);
}

void ReadCursor::Finish() {
  for (Source& src : sources_) {
    if (src.mem != nullptr) {
      src.it = src.mem->NewIterator();
    } else {
      std::unique_ptr<TableIterator> table =
          src.reader->NewIterator(stats_, std::string());
      src.table = table.get();
      src.it = std::move(table);
    }
  }
  for (Read& r : reads_) {
    r.iters.reserve(num_mems_ + r.tables.size());
    for (uint32_t i = 0; i < num_mems_; ++i) {
      r.iters.push_back(sources_[i].it.get());
    }
    for (uint32_t i : r.tables) r.iters.push_back(sources_[i].it.get());
  }
}

void ReadCursor::PlanFetches(BlockPrefetch* prefetch, ThreadPool* pool,
                             int64_t seek_slack_ms) {
  for (const Read& r : reads_) {
    const std::string seek_key = ChunkSeekKey(r.id, r.t0, seek_slack_ms);
    for (uint32_t i : r.tables) {
      Source& src = sources_[i];
      if (!src.reader->on_slow()) continue;
      std::vector<std::shared_ptr<BlockFetch>> fetches;
      for (const BlockHandle& b : src.reader->BlockRange(seek_key,
                                                         r.upper_bound)) {
        fetches.push_back(prefetch->Plan(pool, src.reader, b));
      }
      src.table->AddFetches(std::move(fetches));
    }
  }
}

std::unique_ptr<SeriesCursor> ReadCursor::NewSeriesCursor(size_t read) {
  return std::make_unique<SeriesCursor>(shared_from_this(), read);
}

void ReadCursor::Position(Source* src, const Slice& target) {
  if (src->has_floor) {
    // Is the first key >= target the current position? Yes when no key
    // lies between the floor and the target, and the target is at or
    // before the current key, or the source ran to its end.
    const Iterator& it = *src->it;
    const bool at_or_before =
        it.Valid() ? target.compare(it.key()) <= 0
                   : it.status().ok() &&
                         (src->table == nullptr ||
                          !src->table->stopped_at_bound());
    const int c = Slice(src->floor, src->floor_size).compare(target);
    if (at_or_before && (src->floor_open ? c < 0 : c <= 0)) return;
  }
  src->it->Seek(target);
  SetFloor(src, target, /*open=*/false);
}

void ReadCursor::SetFloor(Source* src, const Slice& key, bool open) {
  src->has_floor = key.size() <= sizeof(src->floor);
  if (!src->has_floor) return;
  std::memcpy(src->floor, key.data(), key.size());
  src->floor_size = static_cast<uint8_t>(key.size());
  src->floor_open = open;
}

SeriesCursor::SeriesCursor(std::shared_ptr<ReadCursor> cursor, size_t read)
    : cursor_(std::move(cursor)), read_(&cursor_->reads_[read]) {}

SeriesCursor::~SeriesCursor() {
  if (cursor_->owner_ == this) cursor_->owner_ = nullptr;
}

void SeriesCursor::TakeOver() {
  SeriesCursor* prev = cursor_->owner_;
  if (prev == this) return;
  if (prev != nullptr) prev->Park();
  cursor_->owner_ = this;
}

void SeriesCursor::Park() {
  if (heap_.empty()) return;
  const Slice key = heap_.top_key();
  resume_key_.assign(key.data(), key.size());
  parked_ = true;
}

void SeriesCursor::Reacquire() {
  TakeOver();
  parked_ = false;
  PositionAt(resume_key_);
}

void SeriesCursor::Seek(const Slice& target) {
  TakeOver();
  parked_ = false;
  PositionAt(target);
}

void SeriesCursor::PositionAt(const Slice& target) {
  for (uint32_t i = 0; i < read_->iters.size(); ++i) {
    ReadCursor::Source& src = cursor_->SourceOf(*read_, i);
    if (src.table != nullptr) src.table->SetUpperBound(read_->upper_bound);
    ReadCursor::Position(&src, target);
  }
  heap_.Rebuild(read_->iters);
}

void SeriesCursor::RaiseFloor() {
  ReadCursor::SetFloor(&cursor_->SourceOf(*read_, heap_.top_ordinal()),
                       heap_.top_key(), /*open=*/true);
}

void SeriesCursor::Next() {
  Resume();
  RaiseFloor();
  heap_.top()->Next();
  heap_.Reposition();
}

Status SeriesCursor::NextBatch(int member_slot, query::SampleBatch* batch) {
  Resume();
  if (heap_.empty()) {
    batch->clear();
    return heap_.status();
  }
  RaiseFloor();
  TU_RETURN_IF_ERROR(heap_.top()->NextBatch(member_slot, batch));
  heap_.Reposition();
  return heap_.status();
}

}  // namespace tu::lsm
