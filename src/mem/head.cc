#include "mem/head.h"

#include <algorithm>
#include <cstring>

namespace tu::mem {

SeriesHead::SeriesHead(uint64_t id, uint64_t tag_offset, ChunkArray* chunks,
                       uint32_t samples_per_chunk)
    : id_(id),
      tag_offset_(tag_offset),
      chunks_(chunks),
      samples_per_chunk_(samples_per_chunk) {}

SeriesHead::~SeriesHead() {
  if (open_) chunks_->Free(open_->slot);
}

Status SeriesHead::OpenNewChunk(int64_t partition_end) {
  auto open = std::make_unique<OpenChunk>();
  TU_RETURN_IF_ERROR(chunks_->Allocate(&open->slot));
  char* data = chunks_->ChunkData(open->slot);
  const size_t half = chunks_->chunk_size() / 2;
  open->builder = std::make_unique<compress::SeriesChunkBuilder>(
      data, half, data + half, half);
  open->partition_end = partition_end;
  open_ = std::move(open);
  return Status::OK();
}

Status SeriesHead::MergeIntoOpen(int64_t ts, double value,
                                 AppendResult* result) {
  // Decode, merge, re-encode: §3.1 case 4 within the open chunk.
  std::vector<compress::Sample> samples;
  TU_RETURN_IF_ERROR(SnapshotOpen(&samples));
  bool replaced = false;
  auto it = std::lower_bound(
      samples.begin(), samples.end(), ts,
      [](const compress::Sample& s, int64_t t) { return s.timestamp < t; });
  if (it != samples.end() && it->timestamp == ts) {
    it->value = value;
    replaced = true;
  } else {
    samples.insert(it, compress::Sample{ts, value});
  }

  const int64_t partition_end = open_->partition_end;
  chunks_->Free(open_->slot);
  open_.reset();
  TU_RETURN_IF_ERROR(OpenNewChunk(partition_end));
  for (const compress::Sample& s : samples) {
    if (!open_->builder->HasSpace()) {
      // The merged chunk outgrew the slot (the insert perturbed the XOR
      // chains): stage the whole merged chunk as an overflow flush so no
      // sample is lost.
      chunks_->Free(open_->slot);
      open_.reset();
      compress::EncodeSeriesChunk(seq_id_, samples, &overflow_payload_);
      overflow_first_ts_ = samples.front().timestamp;
      has_overflow_ = true;
      *result = AppendResult::kChunkClosed;
      return Status::OK();
    }
    if (open_->count == 0) open_->first_ts = s.timestamp;
    open_->builder->Append(s.timestamp, s.value);
    ++open_->count;
    open_->last_ts = s.timestamp;
  }
  *result = replaced ? AppendResult::kDuplicate : AppendResult::kOk;
  return Status::OK();
}

Status SeriesHead::Append(int64_t ts, double value, int64_t partition_end,
                          AppendResult* result, bool* too_old) {
  *too_old = false;
  ++seq_id_;

  if (open_ && open_->count > 0) {
    if (ts < open_->first_ts) {
      // Older than the open chunk: caller routes to the LSM directly.
      *too_old = true;
      *result = AppendResult::kNeedsFlush;
      return Status::OK();
    }
    if (ts <= open_->last_ts) {
      // Inside the open chunk range: merge in place.
      Status s = MergeIntoOpen(ts, value, result);
      if (s.ok() && ts > last_ts_) last_ts_ = ts;
      return s;
    }
    if (ts >= open_->partition_end || !open_->builder->HasSpace()) {
      *result = AppendResult::kNeedsFlush;
      return Status::OK();
    }
  }

  if (!open_) {
    TU_RETURN_IF_ERROR(OpenNewChunk(partition_end));
  }
  if (open_->count == 0) {
    open_->first_ts = ts;
    open_->partition_end = partition_end;
    open_first_seq_ = seq_id_;
  }
  open_->builder->Append(ts, value);
  ++open_->count;
  open_->last_ts = ts;
  if (ts > last_ts_) last_ts_ = ts;

  *result = (open_->count >= samples_per_chunk_) ? AppendResult::kChunkClosed
                                                 : AppendResult::kOk;
  return Status::OK();
}

bool SeriesHead::CloseChunk(std::string* payload, int64_t* first_ts) {
  open_first_seq_ = 0;
  if (has_overflow_) {
    *payload = std::move(overflow_payload_);
    *first_ts = overflow_first_ts_;
    overflow_payload_.clear();
    has_overflow_ = false;
    return true;
  }
  if (!open_ || open_->count == 0) {
    if (open_) {
      chunks_->Free(open_->slot);
      open_.reset();
    }
    return false;
  }
  const char* data = chunks_->ChunkData(open_->slot);
  const size_t half = chunks_->chunk_size() / 2;
  compress::SerializeSeriesChunk(seq_id_, open_->count, data,
                                 open_->builder->ts_bytes(), data + half,
                                 open_->builder->val_bytes(), payload);
  *first_ts = open_->first_ts;
  chunks_->Free(open_->slot);
  open_.reset();
  return true;
}

Status SeriesHead::SnapshotOpen(std::vector<compress::Sample>* samples) const {
  samples->clear();
  if (!open_ || open_->count == 0) return Status::OK();
  const char* data = chunks_->ChunkData(open_->slot);
  const size_t half = chunks_->chunk_size() / 2;
  compress::BitReader ts_reader(data, half);
  compress::BitReader val_reader(data + half, half);
  compress::TimestampDecoder ts_dec;
  compress::ValueDecoder val_dec;
  samples->reserve(open_->count);
  for (uint32_t i = 0; i < open_->count; ++i) {
    compress::Sample s;
    s.timestamp = ts_dec.Next(&ts_reader);
    s.value = val_dec.Next(&val_reader);
    samples->push_back(s);
  }
  if (ts_reader.overrun() || val_reader.overrun()) {
    samples->clear();
    return Status::Corruption("open chunk count overruns its slot");
  }
  return Status::OK();
}

Status SeriesHead::SnapshotOpen(int64_t t0, int64_t t1,
                                std::vector<compress::Sample>* samples) const {
  TU_RETURN_IF_ERROR(SnapshotOpen(samples));
  std::erase_if(*samples, [t0, t1](const compress::Sample& s) {
    return s.timestamp < t0 || s.timestamp > t1;
  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// GroupHead
// ---------------------------------------------------------------------------

GroupHead::GroupHead(uint64_t id, uint64_t group_tag_offset,
                     ChunkArray* ts_chunks, ChunkArray* val_chunks,
                     uint32_t samples_per_chunk)
    : id_(id),
      group_tag_offset_(group_tag_offset),
      ts_chunks_(ts_chunks),
      val_chunks_(val_chunks),
      samples_per_chunk_(samples_per_chunk) {}

GroupHead::~GroupHead() { ReleaseOpen(); }

void GroupHead::ReleaseOpen() {
  if (ts_slot_valid_) {
    ts_chunks_->Free(ts_slot_);
    ts_slot_valid_ = false;
  }
  ts_writer_.reset();
  ts_encoder_ = compress::TimestampEncoder();
  for (Column& c : columns_) {
    if (c.valid) {
      val_chunks_->Free(c.slot);
      c.valid = false;
    }
    c.writer.reset();
    c.encoder = compress::NullableValueEncoder();
  }
  open_count_ = 0;
}

int GroupHead::FindMember(const std::string& labels_key) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].labels_key == labels_key) return static_cast<int>(i);
  }
  return -1;
}

Status GroupHead::AddMember(uint64_t tag_offset, const std::string& labels_key,
                            uint32_t* member_index) {
  *member_index = static_cast<uint32_t>(members_.size());
  members_.push_back(GroupMember{tag_offset, labels_key});
  columns_.emplace_back();
  if (open_count_ > 0) {
    // §3.1 case 2: backfill the new column with NULLs for existing rows.
    TU_RETURN_IF_ERROR(EnsureColumn(*member_index));
    Column& c = columns_[*member_index];
    for (uint32_t i = 0; i < open_count_; ++i) {
      c.encoder.AppendNull(c.writer.get());
    }
  }
  return Status::OK();
}

Status GroupHead::EnsureOpen(int64_t partition_end) {
  if (!ts_slot_valid_) {
    TU_RETURN_IF_ERROR(ts_chunks_->Allocate(&ts_slot_));
    ts_slot_valid_ = true;
    ts_writer_ = std::make_unique<compress::BitWriter>(
        ts_chunks_->ChunkData(ts_slot_), ts_chunks_->chunk_size());
    ts_encoder_ = compress::TimestampEncoder();
    open_count_ = 0;
    partition_end_ = partition_end;
  }
  return Status::OK();
}

Status GroupHead::EnsureColumn(size_t member_index) {
  Column& c = columns_[member_index];
  if (!c.valid) {
    TU_RETURN_IF_ERROR(val_chunks_->Allocate(&c.slot));
    c.valid = true;
    c.writer = std::make_unique<compress::BitWriter>(
        val_chunks_->ChunkData(c.slot), val_chunks_->chunk_size());
    c.encoder = compress::NullableValueEncoder();
  }
  return Status::OK();
}

bool GroupHead::RowFits() const {
  if (ts_writer_ &&
      ts_writer_->RemainingBits() < compress::kMaxBitsPerTimestamp) {
    return false;
  }
  for (const Column& c : columns_) {
    if (c.valid &&
        c.writer->RemainingBits() < compress::kMaxBitsPerNullableValue) {
      return false;
    }
  }
  return true;
}

Status GroupHead::DecodeOpen(std::vector<compress::GroupRow>* rows) const {
  rows->clear();
  if (open_count_ == 0) return Status::OK();
  compress::BitReader ts_reader(ts_chunks_->ChunkData(ts_slot_),
                                ts_chunks_->chunk_size());
  compress::TimestampDecoder ts_dec;
  std::vector<std::unique_ptr<compress::BitReader>> col_readers;
  std::vector<compress::NullableValueDecoder> col_decs(columns_.size());
  for (const Column& c : columns_) {
    col_readers.push_back(c.valid
                              ? std::make_unique<compress::BitReader>(
                                    val_chunks_->ChunkData(c.slot),
                                    val_chunks_->chunk_size())
                              : nullptr);
  }
  rows->resize(open_count_);
  for (uint32_t i = 0; i < open_count_; ++i) {
    compress::GroupRow& row = (*rows)[i];
    row.timestamp = ts_dec.Next(&ts_reader);
    row.values.resize(columns_.size());
    for (size_t m = 0; m < columns_.size(); ++m) {
      if (!col_readers[m]) {
        row.values[m] = std::nullopt;
        continue;
      }
      double v;
      if (col_decs[m].Next(col_readers[m].get(), &v)) {
        row.values[m] = v;
      } else {
        row.values[m] = std::nullopt;
      }
    }
  }
  bool overrun = ts_reader.overrun();
  for (const auto& r : col_readers) overrun = overrun || (r && r->overrun());
  if (overrun) {
    rows->clear();
    return Status::Corruption("open group chunk count overruns its slots");
  }
  return Status::OK();
}

Status GroupHead::ReencodeOpen(const std::vector<compress::GroupRow>& rows) {
  const int64_t partition_end = partition_end_;
  ReleaseOpen();
  TU_RETURN_IF_ERROR(EnsureOpen(partition_end));
  for (size_t m = 0; m < members_.size(); ++m) {
    TU_RETURN_IF_ERROR(EnsureColumn(m));
  }
  for (const compress::GroupRow& row : rows) {
    if (!RowFits()) {
      // Merged rows outgrew the slots: stage the whole merged chunk as an
      // overflow flush (mirrors SeriesHead::MergeIntoOpen).
      ReleaseOpen();
      std::vector<compress::GroupRow> full = rows;
      for (compress::GroupRow& r : full) r.values.resize(members_.size());
      compress::EncodeGroupChunk(seq_id_,
                                 static_cast<uint32_t>(members_.size()), full,
                                 &overflow_payload_);
      overflow_first_ts_ = rows.front().timestamp;
      has_overflow_ = true;
      return Status::OK();
    }
    if (open_count_ == 0) first_ts_ = row.timestamp;
    ts_encoder_.Append(ts_writer_.get(), row.timestamp);
    for (size_t m = 0; m < members_.size(); ++m) {
      Column& c = columns_[m];
      if (m < row.values.size() && row.values[m].has_value()) {
        c.encoder.AppendValue(c.writer.get(), *row.values[m]);
      } else {
        c.encoder.AppendNull(c.writer.get());
      }
    }
    ++open_count_;
  }
  return Status::OK();
}

Status GroupHead::MergeRowIntoOpen(
    int64_t ts, const std::vector<std::optional<double>>& row_values,
    AppendResult* result) {
  std::vector<compress::GroupRow> rows;
  TU_RETURN_IF_ERROR(DecodeOpen(&rows));
  auto it = std::lower_bound(rows.begin(), rows.end(), ts,
                             [](const compress::GroupRow& r, int64_t t) {
                               return r.timestamp < t;
                             });
  bool replaced = false;
  if (it != rows.end() && it->timestamp == ts) {
    // Same-timestamp row: overwrite the provided members, keep the rest.
    it->values.resize(members_.size());
    for (size_t m = 0; m < row_values.size(); ++m) {
      if (row_values[m].has_value()) it->values[m] = row_values[m];
    }
    replaced = true;
  } else {
    compress::GroupRow row;
    row.timestamp = ts;
    row.values = row_values;
    row.values.resize(members_.size());
    rows.insert(it, std::move(row));
  }
  TU_RETURN_IF_ERROR(ReencodeOpen(rows));
  if (has_overflow_) {
    *result = AppendResult::kChunkClosed;  // caller must CloseChunk
  } else {
    *result = replaced ? AppendResult::kDuplicate : AppendResult::kOk;
  }
  return Status::OK();
}

Status GroupHead::InsertRow(int64_t ts,
                            const std::vector<uint32_t>& member_indexes,
                            const std::vector<double>& values,
                            int64_t partition_end, AppendResult* result,
                            bool* too_old) {
  *too_old = false;
  ++seq_id_;

  std::vector<std::optional<double>> row_values(members_.size());
  for (size_t i = 0; i < member_indexes.size(); ++i) {
    row_values[member_indexes[i]] = values[i];
  }

  if (open_count_ > 0) {
    if (ts < first_ts_) {
      *too_old = true;
      *result = AppendResult::kNeedsFlush;
      return Status::OK();
    }
    if (ts <= last_ts_) {
      Status s = MergeRowIntoOpen(ts, row_values, result);
      if (s.ok() && ts > last_ts_) last_ts_ = ts;
      return s;
    }
    if (ts >= partition_end_ || !RowFits()) {
      *result = AppendResult::kNeedsFlush;
      return Status::OK();
    }
  }

  TU_RETURN_IF_ERROR(EnsureOpen(partition_end));
  if (open_count_ == 0) {
    first_ts_ = ts;
    partition_end_ = partition_end;
    open_first_seq_ = seq_id_;
  }
  ts_encoder_.Append(ts_writer_.get(), ts);
  for (size_t m = 0; m < members_.size(); ++m) {
    TU_RETURN_IF_ERROR(EnsureColumn(m));
    Column& c = columns_[m];
    if (row_values[m].has_value()) {
      c.encoder.AppendValue(c.writer.get(), *row_values[m]);
    } else {
      c.encoder.AppendNull(c.writer.get());
    }
  }
  ++open_count_;
  if (ts > last_ts_) last_ts_ = ts;

  *result = (open_count_ >= samples_per_chunk_) ? AppendResult::kChunkClosed
                                                : AppendResult::kOk;
  return Status::OK();
}

bool GroupHead::CloseChunk(std::string* payload, int64_t* first_ts) {
  open_first_seq_ = 0;
  if (has_overflow_) {
    *payload = std::move(overflow_payload_);
    *first_ts = overflow_first_ts_;
    overflow_payload_.clear();
    has_overflow_ = false;
    return true;
  }
  if (open_count_ == 0) {
    ReleaseOpen();
    return false;
  }
  std::vector<std::pair<const char*, size_t>> cols;
  cols.reserve(columns_.size());
  for (const Column& c : columns_) {
    if (c.valid) {
      cols.emplace_back(val_chunks_->ChunkData(c.slot), c.writer->BytesUsed());
    } else {
      cols.emplace_back(nullptr, 0);
    }
  }
  // Columns that were never opened encode open_count_ NULLs lazily: a
  // zero-length column is decoded as all-NULL by convention. To keep the
  // format self-contained we materialize them here instead.
  std::vector<std::string> null_cols(columns_.size());
  for (size_t m = 0; m < columns_.size(); ++m) {
    if (cols[m].first == nullptr) {
      null_cols[m].resize((open_count_ + 7) / 8 + 1, '\0');
      compress::BitWriter w(null_cols[m].data(), null_cols[m].size());
      compress::NullableValueEncoder enc;
      for (uint32_t i = 0; i < open_count_; ++i) enc.AppendNull(&w);
      cols[m] = {null_cols[m].data(), w.BytesUsed()};
    }
  }
  compress::SerializeGroupChunk(seq_id_, open_count_,
                                ts_chunks_->ChunkData(ts_slot_),
                                ts_writer_->BytesUsed(), cols, payload);
  *first_ts = first_ts_;
  ReleaseOpen();
  return true;
}

Status GroupHead::SnapshotMember(uint32_t member_index,
                                 std::vector<compress::Sample>* samples) const {
  samples->clear();
  if (open_count_ == 0 || member_index >= columns_.size()) return Status::OK();
  std::vector<compress::GroupRow> rows;
  TU_RETURN_IF_ERROR(DecodeOpen(&rows));
  for (const compress::GroupRow& row : rows) {
    if (row.values[member_index].has_value()) {
      samples->push_back(
          compress::Sample{row.timestamp, *row.values[member_index]});
    }
  }
  return Status::OK();
}

Status GroupHead::SnapshotMember(uint32_t member_index, int64_t t0, int64_t t1,
                                 std::vector<compress::Sample>* samples) const {
  TU_RETURN_IF_ERROR(SnapshotMember(member_index, samples));
  std::erase_if(*samples, [t0, t1](const compress::Sample& s) {
    return s.timestamp < t0 || s.timestamp > t1;
  });
  return Status::OK();
}

}  // namespace tu::mem
