#include "lsm/table_builder.h"

#include "lsm/key_format.h"
#include "lsm/memtable.h"
#include "util/crc32c.h"

namespace tu::lsm {

namespace {

constexpr int kRestartInterval = 16;
constexpr int kBloomBitsPerKey = 10;

}  // namespace

TableBuilder::TableBuilder(TableBuilderOptions options, BufferTableSink* sink)
    : options_(options),
      sink_(sink),
      data_block_(kRestartInterval),
      index_block_(1),
      filter_(kBloomBitsPerKey) {}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  if (pending_index_entry_) {
    // The previous data block ended; index it by its last key.
    std::string handle;
    pending_handle_.EncodeTo(&handle);
    index_block_.Add(last_data_block_key_, handle);
    pending_index_entry_ = false;
  }

  data_block_.Add(key, value);

  if (meta_.num_entries == 0) meta_.smallest_key = key.ToString();
  meta_.largest_key = key.ToString();
  ++meta_.num_entries;

  // Track ID/time bounds from the chunk user key; the bloom filter indexes
  // the 8-byte series/group ID prefix (queries probe by ID, not full key).
  const Slice user_key = InternalKeyUserKey(key);
  if (user_key.size() == kChunkKeySize) {
    const uint64_t id = ChunkKeyId(user_key);
    if (meta_.num_entries == 1 || id != last_filter_id_) {
      filter_.AddKey(Slice(user_key.data(), 8));
      last_filter_id_ = id;
    }
  }
  if (user_key.size() == kChunkKeySize) {
    const uint64_t id = ChunkKeyId(user_key);
    const int64_t ts = ChunkKeyTimestamp(user_key);
    meta_.min_series_id = std::min(meta_.min_series_id, id);
    meta_.max_series_id = std::max(meta_.max_series_id, id);
    meta_.min_ts = std::min(meta_.min_ts, ts);
    meta_.max_ts = std::max(meta_.max_ts, ts);
  }

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void TableBuilder::FlushDataBlock() {
  if (data_block_.empty()) return;
  last_data_block_key_ = data_block_.last_key();
  const Slice contents = data_block_.Finish();
  WriteBlock(contents, &pending_handle_);
  pending_index_entry_ = true;
  data_block_.Reset();
}

void TableBuilder::WriteBlock(const Slice& contents, BlockHandle* handle) {
  handle->offset = sink_->Size();
  handle->size = contents.size();
  sink_->Append(contents);

  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(BlockCompression::kNone);
  uint32_t crc = crc32c::Value(contents.data(), contents.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  sink_->Append(Slice(trailer, kBlockTrailerSize));
}

void TableBuilder::Finish(TableMeta* meta) {
  FlushDataBlock();
  if (pending_index_entry_) {
    std::string handle;
    pending_handle_.EncodeTo(&handle);
    index_block_.Add(last_data_block_key_, handle);
    pending_index_entry_ = false;
  }

  Footer footer;

  // Filter block (uncompressed: it is bit-addressed).
  {
    const std::string filter_data = filter_.Finish();
    footer.filter_handle.offset = sink_->Size();
    footer.filter_handle.size = filter_data.size();
    sink_->Append(filter_data);
  }

  // Index block.
  {
    const Slice contents = index_block_.Finish();
    WriteBlock(contents, &footer.index_handle);
  }

  std::string footer_bytes;
  footer.EncodeTo(&footer_bytes);
  sink_->Append(footer_bytes);

  meta_.file_size = sink_->Size();
  meta_.object_crc32c =
      crc32c::Value(sink_->buffer().data(), sink_->buffer().size());
  *meta = meta_;
}

uint64_t TableBuilder::EstimatedSize() const {
  return sink_->Size() + data_block_.CurrentSizeEstimate();
}

}  // namespace tu::lsm
