// TableBuilder: writes an SSTable — 4 KB prefix-compressed data blocks
// (optionally SnappyLite-compressed), a bloom filter block, an index block
// and the footer. Tables are built whole in memory and written to a tier
// in one operation, matching the paper's "new SSTables are uploaded to
// slow cloud storage" flow and its bytes-over-bandwidth cost model.
#pragma once

#include <string>

#include "lsm/block.h"
#include "lsm/bloom.h"
#include "lsm/table_format.h"

namespace tu::lsm {

/// In-memory byte sink every table is built into. The finished buffer
/// lands on its tier with one write: a fast-tier file (Append + fdatasync
/// under a .tmp name, then a rename) or one slow-tier object Put.
class BufferTableSink {
 public:
  void Append(const Slice& data) { buffer_.append(data.data(), data.size()); }
  uint64_t Size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

struct TableBuilderOptions {
  size_t block_size = 4096;  // S_block of the cost model
  int restart_interval = 16;
  bool compress_blocks = true;
  int bloom_bits_per_key = 10;
};

class TableBuilder {
 public:
  TableBuilder(TableBuilderOptions options, BufferTableSink* sink);

  /// Adds a key-value pair; internal keys must arrive in ascending order.
  void Add(const Slice& key, const Slice& value);

  /// Writes filter/index/footer and records the whole-table CRC32C in
  /// `meta`.
  void Finish(TableMeta* meta);

  uint64_t num_entries() const { return meta_.num_entries; }
  uint64_t EstimatedSize() const;

 private:
  void FlushDataBlock();
  void WriteBlock(const Slice& contents, BlockHandle* handle);

  TableBuilderOptions options_;
  BufferTableSink* sink_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder filter_;
  TableMeta meta_;
  std::string last_data_block_key_;
  uint64_t last_filter_id_ = 0;
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;
  std::string compress_scratch_;
};

}  // namespace tu::lsm
