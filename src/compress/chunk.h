// Chunk formats (§3.1 physical view): the serialized byte arrays that
// become values of key-value pairs in the time-partitioned LSM-tree.
//
//   SeriesChunk — one individual timeseries: Gorilla timestamps + XOR values.
//   GroupChunk  — one timeseries group: a single shared timestamp column plus
//                 one NULL-extended XOR value column per member.
//
// Serialized layout (SeriesChunk):
//   varint64 seq_id | varint32 count | varint32 ts_len | ts bits
//                   | varint32 val_len | value bits
// Serialized layout (GroupChunk):
//   varint64 seq_id | varint32 count | varint32 num_members
//                   | varint32 ts_len | ts bits
//                   | per member: varint32 len | nullable value bits
//
// seq_id is the logging sequence number embedded at the front of the chunk
// (§3.3 Logging) so recovery can tell which WAL entries are superseded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compress/gorilla.h"
#include "query/sample_batch.h"
#include "util/slice.h"
#include "util/status.h"

namespace tu::compress {

/// One decoded data point of an individual series.
struct Sample {
  int64_t timestamp = 0;
  double value = 0;

  bool operator==(const Sample&) const = default;
};

/// Streaming builder of a SeriesChunk into a caller-provided buffer
/// (typically an mmap slot). State is small and heap-free.
class SeriesChunkBuilder {
 public:
  /// `ts_buf`/`val_buf` receive the compressed bit streams.
  SeriesChunkBuilder(char* ts_buf, size_t ts_cap, char* val_buf, size_t val_cap)
      : ts_writer_(ts_buf, ts_cap), val_writer_(val_buf, val_cap) {}

  /// True if another sample is guaranteed to fit.
  bool HasSpace() const {
    return ts_writer_.RemainingBits() >= kMaxBitsPerTimestamp &&
           val_writer_.RemainingBits() >= kMaxBitsPerValue;
  }

  void Append(int64_t ts, double value) {
    ts_enc_.Append(&ts_writer_, ts);
    val_enc_.Append(&val_writer_, value);
    ++count_;
  }

  uint32_t count() const { return count_; }
  int64_t first_ts() const { return first_ts_set_ ? first_ts_ : 0; }
  int64_t last_ts() const { return ts_enc_.last_ts(); }
  size_t ts_bytes() const { return ts_writer_.BytesUsed(); }
  size_t val_bytes() const { return val_writer_.BytesUsed(); }

  /// Marks the first timestamp (callers invoke before the first Append).
  void NoteFirstTimestamp(int64_t ts) {
    if (!first_ts_set_) {
      first_ts_ = ts;
      first_ts_set_ = true;
    }
  }

 private:
  BitWriter ts_writer_;
  BitWriter val_writer_;
  TimestampEncoder ts_enc_;
  ValueEncoder val_enc_;
  uint32_t count_ = 0;
  int64_t first_ts_ = 0;
  bool first_ts_set_ = false;
};

/// Serializes a finished series chunk (§3.1: concatenate and serialize the
/// timestamp chunk and value chunk into one byte array).
void SerializeSeriesChunk(uint64_t seq_id, uint32_t count, const char* ts_bits,
                          size_t ts_len, const char* val_bits, size_t val_len,
                          std::string* out);

/// Convenience: builds + serializes from decoded samples (compaction path).
void EncodeSeriesChunk(uint64_t seq_id, const std::vector<Sample>& samples,
                       std::string* out);
/// The same from timestamp/value columns of `n` samples.
void EncodeSeriesChunk(uint64_t seq_id, const int64_t* timestamps,
                       const double* values, size_t n, std::string* out);

/// Decodes a serialized series chunk into rows (through
/// DecodeSeriesChunkBatch).
Status DecodeSeriesChunk(const Slice& data, uint64_t* seq_id,
                         std::vector<Sample>* samples);

/// Vectorized decode of a serialized series chunk straight into column
/// batches via the bulk Gorilla paths — no per-sample call crosses this
/// boundary and the bit streams are decoded in place (no copies).
/// `batch->seq` is left untouched (the LSM layer sets the dedup seq from
/// the internal key); `batch->validity` comes back empty (dense).
Status DecodeSeriesChunkBatch(const Slice& data, query::SampleBatch* batch);

/// Vectorized DecodeGroupMember: bulk-decodes the shared timestamp column
/// and the selected member column, then compacts the member's present
/// rows into dense batch columns (NULL rows are dropped, like
/// DecodeGroupMember). A member index past the chunk's column count
/// yields an empty batch, OK.
Status DecodeGroupMemberBatch(const Slice& data, uint32_t member_index,
                              query::SampleBatch* batch);

// ---------------------------------------------------------------------------
// Group chunks
// ---------------------------------------------------------------------------

/// One decoded row of a group chunk: shared timestamp + per-member values
/// (nullopt = member missing that round).
struct GroupRow {
  int64_t timestamp = 0;
  std::vector<std::optional<double>> values;
};

/// Serializes a group chunk from columnar bit streams.
void SerializeGroupChunk(uint64_t seq_id, uint32_t count, const char* ts_bits,
                         size_t ts_len,
                         const std::vector<std::pair<const char*, size_t>>& cols,
                         std::string* out);

/// Convenience: encodes decoded rows (compaction path). All rows must have
/// values.size() == num_members.
void EncodeGroupChunk(uint64_t seq_id, uint32_t num_members,
                      const std::vector<GroupRow>& rows, std::string* out);

/// Decodes a serialized group chunk into rows.
Status DecodeGroupChunk(const Slice& data, uint64_t* seq_id,
                        uint32_t* num_members, std::vector<GroupRow>* rows);

/// Extracts just the (timestamp, value) samples of member `member_index`
/// from a serialized group chunk (query path: skips other columns' decode
/// of non-target members only to the extent the format allows — columns are
/// length-prefixed so non-target columns are skipped without bit decoding).
Status DecodeGroupMember(const Slice& data, uint32_t member_index,
                         std::vector<Sample>* samples);

}  // namespace tu::compress
