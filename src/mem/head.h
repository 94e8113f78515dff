// Head objects: the per-timeseries / per-group memory objects of §3.2-3.3.
// Each head owns a small open chunk (default 32 samples) whose compressed
// bytes live in mmap chunk arrays (Fig. 9):
//   - individual series: timestamps + values share one chunk slot
//     (two halves of the slot);
//   - groups: one shared timestamp chunk + one value chunk per member,
//     in separate arrays.
// When an open chunk fills (or a partition boundary / early-flush event
// closes it), the head serializes it into the key-value pair inserted into
// the time-partitioned LSM-tree.
//
// Thread safety: heads are externally synchronized. TimeUnionDB guards
// every head mutation AND read (Append/InsertRow, CloseChunk, Snapshot*,
// seq_id/last_ts/num_members) with the per-entry striped append lock;
// heads themselves hold no locks. The underlying ChunkArray is internally
// synchronized and its payload pointers are stable, so two heads under
// different entry locks may allocate/write chunks concurrently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/chunk.h"
#include "compress/gorilla.h"
#include "index/labels.h"
#include "mem/chunk_array.h"
#include "util/status.h"

namespace tu::mem {

/// Append outcome of head open-chunk operations.
enum class AppendResult {
  kOk,            // appended to the open chunk
  kChunkClosed,   // append done; the chunk filled up and must be flushed
  kNeedsFlush,    // cannot append until the caller closes the open chunk
  kDuplicate,     // same-timestamp sample replaced in place
};

/// Memory object of one individual timeseries.
class SeriesHead {
 public:
  /// `chunks`: the series chunk array; one slot holds both columns
  /// (first half timestamps, second half values). samples_per_chunk is the
  /// chunk close threshold (§3.2: 32 by default, user-adjustable).
  SeriesHead(uint64_t id, uint64_t tag_offset, ChunkArray* chunks,
             uint32_t samples_per_chunk);
  ~SeriesHead();

  uint64_t id() const { return id_; }
  uint64_t tag_offset() const { return tag_offset_; }
  uint64_t seq_id() const { return seq_id_; }
  int64_t last_ts() const { return last_ts_; }
  bool has_open_chunk() const { return open_ != nullptr; }
  int64_t open_first_ts() const { return open_ ? open_->first_ts : 0; }
  uint32_t open_count() const { return open_ ? open_->count : 0; }
  /// Seq of the oldest sample still in the open chunk; 0 when it is empty.
  uint64_t open_first_seq() const { return open_first_seq_; }
  /// Recovery: resumes seq numbering at `seq` so new samples (and the
  /// chunks and flush marks stamped from them) sort after logged ones.
  void AdvanceSeq(uint64_t seq) { seq_id_ = std::max(seq_id_, seq); }

  /// Appends one sample. `partition_end` bounds the open chunk: a sample
  /// with ts >= partition_end returns kNeedsFlush so the caller closes the
  /// chunk first (chunks never span time partitions, §3.3).
  /// Out-of-order samples inside the open chunk range are merged in place;
  /// samples older than the open chunk return kNeedsFlush with
  /// *too_old=true so the caller routes them directly to the LSM.
  Status Append(int64_t ts, double value, int64_t partition_end,
                AppendResult* result, bool* too_old);

  /// Serializes and releases the open chunk. Returns the chunk payload
  /// (seq-id embedded) and its starting timestamp. No-op -> false when
  /// there is no open chunk.
  bool CloseChunk(std::string* payload, int64_t* first_ts);

  /// Copies the open chunk samples (query path). Empty if none.
  Status SnapshotOpen(std::vector<compress::Sample>* samples) const;

  /// Range-restricted snapshot for the unified query pipeline: only
  /// samples inside [t0, t1] are copied, so a narrow query does not drag
  /// the whole open chunk through the entry lock.
  Status SnapshotOpen(int64_t t0, int64_t t1,
                      std::vector<compress::Sample>* samples) const;

 private:
  struct OpenChunk {
    uint64_t slot = 0;
    std::unique_ptr<compress::SeriesChunkBuilder> builder;
    uint32_t count = 0;
    int64_t first_ts = 0;
    int64_t last_ts = 0;
    int64_t partition_end = 0;
  };

  Status OpenNewChunk(int64_t partition_end);
  /// Decodes the open chunk, merges `(ts, value)`, re-encodes in place. If
  /// the merged chunk no longer fits the slot, it is staged as an overflow
  /// payload and the caller must CloseChunk() (signalled by kChunkClosed).
  Status MergeIntoOpen(int64_t ts, double value, AppendResult* result);

  uint64_t id_;
  uint64_t tag_offset_;
  ChunkArray* chunks_;
  uint32_t samples_per_chunk_;
  std::unique_ptr<OpenChunk> open_;
  /// Set when a merge outgrew the slot: consumed by the next CloseChunk.
  std::string overflow_payload_;
  int64_t overflow_first_ts_ = 0;
  bool has_overflow_ = false;
  uint64_t seq_id_ = 0;
  uint64_t open_first_seq_ = 0;
  int64_t last_ts_ = INT64_MIN;
};

/// One member of a group: its unique tags (offset into the TagStore) plus
/// its open value column.
struct GroupMember {
  uint64_t tag_offset = 0;
  std::string labels_key;  // dedup key of the unique tags
};

/// Memory object of one timeseries group: shared timestamp column +
/// independent per-member value columns (§3.1 physical view).
class GroupHead {
 public:
  GroupHead(uint64_t id, uint64_t group_tag_offset, ChunkArray* ts_chunks,
            ChunkArray* val_chunks, uint32_t samples_per_chunk);
  ~GroupHead();

  uint64_t id() const { return id_; }
  uint64_t group_tag_offset() const { return group_tag_offset_; }
  uint64_t seq_id() const { return seq_id_; }
  int64_t last_ts() const { return last_ts_; }
  bool has_open_chunk() const { return open_count_ > 0 || ts_slot_valid_; }
  int64_t open_first_ts() const { return first_ts_; }
  uint32_t open_count() const { return open_count_; }
  /// See SeriesHead::open_first_seq / AdvanceSeq.
  uint64_t open_first_seq() const { return open_first_seq_; }
  void AdvanceSeq(uint64_t seq) { seq_id_ = std::max(seq_id_, seq); }

  size_t num_members() const { return members_.size(); }
  const GroupMember& member(size_t i) const { return members_[i]; }

  /// Finds a member by its unique-tags key; returns member index or -1.
  int FindMember(const std::string& labels_key) const;

  /// Appends a member (§3.1 case 2: insertion with new timeseries). If the
  /// open chunk already has rows, the new column is backfilled with NULLs.
  Status AddMember(uint64_t tag_offset, const std::string& labels_key,
                   uint32_t* member_index);

  /// Inserts one shared-timestamp row. `member_indexes`/`values` list the
  /// members present this round; all other members get NULL (§3.1 case 3).
  /// Same semantics as SeriesHead::Append for partition bounds and
  /// out-of-order rows.
  Status InsertRow(int64_t ts, const std::vector<uint32_t>& member_indexes,
                   const std::vector<double>& values, int64_t partition_end,
                   AppendResult* result, bool* too_old);

  /// Serializes and releases the open chunk (group format).
  bool CloseChunk(std::string* payload, int64_t* first_ts);

  /// Copies the open-chunk samples of one member (query path).
  Status SnapshotMember(uint32_t member_index,
                        std::vector<compress::Sample>* samples) const;

  /// Range-restricted member snapshot (see SeriesHead::SnapshotOpen).
  Status SnapshotMember(uint32_t member_index, int64_t t0, int64_t t1,
                        std::vector<compress::Sample>* samples) const;

 private:
  struct Column {
    uint64_t slot = 0;
    bool valid = false;
    std::unique_ptr<compress::BitWriter> writer;
    compress::NullableValueEncoder encoder;
  };

  Status EnsureOpen(int64_t partition_end);
  Status EnsureColumn(size_t member_index);
  /// Re-encodes the open chunk with row (ts, values) merged in.
  Status MergeRowIntoOpen(int64_t ts,
                          const std::vector<std::optional<double>>& row_values,
                          AppendResult* result);
  /// Decodes the current open chunk into rows.
  Status DecodeOpen(std::vector<compress::GroupRow>* rows) const;
  void ReleaseOpen();
  /// Writes decoded rows back into fresh column buffers.
  Status ReencodeOpen(const std::vector<compress::GroupRow>& rows);
  bool RowFits() const;

  uint64_t id_;
  uint64_t group_tag_offset_;
  ChunkArray* ts_chunks_;
  ChunkArray* val_chunks_;
  uint32_t samples_per_chunk_;

  std::vector<GroupMember> members_;

  // Open chunk state.
  /// Set when a merge outgrew the column slots: consumed by CloseChunk.
  std::string overflow_payload_;
  int64_t overflow_first_ts_ = 0;
  bool has_overflow_ = false;

  bool ts_slot_valid_ = false;
  uint64_t ts_slot_ = 0;
  std::unique_ptr<compress::BitWriter> ts_writer_;
  compress::TimestampEncoder ts_encoder_;
  std::vector<Column> columns_;
  uint32_t open_count_ = 0;
  int64_t first_ts_ = 0;
  int64_t partition_end_ = 0;

  uint64_t seq_id_ = 0;
  uint64_t open_first_seq_ = 0;
  int64_t last_ts_ = INT64_MIN;
};

}  // namespace tu::mem
