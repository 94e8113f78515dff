// MemTable: skiplist-backed write buffer. Internal keys append an inverted
// global sequence number to the 16-byte chunk key so duplicate chunk keys
// (e.g. repeated out-of-order single-sample chunks) coexist, newest first —
// "TimeUnion will keep the data sample from the newest SSTable" (§3.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "lsm/iterator.h"
#include "lsm/skiplist.h"
#include "util/arena.h"
#include "util/status.h"

namespace tu::lsm {

constexpr size_t kInternalKeySize = 24;  // 16-byte chunk key + 8-byte ~seq

/// Builds an internal key: user_key + big-endian(~seq), so ascending order
/// sorts equal user keys newest-seq first.
std::string MakeInternalKey(const Slice& user_key, uint64_t seq);

inline Slice InternalKeyUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// Sequence number encoded in the internal key.
uint64_t InternalKeySeq(const Slice& internal_key);

class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Adds an entry. `seq` must be globally increasing.
  void Add(uint64_t seq, const Slice& user_key, const Slice& value);

  /// Iterator yielding internal keys (24 bytes) and raw values.
  std::unique_ptr<Iterator> NewIterator() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }
  uint64_t num_entries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }

  /// Smallest/largest chunk starting timestamp inserted (flush routing).
  int64_t min_ts() const { return min_ts_; }
  int64_t max_ts() const { return max_ts_; }

  /// Whether this memtable's tables are already installed in the store's
  /// manifest — read and set under the owning store's manifest lock, so a
  /// second flusher reaching the same queued memtable skips it.
  bool installed() const { return installed_; }
  void MarkInstalled() { installed_ = true; }

 private:
  Arena arena_;
  SkipList table_;
  uint64_t num_entries_ = 0;
  int64_t min_ts_ = INT64_MAX;
  int64_t max_ts_ = INT64_MIN;
  bool installed_ = false;
};

}  // namespace tu::lsm
