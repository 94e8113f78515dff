// MergingIterator: k-way merge over child iterators in ascending internal
// key order — the §3.4 "merge iterator which connects the individual
// iterators of all related MemTables and SSTables".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lsm/iterator.h"

namespace tu::lsm {

/// The merge step itself, over children it does not own: a binary min-heap
/// of cached keys. A full-span read over a time-partitioned tree can carry
/// a hundred-plus children; the heap touches O(log n) entries per advance,
/// and because partitions hold disjoint time ranges the advanced child
/// usually stays smallest, so the sift-down ends after one compare.
///
/// A child's cached key Slice points into storage owned by that child
/// (memtable node, pinned block) and stays valid until the child advances;
/// only the top child may be advanced, and Reposition() must follow.
/// Duplicate keys come out in child order (lower ordinal first).
class MergeHeap {
 public:
  /// Rebuilds the heap from `children` (ordinal = position), all already
  /// positioned. A child found invalid with a non-OK status latches that
  /// status, and a merge with a latched error stays empty.
  void Rebuild(std::span<Iterator* const> children);
  /// Re-establishes the heap after the top child advanced.
  void Reposition();

  bool empty() const { return heap_.empty(); }
  Iterator* top() const { return heap_[0].it; }
  Slice top_key() const { return heap_[0].key; }
  /// Ordinal of the top child in the span Rebuild was given.
  uint32_t top_ordinal() const { return heap_[0].ordinal; }
  const Status& status() const { return status_; }

 private:
  struct Entry {
    Slice key;         ///< cached it->key(); valid until the child advances
    uint32_t ordinal;  ///< ties resolve to the lowest ordinal
    Iterator* it;
  };

  static bool Before(const Entry& a, const Entry& b) {
    const int c = a.key.compare(b.key);
    return c != 0 ? c < 0 : a.ordinal < b.ordinal;
  }

  /// Latches the first child error so the merge fails fast instead of
  /// yielding a silently incomplete stream.
  void Retire(Iterator* it) {
    if (status_.ok()) status_ = it->status();
  }
  void SiftDown(size_t i);

  std::vector<Entry> heap_;
  Status status_;
};

/// Takes ownership of the children. Yields entries of all children in
/// ascending key order; duplicate keys are yielded in child order (callers
/// place newer sources first and apply newest-wins at decode time).
std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children);

}  // namespace tu::lsm
