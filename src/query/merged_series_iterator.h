// Streaming query results (§3.4): "users can obtain its iterator to
// iteratively get its data samples with a merge iterator which connects
// the individual iterators of all related MemTables and SSTables".
//
// MergedSeriesIterator is the one place the open-chunk-vs-LSM seq-dedup
// merge lives — and since the vectorized-read-path refactor it operates on
// whole column batches, not samples: each LSM chunk is bulk-decoded via
// lsm::Iterator::NextBatch into a query::SampleBatch, clipped to the query
// range by binary-searching the batch edges, and merged into a bounded
// staging run with newest-chunk-wins seq dedup. A staged timestamp is
// final once the next chunk's starting timestamp sorts past it (chunks
// arrive in ascending start order and only cover timestamps at or after
// their start), so finalized prefixes are emitted as whole batches — the
// memory bound per drain is O(open chunk + in-flight chunk overlap), not
// the query span.
//
// Consumers choose their granularity: NextBatch() hands out finalized
// column runs for bulk materialization (TimeUnionDB::Query), while the
// historical Valid()/value()/Next() API survives as a cursor over the
// current batch, so QueryIterators users are untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compress/chunk.h"
#include "lsm/iterator.h"
#include "query/read_context.h"
#include "query/sample_batch.h"
#include "util/status.h"

namespace tu::query {

class MergedSeriesIterator {
 public:
  /// `lsm_iter` positioned anywhere (a handle of the query's LSM cursor);
  /// the iterator seeks it to `id` itself, on first use rather than here —
  /// the seek may read a block of every table, so a query builds all its
  /// iterators (and issues their block fetches together) before any of
  /// them seeks.
  /// `head_samples` are the open-chunk samples (always newest).
  /// `member_slot` >= 0 selects a group member column; -1 = individual
  /// series chunks. `seek_slack_ms` widens the initial seek left of
  /// ctx.t0 by the maximum chunk overhang. ctx.stats (if set) must outlive
  /// the iterator — decode counters accrue lazily during iteration.
  MergedSeriesIterator(uint64_t id, const ReadContext& ctx,
                       std::unique_ptr<lsm::Iterator> lsm_iter,
                       std::vector<compress::Sample> head_samples,
                       int member_slot, int64_t seek_slack_ms);

  // -- Cursor API (per-sample view over the current batch) -----------------

  bool Valid() const {
    Start();
    return valid_;
  }
  const compress::Sample& value() const {
    Start();
    return current_;
  }
  void Next();
  Status status() const {
    Start();
    return status_;
  }

  // -- Batch API ------------------------------------------------------------

  /// Moves the next run of finalized samples into `*out` (ascending,
  /// deduped, clipped to [t0, t1]) and returns true; false when the stream
  /// is exhausted or errored (check status()). Composes with the cursor:
  /// the first call hands over the undrained remainder of the current
  /// batch, so mixing granularities never skips or repeats a sample.
  bool NextBatch(SampleBatch* out);

 private:
  /// Runs the deferred seek and first fetch on first use. Logically const:
  /// to the caller the iterator is positioned from construction on.
  void Start() const {
    if (!started_) const_cast<MergedSeriesIterator*>(this)->SeekAndFetch();
  }
  void SeekAndFetch();
  /// Refills cur_ with the next finalized run; false when exhausted.
  bool FetchBatch();
  /// Peeks the next same-id chunk within the time bound. False = LSM side
  /// exhausted (key range left, bound passed, or iterator done/errored).
  bool PeekChunk(int64_t* start_ts);
  /// Bulk-decodes the peeked chunk, clips it, merges it into the staging
  /// run with newest-wins dedup, and advances the LSM iterator.
  void MergeNextChunk();
  /// Moves staged samples [begin_, begin_ + n) into `out`.
  void EmitStaged(size_t n, SampleBatch* out);

  size_t StagedSize() const { return staged_ts_.size() - staged_begin_; }

  uint64_t id_;
  int64_t t0_;
  int64_t t1_;
  int member_slot_;
  QueryStats* stats_ = nullptr;
  std::unique_ptr<lsm::Iterator> lsm_iter_;
  int64_t seek_slack_ms_;
  bool started_ = false;
  bool lsm_done_ = false;

  // Staging run: pending samples in ascending timestamp order with their
  // dedup seq, consumed from staged_begin_. Bounded by the open chunk plus
  // the overlap of in-flight chunks, not by the query span.
  std::vector<int64_t> staged_ts_;
  std::vector<double> staged_val_;
  std::vector<uint64_t> staged_seq_;
  size_t staged_begin_ = 0;
  // Merge scratch (kept across chunks to reuse capacity).
  SampleBatch scratch_;
  std::vector<int64_t> merge_ts_;
  std::vector<double> merge_val_;
  std::vector<uint64_t> merge_seq_;

  // Current finalized batch + cursor position.
  SampleBatch cur_;
  size_t pos_ = 0;
  compress::Sample current_;
  bool valid_ = false;
  Status status_;
};

}  // namespace tu::query
