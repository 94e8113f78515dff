#include "query/merged_series_iterator.h"

#include <algorithm>

#include "lsm/key_format.h"
#include "lsm/memtable.h"

namespace tu::query {

MergedSeriesIterator::MergedSeriesIterator(
    uint64_t id, const ReadContext& ctx,
    std::unique_ptr<lsm::Iterator> lsm_iter,
    std::vector<compress::Sample> head_samples, int member_slot,
    int64_t seek_slack_ms)
    : id_(id),
      t0_(ctx.t0),
      t1_(ctx.t1),
      member_slot_(member_slot),
      stats_(ctx.stats),
      lsm_iter_(std::move(lsm_iter)),
      seek_slack_ms_(seek_slack_ms) {
  // The open chunk is the newest data: stage it with maximal precedence.
  for (const compress::Sample& s : head_samples) {
    if (s.timestamp < t0_ || s.timestamp > t1_) continue;
    staged_ts_.push_back(s.timestamp);
    staged_val_.push_back(s.value);
    staged_seq_.push_back(UINT64_MAX);
  }
  if (stats_ != nullptr && !staged_ts_.empty()) {
    ++stats_->batches_decoded;
    stats_->samples_decoded += staged_ts_.size();
  }
}

void MergedSeriesIterator::SeekAndFetch() {
  started_ = true;
  lsm_iter_->Seek(lsm::ChunkSeekKey(id_, t0_, seek_slack_ms_));
  valid_ = FetchBatch();
  if (valid_) current_ = compress::Sample{cur_.timestamps[0], cur_.values[0]};
}

bool MergedSeriesIterator::PeekChunk(int64_t* start_ts) {
  if (lsm_done_) return false;
  if (!lsm_iter_->Valid()) {
    status_ = lsm_iter_->status();
    lsm_done_ = true;
    return false;
  }
  const Slice user_key = lsm::InternalKeyUserKey(lsm_iter_->key());
  if (lsm::ChunkKeyId(user_key) != id_ ||
      lsm::ChunkKeyTimestamp(user_key) > t1_) {
    lsm_done_ = true;
    return false;
  }
  *start_ts = lsm::ChunkKeyTimestamp(user_key);
  return true;
}

void MergedSeriesIterator::MergeNextChunk() {
  if (stats_ != nullptr) {
    ++stats_->chunks_decoded;
    stats_->bytes_decoded += lsm::ChunkValuePayload(lsm_iter_->value()).size();
  }
  scratch_.clear();
  Status s = lsm_iter_->NextBatch(member_slot_, &scratch_);
  if (!s.ok()) {
    status_ = s;
    lsm_done_ = true;
    return;
  }
  if (stats_ != nullptr) {
    ++stats_->batches_decoded;
    stats_->samples_decoded += scratch_.size();
  }

  // Clip to [t0, t1] by binary-searching the batch edges.
  const auto ts_begin = scratch_.timestamps.begin();
  const auto ts_end = scratch_.timestamps.end();
  const size_t lo = std::lower_bound(ts_begin, ts_end, t0_) - ts_begin;
  const size_t hi = std::upper_bound(ts_begin, ts_end, t1_) - ts_begin;
  if (lo >= hi) return;  // chunk entirely outside the query range
  const uint64_t seq = scratch_.seq;

  if (StagedSize() == 0) {
    if (lo == 0 && hi == scratch_.timestamps.size()) {
      // Whole chunk survives the clip: adopt its columns without copying.
      staged_ts_ = std::move(scratch_.timestamps);
      staged_val_ = std::move(scratch_.values);
      scratch_.timestamps.clear();
      scratch_.values.clear();
    } else {
      staged_ts_.assign(ts_begin + lo, ts_begin + hi);
      staged_val_.assign(scratch_.values.begin() + lo,
                         scratch_.values.begin() + hi);
    }
    staged_begin_ = 0;
    staged_seq_.assign(staged_ts_.size(), seq);
    return;
  }

  // Overlap: two-pointer merge of the staging run and the clipped chunk,
  // newest-wins on timestamp collisions. The staging run stays bounded by
  // the in-flight overlap because finalized prefixes are emitted before
  // the next chunk is merged.
  merge_ts_.clear();
  merge_val_.clear();
  merge_seq_.clear();
  const size_t total = StagedSize() + (hi - lo);
  merge_ts_.reserve(total);
  merge_val_.reserve(total);
  merge_seq_.reserve(total);
  size_t a = staged_begin_;
  size_t b = lo;
  while (a < staged_ts_.size() && b < hi) {
    const int64_t ta = staged_ts_[a];
    const int64_t tb = scratch_.timestamps[b];
    if (ta < tb) {
      merge_ts_.push_back(ta);
      merge_val_.push_back(staged_val_[a]);
      merge_seq_.push_back(staged_seq_[a]);
      ++a;
    } else if (tb < ta) {
      merge_ts_.push_back(tb);
      merge_val_.push_back(scratch_.values[b]);
      merge_seq_.push_back(seq);
      ++b;
    } else {
      // Collision: the chunk decoded later wins ties, newest seq wins
      // otherwise (same rule the per-sample path applied).
      if (seq >= staged_seq_[a]) {
        merge_ts_.push_back(tb);
        merge_val_.push_back(scratch_.values[b]);
        merge_seq_.push_back(seq);
      } else {
        merge_ts_.push_back(ta);
        merge_val_.push_back(staged_val_[a]);
        merge_seq_.push_back(staged_seq_[a]);
      }
      ++a;
      ++b;
    }
  }
  for (; a < staged_ts_.size(); ++a) {
    merge_ts_.push_back(staged_ts_[a]);
    merge_val_.push_back(staged_val_[a]);
    merge_seq_.push_back(staged_seq_[a]);
  }
  for (; b < hi; ++b) {
    merge_ts_.push_back(scratch_.timestamps[b]);
    merge_val_.push_back(scratch_.values[b]);
    merge_seq_.push_back(seq);
  }
  staged_ts_.swap(merge_ts_);
  staged_val_.swap(merge_val_);
  staged_seq_.swap(merge_seq_);
  staged_begin_ = 0;
}

void MergedSeriesIterator::EmitStaged(size_t n, SampleBatch* out) {
  out->seq = 0;
  if (staged_begin_ == 0 && n == staged_ts_.size()) {
    out->timestamps = std::move(staged_ts_);
    out->values = std::move(staged_val_);
    staged_ts_.clear();
    staged_val_.clear();
    staged_seq_.clear();
    return;
  }
  out->timestamps.assign(staged_ts_.begin() + staged_begin_,
                         staged_ts_.begin() + staged_begin_ + n);
  out->values.assign(staged_val_.begin() + staged_begin_,
                     staged_val_.begin() + staged_begin_ + n);
  staged_begin_ += n;
  if (staged_begin_ == staged_ts_.size()) {
    staged_ts_.clear();
    staged_val_.clear();
    staged_seq_.clear();
    staged_begin_ = 0;
  }
}

bool MergedSeriesIterator::FetchBatch() {
  cur_.clear();
  pos_ = 0;
  while (status_.ok()) {
    int64_t start = 0;
    if (!PeekChunk(&start)) {
      // LSM side exhausted (or errored): whatever is staged is final.
      if (!status_.ok() || StagedSize() == 0) return false;
      EmitStaged(StagedSize(), &cur_);
      return true;
    }
    if (StagedSize() != 0 && staged_ts_[staged_begin_] < start) {
      // Chunks arrive in ascending start order and a chunk containing T
      // starts at or before T, so every staged timestamp below the next
      // chunk's start is final: emit that prefix as one batch.
      const auto first = staged_ts_.begin() + staged_begin_;
      const size_t cut = std::lower_bound(first, staged_ts_.end(), start) - first;
      EmitStaged(cut, &cur_);
      return true;
    }
    MergeNextChunk();
  }
  return false;
}

void MergedSeriesIterator::Next() {
  Start();
  if (!valid_) return;
  ++pos_;
  if (pos_ >= cur_.size()) valid_ = FetchBatch();
  if (valid_) {
    current_ = compress::Sample{cur_.timestamps[pos_], cur_.values[pos_]};
  }
}

bool MergedSeriesIterator::NextBatch(SampleBatch* out) {
  out->clear();
  Start();
  if (!valid_) return false;
  if (pos_ == 0) {
    *out = std::move(cur_);
    cur_.clear();
  } else {
    out->timestamps.assign(cur_.timestamps.begin() + pos_,
                           cur_.timestamps.end());
    out->values.assign(cur_.values.begin() + pos_, cur_.values.end());
  }
  valid_ = FetchBatch();
  if (valid_) {
    current_ = compress::Sample{cur_.timestamps[0], cur_.values[0]};
  }
  return true;
}

}  // namespace tu::query
