#include "lsm/chunk_merge.h"

#include <algorithm>
#include <map>
#include <optional>

#include "compress/chunk.h"
#include "query/aggregate.h"

namespace tu::lsm {

int PartitionIndexOf(const std::vector<int64_t>& boundaries, int64_t ts) {
  auto it = std::upper_bound(boundaries.begin(), boundaries.end(), ts);
  return static_cast<int>(it - boundaries.begin()) - 1;
}

namespace {

// Grows `b` by whole edge-sized steps until [min_ts, max_ts] lies inside
// [b->front(), b->back()). Callers pass uniform-step boundary lists, so the
// extension keeps partition alignment.
void ExtendBoundariesToCover(std::vector<int64_t>* b, int64_t min_ts,
                             int64_t max_ts) {
  const int64_t front_step = (*b)[1] - (*b)[0];
  const int64_t back_step = b->back() - (*b)[b->size() - 2];
  while (min_ts < b->front()) b->insert(b->begin(), b->front() - front_step);
  while (max_ts >= b->back()) b->push_back(b->back() + back_step);
}

// Columnar series merge. Each input decodes in bulk onto one set of
// timestamp/value/seq columns. When the inputs, in key order, are each
// strictly increasing and each starts past the previous one's last
// timestamp (in-order data) the concatenation already is the answer.
// Otherwise the rows are reordered newest input first — a stable sort by
// seq, so equal seqs keep key order — and then stable-sorted by timestamp,
// keeping the first row of each timestamp: the newest input's row, and
// within one input its first, the same winner a newest-first
// map::emplace picks.
Status MergeSeriesChunks(const std::vector<ChunkInput>& inputs,
                         std::vector<int64_t>* boundaries,
                         uint32_t max_samples_per_chunk,
                         std::vector<MergedChunk>* out,
                         RollupOutput* rollup) {
  std::vector<int64_t> ts;
  std::vector<double> values;
  std::vector<uint64_t> seqs;
  std::vector<size_t> starts;  // first row of each input
  starts.reserve(inputs.size() + 1);
  bool in_order = true;
  query::SampleBatch batch;
  for (const ChunkInput& in : inputs) {
    starts.push_back(ts.size());
    TU_RETURN_IF_ERROR(
        compress::DecodeSeriesChunkBatch(ChunkValuePayload(in.value), &batch));
    for (size_t i = 0; i < batch.size() && in_order; ++i) {
      const int64_t t = batch.timestamps[i];
      if (i > 0) {
        in_order = t > batch.timestamps[i - 1];
      } else if (!ts.empty()) {
        in_order = t > ts.back();
      }
    }
    ts.insert(ts.end(), batch.timestamps.begin(), batch.timestamps.end());
    values.insert(values.end(), batch.values.begin(), batch.values.end());
    seqs.insert(seqs.end(), batch.size(), in.seq);
  }
  starts.push_back(ts.size());
  if (ts.empty()) return Status::OK();

  if (!in_order) {
    std::vector<size_t> by_seq(inputs.size());
    for (size_t k = 0; k < by_seq.size(); ++k) by_seq[k] = k;
    std::stable_sort(by_seq.begin(), by_seq.end(), [&](size_t a, size_t b) {
      return inputs[a].seq > inputs[b].seq;
    });
    std::vector<size_t> rows;
    rows.reserve(ts.size());
    for (size_t k : by_seq) {
      for (size_t r = starts[k]; r < starts[k + 1]; ++r) rows.push_back(r);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&](size_t a, size_t b) { return ts[a] < ts[b]; });
    size_t kept = 0;
    for (size_t r : rows) {
      if (kept == 0 || ts[rows[kept - 1]] != ts[r]) rows[kept++] = r;
    }
    rows.resize(kept);
    auto gather = [&](auto* column) {
      const auto all = *column;
      column->resize(kept);
      for (size_t i = 0; i < kept; ++i) (*column)[i] = all[rows[i]];
    };
    gather(&ts);
    gather(&values);
    gather(&seqs);
  }
  ExtendBoundariesToCover(boundaries, ts.front(), ts.back());

  // Emit per partition, capping samples per output chunk; each chunk
  // carries the max seq of its own rows.
  const size_t cap = std::max<uint32_t>(max_samples_per_chunk, 1);
  for (size_t begin = 0; begin < ts.size();) {
    const int part = PartitionIndexOf(*boundaries, ts[begin]);
    const int64_t part_end = (*boundaries)[part + 1];
    uint64_t max_seq = 0;
    size_t end = begin;
    for (; end < ts.size() && end - begin < cap && ts[end] < part_end; ++end) {
      max_seq = std::max(max_seq, seqs[end]);
    }
    std::string payload;
    compress::EncodeSeriesChunk(max_seq, &ts[begin], &values[begin],
                                end - begin, &payload);
    out->push_back(MergedChunk{ts[begin], max_seq,
                               MakeChunkValue(ChunkType::kSeries, payload)});
    if (rollup != nullptr) {
      // Same ascending fold as the query-side raw path — bitwise-identical
      // sums are what let the planner mix rollup and raw answers freely.
      for (size_t g = 0; g < rollup->granularities_ms.size(); ++g) {
        query::AccumulateIntoBuckets(&ts[begin], &values[begin], end - begin,
                                     rollup->granularities_ms[g],
                                     &rollup->buckets[g]);
      }
      rollup->max_seq = std::max(rollup->max_seq, max_seq);
    }
    begin = end;
  }
  return Status::OK();
}

Status MergeGroupChunks(const std::vector<ChunkInput>& inputs,
                        std::vector<int64_t>* boundaries,
                        uint32_t max_samples_per_chunk,
                        std::vector<MergedChunk>* out) {
  std::vector<const ChunkInput*> ordered;
  ordered.reserve(inputs.size());
  for (const ChunkInput& in : inputs) ordered.push_back(&in);
  std::sort(ordered.begin(), ordered.end(),
            [](const ChunkInput* a, const ChunkInput* b) {
              return a->seq > b->seq;
            });

  // Row-merge: newest chunk's non-NULL cell wins; member counts may differ
  // across chunks (new members appear in later chunks) — the merged width
  // is the maximum (§3.3 "handle the inconsistency in two group chunks by
  // filling NULL values to those missing timeseries").
  std::map<int64_t, std::vector<std::optional<double>>> merged;
  // Largest input seq that claimed any cell of the row, per timestamp —
  // the precedence the whole merged row (and its output chunk) must keep.
  std::map<int64_t, uint64_t> row_seq;
  uint32_t width = 0;
  for (const ChunkInput* in : ordered) {
    uint64_t seq = 0;
    uint32_t members = 0;
    std::vector<compress::GroupRow> rows;
    TU_RETURN_IF_ERROR(compress::DecodeGroupChunk(
        ChunkValuePayload(in->value), &seq, &members, &rows));
    width = std::max(width, members);
    for (compress::GroupRow& row : rows) {
      auto& cells = merged.try_emplace(row.timestamp).first->second;
      if (cells.size() < row.values.size()) cells.resize(row.values.size());
      for (size_t m = 0; m < row.values.size(); ++m) {
        // Only fill cells not already claimed by a newer chunk.
        if (!cells[m].has_value() && row.values[m].has_value()) {
          cells[m] = row.values[m];
          uint64_t& rs = row_seq[row.timestamp];
          rs = std::max(rs, in->seq);
        }
      }
    }
  }
  if (merged.empty()) return Status::OK();
  ExtendBoundariesToCover(boundaries, merged.begin()->first,
                          merged.rbegin()->first);

  std::vector<compress::GroupRow> pending;
  uint64_t pending_seq = 0;
  int pending_partition = INT32_MIN;
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    for (compress::GroupRow& row : pending) row.values.resize(width);
    std::string payload;
    compress::EncodeGroupChunk(pending_seq, width, pending, &payload);
    out->push_back(MergedChunk{pending[0].timestamp, pending_seq,
                               MakeChunkValue(ChunkType::kGroup, payload)});
    pending.clear();
    pending_seq = 0;
  };
  for (auto& [ts, cells] : merged) {
    const int part = PartitionIndexOf(*boundaries, ts);
    if (part != pending_partition ||
        pending.size() >= max_samples_per_chunk) {
      flush_pending();
      pending_partition = part;
    }
    compress::GroupRow row;
    row.timestamp = ts;
    row.values = cells;
    pending.push_back(std::move(row));
    const auto it = row_seq.find(ts);
    if (it != row_seq.end()) pending_seq = std::max(pending_seq, it->second);
  }
  flush_pending();
  return Status::OK();
}

}  // namespace

Status MergeChunks(const std::vector<ChunkInput>& inputs,
                   std::vector<int64_t>* boundaries,
                   uint32_t max_samples_per_chunk,
                   std::vector<MergedChunk>* out, RollupOutput* rollup) {
  out->clear();
  if (rollup != nullptr) {
    rollup->buckets.assign(rollup->granularities_ms.size(), {});
    rollup->max_seq = 0;
  }
  if (inputs.empty()) return Status::OK();
  const ChunkType type = ChunkValueType(inputs[0].value);
  for (const ChunkInput& in : inputs) {
    if (ChunkValueType(in.value) != type) {
      return Status::Corruption("mixed chunk types under one key");
    }
  }
  if (type == ChunkType::kSeries) {
    return MergeSeriesChunks(inputs, boundaries, max_samples_per_chunk, out,
                             rollup);
  }
  return MergeGroupChunks(inputs, boundaries, max_samples_per_chunk, out);
}

}  // namespace tu::lsm
