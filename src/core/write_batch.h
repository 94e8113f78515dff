// WriteBatch: the input of TimeUnionDB::Write, the one write call. The
// network front door decodes whole remote-write frames into a WriteBatch,
// and embedded callers fill one directly (a single row is a batch of one;
// reuse the batch across calls to keep it allocation-free). Write amortizes
// the per-write overheads — admission check, WAL mutex, shard/stripe lock
// acquisition — across the batch instead of paying them per sample.
//
// Rows come in four sections, columnar where it matters:
//   - ref samples: parallel (ref, ts, value) columns — the fast path.
//     Sorted-by-ref runs share one shard/stripe lock acquisition.
//   - labeled samples: (labels, ts, value) rows; Write resolves (or
//     registers) each label set and reports the ref in
//     WriteResult::resolved_refs so clients can switch to ref addressing.
//   - group rows by ref: (group_ref, slots, ts, values).
//   - labeled group rows: (group tags, member tags, ts, values); resolved
//     group ref + member slots land in WriteResult::resolved_groups.
//
// Error semantics are per row: a bad row is counted in `rejected` (first
// failure kept in `first_error`) and the rest of the batch still applies.
// Batch-scoped gates — write quiesce after a background error, admission
// hard watermark — reject the whole batch before any row is applied.
#pragma once

#include <cstdint>
#include <vector>

#include "index/labels.h"
#include "util/status.h"

namespace tu::core {

struct WriteBatch {
  /// Fast-path samples addressed by series reference (parallel columns).
  std::vector<uint64_t> sample_refs;
  std::vector<int64_t> sample_ts;
  std::vector<double> sample_values;

  /// Slow-path samples addressed by label set.
  struct LabeledSample {
    index::Labels labels;
    int64_t ts = 0;
    double value = 0;
  };
  std::vector<LabeledSample> labeled_samples;

  /// Group rows addressed by group reference + member slots.
  struct GroupRow {
    uint64_t group_ref = 0;
    std::vector<uint32_t> slots;
    int64_t ts = 0;
    std::vector<double> values;  // parallel to slots
  };
  std::vector<GroupRow> group_rows;

  /// Group rows addressed by (group tags, member tags).
  struct LabeledGroupRow {
    index::Labels group_tags;
    std::vector<index::Labels> member_tags;
    int64_t ts = 0;
    std::vector<double> values;  // parallel to member_tags
  };
  std::vector<LabeledGroupRow> labeled_group_rows;

  void AddSample(uint64_t ref, int64_t ts, double value) {
    sample_refs.push_back(ref);
    sample_ts.push_back(ts);
    sample_values.push_back(value);
  }
  void AddSample(index::Labels labels, int64_t ts, double value) {
    labeled_samples.push_back({std::move(labels), ts, value});
  }
  void AddGroupRow(uint64_t group_ref, std::vector<uint32_t> slots, int64_t ts,
                   std::vector<double> values) {
    group_rows.push_back(
        {group_ref, std::move(slots), ts, std::move(values)});
  }
  void AddGroupRow(index::Labels group_tags,
                   std::vector<index::Labels> member_tags, int64_t ts,
                   std::vector<double> values) {
    labeled_group_rows.push_back(
        {std::move(group_tags), std::move(member_tags), ts,
         std::move(values)});
  }

  /// Rows in the batch (a group row counts once).
  size_t NumRows() const {
    return sample_refs.size() + labeled_samples.size() + group_rows.size() +
           labeled_group_rows.size();
  }
  /// Individual samples in the batch (a group row counts its values).
  size_t NumSamples() const {
    size_t n = sample_refs.size() + labeled_samples.size();
    for (const GroupRow& r : group_rows) n += r.values.size();
    for (const LabeledGroupRow& r : labeled_group_rows) n += r.values.size();
    return n;
  }
  bool empty() const { return NumRows() == 0; }

  /// Clears rows, keeping section capacity (reuse across frames).
  void Clear() {
    sample_refs.clear();
    sample_ts.clear();
    sample_values.clear();
    labeled_samples.clear();
    group_rows.clear();
    labeled_group_rows.clear();
  }
};

/// Per-batch outcome of TimeUnionDB::Write.
struct WriteResult {
  /// Rows fully applied / rejected. appended + rejected == NumRows()
  /// unless a batch-scoped gate rejected everything up front (then
  /// rejected == NumRows() and `first_error` holds the gate's status).
  uint64_t appended = 0;
  uint64_t rejected = 0;
  /// First row (or gate) failure; OK when the whole batch applied.
  Status first_error;
  /// Resolved series refs, parallel to WriteBatch::labeled_samples (0 for
  /// rows that failed to resolve).
  std::vector<uint64_t> resolved_refs;
  /// Resolved group refs + member slots, parallel to
  /// WriteBatch::labeled_group_rows.
  struct ResolvedGroup {
    uint64_t group_ref = 0;
    std::vector<uint32_t> slots;
  };
  std::vector<ResolvedGroup> resolved_groups;

  bool ok() const { return first_error.ok(); }
  void Clear() {
    appended = 0;
    rejected = 0;
    first_error = Status::OK();
    resolved_refs.clear();
    resolved_groups.clear();
  }
};

}  // namespace tu::core
