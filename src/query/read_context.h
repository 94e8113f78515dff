// The per-query contract of the unified read pipeline (§3.4): one
// ReadContext flows from TimeUnionDB::Query / QueryIterators through the
// ChunkStore backends down to TableReader, replacing the ad-hoc
// (id, t0, t1, scope) parameter threading. It bundles the time range, the
// tag matchers that selected the series, the degraded-read scope, the
// cache-fill policy and a QueryStats accumulator, so every read-side
// policy knob lives behind one seam.
//
// Layering: this header depends on nothing above util/, so lsm/ can
// include it without a cycle (core -> lsm -> query).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace tu::index {
struct TagMatcher;
}  // namespace tu::index

namespace tu::lsm {
class BlockPrefetch;
}  // namespace tu::lsm

namespace tu::query {

/// Per-query read-path counters. Filled at every pruning level — partition,
/// table (min/max meta + bloom) and block — plus the cache and decode
/// stages; `Add` aggregates per-series stats into the per-query total and
/// per-query totals into the DB-lifetime totals Metrics() reports as
/// query.*.
///
/// Lifetime: the pipeline holds a raw pointer to the accumulator, and lazy
/// iterators keep counting while they are drained — the QueryStats object
/// must outlive every iterator created against it.
struct QueryStats {
  // Table selection (both LSM backends).
  uint64_t partitions_pruned = 0;    ///< whole time partitions outside [t0,t1]
  uint64_t tables_considered = 0;    ///< handles examined after partition pruning
  uint64_t tables_pruned_id = 0;     ///< series-id range disjoint from the query
  uint64_t tables_pruned_time = 0;   ///< min/max chunk timestamp outside [t0,t1]
  uint64_t tables_pruned_bloom = 0;  ///< bloom filter negative on the series id
  uint64_t tables_skipped_unreachable = 0;  ///< partial read: slow tier down

  // Block pipeline (TableReader).
  uint64_t blocks_read = 0;    ///< data blocks materialized for iteration
  uint64_t blocks_pruned = 0;  ///< index entries skipped by the t1 upper bound
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t slow_tier_fetches = 0;   ///< block fetches served by the slow tier
  uint64_t block_bytes_read = 0;    ///< uncompressed block bytes fetched
  /// Slow-tier blocks fetched concurrently ahead of the drain.
  uint64_t prefetch_blocks = 0;
  /// Time iterators blocked on an in-flight prefetched block.
  uint64_t prefetch_wait_us = 0;

  // Decode stage (MergedSeriesIterator).
  uint64_t chunks_decoded = 0;
  uint64_t bytes_decoded = 0;  ///< chunk payload bytes decoded into samples
  /// Column batches entering the vectorized merge: one per bulk-decoded
  /// chunk plus one per non-empty open-chunk snapshot. samples_decoded /
  /// batches_decoded is the average decode granularity (samples per batch).
  uint64_t batches_decoded = 0;
  uint64_t samples_decoded = 0;  ///< samples produced by those batches

  // Continuous aggregates (AggregateQuery planner).
  /// Pre-aggregated buckets served from rollup partitions instead of raw
  /// chunk decodes.
  uint64_t rollup_buckets_served = 0;
  /// Raw samples drained for the spans rollups could not serve (unaligned
  /// edges, dirty buckets, fast-tier data).
  uint64_t raw_edge_samples = 0;

  // Pipeline timing (monotonic microseconds).
  /// Iterator construction: index select, head snapshots, pruning, reader
  /// opens and the block-fetch plan. Block Gets run in the drain.
  uint64_t setup_us = 0;
  uint64_t drain_us = 0;  ///< iterator drain: block fetch + chunk decode

  void Add(const QueryStats& o) {
    partitions_pruned += o.partitions_pruned;
    tables_considered += o.tables_considered;
    tables_pruned_id += o.tables_pruned_id;
    tables_pruned_time += o.tables_pruned_time;
    tables_pruned_bloom += o.tables_pruned_bloom;
    tables_skipped_unreachable += o.tables_skipped_unreachable;
    blocks_read += o.blocks_read;
    blocks_pruned += o.blocks_pruned;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    slow_tier_fetches += o.slow_tier_fetches;
    block_bytes_read += o.block_bytes_read;
    prefetch_blocks += o.prefetch_blocks;
    prefetch_wait_us += o.prefetch_wait_us;
    chunks_decoded += o.chunks_decoded;
    bytes_decoded += o.bytes_decoded;
    batches_decoded += o.batches_decoded;
    samples_decoded += o.samples_decoded;
    rollup_buckets_served += o.rollup_buckets_served;
    raw_edge_samples += o.raw_edge_samples;
    setup_us += o.setup_us;
    drain_us += o.drain_us;
  }

  uint64_t tables_pruned() const {
    return tables_pruned_id + tables_pruned_time + tables_pruned_bloom;
  }
};

/// The completeness contract of a degraded read, shared by every result
/// type that can come back partial (QueryResult, SeriesIterResult). The
/// missing-span bookkeeping — clamp to the query range, merge overlaps,
/// flip `complete` — lives here so call sites cannot diverge.
struct Completeness {
  /// False when any part of [t0, t1] was unreachable (slow tier down and
  /// the read allowed partial results).
  bool complete = true;
  /// Closed [start, end] timestamp spans that could not be served, merged
  /// and sorted. Empty iff `complete`.
  std::vector<std::pair<int64_t, int64_t>> missing_ranges;

  /// Clamp `spans` to the closed query range [t0, t1], merge them into
  /// `missing_ranges` (coalescing overlaps and adjacency), and update
  /// `complete`. Unclamped or unsorted input spans are fine.
  void AddMissing(const std::vector<std::pair<int64_t, int64_t>>& spans,
                  int64_t t0, int64_t t1);
  /// Fold another result's completeness into this one.
  void MergeCompleteness(const Completeness& o);
  /// Back to the pristine complete state.
  void ResetCompleteness() {
    complete = true;
    missing_ranges.clear();
  }
};

/// How a read should behave when part of the store is unreachable (slow
/// tier down, circuit breaker open). With `allow_partial`, stores skip
/// slow-tier tables they cannot open and record the closed timestamp span
/// each skipped table may have covered in `*missing` (unclamped entries
/// are fine — callers merge and clamp); without it, the first unreachable
/// table fails the read.
struct ReadScope {
  bool allow_partial = false;
  std::vector<std::pair<int64_t, int64_t>>* missing = nullptr;
};

/// One query's read parameters, threaded intact through every layer.
struct ReadContext {
  /// Inclusive time range of the query.
  int64_t t0 = INT64_MIN;
  int64_t t1 = INT64_MAX;
  /// The matchers that selected the series (informational below core/;
  /// the LSM layers select by id, not by tags).
  const std::vector<index::TagMatcher>* matchers = nullptr;
  /// Degraded-read behaviour (see ReadScope).
  ReadScope scope;
  /// Optional per-query counters; see the QueryStats lifetime note.
  QueryStats* stats = nullptr;
  /// Optional block-fetch plan shared by all series of one query. When
  /// set, a store that fetches slow-tier blocks concurrently adds the
  /// blocks each new iterator will read; the query issues them once every
  /// series is planned (see lsm::BlockPrefetch). Only read while the
  /// iterator is created.
  lsm::BlockPrefetch* prefetch = nullptr;
};

}  // namespace tu::query
