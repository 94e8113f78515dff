// ChunkStore: the storage-engine contract TimeUnionDB writes its closed
// chunks into. Implemented by TimePartitionedLsm (the paper's design) and
// LeveledLsm (the classic design) — swapping them is exactly the paper's
// TU vs TU-LDB comparison (§4.1 comparison systems).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lsm/iterator.h"
#include "lsm/read_cursor.h"
#include "query/read_context.h"
#include "util/slice.h"
#include "util/status.h"

namespace tu::lsm {

// The per-query read parameters (time range, degraded-read scope, cache
// policy, stats accumulator) live in the query layer and thread through
// every ChunkStore unchanged; re-exported here under their historical
// lsm:: spellings.
using query::ReadContext;
using query::ReadScope;

class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  virtual Status Open() = 0;
  /// Inserts a chunk entry (§3.3 key format; type byte + payload value).
  virtual Status Put(const Slice& user_key, const Slice& value) = 0;
  /// Flushes memtables and drains pending maintenance.
  virtual Status FlushAll() = 0;
  /// Opens one query's cursor (lsm/read_cursor.h) over `reads`: pins the
  /// memtables and, under one acquisition of the store's locks, selects
  /// for each read the tables that may hold its id in [t0, t1]. Honors
  /// ctx.scope.allow_partial (unreachable tables are skipped, their spans
  /// go to each affected read's `missing`), counts pruning per (read,
  /// table) into ctx.stats, and with ctx.prefetch set plans the slow-tier
  /// blocks each read will drain. ctx's own [t0, t1] is not used.
  virtual Status NewCursor(const ReadContext& ctx,
                           std::span<SeriesRead> reads,
                           std::shared_ptr<ReadCursor>* out) = 0;
  /// Iterator over all chunks of `id` intersecting [ctx.t0, ctx.t1]: the
  /// one-read case of NewCursor. Missing spans of a partial read go to
  /// ctx.scope.missing.
  Status NewIteratorForId(uint64_t id, const ReadContext& ctx,
                          std::unique_ptr<Iterator>* out) {
    SeriesRead read{id, ctx.t0, ctx.t1, {}};
    std::shared_ptr<ReadCursor> cursor;
    TU_RETURN_IF_ERROR(NewCursor(ctx, std::span<SeriesRead>(&read, 1), &cursor));
    if (ctx.scope.missing != nullptr) {
      ctx.scope.missing->insert(ctx.scope.missing->end(), read.missing.begin(),
                                read.missing.end());
    }
    *out = cursor->NewSeriesCursor(0);
    return Status::OK();
  }
  /// Strict-read convenience: any unreachable table fails the call.
  Status NewIteratorForId(uint64_t id, int64_t t0, int64_t t1,
                          std::unique_ptr<Iterator>* out) {
    ReadContext ctx;
    ctx.t0 = t0;
    ctx.t1 = t1;
    return NewIteratorForId(id, ctx, out);
  }
  /// Drops data entirely older than `watermark` (best effort).
  virtual Status ApplyRetention(int64_t watermark) {
    (void)watermark;
    return Status::OK();
  }
  /// End of the time partition a chunk starting at `ts` must not cross
  /// (stores without time partitioning return a far horizon).
  virtual int64_t PartitionEndFor(int64_t ts) const = 0;
};

}  // namespace tu::lsm
