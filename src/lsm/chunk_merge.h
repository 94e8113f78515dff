// Sample-aware chunk operations used by compactions (§3.3):
//  - merging the chunks of one series/group into larger chunks ("key-value
//    pairs of the same timeseries/group are merged into larger key-value
//    pairs for a better compression ratio"), newest-SSTable-wins on
//    duplicate timestamps;
//  - splitting a chunk at time-partition boundaries so partition contents
//    stay strictly bounded by their time range (partition align, Fig. 12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compress/rollup.h"
#include "lsm/key_format.h"
#include "util/slice.h"
#include "util/status.h"

namespace tu::lsm {

/// One chunk entry with its precedence (the internal-key sequence; larger =
/// newer).
struct ChunkInput {
  uint64_t seq = 0;
  Slice value;  // type byte + payload
};

/// Merges chunks of ONE series/group (all inputs must share the chunk
/// type). Produces merged output chunks covering [split boundaries), each
/// at most `max_samples_per_chunk` samples: {start_ts, serialized value}.
/// `boundaries` is a sorted list of time-partition boundaries; output
/// chunks never span a boundary. Duplicate timestamps resolve newest-first
/// per sample (series) / per cell (group member); series inputs of equal
/// seq rank in input order, and within one chunk its first row wins.
///
/// Input chunks can carry rows far outside [boundaries.front(),
/// boundaries.back()): an open head chunk buffers rewrites at arbitrary
/// timestamps, so the chunk-START bucketing the caller used to pick
/// `boundaries` is only a lower bound on row time. Rather than clamping
/// such rows into the edge interval — which would strand them in a time
/// partition that compactions of their true time range never revisit,
/// silently breaking last-write-wins — the merge EXTENDS `boundaries` by
/// whole edge-sized steps until every merged row is covered. Callers must
/// route the extra intervals to real partitions.
///
/// `max_seq` is the largest input seq that contributed a winning sample
/// (series) or cell (group) to THIS chunk. Compaction must stamp the
/// output entry with it — not a fresh global seq — so a newer rewrite
/// chunk excluded from the merge still outranks the merged output
/// (last-write-wins, ROADMAP "compaction seq restamping").
struct MergedChunk {
  int64_t start_ts = 0;
  uint64_t max_seq = 0;
  std::string value;  // type byte + payload
};

/// Optional rollup side-output of MergeChunks (individual series only —
/// groups never produce rollups). Callers set `granularities_ms`; the
/// merge fills `buckets` (one ascending vector per granularity, built by
/// the same query::AccumulateIntoBuckets fold the read path uses, so
/// rollup-served sums are bitwise identical to raw-path sums) and
/// `max_seq` (the max winning seq across the whole merged series — the
/// PR-8 restamping discipline applied to the rollup chunk as a whole).
/// Buckets cover every merged sample, including rows outside the original
/// boundary range; the caller trims to the window it is materializing.
struct RollupOutput {
  std::vector<int64_t> granularities_ms;
  std::vector<std::vector<compress::RollupBucket>> buckets;
  uint64_t max_seq = 0;
};

Status MergeChunks(const std::vector<ChunkInput>& inputs,
                   std::vector<int64_t>* boundaries,
                   uint32_t max_samples_per_chunk,
                   std::vector<MergedChunk>* out,
                   RollupOutput* rollup = nullptr);

/// Returns the partition index of `ts` given sorted `boundaries`:
/// partition i covers [boundaries[i], boundaries[i+1]). ts before the first
/// boundary -> -1; after the last -> boundaries.size()-1.
int PartitionIndexOf(const std::vector<int64_t>& boundaries, int64_t ts);

}  // namespace tu::lsm
