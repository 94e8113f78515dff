#include "query/read_context.h"

#include <algorithm>
#include <cstdio>

#include "util/interval_set.h"

namespace tu::query {

void Completeness::AddMissing(
    const std::vector<std::pair<int64_t, int64_t>>& spans, int64_t t0,
    int64_t t1) {
  for (const auto& [lo, hi] : spans) {
    const int64_t a = std::max(lo, t0);
    const int64_t b = std::min(hi, t1);
    if (a > b) continue;
    missing_ranges.emplace_back(a, b);
  }
  util::MergeIntervals(&missing_ranges);
  if (!missing_ranges.empty()) complete = false;
}

void Completeness::MergeCompleteness(const Completeness& o) {
  if (o.complete) return;
  complete = false;
  missing_ranges.insert(missing_ranges.end(), o.missing_ranges.begin(),
                        o.missing_ranges.end());
  util::MergeIntervals(&missing_ranges);
}

std::string QueryStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "tables considered=%llu pruned(id=%llu time=%llu bloom=%llu) "
      "skipped_unreachable=%llu partitions_pruned=%llu | blocks read=%llu "
      "pruned=%llu cache(hit=%llu miss=%llu) slow_fetches=%llu "
      "block_bytes=%llu prefetch(blocks=%llu wait_us=%llu) | chunks=%llu "
      "decoded_bytes=%llu batches=%llu "
      "samples_per_batch=%.1f | rollup_buckets=%llu raw_edge_samples=%llu | "
      "setup_us=%llu drain_us=%llu",
      static_cast<unsigned long long>(tables_considered),
      static_cast<unsigned long long>(tables_pruned_id),
      static_cast<unsigned long long>(tables_pruned_time),
      static_cast<unsigned long long>(tables_pruned_bloom),
      static_cast<unsigned long long>(tables_skipped_unreachable),
      static_cast<unsigned long long>(partitions_pruned),
      static_cast<unsigned long long>(blocks_read),
      static_cast<unsigned long long>(blocks_pruned),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(slow_tier_fetches),
      static_cast<unsigned long long>(block_bytes_read),
      static_cast<unsigned long long>(prefetch_blocks),
      static_cast<unsigned long long>(prefetch_wait_us),
      static_cast<unsigned long long>(chunks_decoded),
      static_cast<unsigned long long>(bytes_decoded),
      static_cast<unsigned long long>(batches_decoded),
      batches_decoded == 0 ? 0.0
                           : static_cast<double>(samples_decoded) /
                                 static_cast<double>(batches_decoded),
      static_cast<unsigned long long>(rollup_buckets_served),
      static_cast<unsigned long long>(raw_edge_samples),
      static_cast<unsigned long long>(setup_us),
      static_cast<unsigned long long>(drain_us));
  return buf;
}

}  // namespace tu::query
