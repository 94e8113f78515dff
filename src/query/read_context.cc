#include "query/read_context.h"

#include <algorithm>

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

}  // namespace tu::query
