// ReadRequest: the one read-side request shape of the public API. The
// three query entry points (Query, QueryIterators, AggregateQuery) take
// only this — matchers, inclusive time range, strictness override, and an
// optional aggregate shape (step + fn) — so the wire protocol's query
// handlers map onto the DB 1:1 and new read-side knobs have exactly one
// place to land.
#pragma once

#include <cstdint>
#include <vector>

#include "index/inverted_index.h"
#include "query/aggregate.h"

namespace tu::query {

struct ReadRequest {
  /// Conjunctive tag selectors; at least one required.
  std::vector<index::TagMatcher> matchers;
  /// Inclusive time range.
  int64_t t0 = INT64_MIN;
  int64_t t1 = INT64_MAX;

  /// Degraded-read behaviour for this request. kDefault follows
  /// DBOptions::strict_reads; the explicit values override it per request
  /// (a dashboard tolerates partial data, a billing export does not).
  enum class Strictness {
    kDefault,
    kStrict,        ///< first unreachable table fails the read
    kAllowPartial,  ///< skip unreachable tables, report missing_ranges
  };
  Strictness strictness = Strictness::kDefault;

  /// Aggregate shape: step_ms > 0 selects the aggregate path (AggregateQuery
  /// semantics — fn folded into step-aligned windows, rollup-served where
  /// possible); step_ms == 0 is a plain sample query.
  int64_t step_ms = 0;
  AggFn fn = AggFn::kMean;

  bool IsAggregate() const { return step_ms > 0; }

  static ReadRequest Range(std::vector<index::TagMatcher> matchers, int64_t t0,
                           int64_t t1) {
    ReadRequest r;
    r.matchers = std::move(matchers);
    r.t0 = t0;
    r.t1 = t1;
    return r;
  }
  static ReadRequest Aggregate(std::vector<index::TagMatcher> matchers,
                               int64_t t0, int64_t t1, int64_t step_ms,
                               AggFn fn) {
    ReadRequest r = Range(std::move(matchers), t0, t1);
    r.step_ms = step_ms;
    r.fn = fn;
    return r;
  }
};

}  // namespace tu::query
