#include "lsm/chunk_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>

#include "compress/chunk.h"
#include "query/aggregate.h"

namespace tu::lsm {
namespace {

using compress::GroupRow;
using compress::Sample;

// MergeChunks takes a mutable boundary list (it may extend it to cover
// out-of-range rows); most tests only care about the merge result.
Status MergeWith(const std::vector<ChunkInput>& inputs,
                 std::vector<int64_t> boundaries, uint32_t cap,
                 std::vector<MergedChunk>* out) {
  return MergeChunks(inputs, &boundaries, cap, out);
}

std::string SeriesValue(uint64_t seq, std::vector<Sample> samples) {
  std::string payload;
  compress::EncodeSeriesChunk(seq, samples, &payload);
  return MakeChunkValue(ChunkType::kSeries, payload);
}

TEST(PartitionIndexOf, Boundaries) {
  const std::vector<int64_t> b = {0, 100, 200};
  EXPECT_EQ(PartitionIndexOf(b, -1), -1);
  EXPECT_EQ(PartitionIndexOf(b, 0), 0);
  EXPECT_EQ(PartitionIndexOf(b, 99), 0);
  EXPECT_EQ(PartitionIndexOf(b, 100), 1);
  EXPECT_EQ(PartitionIndexOf(b, 250), 2);
}

TEST(MergeChunks, MergesAndSortsSeriesSamples) {
  const std::string v1 = SeriesValue(1, {{100, 1.0}, {300, 3.0}});
  const std::string v2 = SeriesValue(2, {{200, 2.0}, {400, 4.0}});
  std::vector<ChunkInput> inputs = {{1, Slice(v1)}, {2, Slice(v2)}};

  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 1000}, 256, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].start_ts, 100);

  uint64_t seq;
  std::vector<Sample> samples;
  ASSERT_TRUE(compress::DecodeSeriesChunk(
                  ChunkValuePayload(out[0].value), &seq, &samples)
                  .ok());
  EXPECT_EQ(samples, (std::vector<Sample>{
                         {100, 1.0}, {200, 2.0}, {300, 3.0}, {400, 4.0}}));
  EXPECT_EQ(seq, 2u);  // max input seq survives
}

TEST(MergeChunks, NewestWinsOnDuplicateTimestamps) {
  const std::string old_chunk = SeriesValue(1, {{100, 1.0}, {200, 2.0}});
  const std::string new_chunk = SeriesValue(5, {{200, 9.0}});
  std::vector<ChunkInput> inputs = {{1, Slice(old_chunk)},
                                    {5, Slice(new_chunk)}};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 1000}, 256, &out).ok());
  uint64_t seq;
  std::vector<Sample> samples;
  ASSERT_TRUE(compress::DecodeSeriesChunk(
                  ChunkValuePayload(out[0].value), &seq, &samples)
                  .ok());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1], (Sample{200, 9.0}));
}

TEST(MergeChunks, SplitsAtPartitionBoundaries) {
  const std::string v =
      SeriesValue(1, {{50, 1.0}, {150, 2.0}, {250, 3.0}});
  std::vector<ChunkInput> inputs = {{1, Slice(v)}};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 100, 200, 300}, 256, &out).ok());
  ASSERT_EQ(out.size(), 3u);  // one chunk per partition
  EXPECT_EQ(out[0].start_ts, 50);
  EXPECT_EQ(out[1].start_ts, 150);
  EXPECT_EQ(out[2].start_ts, 250);
}

TEST(MergeChunks, CapsSamplesPerChunk) {
  std::vector<Sample> many;
  for (int i = 0; i < 100; ++i) many.push_back({i * 10LL, 1.0});
  const std::string v = SeriesValue(1, many);
  std::vector<ChunkInput> inputs = {{1, Slice(v)}};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 100000}, 32, &out).ok());
  EXPECT_EQ(out.size(), 4u);  // 100 samples / 32 cap
}

TEST(MergeChunks, GroupCellwiseNewestWins) {
  std::vector<GroupRow> old_rows(1);
  old_rows[0] = {100, {1.0, 2.0}};
  std::vector<GroupRow> new_rows(1);
  new_rows[0] = {100, {9.0, std::nullopt}};  // member 1 missing in new chunk
  std::string old_payload, new_payload;
  compress::EncodeGroupChunk(1, 2, old_rows, &old_payload);
  compress::EncodeGroupChunk(5, 2, new_rows, &new_payload);
  const std::string v1 = MakeChunkValue(ChunkType::kGroup, old_payload);
  const std::string v2 = MakeChunkValue(ChunkType::kGroup, new_payload);

  std::vector<ChunkInput> inputs = {{1, Slice(v1)}, {5, Slice(v2)}};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 1000}, 256, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(ChunkValueType(out[0].value), ChunkType::kGroup);

  uint64_t seq;
  uint32_t members;
  std::vector<GroupRow> rows;
  ASSERT_TRUE(compress::DecodeGroupChunk(ChunkValuePayload(out[0].value),
                                         &seq, &members, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(*rows[0].values[0], 9.0);  // newest non-null wins
  EXPECT_EQ(*rows[0].values[1], 2.0);  // older value fills the NULL
}

TEST(MergeChunks, GroupWidthGrowsToNewestMembership) {
  std::vector<GroupRow> narrow(1);
  narrow[0] = {100, {1.0}};
  std::vector<GroupRow> wide(1);
  wide[0] = {200, {1.5, 2.5, 3.5}};
  std::string p1, p2;
  compress::EncodeGroupChunk(1, 1, narrow, &p1);
  compress::EncodeGroupChunk(2, 3, wide, &p2);
  const std::string v1 = MakeChunkValue(ChunkType::kGroup, p1);
  const std::string v2 = MakeChunkValue(ChunkType::kGroup, p2);

  std::vector<ChunkInput> inputs = {{1, Slice(v1)}, {2, Slice(v2)}};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith(inputs, {0, 1000}, 256, &out).ok());
  uint64_t seq;
  uint32_t members;
  std::vector<GroupRow> rows;
  ASSERT_TRUE(compress::DecodeGroupChunk(ChunkValuePayload(out[0].value),
                                         &seq, &members, &rows)
                  .ok());
  EXPECT_EQ(members, 3u);
  ASSERT_EQ(rows.size(), 2u);
  // The old row is padded with NULLs for the new members (§3.3).
  EXPECT_FALSE(rows[0].values[1].has_value());
  EXPECT_FALSE(rows[0].values[2].has_value());
}

TEST(MergeChunks, MixedTypesRejected) {
  const std::string series = SeriesValue(1, {{100, 1.0}});
  std::vector<GroupRow> rows(1);
  rows[0] = {100, {1.0}};
  std::string gp;
  compress::EncodeGroupChunk(1, 1, rows, &gp);
  const std::string group = MakeChunkValue(ChunkType::kGroup, gp);
  std::vector<ChunkInput> inputs = {{1, Slice(series)}, {2, Slice(group)}};
  std::vector<MergedChunk> out;
  EXPECT_TRUE(MergeWith(inputs, {0, 1000}, 256, &out).IsCorruption());
}

TEST(MergeChunks, ExtendsBoundariesToCoverOutOfRangeRows) {
  // Rows both before the first boundary and past the last: the merge must
  // grow the boundary list by whole steps (never clamp rows into an edge
  // interval) and still split output chunks at every boundary.
  const std::string v =
      SeriesValue(7, {{-150, 1.0}, {50, 2.0}, {250, 3.0}});
  std::vector<ChunkInput> inputs = {{7, Slice(v)}};
  std::vector<int64_t> boundaries = {0, 100};
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeChunks(inputs, &boundaries, 256, &out).ok());
  EXPECT_EQ(boundaries, (std::vector<int64_t>{-200, -100, 0, 100, 200, 300}));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].start_ts, -150);
  EXPECT_EQ(out[1].start_ts, 50);
  EXPECT_EQ(out[2].start_ts, 250);
  for (const MergedChunk& c : out) EXPECT_EQ(c.max_seq, 7u);
}

TEST(MergeChunks, EmptyInput) {
  std::vector<MergedChunk> out;
  ASSERT_TRUE(MergeWith({}, {0, 1000}, 256, &out).ok());
  EXPECT_TRUE(out.empty());
}

// -- Differential: columnar series merge vs a map-based reference ----------

// The map-based series merge: inputs newest first (a stable sort, so equal
// seqs keep input order), map::emplace keeps the first row of each
// timestamp, then per-partition chunks capped at `cap` samples and a
// per-sample rollup fold.
void ReferenceSeriesMerge(const std::vector<ChunkInput>& inputs,
                          std::vector<int64_t>* boundaries, uint32_t cap,
                          std::vector<MergedChunk>* out,
                          RollupOutput* rollup) {
  out->clear();
  rollup->buckets.assign(rollup->granularities_ms.size(), {});
  rollup->max_seq = 0;
  std::vector<const ChunkInput*> ordered;
  for (const ChunkInput& in : inputs) ordered.push_back(&in);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ChunkInput* a, const ChunkInput* b) {
                     return a->seq > b->seq;
                   });
  std::map<int64_t, std::pair<double, uint64_t>> merged;
  for (const ChunkInput* in : ordered) {
    uint64_t seq = 0;
    std::vector<Sample> samples;
    ASSERT_TRUE(
        compress::DecodeSeriesChunk(ChunkValuePayload(in->value), &seq,
                                    &samples)
            .ok());
    for (const Sample& s : samples) {
      merged.emplace(s.timestamp, std::make_pair(s.value, in->seq));
    }
  }
  if (merged.empty()) return;
  const int64_t front_step = (*boundaries)[1] - (*boundaries)[0];
  const int64_t back_step =
      boundaries->back() - (*boundaries)[boundaries->size() - 2];
  while (merged.begin()->first < boundaries->front()) {
    boundaries->insert(boundaries->begin(), boundaries->front() - front_step);
  }
  while (merged.rbegin()->first >= boundaries->back()) {
    boundaries->push_back(boundaries->back() + back_step);
  }
  std::vector<Sample> pending;
  uint64_t pending_seq = 0;
  int pending_partition = INT32_MIN;
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    std::string payload;
    compress::EncodeSeriesChunk(pending_seq, pending, &payload);
    out->push_back(MergedChunk{pending[0].timestamp, pending_seq,
                               MakeChunkValue(ChunkType::kSeries, payload)});
    pending.clear();
    pending_seq = 0;
  };
  for (const auto& [ts, vs] : merged) {
    const int part = PartitionIndexOf(*boundaries, ts);
    if (part != pending_partition || pending.size() >= cap) {
      flush_pending();
      pending_partition = part;
    }
    pending.push_back(Sample{ts, vs.first});
    pending_seq = std::max(pending_seq, vs.second);
    for (size_t g = 0; g < rollup->granularities_ms.size(); ++g) {
      query::AccumulateIntoBuckets(&ts, &vs.first, 1,
                                   rollup->granularities_ms[g],
                                   &rollup->buckets[g]);
    }
    rollup->max_seq = std::max(rollup->max_seq, vs.second);
  }
  flush_pending();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// One seeded merge case. Kinds: in-order (disjoint ascending inputs, the
// concatenation path), overlapping ranges, unsorted chunks, duplicate
// timestamps inside a chunk, and equal seqs across inputs; rows may fall
// outside the boundary list, which the merge must extend.
std::vector<std::string> RandomSeriesInputs(std::mt19937_64* rng,
                                            std::vector<ChunkInput>* inputs) {
  auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
  };
  const int kind = static_cast<int>(uniform(0, 3));
  const int n_inputs = static_cast<int>(uniform(1, 6));
  std::vector<std::string> values;
  std::vector<uint64_t> seqs;
  int64_t next_ts = uniform(-300, 300);
  for (int k = 0; k < n_inputs; ++k) {
    std::vector<Sample> samples;
    const int n = static_cast<int>(uniform(0, 40));
    for (int i = 0; i < n; ++i) {
      int64_t ts;
      if (kind == 0) {
        next_ts += uniform(1, 9);  // strictly increasing across inputs
        ts = next_ts;
      } else if (kind == 3) {
        ts = uniform(0, 30) * 10;  // narrow range: many duplicates
      } else {
        ts = uniform(-400, 900);
      }
      const double v = uniform(0, 7) == 0
                           ? static_cast<double>(uniform(-5, 5))
                           : std::uniform_real_distribution<double>(
                                 -1e6, 1e6)(*rng);
      samples.push_back(Sample{ts, v});
    }
    if (kind == 1) {
      std::sort(samples.begin(), samples.end(),
                [](const Sample& a, const Sample& b) {
                  return a.timestamp < b.timestamp;
                });
    }
    // kind 0 keeps seqs increasing like in-order flushes; the others draw
    // from a small range, so equal seqs are common.
    const uint64_t seq =
        kind == 0 ? static_cast<uint64_t>(k + 1) * 3
                  : static_cast<uint64_t>(uniform(1, 4));
    std::string payload;
    compress::EncodeSeriesChunk(seq, samples, &payload);
    values.push_back(MakeChunkValue(ChunkType::kSeries, payload));
    seqs.push_back(seq);
  }
  inputs->clear();
  for (size_t k = 0; k < values.size(); ++k) {
    inputs->push_back(ChunkInput{seqs[k], Slice(values[k])});
  }
  return values;
}

TEST(MergeChunks, SeriesMergeMatchesMapReferenceOverSeeds) {
  constexpr int kSeeds = 500;
  const uint32_t caps[] = {0, 1, 3, 8, 64, 256};
  const int64_t steps[] = {50, 100, 250};
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<ChunkInput> inputs;
    const std::vector<std::string> keep = RandomSeriesInputs(&rng, &inputs);
    const uint32_t cap = caps[rng() % 6];
    const int64_t step = steps[rng() % 3];
    const int64_t first = static_cast<int64_t>(rng() % 5) * step - 2 * step;
    std::vector<int64_t> boundaries;
    for (int i = 0, n = 2 + static_cast<int>(rng() % 4); i < n; ++i) {
      boundaries.push_back(first + i * step);
    }

    std::vector<int64_t> got_bounds = boundaries;
    std::vector<MergedChunk> got;
    RollupOutput got_rollup;
    got_rollup.granularities_ms = {10, 100};
    ASSERT_TRUE(
        MergeChunks(inputs, &got_bounds, cap, &got, &got_rollup).ok());

    std::vector<int64_t> want_bounds = boundaries;
    std::vector<MergedChunk> want;
    RollupOutput want_rollup;
    want_rollup.granularities_ms = {10, 100};
    ReferenceSeriesMerge(inputs, &want_bounds, cap, &want, &want_rollup);

    EXPECT_EQ(got_bounds, want_bounds);
    ASSERT_EQ(got.size(), want.size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].start_ts, want[c].start_ts) << "chunk " << c;
      EXPECT_EQ(got[c].max_seq, want[c].max_seq) << "chunk " << c;
      EXPECT_EQ(got[c].value, want[c].value) << "chunk " << c;
    }
    EXPECT_EQ(got_rollup.max_seq, want_rollup.max_seq);
    ASSERT_EQ(got_rollup.buckets.size(), want_rollup.buckets.size());
    for (size_t g = 0; g < got_rollup.buckets.size(); ++g) {
      const auto& gb = got_rollup.buckets[g];
      const auto& wb = want_rollup.buckets[g];
      ASSERT_EQ(gb.size(), wb.size()) << "granularity " << g;
      for (size_t i = 0; i < gb.size(); ++i) {
        EXPECT_EQ(gb[i].start, wb[i].start);
        EXPECT_EQ(gb[i].count, wb[i].count);
        EXPECT_TRUE(SameBits(gb[i].min, wb[i].min));
        EXPECT_TRUE(SameBits(gb[i].max, wb[i].max));
        EXPECT_TRUE(SameBits(gb[i].sum, wb[i].sum));
      }
    }
  }
}

}  // namespace
}  // namespace tu::lsm
