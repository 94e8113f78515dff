#include "compress/chunk.h"

#include <gtest/gtest.h>

#include <bit>

#include "compress/rollup.h"
#include "util/coding.h"
#include "util/random.h"

namespace tu::compress {
namespace {

std::vector<Sample> MakeSamples(int n, int64_t start_ts, int64_t step,
                                uint64_t seed) {
  Random rng(seed);
  std::vector<Sample> out;
  double v = 50.0;
  for (int i = 0; i < n; ++i) {
    v += rng.NextGaussian(0, 1);
    out.push_back(Sample{start_ts + i * step, v});
  }
  return out;
}

TEST(SeriesChunk, EncodeDecodeRoundTrip) {
  const auto samples = MakeSamples(32, 1000000, 30000, 5);
  std::string payload;
  EncodeSeriesChunk(77, samples, &payload);

  uint64_t seq = 0;
  std::vector<Sample> decoded;
  ASSERT_TRUE(DecodeSeriesChunk(payload, &seq, &decoded).ok());
  EXPECT_EQ(seq, 77u);
  EXPECT_EQ(decoded, samples);
}

TEST(SeriesChunk, SingleSample) {
  std::string payload;
  EncodeSeriesChunk(1, {Sample{42, 3.5}}, &payload);
  uint64_t seq = 0;
  std::vector<Sample> decoded;
  ASSERT_TRUE(DecodeSeriesChunk(payload, &seq, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].timestamp, 42);
  EXPECT_EQ(decoded[0].value, 3.5);
}

TEST(SeriesChunk, EmptyChunk) {
  std::string payload;
  EncodeSeriesChunk(9, {}, &payload);
  uint64_t seq = 0;
  std::vector<Sample> decoded;
  ASSERT_TRUE(DecodeSeriesChunk(payload, &seq, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(seq, 9u);
}

// The row decoder and the batch decoder return exactly the samples written.
TEST(SeriesChunk, IteratorMatchesDecode) {
  const auto samples = MakeSamples(100, 5000, 10000, 3);
  std::string payload;
  EncodeSeriesChunk(5, samples, &payload);

  uint64_t seq = 0;
  std::vector<Sample> decoded;
  ASSERT_TRUE(DecodeSeriesChunk(payload, &seq, &decoded).ok());
  EXPECT_EQ(seq, 5u);
  ASSERT_EQ(decoded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(decoded[i], samples[i]) << i;
  }

  query::SampleBatch batch;
  ASSERT_TRUE(DecodeSeriesChunkBatch(payload, &batch).ok());
  ASSERT_EQ(batch.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(batch.timestamps[i], decoded[i].timestamp) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(batch.values[i]),
              std::bit_cast<uint64_t>(decoded[i].value))
        << i;
  }
}

TEST(SeriesChunk, CorruptionDetected) {
  uint64_t seq;
  std::vector<Sample> decoded;
  EXPECT_FALSE(DecodeSeriesChunk(Slice("xy", 2), &seq, &decoded).ok());
}

TEST(SeriesChunk, CompressionRatioOnRegularData) {
  // Monitoring-style data: regular interval, limited-precision values
  // (integers / few distinct values). 120 samples of 16 raw bytes each
  // should compress > 5x (the paper quotes ~10x for TSBS).
  std::vector<Sample> samples;
  Random rng(11);
  double v = 50;
  for (int i = 0; i < 120; ++i) {
    v += static_cast<double>(rng.Uniform(5)) - 2.0;  // integer walk
    samples.push_back(Sample{1600000000000 + i * 30000, v});
  }
  std::string payload;
  EncodeSeriesChunk(0, samples, &payload);
  EXPECT_LT(payload.size(), 120 * 16 / 5);
}

TEST(GroupChunk, RoundTripFullRows) {
  std::vector<GroupRow> rows;
  for (int i = 0; i < 32; ++i) {
    GroupRow row;
    row.timestamp = 1000 + i * 10;
    row.values = {1.0 * i, 2.0 * i, 3.0 * i};
    rows.push_back(row);
  }
  std::string payload;
  EncodeGroupChunk(13, 3, rows, &payload);

  uint64_t seq = 0;
  uint32_t members = 0;
  std::vector<GroupRow> decoded;
  ASSERT_TRUE(DecodeGroupChunk(payload, &seq, &members, &decoded).ok());
  EXPECT_EQ(seq, 13u);
  EXPECT_EQ(members, 3u);
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].timestamp, rows[i].timestamp);
    EXPECT_EQ(decoded[i].values, rows[i].values);
  }
}

TEST(GroupChunk, MissingAndNewMembers) {
  // Member 2 misses rounds 0-1 (NULL backfill, §3.1 cases 2/3).
  std::vector<GroupRow> rows(4);
  rows[0] = {100, {10.0, 20.0, std::nullopt}};
  rows[1] = {200, {11.0, std::nullopt, std::nullopt}};
  rows[2] = {300, {12.0, 22.0, 32.0}};
  rows[3] = {400, {std::nullopt, 23.0, 33.0}};

  std::string payload;
  EncodeGroupChunk(1, 3, rows, &payload);

  uint64_t seq;
  uint32_t members;
  std::vector<GroupRow> decoded;
  ASSERT_TRUE(DecodeGroupChunk(payload, &seq, &members, &decoded).ok());
  ASSERT_EQ(decoded.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].values, rows[i].values) << "row " << i;
  }
}

TEST(GroupChunk, DecodeSingleMemberSkipsNulls) {
  std::vector<GroupRow> rows(3);
  rows[0] = {100, {1.0, std::nullopt}};
  rows[1] = {200, {2.0, 20.0}};
  rows[2] = {300, {std::nullopt, 30.0}};
  std::string payload;
  EncodeGroupChunk(1, 2, rows, &payload);

  std::vector<Sample> member0, member1;
  ASSERT_TRUE(DecodeGroupMember(payload, 0, &member0).ok());
  ASSERT_TRUE(DecodeGroupMember(payload, 1, &member1).ok());
  ASSERT_EQ(member0.size(), 2u);
  EXPECT_EQ(member0[0], (Sample{100, 1.0}));
  EXPECT_EQ(member0[1], (Sample{200, 2.0}));
  ASSERT_EQ(member1.size(), 2u);
  EXPECT_EQ(member1[0], (Sample{200, 20.0}));
  EXPECT_EQ(member1[1], (Sample{300, 30.0}));
}

TEST(GroupChunk, MemberBeyondChunkColumnsIsEmpty) {
  // A member that joined after this chunk was flushed has no samples here.
  std::vector<GroupRow> rows(1);
  rows[0] = {100, {1.0}};
  std::string payload;
  EncodeGroupChunk(1, 1, rows, &payload);
  std::vector<Sample> samples;
  ASSERT_TRUE(DecodeGroupMember(payload, 5, &samples).ok());
  EXPECT_TRUE(samples.empty());
}

TEST(GroupChunk, TimestampDeduplicationShrinksPayload) {
  // A 50-member group sharing timestamps must be much smaller than 50
  // independent series chunks (the Table 3 effect).
  const int kMembers = 50;
  const int kRows = 32;
  Random rng(7);
  std::vector<GroupRow> rows(kRows);
  std::vector<std::vector<Sample>> individual(kMembers);
  for (int i = 0; i < kRows; ++i) {
    rows[i].timestamp = 1600000000000 + i * 30000;
    rows[i].values.resize(kMembers);
    for (int m = 0; m < kMembers; ++m) {
      const double v = 100.0 + m + 0.01 * i + rng.NextDouble();
      rows[i].values[m] = v;
      individual[m].push_back(Sample{rows[i].timestamp, v});
    }
  }
  std::string group_payload;
  EncodeGroupChunk(0, kMembers, rows, &group_payload);

  size_t individual_total = 0;
  for (int m = 0; m < kMembers; ++m) {
    std::string p;
    EncodeSeriesChunk(0, individual[m], &p);
    individual_total += p.size();
  }
  EXPECT_LT(group_payload.size(), individual_total);
}

class GroupChunkRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupChunkRandomTest, RandomNullPatternsRoundTrip) {
  Random rng(GetParam());
  const uint32_t members = 1 + rng.Uniform(8);
  const int rows_n = 1 + rng.Uniform(64);
  std::vector<GroupRow> rows(rows_n);
  int64_t ts = 1000;
  for (int i = 0; i < rows_n; ++i) {
    ts += 1 + rng.Uniform(100000);
    rows[i].timestamp = ts;
    rows[i].values.resize(members);
    for (uint32_t m = 0; m < members; ++m) {
      if (rng.OneIn(3)) {
        rows[i].values[m] = std::nullopt;
      } else {
        rows[i].values[m] = rng.NextGaussian(0, 1e6);
      }
    }
  }
  std::string payload;
  EncodeGroupChunk(GetParam(), members, rows, &payload);

  uint64_t seq;
  uint32_t decoded_members;
  std::vector<GroupRow> decoded;
  ASSERT_TRUE(DecodeGroupChunk(payload, &seq, &decoded_members, &decoded).ok());
  EXPECT_EQ(decoded_members, members);
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].timestamp, rows[i].timestamp);
    EXPECT_EQ(decoded[i].values, rows[i].values);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupChunkRandomTest,
                         ::testing::Range(1, 9));

// -- Inflated counts ---------------------------------------------------------
// A chunk whose count overstates its bit streams must decode to
// Corruption at every entry point, never to made-up samples or an
// out-of-bounds read. The payloads are copied into exact-size heap
// buffers so ASan reports any read past the end.

/// Rewrites the varint count that follows the varint64 seq at the front of
/// a series or group chunk.
std::string WithCount(const std::string& payload, uint32_t count) {
  Slice in(payload);
  uint64_t seq = 0;
  uint32_t old = 0;
  EXPECT_TRUE(GetVarint64(&in, &seq));
  EXPECT_TRUE(GetVarint32(&in, &old));
  std::string out;
  PutVarint64(&out, seq);
  PutVarint32(&out, count);
  out.append(in.data(), in.size());
  return out;
}

TEST(SeriesChunk, InflatedCountIsCorruptionAtEveryEntryPoint) {
  std::string payload;
  EncodeSeriesChunk(7, MakeSamples(5, 1000, 10000, 11), &payload);
  for (const uint32_t count : {100u, 1u << 30}) {
    const std::string bad = WithCount(payload, count);
    const std::vector<char> exact(bad.begin(), bad.end());
    const Slice data(exact.data(), exact.size());

    uint64_t seq = 0;
    std::vector<Sample> samples;
    EXPECT_TRUE(DecodeSeriesChunk(data, &seq, &samples).IsCorruption())
        << count;

    query::SampleBatch batch;
    EXPECT_TRUE(DecodeSeriesChunkBatch(data, &batch).IsCorruption()) << count;
    EXPECT_EQ(batch.size(), 0u);
  }
}

TEST(GroupChunk, InflatedCountIsCorruptionAtEveryEntryPoint) {
  std::vector<GroupRow> rows(5);
  for (int i = 0; i < 5; ++i) {
    rows[i] = {100 + i * 10, {1.5 * i, std::nullopt, 7.25 * i}};
  }
  std::string payload;
  EncodeGroupChunk(3, 3, rows, &payload);
  for (const uint32_t count : {100u, 1u << 30}) {
    const std::string bad = WithCount(payload, count);
    const std::vector<char> exact(bad.begin(), bad.end());
    const Slice data(exact.data(), exact.size());

    uint64_t seq = 0;
    uint32_t members = 0;
    std::vector<GroupRow> decoded;
    EXPECT_TRUE(DecodeGroupChunk(data, &seq, &members, &decoded).IsCorruption())
        << count;
    for (uint32_t m = 0; m < 3; ++m) {
      std::vector<Sample> samples;
      EXPECT_TRUE(DecodeGroupMember(data, m, &samples).IsCorruption())
          << count << " member " << m;
      query::SampleBatch batch;
      EXPECT_TRUE(DecodeGroupMemberBatch(data, m, &batch).IsCorruption())
          << count << " member " << m;
    }
  }
}

TEST(RollupChunk, InflatedCountIsCorruption) {
  std::vector<RollupBucket> buckets;
  for (int i = 0; i < 5; ++i) {
    buckets.push_back({i * 60000, 1.0 * i, 2.0 * i, 3.0 * i, 4});
  }
  std::string payload;
  EncodeRollupChunk(9, 60000, buckets, &payload);
  // Layout: varint64 max_seq | varint64 granularity | varint32 count | ...
  Slice in(payload);
  uint64_t max_seq = 0, gran = 0;
  uint32_t count = 0;
  ASSERT_TRUE(GetVarint64(&in, &max_seq) && GetVarint64(&in, &gran) &&
              GetVarint32(&in, &count));
  ASSERT_EQ(count, 5u);
  for (const uint32_t inflated : {100u, 1u << 30}) {
    std::string bad;
    PutVarint64(&bad, max_seq);
    PutVarint64(&bad, gran);
    PutVarint32(&bad, inflated);
    bad.append(in.data(), in.size());
    const std::vector<char> exact(bad.begin(), bad.end());
    uint64_t seq = 0;
    int64_t granularity = 0;
    std::vector<RollupBucket> decoded;
    EXPECT_TRUE(DecodeRollupChunk(Slice(exact.data(), exact.size()), &seq,
                                  &granularity, &decoded)
                    .IsCorruption())
        << inflated;
  }
}

}  // namespace
}  // namespace tu::compress
