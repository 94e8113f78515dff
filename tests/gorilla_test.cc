#include "compress/gorilla.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "compress/chunk.h"
#include "compress/rollup.h"
#include "util/coding.h"
#include "util/random.h"

namespace tu::compress {
namespace {

TEST(BitStream, RoundTripBits) {
  char buf[64] = {};
  BitWriter w(buf, sizeof(buf));
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBits(0b1011, 4);
  w.WriteBits(0xdeadbeefcafebabeull, 64);
  w.WriteBits(7, 3);

  BitReader r(buf, sizeof(buf));
  EXPECT_TRUE(r.ReadBit());
  EXPECT_FALSE(r.ReadBit());
  EXPECT_EQ(r.ReadBits(4), 0b1011u);
  EXPECT_EQ(r.ReadBits(64), 0xdeadbeefcafebabeull);
  EXPECT_EQ(r.ReadBits(3), 7u);
}

TEST(BitStream, RemainingBits) {
  char buf[2];
  BitWriter w(buf, sizeof(buf));
  EXPECT_EQ(w.RemainingBits(), 16u);
  w.WriteBits(0, 10);
  EXPECT_EQ(w.RemainingBits(), 6u);
  EXPECT_EQ(w.BytesUsed(), 2u);
}

std::vector<int64_t> RegularTimestamps(int n, int64_t start, int64_t step) {
  std::vector<int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(start + i * step);
  return out;
}

TEST(GorillaTimestamps, RegularInterval) {
  char buf[512] = {};
  BitWriter w(buf, sizeof(buf));
  TimestampEncoder enc;
  const auto ts = RegularTimestamps(120, 1600000000000, 30000);
  for (int64_t t : ts) enc.Append(&w, t);

  // Regular intervals compress to ~1 bit/sample after the first two.
  EXPECT_LT(w.BytesUsed(), 40u);

  BitReader r(buf, sizeof(buf));
  TimestampDecoder dec;
  for (int64_t t : ts) EXPECT_EQ(dec.Next(&r), t);
}

TEST(GorillaTimestamps, JitteredAndNegativeDeltas) {
  char buf[4096] = {};
  BitWriter w(buf, sizeof(buf));
  TimestampEncoder enc;
  Random rng(99);
  std::vector<int64_t> ts;
  int64_t t = -5000;  // pre-epoch start
  for (int i = 0; i < 500; ++i) {
    t += static_cast<int64_t>(rng.Uniform(5000)) - 200;  // may go backwards
    ts.push_back(t);
    enc.Append(&w, t);
  }
  BitReader r(buf, sizeof(buf));
  TimestampDecoder dec;
  for (int64_t expect : ts) EXPECT_EQ(dec.Next(&r), expect);
}

TEST(GorillaTimestamps, AllDodBuckets) {
  // Exercise every delta-of-delta bucket boundary.
  const std::vector<int64_t> dods = {0,     1,     -63,   64,     65,
                                     -255,  256,   257,   -2047,  2048,
                                     2049,  100000, -100000, 1ll << 40};
  std::vector<int64_t> ts = {0, 1000};
  int64_t delta = 1000;
  for (int64_t dod : dods) {
    delta += dod;
    ts.push_back(ts.back() + delta);
  }
  char buf[4096] = {};
  BitWriter w(buf, sizeof(buf));
  TimestampEncoder enc;
  for (int64_t t : ts) enc.Append(&w, t);
  BitReader r(buf, sizeof(buf));
  TimestampDecoder dec;
  for (int64_t expect : ts) EXPECT_EQ(dec.Next(&r), expect);
}

TEST(GorillaValues, ConstantValueCompressesToBits) {
  char buf[512] = {};
  BitWriter w(buf, sizeof(buf));
  ValueEncoder enc;
  for (int i = 0; i < 100; ++i) enc.Append(&w, 42.5);
  EXPECT_LT(w.BytesUsed(), 24u);  // 8 bytes raw + ~1 bit each after

  BitReader r(buf, sizeof(buf));
  ValueDecoder dec;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dec.Next(&r), 42.5);
}

TEST(GorillaValues, SpecialDoubles) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 3.141592653589793};
  char buf[4096] = {};
  BitWriter w(buf, sizeof(buf));
  ValueEncoder enc;
  for (double v : values) enc.Append(&w, v);
  BitReader r(buf, sizeof(buf));
  ValueDecoder dec;
  for (double expect : values) {
    EXPECT_EQ(std::bit_cast<uint64_t>(dec.Next(&r)),
              std::bit_cast<uint64_t>(expect));
  }
}

TEST(GorillaValues, NaNRoundTrips) {
  char buf[256] = {};
  BitWriter w(buf, sizeof(buf));
  ValueEncoder enc;
  enc.Append(&w, std::nan(""));
  enc.Append(&w, 1.0);
  BitReader r(buf, sizeof(buf));
  ValueDecoder dec;
  EXPECT_TRUE(std::isnan(dec.Next(&r)));
  EXPECT_EQ(dec.Next(&r), 1.0);
}

class GorillaValueRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(GorillaValueRandomTest, RandomWalkRoundTrips) {
  Random rng(GetParam());
  std::vector<double> values;
  double v = 100.0;
  for (int i = 0; i < 1000; ++i) {
    v += rng.NextGaussian(0, 1.5);
    values.push_back(v);
  }
  std::vector<char> buf(values.size() * 12);
  BitWriter w(buf.data(), buf.size());
  ValueEncoder enc;
  for (double x : values) {
    ASSERT_GE(w.RemainingBits(), kMaxBitsPerValue);
    enc.Append(&w, x);
  }
  BitReader r(buf.data(), buf.size());
  ValueDecoder dec;
  for (double expect : values) EXPECT_EQ(dec.Next(&r), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GorillaValueRandomTest,
                         ::testing::Values(1, 17, 23, 99));

TEST(NullableValues, NullsInterleaved) {
  char buf[1024] = {};
  BitWriter w(buf, sizeof(buf));
  NullableValueEncoder enc;
  enc.AppendValue(&w, 1.5);
  enc.AppendNull(&w);
  enc.AppendNull(&w);
  enc.AppendValue(&w, 2.5);
  enc.AppendValue(&w, 2.5);
  enc.AppendNull(&w);

  BitReader r(buf, sizeof(buf));
  NullableValueDecoder dec;
  double v = 0;
  EXPECT_TRUE(dec.Next(&r, &v));
  EXPECT_EQ(v, 1.5);
  EXPECT_FALSE(dec.Next(&r, &v));
  EXPECT_FALSE(dec.Next(&r, &v));
  EXPECT_TRUE(dec.Next(&r, &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(dec.Next(&r, &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_FALSE(dec.Next(&r, &v));
}

TEST(NullableValues, AllNullColumn) {
  char buf[64] = {};
  BitWriter w(buf, sizeof(buf));
  NullableValueEncoder enc;
  for (int i = 0; i < 100; ++i) enc.AppendNull(&w);
  EXPECT_LE(w.BytesUsed(), 13u);  // 1 bit per NULL

  BitReader r(buf, sizeof(buf));
  NullableValueDecoder dec;
  double v;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(dec.Next(&r, &v));
}

// ---------------------------------------------------------------------------
// Bulk decode parity: DecodeAll must be bit-exact with n scalar Next()
// calls AND leave the reader/decoder in the identical state, so scalar and
// bulk reads can interleave on one stream.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class BulkParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BulkParityTest, TimestampBulkMatchesScalar) {
  Random rng(GetParam());
  std::vector<int64_t> ts;
  int64_t t = static_cast<int64_t>(rng.Uniform(1u << 30)) - (1 << 29);
  for (int i = 0; i < 800; ++i) {
    // Mix regular runs with jumps that hit every dod bucket.
    switch (rng.Uniform(5)) {
      case 0: t += 30000; break;
      case 1: t += 30000 + static_cast<int64_t>(rng.Uniform(128)) - 64; break;
      case 2: t += static_cast<int64_t>(rng.Uniform(4096)) - 2048; break;
      case 3: t += static_cast<int64_t>(rng.Uniform(1u << 20)); break;
      default: t -= static_cast<int64_t>(rng.Uniform(1u << 14)); break;
    }
    ts.push_back(t);
  }
  std::vector<char> buf(ts.size() * 12);
  BitWriter w(buf.data(), buf.size());
  TimestampEncoder enc;
  for (int64_t x : ts) enc.Append(&w, x);

  // Whole-stream bulk decode.
  BitReader rb(buf.data(), buf.size());
  TimestampDecoder bulk;
  std::vector<int64_t> got(ts.size());
  bulk.DecodeAll(&rb, got.size(), got.data());
  EXPECT_EQ(got, ts);

  // Scalar/bulk interleave at a random split: positions must stay in sync.
  const size_t split = rng.Uniform(static_cast<uint32_t>(ts.size()));
  BitReader ri(buf.data(), buf.size());
  TimestampDecoder dec;
  for (size_t i = 0; i < split; ++i) EXPECT_EQ(dec.Next(&ri), ts[i]);
  std::vector<int64_t> rest(ts.size() - split);
  dec.DecodeAll(&ri, rest.size() - 1, rest.data());
  EXPECT_EQ(dec.Next(&ri), ts.back());  // scalar again after bulk
  for (size_t i = 0; i + split + 1 < ts.size(); ++i) {
    EXPECT_EQ(rest[i], ts[split + i]);
  }
}

TEST_P(BulkParityTest, ValueBulkMatchesScalar) {
  Random rng(GetParam());
  std::vector<double> vals;
  double v = 100.0;
  for (int i = 0; i < 800; ++i) {
    // Repeats (xor == 0), small drifts (window reuse) and resets (new
    // window) all occur; occasional exact zero exercises sigbits wrap.
    switch (rng.Uniform(4)) {
      case 0: break;  // repeat previous value
      case 1: v += rng.NextGaussian(0, 1e-3); break;
      case 2: v = rng.NextGaussian(0, 1e6); break;
      default: v = 0.0; break;
    }
    vals.push_back(v);
  }
  std::vector<char> buf(vals.size() * 12);
  BitWriter w(buf.data(), buf.size());
  ValueEncoder enc;
  for (double x : vals) enc.Append(&w, x);

  BitReader rb(buf.data(), buf.size());
  ValueDecoder bulk;
  std::vector<double> got(vals.size());
  bulk.DecodeAll(&rb, got.size(), got.data());
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(Bits(got[i]), Bits(vals[i]));

  const size_t split = rng.Uniform(static_cast<uint32_t>(vals.size()));
  BitReader ri(buf.data(), buf.size());
  ValueDecoder dec;
  for (size_t i = 0; i < split; ++i) EXPECT_EQ(Bits(dec.Next(&ri)), Bits(vals[i]));
  std::vector<double> rest(vals.size() - split);
  dec.DecodeAll(&ri, rest.size() - 1, rest.data());
  EXPECT_EQ(Bits(dec.Next(&ri)), Bits(vals.back()));
  for (size_t i = 0; i + split + 1 < vals.size(); ++i) {
    EXPECT_EQ(Bits(rest[i]), Bits(vals[split + i]));
  }
}

TEST_P(BulkParityTest, NullableBulkMatchesScalar) {
  Random rng(GetParam());
  std::vector<bool> present;
  std::vector<double> vals;  // parallel; value only meaningful when present
  double v = 42.0;
  for (int i = 0; i < 600; ++i) {
    const bool p = rng.Uniform(3) != 0;
    present.push_back(p);
    if (p) v += rng.NextGaussian(0, 2.0);
    vals.push_back(v);
  }
  std::vector<char> buf(vals.size() * 12 + 128);
  BitWriter w(buf.data(), buf.size());
  NullableValueEncoder enc;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (present[i]) {
      enc.AppendValue(&w, vals[i]);
    } else {
      enc.AppendNull(&w);
    }
  }

  BitReader rb(buf.data(), buf.size());
  NullableValueDecoder bulk;
  std::vector<double> got(vals.size(), -1.0);
  std::vector<uint64_t> validity((vals.size() + 63) / 64, 0);
  bulk.DecodeAll(&rb, vals.size(), got.data(), validity.data());
  for (size_t i = 0; i < vals.size(); ++i) {
    const bool bit = (validity[i >> 6] >> (i & 63)) & 1;
    EXPECT_EQ(bit, static_cast<bool>(present[i])) << "slot " << i;
    if (present[i]) {
      EXPECT_EQ(Bits(got[i]), Bits(vals[i])) << "slot " << i;
    } else {
      EXPECT_EQ(got[i], -1.0) << "NULL slot must stay untouched";
    }
  }

  // Scalar reference over the same stream.
  BitReader rs(buf.data(), buf.size());
  NullableValueDecoder dec;
  for (size_t i = 0; i < vals.size(); ++i) {
    double x = 0;
    const bool got_present = dec.Next(&rs, &x);
    EXPECT_EQ(got_present, static_cast<bool>(present[i]));
    if (present[i]) EXPECT_EQ(Bits(x), Bits(vals[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkParityTest,
                         ::testing::Values(2, 29, 71, 1234, 99991));

// ---------------------------------------------------------------------------
// Stream ends: both readers stop at the end of their buffer. Buffers here
// are exact-size heap copies (BytesUsed(), no slack), so ASan reports any
// load past the last byte, and every length from 1 to 70 is decoded so
// the bulk cursor's word and last-bytes paths both run at the tail.
// ---------------------------------------------------------------------------

TEST(BitStream, ReadPastEndSetsOverrun) {
  const char buf[2] = {static_cast<char>(0xa5), static_cast<char>(0x0f)};
  BitReader r(buf, sizeof(buf));
  EXPECT_EQ(r.ReadBits(12), 0xa50u);
  EXPECT_FALSE(r.overrun());
  EXPECT_EQ(r.ReadBits(8), 0u);  // only 4 bits left
  EXPECT_TRUE(r.overrun());
  EXPECT_EQ(r.RemainingBits(), 0u);
  EXPECT_FALSE(r.ReadBit());
  EXPECT_TRUE(r.overrun());
}

/// Copies the used bytes of an encoded stream into an exact-size buffer.
std::unique_ptr<char[]> ExactCopy(const std::vector<char>& buf, size_t used) {
  std::unique_ptr<char[]> out(new char[used]);
  std::memcpy(out.get(), buf.data(), used);
  return out;
}

/// DevOps-like columns: 10 s steps with occasional jitter, and a noisy
/// random walk whose values need about 60 bits each.
void MakeColumns(uint32_t seed, size_t n, std::vector<int64_t>* ts,
                 std::vector<double>* vals) {
  Random rng(seed);
  int64_t t = 1600000000000;
  double v = 50.0;
  for (size_t i = 0; i < n; ++i) {
    t += rng.OneIn(4) ? 10000 + static_cast<int64_t>(rng.Uniform(40)) : 10000;
    v += rng.NextGaussian(0, 1);
    ts->push_back(t);
    vals->push_back(v);
  }
}

TEST(BulkParityExactSize, EveryLengthTo70) {
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<int64_t> ts;
    std::vector<double> vals;
    MakeColumns(static_cast<uint32_t>(n), n, &ts, &vals);
    std::vector<char> tbuf(n * 12 + 16), vbuf(n * 12 + 16), nbuf(n * 12 + 16);
    BitWriter tw(tbuf.data(), tbuf.size());
    BitWriter vw(vbuf.data(), vbuf.size());
    BitWriter nw(nbuf.data(), nbuf.size());
    TimestampEncoder te;
    ValueEncoder ve;
    NullableValueEncoder ne;
    for (size_t i = 0; i < n; ++i) {
      te.Append(&tw, ts[i]);
      ve.Append(&vw, vals[i]);
      if (i % 3 == 1) {
        ne.AppendNull(&nw);
      } else {
        ne.AppendValue(&nw, vals[i]);
      }
    }
    const auto texact = ExactCopy(tbuf, tw.BytesUsed());
    const auto vexact = ExactCopy(vbuf, vw.BytesUsed());
    const auto nexact = ExactCopy(nbuf, nw.BytesUsed());

    {
      BitReader rb(texact.get(), tw.BytesUsed());
      TimestampDecoder bulk;
      std::vector<int64_t> got(n);
      bulk.DecodeAll(&rb, n, got.data());
      EXPECT_FALSE(rb.overrun()) << n;
      EXPECT_EQ(got, ts) << n;
      BitReader rs(texact.get(), tw.BytesUsed());
      TimestampDecoder scalar;
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(scalar.Next(&rs), ts[i]) << n;
      EXPECT_FALSE(rs.overrun()) << n;
      EXPECT_EQ(rs.bit_pos(), rb.bit_pos()) << n;
    }
    {
      BitReader rb(vexact.get(), vw.BytesUsed());
      ValueDecoder bulk;
      std::vector<double> got(n);
      bulk.DecodeAll(&rb, n, got.data());
      EXPECT_FALSE(rb.overrun()) << n;
      BitReader rs(vexact.get(), vw.BytesUsed());
      ValueDecoder scalar;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(vals[i])) << n << "/" << i;
        EXPECT_EQ(Bits(scalar.Next(&rs)), Bits(vals[i])) << n << "/" << i;
      }
      EXPECT_FALSE(rs.overrun()) << n;
      EXPECT_EQ(rs.bit_pos(), rb.bit_pos()) << n;
    }
    {
      BitReader rb(nexact.get(), nw.BytesUsed());
      NullableValueDecoder bulk;
      std::vector<double> got(n, -1.0);
      std::vector<uint64_t> validity((n + 63) / 64, 0);
      bulk.DecodeAll(&rb, n, got.data(), validity.data());
      EXPECT_FALSE(rb.overrun()) << n;
      BitReader rs(nexact.get(), nw.BytesUsed());
      NullableValueDecoder scalar;
      for (size_t i = 0; i < n; ++i) {
        const bool present = i % 3 != 1;
        EXPECT_EQ(((validity[i >> 6] >> (i & 63)) & 1) != 0, present) << n;
        double x = 0;
        EXPECT_EQ(scalar.Next(&rs, &x), present) << n << "/" << i;
        if (present) {
          EXPECT_EQ(Bits(got[i]), Bits(vals[i])) << n << "/" << i;
          EXPECT_EQ(Bits(x), Bits(vals[i])) << n << "/" << i;
        }
      }
      EXPECT_FALSE(rs.overrun()) << n;
      EXPECT_EQ(rs.bit_pos(), rb.bit_pos()) << n;
    }
  }
}

// Decoding more samples than a stream holds overruns on both paths: the
// readers stop at the end of the exact-size buffer and say so.
TEST(BulkParityExactSize, InflatedCountOverruns) {
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<int64_t> ts;
    std::vector<double> vals;
    MakeColumns(static_cast<uint32_t>(n) + 100, n, &ts, &vals);
    std::vector<char> tbuf(n * 12 + 16), vbuf(n * 12 + 16);
    BitWriter tw(tbuf.data(), tbuf.size());
    BitWriter vw(vbuf.data(), vbuf.size());
    TimestampEncoder te;
    ValueEncoder ve;
    for (size_t i = 0; i < n; ++i) {
      te.Append(&tw, ts[i]);
      ve.Append(&vw, vals[i]);
    }
    const auto texact = ExactCopy(tbuf, tw.BytesUsed());
    const auto vexact = ExactCopy(vbuf, vw.BytesUsed());
    // Past the zero padding of the last byte: at least 8 more bits.
    const size_t inflated = n + 9;

    std::vector<int64_t> tgot(inflated);
    std::vector<double> vgot(inflated);
    BitReader tb(texact.get(), tw.BytesUsed());
    TimestampDecoder().DecodeAll(&tb, inflated, tgot.data());
    EXPECT_TRUE(tb.overrun()) << n;
    BitReader vb(vexact.get(), vw.BytesUsed());
    ValueDecoder().DecodeAll(&vb, inflated, vgot.data());
    EXPECT_TRUE(vb.overrun()) << n;

    BitReader ts_scalar(texact.get(), tw.BytesUsed());
    BitReader vs_scalar(vexact.get(), vw.BytesUsed());
    TimestampDecoder tdec;
    ValueDecoder vdec;
    for (size_t i = 0; i < inflated; ++i) {
      tdec.Next(&ts_scalar);
      vdec.Next(&vs_scalar);
    }
    EXPECT_TRUE(ts_scalar.overrun()) << n;
    EXPECT_TRUE(vs_scalar.overrun()) << n;
  }
}

// ---------------------------------------------------------------------------
// Corrupt XOR windows: a new-window header whose leading-zero count plus
// meaningful-bit count exceeds 64 (the encoder never writes one) would
// shift the meaningful bits by 64 or more. Every decoder reports it as
// Corruption instead.
// ---------------------------------------------------------------------------

/// Two XOR values: a raw first value, then a new window with 31 leading
/// zeros and 40 meaningful bits (31 + 40 > 64). `nullable` prefixes each
/// value with the NULL-extended codec's "present" bit.
std::string CorruptWindowStream(bool nullable) {
  std::vector<char> buf(32);
  BitWriter w(buf.data(), buf.size());
  if (nullable) w.WriteBit(false);
  w.WriteBits(Bits(1.5), 64);
  if (nullable) w.WriteBit(false);
  w.WriteBits(0b11, 2);  // changed value, new window
  w.WriteBits(31, 5);    // leading zeros
  w.WriteBits(40, 6);    // meaningful bits
  w.WriteBits((1ull << 40) - 1, 40);
  return std::string(buf.data(), w.BytesUsed());
}

/// A valid two-sample timestamp stream.
std::string TwoTimestamps() {
  std::vector<char> buf(32);
  BitWriter w(buf.data(), buf.size());
  TimestampEncoder enc;
  enc.Append(&w, 1000);
  enc.Append(&w, 2000);
  return std::string(buf.data(), w.BytesUsed());
}

TEST(CorruptXorWindow, ValueDecodersFlagOverrun) {
  const std::string plain = CorruptWindowStream(false);
  {
    BitReader r(plain.data(), plain.size());
    ValueDecoder dec;
    EXPECT_EQ(dec.Next(&r), 1.5);
    dec.Next(&r);
    EXPECT_TRUE(r.overrun());
  }
  {
    BitReader r(plain.data(), plain.size());
    double out[2];
    ValueDecoder().DecodeAll(&r, 2, out);
    EXPECT_TRUE(r.overrun());
  }
  const std::string nullable = CorruptWindowStream(true);
  {
    BitReader r(nullable.data(), nullable.size());
    NullableValueDecoder dec;
    double x = 0;
    EXPECT_TRUE(dec.Next(&r, &x));
    dec.Next(&r, &x);
    EXPECT_TRUE(r.overrun());
  }
  {
    BitReader r(nullable.data(), nullable.size());
    double out[2];
    uint64_t validity = 0;
    NullableValueDecoder().DecodeAll(&r, 2, out, &validity);
    EXPECT_TRUE(r.overrun());
  }
}

TEST(CorruptXorWindow, ChunkDecodersReturnCorruption) {
  const std::string ts = TwoTimestamps();
  const std::string plain = CorruptWindowStream(false);
  const std::string nullable = CorruptWindowStream(true);

  std::string series;
  SerializeSeriesChunk(7, 2, ts.data(), ts.size(), plain.data(), plain.size(),
                       &series);
  query::SampleBatch batch;
  EXPECT_TRUE(DecodeSeriesChunkBatch(series, &batch).IsCorruption());
  uint64_t seq = 0;
  std::vector<Sample> samples;
  EXPECT_TRUE(DecodeSeriesChunk(series, &seq, &samples).IsCorruption());

  std::string group;
  SerializeGroupChunk(7, 2, ts.data(), ts.size(),
                      {{nullable.data(), nullable.size()}}, &group);
  EXPECT_TRUE(DecodeGroupMemberBatch(group, 0, &batch).IsCorruption());
  EXPECT_TRUE(DecodeGroupMember(group, 0, &samples).IsCorruption());
  uint32_t members = 0;
  std::vector<GroupRow> rows;
  EXPECT_TRUE(DecodeGroupChunk(group, &seq, &members, &rows).IsCorruption());

  // Rollup chunk: valid start/max/sum/count streams, corrupt min stream.
  std::vector<RollupBucket> buckets = {{1000, 1.0, 2.0, 3.0, 2},
                                       {2000, 1.0, 2.0, 3.0, 2}};
  std::string valid;
  EncodeRollupChunk(7, 1000, buckets, &valid);
  std::vector<RollupBucket> decoded;
  int64_t gran = 0;
  ASSERT_TRUE(DecodeRollupChunk(valid, &seq, &gran, &decoded).ok());
  std::string rollup;
  PutVarint64(&rollup, 7);
  PutVarint64(&rollup, 1000);
  PutVarint32(&rollup, 2);
  const std::string counts = [] {
    std::vector<char> buf(32);
    BitWriter w(buf.data(), buf.size());
    TimestampEncoder enc;
    enc.Append(&w, 2);
    enc.Append(&w, 2);
    return std::string(buf.data(), w.BytesUsed());
  }();
  for (const std::string* stream : {&ts, &plain, &plain, &plain, &counts}) {
    PutVarint32(&rollup, static_cast<uint32_t>(stream->size()));
    rollup.append(*stream);
  }
  EXPECT_TRUE(DecodeRollupChunk(rollup, &seq, &gran, &decoded).IsCorruption());
}

}  // namespace
}  // namespace tu::compress
