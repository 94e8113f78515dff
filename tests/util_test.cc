#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/bitmap.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/interval_set.h"
#include "util/lru_cache.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tu {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::NotFound("missing key");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
}

TEST(SliceTest, CompareAndPrefix) {
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("hello").starts_with("hel"));
  EXPECT_FALSE(Slice("he").starts_with("hel"));
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
}

TEST(CodingTest, VarintRoundTrip) {
  const std::vector<uint64_t> values = {0,        1,        127,
                                        128,      300,      1ull << 32,
                                        UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), static_cast<size_t>(VarintLength(v)));
    Slice in(buf);
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint64(&in, &got));
}

TEST(CodingTest, BigEndianIsSortable) {
  std::string a, b, c;
  PutBigEndian64(&a, 5);
  PutBigEndian64(&b, 255);
  PutBigEndian64(&c, 1ull << 40);
  EXPECT_LT(Slice(a).compare(b), 0);
  EXPECT_LT(Slice(b).compare(c), 0);
  EXPECT_EQ(DecodeBigEndian64(c.data()), 1ull << 40);
}

TEST(CodingTest, OrderedInt64HandlesNegatives) {
  std::string neg, zero, pos;
  PutOrderedInt64(&neg, -1000);
  PutOrderedInt64(&zero, 0);
  PutOrderedInt64(&pos, 1000);
  EXPECT_LT(Slice(neg).compare(zero), 0);
  EXPECT_LT(Slice(zero).compare(pos), 0);
  EXPECT_EQ(DecodeOrderedInt64(neg.data()), -1000);
  EXPECT_EQ(DecodeOrderedInt64(pos.data()), 1000);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, "world");
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "world");
}

TEST(Crc32cTest, KnownProperties) {
  const uint32_t crc1 = crc32c::Value("hello", 5);
  const uint32_t crc2 = crc32c::Value("hello", 5);
  const uint32_t crc3 = crc32c::Value("hellp", 5);
  EXPECT_EQ(crc1, crc2);
  EXPECT_NE(crc1, crc3);
  // Extend must equal one-shot.
  uint32_t ext = crc32c::Value("he", 2);
  ext = crc32c::Extend(ext, "llo", 3);
  EXPECT_EQ(ext, crc1);
  // Mask is reversible and changes the value.
  EXPECT_NE(crc32c::Mask(crc1), crc1);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc1)), crc1);
}

// Both CRC32C paths: Extend() (the SSE4.2 instruction where the CPU has
// it) and the portable slice-by-8 fallback. Every case below runs against
// each, so the two can never produce different checksums.
using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);
constexpr ExtendFn kCrcPaths[] = {&crc32c::Extend,
                                  &crc32c::internal::ExtendPortable};

// Pins both paths to the standard CRC32C (Castagnoli) test vectors: any
// change to the tables, the word loop or the hardware path that alters
// produced checksums breaks these, so block trailers, whole-object CRCs,
// manifest/WAL checksums and frame CRCs provably stay compatible.
TEST(Crc32cTest, StandardVectors) {
  char zeros[32], ones[32], asc[32], desc[32];
  std::memset(zeros, 0, sizeof(zeros));
  std::memset(ones, 0xff, sizeof(ones));
  for (size_t i = 0; i < 32; ++i) {
    asc[i] = static_cast<char>(i);
    desc[i] = static_cast<char>(31 - i);
  }
  // An iSCSI read command PDU (RFC 3720 B.4 "Bytes 48 .. 79").
  const unsigned char iscsi[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  // RFC 3720 B.4 / LevelDB crc32c_test vectors.
  const struct {
    const char* data;
    size_t n;
    uint32_t crc;
  } kVectors[] = {
      {"", 0, 0x00000000u},
      {"a", 1, 0xc1d04330u},
      {"123456789", 9, 0xe3069283u},
      {zeros, sizeof(zeros), 0x8a9136aau},
      {ones, sizeof(ones), 0x62a8ab43u},
      {asc, sizeof(asc), 0x46dd794eu},
      {desc, sizeof(desc), 0x113fdb5cu},
      {reinterpret_cast<const char*>(iscsi), sizeof(iscsi), 0xd9963a56u},
  };
  for (size_t p = 0; p < std::size(kCrcPaths); ++p) {
    for (const auto& v : kVectors) {
      EXPECT_EQ(kCrcPaths[p](0, v.data, v.n), v.crc)
          << "path " << p << ", " << v.n << " bytes";
    }
  }
}

// Both word loops must agree with pure byte-at-a-time folding on every
// length and alignment, including the <8-byte tail and unaligned starting
// offsets, and Extend() must compose at every split.
TEST(Crc32cTest, ExtendMatchesBytewiseAtAllSplits) {
  auto bytewise = [](const char* data, size_t n) {
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
      crc ^= static_cast<uint8_t>(data[i]);
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
    }
    return crc ^ 0xffffffffu;
  };
  std::string data;
  for (int i = 0; i < 308; ++i) data.push_back(static_cast<char>(i * 131 + 7));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const char* p = data.data() + offset;
      const uint32_t want = bytewise(p, n);
      for (size_t path = 0; path < std::size(kCrcPaths); ++path) {
        ASSERT_EQ(kCrcPaths[path](0, p, n), want)
            << "path " << path << ", offset " << offset << ", n " << n;
      }
    }
  }
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    for (size_t path = 0; path < std::size(kCrcPaths); ++path) {
      uint32_t crc = kCrcPaths[path](0, data.data(), split);
      crc = kCrcPaths[path](crc, data.data() + split, data.size() - split);
      ASSERT_EQ(crc, whole) << "path " << path << ", split at " << split;
    }
  }
}

TEST(BitmapTest, SetClearFind) {
  Bitmap bm(100);
  EXPECT_EQ(bm.FirstClear(), 0u);
  for (size_t i = 0; i < 10; ++i) bm.Set(i);
  EXPECT_EQ(bm.FirstClear(), 10u);
  EXPECT_EQ(bm.CountSet(), 10u);
  bm.Clear(5);
  EXPECT_EQ(bm.FirstClear(), 5u);
  EXPECT_FALSE(bm.Test(5));
  EXPECT_TRUE(bm.Test(6));
  for (size_t i = 0; i < 100; ++i) bm.Set(i);
  EXPECT_EQ(bm.FirstClear(), 100u);  // full
  bm.ClearAll();
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(ArenaTest, AllocationsDisjointAndAligned) {
  Arena arena;
  std::set<char*> seen;
  for (int i = 1; i < 300; ++i) {
    char* p = arena.AllocateAligned(i);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    memset(p, 0xab, i);  // must be writable
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(LRUCacheTest, EvictsLeastRecentlyUsed) {
  LRUCacheShard<int> cache(100);
  cache.Insert("a", std::make_shared<int>(1), 40);
  cache.Insert("b", std::make_shared<int>(2), 40);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // touch a -> b becomes LRU
  cache.Insert("c", std::make_shared<int>(3), 40);
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_LE(cache.usage(), 100u);
}

TEST(LRUCacheTest, ShardedCacheCounts) {
  LRUCache<int> cache(16 << 10);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), std::make_shared<int>(i), 10);
  }
  int found = 0;
  for (int i = 0; i < 100; ++i) {
    if (cache.Lookup("key" + std::to_string(i))) ++found;
  }
  EXPECT_EQ(found, 100);
  EXPECT_GT(cache.hits(), 0u);
  cache.Erase("key5");
  EXPECT_EQ(cache.Lookup("key5"), nullptr);
}

TEST(MemoryTrackerTest, CategoriesIndependent) {
  MemoryTracker tracker;
  tracker.Add(MemCategory::kSamples, 100);
  tracker.Add(MemCategory::kCache, 50);
  tracker.Sub(MemCategory::kSamples, 30);
  EXPECT_EQ(tracker.Get(MemCategory::kSamples), 70);
  EXPECT_EQ(tracker.Get(MemCategory::kCache), 50);
  EXPECT_EQ(tracker.Total(), 120);
  tracker.Reset();
  EXPECT_EQ(tracker.Total(), 0);
}

TEST(ThreadPoolTest, RunsAllTasksAndWaitsIdle) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, ScheduleAfterShutdownIsDropped) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  // Work scheduled after shutdown must be silently dropped (no workers
  // remain to run it) — not crash or hang.
  pool.Schedule([&counter] { counter.fetch_add(100); });
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.Uniform(10), 10u);
    const double d = a.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  // Gaussian sanity: mean near target.
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += a.NextGaussian(5, 1);
  EXPECT_NEAR(sum / 10000, 5.0, 0.1);
}

TEST(IntervalSetTest, MergesOverlappingAndAdjacent) {
  std::vector<util::TimeInterval> iv = {
      {10, 20}, {15, 25}, {26, 30},  // overlap + adjacent (closed intervals)
      {50, 60}, {40, 45},            // out of order, disjoint
  };
  util::MergeIntervals(&iv);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0], util::TimeInterval(10, 30));
  EXPECT_EQ(iv[1], util::TimeInterval(40, 45));
  EXPECT_EQ(iv[2], util::TimeInterval(50, 60));
}

TEST(IntervalSetTest, DropsInvertedKeepsPointsHandlesExtremes) {
  std::vector<util::TimeInterval> iv = {
      {30, 10},                    // inverted: dropped
      {5, 5},                      // single point survives
      {INT64_MAX - 1, INT64_MAX},  // no +1 overflow on the adjacency test
      {INT64_MIN, INT64_MIN + 5},
  };
  util::MergeIntervals(&iv);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].first, INT64_MIN);
  EXPECT_EQ(iv[1], util::TimeInterval(5, 5));
  EXPECT_EQ(iv[2].second, INT64_MAX);

  std::vector<util::TimeInterval> empty;
  util::MergeIntervals(&empty);
  EXPECT_TRUE(empty.empty());
}

TEST(IntervalSetTest, ContainmentProbesClosedBounds) {
  const std::vector<util::TimeInterval> iv = {{10, 20}, {40, 40}};
  EXPECT_TRUE(util::IntervalsContain(iv, 10));
  EXPECT_TRUE(util::IntervalsContain(iv, 20));
  EXPECT_TRUE(util::IntervalsContain(iv, 40));
  EXPECT_FALSE(util::IntervalsContain(iv, 9));
  EXPECT_FALSE(util::IntervalsContain(iv, 21));
  EXPECT_FALSE(util::IntervalsContain(iv, 39));
  EXPECT_FALSE(util::IntervalsContain({}, 0));
}

}  // namespace
}  // namespace tu
