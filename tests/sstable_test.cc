#include <gtest/gtest.h>

#include <map>

#include "cloud/block_store.h"
#include "cloud/object_store.h"
#include "lsm/block.h"
#include "lsm/key_format.h"
#include "lsm/memtable.h"
#include "lsm/merging_iterator.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace tu::lsm {
namespace {

TEST(BlockTest, RoundTrip) {
  BlockBuilder builder(4);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    entries[key] = "value" + std::to_string(i);
  }
  for (const auto& [k, v] : entries) builder.Add(k, v);
  Block block(builder.Finish());

  auto it = block.NewIterator();
  EXPECT_FALSE(it->Valid());
  it->SeekToFirst();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, SeekSemantics) {
  BlockBuilder builder(3);
  builder.Add("b", "1");
  builder.Add("d", "2");
  builder.Add("f", "3");
  Block block(builder.Finish());
  auto it = block.NewIterator();

  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "b");
  it->Seek("d");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "d");
  it->Seek("e");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "f");
  it->Seek("g");
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, EmptyBlock) {
  BlockBuilder builder;
  Block block(builder.Finish());
  auto it = block.NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("x");
  EXPECT_FALSE(it->Valid());
}

TEST(MemTableTest, OrderedWithDuplicateUserKeysNewestFirst) {
  MemTable mem;
  mem.Add(1, MakeChunkKey(5, 100), "old");
  mem.Add(2, MakeChunkKey(5, 100), "new");
  mem.Add(3, MakeChunkKey(4, 200), "other");

  auto it = mem.NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ChunkKeyId(InternalKeyUserKey(it->key())), 4u);
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ChunkKeyId(InternalKeyUserKey(it->key())), 5u);
  EXPECT_EQ(it->value().ToString(), "new");  // newest seq first
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "old");
  it->Next();
  EXPECT_FALSE(it->Valid());
  EXPECT_EQ(mem.min_ts(), 100);
  EXPECT_EQ(mem.max_ts(), 200);
}

class SSTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workspace_ = "/tmp/timeunion_test/sstable";
    RemoveDirRecursive(workspace_);
    fast_ = std::make_unique<cloud::BlockStore>(
        workspace_ + "/fast", cloud::TierSimOptions::Instant());
    slow_ = std::make_unique<cloud::ObjectStore>(
        workspace_ + "/slow", cloud::TierSimOptions::Instant());
  }

  void TearDown() override { RemoveDirRecursive(workspace_); }

  /// Builds a table of n chunk entries on the fast tier; returns the meta.
  TableMeta BuildTable(const std::string& fname, int n) {
    BufferTableSink sink;
    TableBuilder builder(TableBuilderOptions{}, &sink);
    uint64_t seq = 0;
    for (int i = 0; i < n; ++i) {
      const std::string key =
          MakeInternalKey(MakeChunkKey(i / 10, 1000 * (i % 10)), ++seq);
      builder.Add(key, "chunk-" + std::to_string(i));
    }
    TableMeta meta;
    builder.Finish(&meta);
    EXPECT_TRUE(fast_->WriteStringToFile(fname, sink.buffer()).ok());
    return meta;
  }

  std::string workspace_;
  std::unique_ptr<cloud::BlockStore> fast_;
  std::unique_ptr<cloud::ObjectStore> slow_;
};

TEST_F(SSTableTest, BuildAndScanFastTier) {
  const TableMeta meta = BuildTable("t1.sst", 500);
  EXPECT_EQ(meta.num_entries, 500u);
  EXPECT_EQ(meta.min_series_id, 0u);
  EXPECT_EQ(meta.max_series_id, 49u);

  std::unique_ptr<TableSource> source;
  ASSERT_TRUE(FastTableSource::Open(fast_.get(), "t1.sst", &source).ok());
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(TableReaderOptions{}, std::move(source),
                                &reader)
                  .ok());

  auto it = reader->NewIterator();
  it->SeekToFirst();
  int count = 0;
  std::string prev;
  while (it->Valid()) {
    if (!prev.empty()) EXPECT_LT(prev, it->key().ToString());
    prev = it->key().ToString();
    ++count;
    it->Next();
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(count, 500);
}

TEST_F(SSTableTest, SeekOnTable) {
  BuildTable("t2.sst", 1000);
  std::unique_ptr<TableSource> source;
  ASSERT_TRUE(FastTableSource::Open(fast_.get(), "t2.sst", &source).ok());
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(TableReaderOptions{}, std::move(source),
                                &reader)
                  .ok());

  // Seek to series 42's chunks: keys (42, *) — 10 chunks.
  auto it = reader->NewIterator();
  it->Seek(MakeChunkKey(42, INT64_MIN));
  int found = 0;
  while (it->Valid() &&
         ChunkKeyId(InternalKeyUserKey(it->key())) == 42u) {
    ++found;
    it->Next();
  }
  EXPECT_EQ(found, 10);
}

TEST_F(SSTableTest, SlowTierWithBlockCache) {
  // Build in memory and upload as one object (the L1->L2 flow).
  BufferTableSink sink;
  TableBuilder builder(TableBuilderOptions{}, &sink);
  uint64_t seq = 0;
  for (int i = 0; i < 300; ++i) {
    builder.Add(MakeInternalKey(MakeChunkKey(7, i * 500), ++seq),
                std::string(100, 'v'));
  }
  TableMeta meta;
  builder.Finish(&meta);
  ASSERT_TRUE(slow_->PutObject("0001.sst", sink.buffer()).ok());

  BlockCache cache(1 << 20);
  TableReaderOptions opts;
  opts.block_cache = &cache;
  opts.cache_id = "sst:1";

  std::unique_ptr<TableSource> source;
  ASSERT_TRUE(SlowTableSource::Open(slow_.get(), "0001.sst", &source).ok());
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(opts, std::move(source), &reader).ok());

  const uint64_t gets_before = slow_->counters().get_ops.load();
  auto scan = [&] {
    auto it = reader->NewIterator();
    it->SeekToFirst();
    int n = 0;
    while (it->Valid()) {
      ++n;
      it->Next();
    }
    return n;
  };
  EXPECT_EQ(scan(), 300);
  const uint64_t gets_first = slow_->counters().get_ops.load() - gets_before;
  EXPECT_EQ(scan(), 300);
  const uint64_t gets_second =
      slow_->counters().get_ops.load() - gets_before - gets_first;
  // Second scan is served from the block cache.
  EXPECT_EQ(gets_second, 0u);
  EXPECT_GT(gets_first, 0u);
}

TEST_F(SSTableTest, BloomFilterRejectsAbsentIds) {
  BuildTable("t3.sst", 100);
  std::unique_ptr<TableSource> source;
  ASSERT_TRUE(FastTableSource::Open(fast_.get(), "t3.sst", &source).ok());
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(TableReaderOptions{}, std::move(source),
                                &reader)
                  .ok());
  // Present IDs must pass (no false negatives).
  for (uint64_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(reader->MayContainId(id)) << id;
  }
  // Absent IDs are mostly rejected (~1% FP rate at 10 bits/key).
  int rejected = 0;
  for (uint64_t id = 1000; id < 1200; ++id) {
    if (!reader->MayContainId(id)) ++rejected;
  }
  EXPECT_GT(rejected, 150);
}

TEST_F(SSTableTest, CorruptBlockDetected) {
  BuildTable("t4.sst", 50);
  // Flip a byte in the middle of the file.
  std::string contents;
  ASSERT_TRUE(fast_->ReadFileToString("t4.sst", &contents).ok());
  contents[contents.size() / 3] ^= 0x5a;
  ASSERT_TRUE(fast_->WriteStringToFile("t4.sst", contents).ok());

  std::unique_ptr<TableSource> source;
  ASSERT_TRUE(FastTableSource::Open(fast_.get(), "t4.sst", &source).ok());
  std::unique_ptr<TableReader> reader;
  Status open_status =
      TableReader::Open(TableReaderOptions{}, std::move(source), &reader);
  if (!open_status.ok()) {
    EXPECT_TRUE(open_status.IsCorruption());
    return;  // corruption hit the index block
  }
  auto it = reader->NewIterator();
  it->SeekToFirst();
  while (it->Valid()) it->Next();
  EXPECT_FALSE(it->status().ok());
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  MemTable a, b;
  a.Add(1, MakeChunkKey(1, 100), "a1");
  a.Add(2, MakeChunkKey(3, 100), "a2");
  b.Add(3, MakeChunkKey(2, 100), "b1");
  b.Add(4, MakeChunkKey(4, 100), "b2");

  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(a.NewIterator());
  children.push_back(b.NewIterator());
  auto merged = NewMergingIterator(std::move(children));

  merged->SeekToFirst();
  std::vector<uint64_t> ids;
  while (merged->Valid()) {
    ids.push_back(ChunkKeyId(InternalKeyUserKey(merged->key())));
    merged->Next();
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST(MergingIteratorTest, EmptyChildren) {
  std::vector<std::unique_ptr<Iterator>> children;
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

}  // namespace
}  // namespace tu::lsm
