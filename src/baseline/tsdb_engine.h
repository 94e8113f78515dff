// TsdbEngine: C++ reimplementation of the Prometheus tsdb storage-engine
// architecture (§2.2/Fig. 2), extended with cloud storage support exactly
// the way the paper's "tsdb" baseline is:
//   - head block: all incoming samples batched in memory, 120-sample
//     chunks, with an inverted index built on the fly from NESTED HASH
//     TABLES (the §2.4 memory culprit);
//   - every block_range (2 h) the head is cut into a self-contained
//     persistent block (chunk blob + index blob) uploaded to the slow
//     object tier; block metadata (tag pairs, symbols, chunk refs) stays
//     pinned in memory for query acceleration (the kBlockMeta 34%);
//   - adjacent blocks are merged when enough accumulate (block compaction);
//   - out-of-order samples are rejected ("Prometheus does not even support
//     this", §2.2).
//
// The optional LevelDB sample storage (tsdb-LDB, §4.1 baseline (a)) stores
// chunk payloads in a classic leveled LSM whose SSTables live on S3
// instead of per-block chunk blobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/tiered_env.h"
#include "compress/chunk.h"
#include "index/inverted_index.h"  // TagMatcher
#include "index/labels.h"
#include "lsm/leveled_lsm.h"
#include "util/lru_cache.h"

namespace tu::baseline {

struct TsdbOptions {
  std::string workspace;
  cloud::TieredEnvOptions env_options = cloud::TieredEnvOptions::Instant();
  /// Head span before a block is cut (Prometheus: 2 hours).
  int64_t block_range_ms = 2LL * 60 * 60 * 1000;
  /// Samples per chunk (Prometheus: 120).
  uint32_t samples_per_chunk = 120;
  /// Merge this many adjacent blocks into one (Prometheus compaction).
  int compact_block_count = 3;
  /// Store persistent blocks on the slow object tier (cloud support);
  /// false = fast tier only (Fig. 17 EBS-only mode).
  bool blocks_on_slow = true;
  /// tsdb-LDB: store chunk payloads in a leveled LSM on the slow tier.
  bool use_leveldb_samples = false;
  lsm::LeveledLsmOptions leveled;
  size_t segment_cache_bytes = 64 << 20;
};

struct TsdbStats {
  std::atomic<uint64_t> blocks_cut{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_us{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> rejected_out_of_order{0};
};

/// Query result shape shared with TimeUnionDB: ascending timestamp and
/// value columns.
struct TsdbSeriesResult {
  index::Labels labels;
  std::vector<int64_t> timestamps;
  std::vector<double> values;
};

class TsdbEngine {
 public:
  static Status Open(TsdbOptions options, std::unique_ptr<TsdbEngine>* out);
  ~TsdbEngine();

  /// Registers a series without samples (Fig. 3a index-only case).
  Status Register(const index::Labels& labels, uint64_t* ref);

  Status Insert(const index::Labels& labels, int64_t ts, double value,
                uint64_t* ref);
  Status InsertFast(uint64_t ref, int64_t ts, double value);

  Status Query(const std::vector<index::TagMatcher>& matchers, int64_t t0,
               int64_t t1, std::vector<TsdbSeriesResult>* out);

  /// Cuts the head into a block and runs pending compactions.
  Status Flush();

  const TsdbStats& stats() const { return stats_; }
  /// Compaction statistics of the embedded sample LSM (tsdb-LDB mode);
  /// nullptr otherwise.
  const lsm::CompactionStats* sample_lsm_stats() const {
    return sample_lsm_ ? &sample_lsm_->stats() : nullptr;
  }
  cloud::TieredEnv& env() { return *env_; }
  uint64_t NumSeries() const { return series_.size(); }
  size_t NumBlocks() const { return blocks_.size(); }
  /// Total persisted index bytes (Table 3 "Index" row).
  uint64_t PersistedIndexBytes() const { return persisted_index_bytes_; }
  /// Total persisted chunk bytes (Table 3 "Data" row).
  uint64_t PersistedDataBytes() const { return persisted_data_bytes_; }

 private:
  struct HeadSeries {
    uint64_t id = 0;
    index::Labels labels;
    std::vector<compress::Sample> buffer;   // open chunk, raw samples
    std::vector<std::string> closed;        // compressed chunks (in RAM)
    std::vector<int64_t> closed_start;
    int64_t last_ts = INT64_MIN;
  };

  /// In-memory metadata of a persistent block — deliberately pinned, like
  /// Prometheus loading block indexes for query acceleration.
  struct ChunkRef {
    uint64_t series_ord = 0;
    uint64_t offset = 0;   // into the chunk blob (or LSM key ts)
    uint32_t length = 0;
    int64_t min_ts = 0;
    int64_t max_ts = 0;
  };
  struct BlockMeta {
    uint64_t block_id = 0;
    int64_t min_ts = 0;
    int64_t max_ts = 0;
    std::vector<index::Labels> series_labels;            // by ord
    std::vector<uint64_t> series_ids;                    // global ids by ord
    std::map<std::string, index::Postings> postings;     // tagpair -> ords
    std::vector<ChunkRef> chunks;
    uint64_t chunks_bytes = 0;
    uint64_t index_bytes = 0;
    int64_t tracked_bytes = 0;  // kBlockMeta accounting
  };

  explicit TsdbEngine(TsdbOptions options);
  Status Init();

  Status AppendLocked(HeadSeries* series, int64_t ts, double value);
  Status CloseOpenChunk(HeadSeries* series);
  Status CutBlockLocked();
  Status MaybeCompactLocked();
  Status CompactBlocksLocked(size_t first, size_t count);
  Status WriteBlock(
      const std::vector<std::pair<uint64_t, std::vector<std::pair<int64_t, std::string>>>>&
          series_chunks,
      BlockMeta* meta);

  std::string ChunksName(uint64_t block_id) const;
  Status ReadChunk(const BlockMeta& meta, const ChunkRef& ref,
                   std::string* out);

  void TrackIndexBytes(int64_t delta);
  void TrackBlockMeta(BlockMeta* meta);

  TsdbOptions options_;
  std::unique_ptr<cloud::TieredEnv> env_;
  std::unique_ptr<lsm::BlockCache> lsm_cache_;
  std::unique_ptr<lsm::LeveledLsm> sample_lsm_;  // tsdb-LDB mode
  std::unique_ptr<LRUCache<std::string>> segment_cache_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> series_by_key_;
  std::unordered_map<uint64_t, HeadSeries> series_;
  // The §2.4 nested hash table index: tag name -> value -> series ids.
  std::unordered_map<std::string,
                     std::unordered_map<std::string, index::Postings>>
      head_index_;
  std::vector<BlockMeta> blocks_;  // sorted by min_ts
  uint64_t next_id_ = 1;
  uint64_t next_block_id_ = 1;
  int64_t head_start_ = INT64_MIN;  // current head window start
  int64_t head_samples_bytes_ = 0;
  int64_t index_bytes_ = 0;
  uint64_t persisted_index_bytes_ = 0;
  uint64_t persisted_data_bytes_ = 0;
  uint64_t lsm_seq_ = 1;

  TsdbStats stats_;
};

}  // namespace tu::baseline
