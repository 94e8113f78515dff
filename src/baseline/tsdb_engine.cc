#include "baseline/tsdb_engine.h"

#include <algorithm>
#include <chrono>
#include <regex>
#include <set>
#include <string_view>

#include "lsm/key_format.h"
#include "util/coding.h"
#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace tu::baseline {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Approximate per-node overhead of an unordered_map entry (buckets,
/// pointers, allocator headers) — the "much extra space to reduce the
/// collision rate" of §2.4.
constexpr int64_t kHashNodeOverhead = 64;

int64_t LabelsBytes(const index::Labels& labels) {
  int64_t bytes = 0;
  for (const auto& l : labels) {
    bytes += static_cast<int64_t>(l.name.size() + l.value.size()) + 32;
  }
  return bytes;
}

}  // namespace

TsdbEngine::TsdbEngine(TsdbOptions options) : options_(std::move(options)) {}

TsdbEngine::~TsdbEngine() {
  MemoryTracker::Global().Sub(MemCategory::kInvertedIndex, index_bytes_);
  MemoryTracker::Global().Sub(MemCategory::kSamples, head_samples_bytes_);
  for (auto& meta : blocks_) {
    MemoryTracker::Global().Sub(MemCategory::kBlockMeta, meta.tracked_bytes);
  }
}

Status TsdbEngine::Open(TsdbOptions options, std::unique_ptr<TsdbEngine>* out) {
  std::unique_ptr<TsdbEngine> engine(new TsdbEngine(std::move(options)));
  TU_RETURN_IF_ERROR(engine->Init());
  *out = std::move(engine);
  return Status::OK();
}

Status TsdbEngine::Init() {
  env_ = std::make_unique<cloud::TieredEnv>(options_.workspace,
                                            options_.env_options);
  segment_cache_ =
      std::make_unique<LRUCache<std::string>>(options_.segment_cache_bytes);
  if (options_.use_leveldb_samples) {
    lsm_cache_ = std::make_unique<lsm::BlockCache>(options_.segment_cache_bytes);
    sample_lsm_ = std::make_unique<lsm::LeveledLsm>(
        env_.get(), "samples_ldb", options_.leveled, lsm_cache_.get());
    TU_RETURN_IF_ERROR(sample_lsm_->Open());
  }
  return Status::OK();
}

void TsdbEngine::TrackIndexBytes(int64_t delta) {
  index_bytes_ += delta;
  MemoryTracker::Global().Add(MemCategory::kInvertedIndex, delta);
}

Status TsdbEngine::Register(const index::Labels& labels, uint64_t* ref) {
  index::Labels sorted = labels;
  index::SortLabels(&sorted);
  const std::string key = index::LabelsKey(sorted);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_by_key_.find(key);
  if (it != series_by_key_.end()) {
    *ref = it->second;
    return Status::OK();
  }
  const uint64_t id = next_id_++;
  HeadSeries series;
  series.id = id;
  series.labels = sorted;
  series_by_key_[key] = id;
  series_.emplace(id, std::move(series));
  *ref = id;

  // Build the nested hash index on the fly; account its real shape.
  int64_t delta = LabelsBytes(sorted) + kHashNodeOverhead;  // series entry
  for (const auto& l : sorted) {
    auto& by_value = head_index_[l.name];
    auto& postings = by_value[l.value];
    const size_t before = postings.capacity();
    index::PostingsInsert(&postings, id);
    delta += static_cast<int64_t>((postings.capacity() - before) *
                                  sizeof(uint64_t));
    delta += 2 * kHashNodeOverhead;  // nested nodes (name + value levels)
  }
  TrackIndexBytes(delta);
  return Status::OK();
}

Status TsdbEngine::Insert(const index::Labels& labels, int64_t ts, double value,
                          uint64_t* ref) {
  TU_RETURN_IF_ERROR(Register(labels, ref));
  return InsertFast(*ref, ts, value);
}

Status TsdbEngine::InsertFast(uint64_t ref, int64_t ts, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(ref);
  if (it == series_.end()) return Status::NotFound("unknown series");
  return AppendLocked(&it->second, ts, value);
}

Status TsdbEngine::AppendLocked(HeadSeries* series, int64_t ts, double value) {
  // Prometheus rejects out-of-order appends (§2.2).
  if (ts <= series->last_ts) {
    stats_.rejected_out_of_order.fetch_add(1, std::memory_order_relaxed);
    return Status::NotSupported("out-of-order sample");
  }
  if (head_start_ == INT64_MIN) {
    head_start_ = ts / options_.block_range_ms * options_.block_range_ms;
  }
  // Head window exceeded: cut the block first (all series flushed at once,
  // the §2.2 "data flushing can severely affect performance" event).
  if (ts >= head_start_ + options_.block_range_ms) {
    TU_RETURN_IF_ERROR(CutBlockLocked());
    head_start_ = ts / options_.block_range_ms * options_.block_range_ms;
  }

  series->buffer.push_back(compress::Sample{ts, value});
  series->last_ts = ts;
  head_samples_bytes_ += static_cast<int64_t>(sizeof(compress::Sample));
  MemoryTracker::Global().Add(MemCategory::kSamples,
                              sizeof(compress::Sample));
  if (series->buffer.size() >= options_.samples_per_chunk) {
    TU_RETURN_IF_ERROR(CloseOpenChunk(series));
  }
  return Status::OK();
}

Status TsdbEngine::CloseOpenChunk(HeadSeries* series) {
  if (series->buffer.empty()) return Status::OK();
  std::string payload;
  compress::EncodeSeriesChunk(0, series->buffer, &payload);
  const int64_t raw_bytes =
      static_cast<int64_t>(series->buffer.size() * sizeof(compress::Sample));
  // Compressed chunk stays in head memory until the block is cut.
  head_samples_bytes_ += static_cast<int64_t>(payload.size()) - raw_bytes;
  MemoryTracker::Global().Add(
      MemCategory::kSamples,
      static_cast<int64_t>(payload.size()) - raw_bytes);
  series->closed_start.push_back(series->buffer.front().timestamp);
  series->closed.push_back(std::move(payload));
  series->buffer.clear();
  return Status::OK();
}

std::string TsdbEngine::ChunksName(uint64_t block_id) const {
  return "block_" + std::to_string(block_id) + ".chunks";
}

Status TsdbEngine::WriteBlock(
    const std::vector<std::pair<uint64_t, std::vector<std::pair<int64_t, std::string>>>>&
        series_chunks,
    BlockMeta* meta) {
  meta->block_id = next_block_id_++;
  meta->min_ts = INT64_MAX;
  meta->max_ts = INT64_MIN;

  std::string chunk_blob;
  std::string index_blob;
  uint64_t ord = 0;
  for (const auto& [id, chunks] : series_chunks) {
    const HeadSeries& series = series_.at(id);
    meta->series_labels.push_back(series.labels);
    meta->series_ids.push_back(id);
    for (const auto& l : series.labels) {
      index::PostingsInsert(&meta->postings[l.Joined()], ord);
    }
    // Serialized index entry: labels + chunk refs.
    PutVarint64(&index_blob, id);
    PutVarint32(&index_blob, static_cast<uint32_t>(series.labels.size()));
    for (const auto& l : series.labels) {
      PutLengthPrefixedSlice(&index_blob, l.name);
      PutLengthPrefixedSlice(&index_blob, l.value);
    }
    PutVarint32(&index_blob, static_cast<uint32_t>(chunks.size()));

    for (const auto& [start_ts, payload] : chunks) {
      // Decode bounds for the chunk ref.
      uint64_t seq = 0;
      std::vector<compress::Sample> samples;
      TU_RETURN_IF_ERROR(
          compress::DecodeSeriesChunk(payload, &seq, &samples));
      ChunkRef ref;
      ref.series_ord = ord;
      ref.min_ts = samples.empty() ? start_ts : samples.front().timestamp;
      ref.max_ts = samples.empty() ? start_ts : samples.back().timestamp;
      ref.length = static_cast<uint32_t>(payload.size());
      meta->min_ts = std::min(meta->min_ts, ref.min_ts);
      meta->max_ts = std::max(meta->max_ts, ref.max_ts);
      if (options_.use_leveldb_samples) {
        // tsdb-LDB: chunk payloads go into the leveled LSM (same §3.3 key
        // format as TimeUnion).
        ref.offset = static_cast<uint64_t>(ref.min_ts);
        TU_RETURN_IF_ERROR(sample_lsm_->Put(
            lsm::MakeChunkKey(id, ref.min_ts),
            lsm::MakeChunkValue(lsm::ChunkType::kSeries, payload)));
      } else {
        ref.offset = chunk_blob.size();
        chunk_blob.append(payload);
      }
      PutVarint64(&index_blob, ref.offset);
      PutVarint32(&index_blob, ref.length);
      meta->chunks.push_back(ref);
    }
    ++ord;
  }
  if (meta->min_ts == INT64_MAX) {
    meta->min_ts = meta->max_ts = 0;
  }

  // Persist: chunk blob (unless in the LSM) + index blob.
  const std::string index_name =
      "block_" + std::to_string(meta->block_id) + ".index";
  if (!options_.use_leveldb_samples && !chunk_blob.empty()) {
    if (options_.blocks_on_slow) {
      TU_RETURN_IF_ERROR(env_->slow().PutObject(ChunksName(meta->block_id),
                                                chunk_blob));
    } else {
      TU_RETURN_IF_ERROR(env_->fast().WriteStringToFile(
          ChunksName(meta->block_id), chunk_blob));
    }
  }
  if (options_.blocks_on_slow) {
    TU_RETURN_IF_ERROR(env_->slow().PutObject(index_name, index_blob));
  } else {
    TU_RETURN_IF_ERROR(env_->fast().WriteStringToFile(index_name, index_blob));
  }
  meta->chunks_bytes = chunk_blob.size();
  meta->index_bytes = index_blob.size();
  persisted_index_bytes_ += index_blob.size();
  persisted_data_bytes_ += chunk_blob.size();
  stats_.bytes_written.fetch_add(chunk_blob.size() + index_blob.size(),
                                 std::memory_order_relaxed);
  TrackBlockMeta(meta);
  return Status::OK();
}

void TsdbEngine::TrackBlockMeta(BlockMeta* meta) {
  // Block metadata pinned in memory: symbols (deduplicated per block, as
  // in the Prometheus index format), per-series symbol references,
  // postings and chunk refs.
  int64_t bytes = 0;
  std::set<std::string_view> symbols;
  for (const auto& labels : meta->series_labels) {
    for (const auto& l : labels) {
      symbols.insert(l.name);
      symbols.insert(l.value);
      bytes += 16;  // two symbol references per tag pair
    }
  }
  for (std::string_view s : symbols) {
    bytes += static_cast<int64_t>(s.size()) + 24;
  }
  for (const auto& [key, postings] : meta->postings) {
    bytes += static_cast<int64_t>(key.size()) + kHashNodeOverhead +
             static_cast<int64_t>(postings.capacity() * sizeof(uint64_t));
  }
  bytes += static_cast<int64_t>(meta->chunks.size() * sizeof(ChunkRef));
  meta->tracked_bytes = bytes;
  MemoryTracker::Global().Add(MemCategory::kBlockMeta, bytes);
}

Status TsdbEngine::CutBlockLocked() {
  std::vector<std::pair<uint64_t, std::vector<std::pair<int64_t, std::string>>>>
      series_chunks;
  for (auto& [id, series] : series_) {
    TU_RETURN_IF_ERROR(CloseOpenChunk(&series));
    if (series.closed.empty()) continue;
    std::vector<std::pair<int64_t, std::string>> chunks;
    for (size_t i = 0; i < series.closed.size(); ++i) {
      chunks.emplace_back(series.closed_start[i], std::move(series.closed[i]));
    }
    // Head chunk memory released on flush.
    int64_t released = 0;
    for (const auto& [ts, payload] : chunks) {
      released += static_cast<int64_t>(payload.size());
    }
    head_samples_bytes_ -= released;
    MemoryTracker::Global().Sub(MemCategory::kSamples, released);
    series.closed.clear();
    series.closed_start.clear();
    series_chunks.emplace_back(id, std::move(chunks));
  }
  if (series_chunks.empty()) return Status::OK();
  std::sort(series_chunks.begin(), series_chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  BlockMeta meta;
  TU_RETURN_IF_ERROR(WriteBlock(series_chunks, &meta));
  blocks_.push_back(std::move(meta));
  stats_.blocks_cut.fetch_add(1, std::memory_order_relaxed);
  return MaybeCompactLocked();
}

Status TsdbEngine::MaybeCompactLocked() {
  // Merge runs of `compact_block_count` uncompacted adjacent blocks.
  if (options_.compact_block_count < 2) return Status::OK();
  while (blocks_.size() >= static_cast<size_t>(2 * options_.compact_block_count)) {
    TU_RETURN_IF_ERROR(
        CompactBlocksLocked(0, options_.compact_block_count));
  }
  return Status::OK();
}

Status TsdbEngine::CompactBlocksLocked(size_t first, size_t count) {
  const uint64_t start_us = NowUs();

  // Gather per-series chunks across the input blocks (read = Get traffic).
  std::map<uint64_t, std::vector<std::pair<int64_t, std::string>>> merged;
  for (size_t b = first; b < first + count; ++b) {
    BlockMeta& meta = blocks_[b];
    for (const ChunkRef& ref : meta.chunks) {
      std::string payload;
      TU_RETURN_IF_ERROR(ReadChunk(meta, ref, &payload));
      merged[meta.series_ids[ref.series_ord]].emplace_back(ref.min_ts,
                                                           std::move(payload));
    }
  }

  std::vector<std::pair<uint64_t, std::vector<std::pair<int64_t, std::string>>>>
      series_chunks;
  for (auto& [id, chunks] : merged) {
    std::sort(chunks.begin(), chunks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    series_chunks.emplace_back(id, std::move(chunks));
  }

  BlockMeta meta;
  TU_RETURN_IF_ERROR(WriteBlock(series_chunks, &meta));

  // Delete the inputs.
  for (size_t b = first; b < first + count; ++b) {
    BlockMeta& old = blocks_[b];
    MemoryTracker::Global().Sub(MemCategory::kBlockMeta, old.tracked_bytes);
    const std::string index_name =
        "block_" + std::to_string(old.block_id) + ".index";
    if (options_.blocks_on_slow) {
      env_->slow().DeleteObject(ChunksName(old.block_id));
      env_->slow().DeleteObject(index_name);
    } else {
      env_->fast().DeleteFile(ChunksName(old.block_id));
      env_->fast().DeleteFile(index_name);
    }
  }
  blocks_.erase(blocks_.begin() + first, blocks_.begin() + first + count);
  blocks_.insert(blocks_.begin() + first, std::move(meta));

  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  stats_.compaction_us.fetch_add(NowUs() - start_us,
                                 std::memory_order_relaxed);
  return Status::OK();
}

Status TsdbEngine::ReadChunk(const BlockMeta& meta, const ChunkRef& ref,
                             std::string* out) {
  if (options_.use_leveldb_samples) {
    // Locate the chunk in the sample LSM by (series id, start ts).
    const uint64_t id = meta.series_ids[ref.series_ord];
    std::unique_ptr<lsm::Iterator> it;
    TU_RETURN_IF_ERROR(sample_lsm_->NewIteratorForId(
        id, static_cast<int64_t>(ref.offset), ref.max_ts, &it));
    const std::string target =
        lsm::MakeChunkKey(id, static_cast<int64_t>(ref.offset));
    for (it->Seek(target); it->Valid(); it->Next()) {
      const Slice user_key = lsm::InternalKeyUserKey(it->key());
      if (lsm::ChunkKeyId(user_key) != id) break;
      if (lsm::ChunkKeyTimestamp(user_key) !=
          static_cast<int64_t>(ref.offset)) {
        break;
      }
      *out = lsm::ChunkValuePayload(it->value()).ToString();
      return Status::OK();
    }
    return Status::NotFound("chunk not in sample lsm");
  }

  const std::string cache_key = "b" + std::to_string(meta.block_id) + ":" +
                                std::to_string(ref.offset);
  if (auto cached = segment_cache_->Lookup(cache_key)) {
    *out = *cached;
    return Status::OK();
  }
  if (options_.blocks_on_slow) {
    TU_RETURN_IF_ERROR(env_->slow().GetRange(ChunksName(meta.block_id),
                                             ref.offset, ref.length, out));
  } else {
    std::unique_ptr<cloud::RandomAccessFile> file;
    TU_RETURN_IF_ERROR(
        env_->fast().NewRandomAccessFile(ChunksName(meta.block_id), &file));
    Slice result;
    TU_RETURN_IF_ERROR(file->Read(ref.offset, ref.length, &result, out));
    out->resize(result.size());
  }
  segment_cache_->Insert(cache_key, std::make_shared<std::string>(*out),
                         out->size());
  return Status::OK();
}

Status TsdbEngine::Query(const std::vector<index::TagMatcher>& matchers,
                         int64_t t0, int64_t t1,
                         std::vector<TsdbSeriesResult>* out) {
  out->clear();
  std::lock_guard<std::mutex> lock(mu_);
  // Rows by labels key: chunks arrive in no time order, so each series is
  // sorted, then split into the result's columns, at the end.
  struct Rows {
    index::Labels labels;
    std::vector<compress::Sample> samples;
  };
  std::map<std::string, Rows> results;

  auto matches = [&](const index::Labels& labels) {
    for (const auto& m : matchers) {
      bool found = false;
      for (const auto& l : labels) {
        if (l.name != m.name) continue;
        if (m.type == index::TagMatcher::Type::kEqual) {
          found = (l.value == m.value);
        } else {
          try {
            found = std::regex_match(l.value, std::regex(m.value));
          } catch (const std::regex_error&) {
            found = false;
          }
        }
        break;
      }
      if (!found) return false;
    }
    return true;
  };

  // Head: resolve via the nested hash index for the first equality
  // matcher, then verify the rest.
  {
    std::vector<uint64_t> candidates;
    bool narrowed = false;
    for (const auto& m : matchers) {
      if (m.type != index::TagMatcher::Type::kEqual) continue;
      auto by_value = head_index_.find(m.name);
      if (by_value == head_index_.end()) break;
      auto postings = by_value->second.find(m.value);
      if (postings == by_value->second.end()) {
        candidates.clear();
        narrowed = true;
        break;
      }
      candidates = postings->second;
      narrowed = true;
      break;
    }
    if (!narrowed) {
      for (const auto& [id, series] : series_) candidates.push_back(id);
    }
    for (uint64_t id : candidates) {
      const HeadSeries& series = series_.at(id);
      if (!matches(series.labels)) continue;
      Rows result;
      result.labels = series.labels;
      for (const auto& payload : series.closed) {
        uint64_t seq = 0;
        std::vector<compress::Sample> samples;
        TU_RETURN_IF_ERROR(
            compress::DecodeSeriesChunk(payload, &seq, &samples));
        for (const auto& s : samples) {
          if (s.timestamp >= t0 && s.timestamp <= t1) {
            result.samples.push_back(s);
          }
        }
      }
      for (const auto& s : series.buffer) {
        if (s.timestamp >= t0 && s.timestamp <= t1) result.samples.push_back(s);
      }
      if (!result.samples.empty()) {
        results[index::LabelsKey(series.labels)] = std::move(result);
      }
    }
  }

  // Persistent blocks. Block metadata must be resident to evaluate the
  // query: if it fell out of the segment cache, the whole index object is
  // fetched again from storage (the §4.3 long-range penalty: "tsdb needs
  // to fetch those large indexes in old time-partitions from S3").
  for (BlockMeta& meta : blocks_) {
    if (meta.min_ts > t1 || meta.max_ts < t0) continue;
    const std::string idx_key = "idx:" + std::to_string(meta.block_id);
    if (!segment_cache_->Lookup(idx_key)) {
      const std::string index_name =
          "block_" + std::to_string(meta.block_id) + ".index";
      std::string blob;
      if (options_.blocks_on_slow) {
        TU_RETURN_IF_ERROR(env_->slow().GetObject(index_name, &blob));
      } else {
        TU_RETURN_IF_ERROR(env_->fast().ReadFileToString(index_name, &blob));
      }
      segment_cache_->Insert(idx_key, std::make_shared<std::string>(),
                             blob.size());
    }
    // Narrow by the first equality matcher through the block postings.
    std::vector<uint64_t> ords;
    bool narrowed = false;
    for (const auto& m : matchers) {
      if (m.type != index::TagMatcher::Type::kEqual) continue;
      auto it = meta.postings.find(m.name + index::kTagDelim + m.value);
      if (it == meta.postings.end()) {
        ords.clear();
      } else {
        ords = it->second;
      }
      narrowed = true;
      break;
    }
    if (!narrowed) {
      ords.resize(meta.series_labels.size());
      for (size_t i = 0; i < ords.size(); ++i) ords[i] = i;
    }
    for (uint64_t ord : ords) {
      const index::Labels& labels = meta.series_labels[ord];
      if (!matches(labels)) continue;
      const std::string key = index::LabelsKey(labels);
      Rows& result = results[key];
      if (result.labels.empty()) result.labels = labels;
      for (const ChunkRef& ref : meta.chunks) {
        if (ref.series_ord != ord || ref.min_ts > t1 || ref.max_ts < t0) {
          continue;
        }
        std::string payload;
        TU_RETURN_IF_ERROR(ReadChunk(meta, ref, &payload));
        uint64_t seq = 0;
        std::vector<compress::Sample> samples;
        TU_RETURN_IF_ERROR(
            compress::DecodeSeriesChunk(payload, &seq, &samples));
        for (const auto& s : samples) {
          if (s.timestamp >= t0 && s.timestamp <= t1) {
            result.samples.push_back(s);
          }
        }
      }
      if (result.samples.empty()) results.erase(key);
    }
  }

  for (auto& [key, rows] : results) {
    std::sort(rows.samples.begin(), rows.samples.end(),
              [](const compress::Sample& a, const compress::Sample& b) {
                return a.timestamp < b.timestamp;
              });
    TsdbSeriesResult result;
    result.labels = std::move(rows.labels);
    result.timestamps.reserve(rows.samples.size());
    result.values.reserve(rows.samples.size());
    for (const compress::Sample& s : rows.samples) {
      result.timestamps.push_back(s.timestamp);
      result.values.push_back(s.value);
    }
    out->push_back(std::move(result));
  }
  return Status::OK();
}

Status TsdbEngine::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  TU_RETURN_IF_ERROR(CutBlockLocked());
  if (sample_lsm_) {
    TU_RETURN_IF_ERROR(sample_lsm_->FlushAll());
  }
  return Status::OK();
}

}  // namespace tu::baseline
