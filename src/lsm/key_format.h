// Key format of the time-partitioned LSM-tree (§3.3, Fig. 10 top):
//   [ 64-bit series/group ID | 64-bit chunk starting timestamp ]
// both big-endian, so bytewise SSTable order groups chunks of the same
// series/group together and sorts them by starting timestamp — the data
// locality that accelerates scans, and the prefix compression win.
//
// Values carry a one-byte chunk type so compactions can merge
// series/group chunks without consulting the head registry.
#pragma once

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"

namespace tu::lsm {

constexpr size_t kChunkKeySize = 16;

/// Chunk value type tag (first byte of every LSM value).
enum class ChunkType : char {
  kSeries = 1,
  kGroup = 2,
  kRollup = 3,
};

inline std::string MakeChunkKey(uint64_t id, int64_t start_ts) {
  std::string key;
  key.reserve(kChunkKeySize);
  PutBigEndian64(&key, id);
  PutOrderedInt64(&key, start_ts);
  return key;
}

/// Where a read of `id` from `t0` seeks: a chunk can start up to
/// `slack_ms` (the maximum chunk overhang) before samples it holds, so the
/// seek lands that far left of t0.
inline std::string ChunkSeekKey(uint64_t id, int64_t t0, int64_t slack_ms) {
  return MakeChunkKey(id, t0 < INT64_MIN + slack_ms ? INT64_MIN
                                                    : t0 - slack_ms);
}

inline bool ParseChunkKey(const Slice& key, uint64_t* id, int64_t* start_ts) {
  if (key.size() != kChunkKeySize) return false;
  *id = DecodeBigEndian64(key.data());
  *start_ts = DecodeOrderedInt64(key.data() + 8);
  return true;
}

inline uint64_t ChunkKeyId(const Slice& key) {
  return DecodeBigEndian64(key.data());
}

inline int64_t ChunkKeyTimestamp(const Slice& key) {
  return DecodeOrderedInt64(key.data() + 8);
}

/// Prepends the chunk type tag to a serialized chunk payload.
inline std::string MakeChunkValue(ChunkType type, const std::string& payload) {
  std::string value;
  value.reserve(payload.size() + 1);
  value.push_back(static_cast<char>(type));
  value.append(payload);
  return value;
}

inline ChunkType ChunkValueType(const Slice& value) {
  return static_cast<ChunkType>(value[0]);
}

inline Slice ChunkValuePayload(const Slice& value) {
  return Slice(value.data() + 1, value.size() - 1);
}

}  // namespace tu::lsm
