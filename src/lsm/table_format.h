// On-disk SSTable format shared by the builder and reader:
//
//   [data block]* [filter block] [index block] [footer]
//
// Each block is stored as: contents | 1-byte block type | 4-byte masked
// CRC32C(contents + type). Blocks are never compressed, so kNone (0) is the
// only valid type; a reader rejects any other type byte as corruption.
// Index entries map the last key of each data block to its BlockHandle.
// The footer (fixed size, at file end) holds the filter and index handles
// plus a magic number. The handles carry no checksum of their own: the
// reader bounds them by the file size before it reads anything.
#pragma once

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace tu::lsm {

constexpr uint64_t kTableMagic = 0x7475736d67726b76ull;  // "tusmgrkv"
constexpr size_t kBlockTrailerSize = 5;                  // type + crc32
constexpr size_t kFooterSize = 48;

/// The block-type byte of the trailer. Only uncompressed blocks exist.
enum class BlockCompression : char {
  kNone = 0,
};

struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;  // contents size, excluding trailer

  void EncodeTo(std::string* dst) const {
    PutVarint64(dst, offset);
    PutVarint64(dst, size);
  }

  bool DecodeFrom(Slice* input) {
    return GetVarint64(input, &offset) && GetVarint64(input, &size);
  }
};

struct Footer {
  BlockHandle filter_handle;
  BlockHandle index_handle;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& input);
};

/// Summary of one SSTable kept in the level manifest: key/ID/time bounds
/// drive partition routing, patch ID-range routing (§3.3) and query
/// pruning.
struct TableMeta {
  uint64_t table_id = 0;     // unique file/object number
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  std::string smallest_key;  // internal keys
  std::string largest_key;
  uint64_t min_series_id = UINT64_MAX;
  uint64_t max_series_id = 0;
  int64_t min_ts = INT64_MAX;
  int64_t max_ts = INT64_MIN;
  /// Whole-file CRC32C (unmasked) computed over every byte the builder
  /// emitted, recorded in the manifest so downloads, fast-tier opens and
  /// the scrub job can verify end-to-end integrity. 0 = unknown (the
  /// verifiers skip the check rather than flag a false corruption).
  uint32_t object_crc32c = 0;
  /// Rollup descriptor: 0 for raw tables; the bucket granularity (ms) for
  /// tables that hold pre-aggregated RollupChunk values. Rollup tables
  /// ride through the same manifest/CRC/scrub machinery as raw tables —
  /// the descriptor is what tells the planner (and the maintenance tick)
  /// how to interpret them.
  int64_t rollup_granularity_ms = 0;

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice* input);
};

/// Manifest envelope shared by the engines:
///
///   magic (fixed32) | payload_len (fixed32) | payload | masked CRC32C
///
/// The explicit length and trailing checksum let recovery distinguish a
/// torn write (file shorter than the envelope promises — the old contents
/// were lost mid-rename) from silent corruption (right length, wrong CRC).
constexpr uint32_t kManifestMagic = 0x744d4e46u;  // "FNMt"
constexpr size_t kManifestEnvelopeBytes = 12;     // magic + len + crc

/// Wraps `payload` in the envelope.
std::string WrapManifest(const std::string& payload);

/// Validates `contents` and points *payload at the wrapped bytes (into
/// `contents`, which must outlive it). Returns Corruption("torn ...") for
/// truncation, Corruption("... checksum mismatch") for a CRC failure.
Status UnwrapManifest(const std::string& contents, Slice* payload);

/// File/object naming shared by the engines.
std::string TableFileName(uint64_t table_id);

/// Inverse of TableFileName: true if `name` is a table file, extracting its
/// id. Used by the open-time orphan sweep to tell tables from other files.
bool ParseTableFileName(const std::string& name, uint64_t* table_id);

}  // namespace tu::lsm
