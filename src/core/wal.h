// Write-ahead log with the paper's §3.3 logging scheme: LevelDB's own log
// is disabled; instead every inserted sample is logged with its series/
// group sequence ID, and when chunks reach level 0 a flush-mark record
// declares every earlier record of their ids obsolete.
//
// The log is a directory of files on the fast tier:
//   REGISTRY      append-only registration records; replayed before the
//                 segments and synced before them.
//   <n>.seg       fixed-size segments of sample and mark records, numbered
//                 in write order; the highest number is the active one.
// A segment whose every id is covered by a flush mark is unlinked, oldest
// first, so only a prefix of the log is ever deleted. There is no rewrite.
//
// Record framing: [fixed32 masked-crc][fixed32 len][payload]. Payload:
//   type byte, then per type:
//     kRegisterSeries:  varint id | labels                 (REGISTRY)
//     kRegisterGroup:   varint id | group labels           (REGISTRY)
//     kRegisterMember:  varint gid | varint slot | labels  (REGISTRY)
//     kSampleRun:       varint id | varint base_seq | varint n |
//                       varint ts_len | delta-of-delta timestamp bits |
//                       varint val_len | Gorilla XOR value bits
//                       (sample k carries seq base_seq + k; everything
//                       after the id is a compress/ SeriesChunk)
//     kGroupRow:        varint gid | varint seq | fixed64 ts |
//                       varint n | n*(varint slot, fixed64 value)
//     kFlushMarks:      varint n | n*(varint id, varint seq)
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/block_store.h"
#include "index/labels.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace tu::core {

enum class WalRecordType : char {
  kRegisterSeries = 1,
  kRegisterGroup = 2,
  kRegisterMember = 3,
  kSampleRun = 4,
  kGroupRow = 5,
  kFlushMarks = 6,
};

/// (id, seq) pairs: the payload of a flush-mark record, and the set a
/// memtable flush reports through the LSM's on_flush hook.
using SeqMarks = std::vector<std::pair<uint64_t, uint64_t>>;

/// One decoded record. The write path never builds these for samples
/// (WalBatch encodes straight from the batch columns); replay and
/// registration logging do.
struct WalRecord {
  WalRecordType type = WalRecordType::kSampleRun;
  uint64_t id = 0;
  uint64_t seq = 0;                  // kSampleRun: first sample; kGroupRow
  int64_t ts = 0;                    // kGroupRow
  uint32_t slot = 0;                 // kRegisterMember
  index::Labels labels;              // register records
  std::vector<int64_t> timestamps;   // kSampleRun
  std::vector<double> values;        // kSampleRun / kGroupRow
  std::vector<uint32_t> slots;       // kGroupRow (parallel to values)
  SeqMarks marks;                    // kFlushMarks
};

/// Encodes a registration or flush-mark record into `out`, unframed. Data
/// records (kSampleRun, kGroupRow) are encoded by WalBatch.
void EncodeWalRecord(const WalRecord& record, std::string* out);
Status DecodeWalRecord(const Slice& payload, WalRecord* record);

/// One Write call's log records, encoded and framed by the writer thread
/// before it takes the WAL mutex. Reused across calls (Clear keeps the
/// buffers' capacity).
class WalBatch {
 public:
  void Clear();
  /// One record for `n` samples of series `id` whose seqs are
  /// base_seq, base_seq + 1, ...: the caller splits a ref-run wherever the
  /// head's seq is not contiguous.
  void AddSampleRun(uint64_t id, uint64_t base_seq, const int64_t* ts,
                    const double* values, size_t n);
  void AddGroupRow(uint64_t id, uint64_t seq, int64_t ts,
                   const std::vector<uint32_t>& slots,
                   const std::vector<double>& values);

  bool empty() const { return data_.empty(); }
  /// Samples plus group rows logged (the wal.appends unit).
  uint64_t entries() const { return entries_; }
  const std::string& data() const { return data_; }
  /// (id, newest seq) of every record, for the segment's coverage table.
  const SeqMarks& id_seqs() const { return id_seqs_; }

 private:
  size_t BeginRecord(WalRecordType type);
  void EndRecord(size_t start);

  std::string data_;
  SeqMarks id_seqs_;
  uint64_t entries_ = 0;
  std::string ts_bits_;   // codec scratch
  std::string val_bits_;
};

/// What a WAL replay salvaged and what it had to drop. A clean segment ends
/// exactly at a record boundary; a crash mid-append leaves a truncated
/// tail (expected, tolerated); a CRC mismatch before the tail means the
/// log body itself is damaged and everything after it — the rest of that
/// segment and every later segment — is dropped.
struct WalReplayStats {
  uint64_t records_applied = 0;
  /// Whole records past the corruption point that framed+checksummed
  /// correctly but were not applied (replay cannot trust their order).
  uint64_t records_dropped = 0;
  /// Bytes from the first bad frame to end of log.
  uint64_t bytes_dropped = 0;
  /// File holding the first bad frame, and the frame's offset within it
  /// (kNoCorruption when clean).
  std::string corruption_file;
  uint64_t corruption_offset = kNoCorruption;
  /// Every file ended exactly on a record boundary.
  bool clean_eof = false;
  /// Some file's final frame was cut short (crash mid-append) — benign.
  bool torn_tail = false;

  static constexpr uint64_t kNoCorruption = ~0ull;

  bool Clean() const { return corruption_offset == kNoCorruption; }
  std::string ToString() const;
};

/// A log read back for recovery: REGISTRY and every segment loaded whole,
/// indexed (newest flush mark and newest logged seq per id) up to the
/// first damaged frame.
class WalLog {
 public:
  /// Loads the log under `dir`. Fails with InvalidArgument when a legacy
  /// single-file "WAL" sits at the store root (its records would otherwise
  /// be silently ignored), and with Corruption when REGISTRY is damaged
  /// before its tail (series identities would be lost). A torn tail in
  /// any file, and damage inside a segment, are tolerated and reported in
  /// stats().
  static Status Load(cloud::BlockStore* store, const std::string& dir,
                     WalLog* out);

  const std::vector<WalRecord>& registrations() const {
    return registrations_;
  }
  /// Visits every sample, group-row and mark record in log order, up to
  /// the first damaged frame.
  Status ForEachRecord(const std::function<Status(const WalRecord&)>& fn) const;
  /// Newest flush mark of `id`, 0 when none: its records at or below this
  /// seq are already in the LSM.
  uint64_t mark(uint64_t id) const;
  /// max(mark, newest logged seq) of `id`: where its head's seq resumes,
  /// so new records and marks never collide with logged ones.
  uint64_t seq_floor(uint64_t id) const;
  const WalReplayStats& stats() const { return stats_; }

 private:
  friend class WalWriter;
  struct SegmentData {
    uint64_t number = 0;
    std::string name;
    std::string bytes;
    size_t valid_bytes = 0;  // prefix replay may trust
  };

  std::vector<WalRecord> registrations_;
  uint64_t registry_valid_bytes_ = 0;
  uint64_t registry_file_bytes_ = 0;
  std::vector<SegmentData> segments_;
  std::vector<uint64_t> marks_;   // by id
  std::vector<uint64_t> floors_;  // by id
  WalReplayStats stats_;
};

/// The WAL writer: the one serialized append point of the write path.
/// Every method is thread-safe. Appends of data, marks and registrations
/// take one mutex for a single file write; fsyncs of sealed segments run
/// outside it (see Append).
class WalWriter {
 public:
  /// Full segment size. A batch that would overflow the active segment
  /// seals it and starts the next one.
  static constexpr uint64_t kSegmentBytes = 4 << 20;

  /// `metrics` (nullable) receives the wal.segments_live / wal.live_bytes
  /// gauges, the wal.segments_deleted counter and the wal.seal_sync_us
  /// histogram.
  WalWriter(cloud::BlockStore* store, std::string dir,
            uint64_t segment_bytes = kSegmentBytes,
            obs::MetricsRegistry* metrics = nullptr);

  /// Takes over a loaded log (an empty one for a fresh directory): keeps
  /// appending to REGISTRY (after cutting off a torn tail) and opens a new
  /// active segment numbered after the log's segments. Those stay on disk
  /// until DropReplayedSegments().
  Status Open(const WalLog& log);

  Status AppendRegistration(const WalRecord& record);
  /// Appends the batch as one file write. When it does not fit the active
  /// segment, the segment is sealed and a new one started under the mutex;
  /// this caller then fdatasyncs the sealed segment after releasing it, so
  /// other writers keep appending meanwhile.
  Status Append(const WalBatch& batch);
  /// Appends one mark record, then unlinks the oldest sealed segments whose
  /// every id is covered — the whole log, active segment included, once
  /// nothing in it is still needed.
  Status AppendMarks(const SeqMarks& marks);
  /// Makes everything appended so far durable: REGISTRY first, then any
  /// sealed segment still unsynced, then the active segment.
  Status Sync();

  /// First Append/Sync failure, latched. A poisoned writer fails every
  /// Append/Sync fast until Rotate() rebuilds the damaged files — after a
  /// failed fsync the kernel may have dropped the dirty pages while
  /// marking them clean, so neither re-syncing the fd nor trusting a
  /// read-back of the unsynced region proves anything (the fsyncgate
  /// lesson).
  Status poison() const;

  /// Recovery from a poisoned writer: rebuilds each file that is not known
  /// durable — normally just the active segment, plus REGISTRY or a sealed
  /// segment whose own write or sync failed — from its synced prefix on
  /// disk plus the in-memory copy of everything appended since, syncs it,
  /// renames it into place, and starts a fresh active segment. Clears the
  /// poison on success.
  Status Rotate();

  /// Unlinks the segments Open() inherited, once recovery has re-logged
  /// their live records into the new segments and synced them.
  Status DropReplayedSegments();

  /// The ids pinning the oldest sealed segment — those with records in it
  /// that no mark covers yet — each with its newest seq there, and that
  /// segment's number in *segment. Empty when only the active segment is
  /// live.
  SeqMarks PinningIds(uint64_t* segment) const;

  /// Bytes in live segments (the size the live-log budget bounds).
  uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct LogFile {
    std::string name;
    std::shared_ptr<cloud::WritableFile> file;  // null once closed
    uint64_t size = 0;    // bytes appended OK
    uint64_t synced = 0;  // durable prefix
    /// Bytes in [synced, size): Rotate's replay source.
    std::string pending;
    /// An append or sync on `file` failed: its on-disk tail is untrusted.
    bool failed = false;
  };
  struct Segment : LogFile {
    uint64_t number = 0;
    /// Newest seq logged in this segment, by id (0 = none).
    std::vector<uint64_t> max_seq;
  };

  Status AppendLocked(LogFile* f, const Slice& framed);
  Status SyncLocked(LogFile* f);
  Status StartSegmentLocked();
  /// fdatasync of a segment sealed by Append, run by the sealing writer
  /// without the mutex.
  Status SyncSealed(uint64_t number,
                    const std::shared_ptr<cloud::WritableFile>& file);
  bool CoveredLocked(const Segment& seg) const;
  void DeleteCoveredLocked();
  Status RebuildLocked(LogFile* f);
  Segment* FindLocked(uint64_t number);
  void PublishLocked();

  cloud::BlockStore* store_;
  const std::string dir_;
  const uint64_t segment_bytes_;
  /// Serializes fsyncs of sealed segments and Rotate; acquired before mu_.
  std::mutex seal_mu_;
  mutable std::mutex mu_;
  Status poison_;             // guarded by mu_; see poison()
  LogFile registry_;          // guarded by mu_
  std::deque<Segment> segments_;  // guarded by mu_; back() is active
  std::vector<uint64_t> marks_;   // guarded by mu_; newest mark by id
  std::vector<std::string> replayed_;  // guarded by mu_
  uint64_t next_number_ = 1;      // guarded by mu_
  std::atomic<uint64_t> live_bytes_{0};

  obs::Gauge* g_segments_live_ = nullptr;
  obs::Gauge* g_live_bytes_ = nullptr;
  obs::Counter* c_segments_deleted_ = nullptr;
  obs::Histogram* h_seal_sync_ = nullptr;
};

}  // namespace tu::core
