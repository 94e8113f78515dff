// BlockStore: the fast cloud tier (AWS EBS substitute). Behaves like a
// locally attached disk — file-granular API with appends and positional
// reads — with the EBS latency/bandwidth model charged per operation.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "cloud/storage_sim.h"
#include "util/slice.h"
#include "util/status.h"

namespace tu::cloud {

class BlockStore;

/// Append-only file handle on the block tier (SSTable/log writing).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
  virtual uint64_t Size() const = 0;
};

/// Positional-read file handle on the block tier (SSTable reading).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to n bytes at `offset`; *result points into *scratch.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      std::string* scratch) const = 0;
  virtual uint64_t Size() const = 0;
};

/// The fast tier. All paths are relative to the store root directory.
class BlockStore {
 public:
  BlockStore(std::string root_dir, TierSimOptions sim);

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* out);
  /// Opens `fname` for appending after its current contents (creating it
  /// when missing) — for logs that outlive one writer.
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* out);
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* out);

  /// Reads a whole file into *out (metadata/manifest loading).
  Status ReadFileToString(const std::string& fname, std::string* out);
  /// Writes `data` as the complete contents of `fname` (atomic via rename).
  Status WriteStringToFile(const std::string& fname, const Slice& data);

  Status DeleteFile(const std::string& fname);
  Status RenameFile(const std::string& src, const std::string& dst);
  Status FileExists(const std::string& fname) const;
  Status GetFileSize(const std::string& fname, uint64_t* size) const;
  Status ListDir(const std::string& dir, std::vector<std::string>* names) const;
  Status CreateDir(const std::string& dir);

  /// Total bytes stored under the root (the "EBS usage" of Figs. 18/19).
  uint64_t TotalBytesUsed() const;

  /// Test hook: silently XOR `xor_mask` into the stored byte at `offset`
  /// (clamped to the file), planting at-rest corruption without going
  /// through the write path. Bypasses counters and the injector.
  Status CorruptFileAtRest(const std::string& fname, uint64_t offset,
                           uint8_t xor_mask = 0x01);

  const TierCounters& counters() const { return counters_; }
  TierCounters& counters() { return counters_; }
  const TierSimOptions& sim() const { return sim_; }
  const std::string& root() const { return root_; }
  /// The scripted failure model for this tier, or null.
  FaultInjector* fault() const { return sim_.fault.get(); }
  /// Records one injected fault against this tier (used by file handles).
  void CountFault() const {
    counters_.faults_injected.fetch_add(1, std::memory_order_relaxed);
  }

  std::string FullPath(const std::string& fname) const {
    return root_ + "/" + fname;
  }

  /// Charges a read of `bytes` against the tier model. `fname` identifies
  /// the object for first-read tracking.
  void ChargeRead(const std::string& fname, uint64_t bytes);
  void ChargeWrite(uint64_t bytes);

 private:
  bool MarkRead(const std::string& fname);

  std::string root_;
  TierSimOptions sim_;
  // Mutable: const probes (Exists/Size/List) still count injected faults.
  mutable TierCounters counters_;

  mutable std::mutex mu_;
  std::unordered_set<std::string> read_before_;
};

}  // namespace tu::cloud
