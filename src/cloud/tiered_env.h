// TieredEnv: bundles the fast tier (BlockStore / EBS) and slow tier
// (ObjectStore / S3) under one workspace directory, the hybrid cloud
// storage environment every engine in this repository runs against.
#pragma once

#include <memory>
#include <string>

#include "cloud/block_store.h"
#include "cloud/object_store.h"

namespace tu::cloud {

struct TieredEnvOptions {
  TierSimOptions fast_sim = TierSimOptions::EbsDefaults();
  TierSimOptions slow_sim = TierSimOptions::S3Defaults();

  /// Zero-latency tiers for unit tests.
  static TieredEnvOptions Instant() {
    TieredEnvOptions o;
    o.fast_sim = TierSimOptions::Instant();
    o.slow_sim = TierSimOptions::Instant();
    return o;
  }
};

class TieredEnv {
 public:
  /// Creates `<workspace>/fast` (block tier), `<workspace>/slow` (object
  /// tier) and `<workspace>/mmap` (memory-mapped working files).
  TieredEnv(const std::string& workspace, TieredEnvOptions options);

  BlockStore& fast() { return *fast_; }
  ObjectStore& slow() { return *slow_; }
  const BlockStore& fast() const { return *fast_; }
  const ObjectStore& slow() const { return *slow_; }

  /// Directory for mmap'ed in-memory structures (index, open chunks).
  const std::string& mmap_dir() const { return mmap_dir_; }
  const std::string& workspace() const { return workspace_; }

 private:
  std::string workspace_;
  std::string mmap_dir_;
  std::unique_ptr<BlockStore> fast_;
  std::unique_ptr<ObjectStore> slow_;
};

}  // namespace tu::cloud
