#include "cloud/tiered_env.h"

#include "util/mmap_file.h"

namespace tu::cloud {

TieredEnv::TieredEnv(const std::string& workspace, TieredEnvOptions options)
    : workspace_(workspace), mmap_dir_(workspace + "/mmap") {
  EnsureDir(workspace_);
  EnsureDir(mmap_dir_);
  fast_ = std::make_unique<BlockStore>(workspace + "/fast", options.fast_sim);
  slow_ = std::make_unique<ObjectStore>(workspace + "/slow", options.slow_sim);
}

}  // namespace tu::cloud
