#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/mmap_file.h"

namespace tu::bench {

Status WriteRows(core::TimeUnionDB* db, const core::WriteBatch& batch,
                 core::WriteResult* result) {
  TU_RETURN_IF_ERROR(db->Write(batch, result));
  return result->first_error;
}

std::string FreshWorkspace(const std::string& name) {
  const std::string path = "/tmp/timeunion_bench/" + name;
  RemoveDirRecursive(path);
  EnsureDir(path);
  return path;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void PrintRow(const std::string& label, double value, const std::string& unit) {
  std::printf("  %-42s %14.3f %s\n", label.c_str(), value, unit.c_str());
}

void PrintHeader(const std::string& experiment, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", experiment.c_str(), title.c_str());
}

bool SmokeMode() {
  const char* v = std::getenv("TU_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::string MetricsSnapshotPath() {
  const char* v = std::getenv("TU_BENCH_METRICS_SNAPSHOT");
  return v != nullptr ? std::string(v) : std::string();
}

void WriteSnapshotFile(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics snapshot to %s\n",
                 path.c_str());
    return;
  }
  out << json << "\n";
}

}  // namespace tu::bench
