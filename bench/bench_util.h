// Shared helpers for the benchmark harness binaries.
#pragma once

#include <cstdint>
#include <string>

#include "core/timeunion_db.h"
#include "util/status.h"

namespace tu::bench {

/// TimeUnionDB::Write with the rows' outcome folded in: returns the first
/// failure of the call or of any row (Write itself returns OK when a row
/// fails). `result` receives the resolved refs of the batch's labeled rows.
Status WriteRows(core::TimeUnionDB* db, const core::WriteBatch& batch,
                 core::WriteResult* result);

/// Creates a fresh scratch workspace under /tmp for one bench run and
/// returns its path; removed and recreated if it already exists.
std::string FreshWorkspace(const std::string& name);

/// Monotonic wall-clock in microseconds.
uint64_t NowUs();

/// Prints a row of a paper-style table: "label: value unit".
void PrintRow(const std::string& label, double value, const std::string& unit);

/// Prints a section header matching a paper figure/table id.
void PrintHeader(const std::string& experiment, const std::string& title);

/// True when TU_BENCH_SMOKE is set (non-empty, not "0"): benches shrink
/// their workloads to CI-smoke size — same code paths, seconds not minutes.
bool SmokeMode();

/// Value of TU_BENCH_METRICS_SNAPSHOT (empty when unset): path where a
/// bench should write the final TimeUnionDB::Metrics().ToJson() snapshot.
std::string MetricsSnapshotPath();

/// Overwrites `path` with `json` + newline. No-op on empty path; prints a
/// warning to stderr when the file cannot be written.
void WriteSnapshotFile(const std::string& path, const std::string& json);

}  // namespace tu::bench
