// The four benchmark workloads. Each builds its inputs from the seed
// before timing, measures for RunOptions::seconds, checks every answer it
// gets and fills a Report: end-to-end metrics from an untraced
// measurement, per-layer metrics from a traced one (RunOptions::trace).
#pragma once

#include "harness.h"

namespace perfbench {

/// ingest_durable (remote = false) and remote_ingest (remote = true).
Report RunIngest(const RunOptions& options, bool remote);
/// recent_under_ingest.
Report RunRecent(const RunOptions& options);
/// cold_history.
Report RunCold(const RunOptions& options);

}  // namespace perfbench
