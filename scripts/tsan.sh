#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer and runs the concurrency-, fault-,
# query-, integrity-, rollup-, server- and compaction-labelled test suites
# (ctest -L "fault|concurrency|query|integrity|rollup|server|compaction").
# Any data race in
# the sharded DB core, the degraded-operation machinery (circuit breaker,
# deferred-upload drainer, admission control), the query pipeline (shared
# readers, block cache counters), the scrub job (racing flushes and
# compactions for the manifest lock) or the continuous-aggregate planner
# (rollup tables racing compaction/maintenance), the network front
# door (epoll loop vs worker pool vs graceful drain) or flush and
# compaction (background flush worker vs readers) fails the run. The
# integrity label also holds the SSTable suite (corrupt footers and block
# types), so its target is built here too: a labelled test this script
# does not build would fail as "Not Run". The
# query label (which holds the concurrent block fetch suite: pool threads
# completing fetch slots while iterators wait, drop them mid-drain, or
# race retention; and the drain-order suite of the shared LSM cursor) then
# runs until it fails, at most ten times, so a race
# that shows up one run in ten still fails the script.
#
# Usage: scripts/tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DTU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  concurrency_test util_test maintenance_test fault_injection_test \
  error_recovery_test wal_test query_pipeline_test batch_drain_test obs_test \
  integrity_test sstable_test rollup_test server_test prefetch_test \
  drain_order_test chunk_merge_test time_lsm_test partition_align_test

# halt_on_error: make the first race fail the test instead of just logging.
# -L takes a regex, so "fault|concurrency|...|compaction" ORs the labels.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "$BUILD_DIR" \
  -L "fault|concurrency|query|integrity|rollup|server|compaction" \
  --output-on-failure
ctest --test-dir "$BUILD_DIR" -L query --repeat until-fail:10 \
  --output-on-failure
