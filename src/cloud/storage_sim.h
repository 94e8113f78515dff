// Cloud storage simulation: local-disk-backed block and object tiers with
// configurable latency/bandwidth models and request/byte counters.
//
// Substitutes AWS EBS / AWS S3 (see DESIGN.md). The paper's cost analysis
// models EBS as a bandwidth cost (Eq. 3/5: bytes / bandwidth) and S3 as a
// per-Get-request cost (Eq. 4/6: one Get per SSTable data block), so the
// simulation charges exactly those terms and additionally reproduces the
// first-read penalty observed in Fig. 1c.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cloud/circuit_breaker.h"
#include "cloud/retry_policy.h"

namespace tu::cloud {

class FaultInjector;

/// Latency model of one storage tier. Latencies are charged per operation:
///   latency_us = per_op_latency_us + bytes / bandwidth_bytes_per_us
/// optionally multiplied by first_read_penalty on the first read of an
/// object. With `real_sleep`, the calling thread actually sleeps for the
/// charged latency (scaled by `sleep_scale`), so foreground/background
/// interference is physically reproduced; simulated time is accounted
/// either way.
struct TierSimOptions {
  double per_op_latency_us = 0.0;
  double bandwidth_mb_per_s = 1e9;  // effectively unlimited by default
  double first_read_penalty = 1.0;  // multiplier on the first read of an object
  bool real_sleep = false;
  double sleep_scale = 1.0;  // fraction of charged latency actually slept

  /// Optional scripted failure model consulted before each operation
  /// (see fault_injector.h). Null = every op succeeds.
  std::shared_ptr<FaultInjector> fault;

  /// Backoff policy the engine's call sites apply to this tier's
  /// retryable (transient) errors.
  RetryPolicy retry;

  /// Circuit breaker guarding every operation against this tier (only the
  /// object store consults it; the fast tier is assumed local and
  /// reliable). Disabled by default for unit-test tiers; S3Defaults()
  /// enables it.
  CircuitBreakerOptions breaker;

  /// AWS EBS gp2-like defaults, calibrated against Fig. 1: ~0.1 ms/op,
  /// ~250 MB/s, first read 1.8x slower.
  static TierSimOptions EbsDefaults();

  /// AWS S3-like defaults: ~2 ms per request (scaled-down from ~20 ms wall
  /// clock to keep benches fast; ratios to EBS preserved), ~50 MB/s,
  /// first read 1.71x slower.
  static TierSimOptions S3Defaults();

  /// No latency, no sleep: for unit tests.
  static TierSimOptions Instant() { return TierSimOptions{}; }

  double ChargeUs(uint64_t bytes, bool first_read) const;
};

/// Per-tier operation counters: the measurements behind Fig. 4b, the
/// compaction cost analysis (Eqs. 7-10), and the traffic reports.
struct TierCounters {
  std::atomic<uint64_t> get_ops{0};
  std::atomic<uint64_t> put_ops{0};
  std::atomic<uint64_t> delete_ops{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  /// Total charged latency in microseconds (simulated time).
  std::atomic<uint64_t> charged_us{0};
  /// Failures the fault injector produced against this tier.
  std::atomic<uint64_t> faults_injected{0};
  /// Operations re-issued by RunWithRetry after a transient error.
  std::atomic<uint64_t> retries{0};
  /// Retry loops that exhausted their attempt/time budget.
  std::atomic<uint64_t> retry_give_ups{0};
  /// Calls rejected up front because the circuit breaker was open.
  std::atomic<uint64_t> breaker_rejections{0};
  /// Closed/half-open -> open transitions of the circuit breaker.
  std::atomic<uint64_t> breaker_opens{0};

  void Reset();
};

/// Charges `us` of latency against `counters`, sleeping if the model says so.
void ChargeLatency(const TierSimOptions& opts, TierCounters* counters,
                   double us);

}  // namespace tu::cloud
