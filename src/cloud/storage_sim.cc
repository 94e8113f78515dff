#include "cloud/storage_sim.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace tu::cloud {

TierSimOptions TierSimOptions::EbsDefaults() {
  TierSimOptions o;
  o.per_op_latency_us = 100.0;
  o.bandwidth_mb_per_s = 250.0;
  o.first_read_penalty = 1.8;
  o.real_sleep = true;
  o.sleep_scale = 0.1;  // keep benches fast; ratios preserved via charged_us
  return o;
}

TierSimOptions TierSimOptions::S3Defaults() {
  TierSimOptions o;
  o.per_op_latency_us = 2000.0;
  o.bandwidth_mb_per_s = 50.0;
  o.first_read_penalty = 1.71;
  o.real_sleep = true;
  o.sleep_scale = 0.1;
  // The realistic S3 sim gets the breaker by default: without faults it
  // never trips, and under an outage it is the behavior we want to model.
  o.breaker.enabled = true;
  return o;
}

double TierSimOptions::ChargeUs(uint64_t bytes, bool first_read) const {
  const double bandwidth_bytes_per_us = bandwidth_mb_per_s;  // MB/s == B/us
  double us = per_op_latency_us +
              static_cast<double>(bytes) / bandwidth_bytes_per_us;
  if (first_read) us *= first_read_penalty;
  return us;
}

void TierCounters::Reset() {
  get_ops = 0;
  put_ops = 0;
  delete_ops = 0;
  bytes_read = 0;
  bytes_written = 0;
  charged_us = 0;
  faults_injected = 0;
  retries = 0;
  retry_give_ups = 0;
  breaker_rejections = 0;
  breaker_opens = 0;
}

namespace {

/// Oversleep a thread carries into its next sleep, capped so that one long
/// stall does not make many later requests free.
constexpr int64_t kMaxOversleptNs = 1'000'000;
thread_local int64_t overslept_ns = 0;

}  // namespace

void ChargeLatency(const TierSimOptions& opts, TierCounters* counters,
                   double us) {
  counters->charged_us.fetch_add(static_cast<uint64_t>(us),
                                 std::memory_order_relaxed);
  if (!opts.real_sleep || us * opts.sleep_scale < 1.0) return;
  // A sleep wakes late by timer slack plus a scheduling delay that varies
  // from run to run. The excess shortens, or skips, this thread's next
  // sleep, so its real sleeping tracks its scaled charges.
  const int64_t want_ns = static_cast<int64_t>(us * opts.sleep_scale) * 1000;
  if (overslept_ns >= want_ns) {
    overslept_ns -= want_ns;
    return;
  }
  const int64_t sleep_ns = want_ns - overslept_ns;
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  const std::chrono::nanoseconds slept =
      std::chrono::steady_clock::now() - start;
  overslept_ns =
      std::clamp<int64_t>(slept.count() - sleep_ns, 0, kMaxOversleptNs);
}

}  // namespace tu::cloud
