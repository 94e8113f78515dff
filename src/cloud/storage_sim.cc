#include "cloud/storage_sim.h"

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

void ChargeLatency(const TierSimOptions& opts, TierCounters* counters,
                   double us) {
  counters->charged_us.fetch_add(static_cast<uint64_t>(us),
                                 std::memory_order_relaxed);
  if (opts.real_sleep && us * opts.sleep_scale >= 1.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(us * opts.sleep_scale)));
  }
}

}  // namespace tu::cloud
