// Sharded LRU cache used as the 1 GB data-segment cache for objects fetched
// from slow storage during queries (§4.1 "Configurations"). Capacity is
// charged per entry; eviction is strict LRU within each shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/memory_tracker.h"

namespace tu {

/// A single-shard LRU cache mapping string keys to shared_ptr<V> values.
template <typename V>
class LRUCacheShard {
 public:
  explicit LRUCacheShard(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  ~LRUCacheShard() {
    MemoryTracker::Global().Sub(MemCategory::kCache,
                                static_cast<int64_t>(usage_));
  }

  void Insert(const std::string& key, std::shared_ptr<V> value, size_t charge) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      usage_ -= it->second->charge;
      MemoryTracker::Global().Sub(MemCategory::kCache,
                                  static_cast<int64_t>(it->second->charge));
      lru_.erase(it->second);
      map_.erase(it);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    lru_.push_front(Entry{key, std::move(value), charge});
    map_[key] = lru_.begin();
    usage_ += charge;
    MemoryTracker::Global().Add(MemCategory::kCache,
                                static_cast<int64_t>(charge));
    EvictLocked();
  }

  std::shared_ptr<V> Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  void Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return;
    usage_ -= it->second->charge;
    MemoryTracker::Global().Sub(MemCategory::kCache,
                                static_cast<int64_t>(it->second->charge));
    lru_.erase(it->second);
    map_.erase(it);
  }

  size_t usage() const {
    std::lock_guard<std::mutex> lock(mu_);
    return usage_;
  }

  // Counter reads are lock-free (reports run concurrently with queries).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t inserts() const { return inserts_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<V> value;
    size_t charge;
  };

  void EvictLocked() {
    while (usage_ > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      usage_ -= victim.charge;
      MemoryTracker::Global().Sub(MemCategory::kCache,
                                  static_cast<int64_t>(victim.charge));
      map_.erase(victim.key);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<std::string, typename std::list<Entry>::iterator> map_;
  size_t usage_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Sharded wrapper: hashes keys across kNumShards single-shard caches to
/// reduce lock contention.
template <typename V>
class LRUCache {
 public:
  static constexpr size_t kNumShards = 16;

  explicit LRUCache(size_t capacity_bytes) {
    for (size_t i = 0; i < kNumShards; ++i) {
      shards_.emplace_back(
          std::make_unique<LRUCacheShard<V>>(capacity_bytes / kNumShards));
    }
  }

  void Insert(const std::string& key, std::shared_ptr<V> value, size_t charge) {
    Shard(key).Insert(key, std::move(value), charge);
  }

  std::shared_ptr<V> Lookup(const std::string& key) {
    return Shard(key).Lookup(key);
  }

  void Erase(const std::string& key) { Shard(key).Erase(key); }

  size_t usage() const {
    size_t total = 0;
    for (const auto& s : shards_) total += s->usage();
    return total;
  }

  uint64_t hits() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s->hits();
    return total;
  }

  uint64_t misses() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s->misses();
    return total;
  }

  uint64_t inserts() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s->inserts();
    return total;
  }

  uint64_t evictions() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s->evictions();
    return total;
  }

 private:
  LRUCacheShard<V>& Shard(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % kNumShards];
  }

  std::vector<std::unique_ptr<LRUCacheShard<V>>> shards_;
};

}  // namespace tu
