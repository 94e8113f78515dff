// End-to-end layer for the Fig. 13 comparison: simulated Prometheus
// remote-write / HTTP query frontends over the storage engines.
//
//   CortexSim       — the paper's Cortex baseline: a tsdb-based storage
//                     engine behind an HTTP frontend PLUS the internal
//                     gRPC hop between distributor and ingester whose cost
//                     "accumulates with HTTP insertion requests" (§4.2).
//                     No fast path (§3.4), and long-range queries load
//                     whole block indexes from object storage.
//   TimeUnionRemote — TimeUnion behind the same HTTP frontend, in the three
//                     §4.2 modes: TU (slow path), TU-fast (reference path),
//                     TU-Group (group rows, fewer requests).
//
// RPC costs are charged to a simulated-time ledger (microseconds), so
// end-to-end throughput = samples / (measured CPU time + charged RPC time).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/tsdb_engine.h"
#include "core/timeunion_db.h"
#include "tsbs/devops.h"

namespace tu::baseline {

/// Cost model of the HTTP/gRPC path, calibrated for shape (not absolute
/// numbers): a remote-write request costs http_request_us; Cortex adds
/// grpc_hop_us per internal hop and per_sample_grpc_ns per forwarded
/// sample.
struct RpcCosts {
  double http_request_us = 800.0;
  double grpc_hop_us = 400.0;
  /// Marshalling per sample on the HTTP path (protobuf decode).
  double per_sample_http_ns = 500.0;
  /// Marshalling per sample on Cortex's internal gRPC hop (re-encode +
  /// decode between distributor and ingester).
  double per_sample_grpc_ns = 2000.0;
};

struct RpcStats {
  uint64_t requests = 0;
  uint64_t samples = 0;
  double charged_us = 0;
};

/// One sample of a remote-write batch.
struct RemoteSample {
  index::Labels labels;
  int64_t ts = 0;
  double value = 0;
};

class CortexSim {
 public:
  CortexSim(TsdbOptions engine_options, RpcCosts costs);

  Status Open();

  /// Prometheus remote-write: one HTTP request carrying `batch`.
  Status RemoteWrite(const std::vector<RemoteSample>& batch);

  /// HTTP range query. Cortex's index reading is inefficient: it fetches
  /// the whole index object of every overlapping block before evaluating
  /// (§4.2: "it needs to load the whole index into memory in advance").
  Status QueryRange(const std::vector<index::TagMatcher>& matchers,
                    int64_t t0, int64_t t1,
                    std::vector<TsdbSeriesResult>* out);

  Status Flush() { return engine_->Flush(); }

  TsdbEngine& engine() { return *engine_; }
  const RpcStats& write_stats() const { return write_stats_; }
  const RpcStats& query_stats() const { return query_stats_; }

 private:
  TsdbOptions engine_options_;
  RpcCosts costs_;
  std::unique_ptr<TsdbEngine> engine_;
  RpcStats write_stats_;
  RpcStats query_stats_;
};

class TimeUnionRemote {
 public:
  enum class Mode { kSlowPath, kFastPath, kGroup };

  TimeUnionRemote(core::DBOptions db_options, RpcCosts costs, Mode mode);

  Status Open();

  /// Remote-write of a batch of individual samples (TU / TU-fast modes).
  Status RemoteWrite(const std::vector<RemoteSample>& batch);

  /// Fast-path remote-write: the client already holds series references
  /// (obtained via RegisterSeries / the first labelled insertion), so the
  /// payload carries IDs instead of tag sets (§3.4 second API).
  struct RefSample {
    uint64_t ref = 0;
    int64_t ts = 0;
    double value = 0;
  };
  Status RemoteWriteFast(const std::vector<RefSample>& batch);

  /// Resolves a fast-path reference (simulates the registration round).
  Status RegisterSeries(const index::Labels& labels, uint64_t* ref) {
    return db_->RegisterSeries(labels, ref);
  }

  /// Remote-write of group rows (TU-Group mode): one row per host per
  /// timestamp; timestamps deduplicated inside the request.
  struct GroupRow {
    index::Labels group_tags;
    std::vector<index::Labels> member_tags;  // needed on first sight only
    uint64_t group_key = 0;                  // caller-stable group handle
    int64_t ts = 0;
    std::vector<double> values;
  };
  Status RemoteWriteGroups(const std::vector<GroupRow>& batch);

  Status QueryRange(const std::vector<index::TagMatcher>& matchers,
                    int64_t t0, int64_t t1, core::QueryResult* out);

  Status Flush() { return db_->Flush(); }

  core::TimeUnionDB& db() { return *db_; }
  const RpcStats& write_stats() const { return write_stats_; }
  const RpcStats& query_stats() const { return query_stats_; }

 private:
  core::DBOptions db_options_;
  RpcCosts costs_;
  Mode mode_;
  std::unique_ptr<core::TimeUnionDB> db_;
  RpcStats write_stats_;
  RpcStats query_stats_;

  // Each remote-write request is one batch, reused across requests.
  core::WriteBatch batch_;
  core::WriteResult result_;

  // Fast-path reference caches (client-side series refs / group slots).
  std::unordered_map<std::string, uint64_t> series_refs_;
  struct GroupRefs {
    uint64_t ref = 0;
    std::unordered_map<std::string, uint32_t> slots;
  };
  std::unordered_map<uint64_t, GroupRefs> group_refs_;
};

}  // namespace tu::baseline
