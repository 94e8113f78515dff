#include "baseline/cortex_sim.h"

namespace tu::baseline {

CortexSim::CortexSim(TsdbOptions engine_options, RpcCosts costs)
    : engine_options_(std::move(engine_options)), costs_(costs) {}

Status CortexSim::Open() { return TsdbEngine::Open(engine_options_, &engine_); }

Status CortexSim::RemoteWrite(const std::vector<RemoteSample>& batch) {
  // HTTP ingress + the distributor -> ingester gRPC hop: both per request,
  // plus per-sample marshalling on each hop.
  write_stats_.requests += 1;
  write_stats_.samples += batch.size();
  write_stats_.charged_us +=
      costs_.http_request_us + costs_.grpc_hop_us +
      batch.size() * (costs_.per_sample_http_ns + costs_.per_sample_grpc_ns) /
          1000.0;

  for (const RemoteSample& s : batch) {
    // Cortex has no fast path: every sample carries its full label set
    // through the write path (§3.4 / §4.2).
    uint64_t ref = 0;
    Status st = engine_->Insert(s.labels, s.ts, s.value, &ref);
    if (!st.ok() && !st.IsNotSupported()) return st;  // OOO drops, like tsdb
  }
  return Status::OK();
}

Status CortexSim::QueryRange(const std::vector<index::TagMatcher>& matchers,
                             int64_t t0, int64_t t1,
                             std::vector<TsdbSeriesResult>* out) {
  query_stats_.requests += 1;
  query_stats_.charged_us += costs_.http_request_us + costs_.grpc_hop_us;

  // Inefficient index reading: fetch every overlapping block's whole index
  // object from the slow tier before evaluating.
  std::vector<std::string> index_objects;
  TU_RETURN_IF_ERROR(
      engine_->env().slow().ListObjects("block_", &index_objects));
  for (const std::string& key : index_objects) {
    if (key.size() < 6 || key.substr(key.size() - 6) != ".index") continue;
    std::string blob;
    TU_RETURN_IF_ERROR(engine_->env().slow().GetObject(key, &blob));
  }
  return engine_->Query(matchers, t0, t1, out);
}

// ---------------------------------------------------------------------------

TimeUnionRemote::TimeUnionRemote(core::DBOptions db_options, RpcCosts costs,
                                 Mode mode)
    : db_options_(std::move(db_options)), costs_(costs), mode_(mode) {}

Status TimeUnionRemote::Open() {
  return core::TimeUnionDB::Open(db_options_, &db_);
}

Status TimeUnionRemote::RemoteWrite(const std::vector<RemoteSample>& batch) {
  write_stats_.requests += 1;
  write_stats_.samples += batch.size();
  write_stats_.charged_us +=
      costs_.http_request_us +
      batch.size() * costs_.per_sample_http_ns / 1000.0;

  for (const RemoteSample& s : batch) {
    if (mode_ == Mode::kSlowPath) {
      uint64_t ref = 0;
      TU_RETURN_IF_ERROR(db_->Insert(s.labels, s.ts, s.value, &ref));
      continue;
    }
    // Fast path: first insertion registers and caches the reference; the
    // following insertions go by reference (§3.4).
    index::Labels sorted = s.labels;
    index::SortLabels(&sorted);
    const std::string key = index::LabelsKey(sorted);
    auto it = series_refs_.find(key);
    if (it == series_refs_.end()) {
      uint64_t ref = 0;
      TU_RETURN_IF_ERROR(db_->Insert(sorted, s.ts, s.value, &ref));
      series_refs_[key] = ref;
    } else {
      TU_RETURN_IF_ERROR(db_->InsertFast(it->second, s.ts, s.value));
    }
  }
  return Status::OK();
}

Status TimeUnionRemote::RemoteWriteFast(const std::vector<RefSample>& batch) {
  write_stats_.requests += 1;
  write_stats_.samples += batch.size();
  // ID payloads are tiny: charge only a fraction of the per-sample
  // marshalling (no tag sets on the wire).
  write_stats_.charged_us +=
      costs_.http_request_us +
      batch.size() * costs_.per_sample_http_ns / 4000.0;
  for (const RefSample& s : batch) {
    TU_RETURN_IF_ERROR(db_->InsertFast(s.ref, s.ts, s.value));
  }
  return Status::OK();
}

Status TimeUnionRemote::RemoteWriteGroups(const std::vector<GroupRow>& batch) {
  write_stats_.requests += 1;
  uint64_t samples = 0;
  for (const GroupRow& row : batch) samples += row.values.size();
  write_stats_.samples += samples;
  // Grouping dedupes timestamps and labels inside the payload: the
  // marshalling term charges one entry per row, not per sample.
  write_stats_.charged_us +=
      costs_.http_request_us +
      batch.size() * costs_.per_sample_http_ns / 1000.0;

  for (const GroupRow& row : batch) {
    auto it = group_refs_.find(row.group_key);
    if (it == group_refs_.end()) {
      uint64_t gref = 0;
      std::vector<uint32_t> slots;
      TU_RETURN_IF_ERROR(db_->InsertGroup(row.group_tags, row.member_tags,
                                          row.ts, row.values, &gref, &slots));
      GroupRefs refs;
      refs.ref = gref;
      for (size_t i = 0; i < row.member_tags.size(); ++i) {
        index::Labels sorted = row.member_tags[i];
        index::SortLabels(&sorted);
        refs.slots[index::LabelsKey(sorted)] = slots[i];
      }
      group_refs_[row.group_key] = std::move(refs);
      continue;
    }
    // Fast path by group ref + member slots. A row without member tags
    // uses registration order (slots 0..n-1) — the §3.4 second group API,
    // where the client replays the slot indexes it was handed.
    std::vector<uint32_t> slots;
    slots.reserve(row.values.size());
    if (row.member_tags.empty()) {
      for (uint32_t i = 0; i < row.values.size(); ++i) slots.push_back(i);
      TU_RETURN_IF_ERROR(
          db_->InsertGroupFast(it->second.ref, slots, row.ts, row.values));
      continue;
    }
    bool all_known = row.member_tags.size() == row.values.size();
    if (all_known) {
      for (const index::Labels& tags : row.member_tags) {
        index::Labels sorted = tags;
        index::SortLabels(&sorted);
        auto slot_it = it->second.slots.find(index::LabelsKey(sorted));
        if (slot_it == it->second.slots.end()) {
          all_known = false;
          break;
        }
        slots.push_back(slot_it->second);
      }
    }
    if (all_known) {
      TU_RETURN_IF_ERROR(
          db_->InsertGroupFast(it->second.ref, slots, row.ts, row.values));
    } else {
      uint64_t gref = 0;
      std::vector<uint32_t> fresh_slots;
      TU_RETURN_IF_ERROR(db_->InsertGroup(row.group_tags, row.member_tags,
                                          row.ts, row.values, &gref,
                                          &fresh_slots));
      for (size_t i = 0; i < row.member_tags.size(); ++i) {
        index::Labels sorted = row.member_tags[i];
        index::SortLabels(&sorted);
        it->second.slots[index::LabelsKey(sorted)] = fresh_slots[i];
      }
    }
  }
  return Status::OK();
}

Status TimeUnionRemote::QueryRange(
    const std::vector<index::TagMatcher>& matchers, int64_t t0, int64_t t1,
    core::QueryResult* out) {
  query_stats_.requests += 1;
  query_stats_.charged_us += costs_.http_request_us;
  return db_->Query(query::ReadRequest::Range(matchers, t0, t1), out);
}

}  // namespace tu::baseline
