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

  // One request is one Write, as the server turns one remote-write frame
  // into one batch. The slow path sends every sample with its label set;
  // the fast path sends a series by label set until its first write
  // resolves the reference, and by reference from then on (§3.4).
  batch_.Clear();
  std::vector<std::string> labeled_keys;
  for (const RemoteSample& s : batch) {
    if (mode_ == Mode::kSlowPath) {
      batch_.AddSample(s.labels, s.ts, s.value);
      continue;
    }
    index::Labels sorted = s.labels;
    index::SortLabels(&sorted);
    std::string key = index::LabelsKey(sorted);
    auto it = series_refs_.find(key);
    if (it != series_refs_.end()) {
      batch_.AddSample(it->second, s.ts, s.value);
    } else {
      batch_.AddSample(std::move(sorted), s.ts, s.value);
      labeled_keys.push_back(std::move(key));
    }
  }
  TU_RETURN_IF_ERROR(db_->Write(batch_, &result_));
  for (size_t i = 0; i < labeled_keys.size(); ++i) {
    if (result_.resolved_refs[i] != 0) {
      series_refs_[labeled_keys[i]] = result_.resolved_refs[i];
    }
  }
  return result_.first_error;
}

Status TimeUnionRemote::RemoteWriteFast(const std::vector<RefSample>& batch) {
  write_stats_.requests += 1;
  write_stats_.samples += batch.size();
  // ID payloads are tiny: charge only a fraction of the per-sample
  // marshalling (no tag sets on the wire).
  write_stats_.charged_us +=
      costs_.http_request_us +
      batch.size() * costs_.per_sample_http_ns / 4000.0;
  batch_.Clear();
  for (const RefSample& s : batch) batch_.AddSample(s.ref, s.ts, s.value);
  TU_RETURN_IF_ERROR(db_->Write(batch_, &result_));
  return result_.first_error;
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

  // A row goes by group ref + member slots when the client already holds
  // them, and by tags otherwise (first sight of the group or of a member).
  // Write applies the by-ref section first; a group row older than the
  // group's newest row still lands (merged into the open chunk or written
  // as its own chunk), so mixing both sections loses nothing.
  batch_.Clear();
  std::vector<const GroupRow*> labeled_rows;
  for (const GroupRow& row : batch) {
    auto it = group_refs_.find(row.group_key);
    std::vector<uint32_t> slots;
    bool by_ref = it != group_refs_.end();
    if (by_ref && row.member_tags.empty()) {
      // A row without member tags uses registration order (slots 0..n-1)
      // — the §3.4 second group API, where the client replays the slot
      // indexes it was handed.
      for (uint32_t i = 0; i < row.values.size(); ++i) slots.push_back(i);
    } else if (by_ref) {
      by_ref = row.member_tags.size() == row.values.size();
      for (size_t i = 0; by_ref && i < row.member_tags.size(); ++i) {
        index::Labels sorted = row.member_tags[i];
        index::SortLabels(&sorted);
        auto slot_it = it->second.slots.find(index::LabelsKey(sorted));
        by_ref = slot_it != it->second.slots.end();
        if (by_ref) slots.push_back(slot_it->second);
      }
    }
    if (by_ref) {
      batch_.AddGroupRow(it->second.ref, std::move(slots), row.ts,
                         row.values);
    } else {
      batch_.AddGroupRow(row.group_tags, row.member_tags, row.ts, row.values);
      labeled_rows.push_back(&row);
    }
  }
  TU_RETURN_IF_ERROR(db_->Write(batch_, &result_));
  for (size_t i = 0; i < labeled_rows.size(); ++i) {
    const core::WriteResult::ResolvedGroup& resolved =
        result_.resolved_groups[i];
    if (resolved.group_ref == 0) continue;
    GroupRefs& refs = group_refs_[labeled_rows[i]->group_key];
    refs.ref = resolved.group_ref;
    for (size_t m = 0; m < labeled_rows[i]->member_tags.size(); ++m) {
      index::Labels sorted = labeled_rows[i]->member_tags[m];
      index::SortLabels(&sorted);
      refs.slots[index::LabelsKey(sorted)] = resolved.slots[m];
    }
  }
  return result_.first_error;
}

Status TimeUnionRemote::QueryRange(
    const std::vector<index::TagMatcher>& matchers, int64_t t0, int64_t t1,
    core::QueryResult* out) {
  query_stats_.requests += 1;
  query_stats_.charged_us += costs_.http_request_us;
  return db_->Query(query::ReadRequest::Range(matchers, t0, t1), out);
}

}  // namespace tu::baseline
