#include "engine_harness.h"

#include "bench_util.h"
#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace tu::bench {

const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTsdb:
      return "tsdb";
    case EngineKind::kTsdbLdb:
      return "tsdb-LDB";
    case EngineKind::kTU:
      return "TU";
    case EngineKind::kTUGroup:
      return "TU-Group";
    case EngineKind::kTULdb:
      return "TU-LDB";
  }
  return "?";
}

EngineHarness::EngineHarness(EngineKind kind, HarnessOptions options)
    : kind_(kind), options_(std::move(options)) {}

EngineHarness::~EngineHarness() = default;

Status EngineHarness::Open() {
  RemoveDirRecursive(options_.workspace);
  switch (kind_) {
    case EngineKind::kTsdb:
    case EngineKind::kTsdbLdb: {
      baseline::TsdbOptions opts;
      opts.workspace = options_.workspace;
      opts.env_options = options_.env;
      opts.blocks_on_slow = !options_.ebs_only;
      opts.segment_cache_bytes = options_.block_cache_bytes;
      if (kind_ == EngineKind::kTsdbLdb) {
        opts.use_leveldb_samples = true;
        // Keep the paper's data:memtable ratio at laptop scale so the
        // leveled compactions (and their S3 traffic) actually happen.
        opts.leveled.memtable_bytes = options_.memtable_bytes / 16;
        opts.leveled.base_level_bytes = options_.memtable_bytes / 8;
        opts.leveled.max_output_table_bytes = options_.memtable_bytes / 16;
        opts.leveled.level_multiplier = 4;
        // tsdb-LDB stores SSTables on S3 (§4.1 baseline (a)).
        opts.leveled.num_fast_levels = options_.ebs_only ? 99 : 0;
      }
      return baseline::TsdbEngine::Open(opts, &tsdb_);
    }
    case EngineKind::kTU:
    case EngineKind::kTUGroup: {
      core::DBOptions opts;
      opts.workspace = options_.workspace;
      opts.env_options = options_.env;
      opts.lsm.memtable_bytes = options_.memtable_bytes / 8;
      opts.block_cache_bytes = options_.block_cache_bytes;
      opts.lsm.fast_storage_limit_bytes = options_.fast_limit_bytes;
      if (options_.ebs_only) {
        // Fig. 17: pin everything to the fast tier by making the L2
        // window enormous (data never migrates off EBS).
        opts.lsm.l2_partition_ms = 1LL << 50;
        opts.lsm.partition_upper_bound_ms = 1LL << 50;
      }
      return core::TimeUnionDB::Open(opts, &tu_);
    }
    case EngineKind::kTULdb: {
      core::DBOptions opts;
      opts.workspace = options_.workspace;
      opts.env_options = options_.env;
      opts.backend = core::DBOptions::Backend::kLeveled;
      opts.leveled.memtable_bytes = options_.memtable_bytes / 16;
      opts.leveled.base_level_bytes = options_.memtable_bytes / 8;
      opts.leveled.max_output_table_bytes = options_.memtable_bytes / 16;
      opts.leveled.level_multiplier = 4;
      opts.leveled.num_fast_levels = options_.ebs_only ? 99 : 2;
      opts.block_cache_bytes = options_.block_cache_bytes;
      return core::TimeUnionDB::Open(opts, &tu_);
    }
  }
  return Status::InvalidArgument("unknown engine kind");
}

Status EngineHarness::RunInsert(const tsbs::DevOpsGenerator& gen,
                                InsertReport* report) {
  const uint64_t start = NowUs();
  uint64_t samples = 0;
  const uint64_t hosts = gen.num_hosts();
  // TimeUnion takes one row per Write through one reused batch, so the
  // ingest loop stays a per-sample client like the tsdb baseline's.
  core::WriteBatch batch;
  core::WriteResult written;
  auto write_row = [&] { return WriteRows(tu_.get(), batch, &written); };
  const int per_host = tsbs::DevOpsGenerator::kSeriesPerHost;

  if (kind_ == EngineKind::kTUGroup) {
    group_refs_.assign(hosts, 0);
    group_slots_.assign(hosts, {});
    std::vector<index::Labels> member_tags(per_host);
    for (int s = 0; s < per_host; ++s) member_tags[s] = gen.UniqueTags(s);

    std::vector<double> values(per_host);
    for (uint64_t step = 0; step < gen.num_steps(); ++step) {
      const int64_t ts = gen.start_ts() + step * gen.interval_ms();
      for (uint64_t h = 0; h < hosts; ++h) {
        for (int s = 0; s < per_host; ++s) values[s] = gen.Value(h, s, ts);
        batch.Clear();
        if (step == 0) {
          batch.AddGroupRow(gen.HostTags(h), member_tags, ts, values);
          TU_RETURN_IF_ERROR(write_row());
          group_refs_[h] = written.resolved_groups[0].group_ref;
          group_slots_[h] = written.resolved_groups[0].slots;
        } else {
          batch.AddGroupRow(group_refs_[h], group_slots_[h], ts, values);
          TU_RETURN_IF_ERROR(write_row());
        }
        samples += per_host;
      }
    }
  } else {
    series_refs_.assign(hosts * per_host, 0);
    for (uint64_t step = 0; step < gen.num_steps(); ++step) {
      const int64_t ts = gen.start_ts() + step * gen.interval_ms();
      for (uint64_t h = 0; h < hosts; ++h) {
        for (int s = 0; s < per_host; ++s) {
          const double v = gen.Value(h, s, ts);
          const size_t slot = h * per_host + s;
          if (step == 0) {
            index::Labels labels = gen.SeriesLabels(h, s);
            if (tu_) {
              batch.Clear();
              batch.AddSample(std::move(labels), ts, v);
              TU_RETURN_IF_ERROR(write_row());
              series_refs_[slot] = written.resolved_refs[0];
            } else {
              TU_RETURN_IF_ERROR(
                  tsdb_->Insert(labels, ts, v, &series_refs_[slot]));
            }
          } else {
            if (tu_) {
              batch.Clear();
              batch.AddSample(series_refs_[slot], ts, v);
              TU_RETURN_IF_ERROR(write_row());
            } else {
              TU_RETURN_IF_ERROR(tsdb_->InsertFast(series_refs_[slot], ts, v));
            }
          }
          ++samples;
        }
      }
    }
  }

  report->samples = samples;
  report->wall_seconds = static_cast<double>(NowUs() - start) / 1e6;
  report->throughput =
      report->wall_seconds > 0 ? samples / report->wall_seconds : 0;
  auto& tracker = MemoryTracker::Global();
  report->memory_total = tracker.Total();
  report->memory_index = tracker.Get(MemCategory::kInvertedIndex) +
                         tracker.Get(MemCategory::kTags);
  report->memory_samples = tracker.Get(MemCategory::kSamples);
  report->memory_block_meta = tracker.Get(MemCategory::kBlockMeta);
  return Status::OK();
}

Status EngineHarness::Flush() {
  if (tu_) return tu_->Flush();
  return tsdb_->Flush();
}

Status EngineHarness::RunQuery(const tsbs::DevOpsGenerator& gen,
                               const tsbs::QueryPattern& pattern, int repeats,
                               QueryReport* report) {
  report->pattern = pattern.name;
  report->latency_us = 0;
  report->series_returned = 0;
  report->samples_returned = 0;

  for (int r = 0; r < repeats; ++r) {
    const auto matchers = tsbs::PatternSelectors(pattern, gen, 1000 + r);
    int64_t t1 = gen.end_ts();
    int64_t t0;
    if (pattern.lastpoint) {
      t0 = t1 - 2 * gen.interval_ms();
    } else if (pattern.hours < 0) {
      t0 = gen.start_ts();
    } else {
      t0 = t1 - pattern.hours * 3600LL * 1000;
      if (t0 < gen.start_ts()) t0 = gen.start_ts();
    }

    const uint64_t start = NowUs();
    if (tu_) {
      core::QueryResult result;
      TU_RETURN_IF_ERROR(tu_->Query(query::ReadRequest::Range(matchers, t0, t1),
                                    &result));
      for (const auto& series : result) {
        const auto agg = pattern.lastpoint
                             ? std::vector<tsbs::AggPoint>{}
                             : tsbs::AggregateMax(
                                   series.timestamps, series.values,
                                   tsbs::QueryPattern::kAggWindowMs);
        (void)agg;
        report->samples_returned += series.timestamps.size();
      }
      report->series_returned += result.size();
    } else {
      std::vector<baseline::TsdbSeriesResult> result;
      TU_RETURN_IF_ERROR(tsdb_->Query(matchers, t0, t1, &result));
      for (const auto& series : result) {
        const auto agg = pattern.lastpoint
                             ? std::vector<tsbs::AggPoint>{}
                             : tsbs::AggregateMax(
                                   series.timestamps, series.values,
                                   tsbs::QueryPattern::kAggWindowMs);
        (void)agg;
        report->samples_returned += series.timestamps.size();
      }
      report->series_returned += result.size();
    }
    report->latency_us += static_cast<double>(NowUs() - start);
  }
  report->latency_us /= repeats;
  return Status::OK();
}

uint64_t EngineHarness::PersistedIndexBytes() const {
  if (tsdb_) return tsdb_->PersistedIndexBytes();
  // TimeUnion: the single global index (trie + postings + tag store).
  return tu_->IndexMemoryUsage();
}

uint64_t EngineHarness::PersistedDataBytes() const {
  if (kind_ == EngineKind::kTsdb) return tsdb_->PersistedDataBytes();
  if (kind_ == EngineKind::kTsdbLdb) {
    // Samples live in the LSM (on either tier); subtract the index blobs.
    const uint64_t total = tsdb_->env().slow().TotalBytesUsed() +
                           tsdb_->env().fast().TotalBytesUsed();
    const uint64_t index = tsdb_->PersistedIndexBytes();
    return total > index ? total - index : 0;
  }
  if (tu_->time_lsm()) {
    return tu_->time_lsm()->FastBytesUsed() + tu_->time_lsm()->SlowBytesUsed();
  }
  return tu_->env().fast().TotalBytesUsed() +
         tu_->env().slow().TotalBytesUsed();
}

cloud::TieredEnv* EngineHarness::env() {
  if (tu_) return &tu_->env();
  return &tsdb_->env();
}

}  // namespace tu::bench
