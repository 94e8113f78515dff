// TimePartitionedLsm: the paper's elastic time-partitioned LSM-tree (§3.3).
//
// Three levels on two storage tiers:
//   L0, L1 — short time partitions (default 30 min) on the fast tier.
//            L0 receives memtable flushes (tables may overlap in keys);
//            the L0->L1 compaction gathers each series/group's chunks
//            together and merges them into larger key-value pairs.
//   L2     — a SINGLE level of long partitions (default 2 h) on the slow
//            tier. Ordered data migrates L1->L2 with one write and zero
//            slow-tier reads (no overlapping-SSTable merges: the Eqs. 7-10
//            saving). Out-of-order arrivals into closed L2 partitions are
//            appended as PATCH tables routed by the ID ranges of the
//            partition's base tables (Fig. 11), merged only when a base
//            accumulates more than `patch_threshold` patches.
//
// Partition lengths adapt to a fast-storage budget (Algorithm 1): halved
// under pressure, doubled when sparse; compactions split and align
// partitions of mixed lengths (Fig. 12). Retention drops whole partitions.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/tiered_env.h"
#include "compress/rollup.h"
#include "lsm/chunk_store.h"
#include "lsm/iterator.h"
#include "lsm/leveled_lsm.h"  // TableHandle
#include "lsm/memtable.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace tu::lsm {

/// Which background stage produced an error — reported alongside the
/// status so the DB-level error handler can classify by (scope x code)
/// instead of treating every background failure alike.
enum class BgWorkKind : int {
  kFlush = 0,       ///< memtable -> L0 table build/install
  kCompaction = 1,  ///< L0->L1 / L1->L2 / patch merge / size control
  kDrain = 2,       ///< deferred-upload drain (noted only; never quiesces)
};

struct TimeLsmOptions {
  /// Initial L0/L1 partition length (ms). Paper default: 30 minutes.
  int64_t l0_partition_ms = 30LL * 60 * 1000;
  /// Initial L2 partition length (ms). Paper default: 2 hours.
  int64_t l2_partition_ms = 2LL * 60 * 60 * 1000;
  /// Bounds for dynamic adjustment.
  int64_t partition_lower_bound_ms = 15LL * 60 * 1000;
  int64_t partition_upper_bound_ms = 8LL * 60 * 60 * 1000;
  /// Compact L0 when it holds more than this many partitions.
  int l0_partition_trigger = 2;
  /// Merge a base table with its patches beyond this count (§3.3).
  int patch_threshold = 3;
  size_t memtable_bytes = 4 << 20;
  size_t max_output_table_bytes = 2 << 20;
  /// Fast-tier budget for Algorithm 1; 0 disables dynamic size control.
  uint64_t fast_storage_limit_bytes = 0;
  /// Continuous-aggregate granularities (ms), ascending. When non-empty,
  /// the clean L1->L2 compaction also materializes one rollup table per
  /// granularity per L2 partition (per-bucket min/max/sum/count, see
  /// compress/rollup.h) as a by-product of the merge pass it already
  /// runs. Empty disables rollups entirely.
  std::vector<int64_t> rollup_granularities_ms;
  /// Flush immutable memtables on a background worker (immutable queue).
  bool background_flush = false;
  /// Invoked once per memtable flush, after its tables are durably in the
  /// manifest, with the newest chunk seq of every id the memtable held —
  /// the hook the §3.3 logging scheme turns into one flush-mark record.
  std::function<void(const std::vector<std::pair<uint64_t, uint64_t>>&)>
      on_flush;
  /// Invoked (from the failing thread, no LSM locks held) whenever a
  /// background flush, maintenance pass or deferred-upload drain fails,
  /// with the stage that failed. The LSM keeps no error state of its own:
  /// the DB's ErrorHandler classifies and latches what this reports.
  std::function<void(BgWorkKind, const Status&)> on_background_error;
  /// Persist the level manifest to the fast tier after each mutation so a
  /// reopen recovers the tree. Fast-tier tables are fdatasync'ed only when
  /// set: without it no reopen can reach them.
  bool persist_manifest = false;
  /// Silent-corruption defenses (DESIGN.md "Data integrity and scrubbing").
  /// Whole-file CRC32C checksums are always recorded in the manifest at
  /// build time; these knobs control where they are re-verified. Reads
  /// always self-heal: a corrupt block is evicted from the block cache and
  /// re-read, a corrupt table opens from the other tier's copy, and only
  /// then is the table quarantined and the result degraded to partial.
  struct IntegrityOptions {
    /// After an L2 upload, read the object back and verify its whole-file
    /// CRC against the builder's checksum before committing (over and
    /// above the size check). Costs one extra Get per upload; off by
    /// default.
    bool verify_upload = false;
    /// Verify the whole-file CRC when opening a fast-tier table reader
    /// (catches at-rest rot before any block is served). Costs one full
    /// file read per open; off by default — the scrub job covers at-rest
    /// verification without the per-open tax.
    bool verify_fast_open = false;
  };
  IntegrityOptions integrity;
  /// Observability registry (owned by the DB, outlives the LSM). When set,
  /// the tree records flush/compaction/table-build latency histograms and
  /// background-job events (lsm.* names, see DESIGN.md "Observability").
  obs::MetricsRegistry* metrics = nullptr;
  TableBuilderOptions table_options;
};

struct TimeLsmStats {
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> l0_to_l1_compactions{0};
  std::atomic<uint64_t> l1_to_l2_compactions{0};
  std::atomic<uint64_t> patches_created{0};
  std::atomic<uint64_t> patch_merges{0};
  std::atomic<uint64_t> partitions_retired{0};
  std::atomic<uint64_t> fast_bytes_written{0};
  std::atomic<uint64_t> slow_bytes_written{0};
  std::atomic<uint64_t> compaction_us{0};
  /// Manifest-referenced tables found missing/short at open and dropped.
  std::atomic<uint64_t> tables_quarantined{0};
  /// Unreferenced table/.tmp files removed by the open-time sweep.
  std::atomic<uint64_t> orphans_swept{0};
  /// L2-logical tables parked on the fast tier because the upload failed
  /// (slow tier down / breaker open).
  std::atomic<uint64_t> deferred_tables_created{0};
  /// Deferred tables later uploaded and flipped to the slow tier.
  std::atomic<uint64_t> deferred_uploads_drained{0};
  /// Drain passes that stopped early on an upload failure.
  std::atomic<uint64_t> deferred_drain_failures{0};
  /// Slow-tier tables skipped by partial (allow_partial) reads.
  std::atomic<uint64_t> partial_read_skips{0};
  // -- Integrity (DESIGN.md "Data integrity and scrubbing") ----------------
  /// Corrupt blocks detected by the read path (block CRC mismatch).
  std::atomic<uint64_t> read_corruptions_detected{0};
  /// Of those, healed by a cache-evicting re-read (transient flips).
  std::atomic<uint64_t> read_corruptions_healed{0};
  /// Reader opens that failed on the handle's tier but succeeded from the
  /// other tier's healthy copy (deferred fast copies, pre-rename .tmp era).
  std::atomic<uint64_t> tier_fallback_opens{0};
  /// Tables quarantined at read time (both copies corrupt/unusable).
  std::atomic<uint64_t> runtime_quarantines{0};
  // -- Continuous aggregates ----------------------------------------------
  /// Rollup tables materialized by compaction (one per granularity per
  /// clean L1->L2 window) plus re-derivations.
  std::atomic<uint64_t> rollup_tables_built{0};
  /// Partitions whose dirty rollups the maintenance tick re-derived.
  std::atomic<uint64_t> rollup_partitions_rederived{0};
};

/// A table the open-time scan or the scrub job found unreadable. The table
/// is dropped from its level (the rest of the tree opens normally) and
/// reported here. The id/time span it may have covered is kept so partial
/// reads can flag the hole instead of silently shrinking.
struct QuarantinedTable {
  uint64_t table_id = 0;
  bool on_slow = false;
  std::string reason;
  uint64_t min_series_id = 0;
  uint64_t max_series_id = 0;
  int64_t min_ts = 0;
  /// Upper bound on data timestamps the table may have held — already
  /// includes chunk overhang (DataBoundLocked), unlike TableMeta::max_ts
  /// which is only the last chunk *key*.
  int64_t max_data_ts = 0;
  /// True for rollup tables: losing one degrades aggregate queries to the
  /// raw path but loses no data, so partial reads must NOT report its span
  /// missing.
  bool is_rollup = false;
};

class TimePartitionedLsm : public ChunkStore {
 public:
  /// Worker threads of the slow-tier read I/O pool (see NewIteratorForId).
  /// Each worker mostly waits on a Get, so the pool is sized for requests
  /// in flight, not for cores. All foreground queries share it, each
  /// with at most BlockPrefetch::kWindow blocks on it at a time.
  static constexpr size_t kReadIoThreads = 16;

  TimePartitionedLsm(cloud::TieredEnv* env, std::string name,
                     TimeLsmOptions options, BlockCache* block_cache);
  ~TimePartitionedLsm() override;

  Status Open() override;

  /// Inserts a chunk entry (key: §3.3 format; value: type byte + payload).
  Status Put(const Slice& user_key, const Slice& value) override;

  /// Flushes the memtable and drains all pending maintenance.
  Status FlushAll() override;

  /// Iterator over all data of series/group `id` intersecting
  /// [ctx.t0, ctx.t1]. With ctx.scope.allow_partial, unreachable slow-tier
  /// tables are skipped and their possible data span recorded in
  /// ctx.scope.missing. Pruning decisions (partition window, table meta,
  /// bloom, per-block upper bound) are counted into ctx.stats. With
  /// ctx.prefetch set, every slow-tier block the iterator will read once
  /// sought to ChunkSeekKey(id, ctx.t0, partition_upper_bound_ms) is added
  /// to that plan, to be fetched on the read I/O pool when the query
  /// issues it. Fast-tier tables are never planned.
  using ChunkStore::NewIteratorForId;
  Status NewIteratorForId(uint64_t id, const ReadContext& ctx,
                          std::unique_ptr<Iterator>* out) override;

  /// Drops every partition whose data is entirely older than `watermark`.
  Status ApplyRetention(int64_t watermark) override;

  // -- Continuous aggregates -----------------------------------------------
  /// The rollup planner's answer for one series over [ctx.t0, ctx.t1] at
  /// one granularity: the pre-aggregated buckets the rollup partitions can
  /// serve, plus the raw spans (closed, merged, ascending) the caller must
  /// still answer from the raw batch path. Every granularity-aligned
  /// bucket lands wholly in one category — never split across both.
  struct RollupPlan {
    std::vector<compress::RollupBucket> buckets;  // ascending by start
    std::vector<std::pair<int64_t, int64_t>> raw_spans;
  };
  /// Plans and serves the rollup portion of an aggregate read. Rollups
  /// answer only bucket-aligned interiors of clean (non-dirty) L2 windows;
  /// unaligned edges, dirty buckets, windows still on the fast tier, and
  /// `extra_dirty` spans (closed; the caller passes spans its own head
  /// snapshot makes stale) all fall back to raw. Any rollup table that is
  /// unreachable (breaker open), quarantined, or fails to open/decode
  /// demotes its partition to raw — the raw path then reports exact
  /// missing spans, so breaker-open completeness composes unchanged.
  /// Serves ctx.stats->rollup_buckets_served.
  Status PlanRollupRead(uint64_t id, const ReadContext& ctx,
                        int64_t granularity_ms,
                        const std::vector<std::pair<int64_t, int64_t>>&
                            extra_dirty,
                        RollupPlan* out);
  /// Re-derives dirty rollups: picks at most one L2 partition with dirty
  /// buckets per call (the re-merge reads the whole partition, so the
  /// budget keeps a maintenance tick bounded), rebuilds its rollup tables
  /// from the current bases+patches and clears the dirty spans.
  /// `rederived` (nullable) reports how many partitions were refreshed.
  Status MaintainRollups(size_t* rederived = nullptr);
  size_t NumRollupTables() const;
  /// L2 partitions whose rollups have pending dirty spans.
  size_t NumDirtyRollupPartitions() const;

  /// Uploads deferred L2 tables (parked on the fast tier during a slow-tier
  /// outage) and flips them to the slow tier, one manifest commit per
  /// table. Stops at the first upload failure (the outage persists) — the
  /// first attempt doubles as the breaker's half-open probe. Skips cheaply
  /// when nothing is deferred or the breaker is still open. Safe to call
  /// from the maintenance worker; never fails the caller.
  Status DrainDeferredUploads(size_t* drained = nullptr);
  size_t NumDeferredTables() const;
  uint64_t DeferredBytes() const;

  // -- Scrub support (core::Scrubber) --------------------------------------
  /// One manifest-listed table as the scrub job sees it.
  struct TableListEntry {
    uint64_t table_id = 0;
    bool on_slow = false;
    uint64_t file_size = 0;
    uint32_t object_crc32c = 0;
  };
  enum class ScrubOutcome {
    kClean,        ///< primary copy verified intact
    kRepaired,     ///< primary corrupt, rebuilt from the other tier's copy
    kQuarantined,  ///< no healthy copy anywhere: removed from the manifest
    kCorrupt,      ///< corruption detected but repair was disabled
    kSkipped,      ///< table no longer in the manifest (raced a compaction)
  };
  /// Snapshot of every manifest-listed table, sorted by table_id.
  std::vector<TableListEntry> ListTables() const;
  /// Verifies one table end-to-end: whole-file CRC against the manifest
  /// checksum (block-walk fallback when no checksum is recorded). On
  /// corruption, with `repair`, rebuilds the primary copy from the other
  /// tier's healthy duplicate, or — when no healthy copy exists — removes
  /// the table from the manifest and records it in quarantined(). With
  /// `repair` false the scrub only detects (outcome kCorrupt), never
  /// mutates. Returns non-OK only for environmental failures (tier
  /// unreachable) — a corrupt table is an *outcome*, not an error.
  /// `bytes_verified` (nullable) accumulates payload bytes read.
  Status ScrubOneTable(uint64_t table_id, bool repair, ScrubOutcome* outcome,
                       std::string* detail, uint64_t* bytes_verified = nullptr);

  /// Resume-probe entry point: replays retained work after a background
  /// failure — drains every immutable memtable still queued (a failed
  /// flush RETAINS its memtable, so acked-but-unflushed data survives the
  /// error) and re-runs the maintenance pass. Returns the first failure;
  /// OK means all retained inputs are durable again; the caller decides
  /// what a successful retry means for DB health.
  Status RetryBackgroundWork();

  // -- Introspection for benches/tests ------------------------------------
  const TimeLsmStats& stats() const { return stats_; }
  /// Tables dropped by the open-time consistency scan.
  std::vector<QuarantinedTable> quarantined() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
  }
  int64_t l0_partition_ms() const {
    return l0_len_ms_.load(std::memory_order_relaxed);
  }
  int64_t l2_partition_ms() const {
    return l2_len_ms_.load(std::memory_order_relaxed);
  }
  /// Bytes resident on the fast tier: L0+L1 tables plus deferred L2 tables
  /// parked there during an outage.
  uint64_t FastBytesUsed() const;
  /// Lock-free snapshot of FastBytesUsed, refreshed after every manifest
  /// mutation — cheap enough for per-write admission checks.
  uint64_t FastBytesGauge() const {
    return fast_resident_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t SlowBytesUsed() const;
  size_t NumL0Partitions() const;
  size_t NumL1Partitions() const;
  size_t NumL2Partitions() const;
  /// Total patch tables currently attached in L2.
  size_t NumL2Patches() const;
  /// End of the L0 partition that would hold a chunk starting at `ts` —
  /// the bound heads use to close chunks at partition edges (§3.3).
  int64_t PartitionEndFor(int64_t ts) const override {
    // Lock-free: called on every sample append (hot path).
    const int64_t len = l0_len_ms_.load(std::memory_order_relaxed);
    return AlignDown(ts, len) + len;
  }

 private:
  struct Partition {
    int64_t start = 0;
    int64_t end = 0;
    std::vector<TableHandle> tables;  // L0 newest-first; L1 sorted by key
  };

  struct L2Entry {
    TableHandle base;
    std::vector<TableHandle> patches;
  };

  struct L2Partition {
    int64_t start = 0;
    int64_t end = 0;
    std::vector<L2Entry> entries;  // sorted by base min_series_id
    /// Rollup tables for this partition (at most one per configured
    /// granularity; meta.rollup_granularity_ms tells them apart). They
    /// flow through WriteTable like any L2 output, so CRC recording,
    /// deferred-upload parking, scrub and the orphan sweep all apply.
    std::vector<TableHandle> rollups;
    /// Closed time spans whose rollup buckets are stale: an out-of-order
    /// rewrite landed inside the already-rolled-up window. The planner
    /// serves the affected buckets raw until MaintainRollups re-derives
    /// the partition and clears this list.
    std::vector<std::pair<int64_t, int64_t>> rollup_dirty;
  };

  static int64_t AlignDown(int64_t ts, int64_t len) {
    // Works for negative timestamps too (floor division).
    int64_t q = ts / len;
    if (ts % len != 0 && ts < 0) --q;
    return q * len;
  }

  Status FlushMemTable(MemTable* mem);
  /// Flushes queued memtable `mem` unless another flusher (background
  /// worker, inline Put, FlushAll, resume probe) already installed it.
  /// Caller holds mu_.
  Status FlushQueuedLocked(MemTable* mem);
  /// Drops an installed memtable from immutables_. Until this runs the
  /// memtable stays visible to readers beside its tables.
  void RetireQueued(const std::shared_ptr<MemTable>& mem);
  Status MaybeMaintain();
  Status CompactOldestL0();
  Status MaybeCompactL1ToL2();
  /// Returns compaction inputs to level 1 after a failed merge.
  void RestoreL1(std::vector<Partition> partitions);
  Status CompactL1WindowToL2(int64_t w_start, int64_t w_end,
                             std::vector<Partition> inputs);
  Status MergePatchesIfNeeded();
  Status MergeEntryPatches(size_t partition_index, size_t entry_index);
  Status RunDynamicSizeControl();

  /// One boundary interval's worth of merge output.
  struct MergeSegment {
    int64_t start = 0;
    int64_t end = 0;
    std::vector<TableHandle> tables;
  };

  /// Rollup side-build of MergePartitionTables: buckets fully inside
  /// [w_start, w_end) are encoded into one table per configured
  /// granularity (returned in `tables` with meta.rollup_granularity_ms
  /// set). With `skip_raw` the merge writes NO raw tables — the
  /// re-derivation mode MaintainRollups uses to refresh dirty rollups
  /// without rewriting the partition.
  struct RollupBuild {
    int64_t w_start = 0;
    int64_t w_end = 0;
    bool skip_raw = false;
    std::vector<TableHandle> tables;  // out
  };

  /// Sample-aware merge of `inputs` into per-partition tables aligned to
  /// `boundaries` (sorted, uniform step). Input chunks may carry rows
  /// outside the boundary range (wide-spanning head chunks buffer rewrites
  /// at arbitrary timestamps); the merge extends the boundary list by
  /// uniform steps to cover them, so `outputs` can include segments beyond
  /// the requested range. Callers must route every returned segment to a
  /// real partition of its time range — never fold it into a neighbour.
  /// With `rollup_build`, the same pass also materializes rollup tables
  /// (individual series only; groups contribute nothing).
  Status MergePartitionTables(std::vector<TableHandle*> inputs,
                              std::vector<int64_t> boundaries, bool to_slow,
                              std::vector<MergeSegment>* outputs,
                              RollupBuild* rollup_build = nullptr);

  /// Installs one slow-tier merge segment: if an existing L2 partition
  /// fully covers [start, end) the tables attach to it as ID-routed
  /// patches (or become its bases when empty); otherwise the segment
  /// becomes a new L2 partition. May grow l2_ — invalidates L2Partition
  /// pointers/references.
  void RouteSegmentToL2(MergeSegment segment);

  /// Opens the handle's shared query reader (OpenTableReader, through the
  /// block cache) unless it has one.
  Status OpenReader(TableHandle* handle);
  /// Opens a reader of `handle` without storing it, reading through
  /// `cache` (nullable). `scan` marks a compaction's in-order scan: its
  /// fast-tier reads go through a ReadAheadTableSource. On a corrupt
  /// primary copy falls back to the other tier's duplicate, else
  /// quarantines the handle.
  Status OpenTableReader(TableHandle* handle, BlockCache* cache, bool scan,
                         std::unique_ptr<TableReader>* reader);
  /// One tier-specific open attempt, including the manifest size check and
  /// (fast tier, opt-in) whole-file CRC verification.
  Status OpenReaderOnTier(const TableHandle& handle, bool use_slow,
                          BlockCache* cache, bool scan,
                          std::unique_ptr<TableReader>* reader);
  /// Serializes/loads l0_/l1_/l2_ + counters to/from the fast tier.
  Status SaveManifest();
  Status LoadManifest();
  /// Post-LoadManifest consistency pass: quarantines manifest-referenced
  /// tables that are missing or size-mismatched, and sweeps unreferenced
  /// table/.tmp files (leftovers of a crash mid-compaction) from both tiers.
  Status RecoverStorageState();
  /// Builds `entries` into one table in memory and writes it with one
  /// tier operation: WriteFastTable, or an L2 upload (parked on the fast
  /// tier while the slow tier is unreachable).
  Status WriteTable(
      const std::vector<std::pair<std::string, std::string>>& entries,
      bool to_slow, TableHandle* out);
  /// Lands a built table on the fast tier: one Append and one fdatasync
  /// under a .tmp name, then a rename; nothing is left at either name
  /// after a failure.
  Status WriteFastTable(uint64_t table_id, const std::string& data);
  /// The atomic .tmp -> verify -> rename upload protocol; used by
  /// WriteTable, the deferred-upload drainer and scrub repair.
  /// `expected_crc` is the builder's whole-file CRC32C (0 = compute from
  /// `data`), checked by the read-back verify when integrity.verify_upload
  /// is on.
  Status UploadBufferToSlow(uint64_t table_id, const Slice& data,
                            uint32_t expected_crc = 0);
  Status DeleteTable(const TableHandle& handle);
  /// Locates a live handle by id across all levels; caller holds mu_.
  TableHandle* FindTableLocked(uint64_t table_id);
  /// Upper bound on data timestamps table `table_id` may hold, including
  /// chunk overhang: its L2 partition's end, or meta.max_ts plus one
  /// pre-shrink partition length for L0/L1. Used to size the missing span
  /// a quarantine leaves behind.
  int64_t DataBoundLocked(uint64_t table_id) const;
  /// Drops the table from the manifest structures (an L2 base's patches are
  /// promoted to standalone entries, as in RecoverStorageState) and prunes
  /// emptied partitions. Returns false when the id is not present. Caller
  /// holds mu_ and is responsible for SaveManifest().
  bool RemoveTableLocked(uint64_t table_id);
  void RecordBackgroundError(BgWorkKind kind, const Status& s);
  /// Recomputes fast_resident_bytes_ from the levels; caller holds mu_.
  void UpdateFastResidentGaugeLocked();
  std::string FastName(uint64_t table_id) const;
  std::string SlowKey(uint64_t table_id) const;

  cloud::TieredEnv* env_;
  std::string name_;
  TimeLsmOptions options_;
  BlockCache* block_cache_;

  /// Two-lock design so background flush/compaction does not block
  /// foreground insertion (§3.3): `mem_mu_` guards the memtable and
  /// immutable queue only; `mu_` guards the level manifest. Lock order:
  /// mem_mu_ before mu_.
  mutable std::mutex mem_mu_;
  mutable std::mutex mu_;
  std::shared_ptr<MemTable> mem_;
  std::deque<std::shared_ptr<MemTable>> immutables_;
  std::unique_ptr<ThreadPool> flush_pool_;
  /// Fetches planned slow-tier blocks for queries (kReadIoThreads).
  std::unique_ptr<ThreadPool> read_io_pool_;

  std::vector<Partition> l0_;  // sorted by start
  std::vector<Partition> l1_;  // sorted by start
  std::vector<L2Partition> l2_;  // sorted by start

  std::atomic<int64_t> l0_len_ms_;
  std::atomic<int64_t> l2_len_ms_;

  uint64_t next_table_id_ = 1;
  // Atomic: foreground Put stamps entries under mem_mu_ while background
  // compaction re-stamps merged chunks under mu_.
  std::atomic<uint64_t> next_seq_{1};
  int grow_votes_ = 0;  // Algorithm 1 growth hysteresis

  std::vector<QuarantinedTable> quarantined_;
  TimeLsmStats stats_;

  /// Cached observability instruments (all null when options_.metrics is
  /// null, turning each recording site into a no-op).
  obs::Histogram* h_memflush_us_ = nullptr;
  obs::Histogram* h_compact_l0_l1_us_ = nullptr;
  obs::Histogram* h_compact_l1_l2_us_ = nullptr;
  obs::Histogram* h_patch_merge_us_ = nullptr;
  obs::Histogram* h_table_build_us_ = nullptr;
  obs::Histogram* h_table_write_us_ = nullptr;
  obs::Histogram* h_merge_us_ = nullptr;
  obs::Histogram* h_prefetch_wait_us_ = nullptr;
  obs::EventTrace* trace_ = nullptr;

  /// Set by the destructor before waiting on the flush pool; cancels
  /// in-flight RunWithRetry backoffs so teardown never waits out a
  /// multi-second retry budget.
  std::atomic<bool> shutting_down_{false};
  /// See FastBytesGauge(); written under mu_ (UpdateFastResidentGaugeLocked).
  std::atomic<uint64_t> fast_resident_bytes_{0};
  /// Serializes drain passes (maintenance tick vs explicit calls).
  std::mutex drain_mu_;
};

}  // namespace tu::lsm
