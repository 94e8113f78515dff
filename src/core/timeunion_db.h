// TimeUnionDB: the public API of the paper's system — the unified data
// model (§3.1), memory-efficient global index and head objects (§3.2), the
// elastic time-partitioned LSM-tree on hybrid cloud storage (§3.3), and
// the operations of §3.4:
//   Write — Put(Timeseries) and Put(Group): one WriteBatch carries
//           labeled rows (slow path) and ref rows (fast path) of both
//   Query — Get with time range + tag selectors
//
// Query results are columnar (SeriesResult: ascending `timestamps` and
// parallel `values`), the shape the read pipeline and the wire protocol
// use, so a read is never copied into per-sample rows on its way out.
//
// Concurrency model (see DESIGN.md "Threading model"): the front door is
// sharded, not globally locked. Key→ref and ref→entry registries are split
// into power-of-two shards, each behind its own reader/writer lock, and
// every head object is serialized by a striped per-entry append lock — so
// fast-path writes to different series proceed fully in parallel, while
// slow-path registration (index/tag-store mutation, id allocation) and
// retention serialize behind one registration mutex. All public methods
// are safe to call from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/tiered_env.h"
#include "compress/chunk.h"
#include "index/inverted_index.h"
#include "index/labels.h"
#include "index/tag_store.h"
#include "lsm/chunk_store.h"
#include "lsm/leveled_lsm.h"
#include "lsm/time_lsm.h"
#include "mem/chunk_array.h"
#include "mem/head.h"
#include "obs/metrics.h"
#include "core/error_handler.h"
#include "core/maintenance.h"
#include "core/scrub.h"
#include "core/wal.h"
#include "core/write_batch.h"
#include "query/aggregate.h"
#include "query/merged_series_iterator.h"
#include "query/read_context.h"
#include "query/read_request.h"
#include "util/striped_mutex.h"

namespace tu::core {

/// The streaming sample merge lives in the unified query layer as
/// query::MergedSeriesIterator; core-level callers and the public
/// SeriesIterResult keep the historical spelling.
using SampleIterator = query::MergedSeriesIterator;

struct DBOptions {
  /// Root directory; fast tier, slow tier and mmap files live under it.
  std::string workspace;
  cloud::TieredEnvOptions env_options = cloud::TieredEnvOptions::Instant();

  /// Open-chunk close threshold (§3.2: 32 by default; larger chunks trade
  /// memory for compression ratio).
  uint32_t samples_per_chunk = 32;
  size_t series_chunk_bytes = 256;

  /// Storage backend: the paper's time-partitioned tree (TU) or a classic
  /// leveled LSM with the first two levels on fast storage (TU-LDB).
  enum class Backend { kTimePartitioned, kLeveled };
  Backend backend = Backend::kTimePartitioned;

  lsm::TimeLsmOptions lsm;
  lsm::LeveledLsmOptions leveled;  // used when backend == kLeveled
  size_t block_cache_bytes = 64 << 20;
  index::TrieOptions trie;

  /// Registry shard count (rounded up to a power of two). Lookups on
  /// series in different shards never contend; raise this for very high
  /// writer-thread counts.
  uint32_t registry_shards = 16;
  /// Striped per-entry append locks (rounded up to a power of two). Two
  /// series sharing a stripe serialize their appends — harmless, so this
  /// only needs to be comfortably larger than the writer-thread count.
  uint32_t append_lock_stripes = 256;

  /// §3.3 logging scheme. Off for pure benchmarks.
  bool enable_wal = false;
  /// Live-log budget. Flush marks retire WAL segments on their own; when
  /// the live segments still exceed this many bytes (an idle series'
  /// records pin the oldest one), the DB closes the open chunks of the ids
  /// pinning the oldest segment and flushes the memtables, so that segment
  /// is retired too. Segments are WalWriter::kSegmentBytes, or a quarter
  /// of this budget when that is smaller.
  uint64_t wal_purge_bytes = 16 << 20;

  /// Degraded reads: when false (the default), Query / QueryIterators keep
  /// working through a slow-tier outage by skipping unreachable L2 tables
  /// and reporting `QueryResult::complete = false` with the merged
  /// `missing_ranges`. When true, the first unreachable table fails the
  /// query (fail-fast semantics for callers that cannot use partial data).
  bool strict_reads = false;

  /// Fast-tier budget backpressure. During a slow-tier outage deferred L2
  /// uploads park on the fast tier, so unbounded ingest would eventually
  /// fill it. Watermarks are fractions of `lsm.fast_storage_limit_bytes`:
  /// below soft the write path is untouched; between soft and hard each
  /// admitted write eats a bounded delay (`soft_delay_us`); at hard the
  /// write is rejected with ResourceExhausted. Off by default — it only
  /// makes sense with a fast-storage budget configured.
  struct AdmissionControl {
    bool enabled = false;
    double soft_watermark = 1.0;  ///< × lsm.fast_storage_limit_bytes
    double hard_watermark = 2.0;  ///< × lsm.fast_storage_limit_bytes
    uint64_t soft_delay_us = 2000;
    /// The fast-bytes gauge is re-read every this many admitted writes
    /// (per thread, approximately); keeps the hot path at one relaxed
    /// atomic load.
    uint32_t refresh_every_ops = 64;
  };
  AdmissionControl admission;

  /// Background-error state machine (DESIGN.md "Background error handling
  /// and auto-recovery"): classification, write quiesce, bounded-backoff
  /// auto-resume. Always active; these knobs tune the resume policy.
  ErrorHandlerOptions error_handler;

  /// Background integrity scrub (see src/core/scrub.h and DESIGN.md "Data
  /// integrity and scrubbing"): when enabled, each maintenance tick
  /// verifies a budgeted slice of the LSM's tables end-to-end, repairing
  /// corrupt copies from the other tier and quarantining the rest.
  /// Requires the time-partitioned backend; ScrubNow() forces a full pass
  /// regardless of `enabled`.
  ScrubOptions scrub;

  /// Observability (src/obs): the metrics registry always exists and is
  /// always wired into the hot paths; these knobs control export.
  struct MetricsOptions {
    /// Append a `{"ts_ms":...,"metrics":{...}}` JSON line per maintenance
    /// tick to <workspace>/metrics.jsonl (requires background_maintenance).
    bool emit_jsonl = false;
  };
  MetricsOptions metrics;

  /// Rejects incoherent configurations with InvalidArgument naming the
  /// offending field. Called by TimeUnionDB::Open before anything touches
  /// disk; see the implementation for the exact rules.
  Status Validate() const;

  /// Data retention window (0 = keep everything); see ApplyRetention.
  int64_t retention_ms = 0;
  /// Run the §3.3 background maintenance worker (periodic retention,
  /// auto-resume, deferred uploads, scrub, mmap release hints).
  bool background_maintenance = false;
  int64_t maintenance_interval_ms = 1000;
  /// Clock for the retention watermark (tests inject a virtual clock).
  std::function<int64_t()> maintenance_clock;
};

/// What the last Open salvaged: WAL replay stats plus the LSM's open-time
/// quarantine/sweep counts. All zeros / clean after an orderly shutdown.
struct RecoveryReport {
  WalReplayStats wal;
  uint64_t tables_quarantined = 0;
  uint64_t orphans_swept = 0;
};

/// One series in a query result. The samples are two parallel columns in
/// ascending timestamp order, the shape of query::SampleBatch and of the
/// wire's server::QueryResp::Series: Query appends the iterators' column
/// batches straight onto them, and the server moves them into its
/// response, so no layer between the LSM and a client copies per sample.
struct SeriesResult {
  uint64_t id = 0;
  index::Labels labels;
  std::vector<int64_t> timestamps;  // ascending
  std::vector<double> values;       // values[i] was written at timestamps[i]
};

/// Query output: the matched series plus the shared completeness marker
/// for degraded reads (query::Completeness — when the slow tier was
/// unreachable and DBOptions::strict_reads == false, `complete` is false
/// and `missing_ranges` holds the merged, query-range-clamped spans whose
/// data may be absent). Exposes the vector interface of its `series`
/// member so result-consuming code can keep treating it as a container.
struct QueryResult : query::Completeness {
  std::vector<SeriesResult> series;
  /// Per-query read-pipeline statistics: pruning decisions, block cache
  /// hits/misses, slow-tier fetches, decode volume (see query::QueryStats).
  query::QueryStats stats;

  size_t size() const { return series.size(); }
  bool empty() const { return series.empty(); }
  SeriesResult& operator[](size_t i) { return series[i]; }
  const SeriesResult& operator[](size_t i) const { return series[i]; }
  auto begin() { return series.begin(); }
  auto end() { return series.end(); }
  auto begin() const { return series.begin(); }
  auto end() const { return series.end(); }
  void push_back(SeriesResult r) { series.push_back(std::move(r)); }
  void clear() {
    series.clear();
    ResetCompleteness();
    stats = query::QueryStats();
  }
};

class TimeUnionDB {
 public:
  static Status Open(DBOptions options, std::unique_ptr<TimeUnionDB>* db);
  ~TimeUnionDB();

  TimeUnionDB(const TimeUnionDB&) = delete;
  TimeUnionDB& operator=(const TimeUnionDB&) = delete;

  // -- Put, §3.4 (the one write call) ---------------------------------------

  /// Applies a whole WriteBatch: ref samples (the §3.4 fast path), labeled
  /// samples (the slow path), and group rows by ref or by tags. This is the
  /// only write call; a single row is a batch of one. Amortizations
  /// relative to one call per row: the write-quiesce gate and admission
  /// check run once per batch (charged with the batch's sample count),
  /// consecutive rows addressing the same series share one shard/stripe
  /// lock acquisition, and the batch's log records — one columnar record
  /// per ref-run — land in a single append (one WAL mutex acquisition).
  ///
  /// Error semantics: row failures are counted in result->rejected with the
  /// first failure in result->first_error while the rest of the batch still
  /// applies, so the returned Status is OK when a row fails — check
  /// result->ok() for the rows. The returned Status is non-OK only for
  /// batch-scoped failures (invalid batch shape, write quiesce, admission
  /// hard reject, WAL append failure) — after which no further rows were
  /// applied.
  ///
  /// Durability: every applied row's WAL record is appended before Write
  /// returns (a SyncWal afterwards makes them crash-durable). Note the
  /// batch's records are logged after its head appends, so two racing
  /// writers hitting the same series with the same timestamp may replay in
  /// either order — exactly as arbitrary as the race itself.
  Status Write(const WriteBatch& batch, WriteResult* result);

  // -- Register (Timeseries), §3.4 ----------------------------------------

  /// Resolves (or registers) a series without appending a sample — lets a
  /// client obtain the fast-path reference up front.
  Status RegisterSeries(const index::Labels& labels, uint64_t* series_ref);

  // -- Get, §3.4 ------------------------------------------------------------

  /// Returns every timeseries matching all of the request's matchers
  /// restricted to [t0, t1] (inclusive), including group members located
  /// through the two-level index. Runs without any global lock: each
  /// matched entry is snapshotted under its shard/entry locks (labels +
  /// open chunk), then the LSM is read lock-free, so the result is a
  /// consistent point-in-time view per series. A thin materializer over
  /// QueryIterators — there is exactly one read pipeline — that moves or
  /// appends each iterator's column batches onto its SeriesResult and
  /// fills `out->stats`. Returns InvalidArgument when t0 > t1, the
  /// matchers are empty, or the request is an aggregate (step_ms > 0: use
  /// AggregateQuery). The wire protocol's query handler maps onto this 1:1.
  Status Query(const query::ReadRequest& request, QueryResult* out);

  /// Streaming variant of Query (§3.4): each matching timeseries comes
  /// with a lazy SampleIterator instead of materialized samples. The
  /// iterators stay valid after this call returns (they pin the LSM
  /// resources they read).
  /// Inherits query::Completeness: under degraded reads
  /// (DBOptions::strict_reads == false), `complete` is false when this
  /// iterator skipped unreachable slow-tier tables and the merged, clamped
  /// spans possibly missing from the stream are in `missing_ranges`.
  struct SeriesIterResult : query::Completeness {
    uint64_t id = 0;
    index::Labels labels;
    std::unique_ptr<SampleIterator> iter;
  };
  /// Validates like Query and rejects aggregate requests.
  /// `stats` (nullable) receives pruning/cache counters; the pointed-to
  /// object must outlive every returned iterator — lazy iterators keep
  /// counting while they are drained.
  Status QueryIterators(const query::ReadRequest& request,
                        std::vector<SeriesIterResult>* out,
                        query::QueryStats* stats = nullptr);

  // -- Continuous aggregates ------------------------------------------------

  /// One matched series' aggregate values, one point per absolute
  /// step-aligned window (window_start = floor(ts / step) * step) that
  /// holds at least one sample in [t0, t1].
  struct AggregateSeries {
    uint64_t id = 0;
    index::Labels labels;
    std::vector<query::AggPoint> points;  // ascending window_start
  };
  /// AggregateQuery output; inherits the same completeness contract as
  /// QueryResult — rollup-served spans never contribute missing ranges
  /// (losing a rollup table demotes its span to the raw path, which then
  /// reports exactly what IT cannot reach).
  struct AggregateResult : query::Completeness {
    std::vector<AggregateSeries> series;
    query::QueryStats stats;
  };
  /// Aggregates every series matching the request's matchers over
  /// [t0, t1] into `step_ms`-wide windows of `fn`
  /// (min/max/sum/count/mean); build the request with
  /// ReadRequest::Aggregate. The planner
  /// serves bucket-aligned interiors from the compaction-maintained rollup
  /// partitions (when `lsm.rollup_granularities_ms` configures a
  /// granularity dividing the step) and falls back to the raw batch path
  /// for unaligned edges, dirty buckets and data still above L2 — both
  /// sides run the same fold kernel, so the mixed answer is bitwise
  /// identical to aggregating the raw samples. Group members always take
  /// the raw path. Returns InvalidArgument for t0 > t1, empty matchers or
  /// step_ms <= 0. Per-path volume lands in out->stats
  /// (rollup_buckets_served / raw_edge_samples). Strictness is honored
  /// like Query's.
  Status AggregateQuery(const query::ReadRequest& request,
                        AggregateResult* out);

  /// Lists all values of a tag name across the index (label-values API).
  /// Serialized against slow-path registration so multi-label inserts are
  /// observed atomically.
  Status ListTagValues(const std::string& tag_name,
                       std::vector<std::string>* values) const;

  // -- Maintenance ----------------------------------------------------------

  /// Flushes all open chunks and memtables down the LSM (test/bench
  /// boundary; production relies on chunk-full flushing). Walks the shards
  /// one entry at a time; concurrent inserts are not blocked globally.
  Status Flush();

  /// Syncs the WAL to stable storage. A sample is only crash-durable
  /// (guaranteed to survive reopen) once a SyncWal after its insert
  /// returned OK. No-op without `enable_wal`.
  Status SyncWal();

  /// Drops data older than `watermark` and purges dead memory objects
  /// (§3.3 data retention). Serializes with registration; appenders are
  /// only blocked shard-by-shard while dead entries are unlinked.
  Status ApplyRetention(int64_t watermark);

  /// Manual recovery trigger after a background error: rotates a poisoned
  /// WAL (replaying its unacked in-memory tail), retries retained flush /
  /// maintenance work, and returns the DB to healthy on success — no
  /// reopen. Works from degraded-writes AND read-only states; fails with
  /// Unavailable when the DB is fatal (manifest corruption: reopen) and
  /// returns the probe's error when recovery itself fails. A no-op OK when
  /// already healthy. The same probe runs automatically from the
  /// maintenance tick (with bounded backoff) while degraded.
  Status Resume();

  /// Current write-path health (relaxed read; safe from any thread).
  DbHealth Health() const { return error_handler_.health(); }

  /// Forces one full integrity pass over every LSM table, synchronously
  /// (corruption drills, tests, operator tooling) — works even when
  /// DBOptions::scrub.enabled is false. `report` (nullable) receives this
  /// pass's scan/repair/quarantine counts. InvalidArgument under the
  /// leveled backend (the scrub needs the two-tier manifest).
  Status ScrubNow(Scrubber::PassReport* report = nullptr);

  // -- Introspection ---------------------------------------------------------

  uint64_t NumSeries() const;
  uint64_t NumGroups() const;
  /// What the Open-time recovery salvaged/dropped (see RecoveryReport).
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  /// The one introspection view: a typed point-in-time metrics snapshot
  /// of every registry instrument (ingest/flush/compaction/query latency
  /// histograms, event trace) plus the external counters folded in under
  /// stable names — tier I/O (fast.* / slow.*), LSM stats (lsm.*), block
  /// cache (cache.*), breaker and admission state, scrub and integrity
  /// counters, the read-pipeline totals (query.*) and the health state
  /// machine (db.health, db.last_background_error). Read single values
  /// with CounterOr0 / GaugeOr0 / FindString. Safe from any thread;
  /// serialize with ToJson() or ToPrometheusText().
  obs::MetricsSnapshot Metrics() const;
  /// The instrument registry (stable pointers, lock-free recording).
  obs::MetricsRegistry& metrics_registry() { return *metrics_; }
  /// The background-error state machine (tests/operator tooling).
  ErrorHandler& error_handler() { return error_handler_; }
  /// Index memory (trie + postings), §3.2 accounting. The index is
  /// internally synchronized; safe from any thread.
  uint64_t IndexMemoryUsage() const;
  cloud::TieredEnv& env() { return *env_; }
  /// The time-partitioned tree; nullptr under the leveled backend.
  lsm::TimePartitionedLsm* time_lsm() { return time_lsm_; }
  /// The leveled tree; nullptr under the time-partitioned backend.
  lsm::LeveledLsm* leveled_lsm() { return leveled_lsm_; }
  lsm::ChunkStore& lsm() { return *lsm_; }

  /// Hints the OS to reclaim mmap'ed index/sample pages (§3.2 swap-out).
  void AdviseMemoryRelease();

 private:
  explicit TimeUnionDB(DBOptions options);

  Status Init();
  Status StartMaintenance();
  /// Loads the WAL, opens the LSM, replays registrations and every record
  /// no flush mark covers, re-logs those into fresh segments and drops the
  /// old ones. Memtable flushes during replay hold their marks back until
  /// the old segments are gone (a mark in the new numbering would cover
  /// old records not yet replayed).
  Status OpenWal();
  Status ReplayRegistration(const WalRecord& r, const WalLog& log);
  Status ReplayRecord(const WalRecord& r, uint64_t mark, WalBatch* relog);

  struct SeriesEntry {
    std::unique_ptr<mem::SeriesHead> head;
    index::Labels labels;
  };
  struct GroupEntry {
    std::unique_ptr<mem::GroupHead> head;
    index::Labels group_labels;
    std::vector<index::Labels> member_labels;  // unique tags per slot
  };

  /// Key→ref registries, sharded by key hash. Each shard's maps are
  /// guarded by its `mu` (shared for lookups; exclusive for registration
  /// inserts and retention erases — both of which also hold `reg_mu_`).
  struct KeyShard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, uint64_t> series_by_key;
    std::unordered_map<std::string, uint64_t> group_by_key;
  };
  /// Ref→entry registries, sharded by ref. Shared lock for ref resolution
  /// (appends, queries, flush); exclusive for registration inserts and
  /// retention erases. Entry pointers are valid only while the shard lock
  /// is held; mutating an entry's head additionally requires its striped
  /// append lock.
  struct EntryShard {
    mutable std::shared_mutex mu;
    std::unordered_map<uint64_t, SeriesEntry> series;
    std::unordered_map<uint64_t, GroupEntry> groups;
  };

  KeyShard& KeyShardFor(const std::string& key) const {
    return key_shards_[std::hash<std::string>{}(key)&shard_mask_];
  }
  EntryShard& EntryShardFor(uint64_t ref) const {
    return entry_shards_[ref & shard_mask_];
  }

  bool LookupSeriesRef(const std::string& key, uint64_t* ref) const;
  bool LookupGroupRef(const std::string& key, uint64_t* ref) const;

  /// Registers a new series (or returns the existing ref). Caller holds
  /// `reg_mu_`.
  Status RegisterSeriesSlow(const index::Labels& sorted,
                            const std::string& key, uint64_t* series_ref);
  /// Registers a new, empty group (or returns the existing ref). Caller
  /// holds `reg_mu_`.
  Status RegisterGroupSlow(const index::Labels& sorted_group,
                           const std::string& group_key, uint64_t* group_ref);

  // -- Batched write pipeline (the bodies behind Write) ---------------------
  //
  // Each helper applies one batch section, encoding the log records of the
  // rows it applied into `wal` (null when the WAL is off); Write appends
  // the whole WalBatch at the end. Row failures are folded into `result`
  // (rejected count + first_error) without aborting.

  /// Ref-addressed samples. Consecutive rows with the same ref share one
  /// shard-lock + stripe-lock acquisition (run detection), which is where
  /// a sorted batch wins over one row per Write.
  void WriteRefSamples(const WriteBatch& batch, WriteResult* result,
                       WalBatch* wal);
  /// Label-addressed samples: resolve-or-register, then append; fills
  /// result->resolved_refs (0 on row failure).
  void WriteLabeledSamples(const WriteBatch& batch, WriteResult* result,
                           WalBatch* wal);
  /// Ref-addressed group rows.
  void WriteGroupRows(const WriteBatch& batch, WriteResult* result,
                      WalBatch* wal);
  /// Label-addressed group rows: resolve-or-register group and members
  /// (registrations go to the WAL's REGISTRY file immediately, which
  /// replay reads before any sample); fills result->resolved_groups.
  void WriteLabeledGroupRows(const WriteBatch& batch, WriteResult* result,
                             WalBatch* wal);

  /// Appends rows [begin, end) of the `ts`/`values` columns to series
  /// `ref` under one shard + stripe lock acquisition, folding each row's
  /// outcome into `result` and encoding the applied rows' log records into
  /// `wal`. Returns NotFound, and touches nothing, when `ref` is unknown.
  /// The one body behind both sample sections (a labeled row is a run of
  /// one once its ref is resolved).
  Status AppendSampleRun(uint64_t ref, const int64_t* ts,
                         const double* values, size_t begin, size_t end,
                         WriteResult* result, WalBatch* wal);
  /// Folds one row failure into `result`.
  static void RowReject(WriteResult* result, const Status& s);

  /// Flush a closed series chunk payload into the LSM + WAL mark. Caller
  /// holds the entry's append lock.
  Status FlushSeriesChunk(mem::SeriesHead* head, bool* flushed);
  Status FlushGroupChunk(GroupEntry* entry, bool* flushed);

  /// Caller holds the entry's append lock.
  Status AppendToSeries(SeriesEntry* entry, int64_t ts, double value);
  /// Appends one row to a group entry and, on success, encodes its log
  /// record into `wal` (nullable). Caller holds the entry's shard and
  /// append locks and has checked `slots` against the member array. Both
  /// group sections of Write and WAL replay append through it.
  Status AppendRowToGroup(GroupEntry* entry,
                          const std::vector<uint32_t>& slots, int64_t ts,
                          const std::vector<double>& values, WalBatch* wal);

  /// One read target of a query: an individual series, or one member of
  /// a group whose group + member tags satisfy every matcher, with its
  /// labels and range-filtered open chunk.
  struct HeadSnapshot {
    uint64_t id = 0;
    index::Labels labels;
    std::vector<compress::Sample> open;
    int member_slot = -1;  ///< -1 for an individual series
  };
  /// Index select, timed into query.index_select_us.
  Status SelectIds(const std::vector<index::TagMatcher>& matchers,
                   index::Postings* ids);
  /// The snapshot step every read shares: appends one snapshot per series
  /// or matching group member among `ids`, under its shard/entry locks.
  Status SnapshotHeads(const std::vector<index::TagMatcher>& matchers,
                       std::span<const uint64_t> ids, int64_t t0, int64_t t1,
                       std::vector<HeadSnapshot>* out);
  /// The one read pipeline both Query and QueryIterators sit on:
  /// SelectIds → SnapshotHeads → one LSM cursor for all series via
  /// ReadContext (planning their slow-tier blocks into one query-wide fetch
  /// plan) → a lazily-seeking MergedSeriesIterator per series on a handle
  /// of that cursor → issue the plan. Performs no input validation
  /// and no stats aggregation; `stats` (nullable) is wired into every
  /// iterator and must outlive them.
  Status QueryIteratorsImpl(const std::vector<index::TagMatcher>& matchers,
                            int64_t t0, int64_t t1, bool allow_partial,
                            std::vector<SeriesIterResult>* out,
                            query::QueryStats* stats);
  /// Resolves a per-request strictness override against
  /// DBOptions::strict_reads.
  bool AllowPartialReads(query::ReadRequest::Strictness s) const;
  /// Folds one finished query's stats into the DB-lifetime totals
  /// surfaced by Metrics() as query.*.
  void AddQueryTotals(const query::QueryStats& stats);

  /// Write-path backpressure (DBOptions::AdmissionControl): checks the
  /// LSM's fast-bytes gauge against the watermarks — OK below soft, one
  /// bounded delay per admitted batch between soft and hard (this is the
  /// batch amortization: per-sample callers ate one delay per sample),
  /// ResourceExhausted at hard. `num_samples` charges the batch's volume
  /// against the refresh cadence. WAL replay bypasses this (it appends
  /// through AppendToSeries directly).
  Status AdmitWrite(uint64_t num_samples);

  /// Appends a registration record to the WAL's REGISTRY file (no-op with
  /// the WAL off); failures go to the error handler like any append.
  Status LogRegistration(const WalRecord& record);

  /// The LSM's on_flush hook: turns a flushed memtable's (id, newest chunk
  /// seq) set into one flush-mark record, clamped so that no mark covers a
  /// sample still in an open chunk (see NoteTooOldChunk).
  void OnMemTableFlushed(const SeqMarks& id_seqs);
  /// A too-old sample became a single-sample chunk stamped `chunk_seq`
  /// while the head's open chunk still holds samples from `open_first_seq`
  /// on: a mark derived from that chunk must stop below them. Caller holds
  /// the entry's append lock.
  void NoteTooOldChunk(uint64_t id, uint64_t chunk_seq,
                       uint64_t open_first_seq);

  /// Enforces DBOptions::wal_purge_bytes after a WAL append: when the live
  /// log is over budget, one writer (the others skip) closes the open
  /// chunks of the ids pinning the oldest segment, flushes the memtables
  /// and marks those ids, which retires the segment.
  void MaybeForceWalFlush();
  Status ForceWalFlush();

  /// One recovery probe: WAL rotation if poisoned, then retained
  /// flush/maintenance retry; reports the outcome to error_handler_.
  /// Shared by the maintenance tick's auto-resume and manual Resume().
  Status TryResumeInternal();

  /// Appends one `{"ts_ms":...,"metrics":{...}}` line to
  /// <workspace>/metrics.jsonl (maintenance tick, when enabled).
  void EmitMetricsLine();

  DBOptions options_;
  /// Declared before env_/lsm_ so the registry outlives everything that
  /// records into it (breaker transition callback, LSM instruments).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  /// Declared before env_/lsm_: the LSM's background workers report into
  /// it via the on_background_error callback until they are torn down.
  ErrorHandler error_handler_;
  std::unique_ptr<cloud::TieredEnv> env_;
  std::unique_ptr<lsm::BlockCache> block_cache_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<index::TagStore> tag_store_;
  std::unique_ptr<mem::ChunkArray> series_chunks_;
  std::unique_ptr<mem::ChunkArray> group_ts_chunks_;
  std::unique_ptr<mem::ChunkArray> group_val_chunks_;
  std::unique_ptr<lsm::ChunkStore> lsm_;
  lsm::TimePartitionedLsm* time_lsm_ = nullptr;  // borrowed view of lsm_
  lsm::LeveledLsm* leveled_lsm_ = nullptr;       // borrowed view of lsm_
  std::unique_ptr<WalWriter> wal_;
  /// Flush-mark state, guarded by marks_mu_: pending too-old clamps by id
  /// ((chunk seq, highest coverable seq), ascending), and — while OpenWal
  /// replays — the marks held back until the old segments are dropped.
  std::mutex marks_mu_;
  std::unordered_map<uint64_t, SeqMarks> mark_clamps_;
  bool replaying_ = false;
  SeqMarks held_marks_;
  /// Live-log budget enforcement: one forcing writer at a time, and the
  /// oldest segment it last forced (forcing it again would not free it).
  std::atomic<bool> forcing_wal_flush_{false};
  uint64_t forced_segment_ = 0;  // written only by the forcing writer

  /// Lock hierarchy (acquire strictly in this order, release any order):
  ///   reg_mu_ → shard mu (one at a time; EntryShard before KeyShard when
  ///   nested) → striped append lock → component-internal locks (index,
  ///   LSM, WAL, chunk arrays). See DESIGN.md "Threading model".
  mutable std::mutex reg_mu_;

  uint32_t shard_mask_ = 0;
  std::unique_ptr<KeyShard[]> key_shards_;
  std::unique_ptr<EntryShard[]> entry_shards_;
  StripedMutexTable append_locks_;

  uint64_t next_id_ = 1;        // guarded by reg_mu_
  int64_t registry_bytes_ = 0;  // guarded by reg_mu_; kTags accounting
  RecoveryReport recovery_report_;

  /// Admission-control state: a write counter that paces gauge refreshes,
  /// the last observed pressure level (0 healthy / 1 soft / 2 hard), and
  /// the outcome counters surfaced by Metrics() as admission.*.
  std::atomic<uint64_t> admission_ops_{0};
  std::atomic<int> admission_level_{0};
  std::atomic<uint64_t> writers_delayed_{0};
  std::atomic<uint64_t> writes_rejected_{0};

  /// DB-lifetime read-pipeline totals (Metrics() query.*). A plain mutex is
  /// fine: queries fold their stats in once, at the end.
  mutable std::mutex query_totals_mu_;
  query::QueryStats query_totals_;  // guarded by query_totals_mu_
  uint64_t queries_run_ = 0;        // guarded by query_totals_mu_

  /// Cached hot-path instruments, registered once in Init.
  obs::Histogram* h_ingest_append_ = nullptr;  // sampled 1-in-64
  obs::Histogram* h_group_append_ = nullptr;   // sampled 1-in-64
  obs::Histogram* h_wal_append_ = nullptr;     // every batch append
  obs::Histogram* h_chunk_flush_ = nullptr;
  obs::Histogram* h_query_e2e_ = nullptr;
  obs::Histogram* h_query_setup_ = nullptr;
  obs::Histogram* h_query_index_select_ = nullptr;
  obs::Counter* c_rows_ = nullptr;
  obs::Counter* c_wal_appends_ = nullptr;  // samples + group rows logged
  obs::Counter* c_wal_forced_flushes_ = nullptr;
  obs::Counter* c_chunk_flushes_ = nullptr;

  /// Per-stripe sample counts, aligned with append_locks_: each cell is
  /// written only under its stripe mutex, so the bump is a plain
  /// load+store (no locked RMW on the append fast path); the atomic is
  /// solely for tear-free reads when Metrics() sums the cells. One cell
  /// per cache line so neighbouring stripes don't false-share.
  struct alignas(64) StripeCell {
    std::atomic<uint64_t> v{0};
    void Bump() { v.store(v.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed); }
  };
  std::unique_ptr<StripeCell[]> sample_cells_;
  uint64_t SumSampleCells() const;

  /// Integrity scrub driver (null under the leveled backend). Declared
  /// before maintenance_: the tick thread calls into it.
  std::unique_ptr<Scrubber> scrubber_;

  // Declared last: its thread must stop before the members above die.
  std::unique_ptr<MaintenanceWorker> maintenance_;
};

}  // namespace tu::core
