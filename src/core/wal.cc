#include "core/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "cloud/fault_injector.h"
#include "compress/chunk.h"
#include "compress/gorilla.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace tu::core {

namespace {

constexpr char kRegistryName[] = "REGISTRY";
constexpr char kSegmentSuffix[] = ".seg";
/// The pre-segment log: one file at the store root.
constexpr char kLegacyWalName[] = "WAL";
constexpr size_t kFrameHeader = 8;

void PutLabels(std::string* out, const index::Labels& labels) {
  PutVarint32(out, static_cast<uint32_t>(labels.size()));
  for (const auto& l : labels) {
    PutLengthPrefixedSlice(out, l.name);
    PutLengthPrefixedSlice(out, l.value);
  }
}

bool GetLabels(Slice* in, index::Labels* labels) {
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  labels->clear();
  labels->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name, value;
    if (!GetLengthPrefixedSlice(in, &name) ||
        !GetLengthPrefixedSlice(in, &value)) {
      return false;
    }
    labels->push_back(index::Label{name.ToString(), value.ToString()});
  }
  return true;
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  memcpy(&v, &bits, sizeof(v));
  return v;
}

void Frame(const std::string& payload, std::string* out) {
  out->clear();
  PutFixed32(out, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  *out += payload;
}

enum class FrameResult { kRecord, kEnd, kTorn, kBad };

/// Reads the next frame off `in`. kTorn: the bytes left are a cut-short
/// frame (a crash mid-append). kBad: a complete frame whose checksum fails.
FrameResult NextFrame(Slice* in, Slice* payload) {
  if (in->empty()) return FrameResult::kEnd;
  if (in->size() < kFrameHeader) return FrameResult::kTorn;
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(in->data()));
  const uint32_t len = DecodeFixed32(in->data() + 4);
  if (in->size() < kFrameHeader + static_cast<size_t>(len)) {
    return FrameResult::kTorn;
  }
  *payload = Slice(in->data() + kFrameHeader, len);
  if (crc32c::Value(payload->data(), payload->size()) != crc) {
    return FrameResult::kBad;
  }
  in->remove_prefix(kFrameHeader + len);
  return FrameResult::kRecord;
}

/// Intact frames left in `in` after a damaged one (skipping the damaged
/// frame by its length field): what a stopped replay drops.
uint64_t CountIntactFrames(Slice in) {
  uint64_t n = 0;
  Slice payload;
  while (true) {
    const FrameResult r = NextFrame(&in, &payload);
    if (r == FrameResult::kRecord) {
      ++n;
    } else if (r == FrameResult::kBad) {
      in.remove_prefix(kFrameHeader + payload.size());
    } else {
      return n;
    }
  }
}

std::string SegmentName(const std::string& dir, uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012" PRIu64, number);
  return dir + "/" + buf + kSegmentSuffix;
}

/// Parses "<digits>.seg"; false for any other name.
bool ParseSegmentName(const std::string& name, uint64_t* number) {
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= suffix ||
      name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  uint64_t n = 0;
  for (size_t i = 0; i + suffix < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    n = n * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *number = n;
  return true;
}

void RaiseAt(std::vector<uint64_t>* v, uint64_t id, uint64_t seq) {
  if (id >= v->size()) v->resize(id + 1, 0);
  (*v)[id] = std::max((*v)[id], seq);
}

uint64_t At(const std::vector<uint64_t>& v, uint64_t id) {
  return id < v.size() ? v[id] : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(record.type));
  switch (record.type) {
    case WalRecordType::kRegisterSeries:
    case WalRecordType::kRegisterGroup:
      PutVarint64(out, record.id);
      PutLabels(out, record.labels);
      break;
    case WalRecordType::kRegisterMember:
      PutVarint64(out, record.id);
      PutVarint32(out, record.slot);
      PutLabels(out, record.labels);
      break;
    case WalRecordType::kSampleRun:
    case WalRecordType::kGroupRow:
      break;  // data records are encoded by WalBatch
    case WalRecordType::kFlushMarks:
      PutVarint32(out, static_cast<uint32_t>(record.marks.size()));
      for (const auto& [id, seq] : record.marks) {
        PutVarint64(out, id);
        PutVarint64(out, seq);
      }
      break;
  }
}

Status DecodeWalRecord(const Slice& payload, WalRecord* record) {
  if (payload.empty()) return Status::Corruption("empty wal record");
  Slice in = payload;
  record->type = static_cast<WalRecordType>(in[0]);
  in.remove_prefix(1);
  auto fail = [] { return Status::Corruption("bad wal record"); };
  switch (record->type) {
    case WalRecordType::kRegisterSeries:
    case WalRecordType::kRegisterGroup:
      if (!GetVarint64(&in, &record->id) || !GetLabels(&in, &record->labels)) {
        return fail();
      }
      return Status::OK();
    case WalRecordType::kRegisterMember:
      if (!GetVarint64(&in, &record->id) || !GetVarint32(&in, &record->slot) ||
          !GetLabels(&in, &record->labels)) {
        return fail();
      }
      return Status::OK();
    case WalRecordType::kSampleRun: {
      if (!GetVarint64(&in, &record->id)) return fail();
      Slice chunk = in;
      if (!GetVarint64(&in, &record->seq)) return fail();
      query::SampleBatch batch;
      if (!compress::DecodeSeriesChunkBatch(chunk, &batch).ok() ||
          batch.timestamps.empty()) {
        return fail();
      }
      record->timestamps = std::move(batch.timestamps);
      record->values = std::move(batch.values);
      return Status::OK();
    }
    case WalRecordType::kGroupRow: {
      uint32_t n = 0;
      if (!GetVarint64(&in, &record->id) || !GetVarint64(&in, &record->seq) ||
          in.size() < 8) {
        return fail();
      }
      record->ts = static_cast<int64_t>(DecodeFixed64(in.data()));
      in.remove_prefix(8);
      if (!GetVarint32(&in, &n)) return fail();
      record->slots.clear();
      record->values.clear();
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t slot = 0;
        if (!GetVarint32(&in, &slot) || in.size() < 8) return fail();
        record->slots.push_back(slot);
        record->values.push_back(BitsDouble(DecodeFixed64(in.data())));
        in.remove_prefix(8);
      }
      return Status::OK();
    }
    case WalRecordType::kFlushMarks: {
      uint32_t n = 0;
      if (!GetVarint32(&in, &n)) return fail();
      record->marks.clear();
      record->marks.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t id = 0, seq = 0;
        if (!GetVarint64(&in, &id) || !GetVarint64(&in, &seq)) return fail();
        record->marks.emplace_back(id, seq);
      }
      return Status::OK();
    }
  }
  return fail();
}

// ---------------------------------------------------------------------------
// WalBatch
// ---------------------------------------------------------------------------

void WalBatch::Clear() {
  data_.clear();
  id_seqs_.clear();
  entries_ = 0;
}

size_t WalBatch::BeginRecord(WalRecordType type) {
  const size_t start = data_.size();
  data_.append(kFrameHeader, '\0');
  data_.push_back(static_cast<char>(type));
  return start;
}

void WalBatch::EndRecord(size_t start) {
  const char* payload = data_.data() + start + kFrameHeader;
  const size_t len = data_.size() - start - kFrameHeader;
  EncodeFixed32(data_.data() + start,
                crc32c::Mask(crc32c::Value(payload, len)));
  EncodeFixed32(data_.data() + start + 4, static_cast<uint32_t>(len));
}

void WalBatch::AddSampleRun(uint64_t id, uint64_t base_seq, const int64_t* ts,
                            const double* values, size_t n) {
  // Worst case per sample: 68 timestamp bits, 77 value bits.
  const size_t cap = n * 10 + 16;
  ts_bits_.resize(cap);
  val_bits_.resize(cap);
  compress::BitWriter ts_writer(ts_bits_.data(), cap);
  compress::BitWriter val_writer(val_bits_.data(), cap);
  compress::TimestampEncoder ts_enc;
  compress::ValueEncoder val_enc;
  for (size_t i = 0; i < n; ++i) {
    ts_enc.Append(&ts_writer, ts[i]);
    val_enc.Append(&val_writer, values[i]);
  }
  const size_t start = BeginRecord(WalRecordType::kSampleRun);
  PutVarint64(&data_, id);
  PutVarint64(&data_, base_seq);
  PutVarint32(&data_, static_cast<uint32_t>(n));
  PutVarint32(&data_, static_cast<uint32_t>(ts_writer.BytesUsed()));
  data_.append(ts_bits_.data(), ts_writer.BytesUsed());
  PutVarint32(&data_, static_cast<uint32_t>(val_writer.BytesUsed()));
  data_.append(val_bits_.data(), val_writer.BytesUsed());
  EndRecord(start);
  id_seqs_.emplace_back(id, base_seq + n - 1);
  entries_ += n;
}

void WalBatch::AddGroupRow(uint64_t id, uint64_t seq, int64_t ts,
                           const std::vector<uint32_t>& slots,
                           const std::vector<double>& values) {
  const size_t start = BeginRecord(WalRecordType::kGroupRow);
  PutVarint64(&data_, id);
  PutVarint64(&data_, seq);
  PutFixed64(&data_, static_cast<uint64_t>(ts));
  PutVarint32(&data_, static_cast<uint32_t>(slots.size()));
  for (size_t i = 0; i < slots.size(); ++i) {
    PutVarint32(&data_, slots[i]);
    PutFixed64(&data_, DoubleBits(values[i]));
  }
  EndRecord(start);
  id_seqs_.emplace_back(id, seq);
  ++entries_;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

std::string WalReplayStats::ToString() const {
  std::ostringstream os;
  os << "applied=" << records_applied;
  if (Clean()) {
    os << (torn_tail ? " torn_tail" : " clean_eof");
  } else {
    os << " corruption_at=" << corruption_file << ":" << corruption_offset
       << " dropped_records=" << records_dropped
       << " dropped_bytes=" << bytes_dropped;
  }
  return os.str();
}

Status WalLog::Load(cloud::BlockStore* store, const std::string& dir,
                    WalLog* out) {
  *out = WalLog();
  if (store->FileExists(kLegacyWalName).ok()) {
    return Status::InvalidArgument(
        "legacy single-file WAL " + store->FullPath(kLegacyWalName) +
        " is not replayed by the segmented log; replay it with the release "
        "that wrote it, or remove it to discard its records");
  }
  WalReplayStats& stats = out->stats_;
  stats.clean_eof = true;

  std::string registry;
  Status s = store->ReadFileToString(dir + "/" + kRegistryName, &registry);
  if (!s.ok() && !s.IsNotFound()) return s;
  Slice in(registry);
  Slice payload;
  while (true) {
    const size_t offset = registry.size() - in.size();
    const FrameResult r = NextFrame(&in, &payload);
    if (r == FrameResult::kEnd) break;
    if (r == FrameResult::kTorn) {
      stats.torn_tail = true;
      stats.clean_eof = false;
      break;
    }
    WalRecord record;
    if (r == FrameResult::kBad || !DecodeWalRecord(payload, &record).ok()) {
      return Status::Corruption("wal registry damaged at offset " +
                                std::to_string(offset));
    }
    out->registrations_.push_back(std::move(record));
    stats.records_applied++;
  }
  out->registry_valid_bytes_ = registry.size() - in.size();
  out->registry_file_bytes_ = registry.size();

  std::vector<std::string> names;
  if (store->FileExists(dir).ok()) {
    TU_RETURN_IF_ERROR(store->ListDir(dir, &names));
  }
  std::vector<uint64_t> numbers;
  for (const std::string& name : names) {
    uint64_t number = 0;
    if (ParseSegmentName(name, &number)) numbers.push_back(number);
  }
  std::sort(numbers.begin(), numbers.end());

  // Index every segment up to the first damaged frame; past it nothing is
  // trusted, not even marks (their order relative to the gap is unknown).
  for (uint64_t number : numbers) {
    SegmentData seg;
    seg.number = number;
    seg.name = SegmentName(dir, number);
    TU_RETURN_IF_ERROR(store->ReadFileToString(seg.name, &seg.bytes));
    if (!stats.Clean()) {
      stats.bytes_dropped += seg.bytes.size();
      stats.records_dropped += CountIntactFrames(seg.bytes);
      out->segments_.push_back(std::move(seg));
      continue;
    }
    Slice seg_in(seg.bytes);
    while (true) {
      const size_t offset = seg.bytes.size() - seg_in.size();
      const FrameResult r = NextFrame(&seg_in, &payload);
      if (r == FrameResult::kEnd) break;
      if (r == FrameResult::kTorn) {
        stats.torn_tail = true;
        stats.clean_eof = false;
        break;
      }
      WalRecord record;
      if (r == FrameResult::kBad || !DecodeWalRecord(payload, &record).ok()) {
        Slice rest(seg.bytes.data() + offset, seg.bytes.size() - offset);
        stats.corruption_file = seg.name;
        stats.corruption_offset = offset;
        stats.bytes_dropped = rest.size();
        rest.remove_prefix(std::min(rest.size(), kFrameHeader + payload.size()));
        stats.records_dropped = CountIntactFrames(rest);
        stats.clean_eof = false;
        break;
      }
      switch (record.type) {
        case WalRecordType::kSampleRun:
          RaiseAt(&out->floors_, record.id,
                  record.seq + record.timestamps.size() - 1);
          break;
        case WalRecordType::kGroupRow:
          RaiseAt(&out->floors_, record.id, record.seq);
          break;
        case WalRecordType::kFlushMarks:
          for (const auto& [id, seq] : record.marks) {
            RaiseAt(&out->marks_, id, seq);
          }
          break;
        default:
          break;  // registrations live in REGISTRY only
      }
      stats.records_applied++;
    }
    seg.valid_bytes = stats.Clean()
                          ? seg.bytes.size() - seg_in.size()
                          : static_cast<size_t>(stats.corruption_offset);
    out->segments_.push_back(std::move(seg));
  }
  for (uint64_t id = 0; id < out->marks_.size(); ++id) {
    RaiseAt(&out->floors_, id, out->marks_[id]);
  }
  return Status::OK();
}

Status WalLog::ForEachRecord(
    const std::function<Status(const WalRecord&)>& fn) const {
  for (const SegmentData& seg : segments_) {
    Slice in(seg.bytes.data(), seg.valid_bytes);
    Slice payload;
    while (NextFrame(&in, &payload) == FrameResult::kRecord) {
      WalRecord record;
      TU_RETURN_IF_ERROR(DecodeWalRecord(payload, &record));
      TU_RETURN_IF_ERROR(fn(record));
    }
  }
  return Status::OK();
}

uint64_t WalLog::mark(uint64_t id) const { return At(marks_, id); }

uint64_t WalLog::seq_floor(uint64_t id) const { return At(floors_, id); }

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

WalWriter::WalWriter(cloud::BlockStore* store, std::string dir,
                     uint64_t segment_bytes, obs::MetricsRegistry* metrics)
    : store_(store), dir_(std::move(dir)), segment_bytes_(segment_bytes) {
  if (metrics != nullptr) {
    g_segments_live_ = metrics->gauge("wal.segments_live");
    g_live_bytes_ = metrics->gauge("wal.live_bytes");
    c_segments_deleted_ = metrics->counter("wal.segments_deleted");
    h_seal_sync_ = metrics->histogram("wal.seal_sync_us");
  }
}

Status WalWriter::Open(const WalLog& log) {
  std::lock_guard<std::mutex> lock(mu_);
  TU_RETURN_IF_ERROR(store_->CreateDir(dir_));
  registry_ = LogFile();
  registry_.name = dir_ + "/" + kRegistryName;
  if (log.registry_valid_bytes_ < log.registry_file_bytes_) {
    // A torn final registration: appending past it would turn a benign
    // tail into mid-file damage, so keep only the intact prefix.
    std::string intact;
    TU_RETURN_IF_ERROR(store_->ReadFileToString(registry_.name, &intact));
    intact.resize(log.registry_valid_bytes_);
    TU_RETURN_IF_ERROR(store_->WriteStringToFile(registry_.name, intact));
  }
  std::unique_ptr<cloud::WritableFile> file;
  TU_RETURN_IF_ERROR(store_->NewAppendableFile(registry_.name, &file));
  registry_.file = std::move(file);
  registry_.size = registry_.synced = log.registry_valid_bytes_;

  segments_.clear();
  marks_.clear();
  replayed_.clear();
  next_number_ = 1;
  for (const WalLog::SegmentData& seg : log.segments_) {
    replayed_.push_back(seg.name);
    next_number_ = seg.number + 1;
  }
  poison_ = Status::OK();
  return StartSegmentLocked();
}

Status WalWriter::StartSegmentLocked() {
  Segment seg;
  seg.number = next_number_++;
  seg.name = SegmentName(dir_, seg.number);
  std::unique_ptr<cloud::WritableFile> file;
  Status s = store_->NewWritableFile(seg.name, &file);
  if (!s.ok()) {
    // No active segment to append to: every append must fail until
    // Rotate() starts one.
    poison_ = s;
    return s;
  }
  seg.file = std::move(file);
  segments_.push_back(std::move(seg));
  PublishLocked();
  return Status::OK();
}

void WalWriter::PublishLocked() {
  uint64_t bytes = 0;
  for (const Segment& seg : segments_) bytes += seg.size;
  live_bytes_.store(bytes, std::memory_order_relaxed);
  if (g_segments_live_ != nullptr) {
    g_segments_live_->Set(static_cast<int64_t>(segments_.size()));
    g_live_bytes_->Set(static_cast<int64_t>(bytes));
  }
}

WalWriter::Segment* WalWriter::FindLocked(uint64_t number) {
  for (Segment& seg : segments_) {
    if (seg.number == number) return &seg;
  }
  return nullptr;
}

Status WalWriter::AppendLocked(LogFile* f, const Slice& framed) {
  Status s = f->file->Append(framed);
  if (!s.ok()) {
    // A failed append (ENOSPC, I/O error) may have landed a partial frame.
    // Appending more after it would turn a benign torn tail into mid-log
    // damage that replay cannot cross — poison until Rotate() rebuilds
    // the file from what is known good.
    f->failed = true;
    poison_ = s;
    return s;
  }
  f->size += framed.size();
  f->pending.append(framed.data(), framed.size());
  return s;
}

Status WalWriter::SyncLocked(LogFile* f) {
  if (f->synced == f->size) return Status::OK();
  Status s = f->file->Sync();
  if (!s.ok()) {
    f->failed = true;
    poison_ = s;
    return s;
  }
  f->synced = f->size;
  std::string().swap(f->pending);
  return s;
}

Status WalWriter::AppendRegistration(const WalRecord& record) {
  std::string payload, framed;
  EncodeWalRecord(record, &payload);
  Frame(payload, &framed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  // Crash here = the process died before the record reached the log: the
  // write was never acknowledged, so replay correctly omits it.
  cloud::CrashPoint(store_->fault(), "wal.append");
  return AppendLocked(&registry_, framed);
}

Status WalWriter::Append(const WalBatch& batch) {
  if (batch.empty()) return Status::OK();
  std::shared_ptr<cloud::WritableFile> sealed;
  uint64_t sealed_number = 0;
  Status s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!poison_.ok()) return poison_;
    cloud::CrashPoint(store_->fault(), "wal.append");
    Segment* active = &segments_.back();
    if (active->size > 0 &&
        active->size + batch.data().size() > segment_bytes_) {
      // Seal: the segment takes no more appends. Unless a Sync already
      // made it durable, this writer syncs it once the mutex is released.
      cloud::CrashPoint(store_->fault(), "wal.seal");
      if (active->synced < active->size) {
        sealed = active->file;
        sealed_number = active->number;
      } else {
        active->file.reset();
      }
      TU_RETURN_IF_ERROR(StartSegmentLocked());
      active = &segments_.back();
    }
    s = AppendLocked(active, batch.data());
    if (s.ok()) {
      for (const auto& [id, seq] : batch.id_seqs()) {
        RaiseAt(&active->max_seq, id, seq);
      }
      PublishLocked();
    }
  }
  if (sealed != nullptr) {
    const Status ss = SyncSealed(sealed_number, sealed);
    if (s.ok()) s = ss;
  }
  return s;
}

Status WalWriter::SyncSealed(uint64_t number,
                             const std::shared_ptr<cloud::WritableFile>& file) {
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Segment* seg = FindLocked(number);
    // Already deleted (every id covered) or synced by a racing Sync().
    if (seg == nullptr || seg->synced == seg->size) return Status::OK();
    if (!poison_.ok()) return poison_;
    // The registrations a segment's records reference reach disk first.
    TU_RETURN_IF_ERROR(SyncLocked(&registry_));
  }
  const uint64_t start_us = obs::MonotonicUs();
  const Status s = file->Sync();
  if (h_seal_sync_ != nullptr) {
    h_seal_sync_->Observe(obs::MonotonicUs() - start_us);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Segment* seg = FindLocked(number);
  if (!s.ok()) {
    if (seg != nullptr) seg->failed = true;
    if (poison_.ok()) poison_ = s;
    return s;
  }
  if (seg != nullptr) {
    seg->synced = seg->size;
    std::string().swap(seg->pending);
    seg->file.reset();
  }
  return s;
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  TU_RETURN_IF_ERROR(SyncLocked(&registry_));
  for (Segment& seg : segments_) {
    TU_RETURN_IF_ERROR(SyncLocked(&seg));
    if (&seg != &segments_.back()) seg.file.reset();
  }
  return Status::OK();
}

Status WalWriter::AppendMarks(const SeqMarks& marks) {
  if (marks.empty()) return Status::OK();
  WalRecord record;
  record.type = WalRecordType::kFlushMarks;
  record.marks = marks;
  std::string payload, framed;
  EncodeWalRecord(record, &payload);
  Frame(payload, &framed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  TU_RETURN_IF_ERROR(AppendLocked(&segments_.back(), framed));
  for (const auto& [id, seq] : marks) RaiseAt(&marks_, id, seq);
  DeleteCoveredLocked();
  PublishLocked();
  return Status::OK();
}

bool WalWriter::CoveredLocked(const Segment& seg) const {
  for (uint64_t id = 0; id < seg.max_seq.size(); ++id) {
    if (seg.max_seq[id] > At(marks_, id)) return false;
  }
  return true;
}

void WalWriter::DeleteCoveredLocked() {
  // Marks are written after their chunks' tables are durably in the
  // manifest, so a covered segment holds nothing replay would still need.
  // A failed unlink keeps the segment; the next mark retries it.
  while (segments_.size() > 1 && CoveredLocked(segments_.front())) {
    cloud::CrashPoint(store_->fault(), "wal.segment_delete");
    const Status s = store_->DeleteFile(segments_.front().name);
    if (!s.ok() && !s.IsNotFound()) return;
    segments_.pop_front();
    if (c_segments_deleted_ != nullptr) c_segments_deleted_->Add();
  }
  Segment& active = segments_.back();
  if (segments_.size() == 1 && active.size > 0 && CoveredLocked(active)) {
    // Nothing in the whole log is needed any more (typically after a full
    // Flush; marks alone cover nothing left): retire the active segment
    // as well.
    const std::string name = active.name;
    if (!StartSegmentLocked().ok()) return;
    cloud::CrashPoint(store_->fault(), "wal.segment_delete");
    const Status s = store_->DeleteFile(name);
    if (!s.ok() && !s.IsNotFound()) return;
    segments_.pop_front();
    if (c_segments_deleted_ != nullptr) c_segments_deleted_->Add();
  }
}

SeqMarks WalWriter::PinningIds(uint64_t* segment) const {
  std::lock_guard<std::mutex> lock(mu_);
  SeqMarks pinning;
  *segment = 0;
  if (segments_.size() < 2) return pinning;
  const Segment& oldest = segments_.front();
  *segment = oldest.number;
  for (uint64_t id = 0; id < oldest.max_seq.size(); ++id) {
    if (oldest.max_seq[id] > At(marks_, id)) {
      pinning.emplace_back(id, oldest.max_seq[id]);
    }
  }
  return pinning;
}

Status WalWriter::poison() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poison_;
}

Status WalWriter::RebuildLocked(LogFile* f) {
  // The synced prefix on disk plus the in-memory tail is exactly what was
  // appended OK. The unsynced on-disk region is deliberately ignored: after
  // a failed fsync those pages' durability is unknowable.
  std::string disk;
  const Status rs = store_->ReadFileToString(f->name, &disk);
  if (!rs.ok() && !rs.IsNotFound()) return rs;
  std::string content =
      disk.substr(0, std::min<size_t>(f->synced, disk.size()));
  content += f->pending;
  const std::string tmp = f->name + ".rot";
  store_->DeleteFile(tmp);  // stale leftover from a crashed rotation
  std::unique_ptr<cloud::WritableFile> fresh;
  TU_RETURN_IF_ERROR(store_->NewWritableFile(tmp, &fresh));
  if (!content.empty()) TU_RETURN_IF_ERROR(fresh->Append(content));
  TU_RETURN_IF_ERROR(fresh->Sync());
  TU_RETURN_IF_ERROR(fresh->Close());
  f->file.reset();  // the poisoned fd is abandoned, never fsynced again
  TU_RETURN_IF_ERROR(store_->RenameFile(tmp, f->name));
  f->size = f->synced = content.size();
  std::string().swap(f->pending);
  f->failed = false;
  return Status::OK();
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (registry_.failed || registry_.synced < registry_.size) {
    TU_RETURN_IF_ERROR(RebuildLocked(&registry_));
    std::unique_ptr<cloud::WritableFile> file;
    TU_RETURN_IF_ERROR(store_->NewAppendableFile(registry_.name, &file));
    registry_.file = std::move(file);
  }
  // Sealed segments only need this when their own seal sync failed; the
  // active segment's fd is always replaced, since a failed append may have
  // left a partial frame past its last good record.
  for (Segment& seg : segments_) {
    const bool active = &seg == &segments_.back();
    if (active || seg.failed || seg.synced < seg.size) {
      TU_RETURN_IF_ERROR(RebuildLocked(&seg));
    }
  }
  poison_ = Status::OK();
  return StartSegmentLocked();
}

Status WalWriter::DropReplayedSegments() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : replayed_) {
    const Status s = store_->DeleteFile(name);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  replayed_.clear();
  return Status::OK();
}

}  // namespace tu::core
