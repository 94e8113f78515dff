#include "server/protocol.h"

#include <bit>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/slice.h"

namespace tu::server {

namespace {

constexpr size_t kMaxVarint32Bytes = 5;
constexpr size_t kMaxVarint64Bytes = 10;

void PutLp(std::string* dst, const std::string& s) {
  PutLengthPrefixedSlice(dst, Slice(s));
}

bool GetLp(Slice* in, std::string* out) {
  Slice s;
  if (!GetLengthPrefixedSlice(in, &s)) return false;
  out->assign(s.data(), s.size());
  return true;
}

void PutDouble(std::string* dst, double v) {
  PutFixed64(dst, std::bit_cast<uint64_t>(v));
}

bool GetFixed64(Slice* in, uint64_t* v) {
  if (in->size() < 8) return false;
  *v = DecodeFixed64(in->data());
  in->remove_prefix(8);
  return true;
}

bool GetDouble(Slice* in, double* v) {
  uint64_t bits = 0;
  if (!GetFixed64(in, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool GetInt64(Slice* in, int64_t* v) {
  uint64_t bits = 0;
  if (!GetFixed64(in, &bits)) return false;
  *v = static_cast<int64_t>(bits);
  return true;
}

void PutLabels(std::string* dst, const index::Labels& labels) {
  PutVarint32(dst, static_cast<uint32_t>(labels.size()));
  for (const index::Label& l : labels) {
    PutLp(dst, l.name);
    PutLp(dst, l.value);
  }
}

bool GetLabels(Slice* in, index::Labels* labels) {
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  // Cap pathological counts before the reserve: a label set on the wire
  // needs at least 2 bytes per label.
  if (n > in->size() / 2 + 1) return false;
  labels->clear();
  labels->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    index::Label l;
    if (!GetLp(in, &l.name) || !GetLp(in, &l.value)) return false;
    labels->push_back(std::move(l));
  }
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

}  // namespace

Status MakeStatus(Status::Code code, const std::string& message) {
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kBusy:
      return Status::Busy(message);
    case Status::Code::kOutOfSpace:
      return Status::OutOfSpace(message);
    case Status::Code::kUnavailable:
      return Status::Unavailable(message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(message);
  }
  return Status::InvalidArgument("unknown status code: " + message);
}

void EncodeFrame(MsgType type, const std::string& body, std::string* out) {
  const char type_byte = static_cast<char>(type);
  const uint32_t crc = crc32c::Extend(crc32c::Value(&type_byte, 1),
                                      body.data(), body.size());
  out->reserve(out->size() + kFrameHeaderBytes + 1 + body.size());
  PutFixed32(out, static_cast<uint32_t>(1 + body.size()));
  PutFixed32(out, crc32c::Mask(crc));
  out->push_back(type_byte);
  out->append(body);
}

// -- WriteReq ---------------------------------------------------------------

void EncodeWriteReq(uint64_t request_id, const std::string& tenant,
                    const core::WriteBatch& b, std::string* body) {
  PutVarint64(body, request_id);
  PutLp(body, tenant);
  PutVarint32(body, static_cast<uint32_t>(b.sample_refs.size()));
  for (size_t i = 0; i < b.sample_refs.size(); ++i) {
    PutVarint64(body, b.sample_refs[i]);
    PutFixed64(body, static_cast<uint64_t>(b.sample_ts[i]));
    PutDouble(body, b.sample_values[i]);
  }
  PutVarint32(body, static_cast<uint32_t>(b.labeled_samples.size()));
  for (const core::WriteBatch::LabeledSample& row : b.labeled_samples) {
    PutLabels(body, row.labels);
    PutFixed64(body, static_cast<uint64_t>(row.ts));
    PutDouble(body, row.value);
  }
  PutVarint32(body, static_cast<uint32_t>(b.group_rows.size()));
  for (const core::WriteBatch::GroupRow& row : b.group_rows) {
    PutVarint64(body, row.group_ref);
    PutFixed64(body, static_cast<uint64_t>(row.ts));
    PutVarint32(body, static_cast<uint32_t>(row.slots.size()));
    for (size_t i = 0; i < row.slots.size(); ++i) {
      PutVarint32(body, row.slots[i]);
      PutDouble(body, row.values[i]);
    }
  }
  PutVarint32(body, static_cast<uint32_t>(b.labeled_group_rows.size()));
  for (const core::WriteBatch::LabeledGroupRow& row : b.labeled_group_rows) {
    PutLabels(body, row.group_tags);
    PutFixed64(body, static_cast<uint64_t>(row.ts));
    PutVarint32(body, static_cast<uint32_t>(row.member_tags.size()));
    for (size_t i = 0; i < row.member_tags.size(); ++i) {
      PutLabels(body, row.member_tags[i]);
      PutDouble(body, row.values[i]);
    }
  }
}

Status DecodeWriteReq(const Slice& payload, WriteReq* req) {
  Slice in = payload;
  req->batch.Clear();
  if (!GetVarint64(&in, &req->request_id)) return Malformed("request id");
  if (!GetLp(&in, &req->tenant)) return Malformed("tenant");

  uint32_t n = 0;
  if (!GetVarint32(&in, &n)) return Malformed("ref sample count");
  if (n > in.size() / 17 + 1) return Malformed("ref sample count");
  core::WriteBatch* b = &req->batch;
  b->sample_refs.reserve(n);
  b->sample_ts.reserve(n);
  b->sample_values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t ref = 0;
    int64_t ts = 0;
    double value = 0;
    if (!GetVarint64(&in, &ref) || !GetInt64(&in, &ts) ||
        !GetDouble(&in, &value)) {
      return Malformed("ref sample");
    }
    b->AddSample(ref, ts, value);
  }

  if (!GetVarint32(&in, &n)) return Malformed("labeled sample count");
  if (n > in.size() / 17 + 1) return Malformed("labeled sample count");
  b->labeled_samples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::WriteBatch::LabeledSample row;
    if (!GetLabels(&in, &row.labels) || !GetInt64(&in, &row.ts) ||
        !GetDouble(&in, &row.value)) {
      return Malformed("labeled sample");
    }
    b->labeled_samples.push_back(std::move(row));
  }

  if (!GetVarint32(&in, &n)) return Malformed("group row count");
  if (n > in.size() / 10 + 1) return Malformed("group row count");
  b->group_rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::WriteBatch::GroupRow row;
    uint32_t slots = 0;
    if (!GetVarint64(&in, &row.group_ref) || !GetInt64(&in, &row.ts) ||
        !GetVarint32(&in, &slots)) {
      return Malformed("group row");
    }
    if (slots > in.size() / 9 + 1) return Malformed("group row slot count");
    row.slots.reserve(slots);
    row.values.reserve(slots);
    for (uint32_t s = 0; s < slots; ++s) {
      uint32_t slot = 0;
      double value = 0;
      if (!GetVarint32(&in, &slot) || !GetDouble(&in, &value)) {
        return Malformed("group row slot");
      }
      row.slots.push_back(slot);
      row.values.push_back(value);
    }
    b->group_rows.push_back(std::move(row));
  }

  if (!GetVarint32(&in, &n)) return Malformed("labeled group count");
  if (n > in.size() / 10 + 1) return Malformed("labeled group count");
  b->labeled_group_rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::WriteBatch::LabeledGroupRow row;
    uint32_t members = 0;
    if (!GetLabels(&in, &row.group_tags) || !GetInt64(&in, &row.ts) ||
        !GetVarint32(&in, &members)) {
      return Malformed("labeled group row");
    }
    if (members > in.size() / 9 + 1) return Malformed("member count");
    row.member_tags.reserve(members);
    row.values.reserve(members);
    for (uint32_t m = 0; m < members; ++m) {
      index::Labels tags;
      double value = 0;
      if (!GetLabels(&in, &tags) || !GetDouble(&in, &value)) {
        return Malformed("member row");
      }
      row.member_tags.push_back(std::move(tags));
      row.values.push_back(value);
    }
    b->labeled_group_rows.push_back(std::move(row));
  }
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// -- WriteResp --------------------------------------------------------------

void EncodeWriteResp(const WriteResp& resp, std::string* body) {
  PutVarint64(body, resp.request_id);
  body->push_back(static_cast<char>(resp.code));
  PutLp(body, resp.message);
  PutVarint64(body, resp.appended);
  PutVarint64(body, resp.rejected);
  PutVarint32(body, static_cast<uint32_t>(resp.resolved_refs.size()));
  for (uint64_t ref : resp.resolved_refs) PutVarint64(body, ref);
  PutVarint32(body, static_cast<uint32_t>(resp.resolved_groups.size()));
  for (const WriteResp::ResolvedGroup& g : resp.resolved_groups) {
    PutVarint64(body, g.group_ref);
    PutVarint32(body, static_cast<uint32_t>(g.slots.size()));
    for (uint32_t slot : g.slots) PutVarint32(body, slot);
  }
}

Status DecodeWriteResp(const Slice& payload, WriteResp* resp) {
  Slice in = payload;
  if (!GetVarint64(&in, &resp->request_id)) return Malformed("request id");
  if (in.empty()) return Malformed("status code");
  resp->code = static_cast<Status::Code>(in.data()[0]);
  in.remove_prefix(1);
  if (!GetLp(&in, &resp->message)) return Malformed("status message");
  if (!GetVarint64(&in, &resp->appended) ||
      !GetVarint64(&in, &resp->rejected)) {
    return Malformed("row counts");
  }
  uint32_t n = 0;
  if (!GetVarint32(&in, &n)) return Malformed("resolved ref count");
  if (n > in.size() + 1) return Malformed("resolved ref count");
  resp->resolved_refs.clear();
  resp->resolved_refs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t ref = 0;
    if (!GetVarint64(&in, &ref)) return Malformed("resolved ref");
    resp->resolved_refs.push_back(ref);
  }
  if (!GetVarint32(&in, &n)) return Malformed("resolved group count");
  if (n > in.size() + 1) return Malformed("resolved group count");
  resp->resolved_groups.clear();
  resp->resolved_groups.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WriteResp::ResolvedGroup g;
    uint32_t slots = 0;
    if (!GetVarint64(&in, &g.group_ref) || !GetVarint32(&in, &slots)) {
      return Malformed("resolved group");
    }
    if (slots > in.size() + 1) return Malformed("resolved group slots");
    g.slots.reserve(slots);
    for (uint32_t s = 0; s < slots; ++s) {
      uint32_t slot = 0;
      if (!GetVarint32(&in, &slot)) return Malformed("resolved slot");
      g.slots.push_back(slot);
    }
    resp->resolved_groups.push_back(std::move(g));
  }
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// -- QueryReq ---------------------------------------------------------------

void EncodeQueryReq(const QueryReq& req, std::string* body) {
  PutVarint64(body, req.request_id);
  PutLp(body, req.tenant);
  PutVarint32(body, static_cast<uint32_t>(req.matchers.size()));
  for (const index::TagMatcher& m : req.matchers) {
    body->push_back(m.type == index::TagMatcher::Type::kRegex ? 1 : 0);
    PutLp(body, m.name);
    PutLp(body, m.value);
  }
  PutFixed64(body, static_cast<uint64_t>(req.t0));
  PutFixed64(body, static_cast<uint64_t>(req.t1));
  body->push_back(static_cast<char>(req.strictness));
  PutVarint64(body, static_cast<uint64_t>(req.step_ms));
  body->push_back(static_cast<char>(req.fn));
}

Status DecodeQueryReq(const Slice& payload, QueryReq* req) {
  Slice in = payload;
  if (!GetVarint64(&in, &req->request_id)) return Malformed("request id");
  if (!GetLp(&in, &req->tenant)) return Malformed("tenant");
  uint32_t n = 0;
  if (!GetVarint32(&in, &n)) return Malformed("matcher count");
  if (n > in.size() / 3 + 1) return Malformed("matcher count");
  req->matchers.clear();
  req->matchers.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (in.empty()) return Malformed("matcher type");
    const uint8_t type = static_cast<uint8_t>(in.data()[0]);
    in.remove_prefix(1);
    if (type > 1) return Malformed("matcher type");
    index::TagMatcher m;
    m.type = type == 1 ? index::TagMatcher::Type::kRegex
                       : index::TagMatcher::Type::kEqual;
    if (!GetLp(&in, &m.name) || !GetLp(&in, &m.value)) {
      return Malformed("matcher");
    }
    req->matchers.push_back(std::move(m));
  }
  if (!GetInt64(&in, &req->t0) || !GetInt64(&in, &req->t1)) {
    return Malformed("time range");
  }
  if (in.empty()) return Malformed("strictness");
  req->strictness = static_cast<uint8_t>(in.data()[0]);
  in.remove_prefix(1);
  uint64_t step = 0;
  if (!GetVarint64(&in, &step)) return Malformed("step");
  req->step_ms = static_cast<int64_t>(step);
  if (in.empty()) return Malformed("agg fn");
  req->fn = static_cast<uint8_t>(in.data()[0]);
  in.remove_prefix(1);
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// -- QueryResp --------------------------------------------------------------

void EncodeQueryResp(const QueryResp& resp, std::string* body) {
  // Reserve the exact body size up front (varints at their maximum width
  // in the fixed header and trailer), so the string never reallocates.
  size_t bytes = kMaxVarint64Bytes + 1 + kMaxVarint32Bytes +
                 resp.message.size() + kMaxVarint32Bytes;
  for (const QueryResp::Series& s : resp.series) {
    bytes += VarintLength(s.labels.size());
    for (const index::Label& l : s.labels) {
      bytes += VarintLength(l.name.size()) + l.name.size() +
               VarintLength(l.value.size()) + l.value.size();
    }
    bytes += VarintLength(s.timestamps.size()) + s.timestamps.size() * 16;
  }
  bytes += kMaxVarint32Bytes + resp.missing_ranges.size() * 16 +
           8 * kMaxVarint64Bytes;
  body->reserve(body->size() + bytes);
  PutVarint64(body, resp.request_id);
  body->push_back(static_cast<char>(resp.code));
  PutLp(body, resp.message);
  PutVarint32(body, static_cast<uint32_t>(resp.series.size()));
  for (const QueryResp::Series& s : resp.series) {
    PutLabels(body, s.labels);
    const size_t n = s.timestamps.size();
    PutVarint32(body, static_cast<uint32_t>(n));
    // The sample run is sized once and written in place: 16 bytes per
    // sample, (ts, value bits) interleaved.
    const size_t at = body->size();
    body->resize(at + n * 16);
    char* p = body->data() + at;
    for (size_t i = 0; i < n; ++i, p += 16) {
      EncodeFixed64(p, static_cast<uint64_t>(s.timestamps[i]));
      EncodeFixed64(p + 8, std::bit_cast<uint64_t>(s.values[i]));
    }
  }
  PutVarint32(body, static_cast<uint32_t>(resp.missing_ranges.size()));
  for (const auto& [lo, hi] : resp.missing_ranges) {
    PutFixed64(body, static_cast<uint64_t>(lo));
    PutFixed64(body, static_cast<uint64_t>(hi));
  }
  PutVarint64(body, resp.stats.batches_decoded);
  PutVarint64(body, resp.stats.samples_decoded);
  PutVarint64(body, resp.stats.rollup_buckets_served);
  PutVarint64(body, resp.stats.raw_edge_samples);
  PutVarint64(body, resp.stats.cache_hits);
  PutVarint64(body, resp.stats.cache_misses);
  PutVarint64(body, resp.stats.setup_us);
  PutVarint64(body, resp.stats.drain_us);
}

Status DecodeQueryResp(const Slice& payload, QueryResp* resp) {
  Slice in = payload;
  if (!GetVarint64(&in, &resp->request_id)) return Malformed("request id");
  if (in.empty()) return Malformed("status code");
  resp->code = static_cast<Status::Code>(in.data()[0]);
  in.remove_prefix(1);
  if (!GetLp(&in, &resp->message)) return Malformed("status message");
  uint32_t n = 0;
  if (!GetVarint32(&in, &n)) return Malformed("series count");
  if (n > in.size() / 2 + 1) return Malformed("series count");
  resp->series.clear();
  resp->series.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    QueryResp::Series s;
    uint32_t samples = 0;
    if (!GetLabels(&in, &s.labels) || !GetVarint32(&in, &samples)) {
      return Malformed("series");
    }
    if (samples > in.size() / 16 + 1) return Malformed("sample count");
    // One bound check per series, before the columns are sized.
    if (uint64_t{samples} * 16 > in.size()) return Malformed("sample");
    s.timestamps.resize(samples);
    s.values.resize(samples);
    const char* p = in.data();
    for (uint32_t k = 0; k < samples; ++k, p += 16) {
      s.timestamps[k] = static_cast<int64_t>(DecodeFixed64(p));
      s.values[k] = std::bit_cast<double>(DecodeFixed64(p + 8));
    }
    in.remove_prefix(size_t{samples} * 16);
    resp->series.push_back(std::move(s));
  }
  if (!GetVarint32(&in, &n)) return Malformed("missing range count");
  if (n > in.size() / 16 + 1) return Malformed("missing range count");
  resp->missing_ranges.clear();
  resp->missing_ranges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t lo = 0;
    int64_t hi = 0;
    if (!GetInt64(&in, &lo) || !GetInt64(&in, &hi)) {
      return Malformed("missing range");
    }
    resp->missing_ranges.emplace_back(lo, hi);
  }
  if (!GetVarint64(&in, &resp->stats.batches_decoded) ||
      !GetVarint64(&in, &resp->stats.samples_decoded) ||
      !GetVarint64(&in, &resp->stats.rollup_buckets_served) ||
      !GetVarint64(&in, &resp->stats.raw_edge_samples) ||
      !GetVarint64(&in, &resp->stats.cache_hits) ||
      !GetVarint64(&in, &resp->stats.cache_misses) ||
      !GetVarint64(&in, &resp->stats.setup_us) ||
      !GetVarint64(&in, &resp->stats.drain_us)) {
    return Malformed("stats");
  }
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// -- ErrorResp / Ping -------------------------------------------------------

void EncodeErrorResp(const ErrorResp& resp, std::string* body) {
  PutVarint64(body, resp.request_id);
  body->push_back(static_cast<char>(resp.code));
  PutLp(body, resp.message);
}

Status DecodeErrorResp(const Slice& payload, ErrorResp* resp) {
  Slice in = payload;
  if (!GetVarint64(&in, &resp->request_id)) return Malformed("request id");
  if (in.empty()) return Malformed("status code");
  resp->code = static_cast<Status::Code>(in.data()[0]);
  in.remove_prefix(1);
  if (!GetLp(&in, &resp->message)) return Malformed("status message");
  return Status::OK();
}

void EncodePingBody(uint64_t request_id, std::string* body) {
  PutVarint64(body, request_id);
}

Status DecodePingBody(const Slice& payload, uint64_t* request_id) {
  Slice in = payload;
  if (!GetVarint64(&in, request_id)) return Malformed("request id");
  return Status::OK();
}

// -- Frame extraction -------------------------------------------------------

Status ExtractFrame(const Slice& in, uint32_t max_frame_bytes, MsgType* type,
                    Slice* body, size_t* frame_bytes) {
  *frame_bytes = 0;
  if (in.size() < kFrameHeaderBytes) return Status::OK();
  const uint32_t len = DecodeFixed32(in.data());
  if (len == 0 || len > max_frame_bytes) {
    return Status::InvalidArgument("frame length out of bounds");
  }
  if (in.size() < kFrameHeaderBytes + len) return Status::OK();
  const uint32_t expect = crc32c::Unmask(DecodeFixed32(in.data() + 4));
  const char* full = in.data() + kFrameHeaderBytes;
  if (crc32c::Value(full, len) != expect) {
    return Status::Corruption("frame checksum mismatch");
  }
  const uint8_t raw_type = static_cast<uint8_t>(full[0]);
  if (raw_type < static_cast<uint8_t>(MsgType::kWriteReq) ||
      raw_type > static_cast<uint8_t>(MsgType::kError)) {
    return Status::InvalidArgument("unknown message type");
  }
  *type = static_cast<MsgType>(raw_type);
  *body = Slice(full + 1, len - 1);
  *frame_bytes = kFrameHeaderBytes + len;
  return Status::OK();
}

}  // namespace tu::server
