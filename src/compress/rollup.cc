#include "compress/rollup.h"

#include "compress/gorilla.h"
#include "util/coding.h"

namespace tu::compress {

void EncodeRollupChunk(uint64_t max_seq, int64_t granularity_ms,
                       const std::vector<RollupBucket>& buckets,
                       std::string* out) {
  out->clear();
  // Worst case ~9 bytes per timestamp-coded field, ~10 per value.
  const size_t cap = buckets.size() * 10 + 16;
  std::vector<char> ts_buf(cap), min_buf(cap), max_buf(cap), sum_buf(cap),
      cnt_buf(cap);
  BitWriter ts_w(ts_buf.data(), cap), min_w(min_buf.data(), cap),
      max_w(max_buf.data(), cap), sum_w(sum_buf.data(), cap),
      cnt_w(cnt_buf.data(), cap);
  TimestampEncoder ts_enc, cnt_enc;
  ValueEncoder min_enc, max_enc, sum_enc;
  for (const RollupBucket& b : buckets) {
    ts_enc.Append(&ts_w, b.start);
    min_enc.Append(&min_w, b.min);
    max_enc.Append(&max_w, b.max);
    sum_enc.Append(&sum_w, b.sum);
    cnt_enc.Append(&cnt_w, static_cast<int64_t>(b.count));
  }

  PutVarint64(out, max_seq);
  PutVarint64(out, static_cast<uint64_t>(granularity_ms));
  PutVarint32(out, static_cast<uint32_t>(buckets.size()));
  const auto put_stream = [out](const std::vector<char>& buf,
                                const BitWriter& w) {
    PutVarint32(out, static_cast<uint32_t>(w.BytesUsed()));
    out->append(buf.data(), w.BytesUsed());
  };
  put_stream(ts_buf, ts_w);
  put_stream(min_buf, min_w);
  put_stream(max_buf, max_w);
  put_stream(sum_buf, sum_w);
  put_stream(cnt_buf, cnt_w);
}

Status DecodeRollupChunk(const Slice& data, uint64_t* max_seq,
                         int64_t* granularity_ms,
                         std::vector<RollupBucket>* buckets) {
  buckets->clear();
  Slice in = data;
  uint64_t gran = 0;
  uint32_t count = 0;
  if (!GetVarint64(&in, max_seq) || !GetVarint64(&in, &gran) ||
      !GetVarint32(&in, &count)) {
    return Status::Corruption("bad rollup chunk header");
  }
  *granularity_ms = static_cast<int64_t>(gran);

  Slice streams[5];
  for (Slice& s : streams) {
    uint32_t len = 0;
    if (!GetVarint32(&in, &len) || in.size() < len) {
      return Status::Corruption("bad rollup chunk stream");
    }
    s = Slice(in.data(), len);
    in.remove_prefix(len);
  }
  if (count == 0) return Status::OK();

  for (const Slice& st : streams) {
    if (!CountFitsBits(count, st.size())) {
      return Status::Corruption("bad rollup chunk count");
    }
  }
  std::vector<int64_t> starts(count), counts(count);
  std::vector<double> mins(count), maxs(count), sums(count);
  bool overrun = false;
  auto decode_ints = [&](const Slice& st, int64_t* out) {
    BitReader r(st.data(), st.size());
    TimestampDecoder dec;
    dec.DecodeAll(&r, count, out);
    overrun = overrun || r.overrun();
  };
  auto decode_doubles = [&](const Slice& st, double* out) {
    BitReader r(st.data(), st.size());
    ValueDecoder dec;
    dec.DecodeAll(&r, count, out);
    overrun = overrun || r.overrun();
  };
  decode_ints(streams[0], starts.data());
  decode_doubles(streams[1], mins.data());
  decode_doubles(streams[2], maxs.data());
  decode_doubles(streams[3], sums.data());
  decode_ints(streams[4], counts.data());
  if (overrun) {
    return Status::Corruption("rollup chunk count overruns its streams");
  }

  buckets->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    RollupBucket& b = (*buckets)[i];
    b.start = starts[i];
    b.min = mins[i];
    b.max = maxs[i];
    b.sum = sums[i];
    if (counts[i] < 0) return Status::Corruption("bad rollup bucket count");
    b.count = static_cast<uint64_t>(counts[i]);
  }
  return Status::OK();
}

}  // namespace tu::compress
