#include "compress/chunk.h"

#include <memory>
#include <vector>

#include "util/coding.h"

namespace tu::compress {

void SerializeSeriesChunk(uint64_t seq_id, uint32_t count, const char* ts_bits,
                          size_t ts_len, const char* val_bits, size_t val_len,
                          std::string* out) {
  out->clear();
  PutVarint64(out, seq_id);
  PutVarint32(out, count);
  PutVarint32(out, static_cast<uint32_t>(ts_len));
  out->append(ts_bits, ts_len);
  PutVarint32(out, static_cast<uint32_t>(val_len));
  out->append(val_bits, val_len);
}

void EncodeSeriesChunk(uint64_t seq_id, const std::vector<Sample>& samples,
                       std::string* out) {
  std::vector<int64_t> timestamps(samples.size());
  std::vector<double> values(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    timestamps[i] = samples[i].timestamp;
    values[i] = samples[i].value;
  }
  EncodeSeriesChunk(seq_id, timestamps.data(), values.data(), samples.size(),
                    out);
}

void EncodeSeriesChunk(uint64_t seq_id, const int64_t* timestamps,
                       const double* values, size_t n, std::string* out) {
  // Worst case: ~9 bytes/timestamp, ~10 bytes/value.
  const size_t cap = n * 10 + 16;
  std::vector<char> ts_buf(cap), val_buf(cap);
  SeriesChunkBuilder builder(ts_buf.data(), cap, val_buf.data(), cap);
  for (size_t i = 0; i < n; ++i) {
    builder.NoteFirstTimestamp(timestamps[i]);
    builder.Append(timestamps[i], values[i]);
  }
  SerializeSeriesChunk(seq_id, builder.count(), ts_buf.data(),
                       builder.ts_bytes(), val_buf.data(), builder.val_bytes(),
                       out);
}

Status DecodeSeriesChunk(const Slice& data, uint64_t* seq_id,
                         std::vector<Sample>* samples) {
  samples->clear();
  Slice in = data;
  if (!GetVarint64(&in, seq_id)) return Status::Corruption("bad series chunk");
  query::SampleBatch batch;
  TU_RETURN_IF_ERROR(DecodeSeriesChunkBatch(data, &batch));
  samples->resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    (*samples)[i] = Sample{batch.timestamps[i], batch.values[i]};
  }
  return Status::OK();
}

Status DecodeSeriesChunkBatch(const Slice& data, query::SampleBatch* batch) {
  batch->timestamps.clear();
  batch->values.clear();
  batch->validity.clear();
  Slice in = data;
  uint64_t seq_id = 0;
  uint32_t count = 0, ts_len = 0, val_len = 0;
  if (!GetVarint64(&in, &seq_id) || !GetVarint32(&in, &count) ||
      !GetVarint32(&in, &ts_len) || in.size() < ts_len) {
    return Status::Corruption("bad series chunk");
  }
  const char* ts_bits = in.data();
  in.remove_prefix(ts_len);
  if (!GetVarint32(&in, &val_len) || in.size() < val_len ||
      !CountFitsBits(count, ts_len) || !CountFitsBits(count, val_len)) {
    return Status::Corruption("bad series chunk");
  }
  if (count == 0) return Status::OK();

  batch->timestamps.resize(count);
  batch->values.resize(count);
  BitReader ts_reader(ts_bits, ts_len);
  TimestampDecoder ts_dec;
  ts_dec.DecodeAll(&ts_reader, count, batch->timestamps.data());
  BitReader val_reader(in.data(), val_len);
  ValueDecoder val_dec;
  val_dec.DecodeAll(&val_reader, count, batch->values.data());
  if (ts_reader.overrun() || val_reader.overrun()) {
    batch->timestamps.clear();
    batch->values.clear();
    return Status::Corruption("series chunk count overruns its bit streams");
  }
  return Status::OK();
}

void SerializeGroupChunk(uint64_t seq_id, uint32_t count, const char* ts_bits,
                         size_t ts_len,
                         const std::vector<std::pair<const char*, size_t>>& cols,
                         std::string* out) {
  out->clear();
  PutVarint64(out, seq_id);
  PutVarint32(out, count);
  PutVarint32(out, static_cast<uint32_t>(cols.size()));
  PutVarint32(out, static_cast<uint32_t>(ts_len));
  out->append(ts_bits, ts_len);
  for (const auto& [bits, len] : cols) {
    PutVarint32(out, static_cast<uint32_t>(len));
    out->append(bits, len);
  }
}

void EncodeGroupChunk(uint64_t seq_id, uint32_t num_members,
                      const std::vector<GroupRow>& rows, std::string* out) {
  const size_t cap = rows.size() * 10 + 16;
  std::vector<char> ts_buf(cap);
  BitWriter ts_writer(ts_buf.data(), cap);
  TimestampEncoder ts_enc;

  std::vector<std::vector<char>> col_bufs(num_members);
  std::vector<std::unique_ptr<BitWriter>> col_writers;
  std::vector<NullableValueEncoder> col_encs(num_members);
  col_writers.reserve(num_members);
  for (uint32_t m = 0; m < num_members; ++m) {
    col_bufs[m].resize(cap);
    col_writers.emplace_back(
        std::make_unique<BitWriter>(col_bufs[m].data(), cap));
  }

  for (const GroupRow& row : rows) {
    ts_enc.Append(&ts_writer, row.timestamp);
    for (uint32_t m = 0; m < num_members; ++m) {
      if (m < row.values.size() && row.values[m].has_value()) {
        col_encs[m].AppendValue(col_writers[m].get(), *row.values[m]);
      } else {
        col_encs[m].AppendNull(col_writers[m].get());
      }
    }
  }

  std::vector<std::pair<const char*, size_t>> cols;
  cols.reserve(num_members);
  for (uint32_t m = 0; m < num_members; ++m) {
    cols.emplace_back(col_bufs[m].data(), col_writers[m]->BytesUsed());
  }
  SerializeGroupChunk(seq_id, static_cast<uint32_t>(rows.size()),
                      ts_buf.data(), ts_writer.BytesUsed(), cols, out);
}

namespace {

/// Parses the group-chunk header and returns slices of the column payloads.
Status ParseGroupChunk(const Slice& data, uint64_t* seq_id, uint32_t* count,
                       uint32_t* num_members, Slice* ts_bits,
                       std::vector<Slice>* cols) {
  Slice in = data;
  uint32_t ts_len = 0;
  if (!GetVarint64(&in, seq_id) || !GetVarint32(&in, count) ||
      !GetVarint32(&in, num_members) || !GetVarint32(&in, &ts_len) ||
      in.size() < ts_len || !CountFitsBits(*count, ts_len)) {
    return Status::Corruption("bad group chunk header");
  }
  *ts_bits = Slice(in.data(), ts_len);
  in.remove_prefix(ts_len);
  cols->clear();
  cols->reserve(*num_members);
  for (uint32_t m = 0; m < *num_members; ++m) {
    uint32_t len = 0;
    if (!GetVarint32(&in, &len) || in.size() < len) {
      return Status::Corruption("bad group chunk column");
    }
    cols->emplace_back(in.data(), len);
    in.remove_prefix(len);
  }
  return Status::OK();
}

}  // namespace

Status DecodeGroupChunk(const Slice& data, uint64_t* seq_id,
                        uint32_t* num_members, std::vector<GroupRow>* rows) {
  rows->clear();
  uint32_t count = 0;
  Slice ts_bits;
  std::vector<Slice> cols;
  TU_RETURN_IF_ERROR(
      ParseGroupChunk(data, seq_id, &count, num_members, &ts_bits, &cols));

  BitReader ts_reader(ts_bits.data(), ts_bits.size());
  TimestampDecoder ts_dec;
  std::vector<BitReader> col_readers;
  col_readers.reserve(cols.size());
  for (const Slice& c : cols) col_readers.emplace_back(c.data(), c.size());
  std::vector<NullableValueDecoder> col_decs(cols.size());

  rows->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    GroupRow& row = (*rows)[i];
    row.timestamp = ts_dec.Next(&ts_reader);
    row.values.resize(*num_members);
    for (uint32_t m = 0; m < *num_members; ++m) {
      double v;
      if (col_decs[m].Next(&col_readers[m], &v)) {
        row.values[m] = v;
      } else {
        row.values[m] = std::nullopt;
      }
    }
  }
  bool overrun = ts_reader.overrun();
  for (const BitReader& r : col_readers) overrun = overrun || r.overrun();
  if (overrun) {
    rows->clear();
    return Status::Corruption("group chunk count overruns its bit streams");
  }
  return Status::OK();
}

Status DecodeGroupMember(const Slice& data, uint32_t member_index,
                         std::vector<Sample>* samples) {
  samples->clear();
  uint64_t seq_id = 0;
  uint32_t count = 0, num_members = 0;
  Slice ts_bits;
  std::vector<Slice> cols;
  TU_RETURN_IF_ERROR(
      ParseGroupChunk(data, &seq_id, &count, &num_members, &ts_bits, &cols));
  if (member_index >= num_members) {
    // The member joined the group after this chunk was flushed: no samples.
    return Status::OK();
  }

  BitReader ts_reader(ts_bits.data(), ts_bits.size());
  TimestampDecoder ts_dec;
  BitReader col_reader(cols[member_index].data(), cols[member_index].size());
  NullableValueDecoder col_dec;

  samples->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const int64_t ts = ts_dec.Next(&ts_reader);
    double v;
    if (col_dec.Next(&col_reader, &v)) {
      samples->push_back(Sample{ts, v});
    }
  }
  if (ts_reader.overrun() || col_reader.overrun()) {
    samples->clear();
    return Status::Corruption("group chunk count overruns its bit streams");
  }
  return Status::OK();
}

Status DecodeGroupMemberBatch(const Slice& data, uint32_t member_index,
                              query::SampleBatch* batch) {
  batch->timestamps.clear();
  batch->values.clear();
  batch->validity.clear();
  uint64_t seq_id = 0;
  uint32_t count = 0, num_members = 0;
  Slice ts_bits;
  std::vector<Slice> cols;
  TU_RETURN_IF_ERROR(
      ParseGroupChunk(data, &seq_id, &count, &num_members, &ts_bits, &cols));
  if (member_index >= num_members || count == 0) {
    // The member joined the group after this chunk was flushed: no samples.
    return Status::OK();
  }

  batch->timestamps.resize(count);
  batch->values.resize(count);
  batch->validity.assign((count + 63) / 64, 0);

  BitReader ts_reader(ts_bits.data(), ts_bits.size());
  TimestampDecoder ts_dec;
  ts_dec.DecodeAll(&ts_reader, count, batch->timestamps.data());

  BitReader col_reader(cols[member_index].data(), cols[member_index].size());
  NullableValueDecoder col_dec;
  col_dec.DecodeAll(&col_reader, count, batch->values.data(),
                    batch->validity.data());
  if (ts_reader.overrun() || col_reader.overrun()) {
    batch->timestamps.clear();
    batch->values.clear();
    batch->validity.clear();
    return Status::Corruption("group chunk count overruns its bit streams");
  }

  // Compact the present rows into dense columns; consumers past the
  // decode layer never see NULL slots.
  size_t out = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if ((batch->validity[i >> 6] >> (i & 63)) & 1) {
      batch->timestamps[out] = batch->timestamps[i];
      batch->values[out] = batch->values[i];
      ++out;
    }
  }
  batch->timestamps.resize(out);
  batch->values.resize(out);
  batch->validity.clear();
  return Status::OK();
}

}  // namespace tu::compress
