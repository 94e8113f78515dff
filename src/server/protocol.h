// Wire protocol of the network front door (DESIGN.md "Network front
// door"). Length-prefixed binary frames over TCP:
//
//   [fixed32 body_len][fixed32 masked crc32c(body)][body]
//   body = [u8 MsgType][message payload]
//
// The crc covers the whole body (type byte included) with the same masked
// crc32c the storage formats use, so a flipped bit on the wire is caught
// before any payload decode runs. body_len is bounded by
// ServerOptions::max_frame_bytes (default 16 MiB); an oversized length
// prefix is a protocol error and closes the connection — it is never
// allocated.
//
// Two request families map 1:1 onto the DB's batched API:
//   WriteReq  -> core::WriteBatch -> TimeUnionDB::Write
//   QueryReq  -> query::ReadRequest -> Query / AggregateQuery
//
// Every request carries a client-chosen request_id echoed in the response,
// so clients may pipeline. Series/group references on the wire are
// *remote refs*: dense per-tenant handles issued by the server (see
// tenant.h) — real storage refs never cross the wire, so one tenant
// cannot address another tenant's series by guessing integers.
//
// Integer coding reuses util/coding.h: varint for counts/ids, fixed64 for
// timestamps and double bits.
//
// A query response carries each series' samples as one run of interleaved
// (fixed64 ts, fixed64 value bits) pairs behind a varint count. The encoder
// reserves the whole body, labels included, before writing it. Each run is
// sized once and written or read in place from the parallel timestamp and
// value columns of QueryResp::Series, which are the columns of the DB's
// SeriesResult moved in whole. Framing computes the CRC over the type byte
// and the body without first joining them, and ExtractFrame hands out a
// view into the receive buffer, so a response body is written once by the
// encoder, once into the frame, and read in place by the client.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/write_batch.h"
#include "index/inverted_index.h"
#include "query/read_context.h"
#include "util/status.h"

namespace tu::server {

enum class MsgType : uint8_t {
  kWriteReq = 1,
  kWriteResp = 2,
  kQueryReq = 3,
  kQueryResp = 4,
  kPing = 5,
  kPong = 6,
  kError = 7,
};

/// Frame byte overhead in front of every body.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Default cap on body_len; ServerOptions may lower it.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Remote write request. `batch` carries remote refs in sample_refs /
/// group_rows[].group_ref; labeled rows carry raw label sets (the server
/// injects the tenant tag).
struct WriteReq {
  uint64_t request_id = 0;
  std::string tenant;
  core::WriteBatch batch;
};

/// Per-batch outcome. `code`/`message` mirror WriteResult::first_error;
/// resolved refs are remote refs, parallel to the request's labeled rows.
struct WriteResp {
  uint64_t request_id = 0;
  Status::Code code = Status::Code::kOk;
  std::string message;
  uint64_t appended = 0;
  uint64_t rejected = 0;
  std::vector<uint64_t> resolved_refs;  // remote, 0 = row failed
  struct ResolvedGroup {
    uint64_t group_ref = 0;  // remote, 0 = row failed
    std::vector<uint32_t> slots;
  };
  std::vector<ResolvedGroup> resolved_groups;
};

/// Query / aggregate-query request; step_ms > 0 selects the aggregate
/// path (then `fn` applies). strictness encodes
/// query::ReadRequest::Strictness.
struct QueryReq {
  uint64_t request_id = 0;
  std::string tenant;
  std::vector<index::TagMatcher> matchers;
  int64_t t0 = 0;
  int64_t t1 = 0;
  uint8_t strictness = 0;
  int64_t step_ms = 0;
  uint8_t fn = 0;
};

/// The QueryStats subset that crosses the wire.
struct WireQueryStats {
  uint64_t batches_decoded = 0;
  uint64_t samples_decoded = 0;
  uint64_t rollup_buckets_served = 0;
  uint64_t raw_edge_samples = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t setup_us = 0;
  uint64_t drain_us = 0;
};

/// Sample (or aggregate point: ts = window_start) series payload. The
/// server strips the injected tenant tag before encoding labels.
struct QueryResp {
  uint64_t request_id = 0;
  Status::Code code = Status::Code::kOk;
  std::string message;
  struct Series {
    index::Labels labels;
    std::vector<int64_t> timestamps;
    std::vector<double> values;
  };
  std::vector<Series> series;
  std::vector<std::pair<int64_t, int64_t>> missing_ranges;
  WireQueryStats stats;
};

/// Terminal protocol-level failure (unparseable frame, unknown type).
/// After sending it the server closes the connection.
struct ErrorResp {
  uint64_t request_id = 0;
  Status::Code code = Status::Code::kInvalidArgument;
  std::string message;
};

/// Rebuilds a Status from a wire (code, message) pair — the Status(Code,
/// msg) constructor is private, so the factories are switched on here.
Status MakeStatus(Status::Code code, const std::string& message);

// -- Encoding ---------------------------------------------------------------

/// Appends one complete frame ([len][crc][type|body]) to `out`.
void EncodeFrame(MsgType type, const std::string& body, std::string* out);

/// Component form so callers need not copy a batch into a WriteReq.
void EncodeWriteReq(uint64_t request_id, const std::string& tenant,
                    const core::WriteBatch& batch, std::string* body);
void EncodeWriteResp(const WriteResp& resp, std::string* body);
void EncodeQueryReq(const QueryReq& req, std::string* body);
void EncodeQueryResp(const QueryResp& resp, std::string* body);
void EncodeErrorResp(const ErrorResp& resp, std::string* body);
/// Ping/Pong bodies are just the echoed request id.
void EncodePingBody(uint64_t request_id, std::string* body);

// -- Decoding ---------------------------------------------------------------

Status DecodeWriteReq(const Slice& payload, WriteReq* req);
Status DecodeWriteResp(const Slice& payload, WriteResp* resp);
Status DecodeQueryReq(const Slice& payload, QueryReq* req);
Status DecodeQueryResp(const Slice& payload, QueryResp* resp);
Status DecodeErrorResp(const Slice& payload, ErrorResp* resp);
Status DecodePingBody(const Slice& payload, uint64_t* request_id);

/// Incremental frame extraction from the front of a receive buffer; no
/// byte is copied. Returns:
///  - OK with *frame_bytes > 0: `in` starts with a whole frame of that
///    many bytes (header included); *type is set and *body views its
///    payload inside `in` (type byte excluded). The caller drops the
///    frame from its buffer once done with *body.
///  - OK with *frame_bytes == 0: `in` holds a frame prefix; read more.
///  - non-OK: protocol error (oversized length, crc mismatch, unknown
///    type) — the connection is poisoned and must be closed after the
///    error response drains.
Status ExtractFrame(const Slice& in, uint32_t max_frame_bytes, MsgType* type,
                    Slice* body, size_t* frame_bytes);

}  // namespace tu::server
