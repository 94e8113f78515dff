// Blocking client for the network front door — the reference
// implementation of the wire protocol used by tests, the remote-write
// bench and examples/remote_write_client.cc.
//
// One request in flight at a time: Write/Query/Ping send a frame and
// block until the matching response arrives. References in the batch and
// in acks are *remote refs* scoped to this client's tenant (see
// tenant.h). Not thread-safe; use one Client per thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/write_batch.h"
#include "query/read_request.h"
#include "server/protocol.h"
#include "util/status.h"

namespace tu::server {

/// Per-batch remote write outcome. `remote_status` mirrors
/// WriteResult::first_error (OK when every row applied); `appended` rows
/// are WAL-acked by the server.
struct WriteAck {
  Status remote_status;
  uint64_t appended = 0;
  uint64_t rejected = 0;
  std::vector<uint64_t> resolved_refs;
  std::vector<WriteResp::ResolvedGroup> resolved_groups;
};

struct QueryReply {
  Status remote_status;
  std::vector<QueryResp::Series> series;
  std::vector<std::pair<int64_t, int64_t>> missing_ranges;
  WireQueryStats stats;
};

class Client {
 public:
  static Status Connect(const std::string& host, uint16_t port,
                        std::string tenant, std::unique_ptr<Client>* out);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Remote write. Returns non-OK only on transport/protocol failure;
  /// application-level row failures land in ack->remote_status.
  Status Write(const core::WriteBatch& batch, WriteAck* ack);
  /// Remote query; request.step_ms > 0 runs the aggregate path.
  Status Query(const query::ReadRequest& request, QueryReply* reply);
  Status Ping();
  void Close();

  /// Wire bytes sent since Connect (frames included) — the bench's
  /// bytes-per-sample source.
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  Client(int fd, std::string tenant) : fd_(fd), tenant_(std::move(tenant)) {}
  /// `*resp_body` views the response inside in_, valid until the next
  /// call.
  Status Call(MsgType req_type, const std::string& body, MsgType expect,
              Slice* resp_body);
  Status SendAll(const std::string& data);
  /// Drops the previous response's frame from in_, then reads until in_
  /// starts with a whole frame and views its body.
  Status ReadFrame(MsgType* type, Slice* body);

  int fd_;
  const std::string tenant_;
  uint64_t next_id_ = 1;
  uint64_t bytes_sent_ = 0;
  std::string in_;
  /// Bytes at the front of in_ holding the last response's frame.
  size_t consumed_ = 0;
};

}  // namespace tu::server
