#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/coding.h"
#include "util/slice.h"

namespace tu::server {

Status Client::Connect(const std::string& host, uint16_t port,
                       std::string tenant, std::unique_ptr<Client>* out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s =
        Status::IOError("connect: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  out->reset(new Client(fd, std::move(tenant)));
  return Status::OK();
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendAll(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Status::IOError("send: " + std::string(strerror(errno)));
  }
  bytes_sent_ += data.size();
  return Status::OK();
}

Status Client::ReadFrame(MsgType* type, Slice* body) {
  in_.erase(0, consumed_);
  consumed_ = 0;
  for (;;) {
    TU_RETURN_IF_ERROR(ExtractFrame(Slice(in_), kDefaultMaxFrameBytes, type,
                                    body, &consumed_));
    if (consumed_ > 0) return Status::OK();
    // Read straight into the buffer's tail. Once the header is in (its
    // length already checked by ExtractFrame), one read can take the rest
    // of the frame.
    size_t want = 64 * 1024;
    if (in_.size() >= kFrameHeaderBytes) {
      want = std::max(want, kFrameHeaderBytes + DecodeFixed32(in_.data()) -
                                in_.size());
    }
    const size_t have = in_.size();
    in_.resize(have + want);
    const ssize_t r = ::read(fd_, in_.data() + have, want);
    in_.resize(have + static_cast<size_t>(std::max<ssize_t>(r, 0)));
    if (r > 0) continue;
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) return Status::IOError("connection closed by server");
    return Status::IOError("read: " + std::string(strerror(errno)));
  }
}

Status Client::Call(MsgType req_type, const std::string& body, MsgType expect,
                    Slice* resp_body) {
  if (fd_ < 0) return Status::InvalidArgument("client closed");
  std::string frame;
  EncodeFrame(req_type, body, &frame);
  TU_RETURN_IF_ERROR(SendAll(frame));
  MsgType resp_type;
  TU_RETURN_IF_ERROR(ReadFrame(&resp_type, resp_body));
  if (resp_type == MsgType::kError) {
    ErrorResp err;
    TU_RETURN_IF_ERROR(DecodeErrorResp(*resp_body, &err));
    return MakeStatus(err.code, "server: " + err.message);
  }
  if (resp_type != expect) {
    return Status::Corruption("unexpected response type");
  }
  return Status::OK();
}

Status Client::Write(const core::WriteBatch& batch, WriteAck* ack) {
  const uint64_t id = next_id_++;
  std::string body;
  EncodeWriteReq(id, tenant_, batch, &body);
  Slice resp_body;
  TU_RETURN_IF_ERROR(
      Call(MsgType::kWriteReq, body, MsgType::kWriteResp, &resp_body));
  WriteResp resp;
  TU_RETURN_IF_ERROR(DecodeWriteResp(resp_body, &resp));
  if (resp.request_id != id) return Status::Corruption("response id mismatch");
  ack->remote_status = MakeStatus(resp.code, resp.message);
  ack->appended = resp.appended;
  ack->rejected = resp.rejected;
  ack->resolved_refs = std::move(resp.resolved_refs);
  ack->resolved_groups = std::move(resp.resolved_groups);
  return Status::OK();
}

Status Client::Query(const query::ReadRequest& request, QueryReply* reply) {
  const uint64_t id = next_id_++;
  QueryReq req;
  req.request_id = id;
  req.tenant = tenant_;
  req.matchers = request.matchers;
  req.t0 = request.t0;
  req.t1 = request.t1;
  req.strictness = static_cast<uint8_t>(request.strictness);
  req.step_ms = request.step_ms;
  req.fn = static_cast<uint8_t>(request.fn);
  std::string body;
  EncodeQueryReq(req, &body);
  Slice resp_body;
  TU_RETURN_IF_ERROR(
      Call(MsgType::kQueryReq, body, MsgType::kQueryResp, &resp_body));
  QueryResp resp;
  TU_RETURN_IF_ERROR(DecodeQueryResp(resp_body, &resp));
  if (resp.request_id != id) return Status::Corruption("response id mismatch");
  reply->remote_status = MakeStatus(resp.code, resp.message);
  reply->series = std::move(resp.series);
  reply->missing_ranges = std::move(resp.missing_ranges);
  reply->stats = resp.stats;
  return Status::OK();
}

Status Client::Ping() {
  const uint64_t id = next_id_++;
  std::string body;
  EncodePingBody(id, &body);
  Slice resp_body;
  TU_RETURN_IF_ERROR(Call(MsgType::kPing, body, MsgType::kPong, &resp_body));
  uint64_t echoed = 0;
  TU_RETURN_IF_ERROR(DecodePingBody(resp_body, &echoed));
  if (echoed != id) return Status::Corruption("ping id mismatch");
  return Status::OK();
}

}  // namespace tu::server
