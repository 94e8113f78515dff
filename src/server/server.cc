#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "query/read_request.h"
#include "util/slice.h"

namespace tu::server {

namespace {

bool UsesReservedTag(const index::Labels& labels) {
  for (const index::Label& l : labels) {
    if (l.name == kTenantTag) return true;
  }
  return false;
}

void StripTenantTag(index::Labels* labels) {
  for (auto it = labels->begin(); it != labels->end(); ++it) {
    if (it->name == kTenantTag) {
      labels->erase(it);
      return;
    }
  }
}

void FillWireStats(const query::QueryStats& s, WireQueryStats* out) {
  out->batches_decoded = s.batches_decoded;
  out->samples_decoded = s.samples_decoded;
  out->rollup_buckets_served = s.rollup_buckets_served;
  out->raw_edge_samples = s.raw_edge_samples;
  out->cache_hits = s.cache_hits;
  out->cache_misses = s.cache_misses;
  out->setup_us = s.setup_us;
  out->drain_us = s.drain_us;
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(core::TimeUnionDB* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      tenants_(&db->metrics_registry(), options_.tenant_limits,
               db->metrics_registry().counter("server.tenant_rejects")),
      g_open_conns_(db->metrics_registry().gauge("server.open_connections")),
      g_inflight_(db->metrics_registry().gauge("server.inflight_requests")),
      c_frames_(db->metrics_registry().counter("server.frames")),
      c_protocol_errors_(
          db->metrics_registry().counter("server.protocol_errors")),
      c_tenant_rejects_(tenants_.total_rejects()),
      h_query_execute_us_(
          db->metrics_registry().histogram("server.query_execute_us")),
      h_query_encode_us_(
          db->metrics_registry().histogram("server.query_encode_us")) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind: " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, options_.accept_backlog) != 0) {
    return Status::IOError("listen: " + std::string(strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(1, options_.num_workers)));
  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    if (!started_.load()) return;
    stopping_.store(true, std::memory_order_release);
    Wake();
    if (loop_.joinable()) loop_.join();
    pool_->Shutdown();
    // Every response already queued was only sent after its db write
    // returned (WAL appended); the final sync makes those appends durable,
    // so an acked write survives a crash right after Shutdown.
    db_->SyncWal();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
  });
}

void Server::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::LoopThread() {
  std::vector<epoll_event> events(64);
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;
  for (;;) {
    const bool stop = stopping_.load(std::memory_order_acquire);
    const int timeout_ms = stop ? 20 : 200;
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!stop) AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        conn->peer_closed = true;
      } else {
        if (events[i].events & EPOLLIN) HandleReadable(conn);
        if (events[i].events & EPOLLOUT) FlushConn(conn.get());
      }
    }

    // Flush connections whose workers queued fresh output.
    std::vector<std::shared_ptr<Conn>> pending;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending.swap(pending_);
    }
    for (const std::shared_ptr<Conn>& conn : pending) {
      auto it = conns_.find(conn->fd);
      if (it != conns_.end() && it->second == conn) FlushConn(conn.get());
    }

    // Close-check pass: a connection is released once nothing can still
    // produce output for it and its buffered output has drained (or the
    // peer is gone and delivery is moot).
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* c = it->second.get();
      const int inflight = c->inflight.load(std::memory_order_acquire);
      bool out_empty;
      {
        std::lock_guard<std::mutex> lock(c->out_mu);
        out_empty = c->out.empty();
      }
      const bool close_now =
          (c->peer_closed && inflight == 0) ||
          (c->close_after_flush.load(std::memory_order_acquire) &&
           inflight == 0 && out_empty) ||
          (stop && inflight == 0 && out_empty);
      if (close_now) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
        it = conns_.erase(it);
        g_open_conns_->Add(-1);
      } else {
        ++it;
      }
    }

    if (stop) {
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (!draining) {
        draining = true;
        drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(options_.drain_deadline_ms);
      }
      if (conns_.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        for (auto& [fd, conn] : conns_) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
          g_open_conns_->Add(-1);
        }
        conns_.clear();
        break;
      }
    }
  }
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error — epoll retriggers
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn destructor closes fd
    }
    conns_.emplace(fd, std::move(conn));
    g_open_conns_->Add(1);
  }
}

void Server::ProtocolError(const std::shared_ptr<Conn>& conn,
                           const Status& s) {
  c_protocol_errors_->Add();
  ErrorResp err;
  err.code = s.code();
  err.message = s.message();
  std::string body;
  EncodeErrorResp(err, &body);
  std::string frame;
  EncodeFrame(MsgType::kError, body, &frame);
  QueueOutput(conn.get(), std::move(frame));
  conn->poisoned = true;
  conn->in.clear();
  conn->close_after_flush.store(true, std::memory_order_release);
  FlushConn(conn.get());
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      if (!conn->poisoned) conn->in.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->peer_closed = true;
    break;
  }
  if (conn->poisoned) return;
  size_t consumed = 0;
  for (;;) {
    MsgType type;
    Slice body;
    size_t frame_bytes = 0;
    const Status s = ExtractFrame(
        Slice(conn->in.data() + consumed, conn->in.size() - consumed),
        options_.max_frame_bytes, &type, &body, &frame_bytes);
    if (!s.ok()) {
      ProtocolError(conn, s);
      return;
    }
    if (frame_bytes == 0) break;
    consumed += frame_bytes;
    c_frames_->Add();
    conn->inflight.fetch_add(1, std::memory_order_acq_rel);
    g_inflight_->Add(1);
    pool_->Schedule([this, conn, type, body = body.ToString()] {
      HandleFrame(conn, type, body);
      g_inflight_->Add(-1);
      conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
      Wake();
    });
  }
  conn->in.erase(0, consumed);
}

bool Server::FlushConn(Conn* conn) {
  if (conn->peer_closed) return false;
  std::string chunk;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    chunk.swap(conn->out);
  }
  size_t off = 0;
  bool dead = false;
  while (off < chunk.size()) {
    const ssize_t w = ::send(conn->fd, chunk.data() + off, chunk.size() - off,
                             MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    dead = true;
    break;
  }
  if (dead) {
    conn->peer_closed = true;
    return false;
  }
  const bool partial = off < chunk.size();
  if (partial) {
    // Prepend the unsent remainder: workers may have appended more output
    // while the buffer was swapped out, and byte order must hold.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out.insert(0, chunk, off, chunk.size() - off);
  }
  if (partial != conn->epollout_armed) {
    epoll_event ev{};
    ev.events = partial ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout_armed = partial;
  }
  return true;
}

void Server::QueueOutput(Conn* conn, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->out.empty()) {
      conn->out.swap(frame);
    } else {
      conn->out.append(frame);
    }
  }
  // The pending list re-finds the shared_ptr by fd on the loop side, so a
  // raw pointer is never dereferenced after close.
}

void Server::HandleFrame(const std::shared_ptr<Conn>& conn, MsgType type,
                         const std::string& body) {
  std::string out_frame;
  Status proto = Status::OK();
  switch (type) {
    case MsgType::kPing: {
      uint64_t id = 0;
      proto = DecodePingBody(Slice(body), &id);
      if (proto.ok()) {
        std::string b;
        EncodePingBody(id, &b);
        EncodeFrame(MsgType::kPong, b, &out_frame);
      }
      break;
    }
    case MsgType::kWriteReq:
      proto = HandleWriteReqBody(
          body, body.size() + 1 + kFrameHeaderBytes, &out_frame);
      break;
    case MsgType::kQueryReq:
      proto = HandleQueryReqBody(body, &out_frame);
      break;
    default:
      proto = Status::InvalidArgument("unexpected message type");
      break;
  }
  if (!proto.ok()) {
    c_protocol_errors_->Add();
    ErrorResp err;
    err.code = proto.code();
    err.message = proto.message();
    std::string b;
    EncodeErrorResp(err, &b);
    out_frame.clear();
    EncodeFrame(MsgType::kError, b, &out_frame);
    conn->close_after_flush.store(true, std::memory_order_release);
  }
  if (!out_frame.empty()) {
    QueueOutput(conn.get(), std::move(out_frame));
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(conn);
    }
    // Wake happens in the scheduler wrapper after inflight drops; an extra
    // one here bounds response latency when the request ran long.
    Wake();
  }
}

Status Server::HandleWriteReqBody(const std::string& body, size_t wire_bytes,
                                  std::string* out_frame) {
  WriteReq req;
  TU_RETURN_IF_ERROR(DecodeWriteReq(Slice(body), &req));
  WriteResp resp;
  resp.request_id = req.request_id;
  const uint64_t rows = req.batch.NumRows();
  auto finish = [&]() {
    std::string b;
    EncodeWriteResp(resp, &b);
    EncodeFrame(MsgType::kWriteResp, b, out_frame);
    return Status::OK();
  };
  auto reject_all = [&](const Status& why, Tenant* tenant) {
    resp.code = why.code();
    resp.message = why.message();
    resp.rejected = rows;
    if (tenant != nullptr) tenant->rejects->Add();
    c_tenant_rejects_->Add();
  };

  if (req.tenant.empty()) {
    reject_all(Status::InvalidArgument("tenant must not be empty"), nullptr);
    return finish();
  }
  Tenant* tenant = tenants_.GetOrCreate(req.tenant);
  tenant->requests->Add();

  bool reserved = false;
  for (const auto& row : req.batch.labeled_samples) {
    reserved = reserved || UsesReservedTag(row.labels);
  }
  for (const auto& row : req.batch.labeled_group_rows) {
    reserved = reserved || UsesReservedTag(row.group_tags);
    for (const auto& member : row.member_tags) {
      reserved = reserved || UsesReservedTag(member);
    }
  }
  if (reserved) {
    reject_all(
        Status::InvalidArgument("label name __tenant__ is reserved"), tenant);
    return finish();
  }

  const Status admitted =
      tenant->Admit(req.batch.NumSamples(), wire_bytes, obs::MonotonicUs());
  if (!admitted.ok()) {
    reject_all(admitted, tenant);
    return finish();
  }

  // Translate remote refs to storage refs and inject the tenant tag into
  // labeled rows. Rows addressing unknown remote refs are rejected here
  // (they are this tenant's own namespace — nothing to look up).
  core::WriteBatch real;
  Status pre_error;
  uint64_t pre_rejects = 0;
  real.sample_refs.reserve(req.batch.sample_refs.size());
  real.sample_ts.reserve(req.batch.sample_refs.size());
  real.sample_values.reserve(req.batch.sample_refs.size());
  for (size_t i = 0; i < req.batch.sample_refs.size(); ++i) {
    const uint64_t real_ref = tenant->ResolveSeries(req.batch.sample_refs[i]);
    if (real_ref == 0) {
      ++pre_rejects;
      if (pre_error.ok()) {
        pre_error = Status::NotFound("unknown remote series ref");
      }
      continue;
    }
    real.AddSample(real_ref, req.batch.sample_ts[i],
                   req.batch.sample_values[i]);
  }
  real.labeled_samples.reserve(req.batch.labeled_samples.size());
  for (auto& row : req.batch.labeled_samples) {
    row.labels.push_back(index::Label{kTenantTag, req.tenant});
    real.labeled_samples.push_back(std::move(row));
  }
  real.group_rows.reserve(req.batch.group_rows.size());
  for (auto& row : req.batch.group_rows) {
    const uint64_t real_ref = tenant->ResolveGroup(row.group_ref);
    if (real_ref == 0) {
      ++pre_rejects;
      if (pre_error.ok()) {
        pre_error = Status::NotFound("unknown remote group ref");
      }
      continue;
    }
    row.group_ref = real_ref;
    real.group_rows.push_back(std::move(row));
  }
  real.labeled_group_rows.reserve(req.batch.labeled_group_rows.size());
  for (auto& row : req.batch.labeled_group_rows) {
    row.group_tags.push_back(index::Label{kTenantTag, req.tenant});
    real.labeled_group_rows.push_back(std::move(row));
  }

  core::WriteResult result;
  db_->Write(real, &result);
  resp.appended = result.appended;
  resp.rejected = pre_rejects + result.rejected;
  const Status first = pre_error.ok() ? result.first_error : pre_error;
  if (!first.ok()) {
    resp.code = first.code();
    resp.message = first.message();
  }
  resp.resolved_refs.reserve(result.resolved_refs.size());
  for (const uint64_t real_ref : result.resolved_refs) {
    resp.resolved_refs.push_back(
        real_ref == 0 ? 0 : tenant->InternSeries(real_ref));
  }
  resp.resolved_groups.reserve(result.resolved_groups.size());
  for (const core::WriteResult::ResolvedGroup& g : result.resolved_groups) {
    WriteResp::ResolvedGroup out;
    out.group_ref = g.group_ref == 0 ? 0 : tenant->InternGroup(g.group_ref);
    out.slots = g.slots;
    resp.resolved_groups.push_back(std::move(out));
  }
  tenant->samples_written->Add(result.appended);
  return finish();
}

Status Server::HandleQueryReqBody(const std::string& body,
                                  std::string* out_frame) {
  QueryReq req;
  TU_RETURN_IF_ERROR(DecodeQueryReq(Slice(body), &req));
  QueryResp resp;
  resp.request_id = req.request_id;
  auto finish = [&]() {
    obs::ScopedTimer timer(h_query_encode_us_);
    std::string b;
    EncodeQueryResp(resp, &b);
    EncodeFrame(MsgType::kQueryResp, b, out_frame);
    return Status::OK();
  };
  auto reject = [&](const Status& why, Tenant* tenant) {
    resp.code = why.code();
    resp.message = why.message();
    if (tenant != nullptr) tenant->rejects->Add();
    c_tenant_rejects_->Add();
  };

  if (req.tenant.empty()) {
    reject(Status::InvalidArgument("tenant must not be empty"), nullptr);
    return finish();
  }
  Tenant* tenant = tenants_.GetOrCreate(req.tenant);
  tenant->requests->Add();
  // Mirror the embedded API's contract before the tenant matcher is
  // appended: a client query must name at least one matcher of its own.
  if (req.matchers.empty()) {
    reject(Status::InvalidArgument("query requires at least one tag matcher"),
           tenant);
    return finish();
  }
  for (const index::TagMatcher& m : req.matchers) {
    if (m.name == kTenantTag) {
      reject(Status::InvalidArgument("label name __tenant__ is reserved"),
             tenant);
      return finish();
    }
  }
  if (req.strictness > 2) {
    reject(Status::InvalidArgument("bad strictness"), tenant);
    return finish();
  }
  if (req.step_ms > 0 &&
      req.fn > static_cast<uint8_t>(query::AggFn::kMean)) {
    reject(Status::InvalidArgument("bad aggregate function"), tenant);
    return finish();
  }

  query::ReadRequest r;
  r.matchers = std::move(req.matchers);
  r.matchers.push_back(index::TagMatcher::Equal(kTenantTag, req.tenant));
  r.t0 = req.t0;
  r.t1 = req.t1;
  r.strictness = static_cast<query::ReadRequest::Strictness>(req.strictness);

  Status s;
  if (req.step_ms > 0) {
    r.step_ms = req.step_ms;
    r.fn = static_cast<query::AggFn>(req.fn);
    core::TimeUnionDB::AggregateResult result;
    {
      obs::ScopedTimer timer(h_query_execute_us_);
      s = db_->AggregateQuery(r, &result);
    }
    if (s.ok()) {
      resp.series.reserve(result.series.size());
      for (core::TimeUnionDB::AggregateSeries& as : result.series) {
        QueryResp::Series out;
        StripTenantTag(&as.labels);
        out.labels = std::move(as.labels);
        out.timestamps.reserve(as.points.size());
        out.values.reserve(as.points.size());
        for (const query::AggPoint& p : as.points) {
          out.timestamps.push_back(p.window_start);
          out.values.push_back(p.value);
        }
        resp.series.push_back(std::move(out));
      }
      resp.missing_ranges = std::move(result.missing_ranges);
      FillWireStats(result.stats, &resp.stats);
    }
  } else {
    core::QueryResult result;
    {
      obs::ScopedTimer timer(h_query_execute_us_);
      s = db_->Query(r, &result);
    }
    if (s.ok()) {
      // The result's columns are the response's columns: moved, not
      // copied.
      resp.series.reserve(result.series.size());
      for (core::SeriesResult& sr : result.series) {
        StripTenantTag(&sr.labels);
        resp.series.push_back({std::move(sr.labels), std::move(sr.timestamps),
                               std::move(sr.values)});
      }
      resp.missing_ranges = std::move(result.missing_ranges);
      FillWireStats(result.stats, &resp.stats);
    }
  }
  if (!s.ok()) {
    resp.code = s.code();
    resp.message = s.message();
  }
  return finish();
}

}  // namespace tu::server
