// Network front door: a TCP remote-write/query server over the batched DB
// API (DESIGN.md "Network front door").
//
// Threading model (mosquitto-style single accept loop + worker pool):
//   - One loop thread owns the listening socket, the epoll instance and
//     every connection's input buffer. It accepts, reads, frames, and is
//     the only thread that calls epoll_ctl or closes fds — so fd-reuse
//     races are structurally impossible.
//   - Decoded frames are handed to a ThreadPool. Workers decode the
//     request, run it against TimeUnionDB (whose write/read paths are
//     internally synchronized), encode the response into the connection's
//     mutex-guarded output buffer, and wake the loop via an eventfd.
//   - The loop flushes output buffers with nonblocking writes, arming
//     EPOLLOUT only while a partial write is outstanding.
//
// Connection lifetime: connections are shared_ptr-owned; workers hold a
// reference while a request is in flight, so a peer hangup never frees a
// connection under a worker — the loop stops watching the fd and the
// last reference closes it.
//
// Graceful drain (Shutdown): stop accepting, let in-flight requests
// finish and their responses flush, close connections as they go idle,
// then SyncWal — every acked write is durable before Shutdown returns.
// Acked means the WAL append happened (TimeUnionDB::Write returned)
// before the response frame was queued.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/timeunion_db.h"
#include "server/protocol.h"
#include "server/tenant.h"
#include "util/thread_pool.h"

namespace tu::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; Server::port() reports the bound port after Start().
  uint16_t port = 0;
  int num_workers = 4;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-tenant quotas applied before DBOptions::admission (0 = off).
  TenantRegistry::Limits tenant_limits;
  int accept_backlog = 128;
  /// Shutdown stops waiting for unflushed output after this long.
  int drain_deadline_ms = 5000;
};

class Server {
 public:
  /// Registers server.* instruments in the DB's metrics registry; the DB
  /// must outlive the server.
  Server(core::TimeUnionDB* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the loop thread + worker pool.
  Status Start();
  /// Graceful drain; idempotent. Safe to call concurrently with ~Server.
  void Shutdown();

  uint16_t port() const { return port_; }

 private:
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    const int fd;
    /// Loop thread only.
    std::string in;
    bool peer_closed = false;
    bool epollout_armed = false;
    /// True once a protocol error is queued: input is ignored and the
    /// connection closes after the error response drains.
    bool poisoned = false;

    std::mutex out_mu;
    std::string out;  // guarded by out_mu

    std::atomic<int> inflight{0};
    std::atomic<bool> close_after_flush{false};
  };

  void LoopThread();
  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Loop thread; returns false when the connection should be dropped
  /// immediately (write error).
  bool FlushConn(Conn* conn);
  void CloseConn(int fd);
  /// Queue a protocol-level error and poison the connection (loop
  /// thread).
  void ProtocolError(const std::shared_ptr<Conn>& conn, const Status& s);

  /// Worker-side request execution. The body handlers return non-OK only
  /// for protocol-level decode failures (the caller then answers with an
  /// ErrorResp and closes); application failures travel inside the
  /// response frame.
  void HandleFrame(const std::shared_ptr<Conn>& conn, MsgType type,
                   const std::string& body);
  Status HandleWriteReqBody(const std::string& body, size_t wire_bytes,
                            std::string* out_frame);
  Status HandleQueryReqBody(const std::string& body, std::string* out_frame);
  /// Appends a frame to the connection's output; moved in whole when
  /// nothing is queued ahead of it.
  void QueueOutput(Conn* conn, std::string frame);
  void Wake();

  core::TimeUnionDB* db_;
  const ServerOptions options_;
  TenantRegistry tenants_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  /// Loop thread only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  /// Connections with freshly queued output (workers -> loop).
  std::mutex pending_mu_;
  std::vector<std::shared_ptr<Conn>> pending_;

  obs::Gauge* g_open_conns_;
  obs::Gauge* g_inflight_;
  obs::Counter* c_frames_;
  obs::Counter* c_protocol_errors_;
  obs::Counter* c_tenant_rejects_;
  /// Query stages: the DB call, and the response encode plus framing.
  obs::Histogram* h_query_execute_us_;
  obs::Histogram* h_query_encode_us_;
};

}  // namespace tu::server
