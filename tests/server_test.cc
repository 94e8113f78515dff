// Network front door suite (`ctest -L server`):
//   - Roundtrip: concurrent remote clients write through the server (labeled
//     first batch, then by remote ref) while the same rows go into an
//     embedded control DB; every remote query — raw and aggregate — must be
//     byte-identical to the embedded control result.
//   - Protocol robustness: malformed frames (bad crc, oversized length
//     prefix, unknown type, truncated garbage) draw a structured error and
//     close only the offending connection — a concurrently connected good
//     client keeps working.
//   - Tenant isolation: two tenants writing the same label set never see
//     each other's samples; guessed remote refs reject; the reserved
//     __tenant__ tag is rejected in labels and matchers; the empty tenant
//     is rejected.
//   - Quotas: per-tenant token buckets return structured kResourceExhausted
//     (connection survives), refill over time, and let one oversized
//     request through on the debt model.
//   - Graceful drain: Shutdown during concurrent ingest loses zero acked
//     writes across a full DB reopen (WAL replay).
//   - Fuzz: 1k seeded random frames across many connections — no crash, no
//     acked-but-lost writes, server still serves afterwards.
//   - Query-response codec: round trips (no series, an empty series, a
//     series larger than one client read, NaN/-0.0/denormal bit for bit),
//     every truncated prefix is Malformed, and an overstated sample count
//     is rejected before the columns are sized.
//   - Stage histograms: one execute and one encode observation per query.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/tiered_env.h"
#include "core/timeunion_db.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace tu {
namespace {

using core::DBOptions;
using core::QueryResult;
using core::TimeUnionDB;
using core::WriteBatch;
using core::WriteResult;
using index::Label;
using index::Labels;
using index::TagMatcher;
using query::ReadRequest;

DBOptions TestOptions(const std::string& ws) {
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.samples_per_chunk = 8;
  opts.enable_wal = true;
  return opts;
}

/// Raw TCP connection for sending hand-crafted (and broken) frames.
class RawConn {
 public:
  static std::unique_ptr<RawConn> Dial(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return std::unique_ptr<RawConn>(new RawConn(fd));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Best-effort send; the server may already have closed on us.
  void Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t w =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      return;
    }
  }

  /// Reads until the peer closes (or the 5s receive timeout fires).
  std::string ReadUntilClose() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r > 0) {
        out.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      return out;  // closed or timed out
    }
  }

 private:
  explicit RawConn(int fd) : fd_(fd) {}
  int fd_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = "/tmp/timeunion_test/server";
    RemoveDirRecursive(ws_);
  }
  void TearDown() override {
    server_.reset();
    db_.reset();
    RemoveDirRecursive(ws_);
  }

  void OpenAndStart(server::ServerOptions sopts = {}) {
    Status s = TimeUnionDB::Open(TestOptions(ws_ + "/db"), &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    server_ = std::make_unique<server::Server>(db_.get(), sopts);
    s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<server::Client> Connect(const std::string& tenant) {
    std::unique_ptr<server::Client> client;
    Status s =
        server::Client::Connect("127.0.0.1", server_->port(), tenant, &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return client;
  }

  std::string ws_;
  std::unique_ptr<TimeUnionDB> db_;
  std::unique_ptr<server::Server> server_;
};

// ---------------------------------------------------------------------------
// Roundtrip vs embedded control
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ConcurrentRoundtripMatchesEmbeddedControl) {
  OpenAndStart();
  std::unique_ptr<TimeUnionDB> control;
  Status s = TimeUnionDB::Open(TestOptions(ws_ + "/control"), &control);
  ASSERT_TRUE(s.ok()) << s.ToString();

  constexpr int kThreads = 4;
  constexpr int kBatches = 8;
  constexpr int kBatchRows = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Connect("acme");
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      const Labels labels = {{"host", "h" + std::to_string(t)},
                             {"metric", "cpu"}};
      uint64_t remote_ref = 0;
      int64_t ts = 0;
      for (int b = 0; b < kBatches; ++b) {
        WriteBatch batch;
        WriteBatch embedded;
        for (int i = 0; i < kBatchRows; ++i) {
          ++ts;
          const double v = t * 1000.0 + ts * 0.5;
          // First batch registers by labels; the rest ride the remote ref
          // so both wire addressing modes are exercised.
          if (b == 0) {
            batch.AddSample(labels, ts, v);
          } else {
            batch.AddSample(remote_ref, ts, v);
          }
          embedded.AddSample(labels, ts, v);
        }
        server::WriteAck ack;
        Status ws = client->Write(batch, &ack);
        if (!ws.ok() || !ack.remote_status.ok() ||
            ack.appended != static_cast<uint64_t>(kBatchRows)) {
          failures.fetch_add(1);
          return;
        }
        if (b == 0) {
          if (ack.resolved_refs.size() != kBatchRows ||
              ack.resolved_refs[0] == 0) {
            failures.fetch_add(1);
            return;
          }
          remote_ref = ack.resolved_refs[0];
        }
        WriteResult result;
        if (!control->Write(embedded, &result).ok() || !result.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  // While clients are connected the server health gauges are live.
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  EXPECT_GE(db_->Metrics().GaugeOr0("server.open_connections"), 1);

  // Raw queries: remote reply must match the embedded control byte for
  // byte — same labels (tenant tag stripped), timestamps and values.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<TagMatcher> matchers = {
        TagMatcher::Equal("host", "h" + std::to_string(t))};
    server::QueryReply reply;
    s = client->Query(ReadRequest::Range(matchers, 0, 1 << 20), &reply);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(reply.remote_status.ok()) << reply.remote_status.ToString();

    QueryResult want;
    s = control->Query(ReadRequest::Range(matchers, 0, 1 << 20), &want);
    ASSERT_TRUE(s.ok()) << s.ToString();

    ASSERT_EQ(reply.series.size(), want.series.size());
    ASSERT_EQ(reply.series.size(), 1u);
    EXPECT_EQ(reply.series[0].labels, want.series[0].labels);
    EXPECT_EQ(reply.series[0].timestamps, want.series[0].timestamps);
    EXPECT_EQ(reply.series[0].values, want.series[0].values);
    EXPECT_TRUE(reply.missing_ranges.empty());
    EXPECT_GT(reply.stats.samples_decoded, 0u);
  }

  // Aggregate query: remote reply vs the embedded aggregate pipeline.
  std::vector<TagMatcher> all = {TagMatcher::Equal("metric", "cpu")};
  server::QueryReply agg_reply;
  s = client->Query(
      ReadRequest::Aggregate(all, 0, 1 << 20, 100, query::AggFn::kMean),
      &agg_reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(agg_reply.remote_status.ok());

  TimeUnionDB::AggregateResult agg_want;
  s = control->AggregateQuery(
      ReadRequest::Aggregate(all, 0, 1 << 20, 100, query::AggFn::kMean),
      &agg_want);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(agg_reply.series.size(), agg_want.series.size());
  auto by_labels = [](const auto& a, const auto& b) { return a.labels < b.labels; };
  std::sort(agg_reply.series.begin(), agg_reply.series.end(), by_labels);
  std::sort(agg_want.series.begin(), agg_want.series.end(), by_labels);
  for (size_t i = 0; i < agg_want.series.size(); ++i) {
    EXPECT_EQ(agg_reply.series[i].labels, agg_want.series[i].labels);
    ASSERT_EQ(agg_reply.series[i].timestamps.size(),
              agg_want.series[i].points.size());
    for (size_t j = 0; j < agg_want.series[i].points.size(); ++j) {
      EXPECT_EQ(agg_reply.series[i].timestamps[j],
                agg_want.series[i].points[j].window_start);
      EXPECT_EQ(agg_reply.series[i].values[j],
                agg_want.series[i].points[j].value);
    }
  }
}

TEST_F(ServerTest, GroupRowsRoundtrip) {
  OpenAndStart();
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);

  WriteBatch batch;
  const Labels group_tags = {{"rack", "r1"}};
  const std::vector<Labels> members = {{{"sensor", "temp"}},
                                       {{"sensor", "fan"}}};
  batch.AddGroupRow(group_tags, members, 10, {21.5, 800.0});
  server::WriteAck ack;
  Status s = client->Write(batch, &ack);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();
  ASSERT_EQ(ack.resolved_groups.size(), 1u);
  ASSERT_NE(ack.resolved_groups[0].group_ref, 0u);
  ASSERT_EQ(ack.resolved_groups[0].slots.size(), 2u);

  // Follow-up rows by remote group ref.
  WriteBatch by_ref;
  for (int64_t ts = 11; ts <= 20; ++ts) {
    by_ref.AddGroupRow(ack.resolved_groups[0].group_ref,
                       ack.resolved_groups[0].slots, ts,
                       {21.5 + ts, 800.0 + ts});
  }
  s = client->Write(by_ref, &ack);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();
  EXPECT_EQ(ack.appended, 10u);

  server::QueryReply reply;
  s = client->Query(
      ReadRequest::Range({TagMatcher::Equal("sensor", "temp")}, 0, 100),
      &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  ASSERT_EQ(reply.series[0].timestamps.size(), 11u);
  EXPECT_EQ(reply.series[0].values[0], 21.5);
  EXPECT_EQ(reply.series[0].values[10], 21.5 + 20);
}

// ---------------------------------------------------------------------------
// Malformed frames
// ---------------------------------------------------------------------------

/// Parses the single error frame a poisoned connection receives before
/// close; returns the decoded code (kOk if no well-formed error arrived).
Status::Code ReadErrorCode(RawConn* conn) {
  std::string in = conn->ReadUntilClose();
  server::MsgType type;
  Slice body;
  size_t frame_bytes = 0;
  Status s = server::ExtractFrame(Slice(in), server::kDefaultMaxFrameBytes,
                                  &type, &body, &frame_bytes);
  if (!s.ok() || frame_bytes == 0 || type != server::MsgType::kError) {
    return Status::Code::kOk;
  }
  server::ErrorResp err;
  if (!server::DecodeErrorResp(body, &err).ok()) {
    return Status::Code::kOk;
  }
  return err.code;
}

TEST_F(ServerTest, MalformedFramesDoNotPoisonOtherConnections) {
  OpenAndStart();
  auto good = Connect("acme");
  ASSERT_NE(good, nullptr);
  WriteBatch batch;
  batch.AddSample(Labels{{"host", "h0"}}, 1, 1.0);
  server::WriteAck ack;
  ASSERT_TRUE(good->Write(batch, &ack).ok());
  ASSERT_TRUE(ack.remote_status.ok());

  // Bad crc: a well-formed frame with one payload byte flipped.
  {
    auto bad = RawConn::Dial(server_->port());
    ASSERT_NE(bad, nullptr);
    std::string body;
    server::EncodePingBody(7, &body);
    std::string frame;
    server::EncodeFrame(server::MsgType::kPing, body, &frame);
    frame[frame.size() - 1] ^= 0x40;
    bad->Send(frame);
    EXPECT_EQ(ReadErrorCode(bad.get()), Status::Code::kCorruption);
  }

  // Oversized length prefix: never allocated, structured reject + close.
  {
    auto bad = RawConn::Dial(server_->port());
    ASSERT_NE(bad, nullptr);
    std::string header;
    PutFixed32(&header, server::kDefaultMaxFrameBytes + 1);
    PutFixed32(&header, 0xdeadbeef);
    bad->Send(header);
    EXPECT_EQ(ReadErrorCode(bad.get()), Status::Code::kInvalidArgument);
  }

  // Unknown message type (crc valid, type byte out of range).
  {
    auto bad = RawConn::Dial(server_->port());
    ASSERT_NE(bad, nullptr);
    std::string frame;
    server::EncodeFrame(static_cast<server::MsgType>(200), "xyz", &frame);
    bad->Send(frame);
    EXPECT_EQ(ReadErrorCode(bad.get()), Status::Code::kInvalidArgument);
  }

  // Well-framed but undecodable write request body.
  {
    auto bad = RawConn::Dial(server_->port());
    ASSERT_NE(bad, nullptr);
    std::string frame;
    server::EncodeFrame(server::MsgType::kWriteReq, "\xff\xff\xff\xff",
                        &frame);
    bad->Send(frame);
    EXPECT_NE(ReadErrorCode(bad.get()), Status::Code::kOk);
  }

  // Truncated frame then abrupt hangup: no response owed, no harm done.
  {
    auto bad = RawConn::Dial(server_->port());
    ASSERT_NE(bad, nullptr);
    std::string body;
    server::EncodePingBody(9, &body);
    std::string frame;
    server::EncodeFrame(server::MsgType::kPing, body, &frame);
    bad->Send(frame.substr(0, frame.size() / 2));
  }

  // The good client — connected the whole time — is unharmed.
  ASSERT_TRUE(good->Ping().ok());
  server::QueryReply reply;
  Status s = good->Query(
      ReadRequest::Range({TagMatcher::Equal("host", "h0")}, 0, 100), &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_GE(db_->Metrics().GaugeOr0("server.open_connections"), 1);
}

// ---------------------------------------------------------------------------
// Tenant isolation
// ---------------------------------------------------------------------------

TEST_F(ServerTest, TenantIsolation) {
  OpenAndStart();
  auto alice = Connect("alice");
  auto bob = Connect("bob");
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);

  // Identical label sets from both tenants.
  const Labels labels = {{"host", "shared"}};
  server::WriteAck a_ack, b_ack;
  WriteBatch a_batch, b_batch;
  for (int64_t ts = 1; ts <= 5; ++ts) {
    a_batch.AddSample(labels, ts, 1.0 * ts);
    b_batch.AddSample(labels, ts, 100.0 * ts);
  }
  ASSERT_TRUE(alice->Write(a_batch, &a_ack).ok());
  ASSERT_TRUE(a_ack.remote_status.ok());
  ASSERT_TRUE(bob->Write(b_batch, &b_ack).ok());
  ASSERT_TRUE(b_ack.remote_status.ok());

  // Each tenant sees exactly its own values.
  server::QueryReply reply;
  ASSERT_TRUE(alice
                  ->Query(ReadRequest::Range(
                              {TagMatcher::Equal("host", "shared")}, 0, 100),
                          &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  ASSERT_EQ(reply.series[0].values.size(), 5u);
  EXPECT_EQ(reply.series[0].values[4], 5.0);
  EXPECT_EQ(reply.series[0].labels, labels);  // tenant tag stripped

  ASSERT_TRUE(bob->Query(ReadRequest::Range(
                             {TagMatcher::Equal("host", "shared")}, 0, 100),
                         &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  ASSERT_EQ(reply.series[0].values.size(), 5u);
  EXPECT_EQ(reply.series[0].values[4], 500.0);

  // Remote refs are per-tenant namespaces. A guessed integer outside
  // bob's dense table is a structured NotFound...
  WriteBatch guess;
  guess.AddSample(/*ref=*/999, 50, 666.0);
  ASSERT_TRUE(bob->Write(guess, &b_ack).ok());
  EXPECT_EQ(b_ack.remote_status.code(), Status::Code::kNotFound);
  EXPECT_EQ(b_ack.appended, 0u);
  EXPECT_EQ(b_ack.rejected, 1u);

  // ...and alice's numeric ref, reused by bob, lands on one of bob's OWN
  // series (both tables are dense from 1) — alice's data is untouchable.
  ASSERT_EQ(a_ack.resolved_refs.size(), 5u);
  WriteBatch collide;
  collide.AddSample(a_ack.resolved_refs[0], 60, 777.0);
  ASSERT_TRUE(bob->Write(collide, &b_ack).ok());
  ASSERT_TRUE(b_ack.remote_status.ok());
  ASSERT_TRUE(alice
                  ->Query(ReadRequest::Range(
                              {TagMatcher::Equal("host", "shared")}, 55, 100),
                          &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok());
  EXPECT_TRUE(reply.series.empty());  // 777.0 went to bob's series, not alice's
  ASSERT_TRUE(bob->Query(ReadRequest::Range(
                             {TagMatcher::Equal("host", "shared")}, 55, 100),
                         &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_EQ(reply.series[0].values[0], 777.0);

  // The reserved tag is rejected in write labels...
  WriteBatch reserved;
  reserved.AddSample(Labels{{server::kTenantTag, "bob"}}, 1, 1.0);
  ASSERT_TRUE(alice->Write(reserved, &a_ack).ok());
  EXPECT_EQ(a_ack.remote_status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(a_ack.appended, 0u);

  // ...and in query matchers (no cross-tenant matcher injection).
  ASSERT_TRUE(alice
                  ->Query(ReadRequest::Range(
                              {TagMatcher::Equal(server::kTenantTag, "bob")},
                              0, 100),
                          &reply)
                  .ok());
  EXPECT_EQ(reply.remote_status.code(), Status::Code::kInvalidArgument);

  // The empty tenant is rejected outright.
  auto anon = Connect("");
  ASSERT_NE(anon, nullptr);
  WriteBatch any;
  any.AddSample(Labels{{"host", "x"}}, 1, 1.0);
  ASSERT_TRUE(anon->Write(any, &a_ack).ok());
  EXPECT_EQ(a_ack.remote_status.code(), Status::Code::kInvalidArgument);

  // Isolation also holds under aggregate queries.
  ASSERT_TRUE(alice
                  ->Query(ReadRequest::Aggregate(
                              {TagMatcher::Equal("host", "shared")}, 0, 100,
                              100, query::AggFn::kSum),
                          &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  ASSERT_EQ(reply.series[0].values.size(), 1u);
  EXPECT_EQ(reply.series[0].values[0], 15.0);  // 1+2+3+4+5, not bob's 1500
}

// ---------------------------------------------------------------------------
// Quotas
// ---------------------------------------------------------------------------

TEST_F(ServerTest, QuotaExceededIsStructuredReject) {
  server::ServerOptions sopts;
  sopts.tenant_limits.samples_per_sec = 1000;
  OpenAndStart(sopts);
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);

  auto burst = [&](int n, int64_t ts0) {
    WriteBatch batch;
    for (int i = 0; i < n; ++i) {
      batch.AddSample(Labels{{"host", "q"}}, ts0 + i, 1.0);
    }
    server::WriteAck ack;
    Status s = client->Write(batch, &ack);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return ack;
  };

  // The bucket primes full: one second of rate goes through...
  server::WriteAck ack = burst(1000, 0);
  ASSERT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();
  EXPECT_EQ(ack.appended, 1000u);

  // ...and an immediate second burst is a structured reject, not a dropped
  // connection.
  ack = burst(1000, 2000);
  EXPECT_EQ(ack.remote_status.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(ack.appended, 0u);
  EXPECT_EQ(ack.rejected, 1000u);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(db_->Metrics().CounterOr0("server.tenant_rejects"), 1u);

  // The bucket refills: after a pause a modest burst is admitted again.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ack = burst(100, 4000);
  EXPECT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();

  // Quotas are per tenant: another tenant is untouched by acme's debt.
  auto other = Connect("zen");
  ASSERT_NE(other, nullptr);
  WriteBatch batch;
  batch.AddSample(Labels{{"host", "z"}}, 1, 1.0);
  server::WriteAck other_ack;
  ASSERT_TRUE(other->Write(batch, &other_ack).ok());
  EXPECT_TRUE(other_ack.remote_status.ok());
}

TEST_F(ServerTest, OversizedRequestRidesTheDebtModel) {
  server::ServerOptions sopts;
  sopts.tenant_limits.bytes_per_sec = 64;  // smaller than any write frame
  OpenAndStart(sopts);
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);

  WriteBatch batch;
  for (int64_t ts = 1; ts <= 32; ++ts) {
    batch.AddSample(Labels{{"host", "debt"}}, ts, 1.0 * ts);
  }
  // First oversized request passes on a full bucket (drives it negative)…
  server::WriteAck ack;
  ASSERT_TRUE(client->Write(batch, &ack).ok());
  ASSERT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();
  EXPECT_EQ(ack.appended, 32u);
  // …and the debt throttles what follows.
  ASSERT_TRUE(client->Write(batch, &ack).ok());
  EXPECT_EQ(ack.remote_status.code(), Status::Code::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST_F(ServerTest, GracefulDrainLosesNoAckedWrites) {
  OpenAndStart();

  constexpr int kThreads = 4;
  std::vector<std::vector<int64_t>> acked(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Connect("acme");
      if (client == nullptr) return;
      const Labels labels = {{"host", "d" + std::to_string(t)}};
      int64_t ts = 0;
      for (;;) {
        WriteBatch batch;
        std::vector<int64_t> batch_ts;
        for (int i = 0; i < 8; ++i) {
          ++ts;
          batch.AddSample(labels, ts, 1.0 * ts);
          batch_ts.push_back(ts);
        }
        server::WriteAck ack;
        // Transport errors and rejects mean "not acked" — both are fine
        // during drain; only acked batches must survive.
        if (!client->Write(batch, &ack).ok()) return;
        if (!ack.remote_status.ok() || ack.appended != 8) return;
        acked[t].insert(acked[t].end(), batch_ts.begin(), batch_ts.end());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server_->Shutdown();
  for (auto& th : threads) th.join();
  server_.reset();

  uint64_t total_acked = 0;
  for (const auto& v : acked) total_acked += v.size();
  ASSERT_GT(total_acked, 0u);  // the race actually exercised the drain

  // Reopen from disk: WAL replay must resurface every acked sample.
  db_.reset();
  std::unique_ptr<TimeUnionDB> reopened;
  Status s = TimeUnionDB::Open(TestOptions(ws_ + "/db"), &reopened);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (int t = 0; t < kThreads; ++t) {
    if (acked[t].empty()) continue;
    QueryResult result;
    s = reopened->Query(
        ReadRequest::Range(
            {TagMatcher::Equal("host", "d" + std::to_string(t))}, 0,
            INT64_MAX - 1),
        &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(result.series.size(), 1u);
    const std::vector<int64_t>& got = result.series[0].timestamps;
    // Every acked timestamp must be present (unacked tail rows may also
    // have landed — that is allowed, double-send is not the contract).
    for (int64_t want : acked[t]) {
      EXPECT_TRUE(std::find(got.begin(), got.end(), want) != got.end())
          << "acked ts " << want << " lost for thread " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SeededRandomFramesNeitherCrashNorLoseAckedWrites) {
  OpenAndStart();
  auto good = Connect("acme");
  ASSERT_NE(good, nullptr);
  WriteBatch batch;
  for (int64_t ts = 1; ts <= 100; ++ts) {
    batch.AddSample(Labels{{"host", "fuzz"}}, ts, 1.0 * ts);
  }
  server::WriteAck ack;
  ASSERT_TRUE(good->Write(batch, &ack).ok());
  ASSERT_TRUE(ack.remote_status.ok());
  ASSERT_EQ(ack.appended, 100u);

  Random rng(20260808);
  constexpr int kFrames = 1000;
  constexpr int kFramesPerConn = 25;
  std::unique_ptr<RawConn> conn;
  for (int i = 0; i < kFrames; ++i) {
    if (i % kFramesPerConn == 0) {
      conn = RawConn::Dial(server_->port());
      ASSERT_NE(conn, nullptr);
    }
    std::string wire;
    switch (rng.Uniform(4)) {
      case 0: {
        // Pure noise, arbitrary length (may straddle frame boundaries).
        const size_t n = rng.Uniform(300);
        for (size_t b = 0; b < n; ++b) {
          wire.push_back(static_cast<char>(rng.Uniform(256)));
        }
        break;
      }
      case 1: {
        // Valid frame envelope around a random body: exercises every
        // message decoder against garbage payloads.
        const size_t n = rng.Uniform(200);
        std::string body;
        for (size_t b = 0; b < n; ++b) {
          body.push_back(static_cast<char>(rng.Uniform(256)));
        }
        server::EncodeFrame(static_cast<server::MsgType>(rng.Uniform(10)),
                            body, &wire);
        break;
      }
      case 2: {
        // A real write request, then mutilated: truncate or flip a byte.
        WriteBatch wb;
        wb.AddSample(Labels{{"host", "noise"}},
                     static_cast<int64_t>(rng.Uniform(1000)), 0.0);
        std::string body;
        server::EncodeWriteReq(rng.Next64(), "fuzz", wb, &body);
        server::EncodeFrame(server::MsgType::kWriteReq, body, &wire);
        if (rng.OneIn(2)) {
          wire.resize(rng.Uniform(wire.size()) + 1);
        } else {
          wire[rng.Uniform(wire.size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      }
      default: {
        // Hostile length prefix.
        PutFixed32(&wire, static_cast<uint32_t>(rng.Next64()));
        PutFixed32(&wire, static_cast<uint32_t>(rng.Next64()));
        break;
      }
    }
    conn->Send(wire);
  }
  conn.reset();

  // The server is intact: the original connection still serves, the acked
  // prefix is all there, and new writes land.
  ASSERT_TRUE(good->Ping().ok());
  server::QueryReply reply;
  Status s = good->Query(
      ReadRequest::Range({TagMatcher::Equal("host", "fuzz")}, 0, 1000),
      &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(reply.remote_status.ok());
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_EQ(reply.series[0].timestamps.size(), 100u);

  WriteBatch more;
  more.AddSample(Labels{{"host", "fuzz"}}, 101, 101.0);
  ASSERT_TRUE(good->Write(more, &ack).ok());
  EXPECT_TRUE(ack.remote_status.ok());
}

// ---------------------------------------------------------------------------
// Strictness over the wire
// ---------------------------------------------------------------------------

TEST_F(ServerTest, InvalidQueryShapesAreStructuredRejects) {
  OpenAndStart();
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);

  server::QueryReply reply;
  // Inverted range.
  ASSERT_TRUE(
      client->Query(ReadRequest::Range({TagMatcher::Equal("a", "b")}, 10, 5),
                    &reply)
          .ok());
  EXPECT_EQ(reply.remote_status.code(), Status::Code::kInvalidArgument);
  // Empty matcher list.
  ASSERT_TRUE(client->Query(ReadRequest::Range({}, 0, 10), &reply).ok());
  EXPECT_EQ(reply.remote_status.code(), Status::Code::kInvalidArgument);
  // The connection survives structured rejects.
  EXPECT_TRUE(client->Ping().ok());
}

// ---------------------------------------------------------------------------
// Query-response codec
// ---------------------------------------------------------------------------

/// Values whose bits a decimal or float round trip could lose.
std::vector<double> SpecialValues() {
  return {std::numeric_limits<double>::quiet_NaN(), -0.0,
          std::numeric_limits<double>::denorm_min(), 1.5,
          -std::numeric_limits<double>::infinity()};
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "value " << i;
  }
}

server::QueryResp SampleResp() {
  server::QueryResp resp;
  resp.request_id = 77;
  resp.code = Status::Code::kUnavailable;
  resp.message = "partial";
  resp.series.push_back({Labels{{"host", "h0"}}, {}, {}});  // empty series
  server::QueryResp::Series big;
  big.labels = {{"host", "h1"}, {"metric", "cpu"}};
  const std::vector<double> special = SpecialValues();
  for (int64_t i = 0; i < 5000; ++i) {  // 80 KB of samples
    big.timestamps.push_back(-1000 + i * 10);
    big.values.push_back(special[i % special.size()]);
  }
  resp.series.push_back(std::move(big));
  resp.missing_ranges = {{5, 9}, {100, 200}};
  resp.stats.samples_decoded = 5000;
  resp.stats.drain_us = 12;
  return resp;
}

TEST(QueryRespCodec, RoundTrips) {
  // No series at all.
  server::QueryResp none;
  none.request_id = 3;
  std::string body;
  server::EncodeQueryResp(none, &body);
  server::QueryResp got;
  ASSERT_TRUE(server::DecodeQueryResp(Slice(body), &got).ok());
  EXPECT_EQ(got.request_id, 3u);
  EXPECT_TRUE(got.series.empty());

  // An empty series and one larger than a client read, bit for bit.
  const server::QueryResp want = SampleResp();
  body.clear();
  server::EncodeQueryResp(want, &body);
  EXPECT_GT(body.size(), 64u * 1024);
  ASSERT_TRUE(server::DecodeQueryResp(Slice(body), &got).ok());
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.series.size(), want.series.size());
  for (size_t i = 0; i < want.series.size(); ++i) {
    EXPECT_EQ(got.series[i].labels, want.series[i].labels);
    EXPECT_EQ(got.series[i].timestamps, want.series[i].timestamps);
    ExpectSameBits(got.series[i].values, want.series[i].values);
  }
  EXPECT_EQ(got.missing_ranges, want.missing_ranges);
  EXPECT_EQ(got.stats.samples_decoded, 5000u);
  EXPECT_EQ(got.stats.drain_us, 12u);
}

// The encoder reserves the whole body before writing it, label bytes
// included: a DevOps-shaped response (101 series of 13 labels and 100
// samples each) leaves little spare capacity, where a growing string would
// have about doubled it.
TEST(QueryRespCodec, BodyIsReservedOnce) {
  server::QueryResp resp;
  for (int s = 0; s < 101; ++s) {
    server::QueryResp::Series series;
    for (int l = 0; l < 13; ++l) {
      series.labels.push_back({"label_name_" + std::to_string(l),
                               "some_label_value_" + std::to_string(s)});
    }
    for (int64_t i = 0; i < 100; ++i) {
      series.timestamps.push_back(i * 10'000);
      series.values.push_back(0.5 * static_cast<double>(i));
    }
    resp.series.push_back(std::move(series));
  }
  std::string body;
  server::EncodeQueryResp(resp, &body);
  EXPECT_GT(body.size(), 101u * 100 * 16 + 101u * 13 * 30);
  EXPECT_LT(body.capacity(), body.size() + body.size() / 8);
  server::QueryResp got;
  ASSERT_TRUE(server::DecodeQueryResp(Slice(body), &got).ok());
  ASSERT_EQ(got.series.size(), resp.series.size());
  EXPECT_EQ(got.series[100].labels, resp.series[100].labels);
  EXPECT_EQ(got.series[100].values, resp.series[100].values);
}

TEST(QueryRespCodec, EveryTruncatedPrefixIsMalformed) {
  server::QueryResp resp = SampleResp();
  resp.series[1].timestamps.resize(40);
  resp.series[1].values.resize(40);
  std::string body;
  server::EncodeQueryResp(resp, &body);
  for (size_t n = 0; n < body.size(); ++n) {
    // Exact-size copy: a read past the prefix is a heap overflow.
    const std::unique_ptr<char[]> prefix(new char[n + 1]);
    std::memcpy(prefix.get(), body.data(), n);
    server::QueryResp got;
    const Status s = server::DecodeQueryResp(Slice(prefix.get(), n), &got);
    ASSERT_EQ(s.code(), Status::Code::kInvalidArgument) << "prefix " << n;
    EXPECT_NE(s.message().find("malformed frame"), std::string::npos) << n;
  }
}

TEST(QueryRespCodec, OverstatedSampleCountIsRejectedBeforeSizing) {
  // One series with no labels whose count claims more samples than follow.
  for (const uint32_t count : {3u, 1u << 31, ~0u}) {
    std::string body;
    PutVarint64(&body, 1);       // request id
    body.push_back(0);           // status code
    PutVarint32(&body, 0);       // empty message
    PutVarint32(&body, 1);       // one series
    PutVarint32(&body, 0);       // no labels
    PutVarint32(&body, count);   // sample count
    body.append(40, '\0');       // two and a half samples
    server::QueryResp got;
    const Status s = server::DecodeQueryResp(Slice(body), &got);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << count;
    EXPECT_TRUE(got.series.empty()) << count;
  }
}

// A response larger than the client's 64 KiB first read, through a real
// server: the client gathers it over several reads, and the special values
// come back bit for bit.
TEST_F(ServerTest, LargeResponseRoundTripsBitForBit) {
  OpenAndStart();
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);
  const std::vector<double> special = SpecialValues();
  std::vector<int64_t> timestamps;
  std::vector<double> values;
  WriteBatch batch;
  for (int64_t i = 0; i < 6000; ++i) {
    timestamps.push_back(i * 1000);
    values.push_back(special[i % special.size()]);
    batch.AddSample(Labels{{"host", "big"}}, timestamps.back(), values.back());
  }
  server::WriteAck ack;
  ASSERT_TRUE(client->Write(batch, &ack).ok());
  ASSERT_TRUE(ack.remote_status.ok()) << ack.remote_status.ToString();

  server::QueryReply reply;
  ASSERT_TRUE(client
                  ->Query(ReadRequest::Range({TagMatcher::Equal("host", "big")},
                                             0, 1 << 30),
                          &reply)
                  .ok());
  ASSERT_TRUE(reply.remote_status.ok()) << reply.remote_status.ToString();
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_EQ(reply.series[0].timestamps, timestamps);
  ExpectSameBits(reply.series[0].values, values);
  EXPECT_TRUE(client->Ping().ok());  // the stream stays in sync after it
}

TEST_F(ServerTest, QueryStageHistogramsObserveEachQuery) {
  OpenAndStart();
  auto client = Connect("acme");
  ASSERT_NE(client, nullptr);
  WriteBatch batch;
  for (int64_t ts = 0; ts < 100; ++ts) {
    batch.AddSample(Labels{{"host", "h0"}}, ts * 1000, 1.0 * ts);
  }
  server::WriteAck ack;
  ASSERT_TRUE(client->Write(batch, &ack).ok());

  const auto matchers = std::vector<TagMatcher>{TagMatcher::Equal("host", "h0")};
  server::QueryReply reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client->Query(ReadRequest::Range(matchers, 0, 1 << 20), &reply).ok());
    ASSERT_TRUE(reply.remote_status.ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client
                    ->Query(ReadRequest::Aggregate(matchers, 0, 1 << 20, 10000,
                                                   query::AggFn::kMax),
                            &reply)
                    .ok());
    ASSERT_TRUE(reply.remote_status.ok());
  }
  const obs::MetricsSnapshot snap = db_->Metrics();
  for (const char* name :
       {"server.query_execute_us", "server.query_encode_us"}) {
    const obs::HistogramSnapshot* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 5u) << name;
  }
}

}  // namespace
}  // namespace tu
