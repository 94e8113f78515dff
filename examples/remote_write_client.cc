// Remote-write client: the network front door end to end in one binary.
// Opens a TimeUnionDB, starts the TCP server on an ephemeral port, then —
// as a tenant — registers series with a labeled batch, streams by-ref
// batches, and reads the data back with a raw and an aggregate query over
// the same connection.
//
//   ./remote_write_client [tenant] [workspace_dir]
#include <cstdio>
#include <memory>
#include <string>

#include "core/timeunion_db.h"
#include "query/read_request.h"
#include "server/client.h"
#include "server/server.h"
#include "util/mmap_file.h"

using namespace tu;

int main(int argc, char** argv) {
  const std::string tenant = argc > 1 ? argv[1] : "acme";
  const std::string ws = argc > 2 ? argv[2] : "/tmp/timeunion_example_remote";
  RemoveDirRecursive(ws);

  // --- Server side: an embedded DB fronted by the TCP server.
  core::DBOptions opts;
  opts.workspace = ws;
  opts.enable_wal = true;  // acked writes survive a crash
  std::unique_ptr<core::TimeUnionDB> db;
  Status s = core::TimeUnionDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  server::ServerOptions sopts;  // port 0 = ephemeral
  sopts.tenant_limits.samples_per_sec = 1'000'000;
  server::Server srv(db.get(), sopts);
  s = srv.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("server listening on 127.0.0.1:%u\n", srv.port());

  // --- Client side: connect as a tenant.
  std::unique_ptr<server::Client> client;
  s = server::Client::Connect("127.0.0.1", srv.port(), tenant, &client);
  if (!s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }

  // A labeled batch registers the series; the ack returns remote refs.
  core::WriteBatch reg;
  for (int i = 0; i < 4; ++i) {
    reg.AddSample(index::Labels{{"host", "web-" + std::to_string(i)},
                                {"metric", "cpu"}},
                  0, 0.0);
  }
  server::WriteAck ack;
  s = client->Write(reg, &ack);
  if (!s.ok() || !ack.remote_status.ok() || ack.rejected != 0) {
    std::fprintf(stderr, "register: %s\n",
                 (s.ok() ? ack.remote_status : s).ToString().c_str());
    return 1;
  }
  std::printf("registered %zu series, remote refs:", ack.resolved_refs.size());
  for (uint64_t ref : ack.resolved_refs) {
    std::printf(" %llu", static_cast<unsigned long long>(ref));
  }
  std::printf("\n");

  // Stream by remote ref — the fast path (no label resolution per row).
  core::WriteBatch batch;
  for (int64_t ts = 1; ts <= 600; ++ts) {
    for (size_t i = 0; i < ack.resolved_refs.size(); ++i) {
      batch.AddSample(ack.resolved_refs[i], ts * 1000,
                      50.0 + 10.0 * static_cast<double>(i) +
                          static_cast<double>(ts % 10));
    }
  }
  server::WriteAck stream_ack;
  s = client->Write(batch, &stream_ack);
  if (!s.ok() || !stream_ack.remote_status.ok() ||
      stream_ack.rejected != 0) {
    std::fprintf(stderr, "stream: %s\n",
                 (s.ok() ? stream_ack.remote_status : s).ToString().c_str());
    return 1;
  }
  std::printf("streamed %llu samples in one frame (%llu wire bytes)\n",
              static_cast<unsigned long long>(stream_ack.appended),
              static_cast<unsigned long long>(client->bytes_sent()));

  // Raw range query; the server scopes it to this tenant automatically.
  server::QueryReply reply;
  s = client->Query(query::ReadRequest::Range(
                        {index::TagMatcher::Equal("metric", "cpu")}, 0,
                        700'000),
                    &reply);
  if (!s.ok() || !reply.remote_status.ok() || reply.series.size() != 4) {
    std::fprintf(stderr, "query: %s\n",
                 (s.ok() ? reply.remote_status : s).ToString().c_str());
    return 1;
  }
  for (const auto& series : reply.series) {
    std::string name;
    for (const auto& l : series.labels) {
      name += l.name + "=" + l.value + " ";
    }
    std::printf("  %s-> %zu samples, last=%.1f\n", name.c_str(),
                series.timestamps.size(), series.values.back());
  }

  // Aggregate query: 1-minute means, folded server-side.
  s = client->Query(query::ReadRequest::Aggregate(
                        {index::TagMatcher::Equal("host", "web-0")}, 0,
                        700'000, 60'000, query::AggFn::kMean),
                    &reply);
  if (!s.ok() || !reply.remote_status.ok() || reply.series.size() != 1) {
    std::fprintf(stderr, "aggregate: %s\n",
                 (s.ok() ? reply.remote_status : s).ToString().c_str());
    return 1;
  }
  std::printf("web-0 1-minute means:");
  for (size_t i = 0; i < reply.series[0].values.size(); ++i) {
    std::printf(" %.2f", reply.series[0].values[i]);
  }
  std::printf("\n");

  // Graceful drain: acked writes are WAL-durable before Shutdown returns.
  client->Close();
  srv.Shutdown();
  db.reset();
  RemoveDirRecursive(ws);
  std::printf("done\n");
  return 0;
}
