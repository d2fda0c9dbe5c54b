// Client/server integration over loopback: the blocking API against an
// in-process epoll server, remote Status mapping (degraded-mode and
// range errors arrive code-for-code), the pipelined API (whose single
// write burst is what triggers server-side PUT coalescing into one WAL
// group commit), reconnect-with-backoff after a server restart, and
// protocol-error handling (garbage bytes get one error frame, then the
// connection closes).

#include "net/client.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/options.h"
#include "lsm/sharded_db.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "util/fault_injection.h"

namespace endure::net {
namespace {

lsm::Options MemoryOpts() {
  lsm::Options o;
  o.num_shards = 4;
  o.buffer_entries = 64;
  o.size_ratio = 4;
  o.background_maintenance = true;
  return o;
}

struct Harness {
  std::unique_ptr<lsm::ShardedDB> db;
  std::unique_ptr<Server> server;

  static Harness Start(lsm::Options opts, ServerOptions sopts = {}) {
    Harness h;
    auto db = lsm::ShardedDB::Open(opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    h.db = std::move(db).value();
    auto server = Server::Start(h.db.get(), sopts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    h.server = std::move(server).value();
    return h;
  }

  std::unique_ptr<Client> Connect(int max_attempts = 5) {
    ClientOptions copts;
    copts.port = server->port();
    copts.max_attempts = max_attempts;
    auto client = Client::Connect(copts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }
};

TEST(ClientTest, BlockingOpsRoundTrip) {
  Harness h = Harness::Start(MemoryOpts());
  auto client = h.Connect();

  EXPECT_TRUE(client->Put(1, 100).ok());
  EXPECT_TRUE(client->Put(2, 200).ok());
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, 100u);

  EXPECT_TRUE(client->Delete(1).ok());
  got = client->Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());

  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  for (uint64_t i = 10; i < 20; ++i) pairs.emplace_back(i, i * 11);
  EXPECT_TRUE(client->PutBatch(pairs).ok());
  auto scan = client->Scan(10, 20);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan, pairs);

  EXPECT_TRUE(client->Flush().ok());
  auto scan2 = client->Scan(10, 15);
  ASSERT_TRUE(scan2.ok());
  ASSERT_EQ(scan2->size(), 5u);
  EXPECT_EQ((*scan2)[0].first, 10u);

  h.server->Shutdown();
}

TEST(ClientTest, StatsReportEngineAndServerCounters) {
  Harness h = Harness::Start(MemoryOpts());
  auto client = h.Connect();
  ASSERT_TRUE(client->Put(5, 50).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  bool saw_shards = false, saw_server = false, saw_health = false;
  for (const auto& [name, value] : *stats) {
    if (name == "num_shards") {
      saw_shards = true;
      EXPECT_EQ(value, 4u);
    }
    if (name == "server_requests_served") saw_server = true;
    if (name == "health_code") {
      saw_health = true;
      EXPECT_EQ(value, 0u);
    }
  }
  EXPECT_TRUE(saw_shards);
  EXPECT_TRUE(saw_server);
  EXPECT_TRUE(saw_health);
  h.server->Shutdown();
}

TEST(ClientTest, ApplyTuningTakesEffectRemotely) {
  Harness h = Harness::Start(MemoryOpts());
  auto client = h.Connect();
  for (uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(client->Put(i, i).ok());

  TuningWire t;
  t.size_ratio = 6;
  t.policy = 1;  // tiering
  t.filter_allocation = 0;
  t.buffer_entries = 128;
  t.filter_bits_per_entry = 6.0;
  ASSERT_TRUE(client->ApplyTuning(t).ok());

  const lsm::Options now = h.db->options();
  EXPECT_EQ(now.size_ratio, 6);
  EXPECT_EQ(now.policy, lsm::CompactionPolicy::kTiering);
  EXPECT_EQ(now.buffer_entries, 128u);

  // Invalid knobs are rejected remotely with InvalidArgument.
  TuningWire bad = t;
  bad.policy = 9;
  const Status st = client->ApplyTuning(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  h.server->Shutdown();
}

TEST(ClientTest, PipelineExecutesInOrderAndCoalescesPuts) {
  Harness h = Harness::Start(MemoryOpts());
  auto client = h.Connect();

  auto pipe = client->NewPipeline();
  for (uint64_t i = 0; i < 32; ++i) pipe.Put(1000 + i, i);
  pipe.Get(1000);
  pipe.Scan(1000, 1008);
  pipe.Delete(1000);
  pipe.Get(1000);
  auto results = pipe.Execute();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 36u);
  for (size_t i = 0; i < 32; ++i) EXPECT_TRUE((*results)[i].status.ok());
  ASSERT_TRUE((*results)[32].value.has_value());
  EXPECT_EQ(*(*results)[32].value, 0u);
  EXPECT_EQ((*results)[33].entries.size(), 8u);
  EXPECT_TRUE((*results)[34].status.ok());
  EXPECT_FALSE((*results)[35].value.has_value());

  // The 32-PUT burst arrived in one readable batch: the server must have
  // folded (at least most of) it into group commits.
  const ServerCounters c = h.server->counters();
  EXPECT_GE(c.puts_coalesced, 2u);
  EXPECT_GE(c.coalesced_batches, 1u);
  h.server->Shutdown();
}

TEST(ClientTest, OversizedScanReturnsOutOfRange) {
  // A server with a tiny frame limit cannot encode a big scan response;
  // the client gets OutOfRange, not a truncated result.
  ServerOptions sopts;
  sopts.max_frame_payload = 1024;  // ~63 entries max
  Harness h = Harness::Start(MemoryOpts(), sopts);
  ClientOptions copts;
  copts.port = h.server->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  for (uint64_t i = 0; i < 50; ++i) pairs.emplace_back(i, i);
  ASSERT_TRUE((*client)->PutBatch(pairs).ok());
  auto small = (*client)->Scan(0, 10);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->size(), 10u);

  for (uint64_t i = 50; i < 200; ++i) {
    ASSERT_TRUE((*client)->Put(i, i).ok());
  }
  auto big = (*client)->Scan(0, 200);
  EXPECT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  h.server->Shutdown();
}

std::vector<std::pair<lsm::Key, lsm::Value>> EvenKeys(uint64_t n) {
  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) pairs.emplace_back(2 * i, i);
  return pairs;
}

TEST(ClientTest, OversizedScanStopsReadingAtTheFrameLimit) {
  // The server streams a scan into its response frame, so a range far
  // past the frame limit costs the pages of one frame, not of the range:
  // every shard opens its runs' first pages, then reading stops once
  // the frame is full.
  ServerOptions sopts;
  sopts.max_frame_payload = 1024;  // 62 entries
  Harness h = Harness::Start(MemoryOpts(), sopts);
  ASSERT_TRUE(h.db->BulkLoad(EvenKeys(100000)).ok());
  auto client = h.Connect();

  const uint64_t before = h.db->TotalStats().range_pages_read.load();
  auto big = client->Scan(0, 200000);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  const uint64_t pages = h.db->TotalStats().range_pages_read.load() - before;
  EXPECT_LE(pages, 64u) << "the scan read " << pages << " pages";

  // The same connection answers the next scan in full.
  auto small = client->Scan(1000, 1080);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_EQ(small->size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ((*small)[i].first, 1000 + 2 * i);
    EXPECT_EQ((*small)[i].second, 500 + i);
  }
  EXPECT_EQ(client->reconnects(), 0u);
  h.server->Shutdown();
}

TEST(ClientTest, ScanFailingMidStreamAnswersTheEngineError) {
  // A page read fails after part of the response is already encoded:
  // the server rolls the frame back and answers the engine's status —
  // never a partial result — and the connection keeps serving.
  const std::string dir = "/tmp/endure_client_scan_fault";
  std::filesystem::remove_all(dir);
  lsm::Options opts = MemoryOpts();
  opts.backend = lsm::StorageBackend::kFile;
  opts.storage_dir = dir;
  Harness h = Harness::Start(opts);
  ASSERT_TRUE(h.db->BulkLoad(EvenKeys(20000)).ok());
  h.db->WaitForMaintenance();
  auto client = h.Connect();

  StatusOr<std::vector<std::pair<lsm::Key, lsm::Value>>> got =
      Status::Internal("not run");
  uint64_t fired = 0;
  {
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentRead, {.skip = 40, .count = 1, .err = EIO});
    got = client->Scan(0, 2000);
    fired = fi->fired(FaultSite::kSegmentRead);
  }
  EXPECT_EQ(fired, 1u);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError)
      << got.status().ToString();

  auto value = client->Get(2 * 17);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->value_or(0), 17u);
  EXPECT_EQ(client->reconnects(), 0u);
  EXPECT_EQ(h.server->counters().protocol_errors, 0u);
  const Status health = h.db->Health();
  EXPECT_EQ(health.code(), StatusCode::kIOError);
  EXPECT_EQ(health.message().rfind("shard ", 0), 0u) << health.message();
  h.server->Shutdown();
  h.server.reset();
  h.db.reset();
  std::filesystem::remove_all(dir);
}

TEST(ClientTest, ReconnectsAfterServerRestart) {
  lsm::Options opts = MemoryOpts();
  Harness h = Harness::Start(opts);
  const uint16_t port = h.server->port();
  auto client = h.Connect();
  ASSERT_TRUE(client->Put(1, 1).ok());

  // Restart the server on the same port (same db: contents survive).
  h.server->Shutdown();
  h.server.reset();
  ServerOptions sopts;
  sopts.port = port;
  auto server2 = Server::Start(h.db.get(), sopts);
  ASSERT_TRUE(server2.ok()) << server2.status().ToString();
  h.server = std::move(server2).value();

  // The old connection is dead; the op must transparently reconnect.
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, 1u);
  EXPECT_GE(client->reconnects(), 1u);
  h.server->Shutdown();
}

TEST(ClientTest, ConnectFailsFastWhenNoServer) {
  ClientOptions copts;
  copts.port = 1;  // nothing listens on port 1
  copts.max_attempts = 2;
  copts.backoff_initial_ms = 1;
  auto client = Client::Connect(copts);
  EXPECT_FALSE(client.ok());
}

TEST(ClientTest, ThrottledOpsRetryWithBackoffUntilAdmitted) {
  // A starvation-level quota with no pending queue: every op past the
  // initial burst is shed. The client must absorb the throttles by
  // backing off (honoring the server's hint) and resending until
  // admitted — and count those retries.
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{5, 0};  // 5 ops/sec, burst of 5
  sopts.max_pending_per_tenant = 0;         // shed immediately, never park
  Harness h = Harness::Start(MemoryOpts(), sopts);
  ClientOptions copts;
  copts.port = h.server->port();
  copts.throttle_max_retries = 50;
  copts.throttle_backoff_cap_ms = 300;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  // Burn the burst, then two more ops that must each ride >= 1 retry.
  for (uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(client->Put(i, i).ok()) << "op " << i;
  }
  EXPECT_GE(client->throttle_retries(), 1u);
  EXPECT_GE(h.server->counters().admission_rejects, 1u);
  // The throttled connection was never closed: reconnects stayed 0.
  EXPECT_EQ(client->reconnects(), 0u);
  h.server->Shutdown();
}

TEST(ClientTest, ThrottleSurfacesWhenRetriesDisabled) {
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{5, 0};
  sopts.max_pending_per_tenant = 0;
  Harness h = Harness::Start(MemoryOpts(), sopts);
  ClientOptions copts;
  copts.port = h.server->port();
  copts.throttle_max_retries = 0;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).value();

  // Exhaust the burst, then catch the raw throttle.
  Status last = Status::OK();
  for (uint64_t i = 0; i < 10 && last.ok(); ++i) last = client->Put(i, i);
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(last.retry_after_ms(), 1u) << "throttle must carry a hint";
  EXPECT_EQ(client->throttle_retries(), 0u);

  // The connection survives a reject: a permitted op (STATS is exempt
  // from admission) still works on the same connection.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(client->reconnects(), 0u);
  h.server->Shutdown();
}

TEST(ClientTest, EngineErrorsAreNeverRetried) {
  // The retry contract's third leg: only transport failures and
  // throttles retry. A remote engine error must come back exactly once,
  // with zero throttle retries burned.
  Harness h = Harness::Start(MemoryOpts());
  auto client = h.Connect();
  TuningWire bad;
  bad.size_ratio = 6;
  bad.policy = 9;  // invalid
  bad.buffer_entries = 128;
  bad.filter_bits_per_entry = 6.0;
  const Status st = client->ApplyTuning(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->throttle_retries(), 0u);
  EXPECT_EQ(client->reconnects(), 0u);
  h.server->Shutdown();
}

TEST(ClientTest, HelloBindsTenantQuotaOverride) {
  // Default quota is starvation-level; the "gold" tenant overrides to
  // unlimited. A client that HELLOs as gold sails through where an
  // anonymous client throttles.
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{5, 0};
  sopts.max_pending_per_tenant = 0;
  sopts.tenant_quotas["gold"] = TenantQuota{0, 0};  // unlimited
  Harness h = Harness::Start(MemoryOpts(), sopts);

  ClientOptions gold_opts;
  gold_opts.port = h.server->port();
  gold_opts.tenant = "gold";
  gold_opts.throttle_max_retries = 0;
  auto gold_or = Client::Connect(gold_opts);
  ASSERT_TRUE(gold_or.ok()) << gold_or.status().ToString();
  auto gold = std::move(gold_or).value();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(gold->Put(i, i).ok()) << "gold op " << i;
  }
  EXPECT_EQ(gold->throttle_retries(), 0u);

  ClientOptions anon_opts;
  anon_opts.port = h.server->port();
  anon_opts.throttle_max_retries = 0;
  auto anon_or = Client::Connect(anon_opts);
  ASSERT_TRUE(anon_or.ok());
  auto anon = std::move(anon_or).value();
  Status last = Status::OK();
  for (uint64_t i = 0; i < 10 && last.ok(); ++i) {
    last = anon->Put(1000 + i, i);
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  h.server->Shutdown();
}

TEST(ClientTest, GarbageBytesGetErrorFrameThenClose) {
  Harness h = Harness::Start(MemoryOpts());
  auto sock = ConnectSocket("127.0.0.1", h.server->port());
  ASSERT_TRUE(sock.ok());
  const std::string garbage = "not a frame at all";
  ASSERT_TRUE(WriteAll(sock->get(), garbage.data(), garbage.size()).ok());

  // Read whatever the server sends before closing: exactly one error
  // frame with request id 0.
  FrameDecoder dec;
  std::string bytes;
  char buf[512];
  while (true) {
    const ssize_t n = ::read(sock->get(), buf, sizeof(buf));
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  dec.Feed(bytes.data(), bytes.size());
  Frame f;
  bool got = false;
  ASSERT_TRUE(dec.Next(&f, &got).ok());
  ASSERT_TRUE(got);
  EXPECT_EQ(f.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(f.request_id, 0u);
  EXPECT_FALSE(ParseStatusOnlyResponse(f).ok());
  EXPECT_GE(h.server->counters().protocol_errors, 1u);
  h.server->Shutdown();
}

TEST(ClientTest, ShutdownDrainsIdleConnectionsAndIsIdempotent) {
  Harness h = Harness::Start(MemoryOpts());
  auto c1 = h.Connect();
  auto c2 = h.Connect();
  ASSERT_TRUE(c1->Put(1, 1).ok());
  ASSERT_TRUE(c2->Put(2, 2).ok());
  h.server->Shutdown();
  h.server->Shutdown();  // idempotent
  const ServerCounters c = h.server->counters();
  EXPECT_EQ(c.connections_accepted, 2u);
  EXPECT_EQ(c.connections_closed, 2u);
  // Engine state survives the server: drain and read back in-process.
  EXPECT_TRUE(h.db->Drain().ok());
  EXPECT_EQ(h.db->Get(1), std::optional<lsm::Value>(1u));
}

TEST(ClientTest, OversizedFrameIsShedImmediatelyNotWedged) {
  // A frame costlier than the bucket's burst capacity (one second of
  // byte quota) can never be admitted: it must come back as an
  // immediate kResourceExhausted, not park forever and wedge the
  // connection behind it.
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{0, 200};  // 200 bytes/sec
  Harness h = Harness::Start(MemoryOpts(), sopts);
  ClientOptions copts;
  copts.port = h.server->port();
  copts.throttle_max_retries = 0;
  copts.recv_timeout_ms = 2000;  // a wedge would hit this, not 60s
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  for (uint64_t i = 0; i < 20; ++i) pairs.emplace_back(i, i);  // ~341 bytes
  const Status st = client->PutBatch(pairs);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
      << st.ToString();
  EXPECT_GE(st.retry_after_ms(), 1u);

  // The connection is not wedged: a frame that fits the burst capacity
  // still goes through on the same connection, and the oversized reject
  // consumed no tokens.
  EXPECT_TRUE(client->Put(99, 99).ok());
  EXPECT_EQ(client->reconnects(), 0u);
  EXPECT_GE(h.server->counters().admission_rejects, 1u);
  h.server->Shutdown();
}

TEST(ClientTest, UnsatisfiableQuotaConfigRejectedAtStart) {
  // 0 < ops_per_sec < 1 means a burst capacity below one op's cost:
  // nothing could ever be admitted. Server::Start must refuse it, for
  // the default quota and per-tenant overrides alike.
  auto db = lsm::ShardedDB::Open(MemoryOpts());
  ASSERT_TRUE(db.ok());
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{0.5, 0};
  auto s1 = Server::Start(db->get(), sopts);
  ASSERT_FALSE(s1.ok());
  EXPECT_EQ(s1.status().code(), StatusCode::kInvalidArgument);

  sopts.default_quota = TenantQuota{0, 0};
  sopts.tenant_quotas["frac"] = TenantQuota{0.25, 0};
  auto s2 = Server::Start(db->get(), sopts);
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.status().code(), StatusCode::kInvalidArgument);

  sopts.tenant_quotas.clear();
  sopts.max_tenants = 0;
  auto s3 = Server::Start(db->get(), sopts);
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClientTest, ExemptParkedFramesExecuteOnEof) {
  // PUT burns the 1-op burst, a second PUT parks on the empty bucket,
  // and STATS parks behind it for response order. Closing the write
  // side sheds the parked PUT with kResourceExhausted — but the
  // admission-exempt STATS must still EXECUTE (the operator exemption
  // holds even on the shed path), not come back as a bogus throttle.
  ServerOptions sopts;
  sopts.default_quota = TenantQuota{1, 0};
  Harness h = Harness::Start(MemoryOpts(), sopts);
  auto sock = ConnectSocket("127.0.0.1", h.server->port());
  ASSERT_TRUE(sock.ok());

  std::string burst = EncodePutRequest(1, 10, 100);
  burst += EncodePutRequest(2, 20, 200);
  burst += EncodeStatsRequest(3);
  ASSERT_TRUE(WriteAll(sock->get(), burst.data(), burst.size()).ok());
  ASSERT_EQ(::shutdown(sock->get(), SHUT_WR), 0);

  std::string bytes;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(sock->get(), buf, sizeof(buf));
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (true) {
    Frame f;
    bool got = false;
    ASSERT_TRUE(dec.Next(&f, &got).ok());
    if (!got) break;
    frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_TRUE(ParseStatusOnlyResponse(frames[0]).ok());
  EXPECT_EQ(frames[1].request_id, 2u);
  EXPECT_EQ(ParseStatusOnlyResponse(frames[1]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(frames[2].request_id, 3u);
  std::vector<StatPair> stats;
  ASSERT_TRUE(ParseStatsResponse(frames[2], &stats).ok());
  bool saw_shards = false;
  for (const auto& [name, value] : stats) {
    if (name == "num_shards") saw_shards = true;
  }
  EXPECT_TRUE(saw_shards);
  h.server->Shutdown();
}

TEST(ClientTest, PipelineSuffixRetryKeepsCommittedResults) {
  // Scripted server: pass 1 commits requests 0 and 2 but throttles 1;
  // the suffix resend (1 and 2) then throttles 2's idempotent re-apply
  // with retries exhausted. Request 2 WAS executed in pass 1 — its
  // result must stay OK, never be relabeled kResourceExhausted (the
  // documented "a throttled result was never executed" contract).
  uint16_t port = 0;
  auto listener = CreateListener("127.0.0.1", 0, 4, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread script([fd = listener->get()] {
    // The listener is nonblocking: poll accept until the client lands.
    int conn = -1;
    for (int spins = 0; conn < 0 && spins < 5000; ++spins) {
      conn = ::accept(fd, nullptr, nullptr);
      if (conn < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (conn < 0) return;
    OwnedFd owned(conn);
    FrameDecoder dec;
    auto read_frames = [&](size_t count, std::vector<Frame>* out) {
      char buf[4096];
      while (out->size() < count) {
        Frame f;
        bool got = false;
        if (!dec.Next(&f, &got).ok()) return false;
        if (got) {
          out->push_back(std::move(f));
          continue;
        }
        const ssize_t n = ::read(conn, buf, sizeof(buf));
        if (n <= 0) return false;
        dec.Feed(buf, static_cast<size_t>(n));
      }
      return true;
    };

    std::vector<Frame> pass1;
    if (!read_frames(3, &pass1)) return;
    std::string out = EncodeStatusResponse(Opcode::kPut,
                                           pass1[0].request_id, Status::OK());
    out += EncodeStatusResponse(Opcode::kPut, pass1[1].request_id,
                                Status::ResourceExhausted("busy", 1));
    out += EncodeStatusResponse(Opcode::kPut, pass1[2].request_id,
                                Status::OK());
    if (!WriteAll(conn, out.data(), out.size()).ok()) return;

    std::vector<Frame> pass2;
    if (!read_frames(2, &pass2)) return;
    EXPECT_EQ(pass2[0].request_id, pass1[1].request_id);
    EXPECT_EQ(pass2[1].request_id, pass1[2].request_id);
    out = EncodeStatusResponse(Opcode::kPut, pass2[0].request_id,
                               Status::OK());
    out += EncodeStatusResponse(Opcode::kPut, pass2[1].request_id,
                                Status::ResourceExhausted("busy", 1));
    (void)WriteAll(conn, out.data(), out.size());
  });

  ClientOptions copts;
  copts.port = port;
  copts.max_attempts = 1;
  copts.throttle_max_retries = 1;  // buggy code fails fast, not hangs
  copts.recv_timeout_ms = 2000;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  auto pipeline = client->NewPipeline();
  pipeline.Put(1, 1);
  pipeline.Put(2, 2);
  pipeline.Put(3, 3);
  auto results = pipeline.Execute();
  script.join();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].status.ok());
  EXPECT_TRUE((*results)[1].status.ok()) << "retried throttle must resolve";
  EXPECT_TRUE((*results)[2].status.ok())
      << "committed result relabeled as throttle: "
      << (*results)[2].status.ToString();
  EXPECT_EQ(client->throttle_retries(), 1u);
}

TEST(ClientTest, HelloThrottleHonorsRetryAfterHint) {
  // With the tenant table capped at the anonymous tenant alone, every
  // HELLO is rejected kResourceExhausted with the server's 1000ms hint.
  // The client must surface that throttle (not an IOError wrapper) and,
  // when retries are enabled, sleep the server's hint — not the 10ms
  // transport backoff — between HELLO attempts.
  ServerOptions sopts;
  sopts.max_tenants = 1;  // only the anonymous tenant fits
  Harness h = Harness::Start(MemoryOpts(), sopts);

  ClientOptions copts;
  copts.port = h.server->port();
  copts.tenant = "late";
  copts.max_attempts = 1;
  copts.throttle_max_retries = 0;
  auto fast = Client::Connect(copts);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(fast.status().retry_after_ms(), 1u);

  copts.throttle_max_retries = 1;
  const auto start = std::chrono::steady_clock::now();
  auto retried = Client::Connect(copts);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(elapsed_ms, 900) << "retry must honor the server's 1000ms hint";
  h.server->Shutdown();
}

}  // namespace
}  // namespace endure::net
