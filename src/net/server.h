// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// endure_server: an epoll-based async TCP front-end over ShardedDB
// speaking the length-prefixed binary protocol of net/protocol.h
// (GET / PUT / DELETE / PUT_BATCH / SCAN / STATS / APPLY_TUNING / FLUSH).
//
// One event-loop thread multiplexes every connection. Requests pipeline
// per connection: a client may write any number of frames back to back;
// responses are returned in request order. Consecutive PUT frames that
// arrive in one readable batch are coalesced into a single
// ShardedDB::PutBatch call — one WAL group commit (and at most one
// fsync under kPerBatch) acknowledges the whole run of puts, exactly the
// write-coalescing win the in-process PutBatch API gives local callers.
// Engine calls run inline on the loop thread: reads are lock-free in the
// engine, and a write stalled by backpressure applies that backpressure
// to every connection — the server never buffers unacknowledged writes.
//
// Admission control runs ahead of execution. Every connection belongs
// to a tenant (the anonymous default tenant until a HELLO frame binds
// an id); each tenant has a token bucket (ops/sec and bytes/sec) and a
// bounded pending queue. A frame that cannot be admitted immediately is
// parked in arrival order behind its connection; when the tenant's
// queue is full the frame is shed with kResourceExhausted and a
// retry-after hint — never a silent drop, never a connection close.
// Shedding happens before PUT coalescing, so a rejected write can never
// ride a group commit. Parked frames preserve the per-connection
// response order exactly.
//
// Shutdown() drains gracefully: the listener closes first, requests
// already received are finished and their responses flushed (bounded by
// ServerOptions::drain_timeout_ms), then connections close. Parked
// (throttled) requests are shed with kResourceExhausted at drain start:
// they were never executed, and the client's reject tells it so.
// Admission-exempt frames (STATS, HELLO) that were parked only for
// response ordering are executed, not shed — an operator can observe a
// deployment even mid-drain. A
// request whose frame had not completely arrived at shutdown is never
// executed — the client sees the connection close without an ack, the
// same signal as a crash before commit. See docs/server.md.

#ifndef ENDURE_NET_SERVER_H_
#define ENDURE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"
#include "net/socket_util.h"
#include "util/status.h"

namespace endure::lsm {
class ShardedDB;
}  // namespace endure::lsm

namespace endure::net {

/// Admission quota of one tenant. Zero on a dimension means unlimited;
/// a tenant with both dimensions zero is never throttled. The bucket's
/// burst capacity is one second of quota, starting full. A nonzero
/// ops_per_sec must be >= 1 (Server::Start rejects fractional rates —
/// a burst capacity below one op could never admit anything). A frame
/// larger than bytes_per_sec is shed immediately with
/// kResourceExhausted rather than parked: it could never be admitted,
/// and parking it would wedge the connection forever.
struct TenantQuota {
  double ops_per_sec = 0;
  double bytes_per_sec = 0;
  bool limited() const { return ops_per_sec > 0 || bytes_per_sec > 0; }
};

struct ServerOptions {
  /// IPv4 address to bind (dotted quad). Loopback by default: exposing
  /// a deployment beyond the host is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (Server::port() reports it).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Per-frame payload ceiling enforced by every connection's decoder
  /// (and by SCAN response encoding).
  uint32_t max_frame_payload = kDefaultMaxPayload;
  /// Upper bound on the graceful-drain phase of Shutdown(): responses
  /// not flushable within this window are abandoned (slow-consumer
  /// protection; the requests themselves completed against the engine).
  int drain_timeout_ms = 5000;
  /// Quota applied to every tenant without an explicit override —
  /// including the anonymous tenant connections belong to before HELLO.
  TenantQuota default_quota;
  /// Per-tenant overrides, keyed by the HELLO tenant id.
  std::unordered_map<std::string, TenantQuota> tenant_quotas;
  /// Throttled frames parked per tenant before further ones are shed
  /// with kResourceExhausted. 0 sheds immediately (no parking).
  uint32_t max_pending_per_tenant = 64;
  /// Distinct tenant ids the server will track (including the anonymous
  /// default tenant). A HELLO past the cap is rejected with
  /// kResourceExhausted — a hostile client cannot grow the tenant table
  /// unboundedly. Must be >= 1.
  size_t max_tenants = 1024;
};

/// Monotonic, relaxed-read server counters (the server-side STATS rows).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests_served = 0;     ///< responses written (incl. errors)
  uint64_t puts_coalesced = 0;      ///< PUT frames folded into group commits
  uint64_t coalesced_batches = 0;   ///< PutBatch calls made of >= 2 PUTs
  uint64_t protocol_errors = 0;     ///< connections killed by bad frames
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t admission_rejects = 0;   ///< frames shed with kResourceExhausted
  uint64_t throttled_ms = 0;        ///< total time admitted frames sat parked
  uint64_t queue_depth_peak = 0;    ///< max parked depth any tenant reached
};

/// The epoll server. Start() binds synchronously (port() is valid on
/// return) and spawns the loop thread; Shutdown() (or destruction)
/// drains and joins it. The ShardedDB must outlive the server.
class Server {
 public:
  static StatusOr<std::unique_ptr<Server>> Start(lsm::ShardedDB* db,
                                                 const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound port (resolves port 0 requests).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish requests already received,
  /// flush their responses (bounded by drain_timeout_ms), close
  /// everything, join the loop thread. Idempotent; callable from any
  /// thread except the loop thread itself.
  void Shutdown();

  /// Relaxed snapshot of the server counters.
  ServerCounters counters() const;

 private:
  struct Conn;
  struct Tenant;

  using Clock = std::chrono::steady_clock;

  Server(lsm::ShardedDB* db, const ServerOptions& options);

  Status Init();
  void Loop();
  void AcceptNew();
  void HandleReadable(Conn* conn);
  void ProcessFrames(Conn* conn);
  /// Admission gate: runs ahead of DispatchFrame for every complete
  /// frame. Dispatches immediately when nothing is parked and the
  /// tenant's bucket has tokens; otherwise parks the frame (order
  /// preserved) or, with the tenant's queue full, sheds it with
  /// kResourceExhausted + retry-after.
  void HandleFrame(Conn* conn, Frame&& frame);
  /// Pops the connection's parked queue while its head is admissible:
  /// rejected entries flush their precomputed response, throttled
  /// entries re-try the token bucket.
  void DrainParked(Conn* conn);
  /// Empties the connection's parked queue in order: throttled entries
  /// are shed with kResourceExhausted, admission-exempt entries (STATS,
  /// HELLO — parked only to keep response order) are executed. Used at
  /// drain start, on EOF and on protocol errors — a parked frame is
  /// never silently dropped.
  void ShedParked(Conn* conn, const char* why);
  /// Looks up (or creates) the tenant for `id`; nullptr when the tenant
  /// table is full.
  Tenant* GetTenant(const std::string& id);
  /// Refills `t`'s bucket and deducts one op + `bytes` if both fit.
  bool TryCharge(Tenant* t, double bytes, Clock::time_point now);
  /// True when a frame of `bytes` can NEVER pass TryCharge no matter
  /// how long it waits: its cost exceeds the bucket's burst capacity
  /// (one second of quota). Such frames are shed immediately.
  bool ExceedsBurstCapacity(const Tenant* t, double bytes) const;
  /// Advisory backoff: milliseconds until `t`'s bucket could admit one
  /// op of `bytes`, clamped to [1, 5000].
  uint32_t RetryAfterMs(const Tenant* t, double bytes,
                        Clock::time_point now) const;
  void DispatchFrame(Conn* conn, const Frame& frame);
  /// Applies the pending coalesced PUT run (if any) through one
  /// PutBatch group commit and queues one response per PUT.
  void FlushPendingPuts(Conn* conn);
  void QueueResponse(Conn* conn, std::string frame_bytes);
  /// The connection's out-buffer, its sent prefix compacted away, for a
  /// response encoded in place.
  std::string* OutBuffer(Conn* conn);
  /// Streams a SCAN's entries into its response frame in the out-buffer
  /// and queues it. Non-OK (a read error, or a result past the frame
  /// limit, where it stops reading) leaves the buffer as it was; the
  /// caller answers the status instead.
  Status QueueScanResponse(Conn* conn, uint64_t request_id, lsm::Key lo,
                           lsm::Key hi);
  /// Writes as much of conn->outbuf as the socket accepts; arms/disarms
  /// EPOLLOUT; closes the connection when `closing` and drained.
  void FlushWrites(Conn* conn);
  void CloseConn(Conn* conn);
  void UpdateEpoll(Conn* conn);

  lsm::ShardedDB* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  OwnedFd epoll_fd_;
  OwnedFd listen_fd_;
  OwnedFd wake_fd_;  ///< eventfd: Shutdown -> loop wakeup

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// Tenant admission state, keyed by tenant id ("" = the anonymous
  /// default tenant). Loop-thread only; entries live for the server's
  /// lifetime (the table is capped, a HELLO past the cap is rejected).
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants_;
  /// Parked (throttled, not yet rejected) frames across all
  /// connections — when nonzero the loop polls with a short timeout to
  /// re-try buckets as they refill.
  size_t parked_total_ = 0;
  bool draining_ = false;  ///< loop-thread state

  std::thread loop_;
  std::mutex shutdown_mu_;
  bool shutdown_called_ = false;
  std::atomic<bool> stop_requested_{false};

  // Counters: written by the loop thread, read from any thread.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> puts_coalesced_{0};
  std::atomic<uint64_t> coalesced_batches_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> throttled_ms_{0};
  std::atomic<uint64_t> queue_depth_peak_{0};
};

}  // namespace endure::net

#endif  // ENDURE_NET_SERVER_H_
