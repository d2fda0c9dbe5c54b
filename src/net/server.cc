// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "lsm/sharded_db.h"

namespace endure::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;

/// Clamp for the advisory retry-after hint carried by throttle rejects.
constexpr uint32_t kMaxRetryAfterMs = 5000;

/// Admission cost of a frame on the bytes/sec dimension.
double FrameCost(const Frame& frame) {
  return static_cast<double>(kFrameHeaderBytes + frame.payload.size());
}

/// True for opcodes the token bucket charges. STATS stays exempt so an
/// operator can always observe a throttled deployment, HELLO so a
/// tenant can always identify itself; both still park behind earlier
/// frames to preserve response order. Unknown opcodes are exempt too —
/// they terminate the connection in DispatchFrame.
bool IsThrottledOpcode(uint8_t op) {
  return IsRequestOpcode(op) && op != static_cast<uint8_t>(Opcode::kStats) &&
         op != static_cast<uint8_t>(Opcode::kHello);
}
}  // namespace

/// Per-tenant admission state (loop-thread only, so no locks): a token
/// bucket per quota dimension plus the parked-frame depth across every
/// connection bound to the tenant.
struct Server::Tenant {
  std::string id;
  TenantQuota quota;
  double op_tokens = 0;
  double byte_tokens = 0;
  Clock::time_point last_refill{};
  uint32_t pending = 0;  ///< parked (charged, not rejected) frames
};

/// Per-connection state. Frames are processed the moment they complete,
/// so at any instant the connection's pending work is exactly `outbuf`
/// (responses not yet accepted by the socket) plus an incomplete frame
/// prefix inside `decoder` (never executed if the connection dies).
struct Server::Conn {
  explicit Conn(OwnedFd f, uint32_t max_payload)
      : fd(std::move(f)), decoder(max_payload) {}

  OwnedFd fd;
  FrameDecoder decoder;
  std::string outbuf;
  size_t out_off = 0;
  /// No more reads (EOF or protocol error); close once outbuf drains.
  bool closing = false;
  /// Events currently registered with epoll (avoids redundant MOD calls).
  uint32_t epoll_events = 0;
  /// Coalescing scratch: the run of consecutive PUT frames seen in the
  /// current ProcessFrames pass (request ids parallel to pairs).
  std::vector<uint64_t> pending_put_ids;
  std::vector<std::pair<lsm::Key, lsm::Value>> pending_put_pairs;

  /// One frame held back by admission control. Either a throttled frame
  /// waiting for tokens (`charged` holds the tenant whose pending count
  /// it occupies) or an already-shed frame whose reject response waits
  /// its turn in the response order (`rejected`).
  struct Parked {
    Frame frame;
    Clock::time_point arrived{};
    Tenant* charged = nullptr;
    bool rejected = false;
    std::string response;
  };

  /// The tenant this connection bills against (the anonymous default
  /// tenant until HELLO binds an id).
  Tenant* tenant = nullptr;
  /// Frames not yet dispatched, in arrival order. Responses must come
  /// back in request order, so once anything is parked every later
  /// frame parks behind it.
  std::deque<Parked> parked;
};

Server::Server(lsm::ShardedDB* db, const ServerOptions& options)
    : db_(db), options_(options) {}

StatusOr<std::unique_ptr<Server>> Server::Start(lsm::ShardedDB* db,
                                                const ServerOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("Server::Start: null ShardedDB");
  }
  if (options.drain_timeout_ms < 0) {
    return Status::InvalidArgument("drain_timeout_ms must be >= 0");
  }
  if (options.max_frame_payload < 64) {
    return Status::InvalidArgument("max_frame_payload must be >= 64");
  }
  if (options.max_tenants < 1) {
    return Status::InvalidArgument("max_tenants must be >= 1");
  }
  // A nonzero ops_per_sec below 1 would make the bucket's burst
  // capacity (one second of quota) smaller than a single op's cost:
  // no frame could ever be admitted. Reject the config outright.
  auto quota_error = [](const TenantQuota& q) -> const char* {
    if (!(q.ops_per_sec >= 0 && q.bytes_per_sec >= 0 &&
          std::isfinite(q.ops_per_sec) && std::isfinite(q.bytes_per_sec))) {
      return "must be finite and >= 0";
    }
    if (q.ops_per_sec > 0 && q.ops_per_sec < 1.0) {
      return "ops_per_sec must be 0 (unlimited) or >= 1";
    }
    return nullptr;
  };
  if (const char* err = quota_error(options.default_quota)) {
    return Status::InvalidArgument(std::string("default quota ") + err);
  }
  for (const auto& [id, quota] : options.tenant_quotas) {
    if (id.size() > kMaxTenantIdBytes) {
      return Status::InvalidArgument("tenant id \"" + id + "\" exceeds " +
                                     std::to_string(kMaxTenantIdBytes) +
                                     " bytes");
    }
    if (const char* err = quota_error(quota)) {
      return Status::InvalidArgument("quota for tenant \"" + id + "\" " +
                                     err);
    }
  }
  std::unique_ptr<Server> server(new Server(db, options));
  ENDURE_RETURN_IF_ERROR(server->Init());
  server->loop_ = std::thread([s = server.get()] { s->Loop(); });
  return server;
}

Status Server::Init() {
  epoll_fd_ = OwnedFd(::epoll_create1(0));
  if (!epoll_fd_.valid()) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = OwnedFd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  auto listener = CreateListener(options_.bind_address, options_.port,
                                 options_.backlog, &port_);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(listener).value();

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  ev.data.fd = listen_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev) <
      0) {
    return Status::IOError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  // The anonymous tenant exists before the cap can fill the table, so
  // every accepted connection always has somewhere to bill.
  GetTenant(std::string());
  return Status::OK();
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shutdown_called_) {
      // A second caller must still not return before the loop exits.
      if (loop_.joinable()) loop_.join();
      return;
    }
    shutdown_called_ = true;
  }
  stop_requested_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_fd_.get(), &one, sizeof(one));
  if (loop_.joinable()) loop_.join();
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  c.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  c.requests_served = requests_served_.load(std::memory_order_relaxed);
  c.puts_coalesced = puts_coalesced_.load(std::memory_order_relaxed);
  c.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  c.throttled_ms = throttled_ms_.load(std::memory_order_relaxed);
  c.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  return c;
}

Server::Tenant* Server::GetTenant(const std::string& id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end()) return it->second.get();
  if (tenants_.size() >= options_.max_tenants) return nullptr;
  auto tenant = std::make_unique<Tenant>();
  tenant->id = id;
  auto q = options_.tenant_quotas.find(id);
  tenant->quota =
      q != options_.tenant_quotas.end() ? q->second : options_.default_quota;
  // The bucket starts full: burst capacity is one second of quota.
  tenant->op_tokens = tenant->quota.ops_per_sec;
  tenant->byte_tokens = tenant->quota.bytes_per_sec;
  tenant->last_refill = Clock::now();
  Tenant* raw = tenant.get();
  tenants_.emplace(id, std::move(tenant));
  return raw;
}

bool Server::ExceedsBurstCapacity(const Tenant* t, double bytes) const {
  if (!t->quota.limited()) return false;
  // Defensive: Start() already rejects 0 < ops_per_sec < 1.
  if (t->quota.ops_per_sec > 0 && t->quota.ops_per_sec < 1.0) return true;
  return t->quota.bytes_per_sec > 0 && bytes > t->quota.bytes_per_sec;
}

bool Server::TryCharge(Tenant* t, double bytes, Clock::time_point now) {
  if (!t->quota.limited()) return true;
  const double secs =
      std::chrono::duration<double>(now - t->last_refill).count();
  if (secs > 0) {
    t->last_refill = now;
    if (t->quota.ops_per_sec > 0) {
      t->op_tokens = std::min(t->quota.ops_per_sec,
                              t->op_tokens + secs * t->quota.ops_per_sec);
    }
    if (t->quota.bytes_per_sec > 0) {
      t->byte_tokens = std::min(t->quota.bytes_per_sec,
                                t->byte_tokens + secs * t->quota.bytes_per_sec);
    }
  }
  if (t->quota.ops_per_sec > 0 && t->op_tokens < 1.0) return false;
  if (t->quota.bytes_per_sec > 0 && t->byte_tokens < bytes) return false;
  if (t->quota.ops_per_sec > 0) t->op_tokens -= 1.0;
  if (t->quota.bytes_per_sec > 0) t->byte_tokens -= bytes;
  return true;
}

uint32_t Server::RetryAfterMs(const Tenant* t, double bytes,
                              Clock::time_point now) const {
  double wait_secs = 0;
  const double since =
      std::chrono::duration<double>(now - t->last_refill).count();
  if (t->quota.ops_per_sec > 0) {
    const double have = std::min(t->quota.ops_per_sec,
                                 t->op_tokens + since * t->quota.ops_per_sec);
    if (have < 1.0) {
      wait_secs = std::max(wait_secs, (1.0 - have) / t->quota.ops_per_sec);
    }
  }
  if (t->quota.bytes_per_sec > 0) {
    const double have =
        std::min(t->quota.bytes_per_sec,
                 t->byte_tokens + since * t->quota.bytes_per_sec);
    if (have < bytes) {
      wait_secs = std::max(wait_secs, (bytes - have) / t->quota.bytes_per_sec);
    }
  }
  const double ms = std::ceil(wait_secs * 1000.0);
  if (ms <= 1.0) return 1;
  if (ms >= kMaxRetryAfterMs) return kMaxRetryAfterMs;
  return static_cast<uint32_t>(ms);
}

void Server::Loop() {
  std::vector<epoll_event> events(128);
  Clock::time_point drain_deadline{};

  while (true) {
    if (draining_) {
      // Connections whose responses are fully flushed have nothing in
      // flight: close them now. ProcessFrames already ran for every
      // byte read, so outbuf is the complete remaining obligation.
      std::vector<int> done;
      for (auto& [fd, conn] : conns_) {
        if (conn->out_off >= conn->outbuf.size()) done.push_back(fd);
      }
      for (int fd : done) {
        auto it = conns_.find(fd);
        if (it != conns_.end()) CloseConn(it->second.get());
      }
      if (conns_.empty()) break;
    }

    int timeout_ms = -1;
    if (draining_) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          drain_deadline - Clock::now());
      if (left.count() <= 0) break;  // slow consumers: abandon
      timeout_ms = static_cast<int>(left.count());
    } else if (parked_total_ > 0) {
      // Throttled frames are waiting on bucket refills, not on socket
      // events: poll again when the earliest head could be admitted.
      uint32_t wait = 100;
      const auto now = Clock::now();
      for (const auto& [fd, conn] : conns_) {
        if (conn->parked.empty()) continue;
        const Conn::Parked& head = conn->parked.front();
        if (head.charged == nullptr) {
          wait = 1;  // rejected/exempt head: flushable immediately
          break;
        }
        wait = std::min(
            wait, RetryAfterMs(head.charged, FrameCost(head.frame), now));
      }
      timeout_ms = static_cast<int>(std::max(1u, wait));
    }

    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed: nothing recoverable
    }

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_.get()) {
        uint64_t drop;
        while (::read(wake_fd_.get(), &drop, sizeof(drop)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_.get()) {
        if (!draining_) AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !conn->closing) HandleReadable(conn);
      // HandleReadable may have closed the connection.
      if (conns_.find(fd) == conns_.end()) continue;
      if ((ev & (EPOLLOUT | EPOLLIN)) != 0) FlushWrites(conn);
    }

    // Re-try parked heads against their (refilling) buckets.
    if (parked_total_ > 0) {
      std::vector<int> parked_fds;
      for (const auto& [fd, conn] : conns_) {
        if (!conn->parked.empty()) parked_fds.push_back(fd);
      }
      for (int fd : parked_fds) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        DrainParked(conn);
        FlushPendingPuts(conn);
        FlushWrites(conn);  // may close the connection
      }
    }

    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      // Drain: the listener closes first (no new connections or
      // requests), already-received requests were executed on arrival,
      // so what remains is flushing their responses. Parked (throttled)
      // frames in flight are shed with kResourceExhausted — rejected,
      // never silently dropped — which keeps the drain window bounded
      // by flushing, not by quota refill rates.
      draining_ = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
      listen_fd_.Reset();
      std::vector<int> parked_fds;
      for (const auto& [fd, conn] : conns_) {
        if (!conn->parked.empty()) parked_fds.push_back(fd);
      }
      for (int fd : parked_fds) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        ShedParked(conn, "server draining");
        FlushWrites(conn);
      }
    }
  }

  // Force-close whatever the drain deadline abandoned.
  while (!conns_.empty()) CloseConn(conns_.begin()->second.get());
}

void Server::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: epoll re-reports
    }
    OwnedFd owned(fd);
    (void)SetTcpNoDelay(fd);  // best-effort
    auto conn =
        std::make_unique<Conn>(std::move(owned), options_.max_frame_payload);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn (and fd) destroyed: nothing registered
    }
    conn->epoll_events = EPOLLIN;
    conn->tenant = GetTenant(std::string());  // pre-created in Init
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::HandleReadable(Conn* conn) {
  char buf[kReadChunk];
  bool eof = false;
  while (true) {
    const ssize_t r = ::read(conn->fd.get(), buf, sizeof(buf));
    if (r > 0) {
      bytes_read_.fetch_add(static_cast<uint64_t>(r),
                            std::memory_order_relaxed);
      conn->decoder.Feed(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  ProcessFrames(conn);
  if (eof && !conn->closing) {
    // The client finished its side; anything it pipelined was either
    // executed or — if still parked by admission — shed with a reject
    // now, since no refill will ever be read back. Flush, then close.
    ShedParked(conn, "connection closing");
    conn->closing = true;
  }
}

void Server::ProcessFrames(Conn* conn) {
  while (true) {
    Frame frame;
    bool got = false;
    const Status st = conn->decoder.Next(&frame, &got);
    if (!st.ok()) {
      // Unresynchronizable stream: reject anything still parked (their
      // frames were well-formed; they must not vanish silently), then
      // one clean error frame, then close.
      ShedParked(conn, "connection closing on protocol error");
      FlushPendingPuts(conn);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn, EncodeErrorFrame(st));
      conn->closing = true;
      return;
    }
    if (!got) break;
    HandleFrame(conn, std::move(frame));
    if (conn->closing) return;  // dispatch hit a fatal frame
  }
  FlushPendingPuts(conn);
}

void Server::HandleFrame(Conn* conn, Frame&& frame) {
  const auto now = Clock::now();
  const double cost = FrameCost(frame);
  const bool throttled = IsThrottledOpcode(frame.opcode);
  // A frame costlier than the bucket's burst capacity can never pass
  // TryCharge no matter how long it waits: shed it up front. Parking
  // it would wedge the connection forever (the never-admissible head
  // would block every later frame and busy-wake the loop).
  const bool oversized =
      throttled && ExceedsBurstCapacity(conn->tenant, cost);
  // Fast path: nothing parked ahead (order is safe) and the bucket
  // admits the frame right now.
  if (!oversized && conn->parked.empty() &&
      (!throttled || TryCharge(conn->tenant, cost, now))) {
    DispatchFrame(conn, frame);
    return;
  }
  Conn::Parked parked;
  parked.arrived = now;
  if (!throttled) {
    // Exempt frames still park so responses keep request order; they
    // never charge the bucket or occupy the tenant's pending budget.
    parked.frame = std::move(frame);
  } else if (oversized) {
    // Waiting cannot help, so the hint is pinned to the clamp: the
    // client should treat this like a sustained throttle and give up
    // (or split the request) rather than hammer retries.
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    parked.rejected = true;
    parked.response = EncodeStatusResponse(
        static_cast<Opcode>(frame.opcode), frame.request_id,
        Status::ResourceExhausted(
            "frame of " + std::to_string(static_cast<uint64_t>(cost)) +
                " bytes exceeds tenant \"" + conn->tenant->id +
                "\" burst capacity (bytes_per_sec=" +
                std::to_string(static_cast<uint64_t>(
                    conn->tenant->quota.bytes_per_sec)) +
                "); split the request",
            kMaxRetryAfterMs));
  } else if (!draining_ &&
             conn->tenant->pending < options_.max_pending_per_tenant) {
    parked.frame = std::move(frame);
    parked.charged = conn->tenant;
    const uint32_t depth = ++conn->tenant->pending;
    if (depth > queue_depth_peak_.load(std::memory_order_relaxed)) {
      queue_depth_peak_.store(depth, std::memory_order_relaxed);
    }
  } else {
    // Shed: the tenant's queue is full (or the server is draining).
    // The reject is a first-class response — precomputed here, emitted
    // in request order by DrainParked — with a hint sized to the bucket
    // deficit plus the queue already ahead of the caller.
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    uint32_t hint = RetryAfterMs(conn->tenant, cost, now);
    if (conn->tenant->quota.ops_per_sec > 0) {
      const double queue_ms =
          1000.0 * conn->tenant->pending / conn->tenant->quota.ops_per_sec;
      hint = static_cast<uint32_t>(std::min<double>(
          kMaxRetryAfterMs, hint + std::ceil(queue_ms)));
    }
    parked.rejected = true;
    parked.response = EncodeStatusResponse(
        static_cast<Opcode>(frame.opcode), frame.request_id,
        Status::ResourceExhausted(
            draining_ ? "server draining"
                      : "tenant \"" + conn->tenant->id +
                            "\" over admission quota",
            hint));
  }
  conn->parked.push_back(std::move(parked));
  ++parked_total_;
  DrainParked(conn);
}

void Server::DrainParked(Conn* conn) {
  const auto now = Clock::now();
  while (!conn->parked.empty() && !conn->closing) {
    Conn::Parked& head = conn->parked.front();
    if (head.rejected) {
      // A coalesced PUT run buffered ahead of this reject must ack
      // first — shed-before-coalesce also means reject-after-commit.
      FlushPendingPuts(conn);
      QueueResponse(conn, std::move(head.response));
      conn->parked.pop_front();
      --parked_total_;
      continue;
    }
    if (head.charged != nullptr) {
      if (!TryCharge(head.charged, FrameCost(head.frame), now)) break;
      --head.charged->pending;
      throttled_ms_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - head.arrived)
                  .count()),
          std::memory_order_relaxed);
    }
    Frame frame = std::move(head.frame);
    conn->parked.pop_front();
    --parked_total_;
    DispatchFrame(conn, frame);
  }
}

void Server::ShedParked(Conn* conn, const char* why) {
  if (conn->parked.empty()) return;
  FlushPendingPuts(conn);
  parked_total_ -= conn->parked.size();
  std::deque<Conn::Parked> parked;
  parked.swap(conn->parked);
  for (Conn::Parked& entry : parked) {
    if (entry.rejected) {
      QueueResponse(conn, std::move(entry.response));
      continue;
    }
    if (entry.charged == nullptr && !conn->closing) {
      // Admission-exempt frames (STATS, HELLO) parked only to keep
      // response order: execute them. They were never subject to
      // quota, and the operator must stay able to observe a draining
      // deployment. (Skipped once dispatch turned the connection
      // fatal — the final error frame is already queued.)
      DispatchFrame(conn, entry.frame);
      continue;
    }
    if (entry.charged != nullptr) --entry.charged->pending;
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(
        conn,
        EncodeStatusResponse(static_cast<Opcode>(entry.frame.opcode),
                             entry.frame.request_id,
                             Status::ResourceExhausted(why, 50)));
  }
}

void Server::DispatchFrame(Conn* conn, const Frame& frame) {
  const auto op = static_cast<Opcode>(frame.opcode);

  // Coalescing: buffer consecutive PUTs; any other opcode (or the end
  // of this readable batch) commits the run in one PutBatch.
  if (op == Opcode::kPut) {
    lsm::Key key;
    lsm::Value value;
    const Status st = ParsePutRequest(frame, &key, &value);
    if (!st.ok()) {
      FlushPendingPuts(conn);
      QueueResponse(conn,
                    EncodeStatusResponse(Opcode::kPut, frame.request_id, st));
      return;
    }
    conn->pending_put_ids.push_back(frame.request_id);
    conn->pending_put_pairs.emplace_back(key, value);
    return;
  }
  FlushPendingPuts(conn);

  switch (op) {
    case Opcode::kGet: {
      lsm::Key key;
      const Status st = ParseGetRequest(frame, &key);
      if (!st.ok()) {
        QueueResponse(
            conn, EncodeStatusResponse(Opcode::kGet, frame.request_id, st));
        return;
      }
      QueueResponse(conn, EncodeGetResponse(frame.request_id, db_->Get(key)));
      return;
    }
    case Opcode::kDelete: {
      lsm::Key key;
      Status st = ParseDeleteRequest(frame, &key);
      if (st.ok()) st = db_->Delete(key);
      QueueResponse(
          conn, EncodeStatusResponse(Opcode::kDelete, frame.request_id, st));
      return;
    }
    case Opcode::kPutBatch: {
      std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
      Status st = ParsePutBatchRequest(frame, &pairs);
      if (st.ok()) st = db_->PutBatch(pairs);
      QueueResponse(conn, EncodeStatusResponse(Opcode::kPutBatch,
                                               frame.request_id, st));
      return;
    }
    case Opcode::kScan: {
      lsm::Key lo, hi;
      Status st = ParseScanRequest(frame, &lo, &hi);
      if (st.ok()) st = QueueScanResponse(conn, frame.request_id, lo, hi);
      if (!st.ok()) {
        QueueResponse(
            conn, EncodeStatusResponse(Opcode::kScan, frame.request_id, st));
      }
      return;
    }
    case Opcode::kStats: {
      std::vector<StatPair> stats = db_->RemoteStatsSnapshot();
      const ServerCounters c = counters();
      stats.emplace_back("server_connections_accepted",
                         c.connections_accepted);
      stats.emplace_back("server_connections_closed", c.connections_closed);
      stats.emplace_back("server_requests_served", c.requests_served);
      stats.emplace_back("server_puts_coalesced", c.puts_coalesced);
      stats.emplace_back("server_coalesced_batches", c.coalesced_batches);
      stats.emplace_back("server_protocol_errors", c.protocol_errors);
      stats.emplace_back("server_bytes_read", c.bytes_read);
      stats.emplace_back("server_bytes_written", c.bytes_written);
      stats.emplace_back("server_admission_rejects", c.admission_rejects);
      stats.emplace_back("server_throttled_ms", c.throttled_ms);
      stats.emplace_back("server_queue_depth_peak", c.queue_depth_peak);
      QueueResponse(conn, EncodeStatsResponse(frame.request_id, stats));
      return;
    }
    case Opcode::kHello: {
      std::string tenant_id;
      Status st = ParseHelloRequest(frame, &tenant_id);
      if (st.ok()) {
        Tenant* tenant = GetTenant(tenant_id);
        if (tenant == nullptr) {
          st = Status::ResourceExhausted("tenant table full", 1000);
          admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Frames already parked stay billed to the tenant that
          // admitted them; the new binding governs frames from here on.
          conn->tenant = tenant;
        }
      }
      QueueResponse(
          conn, EncodeStatusResponse(Opcode::kHello, frame.request_id, st));
      return;
    }
    case Opcode::kApplyTuning: {
      TuningWire t;
      Status st = ParseApplyTuningRequest(frame, &t);
      if (st.ok() && t.policy > 2) {
        st = Status::InvalidArgument("bad policy value " +
                                     std::to_string(t.policy));
      }
      if (st.ok() && t.filter_allocation > 1) {
        st = Status::InvalidArgument("bad filter_allocation value " +
                                     std::to_string(t.filter_allocation));
      }
      if (st.ok()) {
        lsm::Options next = db_->options();
        next.size_ratio = static_cast<int>(t.size_ratio);
        next.policy = static_cast<lsm::CompactionPolicy>(t.policy);
        next.filter_allocation =
            static_cast<lsm::FilterAllocation>(t.filter_allocation);
        next.buffer_entries = t.buffer_entries;
        next.filter_bits_per_entry = t.filter_bits_per_entry;
        st = db_->ApplyTuning(next);
      }
      QueueResponse(conn, EncodeStatusResponse(Opcode::kApplyTuning,
                                               frame.request_id, st));
      return;
    }
    case Opcode::kFlush: {
      QueueResponse(conn, EncodeStatusResponse(Opcode::kFlush,
                                               frame.request_id,
                                               db_->Flush()));
      return;
    }
    default: {
      // Unknown opcode inside a well-framed header: the stream framing
      // may still be intact, but the peer speaks a different dialect —
      // reject loudly and close, like the magic check.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn,
                    EncodeErrorFrame(Status::InvalidArgument(
                        "unknown opcode " + std::to_string(frame.opcode))));
      conn->closing = true;
      return;
    }
  }
}

void Server::FlushPendingPuts(Conn* conn) {
  if (conn->pending_put_ids.empty()) return;
  Status st;
  if (conn->pending_put_pairs.size() == 1) {
    st = db_->Put(conn->pending_put_pairs[0].first,
                  conn->pending_put_pairs[0].second);
  } else {
    st = db_->PutBatch(conn->pending_put_pairs);
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    puts_coalesced_.fetch_add(conn->pending_put_pairs.size(),
                              std::memory_order_relaxed);
  }
  for (const uint64_t id : conn->pending_put_ids) {
    QueueResponse(conn, EncodeStatusResponse(Opcode::kPut, id, st));
  }
  conn->pending_put_ids.clear();
  conn->pending_put_pairs.clear();
}

void Server::QueueResponse(Conn* conn, std::string frame_bytes) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  *OutBuffer(conn) += frame_bytes;
}

std::string* Server::OutBuffer(Conn* conn) {
  // Compact the consumed prefix before it dominates the buffer.
  if (conn->out_off > 0 && conn->out_off >= conn->outbuf.size() / 2) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  return &conn->outbuf;
}

Status Server::QueueScanResponse(Conn* conn, uint64_t request_id,
                                 lsm::Key lo, lsm::Key hi) {
  // Entries go straight from the engine's cursors into the frame: a SCAN
  // holds one frame of memory, and stops reading at the frame limit.
  const size_t max_entries = (options_.max_frame_payload - 32) / 16;
  ScanResponseWriter writer(OutBuffer(conn), request_id);
  bool too_big = false;
  Status st = db_->Scan(lo, hi, [&](const lsm::Entry& e) {
    if (writer.count() == max_entries) {
      too_big = true;
      return false;
    }
    writer.Add(e.key, e.value);
    return true;
  });
  if (st.ok() && too_big) {
    st = Status::OutOfRange("scan result exceeds the per-frame limit (" +
                            std::to_string(max_entries) +
                            " entries); narrow the range");
  }
  if (!st.ok()) {
    writer.Abandon();  // never a partial frame
    return st;
  }
  writer.Finish();
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Server::FlushWrites(Conn* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t w =
        ::send(conn->fd.get(), conn->outbuf.data() + conn->out_off,
               conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn);
      return;
    }
    bytes_written_.fetch_add(static_cast<uint64_t>(w),
                             std::memory_order_relaxed);
    conn->out_off += static_cast<size_t>(w);
  }
  const bool drained = conn->out_off >= conn->outbuf.size();
  if (drained) {
    conn->outbuf.clear();
    conn->out_off = 0;
    if (conn->closing) {
      CloseConn(conn);
      return;
    }
  }
  UpdateEpoll(conn);
}

void Server::UpdateEpoll(Conn* conn) {
  uint32_t want = 0;
  if (!conn->closing) want |= EPOLLIN;
  if (conn->out_off < conn->outbuf.size()) want |= EPOLLOUT;
  if (want == conn->epoll_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) == 0) {
    conn->epoll_events = want;
  }
}

void Server::CloseConn(Conn* conn) {
  const int fd = conn->fd.get();
  // A force-closed connection (peer hangup, drain deadline) may still
  // hold parked frames: release their tenant pending budget. No
  // responses — the transport is gone, which is the unacked-write
  // signal clients already resolve by resending.
  for (const Conn::Parked& entry : conn->parked) {
    if (!entry.rejected && entry.charged != nullptr) {
      --entry.charged->pending;
    }
  }
  parked_total_ -= conn->parked.size();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  conns_.erase(fd);  // destroys conn (and closes the fd)
}

}  // namespace endure::net
