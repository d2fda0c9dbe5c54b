// Session-replay driver: replays the paper's Section 8.2 session
// sequences (workload::SessionGenerator) through net::Client into the
// shipped endure_server binary, which serves a durable, file-backed
// ShardedDB built by bridge::OpenTunedShardedDb with the Endure robust
// tuning. See README.md in this directory for the workloads, metrics and
// the trace format; run.py is the entry point that builds and calls it.
//
//   session_replay --workload=read_disk --seed=1 --seconds=30 --trace=0
//                  --server=<endure_server> --work-dir=<scratch dir>
//                  [--spans=<file>]
//
// Every layer is measured from outside: client round trips are timed
// here, engine counters come from the STATS op (ShardedDB::TotalStats
// plus the server's counters), and in a traced run the identical op
// stream is replayed against an in-process ShardedDB opened on a copy
// of the same deployment, timing each direct engine call. The last line
// of stdout is one JSON object for run.py.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bridge/tuned_db.h"
#include "core/endure.h"
#include "lsm/sharded_db.h"
#include "net/client.h"
#include "util/flags.h"
#include "workload/expected_workloads.h"
#include "workload/query_generator.h"
#include "workload/session.h"

namespace endure::perfbench {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ constants --
// The deployment shape is identical on every workload; only the expected
// workload, rho, the sequence and the block cache differ.

/// Bulk-loaded entries (keys 2*i, values i). 25-byte encoded entries at 4
/// per page put ~26 MB on disk: >= 10x the 1 MiB cache, and well under
/// half of the 64 MiB one.
constexpr uint64_t kEntries = 1000000;
constexpr int kShards = 4;
/// Closed loop: one blocking request in flight per connection. Two keep
/// the server's single event loop busy.
constexpr int kConnections = 2;
/// Rounds per run. Each sets up a fresh deployment (setup_s is the median)
/// and, in an untraced run, replays the whole stream (every end-to-end
/// metric is the median over the rounds).
constexpr int kRounds = 5;
/// Workloads drawn per session. More than the figures' 3-5, so that a
/// session's mix (and with it the run's) varies little from seed to seed.
constexpr int kWorkloadsPerSession = 20;
/// Short ranges, as in the paper (S_RQ * N / B ~ 0.5 pages per level).
constexpr uint64_t kRangeSpanEntries = 2;
/// Warm-up scans the whole key space in chunks of this many entries
/// (1 MiB SCAN responses, well under the 4 MiB frame ceiling).
constexpr uint64_t kWarmupChunkEntries = 1 << 16;
/// Live user bytes per entry (8-byte key + 8-byte value).
constexpr double kUserBytesPerEntry = 16.0;

struct WorkloadSpec {
  const char* name;
  Workload expected;
  double rho;
  bool read_only;  ///< ReadOnlySequence (Figs. 8-9) vs MixedSequence
  int cache_mb;
  /// Op budget per second of --seconds: a fixed count, so a run does the
  /// same work on every commit; set so a run takes about --seconds here.
  uint64_t ops_per_second;
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"read_disk", workload::GetExpectedWorkload(11).workload, 0.25, true,
       1, 45000},
      {"read_cached", workload::GetExpectedWorkload(11).workload, 0.25, true,
       64, 30000},
      {"mixed_writes", Workload(0.10, 0.10, 0.10, 0.70), 0.5, false, 1,
       40000},
  };
  return specs;
}

// ------------------------------------------------------------- op stream --

enum OpClass : uint8_t {
  kGetEmpty = kEmptyPointQuery,
  kGetNonEmpty = kNonEmptyPointQuery,
  kScan = kRangeQuery,
  kPut = kWrite,
};
constexpr int kNumClasses = kNumQueryClasses;
constexpr const char* kClassNames[kNumClasses] = {"get_empty", "get_nonempty",
                                                  "scan", "put"};

struct Op {
  uint64_t key = 0;
  uint64_t limit = 0;  ///< scan end (exclusive)
  uint32_t id = 0;     ///< 1-based position in the run's op stream
  uint8_t cls = 0;
  /// Entries a scan must return. They differ only when the scan's span
  /// reaches keys written by the same workload, whose writes race it.
  uint32_t scan_min = 0;
  uint32_t scan_max = 0;
};

struct SessionPlan {
  workload::Session session;
  std::vector<std::vector<Op>> traces;  ///< one per workload, in order
  uint64_t ops = 0;
};

/// Generates the whole op stream from the seed, before anything is timed.
/// Gets only target keys that exist before their workload starts
/// (GenerateTrace samples reads before it extends the key universe), and
/// connections meet at a barrier after every workload, so each get and
/// scan has one known answer.
std::vector<SessionPlan> BuildStream(const WorkloadSpec& spec, uint64_t seed,
                                     uint64_t ops_per_workload) {
  Rng rng(seed);
  workload::SessionOptions sopts;
  sopts.workloads_per_session = kWorkloadsPerSession;
  workload::SessionGenerator gen(spec.expected, &rng, sopts);
  std::vector<workload::Session> sessions =
      spec.read_only ? gen.ReadOnlySequence() : gen.MixedSequence();
  workload::KeyUniverse universe(kEntries);
  workload::TraceOptions topts;
  topts.range_span_entries = kRangeSpanEntries;

  std::vector<SessionPlan> plan;
  uint32_t next_id = 1;
  for (workload::Session& session : sessions) {
    SessionPlan sp;
    for (const Workload& w : session.workloads) {
      const uint64_t before = universe.count();
      workload::QueryTrace qt =
          workload::GenerateTrace(w, ops_per_workload, &universe, &rng, topts);
      const uint64_t after = universe.count();
      std::vector<Op> ops;
      ops.reserve(qt.ops.size());
      for (const workload::Operation& o : qt.ops) {
        Op op;
        op.key = o.key;
        op.limit = o.limit;
        op.id = next_id++;
        op.cls = static_cast<uint8_t>(o.type);
        if (op.cls == kScan) {
          const uint64_t first = o.key / 2;  // index of the first key
          op.scan_min = static_cast<uint32_t>(
              std::min<uint64_t>(kRangeSpanEntries, before - first));
          op.scan_max = static_cast<uint32_t>(
              std::min<uint64_t>(kRangeSpanEntries, after - first));
        }
        ops.push_back(op);
      }
      sp.ops += ops.size();
      sp.traces.push_back(std::move(ops));
    }
    sp.session = std::move(session);
    plan.push_back(std::move(sp));
  }
  return plan;
}

// --------------------------------------------------------- known answers --

std::string Describe(const Op& op) {
  return "op " + std::to_string(op.id) + " (" + kClassNames[op.cls] +
         " key " + std::to_string(op.key) +
         (op.cls == kScan ? " limit " + std::to_string(op.limit) : "") + ")";
}

/// "" when `got` is the known answer of get `op`, else what is wrong.
std::string CheckGet(const Op& op, const std::optional<lsm::Value>& got) {
  if (op.cls == kGetEmpty) {
    return got.has_value() ? "empty get returned a value" : "";
  }
  if (!got.has_value()) return "non-empty get missed";
  if (*got != op.key / 2) {
    return "non-empty get returned " + std::to_string(*got) + ", want " +
           std::to_string(op.key / 2);
  }
  return "";
}

lsm::Key KeyOf(const std::pair<lsm::Key, lsm::Value>& e) { return e.first; }
lsm::Value ValueOf(const std::pair<lsm::Key, lsm::Value>& e) {
  return e.second;
}
lsm::Key KeyOf(const lsm::Entry& e) { return e.key; }
lsm::Value ValueOf(const lsm::Entry& e) { return e.value; }

/// Checks that a scan from `lo` returned exactly the consecutive even keys
/// lo, lo+2, ... with value key/2, between `min` and `max` of them.
template <typename Entries>
std::string CheckScanEntries(lsm::Key lo, uint64_t min, uint64_t max,
                             const Entries& entries) {
  if (entries.size() < min || entries.size() > max) {
    return "scan returned " + std::to_string(entries.size()) +
           " entries, want " + std::to_string(min) +
           (min == max ? "" : ".." + std::to_string(max));
  }
  for (size_t j = 0; j < entries.size(); ++j) {
    const lsm::Key want = lo + 2 * j;
    if (KeyOf(entries[j]) != want || ValueOf(entries[j]) != want / 2) {
      return "scan entry " + std::to_string(j) + " is (" +
             std::to_string(KeyOf(entries[j])) + ", " +
             std::to_string(ValueOf(entries[j])) + "), want (" +
             std::to_string(want) + ", " + std::to_string(want / 2) + ")";
    }
  }
  return "";
}

// ------------------------------------------------------------- executors --
// One per connection / replay thread; Run returns "" when the op succeeded
// with its known answer.

class WireExec {
 public:
  explicit WireExec(net::Client* client) : client_(client) {}

  std::string Run(const Op& op) {
    switch (op.cls) {
      case kGetEmpty:
      case kGetNonEmpty: {
        auto got = client_->Get(op.key);
        if (!got.ok()) return got.status().ToString();
        return CheckGet(op, *got);
      }
      case kScan: {
        auto got = client_->Scan(op.key, op.limit);
        if (!got.ok()) return got.status().ToString();
        return CheckScanEntries(op.key, op.scan_min, op.scan_max, *got);
      }
      default: {
        const Status st = client_->Put(op.key, op.key / 2);
        return st.ok() ? "" : st.ToString();
      }
    }
  }

 private:
  net::Client* client_;
};

class EngineExec {
 public:
  explicit EngineExec(lsm::ShardedDB* db) : db_(db) {}

  std::string Run(const Op& op) {
    switch (op.cls) {
      case kGetEmpty:
      case kGetNonEmpty:
        return CheckGet(op, db_->Get(op.key));
      case kScan: {
        auto got = db_->Scan(op.key, op.limit);
        if (!got.ok()) return got.status().ToString();
        return CheckScanEntries(op.key, op.scan_min, op.scan_max, *got);
      }
      default: {
        const Status st = db_->Put(op.key, op.key / 2);
        return st.ok() ? "" : st.ToString();
      }
    }
  }

 private:
  lsm::ShardedDB* db_;
};

// ---------------------------------------------------------------- replay --

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OpRecord {
  uint32_t id;
  uint8_t cls;
  int64_t start_ns;
  int64_t end_ns;
};

/// One connection's part of one session: its wall time and its ops,
/// log.ops[first_op, end_op).
struct SessionRecord {
  int64_t start_ns;
  int64_t end_ns;
  size_t first_op;
  size_t end_op;
};

/// What one connection (replay thread) did in one pass.
struct ConnLog {
  std::vector<OpRecord> ops;
  std::vector<SessionRecord> sessions;
  uint64_t failed = 0;
  std::string first_error;
};

struct PassResult {
  std::vector<ConnLog> conns;
  std::vector<std::pair<int64_t, int64_t>> session_walls;  ///< all conns
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t puts = 0;  ///< fresh keys written (a failed one fails the run)
  std::string first_error;

  double wall_seconds() const {
    double s = 0;
    for (const auto& [a, b] : session_walls) s += (b - a) * 1e-9;
    return s;
  }
};

/// Replays `plan` closed-loop over execs.size() threads. Op i of every
/// workload goes to thread i % threads; threads meet at a barrier after
/// each workload. `boundary(s)` runs on the calling thread before session
/// s and once more (s = plan.size()) after the last one, outside every
/// timed interval.
template <typename Exec, typename Boundary>
PassResult ReplayPass(const std::vector<SessionPlan>& plan,
                      std::vector<Exec>* execs, Boundary boundary) {
  const size_t threads = execs->size();
  PassResult pass;
  pass.conns.resize(threads);
  uint64_t total_ops = 0;
  for (const SessionPlan& sp : plan) total_ops += sp.ops;
  for (ConnLog& log : pass.conns) log.ops.reserve(total_ops / threads + 1);

  for (size_t s = 0; s < plan.size(); ++s) {
    boundary(s);
    std::barrier sync(static_cast<std::ptrdiff_t>(threads));
    std::vector<std::thread> workers;
    for (size_t c = 0; c < threads; ++c) {
      workers.emplace_back([&, c] {
        Exec& exec = (*execs)[c];
        ConnLog& log = pass.conns[c];
        const int64_t session_start = NowNs();
        const size_t first_op = log.ops.size();
        for (const std::vector<Op>& trace : plan[s].traces) {
          for (size_t i = c; i < trace.size(); i += threads) {
            const Op& op = trace[i];
            const int64_t start = NowNs();
            std::string err = exec.Run(op);
            const int64_t end = NowNs();
            log.ops.push_back({op.id, op.cls, start, end});
            if (!err.empty() && log.failed++ == 0) {
              log.first_error = Describe(op) + ": " + err;
            }
          }
          sync.arrive_and_wait();
        }
        log.sessions.push_back(
            {session_start, NowNs(), first_op, log.ops.size()});
      });
    }
    for (std::thread& t : workers) t.join();
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (const ConnLog& log : pass.conns) {
      lo = std::min(lo, log.sessions[s].start_ns);
      hi = std::max(hi, log.sessions[s].end_ns);
    }
    pass.session_walls.emplace_back(lo, hi);
  }
  boundary(plan.size());

  for (const ConnLog& log : pass.conns) {
    pass.attempted += log.ops.size();
    pass.failed += log.failed;
    if (pass.first_error.empty()) pass.first_error = log.first_error;
    for (const OpRecord& r : log.ops) pass.puts += r.cls == kPut;
  }
  return pass;
}

/// Reads the whole key space in chunks and checks every entry, so caches
/// (block cache and OS page cache) are warm before timing.
template <typename ScanFn>
std::string Warmup(ScanFn scan) {
  for (uint64_t first = 0; first < kEntries; first += kWarmupChunkEntries) {
    const uint64_t n = std::min(kWarmupChunkEntries, kEntries - first);
    std::string err = scan(2 * first, 2 * (first + n), n);
    if (!err.empty()) {
      return "warm-up scan at key " + std::to_string(2 * first) + ": " + err;
    }
  }
  return "";
}

// -------------------------------------------------------------- counters --

using Counters = std::map<std::string, uint64_t>;

uint64_t Delta(const Counters& before, const Counters& after,
               const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  const uint64_t base = b == before.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Section 8.1 I/O per query, as bridge::ExperimentRunner computes it:
/// point + range page reads plus compaction reads and A_rw-weighted
/// flush/compaction writes.
double IoPerQuery(const Counters& b, const Counters& a, uint64_t queries,
                  double a_rw) {
  const double reads = static_cast<double>(Delta(b, a, "point_pages_read") +
                                           Delta(b, a, "range_pages_read"));
  const double writes =
      static_cast<double>(Delta(b, a, "compaction_pages_read")) +
      a_rw * static_cast<double>(Delta(b, a, "compaction_pages_written") +
                                 Delta(b, a, "flush_pages_written"));
  return Ratio(reads + writes, static_cast<double>(queries));
}

StatusOr<Counters> FetchStats(net::Client* client) {
  auto stats = client->Stats();
  if (!stats.ok()) return stats.status();
  return Counters(stats->begin(), stats->end());
}

// ---------------------------------------------------------------- server --

/// The endure_server binary in a child process. The destructor kills a
/// server that was not stopped (the child also dies with the driver).
class ServerProcess {
 public:
  static StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args) {
    // Everything the child needs is built before fork: it only makes
    // async-signal-safe calls until exec.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    auto proc = std::unique_ptr<ServerProcess>(new ServerProcess(pid, fds[0]));
    // "endure_server: serving <dir> on 127.0.0.1:<port> (...)"
    constexpr const char* kAddress = " on 127.0.0.1:";
    std::string line;
    while (proc->ReadLine(&line, 120000)) {
      const size_t at = line.find(kAddress);
      if (line.find("serving") != std::string::npos &&
          at != std::string::npos) {
        proc->port_ = static_cast<uint16_t>(
            std::stoi(line.substr(at + std::strlen(kAddress))));
        return proc;
      }
    }
    return Status::IOError("endure_server exited before serving");
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Peak resident set size of the server (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
      std::getline(in, key);
    }
    return 0.0;
  }

  /// SIGTERM: the server drains (Server::Shutdown + ShardedDB::Drain) and
  /// exits; OK iff it exits 0.
  Status Stop() {
    ::kill(pid_, SIGTERM);
    std::string line;
    while (ReadLine(&line, 120000)) {
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("endure_server did not exit cleanly");
    }
    return Status::OK();
  }

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  /// Reads one line of the server's stdout; false on EOF or timeout.
  bool ReadLine(std::string* line, int timeout_ms) {
    line->clear();
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_;
  int out_fd_;
  uint16_t port_ = 0;
  std::string buf_;
};

std::vector<std::string> ServerArgs(const std::string& dir, int cache_mb) {
  return {"--dir=" + dir,          "--port=0",
          "--shards=" + std::to_string(kShards), "--sync=background",
          "--cache-mb=" + std::to_string(cache_mb)};
}

StatusOr<std::vector<std::unique_ptr<net::Client>>> ConnectClients(
    uint16_t port) {
  std::vector<std::unique_ptr<net::Client>> clients;
  net::ClientOptions copts;
  copts.port = port;
  for (int c = 0; c < kConnections; ++c) {
    auto client = net::Client::Connect(copts);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }
  return clients;
}

std::string WireWarmup(net::Client* client) {
  return Warmup([client](lsm::Key lo, lsm::Key hi, uint64_t n) -> std::string {
    auto got = client->Scan(lo, hi);
    if (!got.ok()) return got.status().ToString();
    return CheckScanEntries(lo, n, n, *got);
  });
}

std::string EngineWarmup(lsm::ShardedDB* db) {
  return Warmup([db](lsm::Key lo, lsm::Key hi, uint64_t n) -> std::string {
    auto got = db->Scan(lo, hi);
    if (!got.ok()) return got.status().ToString();
    return CheckScanEntries(lo, n, n, *got);
  });
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------- output --

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Flat JSON object writer (string keys, number or raw-JSON values).
class JsonObject {
 public:
  void Add(const std::string& key, double v) { Raw(key, Num(v)); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void WriteSpan(std::FILE* f, const char* layer, const char* name,
               const std::string& id, const std::string& parent,
               const std::string& conn, int64_t start_ns, int64_t end_ns) {
  std::fprintf(f, "%s\t%s\t%s\t%s\t%s\t%lld\t%lld\n", layer, name,
               id.c_str(), parent.c_str(), conn.c_str(),
               static_cast<long long>(start_ns),
               static_cast<long long>(end_ns));
}

/// Writes the op spans depth first, each right after its parent: per
/// session and connection the session span (layer gen), then each client
/// op (layer net) followed by the direct engine call with the same op id
/// (layer lsm) — the identical request replayed in process against a copy
/// of the same deployment, so the logical child of that round trip.
void WriteOpSpans(std::FILE* f, const PassResult& wire,
                  const PassResult& engine,
                  const std::vector<SessionPlan>& plan) {
  uint64_t total_ops = 0;
  for (const SessionPlan& sp : plan) total_ops += sp.ops;
  std::vector<const OpRecord*> engine_by_id(total_ops + 1, nullptr);
  for (const ConnLog& log : engine.conns) {
    for (const OpRecord& r : log.ops) engine_by_id[r.id] = &r;
  }
  for (size_t s = 0; s < plan.size(); ++s) {
    for (size_t c = 0; c < wire.conns.size(); ++c) {
      const ConnLog& log = wire.conns[c];
      const SessionRecord& sr = log.sessions[s];
      const std::string conn = std::to_string(c);
      const std::string sess = "sess:" + std::to_string(s) + ":" + conn;
      WriteSpan(f, "gen", workload::SessionKindName(plan[s].session.kind),
                sess, "-", conn, sr.start_ns, sr.end_ns);
      for (size_t i = sr.first_op; i < sr.end_op; ++i) {
        const OpRecord& r = log.ops[i];
        const std::string op = "op:" + std::to_string(r.id);
        WriteSpan(f, "net", kClassNames[r.cls], op, sess, conn, r.start_ns,
                  r.end_ns);
        if (const OpRecord* e = engine_by_id[r.id]) {
          WriteSpan(f, "lsm", kClassNames[e->cls],
                    "eng:" + std::to_string(r.id), op, conn, e->start_ns,
                    e->end_ns);
        }
      }
    }
  }
}

/// One span per session of a pass: the wall time all connections took.
void WritePassSpans(std::FILE* f, const PassResult& pass, const char* name) {
  for (size_t s = 0; s < pass.session_walls.size(); ++s) {
    WriteSpan(f, "pass", name,
              std::string("pass:") + name + ":" + std::to_string(s), "-", "-",
              pass.session_walls[s].first, pass.session_walls[s].second);
  }
}

// ---------------------------------------------------------------- rounds --

struct SetupSpan {
  int iteration;
  const char* step;
  int64_t start_ns;
  int64_t end_ns;
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// A served deployment: the server process and one client per connection.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<net::Client>> clients;
};

/// Starts endure_server on `dir` and connects the clients.
StatusOr<Served> Serve(const std::string& server_bin, const std::string& dir,
                       int cache_mb) {
  Served s;
  auto started = ServerProcess::Start(server_bin, ServerArgs(dir, cache_mb));
  if (!started.ok()) return started.status();
  s.server = std::move(started).value();
  auto connected = ConnectClients(s.server->port());
  if (!connected.ok()) return connected.status();
  s.clients = std::move(connected).value();
  return s;
}

/// One set-up (repeat `k`): robust tuning, bulk load into `dir`, server
/// start with recovery of the loaded directory, warm-up. The loaded
/// directory is also copied to each of `copies` (untimed) before the
/// server opens it.
StatusOr<Served> SetUp(const WorkloadSpec& spec, const std::string& server_bin,
                       const std::string& dir,
                       const std::vector<std::string>& copies, int k,
                       std::vector<SetupSpan>* spans, Tuning* tuning) {
  fs::remove_all(dir);
  const SystemConfig cfg;  // the paper's configuration (tuning scale)
  int64_t t0 = NowNs();
  *tuning = RobustTuner(CostModel(cfg)).Tune(spec.expected, spec.rho).tuning;
  spans->push_back({k, "tune", t0, NowNs()});

  t0 = NowNs();
  {
    auto db = bridge::OpenTunedShardedDb(
        cfg, *tuning, kEntries, kShards, /*background_maintenance=*/true,
        lsm::StorageBackend::kFile, dir, WalSyncMode::kBackground);
    if (!db.ok()) return db.status();
  }
  spans->push_back({k, "bulk_load", t0, NowNs()});
  for (const std::string& copy : copies) {
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
  }

  t0 = NowNs();
  auto served = Serve(server_bin, dir, spec.cache_mb);
  if (!served.ok()) return served.status();
  spans->push_back({k, "server_start", t0, NowNs()});

  t0 = NowNs();
  const std::string err = WireWarmup(served->clients[0].get());
  if (!err.empty()) return Status::Internal(err);
  spans->push_back({k, "warmup", t0, NowNs()});
  return served;
}

/// One replay of the op stream over the wire, with the engine and server
/// counters (STATS) taken at every session boundary, then the drained
/// server's footprint.
struct WireRound {
  PassResult pass;
  std::vector<Counters> marks;  ///< before session s; back() = after all
  uint64_t reconnects = 0;
  uint64_t throttle_retries = 0;
  double peak_rss_mb = 0;
  double space_amp = 0;
};

StatusOr<WireRound> ReplayOverWire(const std::vector<SessionPlan>& plan,
                                   Served* served, const std::string& dir) {
  // Write back earlier set-up and round work now, not mid-replay.
  if (const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  WireRound round;
  round.marks.resize(plan.size() + 1);
  Status stats_status;
  std::vector<WireExec> execs;
  for (auto& c : served->clients) execs.emplace_back(c.get());
  round.pass = ReplayPass(plan, &execs, [&](size_t s) {
    auto got = FetchStats(served->clients[0].get());
    if (got.ok()) {
      round.marks[s] = std::move(got).value();
    } else {
      stats_status = got.status();
    }
  });
  ENDURE_RETURN_IF_ERROR(stats_status);
  for (auto& c : served->clients) {
    round.reconnects += c->reconnects();
    round.throttle_retries += c->throttle_retries();
  }
  round.peak_rss_mb = served->server->PeakRssMb();
  served->clients.clear();
  ENDURE_RETURN_IF_ERROR(served->server->Stop());  // drains
  served->server.reset();
  const double live_bytes =
      static_cast<double>(kEntries + round.pass.puts) * kUserBytesPerEntry;
  round.space_amp = static_cast<double>(DirBytes(dir)) / live_bytes;
  return round;
}

/// A round's known-answer verdict: every op answered right, and the server
/// neither shed nor rejected a frame.
bool RoundCorrect(const WireRound& r) {
  const Counters& b = r.marks.front();
  const Counters& a = r.marks.back();
  return r.pass.failed == 0 && Delta(b, a, "server_admission_rejects") == 0 &&
         Delta(b, a, "server_protocol_errors") == 0;
}

void ReportFailures(const PassResult& pass, const char* what, uint64_t seed) {
  if (pass.failed == 0) return;
  std::printf("FAILED (%s): %llu of %llu ops; first: %s (seed %llu)\n", what,
              static_cast<unsigned long long>(pass.failed),
              static_cast<unsigned long long>(pass.attempted),
              pass.first_error.c_str(), static_cast<unsigned long long>(seed));
}

/// End-to-end metrics of one round (all but setup_s); adds each
/// percentile's sample count to `n`.
std::map<std::string, double> EndToEnd(const WireRound& r, double a_rw,
                                       std::map<std::string, double>* n) {
  std::array<std::vector<double>, kNumClasses> lat;
  for (const ConnLog& log : r.pass.conns) {
    for (const OpRecord& op : log.ops) {
      lat[op.cls].push_back((op.end_ns - op.start_ns) * 1e-3);
    }
  }
  std::map<std::string, double> m;
  m["ops_per_sec"] = Ratio(r.pass.attempted, r.pass.wall_seconds());
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string name = kClassNames[c];
    for (const char* p : {"_p50_us", "_p99_us"}) {
      (*n)[name + p] += static_cast<double>(lat[c].size());
    }
    m[name + "_p50_us"] = Percentile(lat[c], 0.50);
    m[name + "_p99_us"] = Percentile(lat[c], 0.99);
  }
  m["ok_frac"] = 1.0 - Ratio(r.pass.failed, r.pass.attempted);
  m["error_frac"] = Ratio(r.pass.failed, r.pass.attempted);
  m["io_per_query"] =
      IoPerQuery(r.marks.front(), r.marks.back(), r.pass.attempted, a_rw);
  m["space_amp"] = r.space_amp;
  m["peak_rss_mb"] = r.peak_rss_mb;
  return m;
}

/// Per-session model-vs-measured rows (Section 8.1): CostModel::Cost of the
/// session's average workload under the deployed (rounded-T) tuning beside
/// the measured pages per query, as bridge::ExperimentRunner reports them.
/// Returns the query-weighted model and measured I/O per query.
std::pair<double, double> PrintModelRows(const std::vector<SessionPlan>& plan,
                                         const WireRound& r,
                                         const Tuning& tuning) {
  const SystemConfig cfg;
  SystemConfig scaled = bridge::ScaledConfig(cfg, kEntries);
  scaled.level_policy = LevelPolicy::kInteger;
  const CostModel model(scaled);
  Tuning deployed = tuning;  // the engine rounds T up (Section 8.3)
  deployed.size_ratio = std::ceil(tuning.size_ratio - 1e-9);
  std::printf("\n%-3s %-16s %-30s %8s %9s %9s %8s\n", "#", "session",
              "average (z0, z1, q, w)", "queries", "model_io", "system_io",
              "sys/mod");
  double model_weighted = 0;
  uint64_t total = 0;
  for (size_t s = 0; s < plan.size(); ++s) {
    const double model_io = model.Cost(plan[s].session.Average(), deployed);
    const double measured = IoPerQuery(r.marks[s], r.marks[s + 1],
                                       plan[s].ops, cfg.read_write_asymmetry);
    model_weighted += model_io * static_cast<double>(plan[s].ops);
    total += plan[s].ops;
    std::printf("%-3zu %-16s %-30s %8llu %9.3f %9.3f %8.3f\n", s + 1,
                workload::SessionKindName(plan[s].session.kind),
                plan[s].session.Average().ToString().c_str(),
                static_cast<unsigned long long>(plan[s].ops), model_io,
                measured, Ratio(measured, model_io));
  }
  const double model_io = model_weighted / static_cast<double>(total);
  const double measured_io = IoPerQuery(r.marks.front(), r.marks.back(),
                                        total, cfg.read_write_asymmetry);
  std::printf("%-3s %-16s %-30s %8llu %9.3f %9.3f %8.3f\n\n", "", "all", "",
              static_cast<unsigned long long>(total), model_io, measured_io,
              Ratio(measured_io, model_io));
  return {model_io, measured_io};
}

/// Per-layer counters: deltas of the served deployment over the traced
/// round.
void AddCounterMetrics(const WireRound& r, uint64_t total_ops, JsonObject* m) {
  const Counters& b = r.marks.front();
  const Counters& a = r.marks.back();
  auto d = [&](const char* name) {
    return static_cast<double>(Delta(b, a, name));
  };
  const double gets = d("gets"), scans = d("range_queries"),
               writes = d("writes");
  const double passed = d("bloom_probes") - d("bloom_negatives");
  m->Add("net.bytes_per_op",
         Ratio(d("server_bytes_read") + d("server_bytes_written"),
               static_cast<double>(total_ops)));
  m->Add("net.reconnects", static_cast<double>(r.reconnects));
  m->Add("net.throttle_retries", static_cast<double>(r.throttle_retries));
  m->Add("net.admission_rejects", d("server_admission_rejects"));
  m->Add("net.protocol_errors", d("server_protocol_errors"));
  m->Add("lsm.point_pages_per_get", Ratio(d("point_pages_read"), gets));
  m->Add("lsm.range_pages_per_scan", Ratio(d("range_pages_read"), scans));
  m->Add("lsm.bloom_probes_per_get", Ratio(d("bloom_probes"), gets));
  m->Add("lsm.bloom_fp_ratio", Ratio(d("bloom_false_positives"), passed));
  m->Add("lsm.fence_skips_per_scan", Ratio(d("fence_skips"), scans));
  m->Add("lsm.cache_hit_ratio",
         Ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")));
  m->Add("lsm.cache_evictions", d("cache_evictions"));
  m->Add("lsm.flush_pages_per_write",
         Ratio(d("flush_pages_written"), writes));
  m->Add("lsm.compaction_pages_read_per_write",
         Ratio(d("compaction_pages_read"), writes));
  m->Add("lsm.compaction_pages_written_per_write",
         Ratio(d("compaction_pages_written"), writes));
  m->Add("lsm.compactions", d("compactions"));
  m->Add("lsm.write_stalls", d("write_stalls"));
  m->Add("lsm.compaction_stall_ms", d("compaction_stall_ms"));
  m->Add("lsm.rate_limited_ms", d("rate_limited_ms"));
  m->Add("lsm.sched_jobs", d("sched_jobs"));
  const auto peak = a.find("sched_queue_peak");  // a gauge, not a counter
  m->Add("lsm.sched_queue_peak",
         peak == a.end() ? 0.0 : static_cast<double>(peak->second));
  m->Add("wal.records_per_write", Ratio(d("wal_records"), writes));
  m->Add("wal.bytes_per_write", Ratio(d("wal_bytes"), writes));
  m->Add("wal.syncs", d("wal_syncs"));
  m->Add("wal.rewrites", d("wal_rewrites"));
  m->Add("wal.manifest_writes", d("manifest_writes"));
}

void WriteSetupSpans(std::FILE* f, const std::vector<SetupSpan>& spans) {
  for (int k = 0; k < kRounds; ++k) {
    const std::string root = "setup:" + std::to_string(k);
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (const SetupSpan& sp : spans) {
      if (sp.iteration != k) continue;
      lo = std::min(lo, sp.start_ns);
      hi = std::max(hi, sp.end_ns);
    }
    WriteSpan(f, "setup", "setup", root, "-", "-", lo, hi);
    for (const SetupSpan& sp : spans) {
      if (sp.iteration == k) {
        WriteSpan(f, "setup", sp.step, root + ":" + sp.step, root, "-",
                  sp.start_ns, sp.end_ns);
      }
    }
  }
}

// ------------------------------------------------------------------ main --

int Fail(const std::string& what) {
  std::fprintf(stderr, "session_replay: %s\n", what.c_str());
  return 1;
}

double SetupSeconds(const std::vector<SetupSpan>& spans, int k) {
  double total = 0;
  for (const SetupSpan& sp : spans) {
    if (sp.iteration == k) total += sp.seconds();
  }
  return total;
}

std::vector<double> StepSeconds(const std::vector<SetupSpan>& spans,
                                const char* step) {
  std::vector<double> out;
  for (const SetupSpan& sp : spans) {
    if (std::strcmp(sp.step, step) == 0) out.push_back(sp.seconds());
  }
  return out;
}

int Run(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("workload", "", "read_disk | read_cached | mixed_writes");
  flags.AddInt("seed", 1, "workload seed (op stream and sessions)");
  flags.AddInt("seconds", 10, "replay length: op budget = seconds x rate");
  flags.AddInt("trace", 0, "1 = traced run (per-layer metrics + spans)");
  flags.AddString("server", "", "path of the endure_server binary");
  flags.AddString("work-dir", "", "scratch directory for deployments");
  flags.AddString("spans", "", "span file written by a traced run");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) return Fail(st.ToString() + "\n" + flags.Usage());

  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Specs()) {
    if (flags.GetString("workload") == s.name) spec = &s;
  }
  if (spec == nullptr) return Fail("unknown --workload");
  const bool traced = flags.GetInt("trace") != 0;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int64_t seconds = flags.GetInt("seconds");
  const std::string server_bin = flags.GetString("server");
  const std::string work = flags.GetString("work-dir");
  if (seconds < 1 || server_bin.empty() || work.empty() ||
      (traced && flags.GetString("spans").empty())) {
    return Fail("need --seconds >= 1, --server, --work-dir (and --spans "
                "when traced)");
  }

  // Each round replays the whole stream once, so a run replays it
  // kRounds times; the op budget covers --seconds in all.
  const uint64_t ops_per_workload = std::max<uint64_t>(
      100, spec->ops_per_second * static_cast<uint64_t>(seconds) /
               (kRounds * 6 * kWorkloadsPerSession));
  const std::vector<SessionPlan> plan =
      BuildStream(*spec, seed, ops_per_workload);
  uint64_t total_ops = 0;
  for (const SessionPlan& sp : plan) total_ops += sp.ops;
  const double a_rw = SystemConfig().read_write_asymmetry;
  const std::string dir = work + "/deploy";
  const std::string traced_dir = work + "/deploy_traced";
  const std::string engine_dir = work + "/deploy_engine";
  std::printf("workload %s: seed %llu, %llu ops per round (%llu per "
              "workload), %d rounds, %d connections, %d shards, %d MiB "
              "cache\n",
              spec->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(ops_per_workload),
              kRounds, kConnections, kShards, spec->cache_mb);

  // ---- rounds: set up, then (untraced run) replay; medians reported ----
  std::vector<SetupSpan> setup_spans;
  std::vector<WireRound> rounds;
  Tuning tuning;
  for (int k = 0; k < kRounds; ++k) {
    const bool last = k == kRounds - 1;
    std::vector<std::string> copies;
    if (traced && last) copies = {traced_dir, engine_dir};
    auto served =
        SetUp(*spec, server_bin, dir, copies, k, &setup_spans, &tuning);
    if (!served.ok()) return Fail("set-up: " + served.status().ToString());
    if (traced && !last) {  // a traced run replays after the last set-up
      served->clients.clear();
      st = served->server->Stop();
      if (!st.ok()) return Fail(st.ToString());
      continue;
    }
    auto round = ReplayOverWire(plan, &*served, dir);
    if (!round.ok()) return Fail("replay: " + round.status().ToString());
    ReportFailures(round->pass, "wire", seed);
    rounds.push_back(std::move(round).value());
  }
  std::printf("tuning: %s\n", tuning.ToString().c_str());

  JsonObject out;
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const WireRound& r : rounds) {
    attempted += r.pass.attempted;
    failed += r.pass.failed;
    correct = correct && RoundCorrect(r);
  }

  if (!traced) {
    PrintModelRows(plan, rounds.back(), tuning);
    std::map<std::string, std::vector<double>> per_metric;
    std::map<std::string, double> samples;
    for (const WireRound& r : rounds) {
      for (const auto& [name, v] : EndToEnd(r, a_rw, &samples)) {
        per_metric[name].push_back(v);
      }
    }
    JsonObject m, n;
    for (const auto& [name, values] : per_metric) m.Add(name, Median(values));
    std::vector<double> setups;
    for (int k = 0; k < kRounds; ++k) {
      setups.push_back(SetupSeconds(setup_spans, k));
    }
    m.Add("setup_s", Median(setups));
    for (const auto& [name, count] : samples) n.Add(name, count);
    out.Add("attempted", static_cast<double>(attempted));
    out.Add("failed", static_cast<double>(failed));
    out.Raw("correct", correct ? "true" : "false");
    out.Raw("metrics", m.str());
    out.Raw("samples", n.str());
    std::printf("%s\n", out.str().c_str());
    fs::remove_all(dir);
    return 0;
  }

  // ---- traced run: the same replay over the wire on a copy ----
  auto served = Serve(server_bin, traced_dir, spec->cache_mb);
  if (!served.ok()) return Fail(served.status().ToString());
  std::string err = WireWarmup(served->clients[0].get());
  if (!err.empty()) return Fail(err);
  auto traced_round = ReplayOverWire(plan, &*served, traced_dir);
  if (!traced_round.ok()) return Fail(traced_round.status().ToString());
  ReportFailures(traced_round->pass, "traced wire", seed);

  // ---- and against an in-process ShardedDB on another copy ----
  lsm::Options eopts;
  eopts.num_shards = kShards;
  eopts.background_maintenance = true;
  eopts.block_cache_bytes = static_cast<uint64_t>(spec->cache_mb) << 20;
  eopts.backend = lsm::StorageBackend::kFile;
  eopts.storage_dir = engine_dir;
  eopts.durability = true;
  eopts.wal_sync_mode = WalSyncMode::kBackground;
  int64_t t0 = NowNs();
  auto opened = lsm::ShardedDB::Open(eopts);
  if (!opened.ok()) return Fail("open: " + opened.status().ToString());
  std::unique_ptr<lsm::ShardedDB> db = std::move(opened).value();
  const double open_s = (NowNs() - t0) * 1e-9;
  err = EngineWarmup(db.get());
  if (!err.empty()) return Fail(err);
  std::vector<EngineExec> engine_execs(kConnections, EngineExec(db.get()));
  PassResult engine_pass = ReplayPass(plan, &engine_execs, [](size_t) {});
  ReportFailures(engine_pass, "in-process engine", seed);
  t0 = NowNs();
  st = db->Drain();
  const double drain_ms = (NowNs() - t0) * 1e-6;
  if (!st.ok()) return Fail("drain: " + st.ToString());
  db.reset();

  const auto [model_io, measured_io] =
      PrintModelRows(plan, *traced_round, tuning);

  std::FILE* f = std::fopen(flags.GetString("spans").c_str(), "w");
  if (f == nullptr) return Fail("cannot write the span file");
  std::fprintf(f, "layer\tname\tid\tparent\tconn\tstart_ns\tend_ns\n");
  WriteSetupSpans(f, setup_spans);
  WritePassSpans(f, rounds.back().pass, "untraced");
  WritePassSpans(f, traced_round->pass, "traced");
  WriteOpSpans(f, traced_round->pass, engine_pass, plan);
  if (std::fclose(f) != 0) return Fail("cannot write the span file");

  JsonObject m;
  AddCounterMetrics(*traced_round, total_ops, &m);
  m.Add("lsm.drain_ms", drain_ms);
  m.Add("core.tune_ms", Median(StepSeconds(setup_spans, "tune")) * 1e3);
  m.Add("bridge.bulk_load_s", Median(StepSeconds(setup_spans, "bulk_load")));
  m.Add("lsm.open_s", open_s);
  m.Add("core.model_io_per_query", model_io);
  m.Add("core.measured_over_model", Ratio(measured_io, model_io));
  // The traced and in-process passes answer the same known answers.
  attempted += traced_round->pass.attempted + engine_pass.attempted;
  failed += traced_round->pass.failed + engine_pass.failed;
  correct = correct && RoundCorrect(*traced_round) && engine_pass.failed == 0;
  out.Add("attempted", static_cast<double>(attempted));
  out.Add("failed", static_cast<double>(failed));
  out.Raw("correct", correct ? "true" : "false");
  out.Raw("metrics", m.str());
  std::printf("%s\n", out.str().c_str());
  for (const std::string& p : {dir, traced_dir, engine_dir}) fs::remove_all(p);
  return 0;
}

}  // namespace
}  // namespace endure::perfbench

int main(int argc, char** argv) {
  return endure::perfbench::Run(argc, argv);
}
