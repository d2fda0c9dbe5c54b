// micro_recovery: restart latency of a durable ShardedDB deployment
// (docs/durability.md, docs/operations.md) as a function of shard count,
// serial vs parallel shard recovery, plus the WAL-flusher thread count.
//
// Phases (for each shard count S in MICRO_RECOVERY_SHARDS):
//   recover_serial_s<S>    reopen a killed S-shard deployment with
//                          Options::recovery_threads = 1 (the prior
//                          sum-over-shards behaviour)
//   recover_parallel_s<S>  reopen an identical copy of the same killed
//                          deployment with recovery_threads = 0 (auto:
//                          min(S, hardware threads)) — max-over-shards
// Each killed deployment is prepared once and copied, so both opens
// replay byte-identical manifests, segments and WAL tails; ops = entries
// recovered, pages = recovery page reads. The flusher phase opens the
// largest deployment under WalSyncMode::kBackground and counts live
// threads via /proc/self/task: exactly one WalFlushService thread,
// whatever the shard count.
//
// Scale knobs (environment):
//   MICRO_RECOVERY_SHARDS  CSV of shard counts (default "1,4,8")
//   MICRO_RECOVERY_N       entries loaded into runs before the kill (30000)
//   MICRO_RECOVERY_WAL     entries left in the WAL tail to replay (4000)
//
// Usage: micro_recovery [output.json]  (always prints the JSON to stdout)

#include <filesystem>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/thread_pool.h"

ENDURE_BENCH_DEFINE_ALLOC_COUNTING()

namespace endure::lsm {
namespace {

using bench_util::Meter;
using bench_util::PhaseResult;

Options DeployOpts(const std::string& dir, int shards) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 8192;  // room for a real WAL tail below the seal
  o.entries_per_page = 64;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.num_shards = shards;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.wal_sync_interval_ms = 5;
  return o;
}

/// Builds an S-shard deployment with `n` entries settled into runs and
/// `wal_n` more resident only in the WAL, then kills it (no shutdown
/// checkpoint) so every reopen has manifests, segments and a WAL tail
/// to recover.
void PrepareKilledDeployment(const Options& opts, uint64_t n,
                             uint64_t wal_n) {
  std::filesystem::remove_all(opts.storage_dir);
  auto db = std::move(ShardedDB::Open(opts)).value();
  std::vector<std::pair<Key, Value>> batch;
  constexpr uint64_t kBatch = 256;
  for (uint64_t i = 0; i < n; i += kBatch) {
    batch.clear();
    for (uint64_t j = 0; j < kBatch && i + j < n; ++j) {
      batch.emplace_back(i + j, i + j);
    }
    db->PutBatch(batch);
  }
  db->Flush();  // checkpoint: everything so far owned by the manifests
  batch.clear();
  for (uint64_t i = 0; i < wal_n; ++i) {
    batch.emplace_back(n + i, i);
  }
  db->PutBatch(batch);  // stays memtable-resident: the WAL replay work
  db->CrashForTesting();
}

/// One timed reopen; ops = entries recovered, pages = recovery reads.
PhaseResult RecoverPhase(const Options& opts, uint64_t* wall_ms,
                         uint64_t* replayed) {
  WallTimer timer;
  Meter meter;
  auto db = std::move(ShardedDB::Open(opts)).value();
  *wall_ms = static_cast<uint64_t>(timer.Millis());
  const Statistics total = db->TotalStats();
  *replayed = total.wal_replayed_entries;
  const uint64_t entries = db->TotalEntries();
  return meter.Finish(entries > 0 ? entries : 1,
                      total.recovery_pages_read);
}

/// Live threads of this process (0 when /proc is unavailable).
uint64_t LiveThreads() {
  auto names = ListDir("/proc/self/task");
  return names.ok() ? names->size() : 0;
}

/// Parses a CSV of positive shard counts; exits with a usable message
/// on a malformed knob instead of an uncaught std::stoi exception.
std::vector<int> ParseShardList(const char* env, const char* def) {
  const char* raw = std::getenv(env);
  const std::string csv = raw != nullptr ? raw : def;
  std::vector<int> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    if (!tok.empty()) {
      char* end = nullptr;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > 4096) {
        std::fprintf(stderr, "invalid %s: \"%s\" (want a CSV of shard "
                             "counts in [1, 4096])\n", env, csv.c_str());
        std::exit(1);
      }
      out.push_back(static_cast<int>(v));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace endure::lsm

int main(int argc, char** argv) {
  using namespace endure::lsm;
  const uint64_t n =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_RECOVERY_N", 30000));
  const uint64_t wal_n =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_RECOVERY_WAL", 4000));
  const std::vector<int> shard_counts =
      ParseShardList("MICRO_RECOVERY_SHARDS", "1,4,8");
  const std::string root = "/tmp/endure_micro_recovery";

  std::string phases;
  std::string summary = "  \"recovery\": {\n";
  for (size_t si = 0; si < shard_counts.size(); ++si) {
    const int shards = shard_counts[si];
    std::fprintf(stderr, "prepare: %d shard(s), %llu entries...\n", shards,
                 static_cast<unsigned long long>(n + wal_n));
    const std::string master = root + "_s" + std::to_string(shards);
    PrepareKilledDeployment(DeployOpts(master, shards), n, wal_n);
    // Identical copies so serial and parallel replay the same bytes.
    const std::string warm_dir = master + "_warm";
    const std::string serial_dir = master + "_serial";
    const std::string parallel_dir = master + "_parallel";
    for (const std::string& dst : {warm_dir, serial_dir, parallel_dir}) {
      std::filesystem::remove_all(dst);
      std::filesystem::copy(master, dst,
                            std::filesystem::copy_options::recursive);
    }
    // Untimed warmup open: the timed pair below compares recovery code
    // paths, not first-touch page-cache effects.
    {
      auto warm = ShardedDB::Open(DeployOpts(warm_dir, shards));
      if (!warm.ok()) {
        std::fprintf(stderr, "warmup open failed: %s\n",
                     warm.status().ToString().c_str());
        return 1;
      }
    }

    std::fprintf(stderr, "phase: recover serial vs parallel (%d)...\n",
                 shards);
    Options serial_opts = DeployOpts(serial_dir, shards);
    serial_opts.recovery_threads = 1;
    uint64_t serial_ms = 0, parallel_ms = 0, replayed = 0;
    const PhaseResult serial =
        RecoverPhase(serial_opts, &serial_ms, &replayed);
    const PhaseResult parallel = RecoverPhase(
        DeployOpts(parallel_dir, shards), &parallel_ms, &replayed);

    const std::string sn = std::to_string(shards);
    endure::bench_util::AppendPhaseJson(
        &phases, ("recover_serial_s" + sn).c_str(), serial, false);
    endure::bench_util::AppendPhaseJson(
        &phases, ("recover_parallel_s" + sn).c_str(), parallel,
        si + 1 == shard_counts.size());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"s%s\": {\"serial_ms\": %llu, \"parallel_ms\": "
                  "%llu, \"speedup\": %.2f, \"replayed_entries\": %llu}%s\n",
                  sn.c_str(), static_cast<unsigned long long>(serial_ms),
                  static_cast<unsigned long long>(parallel_ms),
                  parallel_ms > 0 ? static_cast<double>(serial_ms) /
                                        static_cast<double>(parallel_ms)
                                  : 0.0,
                  static_cast<unsigned long long>(replayed),
                  si + 1 == shard_counts.size() ? "" : ",");
    summary += buf;
  }
  summary += "  },\n";

  // Flusher topology at the largest shard count: thread delta of an open
  // deployment.
  const int max_shards = shard_counts.empty() ? 1 : shard_counts.back();
  std::fprintf(stderr, "phase: flusher threads (%d shards)...\n",
               max_shards);
  uint64_t shared_threads = 0;
  {
    Options o = DeployOpts(root + "_flusher", max_shards);
    std::filesystem::remove_all(o.storage_dir);
    const uint64_t before = LiveThreads();
    auto db = std::move(ShardedDB::Open(o)).value();
    shared_threads = LiveThreads() - before;
  }

  std::string json = endure::bench_util::BeginJson("micro_recovery");
  {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"n\": %llu, \"wal_entries\": %llu, "
                  "\"hardware_threads\": %llu},\n",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(wal_n),
                  static_cast<unsigned long long>(
                      endure::DefaultParallelism()));
    json += buf;
  }
  json += "  \"phases\": {\n";
  json += phases;
  json += "  },\n";
  json += summary;
  {
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "  \"flusher_threads\": {\"shards\": %d, \"shared_service\": "
        "%llu}\n",
        max_shards, static_cast<unsigned long long>(shared_threads));
    json += buf;
  }
  json += "}\n";

  return endure::bench_util::EmitJson(json, argc, argv);
}
