// micro_wal: commit latency/throughput of the durability subsystem
// (docs/durability.md) across WAL sync modes, plus recovery speed.
//
// Phases (each on a fresh one-shard durable ShardedDB over FilePageStore):
//   put_none        single Puts, WalSyncMode::kNone (page cache only)
//   put_background  single Puts, kBackground (bounded loss window)
//   put_per_batch   single Puts, kPerBatch — one fsync per op, the
//                   worst case and the zero-loss guarantee
//   group_commit    PutBatch of MICRO_WAL_BATCH entries under kPerBatch —
//                   one write + one fsync per batch, showing how group
//                   commit amortizes the per_batch penalty
//   recover         kill the background-mode instance (WAL abandoned, no
//                   shutdown checkpoint) and reopen it: segment adoption,
//                   run rebuild and WAL replay; ops = entries recovered
//
// Scale knobs (environment):
//   MICRO_WAL_OPS       ops for the none/background/group phases (20k)
//   MICRO_WAL_SYNC_OPS  ops for the per-fsync phase (2k — it is slow)
//   MICRO_WAL_BATCH     entries per group commit (64)
//
// Usage: micro_wal [output.json]  (always prints the JSON to stdout)

#include <filesystem>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/random.h"

ENDURE_BENCH_DEFINE_ALLOC_COUNTING()

namespace endure::lsm {
namespace {

using bench_util::Meter;
using bench_util::PhaseResult;

constexpr Key kKeySpace = 1 << 20;

Options DurableOpts(const std::string& dir, WalSyncMode mode) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 1024;
  o.entries_per_page = 64;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = mode;
  o.wal_sync_interval_ms = 5;
  return o;
}

std::unique_ptr<ShardedDB> FreshDb(const Options& opts) {
  std::filesystem::remove_all(opts.storage_dir);
  return std::move(ShardedDB::Open(opts)).value();
}

/// `ops` random-key Puts; pages metric = all pages written (flush +
/// compaction traffic the WAL-ed writes caused).
PhaseResult PutPhase(ShardedDB* db, uint64_t ops, uint64_t seed) {
  Rng rng(seed);
  const Statistics before = db->TotalStats();
  Meter meter;
  for (uint64_t i = 0; i < ops; ++i) {
    db->Put(rng.UniformInt(0, kKeySpace - 1), i);
  }
  const Statistics d = db->TotalStats().Delta(before);
  return meter.Finish(ops, d.pages_written);
}

/// Same write mix, committed in groups of `batch` entries.
PhaseResult GroupCommitPhase(ShardedDB* db, uint64_t ops, uint64_t batch,
                             uint64_t seed) {
  Rng rng(seed);
  const Statistics before = db->TotalStats();
  Meter meter;
  std::vector<std::pair<Key, Value>> group;
  group.reserve(batch);
  for (uint64_t i = 0; i < ops; i += batch) {
    group.clear();
    for (uint64_t j = 0; j < batch && i + j < ops; ++j) {
      group.emplace_back(rng.UniformInt(0, kKeySpace - 1), i + j);
    }
    db->PutBatch(group);
  }
  const Statistics d = db->TotalStats().Delta(before);
  return meter.Finish(ops, d.pages_written);
}

}  // namespace
}  // namespace endure::lsm

int main(int argc, char** argv) {
  using namespace endure::lsm;
  const uint64_t ops =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_WAL_OPS", 20000));
  const uint64_t sync_ops =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_WAL_SYNC_OPS", 2000));
  const uint64_t batch =
      static_cast<uint64_t>(endure::GetEnvInt("MICRO_WAL_BATCH", 64));
  const std::string root = "/tmp/endure_micro_wal";

  std::fprintf(stderr, "phase: put_none...\n");
  PhaseResult none;
  {
    auto db = FreshDb(DurableOpts(root + "_none", endure::WalSyncMode::kNone));
    none = PutPhase(db.get(), ops, 1);
  }

  std::fprintf(stderr, "phase: put_background...\n");
  PhaseResult background;
  uint64_t bg_wal_records = 0, bg_wal_bytes = 0, bg_wal_syncs = 0,
           bg_manifest_writes = 0;
  const std::string bg_dir = root + "_background";
  const Options bg_opts = DurableOpts(bg_dir, endure::WalSyncMode::kBackground);
  {
    auto db = FreshDb(bg_opts);
    background = PutPhase(db.get(), ops, 2);
    bg_wal_records = db->TotalStats().wal_records;
    bg_wal_bytes = db->TotalStats().wal_bytes;
    bg_wal_syncs = db->TotalStats().wal_syncs;
    bg_manifest_writes = db->TotalStats().manifest_writes;
    // Die without the shutdown checkpoint so the recover phase below has
    // a real WAL tail to replay.
    db->CrashForTesting();
  }

  std::fprintf(stderr, "phase: put_per_batch (%llu fsyncs)...\n",
               static_cast<unsigned long long>(sync_ops));
  PhaseResult per_batch;
  {
    auto db = FreshDb(DurableOpts(root + "_sync", endure::WalSyncMode::kPerBatch));
    per_batch = PutPhase(db.get(), sync_ops, 3);
  }

  std::fprintf(stderr, "phase: group_commit (batch=%llu)...\n",
               static_cast<unsigned long long>(batch));
  PhaseResult group;
  {
    auto db = FreshDb(DurableOpts(root + "_group", endure::WalSyncMode::kPerBatch));
    group = GroupCommitPhase(db.get(), ops, batch, 4);
  }

  std::fprintf(stderr, "phase: recover...\n");
  PhaseResult recover;
  uint64_t recovered_entries = 0, replayed = 0, recovery_pages = 0;
  {
    Meter meter;
    auto db = std::move(ShardedDB::Open(bg_opts)).value();
    recovered_entries = db->TotalEntries();
    replayed = db->TotalStats().wal_replayed_entries;
    recovery_pages = db->TotalStats().recovery_pages_read;
    recover = meter.Finish(recovered_entries > 0 ? recovered_entries : 1,
                           recovery_pages);
  }

  std::string json = endure::bench_util::BeginJson("micro_wal");
  {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"ops\": %llu, \"sync_ops\": %llu, "
                  "\"batch\": %llu},\n",
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(sync_ops),
                  static_cast<unsigned long long>(batch));
    json += buf;
  }
  json += "  \"phases\": {\n";
  endure::bench_util::AppendPhaseJson(&json, "put_none", none, false);
  endure::bench_util::AppendPhaseJson(&json, "put_background", background,
                                      false);
  endure::bench_util::AppendPhaseJson(&json, "put_per_batch", per_batch,
                                      false);
  endure::bench_util::AppendPhaseJson(&json, "group_commit", group, false);
  endure::bench_util::AppendPhaseJson(&json, "recover", recover, true);
  json += "  },\n";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  \"wal_background\": {\"records\": %llu, \"bytes\": %llu, "
        "\"syncs\": %llu, \"manifest_writes\": %llu},\n"
        "  \"recovery\": {\"entries\": %llu, \"replayed_entries\": %llu, "
        "\"pages_read\": %llu},\n"
        "  \"group_vs_per_batch_throughput\": %.2f,\n"
        "  \"none_vs_per_batch_throughput\": %.2f\n",
        static_cast<unsigned long long>(bg_wal_records),
        static_cast<unsigned long long>(bg_wal_bytes),
        static_cast<unsigned long long>(bg_wal_syncs),
        static_cast<unsigned long long>(bg_manifest_writes),
        static_cast<unsigned long long>(recovered_entries),
        static_cast<unsigned long long>(replayed),
        static_cast<unsigned long long>(recovery_pages),
        per_batch.ops_per_sec > 0
            ? group.ops_per_sec / per_batch.ops_per_sec
            : 0,
        per_batch.ops_per_sec > 0
            ? none.ops_per_sec / per_batch.ops_per_sec
            : 0);
    json += buf;
  }
  json += "}\n";

  return endure::bench_util::EmitJson(json, argc, argv);
}
