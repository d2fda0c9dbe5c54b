#include "bridge/tuned_db.h"

#include <algorithm>
#include <cmath>

#include "lsm/manifest.h"
#include "util/env.h"

namespace endure::bridge {

lsm::Options MakeOptions(const SystemConfig& cfg, const Tuning& t,
                         uint64_t actual_entries,
                         lsm::StorageBackend backend, int num_shards,
                         bool background_maintenance) {
  lsm::Options opts;
  opts.size_ratio =
      std::max(2, static_cast<int>(std::ceil(t.size_ratio - 1e-9)));
  switch (t.policy) {
    case Policy::kLeveling:
      opts.policy = lsm::CompactionPolicy::kLeveling;
      break;
    case Policy::kTiering:
      opts.policy = lsm::CompactionPolicy::kTiering;
      break;
    case Policy::kLazyLeveling:
      opts.policy = lsm::CompactionPolicy::kLazyLeveling;
      break;
  }
  // Preserve the per-entry memory split: m_buf = (H - h) * N_actual bits,
  // divided evenly across shards so a sharded deployment spends the same
  // total buffer memory as the single-tree one the model was tuned for.
  const double buffer_bits =
      (cfg.memory_budget_bits_per_entry - t.filter_bits_per_entry) *
      static_cast<double>(actual_entries);
  opts.buffer_entries = std::max<uint64_t>(
      16, static_cast<uint64_t>(buffer_bits / cfg.entry_size_bits /
                                std::max(1, num_shards)));
  opts.entries_per_page = static_cast<uint64_t>(cfg.entries_per_page);
  opts.filter_bits_per_entry = t.filter_bits_per_entry;
  opts.filter_allocation = lsm::FilterAllocation::kMonkey;
  opts.backend = backend;
  opts.num_shards = std::max(1, num_shards);
  opts.background_maintenance = background_maintenance;
  return opts;
}

SystemConfig ScaledConfig(const SystemConfig& cfg, uint64_t actual_entries) {
  SystemConfig scaled = cfg;
  scaled.num_entries = static_cast<double>(actual_entries);
  return scaled;
}

StatusOr<std::unique_ptr<lsm::ShardedDB>> OpenTunedShardedDb(
    const SystemConfig& cfg, const Tuning& t, uint64_t actual_entries,
    int num_shards, bool background_maintenance,
    lsm::StorageBackend backend, const std::string& durable_dir,
    WalSyncMode wal_sync_mode, uint64_t block_cache_bytes,
    uint64_t memory_budget_bytes) {
  lsm::Options opts = MakeOptions(cfg, t, actual_entries, backend,
                                  num_shards, background_maintenance);
  opts.block_cache_bytes = block_cache_bytes;
  opts.memory_budget_bytes = memory_budget_bytes;
  bool recovering = false;
  // The initial bulk load is only "done" once this marker exists; a
  // manifest without it means the first load was interrupted mid-way,
  // which must not masquerade as a healthy recovered deployment.
  const std::string loaded_marker = durable_dir + "/bulk_loaded";
  if (!durable_dir.empty()) {
    opts.backend = lsm::StorageBackend::kFile;
    opts.storage_dir = durable_dir;
    opts.durability = true;
    opts.wal_sync_mode = wal_sync_mode;
    // An existing deployment is recovered by Open below — data, tuning
    // and migration state come from the manifest + WAL, not a rebuild.
    if (FileExists(durable_dir + "/" + lsm::kManifestFileName)) {
      if (!FileExists(loaded_marker)) {
        return Status::FailedPrecondition(
            durable_dir + ": the initial bulk load of this deployment "
            "was interrupted; clear the directory and reload");
      }
      recovering = true;
    }
  }
  auto db_or = lsm::ShardedDB::Open(opts);
  if (!db_or.ok()) return db_or.status();
  std::unique_ptr<lsm::ShardedDB> db = std::move(db_or).value();
  if (recovering) return db;

  std::vector<std::pair<lsm::Key, lsm::Value>> pairs;
  pairs.reserve(actual_entries);
  for (uint64_t i = 0; i < actual_entries; ++i) {
    pairs.emplace_back(2 * i, i);  // even keys: odd keys are sure misses
  }
  ENDURE_RETURN_IF_ERROR(db->BulkLoad(pairs));
  if (!durable_dir.empty()) {
    ENDURE_RETURN_IF_ERROR(WriteFileAtomic(loaded_marker, "done\n"));
  }
  return db;
}

namespace {

/// Copies the immutable placement/durability knobs — plus the operational
/// scheduler knobs the tuner knows nothing about — of a live deployment
/// onto freshly derived options (only the tuning itself may change; a
/// retune must not silently reset the operator's throttle or stall
/// thresholds to defaults).
void CarryImmutableKnobs(const lsm::Options& current, lsm::Options* next) {
  next->storage_dir = current.storage_dir;
  next->durability = current.durability;
  next->wal_sync_mode = current.wal_sync_mode;
  next->wal_sync_interval_ms = current.wal_sync_interval_ms;
  next->recovery_threads = current.recovery_threads;
  next->maintenance_threads = current.maintenance_threads;
  next->compaction_rate_bytes_per_sec = current.compaction_rate_bytes_per_sec;
  next->compaction_max_subtasks = current.compaction_max_subtasks;
  next->compaction_partition_min_pages =
      current.compaction_partition_min_pages;
  next->l1_stall_runs = current.l1_stall_runs;
  // Memory-plumbing knobs: the tuner budgets buffer-vs-filter memory, the
  // cache/arbiter budget is the operator's — a retune must not drop it.
  next->block_cache_bytes = current.block_cache_bytes;
  next->memory_budget_bytes = current.memory_budget_bytes;
}

}  // namespace

Status ApplyTuning(lsm::ShardedDB* db, const SystemConfig& cfg,
                   const Tuning& t, uint64_t actual_entries) {
  const lsm::Options current = db->options();
  lsm::Options next =
      MakeOptions(cfg, t, actual_entries, current.backend,
                  current.num_shards, current.background_maintenance);
  CarryImmutableKnobs(current, &next);
  // On a durable deployment ShardedDB::ApplyTuning republishes every
  // shard manifest and the root manifest, so the retune survives a
  // restart (TuningPipeline::RetuneAndApply inherits this).
  return db->ApplyTuning(next);
}

}  // namespace endure::bridge
