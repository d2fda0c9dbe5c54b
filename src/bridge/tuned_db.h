// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Bridges tuner output to engine configuration: turns a (SystemConfig,
// Tuning) pair into lsm::Options for a deployment of `actual_entries`
// entries. Size ratios are rounded up ("classical LSM trees cannot have
// fractional size ratios", Section 8.3) and the memory split is preserved
// per entry, which keeps the level count invariant across deployment
// scales (the paper's Fig. 16 observation).

#ifndef ENDURE_BRIDGE_TUNED_DB_H_
#define ENDURE_BRIDGE_TUNED_DB_H_

#include <memory>

#include "core/endure.h"
#include "lsm/sharded_db.h"

namespace endure::bridge {

/// Engine options implementing tuning `t` for a database of
/// `actual_entries` entries under system parameters `cfg`. With
/// `num_shards > 1` the write-buffer budget m_buf is split evenly across
/// shards (total buffer memory stays on the tuning's budget) and the
/// options describe one shard of a ShardedDB deployment;
/// `background_maintenance` moves flush/compaction work off the writers.
lsm::Options MakeOptions(const SystemConfig& cfg, const Tuning& t,
                         uint64_t actual_entries,
                         lsm::StorageBackend backend =
                             lsm::StorageBackend::kMemory,
                         int num_shards = 1,
                         bool background_maintenance = false);

/// A SystemConfig rescaled to the deployed entry count (for model
/// predictions comparable with engine measurements).
SystemConfig ScaledConfig(const SystemConfig& cfg, uint64_t actual_entries);

/// Opens a ShardedDB deployment of `num_shards` hash-partitioned shards
/// implementing the tuning and bulk loads `actual_entries` entries with
/// keys 2*0, 2*1, ..., matching workload::KeyUniverse. One shard without
/// background maintenance is the deterministic engine the experiments
/// measure; more shards with background maintenance serve concurrent
/// traffic.
///
/// With a non-empty `durable_dir` the deployment is durable (file
/// backend, WAL + manifest rooted there): a fresh directory is bulk
/// loaded once, while an existing deployment is *recovered* — data,
/// tuning and any in-flight migration — instead of being rebuilt, so a
/// restarted server resumes where it left off (`wal_sync_mode` selects
/// the commit durability; see docs/durability.md).
///
/// `block_cache_bytes` > 0 opens the deployment with the shared block
/// cache sized to that budget; additionally setting
/// `memory_budget_bytes` > block_cache_bytes turns on the memory
/// arbiter, which re-splits that global budget between write buffers
/// and cache as the serving mix drifts (see docs/operations.md). Both
/// are operator knobs: later ApplyTuning calls carry them unchanged.
StatusOr<std::unique_ptr<lsm::ShardedDB>> OpenTunedShardedDb(
    const SystemConfig& cfg, const Tuning& t, uint64_t actual_entries,
    int num_shards, bool background_maintenance = true,
    lsm::StorageBackend backend = lsm::StorageBackend::kMemory,
    const std::string& durable_dir = "",
    WalSyncMode wal_sync_mode = WalSyncMode::kBackground,
    uint64_t block_cache_bytes = 0, uint64_t memory_budget_bytes = 0);

/// Applies tuner output to a *running* deployment: maps `t` onto engine
/// options for `actual_entries` entries (per-shard buffer split, rounded
/// size ratio — the same mapping MakeOptions used at open, with the
/// deployment's immutable knobs carried over) and calls
/// `db->ApplyTuning`, which transitions the serving system live: no
/// rebuild, no lost acked writes, reads served throughout. The
/// structural migration proceeds on the maintenance pool; poll
/// `db->Progress()` or call `db->WaitForMaintenance()` to observe it
/// converge (without background maintenance it converges before
/// ApplyTuning returns). This is the deploy half of the Section 7.3 loop
/// (TuningPipeline::RetuneAndApply packages both halves).
Status ApplyTuning(lsm::ShardedDB* db, const SystemConfig& cfg,
                   const Tuning& t, uint64_t actual_entries);

}  // namespace endure::bridge

#endif  // ENDURE_BRIDGE_TUNED_DB_H_
