// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The versioned manifest: one small, atomically-replaced file per shard
// tree (plus a root manifest at the deployment root) that records
// everything recovery needs besides the WAL — the run layout per level
// (segment ids, entry counts, per-run tuning epochs, Bloom budgets), the
// currently applied tuning, and the migration/sequence cursors.
// ShardedDB::Open on an existing deployment reads each shard's manifest,
// adopts the referenced segment files, rebuilds each run's Bloom filter
// and fence pointers from its pages, replays the WAL on top, and resumes
// — mid-migration if that is where the crash landed.
// docs/durability.md documents the byte-level format.

#ifndef ENDURE_LSM_MANIFEST_H_
#define ENDURE_LSM_MANIFEST_H_

#include <memory>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "lsm/page_store.h"
#include "lsm/run.h"

namespace endure::lsm {

/// Manifest format version this build writes; readers accept <= this.
/// Version 2 added `wal_min_gen` (numbered WAL generations); a version-1
/// tree logged to the single file generation 0 names (util::WalPath).
inline constexpr uint32_t kManifestVersion = 2;

/// Conventional file names inside a durable tree's directory.
inline constexpr const char* kManifestFileName = "MANIFEST";
/// Advisory-lock file at a deployment root (util::FileLock): a durable
/// directory may be open in at most one process.
inline constexpr const char* kLockFileName = "LOCK";

/// WAL record types the tree writes (util::WalWriter frames them).
/// kWalEntry's payload is one kEncodedEntryBytes entry encoding; readers
/// skip unknown types so the format can grow.
inline constexpr uint8_t kWalEntryRecord = 1;

/// What a MANIFEST file describes. Recorded in the manifest itself so
/// the two deployment layouts can never be confused, whatever crash
/// window the directory's other files were left in.
enum : uint8_t {
  kManifestKindTree = 0,         ///< one LsmTree (one shard)
  kManifestKindShardedRoot = 1,  ///< a ShardedDB deployment root
};

/// One resident run as recorded in the manifest.
struct ManifestRun {
  SegmentId segment = 0;            ///< stable seg_<id>.run file id
  uint64_t num_entries = 0;
  uint64_t tuning_epoch = 0;        ///< epoch the run was built under
  double bloom_bits_per_entry = 0;  ///< filter budget to rebuild with
};

/// Snapshot of a tree's durable state (everything but the memtables,
/// which live in the WAL).
struct ManifestData {
  // The applied tuning (the mutable Options knobs). Recovery resumes
  // with these — an ApplyTuning survives a restart.
  int size_ratio = 10;
  int policy = 0;             ///< CompactionPolicy
  uint64_t buffer_entries = 1024;
  double filter_bits_per_entry = 5.0;
  int filter_allocation = 0;  ///< FilterAllocation
  bool fence_pointer_skip = true;

  // Immutable geometry, validated against the opening Options.
  uint64_t entries_per_page = 4;
  int kind = kManifestKindTree;  ///< what this manifest describes
  int num_shards = 1;  ///< ShardedDB root manifest; 1 in shard manifests

  // Recovery cursors.
  uint64_t tuning_epoch = 0;
  bool migration_pending = false;  ///< resume migration units if set
  uint64_t next_seq = 1;           ///< floor for the sequence counter
  uint64_t next_file_id = 1;       ///< floor for segment file ids
  /// Oldest WAL generation still covering memtable contents: recovery
  /// replays this one and every later one, and unlinks older ones.
  uint64_t wal_min_gen = 0;

  /// levels[i] holds level i+1's runs, newest first (the tree's order).
  std::vector<std::vector<ManifestRun>> levels;

  /// Folds the tuning fields into `opts` (the recovered deployment keeps
  /// its persisted tuning regardless of what the caller passed).
  void ApplyTuningTo(Options* opts) const;

  /// Records `opts`'s mutable tuning knobs.
  void RecordTuningFrom(const Options& opts);
};

/// Serializes and atomically publishes `data` at `path` (temp + rename +
/// directory fsync; a crash leaves either the old or the new manifest).
Status WriteManifest(const std::string& path, const ManifestData& data);

/// Reads and verifies (magic, version, CRC) a manifest.
StatusOr<ManifestData> ReadManifest(const std::string& path);

/// Rebuilds one run from its (already adopted) segment: reads every page
/// under IoContext::kRecovery, reconstructing the Bloom filter at the
/// recorded budget and the fence pointers from page first-keys. The
/// rebuilt run is byte-identical in behaviour to the pre-crash one (the
/// filter is deterministic in the key set and budget). Reading every page
/// doubles as the recovery scrub: FilePageStore verifies every page's
/// CRC, so a damaged page surfaces here as Corruption and the open fails
/// instead of serving bad data.
StatusOr<std::shared_ptr<Run>> RebuildRun(PageStore* store,
                                          const ManifestRun& meta,
                                          uint64_t entries_per_page);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_MANIFEST_H_
