#include "lsm/options.h"

namespace endure::lsm {

Status Options::Validate() const {
  if (size_ratio < 2) {
    return Status::InvalidArgument("size_ratio must be >= 2");
  }
  if (buffer_entries < 1) {
    return Status::InvalidArgument("buffer_entries must be >= 1");
  }
  if (entries_per_page < 1) {
    return Status::InvalidArgument("entries_per_page must be >= 1");
  }
  if (filter_bits_per_entry < 0.0 || filter_bits_per_entry > 64.0) {
    return Status::InvalidArgument(
        "filter_bits_per_entry must be in [0, 64]");
  }
  if (backend == StorageBackend::kFile && storage_dir.empty()) {
    return Status::InvalidArgument("file backend requires storage_dir");
  }
  if (num_shards < 1 || num_shards > 4096) {
    return Status::InvalidArgument("num_shards must be in [1, 4096]");
  }
  if (durability && backend != StorageBackend::kFile) {
    return Status::InvalidArgument(
        "durability requires the file backend (the WAL and manifest live "
        "in storage_dir)");
  }
  if (wal_sync_interval_ms < 1) {
    return Status::InvalidArgument("wal_sync_interval_ms must be >= 1");
  }
  if (recovery_threads < 0 || recovery_threads > 4096) {
    return Status::InvalidArgument(
        "recovery_threads must be in [0, 4096] (0 = auto)");
  }
  if (background_max_retries < 0 || background_max_retries > 1000) {
    return Status::InvalidArgument(
        "background_max_retries must be in [0, 1000]");
  }
  if (background_retry_base_ms < 1 || background_retry_base_ms > 10000) {
    return Status::InvalidArgument(
        "background_retry_base_ms must be in [1, 10000]");
  }
  if (l1_stall_runs < 0 || l1_stall_runs > (1 << 20)) {
    return Status::InvalidArgument(
        "l1_stall_runs must be in [0, 2^20] (0 = auto)");
  }
  if (maintenance_threads < 0 || maintenance_threads > 4096) {
    return Status::InvalidArgument(
        "maintenance_threads must be in [0, 4096] (0 = auto)");
  }
  if (memory_budget_bytes > 0 && block_cache_bytes == 0) {
    return Status::InvalidArgument(
        "memory_budget_bytes requires block_cache_bytes > 0 (the initial "
        "cache share of the budget)");
  }
  if (memory_budget_bytes > 0 && block_cache_bytes >= memory_budget_bytes) {
    return Status::InvalidArgument(
        "block_cache_bytes must leave room for the write buffers inside "
        "memory_budget_bytes");
  }
  return Status::OK();
}

}  // namespace endure::lsm
