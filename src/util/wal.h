// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A minimal write-ahead log: CRC-framed, typed, variable-length records
// appended to a single file, with group commit (records buffer in memory
// until Commit() writes them in one syscall) and three durability levels
// (WalSyncMode). The reader tolerates a torn tail — a crash mid-append
// leaves a record whose CRC or length does not check out, and replay stops
// cleanly at the last intact record, exactly the contract recovery needs.
//
// Record framing (little-endian on all supported targets):
//
//   offset  size  field
//   0       4     crc32 of bytes [8, 9+len)   (type byte + payload)
//   4       4     len: payload length in bytes
//   8       1     type: caller-defined record type
//   9       len   payload
//
// The module is storage-engine agnostic: payloads are opaque bytes. The
// LSM layer defines its record types and entry encoding on top (see
// lsm/manifest.h and docs/durability.md).

#ifndef ENDURE_UTIL_WAL_H_
#define ENDURE_UTIL_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/macros.h"
#include "util/status.h"
#include "util/wal_sync_mode.h"

namespace endure {

class WalFlushService;

/// CRC-32 (ISO-HDLC polynomial, the zlib/gzip one) over `len` bytes.
uint32_t Crc32(const void* data, size_t len);

/// Appends framed records to a log file. Not internally thread-safe for
/// Append/Commit — callers serialize them (the engine holds the shard
/// lock) — but background syncs (a WalFlushService pass) synchronize
/// internally, so they may run concurrently with appends.
class WalWriter {
 public:
  /// Opens `path` for appending (created if absent). `on_sync` (optional)
  /// is invoked after every fsync, including those issued by background
  /// flushing — bump a relaxed counter there, nothing heavier. Under
  /// WalSyncMode::kBackground `service` drives this writer's periodic
  /// syncs (the writer registers itself) and is required: without one
  /// the open fails with InvalidArgument. Other modes ignore `service`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(
      const std::string& path, WalSyncMode mode,
      std::function<void()> on_sync = nullptr,
      WalFlushService* service = nullptr);

  /// Leaves the flush service's rotation, flushes and (unless
  /// abandoned) syncs outstanding records, then closes the file.
  ~WalWriter();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(WalWriter);

  /// Stages one record in the commit buffer. No I/O until Commit().
  void Append(uint8_t type, const void* payload, uint32_t len);

  /// Writes every staged record in one write() — the group commit — and,
  /// under kPerBatch, fsyncs before returning. No-op when nothing staged.
  Status Commit();

  /// Forces an fsync of everything committed so far.
  Status Sync();

  /// Redirects the writer to the freshly rewritten log at `path` after a
  /// checkpoint: drops staged-but-uncommitted records (the snapshot that
  /// replaced the log covers them) and swaps the appender fd under the
  /// lock, while the background sync state — the flush-service
  /// registration, and with it the interval phase — carries over
  /// untouched. Keeping the writer alive across rewrites is what
  /// guarantees a checkpoint can neither postpone the next background
  /// sync by a full fresh interval nor re-sync the already-synced
  /// snapshot. The new log must already be fsynced (the checkpoint
  /// protocol syncs it before the rename), so the writer restarts clean.
  Status ReopenAfterRewrite(const std::string& path);

  /// Bytes handed to write() so far (framing included). Reset to the
  /// snapshot size by ReopenAfterRewrite.
  uint64_t bytes_committed() const { return bytes_committed_; }

  /// First fsync failure latched by a background sync (OK when
  /// none). Commit() also surfaces it; this is for owners about to
  /// retire the writer without another commit (e.g. checkpointing).
  Status deferred_error() const;

  /// Drops staged-but-uncommitted records and suppresses the final
  /// flush/sync in the destructor. Checkpointing uses this when the
  /// records are covered by the snapshot replacing the log; kill-point
  /// tests use it to simulate the process dying with the page cache
  /// unsynced.
  void Abandon();

 private:
  WalWriter(int fd, WalSyncMode mode, std::function<void()> on_sync,
            WalFlushService* service);

  /// fsyncs everything committed so far. Requires `lock` held on mu_;
  /// releases it around the fsync itself so a periodic background sync
  /// never stalls a foreground Commit behind device latency (write()
  /// and fsync() on one fd are safe concurrently).
  Status SyncWithLock(std::unique_lock<std::mutex>& lock);

  const WalSyncMode mode_;
  std::function<void()> on_sync_;
  /// Flush service this writer is registered with (null unless
  /// kBackground). The service must outlive the writer; the destructor
  /// deregisters first.
  WalFlushService* service_ = nullptr;
  std::string pending_;        ///< staged records since the last Commit
  uint64_t bytes_committed_ = 0;
  bool abandoned_ = false;

  /// Guards fd_ against background syncs (write/fsync/close ordering).
  mutable std::mutex mu_;
  /// First fsync failure seen by a background sync (under mu_);
  /// surfaced by the next Commit so a dying device cannot silently
  /// degrade kBackground to kNone.
  Status deferred_error_;
  /// bytes_committed_ at the last successful fsync (under mu_): a clean
  /// file skips the syscall entirely.
  uint64_t synced_bytes_ = 0;
  int fd_;
  /// True while a sync has mu_ dropped around its fsync (under mu_);
  /// ReopenAfterRewrite waits it out so the fd it closes can never be
  /// the one an in-flight fsync still references.
  bool sync_in_flight_ = false;
  /// Signalled when sync_in_flight_ clears.
  std::condition_variable cv_;
};

/// Drives the periodic fsyncs of any number of WalWriters from a single
/// thread. Under WalSyncMode::kBackground a ShardedDB owns one of these
/// and threads it through LsmTree::AttachDurability, so a 64-shard
/// deployment syncs from one thread, not 64. Register/Deregister are
/// thread-safe and may race a sync pass (Deregister blocks until the
/// pass finishes, so a writer is never synced after it deregisters).
/// fsync errors latch in each writer's own deferred_error.
class WalFlushService {
 public:
  /// Starts the flush thread; it wakes every `sync_interval_ms` and
  /// syncs every registered writer (clean writers skip the syscall).
  explicit WalFlushService(int sync_interval_ms);

  /// Stops the thread. All writers must have deregistered (they do so
  /// in their destructors; owners destroy trees before the service).
  ~WalFlushService();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(WalFlushService);

  /// Adds `writer` to the sync rotation (first sync at the next tick —
  /// the tick clock is global, so replacing a writer mid-interval never
  /// postpones its sync by a full fresh interval).
  void Register(WalWriter* writer);

  /// Removes `writer`, waiting out any sync pass currently touching it.
  void Deregister(WalWriter* writer);

  /// Writers currently registered (diagnostics/tests).
  size_t num_writers() const;

 private:
  void Loop(int sync_interval_ms);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WalWriter*> writers_;  ///< under mu_
  /// True while a pass syncs its snapshot with mu_ released (under
  /// mu_); Deregister waits it out before letting a writer die.
  bool pass_active_ = false;
  bool stop_ = false;                ///< under mu_
  std::thread thread_;               ///< joined in the destructor
};

/// Reads framed records back. Stops (Next() returns false) at end of
/// file, at a torn tail, or at a corrupt record — recovery treats
/// everything before that point as the durable prefix.
class WalReader {
 public:
  /// Reads the whole log into memory; missing file yields an empty log.
  static StatusOr<std::unique_ptr<WalReader>> Open(const std::string& path);

  /// Advances to the next intact record. False at the durable end.
  bool Next(uint8_t* type, std::string* payload);

  /// True when the log ended with a torn/corrupt record rather than a
  /// clean end of file (diagnostics; replay proceeds either way).
  bool tail_torn() const { return tail_torn_; }

 private:
  explicit WalReader(std::string data) : data_(std::move(data)) {}

  std::string data_;
  size_t pos_ = 0;
  bool tail_torn_ = false;
};

}  // namespace endure

#endif  // ENDURE_UTIL_WAL_H_
