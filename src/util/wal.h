// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A minimal write-ahead log: CRC-framed, typed, variable-length records
// appended to numbered log files (rotated to a fresh one on demand),
// with group commit (records buffer in memory until Commit() writes them
// in one syscall) and three durability levels (WalSyncMode). The reader
// tolerates a torn tail — a crash mid-append leaves a record whose CRC
// or length does not check out, and replay stops cleanly at the last
// intact record, exactly the contract recovery needs.
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
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/macros.h"
#include "util/status.h"
#include "util/wal_sync_mode.h"

namespace endure {

class WalFlushService;

/// CRC-32 (ISO-HDLC polynomial, the zlib/gzip one) over `len` bytes. On
/// an x86 CPU with PCLMULQDQ (checked once per process), inputs of 64
/// bytes or more fold 16 bytes per carry-less multiply and only the last
/// 0-15 bytes run slicing-by-8; shorter inputs, other CPUs and non-x86
/// builds run Crc32Portable. Every path gives the same value.
uint32_t Crc32(const void* data, size_t len);

/// The same CRC-32 computed slicing-by-8 on any CPU, 8 input bytes per
/// step: the path Crc32 takes where it does not fold.
uint32_t Crc32Portable(const void* data, size_t len);

/// Path of log generation `gen` in `dir`: `wal_<gen>.log`. Generation 0
/// is the single `wal.log` logs were before generations existed, so such
/// a directory reads as one more (the oldest) generation.
std::string WalPath(const std::string& dir, uint64_t gen);

/// The generation a log file name denotes, or nullopt for any other name.
std::optional<uint64_t> ParseWalFileName(const std::string& name);

/// Appends framed records to a log made of numbered generation files in
/// one directory (WalPath). Not internally thread-safe for
/// Append/Commit/Rotate — callers serialize them (the engine holds the
/// shard lock) — but background syncs (a WalFlushService pass) and
/// PrepareRotation synchronize internally, so they may run concurrently
/// with appends.
///
/// Rotate() moves appends to the next generation; the file it leaves (a
/// *retired* log) is only fsynced and closed, never appended to again.
/// The engine rotates once per write buffer, so a flushed buffer's log
/// is retired whole by unlinking it.
class WalWriter {
 public:
  /// Opens generation `gen` in `dir` for appending (created if absent).
  /// `on_sync` (optional) is invoked after every log-file fsync,
  /// including those issued by background flushing — bump a relaxed
  /// counter there, nothing heavier. Under WalSyncMode::kBackground
  /// `service` drives this writer's periodic syncs (the writer registers
  /// itself) and is required: without one the open fails with
  /// InvalidArgument. Other modes ignore `service`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, uint64_t gen, WalSyncMode mode,
      std::function<void()> on_sync = nullptr,
      WalFlushService* service = nullptr);

  /// Leaves the flush service's rotation, flushes and (unless
  /// abandoned) syncs outstanding records — retired logs and the
  /// directory included — then closes the files.
  ~WalWriter();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(WalWriter);

  /// Stages one record in the commit buffer. No I/O until Commit().
  void Append(uint8_t type, const void* payload, uint32_t len);

  /// Writes every staged record in one write() — the group commit — and,
  /// under kPerBatch, fsyncs before returning. No-op when nothing staged.
  Status Commit();

  /// Forces an fsync of everything committed so far.
  Status Sync();

  /// The generation appends go to.
  uint64_t generation() const { return gen_; }

  /// Switches appends to generation() + 1 (which must hold no records),
  /// using the file PrepareRotation created if there is one — then no
  /// syscall runs here under kBackground. Staged-but-uncommitted records
  /// carry over and commit into the new file. The old file's unsynced
  /// tail and the new file's directory entry (unless PrepareRotation
  /// synced it) still need an fsync: under kBackground the flush
  /// service's next pass does both (the caller never waits on the
  /// device); the other modes do them here, and a failure there latches
  /// like any fsync error (the next Commit fails). Non-OK only when the
  /// new file cannot be opened: then nothing changed and appends continue
  /// in the old file.
  Status Rotate();

  /// Creates generation() + 1's file and fsyncs the directory ahead of
  /// the next Rotate, so the caller that rotates — typically holding a
  /// lock writers wait on — pays neither. Best effort (a failure leaves
  /// Rotate to open the file itself) and a no-op when already prepared.
  /// Safe to call from any thread concurrently with the writer's users.
  void PrepareRotation();

  /// Bytes handed to write() so far, across every file (framing
  /// included).
  uint64_t bytes_committed() const { return bytes_committed_; }

  /// Drops staged-but-uncommitted records and suppresses the final
  /// flush/sync in the destructor. Kill-point tests use it to simulate
  /// the process dying with the page cache unsynced.
  void Abandon();

 private:
  /// One open log file. Shared so a sync can fsync it with mu_ released
  /// while a Rotate retires it: the fd closes when the last holder lets
  /// go, never under a live fsync.
  struct LogFile {
    explicit LogFile(int fd) : fd(fd) {}
    ~LogFile();
    ENDURE_DISALLOW_COPY_AND_ASSIGN(LogFile);
    const int fd;
    uint64_t committed = 0;  ///< bytes written to this file (under mu_)
    uint64_t synced = 0;     ///< `committed` at its last fsync (under mu_)
  };

  WalWriter(std::shared_ptr<LogFile> file, std::string dir, uint64_t gen,
            WalSyncMode mode, std::function<void()> on_sync,
            WalFlushService* service);

  /// fsyncs every retired log, the current log if dirty and the
  /// directory if a file was created since its last sync. Requires `lock`
  /// held on mu_; releases it around the fsyncs themselves so a periodic
  /// background sync never stalls a foreground Commit behind device
  /// latency (write() and fsync() on one fd are safe concurrently).
  Status SyncWithLock(std::unique_lock<std::mutex>& lock);

  const WalSyncMode mode_;
  const std::string dir_;  ///< directory holding the logs (for its fsync)
  std::function<void()> on_sync_;
  /// Flush service this writer is registered with (null unless
  /// kBackground). The service must outlive the writer; the destructor
  /// deregisters first.
  WalFlushService* service_ = nullptr;
  std::string pending_;        ///< staged records since the last Commit
  uint64_t bytes_committed_ = 0;
  bool abandoned_ = false;

  /// Guards the file set and sync state against background syncs.
  mutable std::mutex mu_;
  /// First fsync failure (under mu_); surfaced by every later Commit so a
  /// dying device cannot silently degrade kBackground to kNone.
  Status deferred_error_;
  std::shared_ptr<LogFile> file_;  ///< the log appends go to (under mu_)
  /// Rotated-away logs with unsynced bytes, oldest first (under mu_).
  std::vector<std::shared_ptr<LogFile>> retired_;
  /// A log was created since the directory's last fsync (under mu_).
  bool dir_dirty_ = true;

  /// Orders Rotate against PrepareRotation (taken before mu_, never
  /// after, and never held across an fsync): a prepared file is always
  /// generation() + 1.
  std::mutex rotate_mu_;
  uint64_t gen_;  ///< written by Rotate under rotate_mu_
  /// generation() + 1's file, created by PrepareRotation (under
  /// rotate_mu_), and whether its directory entry is already durable.
  std::shared_ptr<LogFile> spare_;
  bool spare_entry_synced_ = false;
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
