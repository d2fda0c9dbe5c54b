// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// WalSyncMode in a lean standalone header: lsm/options.h needs only this
// knob, not the WalWriter machinery (threads, mutexes) in util/wal.h —
// keeping the core include graph light.

#ifndef ENDURE_UTIL_WAL_SYNC_MODE_H_
#define ENDURE_UTIL_WAL_SYNC_MODE_H_

namespace endure {

/// When the write-ahead log guarantees an acknowledged record has
/// reached the device (see util/wal.h and docs/durability.md).
enum class WalSyncMode {
  kNone = 0,        ///< never fsync while running (clean close still syncs)
  kBackground = 1,  ///< a WalFlushService fsyncs every sync_interval_ms
  kPerBatch = 2,    ///< fsync inside every Commit (strongest, slowest)
};

}  // namespace endure

#endif  // ENDURE_UTIL_WAL_SYNC_MODE_H_
