// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Failpoint-style storage fault injection. The engine's I/O primitives
// (FilePageStore, WalWriter, WriteFileAtomic/SyncDir, aligned-buffer
// allocation) consult the process-global injector before each operation;
// tests arm per-site rules (skip N operations, then fire M times — or
// forever — with a chosen errno, a short write, a silent bit-flip or a
// stall) to rehearse transient EIO, ENOSPC exhaustion, torn writes,
// failed fsyncs, bit-rot and slow devices without a faulty device. With
// no injector installed the hook is a single relaxed atomic load — the
// production fast path.
//
// Thread safety: Arm/Disarm/Evaluate synchronize internally, so faults
// may fire on background maintenance and WAL-flusher threads. Install /
// uninstall must be externally ordered against engine operation (tests
// install before opening a DB, or while it is quiescent).

#ifndef ENDURE_UTIL_FAULT_INJECTION_H_
#define ENDURE_UTIL_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/macros.h"

namespace endure {

/// Where in the storage stack a fault can fire.
enum class FaultSite {
  kSegmentOpen = 0,  ///< creating a segment file (FilePageStore writer)
  kSegmentWrite,     ///< pwrite of one segment page
  kSegmentFsync,     ///< fsync at segment Seal
  kSegmentRead,      ///< pread of one segment page
  kWalOpen,          ///< opening a WAL generation (open, rotation)
  kWalWrite,         ///< the WAL group-commit write()
  kWalFsync,         ///< WAL fsync (foreground or background flusher)
  kFileWrite,        ///< WriteFileAtomic's data write (manifest path)
  kFileFsync,        ///< WriteFileAtomic's temp-file fsync
  kFileRename,       ///< WriteFileAtomic's publishing rename
  kDirSync,          ///< SyncDir (publishes renames/creates)
  kAlloc,            ///< aligned page-buffer allocation
};
inline constexpr size_t kNumFaultSites =
    static_cast<size_t>(FaultSite::kAlloc) + 1;

/// Human-readable site name (error messages, logs).
const char* FaultSiteName(FaultSite site);

/// What the instrumented operation should do, as decided by the injector.
/// Default-constructed = no fault: proceed normally.
struct FaultOutcome {
  /// errno to report (EIO, ENOSPC, ...). 0 = the operation must not
  /// report failure (but may still be shortened or corrupted below).
  int err = 0;
  /// Perform only part of the write (a torn page / torn commit). With
  /// err == 0 the tear is silent — detectable only by checksums.
  bool short_io = false;
  /// Flip one payload byte before it reaches the device (bit-rot).
  bool corrupt = false;

  bool fires() const { return err != 0 || short_io || corrupt; }
};

/// A seedable, per-site, per-operation-count fault schedule.
class FaultInjector {
 public:
  /// One armed failure pattern at a site.
  struct Rule {
    uint64_t skip = 0;   ///< let this many operations through first
    /// Fire on this many operations after the skip. UINT64_MAX models a
    /// permanent fault (fires until disarmed — "the disk stays bad").
    uint64_t count = 1;
    int err = 0;            ///< errno to inject (0 = silent fault)
    bool short_io = false;  ///< tear the write
    bool corrupt = false;   ///< flip a bit
    /// Sleep this long before the operation, then let it proceed (with
    /// err = 0: a slow device, not a failing one).
    uint32_t stall_ms = 0;
  };

  FaultInjector() = default;
  ENDURE_DISALLOW_COPY_AND_ASSIGN(FaultInjector);

  /// Arms `rule` at `site`, replacing any previous rule and resetting the
  /// site's operation counter.
  void Arm(FaultSite site, const Rule& rule);

  /// Disarms one site ("the fault cleared"). Already-fired outcomes are
  /// not undone.
  void Disarm(FaultSite site);

  /// Disarms every site.
  void DisarmAll();

  /// Called by the instrumented operation: counts it against the site's
  /// rule, sleeps out the rule's stall (if it fires), and returns the
  /// outcome to apply.
  FaultOutcome Evaluate(FaultSite site);

  /// How many operations have fired a fault at `site` (test assertions).
  uint64_t fired(FaultSite site) const;

  /// How many operations consulted `site` (fired or not).
  uint64_t seen(FaultSite site) const;

  /// The installed injector, or null (the common, zero-overhead case).
  static FaultInjector* Current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Installs `injector` process-wide (null uninstalls). The caller keeps
  /// ownership and must uninstall before destroying it.
  static void Install(FaultInjector* injector) {
    current_.store(injector, std::memory_order_release);
  }

 private:
  struct SiteState {
    Rule rule;
    bool armed = false;
    uint64_t seen = 0;   ///< operations evaluated since Arm
    uint64_t fired = 0;  ///< operations that drew a fault
  };

  static std::atomic<FaultInjector*> current_;

  mutable std::mutex mu_;
  std::array<SiteState, kNumFaultSites> sites_;  ///< under mu_
};

/// Evaluates `site` against the installed injector; no-fault when none
/// is installed. The hook every instrumented operation calls.
inline FaultOutcome CheckFault(FaultSite site) {
  FaultInjector* injector = FaultInjector::Current();
  if (injector == nullptr) return FaultOutcome{};
  return injector->Evaluate(site);
}

/// RAII install/uninstall for tests: the injector is live for the scope.
class ScopedFaultInjector {
 public:
  ScopedFaultInjector() { FaultInjector::Install(&injector_); }
  ~ScopedFaultInjector() { FaultInjector::Install(nullptr); }
  ENDURE_DISALLOW_COPY_AND_ASSIGN(ScopedFaultInjector);

  FaultInjector* operator->() { return &injector_; }
  FaultInjector& operator*() { return injector_; }

 private:
  FaultInjector injector_;
};

}  // namespace endure

#endif  // ENDURE_UTIL_FAULT_INJECTION_H_
