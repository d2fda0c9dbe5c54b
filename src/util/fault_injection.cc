#include "util/fault_injection.h"

#include <chrono>
#include <thread>

namespace endure {

std::atomic<FaultInjector*> FaultInjector::current_{nullptr};

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kSegmentOpen:
      return "segment open";
    case FaultSite::kSegmentWrite:
      return "segment write";
    case FaultSite::kSegmentFsync:
      return "segment fsync";
    case FaultSite::kSegmentRead:
      return "segment read";
    case FaultSite::kWalOpen:
      return "wal open";
    case FaultSite::kWalWrite:
      return "wal write";
    case FaultSite::kWalFsync:
      return "wal fsync";
    case FaultSite::kFileWrite:
      return "file write";
    case FaultSite::kFileFsync:
      return "file fsync";
    case FaultSite::kFileRename:
      return "file rename";
    case FaultSite::kDirSync:
      return "dir sync";
    case FaultSite::kAlloc:
      return "alloc";
  }
  return "unknown";
}

void FaultInjector::Arm(FaultSite site, const Rule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& st = sites_[static_cast<size_t>(site)];
  st.rule = rule;
  st.armed = true;
  st.seen = 0;
  // fired deliberately survives re-arming: it counts lifetime faults at
  // the site, which is what test assertions want across phases.
}

void FaultInjector::Disarm(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[static_cast<size_t>(site)].armed = false;
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (SiteState& st : sites_) st.armed = false;
}

FaultOutcome FaultInjector::Evaluate(FaultSite site) {
  FaultOutcome out;
  uint32_t stall_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteState& st = sites_[static_cast<size_t>(site)];
    if (!st.armed) return FaultOutcome{};
    uint64_t index = st.seen++;
    if (index < st.rule.skip) return FaultOutcome{};
    if (st.rule.count != UINT64_MAX &&
        index >= st.rule.skip + st.rule.count) {
      return FaultOutcome{};
    }
    ++st.fired;
    out.err = st.rule.err;
    out.short_io = st.rule.short_io;
    out.corrupt = st.rule.corrupt;
    stall_ms = st.rule.stall_ms;
  }
  // Stall unlocked: other sites (and other threads at this one) proceed.
  if (stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  return out;
}

uint64_t FaultInjector::fired(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].fired;
}

uint64_t FaultInjector::seen(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].seen;
}

}  // namespace endure
