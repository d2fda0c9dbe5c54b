// Seeded fault-schedule torture harness — the acceptance gate for the
// storage fault-tolerance work. Each schedule opens a durable one-shard
// ShardedDB, arms a randomly drawn set of failpoint rules (transient and
// permanent EIO / ENOSPC, torn and silently-torn writes, bit-rot, failed
// fsyncs — across the segment, WAL and manifest paths), runs a
// write/read/retune workload against an in-memory oracle, then clears
// the faults and reopens:
//
//   - the process never aborts (every fault surfaces as Status);
//   - a value served while faults are live is always one the workload
//     actually wrote (acknowledged, or applied-but-unacknowledged —
//     never fabricated, never stale-shadowed);
//   - permanent faults land in read-only degraded mode (writes rejected
//     with the latched status, Health() non-OK);
//   - after the fault clears, the reopened deployment serves every
//     acknowledged write — unless silent on-device damage (bit-rot or a
//     silent torn page) was injected, in which case the recovery scrub
//     must *refuse* the deployment with Corruption rather than serve it.
//
// ENDURE_TORTURE_SCHEDULES overrides the schedule count (default 100;
// CI pins it explicitly so the run is reproducible by seed).

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace endure::lsm {
namespace {

Options TortureOpts(const std::string& dir, uint64_t seed) {
  Options o;
  o.size_ratio = 3 + static_cast<int>(seed % 2);
  o.policy = seed % 3 == 0 ? CompactionPolicy::kTiering
                           : CompactionPolicy::kLeveling;
  o.buffer_entries = 16;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 5.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

/// Everything the workload knows about one key.
struct KeyState {
  bool acked = false;
  Value acked_value = 0;
  /// Values attempted after the last acknowledged write. An unacknowledged
  /// Put may still be applied (and even made durable by a later flush), so
  /// these are plausible reads — but the acked value must never be *lost*
  /// in favor of nothing.
  std::vector<Value> later_attempts;
};

bool Plausible(const KeyState& st, Value v) {
  if (st.acked && st.acked_value == v) return true;
  for (const Value a : st.later_attempts) {
    if (a == v) return true;
  }
  return false;
}

struct Schedule {
  /// True when a rule could damage the device *silently* (bit-rot or an
  /// unreported torn page): acknowledged data may be destroyed, and the
  /// contract shifts from "recover it" to "detect it and refuse to serve".
  bool silent_damage_armed = false;
};

/// Draws 1–3 failpoint rules for this seed and arms them.
Schedule ArmSchedule(FaultInjector* fi, std::mt19937_64* rng) {
  static constexpr FaultSite kSites[] = {
      FaultSite::kSegmentOpen,  FaultSite::kSegmentWrite,
      FaultSite::kSegmentFsync, FaultSite::kSegmentRead,
      FaultSite::kWalOpen,      FaultSite::kWalWrite,
      FaultSite::kWalFsync,     FaultSite::kFileWrite,
      FaultSite::kFileFsync,    FaultSite::kFileRename,
      FaultSite::kDirSync,      FaultSite::kAlloc,
  };
  Schedule schedule;
  const int num_rules = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < num_rules; ++i) {
    const FaultSite site = kSites[(*rng)() % std::size(kSites)];
    FaultInjector::Rule rule;
    rule.skip = (*rng)() % 40;
    rule.count = (*rng)() % 4 == 0 ? UINT64_MAX : 1 + (*rng)() % 3;
    rule.err = (*rng)() % 2 == 0 ? EIO : ENOSPC;
    if (site == FaultSite::kSegmentWrite) {
      switch ((*rng)() % 4) {
        case 0:  // plain reported error
          break;
        case 1:  // torn write, reported
          rule.short_io = true;
          break;
        case 2:  // torn write, silent — only the page CRC can catch it
          rule.short_io = true;
          rule.err = 0;
          schedule.silent_damage_armed = true;
          break;
        case 3:  // bit-rot under a "successful" write
          rule.corrupt = true;
          rule.err = 0;
          schedule.silent_damage_armed = true;
          break;
      }
    } else if (site == FaultSite::kWalWrite && (*rng)() % 2 == 0) {
      rule.short_io = true;  // torn group commit (always reported)
    }
    fi->Arm(site, rule);
  }
  return schedule;
}

/// True when any site actually drew a silent-damage outcome. Only fired
/// rules excuse a Corruption verdict at reopen.
bool SilentDamageFired(FaultInjector* fi, const Schedule& schedule) {
  return schedule.silent_damage_armed &&
         fi->fired(FaultSite::kSegmentWrite) > 0;
}

void RunOneSchedule(uint64_t seed, uint64_t block_cache_bytes = 0) {
  const std::string dir = "/tmp/endure_fault_torture_" +
                          std::to_string(seed) +
                          (block_cache_bytes > 0 ? "_cached" : "");
  std::filesystem::remove_all(dir);
  Options opts = TortureOpts(dir, seed);
  // The cache-enabled arm: every schedule also runs with the shared
  // block cache on the read path, so checksum-verified admission faces
  // the same bit-rot / torn-write / EIO fire. The plausibility oracle
  // is the detector — a cache that admitted or served damaged bytes
  // would fabricate a value the workload never wrote.
  opts.block_cache_bytes = block_cache_bytes;

  std::mt19937_64 rng(0x9e3779b97f4a7c15ull ^ (seed * 0x2545f4914f6cdd1dull));
  std::map<Key, KeyState> oracle;

  {
    auto db = ShardedDB::Open(opts);
    ASSERT_TRUE(db.ok()) << "seed " << seed << ": " << db.status().message();

    ScopedFaultInjector fi;
    const Schedule schedule = ArmSchedule(&*fi, &rng);

    bool saw_rejection = false;
    for (int op = 0; op < 220; ++op) {
      const Key k = rng() % 48;  // dense: overwrites force compactions
      const Value v = static_cast<Value>(seed * 1000000 + op + 1);
      const Status s = (*db)->Put(k, v);
      KeyState& st = oracle[k];
      if (s.ok()) {
        st.acked = true;
        st.acked_value = v;
        st.later_attempts.clear();
      } else {
        saw_rejection = true;
        st.later_attempts.push_back(v);
        // Degraded mode is sticky: once latched, Health reports it and
        // every further write is refused without touching storage.
        if (!(*db)->Health().ok()) {
          EXPECT_FALSE((*db)->Put(k, v + 1).ok()) << "seed " << seed;
          st.later_attempts.push_back(v + 1);
        }
      }

      if (op % 7 == 0) {
        // Reads while faults are live: a miss is legal (a damaged page
        // must miss rather than serve deeper, possibly-stale values),
        // but a *returned* value must be one this workload wrote.
        const Key probe = rng() % 48;
        const auto it = oracle.find(probe);
        if (const std::optional<Value> got = (*db)->Get(probe)) {
          ASSERT_TRUE(it != oracle.end() && Plausible(it->second, *got))
              << "seed " << seed << " fabricated key " << probe
              << " value " << *got;
        }
      }
      if (op == 120) {
        // Mid-run retune: exercises Reconfigure + the migration path
        // under fire. Failure is acceptable (and latches nothing by
        // itself); success must leave the tree serving.
        Options tuned = opts;
        tuned.size_ratio = opts.size_ratio == 3 ? 4 : 3;
        (void)(*db)->ApplyTuning(tuned);
      }
    }
    // A latched tree must self-report, not just reject writes.
    if (!(*db)->Health().ok()) {
      EXPECT_TRUE(saw_rejection) << "seed " << seed;
      EXPECT_GE((*db)->TotalStats().read_only_transitions.load(), 1u)
          << "seed " << seed;
    }

    // The fault clears; the instance shuts down (possibly latched —
    // shutdown must not abort either).
    fi->DisarmAll();
    const bool silent_damage = SilentDamageFired(&*fi, schedule);

    db->reset();

    // Reopen on healthy storage. Silent on-device damage may legally
    // surface here as a scrub refusal — anything else must recover.
    auto reopened = ShardedDB::Open(opts);
    if (!reopened.ok()) {
      ASSERT_EQ(reopened.status().code(), StatusCode::kCorruption)
          << "seed " << seed << ": " << reopened.status().message();
      ASSERT_TRUE(silent_damage)
          << "seed " << seed << " refused a reopen without injected "
          << "silent damage: " << reopened.status().message();
      return;
    }
    ASSERT_TRUE((*reopened)->Health().ok()) << "seed " << seed;
    for (const auto& [k, st] : oracle) {
      const std::optional<Value> got = (*reopened)->Get(k);
      if (st.acked) {
        ASSERT_TRUE(got.has_value())
            << "seed " << seed << " lost acknowledged key " << k;
        ASSERT_TRUE(Plausible(st, *got))
            << "seed " << seed << " key " << k << " value " << *got;
      } else if (got.has_value()) {
        ASSERT_TRUE(Plausible(st, *got))
            << "seed " << seed << " fabricated key " << k;
      }
    }
    // The recovered deployment is fully writable again.
    ASSERT_TRUE((*reopened)->Put(100000 + seed, seed).ok())
        << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultTortureTest, SeededScheduleSweep) {
  const int schedules = static_cast<int>(
      GetEnvInt("ENDURE_TORTURE_SCHEDULES", 100));
  for (int seed = 0; seed < schedules; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    RunOneSchedule(static_cast<uint64_t>(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(FaultTortureTest, CacheEnabledScheduleSweep) {
  const int schedules = static_cast<int>(
      GetEnvInt("ENDURE_TORTURE_CACHE_SCHEDULES", 40));
  for (int seed = 0; seed < schedules; ++seed) {
    SCOPED_TRACE("cached schedule seed " + std::to_string(seed));
    RunOneSchedule(static_cast<uint64_t>(seed), /*block_cache_bytes=*/
                   128 * 1024);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace endure::lsm
