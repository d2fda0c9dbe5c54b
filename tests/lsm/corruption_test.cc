// On-disk corruption detection: per-page CRC32 verification on every
// segment read — at recovery (the open-time scrub of every referenced
// page) and at runtime (the file backend preads on every cache miss) —
// plus the manifest-length cross-check for truncated segment files. The
// damage is inflicted on the real files, between closes or under a live
// deployment — no fault injector, just a hex editor's view of the
// deployment directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace endure::lsm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/endure_corruption_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Options DurableOpts(const std::string& dir) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 32;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

/// Paths of every persistent segment file of shard `shard` of the
/// deployment rooted at `dir`, sorted.
std::vector<std::string> SegmentFiles(const std::string& dir,
                                      int shard = 0) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(
           dir + "/shard_" + std::to_string(shard))) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg_", 0) == 0 &&
        name.size() > 8 && name.substr(name.size() - 4) == ".run") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(offset);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good()) << path;
}

/// Builds a deployment with one flushed run of keys [0, n) and closes it.
void SeedDeployment(const Options& opts, Key n) {
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE((*db)->Put(k, k + 100).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
}

TEST(CorruptionTest, RecoveryScrubRejectsBitFlippedSegment) {
  const std::string dir = FreshDir("scrub_bitflip");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);  // inside the first page's payload

  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().message();
}

TEST(CorruptionTest, RecoveryScrubCoversEveryShard) {
  // The open-time scrub runs per shard on the parallel open: rot in the
  // last shard fails the whole open, and undoing the flip proves that
  // one page was the only thing standing between it and a clean reopen.
  const std::string dir = FreshDir("scrub_every_shard");
  Options opts = DurableOpts(dir);
  opts.num_shards = 4;
  SeedDeployment(opts, 512);

  const std::vector<std::string> segs = SegmentFiles(dir, 3);
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);
  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().message();

  FlipByte(segs.front(), 4);
  auto restored = ShardedDB::Open(opts);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  for (Key k = 0; k < 512; ++k) {
    ASSERT_EQ((*restored)->Get(k).value_or(0), k + 100) << k;
  }
}

TEST(CorruptionTest, TruncatedSegmentFailsRecovery) {
  const std::string dir = FreshDir("truncated");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_FALSE(segs.empty());
  const std::string victim = segs.front();
  const auto size = std::filesystem::file_size(victim);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(victim, size / 2);

  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().message();
}

/// Opens the deployment seeded at `opts` (every page verifies at
/// recovery), then flips a byte inside the first page of its first
/// segment under the live instance — page 0 holds keys 0..3.
std::unique_ptr<ShardedDB> OpenThenRot(const Options& opts) {
  auto db = ShardedDB::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status().message();
  if (!db.ok()) return nullptr;
  const std::vector<std::string> segs = SegmentFiles(opts.storage_dir);
  EXPECT_FALSE(segs.empty());
  if (!segs.empty()) FlipByte(segs.front(), 4);
  return std::move(db).value();
}

TEST(CorruptionTest, RuntimeChecksumFailureLatchesReadOnly) {
  const Options opts = DurableOpts(FreshDir("runtime_latch"));
  SeedDeployment(opts, 64);
  auto db = OpenThenRot(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // The corrupted page misses rather than serving damaged bytes...
  EXPECT_EQ(db->Get(0), std::nullopt);
  // ...and the shard latches read-only: writes are refused from now on.
  const Status health = db->Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_FALSE(db->Put(1000, 1).ok());
  EXPECT_GE(db->TotalStats().read_only_transitions.load(), 1u);
  EXPECT_GE(db->TotalStats().checksum_failures.load(), 1u);
}

TEST(CorruptionTest, BitRotIsNeverAdmittedToBlockCache) {
  // Checksum-verified admission: a page that fails CRC verification must
  // neither be admitted to the block cache nor ever served from it —
  // every retry re-reads the device, fails verification again, and
  // misses. A cache hit on rotted bytes would silently launder the
  // corruption past the verifier.
  Options opts = DurableOpts(FreshDir("cache_bitrot"));
  SeedDeployment(opts, 64);
  opts.block_cache_bytes = 256 * 1024;
  auto db = OpenThenRot(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(::testing::Test::HasFailure());
  constexpr int kAttempts = 5;
  for (int i = 0; i < kAttempts; ++i) {
    EXPECT_EQ(db->Get(0), std::nullopt);
  }
  const Statistics stats = db->TotalStats();
  EXPECT_EQ(stats.cache_hits.load(), 0u);
  EXPECT_GE(stats.checksum_failures.load(),
            static_cast<uint64_t>(kAttempts));
  EXPECT_GE(stats.cache_misses.load(), static_cast<uint64_t>(kAttempts));
}

TEST(CorruptionTest, VerifiedPagesAreServedFromCacheAfterBitRotElsewhere) {
  // The flip side of checksum-verified admission: pages that DID verify
  // are admitted and repeat reads hit the cache — even while a rotted
  // page elsewhere in the deployment keeps the shard latched read-only —
  // and serving a hit never re-runs (or re-fails) verification.
  Options opts = DurableOpts(FreshDir("cache_clean_pages"));
  SeedDeployment(opts, 64);
  opts.block_cache_bytes = 256 * 1024;
  auto db = OpenThenRot(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // A key far from the damaged first page: first read admits, the
  // second hits.
  ASSERT_EQ(db->Get(40).value_or(0), 140u);
  const uint64_t hits_before = db->TotalStats().cache_hits.load();
  ASSERT_EQ(db->Get(40).value_or(0), 140u);
  EXPECT_GT(db->TotalStats().cache_hits.load(), hits_before);

  // Now trip the rotted page, then confirm cached serving of the clean
  // page still works and the failure count stops moving when hits serve.
  EXPECT_EQ(db->Get(0), std::nullopt);
  EXPECT_FALSE(db->Health().ok());
  const uint64_t failures = db->TotalStats().checksum_failures.load();
  EXPECT_GE(failures, 1u);
  const uint64_t hits_mid = db->TotalStats().cache_hits.load();
  ASSERT_EQ(db->Get(40).value_or(0), 140u);
  EXPECT_GT(db->TotalStats().cache_hits.load(), hits_mid);
  EXPECT_EQ(db->TotalStats().checksum_failures.load(), failures);
}

TEST(CorruptionTest, ScanOverRottedPageFailsInsteadOfTruncating) {
  // A scan that reads the rotted page fails with the checksum status — a
  // result missing that page's keys would read as deletions — and
  // latches the shard; a scan that never touches the page still serves
  // its whole range.
  const Options opts = DurableOpts(FreshDir("scan_rot"));
  SeedDeployment(opts, 64);
  auto db = OpenThenRot(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const StatusOr<std::vector<Entry>> damaged = db->Scan(0, 8);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption)
      << damaged.status().message();
  EXPECT_EQ(db->Health().code(), StatusCode::kCorruption);
  EXPECT_GE(db->TotalStats().checksum_failures.load(), 1u);

  const StatusOr<std::vector<Entry>> clean = db->Scan(40, 48);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_EQ(clean->size(), 8u);
  for (Key i = 0; i < 8; ++i) {
    EXPECT_EQ((*clean)[i].key, 40 + i);
    EXPECT_EQ((*clean)[i].value, 140 + i);
  }
}

TEST(CorruptionTest, MergeOverRottedPageLatchesAndInstallsNothing) {
  // A merge reads every page of its inputs, so the first inline flush
  // that merges into the damaged run fails verification: the write that
  // triggered it is refused with the checksum status, the shard latches,
  // and the damaged run stays resident — the failed merge installs no
  // output that silently lacks the rotted page's keys.
  const Options opts = DurableOpts(FreshDir("merge_rot"));
  SeedDeployment(opts, 64);
  auto db = OpenThenRot(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(::testing::Test::HasFailure());
  Status first_error;
  Key next = 1000;
  for (; next < 1000 + 4 * opts.buffer_entries; ++next) {
    first_error = db->Put(next, next);
    if (!first_error.ok()) break;
  }
  ASSERT_FALSE(first_error.ok()) << "no merge read the rotted page";
  EXPECT_EQ(first_error.code(), StatusCode::kCorruption)
      << first_error.message();
  EXPECT_EQ(db->Health().code(), StatusCode::kCorruption);
  EXPECT_FALSE(db->Put(5000, 1).ok());
  EXPECT_GE(db->TotalStats().checksum_failures.load(), 1u);
  EXPECT_GE(db->TotalStats().read_only_transitions.load(), 1u);
  for (Key k = 1000; k < next; ++k) {
    ASSERT_EQ(db->Get(k).value_or(0), k) << k;
  }
  for (Key k = 4; k < 64; ++k) {
    ASSERT_EQ(db->Get(k).value_or(0), k + 100) << k;
  }
}

// ---- damage in the middle of a file-backend extent ----
//
// The file backend moves 37 pages (B = 4) per pread or pwrite. These
// deployments hold one 64-page run of keys [0, 256) — two extents — and
// damage page 20, in the middle of the first: the damage must still hit
// exactly the reader that reaches page 20.

constexpr Key kExtentRunKeys = 256;
constexpr size_t kExtentRunPages = 64;
constexpr size_t kMidExtentPage = 20;  // keys 80..83

Options ExtentOpts(const std::string& dir) {
  Options o = DurableOpts(dir);
  o.buffer_entries = kExtentRunKeys;  // one flush writes the whole run
  return o;
}

constexpr std::streamoff kPageDiskBytes =
    4 * FilePageStore::kEntryBytes + FilePageStore::kPageFooterBytes;

/// The deployment's one segment file, checked to be the 64-page run.
std::string OnlySegment(const std::string& dir) {
  const std::vector<std::string> segs = SegmentFiles(dir);
  EXPECT_EQ(segs.size(), 1u);
  if (segs.size() != 1) return "";
  EXPECT_EQ(std::filesystem::file_size(segs.front()),
            static_cast<uintmax_t>(kExtentRunPages * kPageDiskBytes));
  return segs.front();
}

void RotPage(const std::string& segment, size_t page) {
  FlipByte(segment, static_cast<std::streamoff>(page) * kPageDiskBytes + 4);
}

TEST(CorruptionTest, RotMidExtentFailsRecoveryScrubAtThatPage) {
  const Options opts = ExtentOpts(FreshDir("extent_scrub"));
  SeedDeployment(opts, kExtentRunKeys);
  const std::string seg = OnlySegment(opts.storage_dir);
  ASSERT_FALSE(seg.empty());
  RotPage(seg, kMidExtentPage);

  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("page 20 of"),
            std::string::npos)
      << reopened.status().message();
}

TEST(CorruptionTest, ScanReachingRotMidExtentFailsAndLatches) {
  const Options opts = ExtentOpts(FreshDir("extent_scan"));
  SeedDeployment(opts, kExtentRunKeys);
  auto opened = ShardedDB::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<ShardedDB> db = std::move(opened).value();
  const std::string seg = OnlySegment(opts.storage_dir);
  ASSERT_FALSE(seg.empty());
  RotPage(seg, kMidExtentPage);

  // A scan that ends just before the rotted page reads only up to its
  // bound, though the page sits in the same on-disk extent.
  uint64_t before = db->TotalStats().range_pages_read.load();
  const StatusOr<std::vector<Entry>> clean = db->Scan(0, 80);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_EQ(clean->size(), 80u);
  EXPECT_EQ(db->TotalStats().range_pages_read.load() - before, 20u);
  EXPECT_TRUE(db->Health().ok());

  // A scan across it serves pages 0..19, then fails on page 20.
  before = db->TotalStats().range_pages_read.load();
  const StatusOr<std::vector<Entry>> damaged = db->Scan(0, 200);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption)
      << damaged.status().message();
  EXPECT_EQ(db->TotalStats().range_pages_read.load() - before, 20u);
  EXPECT_EQ(db->Health().code(), StatusCode::kCorruption);
  EXPECT_EQ(db->TotalStats().checksum_failures.load(), 1u);
}

TEST(CorruptionTest, ReadAheadRotFailsTheScanEvenWhenTheCacheHoldsThePage) {
  // Page 20 arrives as a read-ahead page with page 0's extent, so the
  // scan verifies its bytes from the window and never asks the cache:
  // rot there fails the scan and latches the shard although a point read
  // cached the clean page before the damage.
  Options opts = ExtentOpts(FreshDir("extent_scan_cached"));
  opts.block_cache_bytes = 256 * 1024;
  SeedDeployment(opts, kExtentRunKeys);
  auto opened = ShardedDB::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<ShardedDB> db = std::move(opened).value();
  ASSERT_EQ(db->Get(4 * kMidExtentPage).value_or(0),
            4 * kMidExtentPage + 100);
  const std::string seg = OnlySegment(opts.storage_dir);
  ASSERT_FALSE(seg.empty());
  RotPage(seg, kMidExtentPage);
  // The cached copy still answers point reads.
  const uint64_t hits = db->TotalStats().cache_hits.load();
  ASSERT_EQ(db->Get(4 * kMidExtentPage).value_or(0),
            4 * kMidExtentPage + 100);
  ASSERT_EQ(db->TotalStats().cache_hits.load(), hits + 1);

  const uint64_t before = db->TotalStats().range_pages_read.load();
  const StatusOr<std::vector<Entry>> damaged = db->Scan(0, 200);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption)
      << damaged.status().message();
  EXPECT_EQ(db->TotalStats().range_pages_read.load() - before, 20u);
  EXPECT_EQ(db->Health().code(), StatusCode::kCorruption);
  EXPECT_EQ(db->TotalStats().checksum_failures.load(), 1u);
}

TEST(CorruptionTest, MergeReachingRotMidExtentLatchesAndInstallsNothing) {
  const Options opts = ExtentOpts(FreshDir("extent_merge"));
  SeedDeployment(opts, kExtentRunKeys);
  auto opened = ShardedDB::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<ShardedDB> db = std::move(opened).value();
  const std::string seg = OnlySegment(opts.storage_dir);
  ASSERT_FALSE(seg.empty());
  RotPage(seg, kMidExtentPage);

  // The next flush merges into the damaged run and reads every page of
  // it: the write that triggers it is refused with the checksum status.
  Status first_error;
  Key next = 1000;
  for (; next < 1000 + 2 * kExtentRunKeys; ++next) {
    first_error = db->Put(next, next);
    if (!first_error.ok()) break;
  }
  ASSERT_FALSE(first_error.ok()) << "no merge read the rotted page";
  EXPECT_EQ(first_error.code(), StatusCode::kCorruption)
      << first_error.message();
  EXPECT_NE(first_error.message().find("page 20 of"), std::string::npos)
      << first_error.message();
  EXPECT_EQ(db->Health().code(), StatusCode::kCorruption);
  // Nothing was installed: the damaged run still serves every page but
  // the rotted one, including the pages behind it in its extent, and
  // the acked writes are still served from memory.
  for (Key k = 0; k < kExtentRunKeys; ++k) {
    if (k / 4 == kMidExtentPage) continue;
    ASSERT_EQ(db->Get(k).value_or(0), k + 100) << k;
  }
  for (Key k = 1000; k < next; ++k) {
    ASSERT_EQ(db->Get(k).value_or(0), k) << k;
  }
}

TEST(CorruptionTest, TornPageStagedBetweenCleanPagesFailsReopen) {
  // Page 20 of the flush tears silently (half of it reaches the file)
  // while pages 0..19 are staged in the writer's extent buffer. The
  // flush succeeds — only a checksum can see a silent tear — and the
  // reopen's scrub refuses the deployment at exactly that page.
  const Options opts = ExtentOpts(FreshDir("extent_torn"));
  {
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentWrite, {.skip = kMidExtentPage,
                                       .short_io = true});
    SeedDeployment(opts, kExtentRunKeys);
    EXPECT_EQ(fi->fired(FaultSite::kSegmentWrite), 1u);
  }
  ASSERT_FALSE(OnlySegment(opts.storage_dir).empty());
  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("page 20 of"),
            std::string::npos)
      << reopened.status().message();
}

TEST(CorruptionTest, ShardedScanAnswersTheLowestNumberedFailingShard) {
  // A scan over four shards meets shard 3's rot first in key order, yet
  // answers the error of the lowest-numbered shard whose part of the
  // range is unreadable: the shards below 3 read the rest of the range,
  // and shard 1's rot, in its largest keys, is the error returned — and
  // the latch Health() reports.
  Options opts = DurableOpts(FreshDir("scan_lowest_shard"));
  opts.num_shards = 4;
  opts.buffer_entries = 1024;  // one flushed run per shard
  SeedDeployment(opts, 512);
  auto opened = ShardedDB::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<ShardedDB> db = std::move(opened).value();
  const std::vector<std::string> low = SegmentFiles(opts.storage_dir, 1);
  const std::vector<std::string> high = SegmentFiles(opts.storage_dir, 3);
  ASSERT_EQ(low.size(), 1u);
  ASSERT_EQ(high.size(), 1u);
  const auto low_pages = static_cast<size_t>(
      std::filesystem::file_size(low.front()) / kPageDiskBytes);
  ASSERT_GT(low_pages, 8u);
  RotPage(high.front(), 2);
  RotPage(low.front(), low_pages - 1);

  const StatusOr<std::vector<Entry>> got = db->Scan(0, 512);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  EXPECT_NE(got.status().message().find("shard_1/"), std::string::npos)
      << got.status().message();
  const Status health = db->Health();
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_EQ(health.message().rfind("shard 1: ", 0), 0u) << health.message();
}

TEST(CorruptionTest, UndamagedDeploymentScrubsClean) {
  const std::string dir = FreshDir("clean_scrub");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 256);  // several pages and a compaction or two

  auto db = ShardedDB::Open(opts);  // recovery verifies every page
  ASSERT_TRUE(db.ok()) << db.status().message();
  for (Key k = 0; k < 256; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 100) << k;
  }
  EXPECT_TRUE((*db)->Health().ok());
  EXPECT_EQ((*db)->TotalStats().checksum_failures.load(), 0u);
}

}  // namespace
}  // namespace endure::lsm
