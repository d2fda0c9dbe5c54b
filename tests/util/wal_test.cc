// WalWriter/WalReader unit tests: framing round-trips, group commit,
// torn-tail and corruption tolerance (replay must stop at the last intact
// record, never abort), append-across-reopen, rotation to a fresh file,
// and the crash-simulation Abandon() hook the recovery suites build on.

#include "util/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace endure {
namespace {

/// A fresh directory for one test's logs.
std::string TempWalDir(const std::string& name) {
  const std::string dir = "/tmp/endure_wal_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::pair<uint8_t, std::string>> ReadAll(
    const std::string& path, bool* torn = nullptr) {
  auto reader = WalReader::Open(path);
  EXPECT_TRUE(reader.ok());
  std::vector<std::pair<uint8_t, std::string>> records;
  uint8_t type;
  std::string payload;
  while ((*reader)->Next(&type, &payload)) {
    records.emplace_back(type, payload);
  }
  if (torn != nullptr) *torn = (*reader)->tail_torn();
  return records;
}

/// CRC-32/ISO-HDLC one bit at a time, straight from its definition:
/// reflected polynomial 0xEDB88320, initial value and final XOR ~0.
uint32_t BitwiseCrc32(const unsigned char* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32Portable("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Portable("", 0), 0u);

  // Every length 0-300 at every start offset 0-15 against the bitwise
  // definition, for Crc32 (which folds 64 bytes and more where the CPU
  // has PCLMULQDQ: its 4-lane loop, its 16-byte blocks and the slicing
  // tail behind them) and for the portable slicing-by-8 path (the 8-byte
  // loop's head, tail and unaligned loads), whatever this CPU runs.
  Rng rng(7);
  std::vector<unsigned char> buf(16 + 300);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t want = BitwiseCrc32(buf.data() + offset, len);
      ASSERT_EQ(Crc32(buf.data() + offset, len), want)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32Portable(buf.data() + offset, len), want)
          << "offset " << offset << " len " << len;
    }
  }

  // A 1 MiB seeded buffer, pinned to the value the byte-at-a-time table
  // implementation computed: every page, WAL record and manifest already
  // on disk carries checksums of that function.
  std::vector<unsigned char> big(1 << 20);
  Rng big_rng(20261018);
  for (unsigned char& b : big) {
    b = static_cast<unsigned char>(big_rng.Next() >> 56);
  }
  EXPECT_EQ(Crc32(big.data(), big.size()), 0x5693FB9Bu);
  EXPECT_EQ(Crc32Portable(big.data(), big.size()), 0x5693FB9Bu);
}

TEST(WalTest, RoundTripsTypedRecords) {
  const std::string dir = TempWalDir("roundtrip");
  const std::string path = WalPath(dir, 1);
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kNone);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "hello", 5);
    (*writer)->Append(7, "", 0);
    ASSERT_TRUE((*writer)->Commit().ok());
    (*writer)->Append(2, "world!", 6);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  const auto records = ReadAll(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::pair<uint8_t, std::string>{1, "hello"}));
  EXPECT_EQ(records[1], (std::pair<uint8_t, std::string>{7, ""}));
  EXPECT_EQ(records[2], (std::pair<uint8_t, std::string>{2, "world!"}));
}

TEST(WalTest, MissingFileReadsAsEmpty) {
  const auto records = ReadAll(WalPath(TempWalDir("missing"), 1));
  EXPECT_TRUE(records.empty());
}

TEST(WalTest, GroupCommitWritesOnce) {
  const std::string dir = TempWalDir("group");
  const std::string path = WalPath(dir, 1);
  auto writer = WalWriter::Open(dir, 1, WalSyncMode::kNone);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) (*writer)->Append(1, "x", 1);
  EXPECT_EQ((*writer)->bytes_committed(), 0u);  // staged only
  ASSERT_TRUE((*writer)->Commit().ok());
  // 10 records of 9-byte header + 1-byte payload, in one commit.
  EXPECT_EQ((*writer)->bytes_committed(), 10u * 10u);
}

TEST(WalTest, AppendsAcrossReopen) {
  const std::string dir = TempWalDir("reopen");
  const std::string path = WalPath(dir, 1);
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kPerBatch);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "first", 5);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kPerBatch);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "second", 6);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  const auto records = ReadAll(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].second, "first");
  EXPECT_EQ(records[1].second, "second");
}

TEST(WalTest, StopsAtTornTail) {
  const std::string dir = TempWalDir("torn");
  const std::string path = WalPath(dir, 1);
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kNone);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "intact", 6);
    (*writer)->Append(1, "casualty", 8);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  // Chop the last record mid-payload, as a crash mid-write would.
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteFileAtomic(path, data->substr(0, data->size() - 3)).ok());

  bool torn = false;
  const auto records = ReadAll(path, &torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "intact");
  EXPECT_TRUE(torn);
}

TEST(WalTest, StopsAtCorruptRecord) {
  const std::string dir = TempWalDir("corrupt");
  const std::string path = WalPath(dir, 1);
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kNone);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "good", 4);
    (*writer)->Append(1, "bad", 3);
    (*writer)->Append(1, "unreachable", 11);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string mangled = std::move(data).value();
  // Flip a payload byte of the middle record: crc fails, replay stops —
  // later records are unreachable (the durable prefix property).
  mangled[13 + 9 + 1] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, mangled).ok());

  bool torn = false;
  const auto records = ReadAll(path, &torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "good");
  EXPECT_TRUE(torn);
}

TEST(WalTest, AbandonDropsStagedRecords) {
  const std::string dir = TempWalDir("abandon");
  const std::string path = WalPath(dir, 1);
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kNone);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "durable", 7);
    ASSERT_TRUE((*writer)->Commit().ok());
    (*writer)->Append(1, "staged-only", 11);
    (*writer)->Abandon();  // crash: staged record never hits the file
  }
  const auto records = ReadAll(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "durable");
}

TEST(WalTest, RotatePreservesSyncStateAndAppends) {
  const std::string dir = TempWalDir("rotate");
  WalFlushService service(/*sync_interval_ms=*/1);
  std::atomic<int> syncs{0};
  auto writer = WalWriter::Open(dir, 1, WalSyncMode::kBackground,
                                [&syncs] { ++syncs; }, &service);
  ASSERT_TRUE(writer.ok());
  (*writer)->Append(1, "pre", 3);
  ASSERT_TRUE((*writer)->Commit().ok());
  // A record staged before the switch commits into the new file.
  (*writer)->Append(1, "staged", 6);
  ASSERT_TRUE((*writer)->Rotate().ok());
  EXPECT_EQ((*writer)->generation(), 2u);
  ASSERT_TRUE((*writer)->Commit().ok());

  // The long-lived writer keeps its flush-service registration: the
  // service syncs the retired file's tail and the new file, then — with
  // nothing left dirty — never touches the writer again.
  EXPECT_EQ(service.num_writers(), 1u);
  for (int i = 0; i < 2000 && syncs.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(syncs.load(), 2) << "retired or current log never synced";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const int settled = syncs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(syncs.load(), settled) << "idle double-sync";

  // New appends keep landing in the new file and background-sync.
  (*writer)->Append(2, "post", 4);
  ASSERT_TRUE((*writer)->Commit().ok());
  for (int i = 0; i < 2000 && syncs.load() == settled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(syncs.load(), settled) << "post-rotation sync skipped";
  writer->reset();

  const auto old_records = ReadAll(WalPath(dir, 1));
  ASSERT_EQ(old_records.size(), 1u);
  EXPECT_EQ(old_records[0].second, "pre");
  const auto new_records = ReadAll(WalPath(dir, 2));
  ASSERT_EQ(new_records.size(), 2u);
  EXPECT_EQ(new_records[0].second, "staged");
  EXPECT_EQ(new_records[1].second, "post");
}

TEST(WalTest, RotateSyncsInlineOutsideBackgroundMode) {
  // kPerBatch and kNone have no flush service to defer to: the switch
  // itself syncs the retired tail (kNone leaves one) and the directory.
  for (const WalSyncMode mode : {WalSyncMode::kNone, WalSyncMode::kPerBatch}) {
    const std::string dir =
        TempWalDir("inline_" + std::to_string(static_cast<int>(mode)));
    std::atomic<int> syncs{0};
    auto writer = WalWriter::Open(dir, 1, mode, [&syncs] { ++syncs; });
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "a", 1);
    ASSERT_TRUE((*writer)->Commit().ok());
    const int before = syncs.load();
    ASSERT_TRUE((*writer)->Rotate().ok());
    // kNone's committed tail was dirty until the switch synced it;
    // kPerBatch's was synced by its commit already.
    EXPECT_EQ(syncs.load(),
              before + (mode == WalSyncMode::kNone ? 1 : 0));
    (*writer)->Abandon();
  }
}

TEST(WalTest, PreparedRotationUsesTheFileCreatedAhead) {
  const std::string dir = TempWalDir("prepared");
  ScopedFaultInjector fi;
  auto writer = WalWriter::Open(dir, 7, WalSyncMode::kPerBatch);
  ASSERT_TRUE(writer.ok());
  (*writer)->Append(1, "a", 1);
  ASSERT_TRUE((*writer)->Commit().ok());  // syncs the file and directory
  fi->Arm(FaultSite::kWalOpen, {.count = 0});  // count opens, fail none
  (*writer)->PrepareRotation();
  (*writer)->PrepareRotation();  // already prepared: no second open
  EXPECT_TRUE(FileExists(WalPath(dir, 8)));
  EXPECT_EQ(fi->seen(FaultSite::kWalOpen), 1u);
  // The rotation itself opens nothing and, the directory entry being
  // durable already, syncs nothing.
  fi->Arm(FaultSite::kWalOpen, {.count = UINT64_MAX, .err = EMFILE});
  fi->Arm(FaultSite::kDirSync, {.count = UINT64_MAX, .err = EIO});
  ASSERT_TRUE((*writer)->Rotate().ok());
  EXPECT_EQ(fi->seen(FaultSite::kWalOpen), 0u);
  EXPECT_EQ(fi->seen(FaultSite::kDirSync), 0u);
  (*writer)->Append(1, "x", 1);
  ASSERT_TRUE((*writer)->Commit().ok());
  // A failed preparation leaves the next Rotate to open (and fail).
  (*writer)->PrepareRotation();
  EXPECT_FALSE((*writer)->Rotate().ok());
  EXPECT_EQ((*writer)->generation(), 8u);
  fi->DisarmAll();
  writer->reset();
  ASSERT_EQ(ReadAll(WalPath(dir, 8)).size(), 1u);
}

TEST(WalTest, FailedRotateKeepsAppendingToTheOldFile) {
  const std::string dir = TempWalDir("failed_rotate");
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kPerBatch);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "before", 6);
    ASSERT_TRUE((*writer)->Commit().ok());
    {
      ScopedFaultInjector fi;
      fi->Arm(FaultSite::kWalOpen, {.count = 1, .err = EMFILE});
      EXPECT_FALSE((*writer)->Rotate().ok());
    }
    EXPECT_EQ((*writer)->generation(), 1u);
    (*writer)->Append(1, "after", 5);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  EXPECT_FALSE(FileExists(WalPath(dir, 2)));
  const auto records = ReadAll(WalPath(dir, 1));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].second, "after");
}

TEST(WalTest, GenerationFileNamesRoundTrip) {
  EXPECT_EQ(WalPath("d", 0), "d/wal.log");
  EXPECT_EQ(WalPath("d", 42), "d/wal_42.log");
  EXPECT_EQ(ParseWalFileName("wal.log"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseWalFileName("wal_42.log"), std::optional<uint64_t>(42));
  for (const char* other : {"wal_.log", "wal_0.log", "wal_4x.log",
                            "wal.log.rewrite", "MANIFEST", "seg_1.run"}) {
    EXPECT_FALSE(ParseWalFileName(other).has_value()) << other;
  }
}

TEST(WalFlushServiceTest, DrivesAllRegisteredWritersFromOneThread) {
  WalFlushService service(/*sync_interval_ms=*/1);
  constexpr int kWriters = 4;
  std::atomic<int> syncs[kWriters];
  std::vector<std::unique_ptr<WalWriter>> writers;
  for (int i = 0; i < kWriters; ++i) {
    syncs[i] = 0;
    auto w = WalWriter::Open(TempWalDir("service_" + std::to_string(i)), 1,
                             WalSyncMode::kBackground,
                             [&syncs, i] { ++syncs[i]; }, &service);
    ASSERT_TRUE(w.ok());
    writers.push_back(std::move(*w));
  }
  EXPECT_EQ(service.num_writers(), static_cast<size_t>(kWriters));
  for (auto& w : writers) {
    w->Append(1, "x", 1);
    ASSERT_TRUE(w->Commit().ok());
  }
  // Every writer gets its dirty bytes synced by the service thread.
  for (int i = 0; i < kWriters; ++i) {
    for (int spin = 0; spin < 2000 && syncs[i].load() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(syncs[i].load(), 1) << "writer " << i << " never synced";
  }
  // Destruction deregisters; the service must end the test empty.
  writers.clear();
  EXPECT_EQ(service.num_writers(), 0u);
}

TEST(WalFlushServiceTest, WriterLifecycleRacesServicePassSafely) {
  // Register/deregister writers while the service thread is mid-pass at
  // the fastest cadence: a torn pass would sync a destroyed writer
  // (crash / TSan report). Also commits concurrently from a second
  // thread, the shape a ShardedDB under load produces.
  WalFlushService service(/*sync_interval_ms=*/1);
  std::atomic<bool> stop{false};
  std::thread churn([&service, &stop] {
    int n = 0;
    while (!stop.load()) {
      auto w = WalWriter::Open(TempWalDir("churn_" + std::to_string(n++ % 3)),
                               1, WalSyncMode::kBackground, nullptr, &service);
      ASSERT_TRUE(w.ok());
      (*w)->Append(1, "y", 1);
      ASSERT_TRUE((*w)->Commit().ok());
      // Destructor deregisters mid-flight against the service pass.
    }
  });
  auto steady = WalWriter::Open(TempWalDir("churn_steady"), 1,
                                WalSyncMode::kBackground, nullptr, &service);
  ASSERT_TRUE(steady.ok());
  for (int i = 0; i < 200; ++i) {
    (*steady)->Append(1, "z", 1);
    ASSERT_TRUE((*steady)->Commit().ok());
  }
  stop = true;
  churn.join();
  steady->reset();
  EXPECT_EQ(service.num_writers(), 0u);
}

TEST(WalTest, BackgroundModeSyncsEventually) {
  const std::string dir = TempWalDir("background");
  const std::string path = WalPath(dir, 1);
  WalFlushService service(/*sync_interval_ms=*/1);
  std::atomic<int> syncs{0};
  {
    auto writer = WalWriter::Open(dir, 1, WalSyncMode::kBackground,
                                  [&syncs] { ++syncs; }, &service);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "payload", 7);
    ASSERT_TRUE((*writer)->Commit().ok());
    // Clean close always flushes + syncs, whatever the service did.
  }
  EXPECT_GE(syncs.load(), 1);
  const auto records = ReadAll(path);
  ASSERT_EQ(records.size(), 1u);
}

TEST(WalTest, BackgroundModeRequiresAFlushService) {
  const auto writer =
      WalWriter::Open(TempWalDir("no_service"), 1, WalSyncMode::kBackground);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace endure
