// WalWriter/WalReader unit tests: framing round-trips, group commit,
// torn-tail and corruption tolerance (replay must stop at the last intact
// record, never abort), append-across-reopen, and the crash-simulation
// Abandon() hook the recovery suites build on.

#include "util/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"

namespace endure {
namespace {

std::string TempWalPath(const std::string& name) {
  const std::string path = "/tmp/endure_wal_test_" + name + ".log";
  std::remove(path.c_str());
  return path;
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

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(WalTest, RoundTripsTypedRecords) {
  const std::string path = TempWalPath("roundtrip");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kNone);
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
  const auto records = ReadAll(TempWalPath("missing"));
  EXPECT_TRUE(records.empty());
}

TEST(WalTest, GroupCommitWritesOnce) {
  const std::string path = TempWalPath("group");
  auto writer = WalWriter::Open(path, WalSyncMode::kNone);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) (*writer)->Append(1, "x", 1);
  EXPECT_EQ((*writer)->bytes_committed(), 0u);  // staged only
  ASSERT_TRUE((*writer)->Commit().ok());
  // 10 records of 9-byte header + 1-byte payload, in one commit.
  EXPECT_EQ((*writer)->bytes_committed(), 10u * 10u);
}

TEST(WalTest, AppendsAcrossReopen) {
  const std::string path = TempWalPath("reopen");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kPerBatch);
    ASSERT_TRUE(writer.ok());
    (*writer)->Append(1, "first", 5);
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kPerBatch);
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
  const std::string path = TempWalPath("torn");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kNone);
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
  const std::string path = TempWalPath("corrupt");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kNone);
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
  const std::string path = TempWalPath("abandon");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kNone);
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

TEST(WalTest, ReopenAfterRewritePreservesSyncStateAndAppends) {
  const std::string path = TempWalPath("rewrite");
  WalFlushService service(/*sync_interval_ms=*/1);
  std::atomic<int> syncs{0};
  auto writer = WalWriter::Open(path, WalSyncMode::kBackground,
                                [&syncs] { ++syncs; }, &service);
  ASSERT_TRUE(writer.ok());
  (*writer)->Append(1, "pre", 3);
  ASSERT_TRUE((*writer)->Commit().ok());

  // Simulate a checkpoint: write the replacement log (as the snapshot
  // writer would), fsync it, rename it over the live one, then redirect
  // the long-lived appender at it.
  const std::string tmp = path + ".rewrite";
  {
    auto snap = WalWriter::Open(tmp, WalSyncMode::kNone);
    ASSERT_TRUE(snap.ok());
    (*snap)->Append(1, "snapshot", 8);
    ASSERT_TRUE((*snap)->Commit().ok());
    ASSERT_TRUE((*snap)->Sync().ok());
    (*snap)->Abandon();
  }
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  ASSERT_TRUE((*writer)->ReopenAfterRewrite(path).ok());
  // The writer starts clean on the snapshot: no pending bytes, so the
  // flush service must not re-sync the already-durable file.
  const int syncs_after_swap = syncs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(syncs.load(), syncs_after_swap) << "idle double-sync";

  // New appends land on the renamed inode and background-sync normally.
  (*writer)->Append(2, "post", 4);
  ASSERT_TRUE((*writer)->Commit().ok());
  for (int i = 0; i < 2000 && syncs.load() == syncs_after_swap; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(syncs.load(), syncs_after_swap) << "post-rewrite sync skipped";
  writer->reset();

  const auto records = ReadAll(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].second, "snapshot");
  EXPECT_EQ(records[1].second, "post");
}

TEST(WalFlushServiceTest, DrivesAllRegisteredWritersFromOneThread) {
  WalFlushService service(/*sync_interval_ms=*/1);
  constexpr int kWriters = 4;
  std::atomic<int> syncs[kWriters];
  std::vector<std::unique_ptr<WalWriter>> writers;
  for (int i = 0; i < kWriters; ++i) {
    syncs[i] = 0;
    auto w = WalWriter::Open(TempWalPath("service_" + std::to_string(i)),
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
      auto w = WalWriter::Open(TempWalPath("churn_" + std::to_string(n++ % 3)),
                               WalSyncMode::kBackground, nullptr, &service);
      ASSERT_TRUE(w.ok());
      (*w)->Append(1, "y", 1);
      ASSERT_TRUE((*w)->Commit().ok());
      // Destructor deregisters mid-flight against the service pass.
    }
  });
  auto steady = WalWriter::Open(TempWalPath("churn_steady"),
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
  const std::string path = TempWalPath("background");
  WalFlushService service(/*sync_interval_ms=*/1);
  std::atomic<int> syncs{0};
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kBackground,
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
      WalWriter::Open(TempWalPath("no_service"), WalSyncMode::kBackground);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace endure
