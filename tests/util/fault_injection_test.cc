// Unit tests for the failpoint facility itself (skip/count schedules,
// permanent faults, fired/seen accounting, install/uninstall) plus the
// WriteFileAtomic temp-file hygiene regression: a fault at any stage of
// the write/fsync/rename sequence must not strand `<path>.tmp` for
// recovery scans to trip over.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "util/env.h"

namespace endure {
namespace {

TEST(FaultInjectionTest, NoInjectorMeansNoFault) {
  ASSERT_EQ(FaultInjector::Current(), nullptr);
  const FaultOutcome outcome = CheckFault(FaultSite::kSegmentWrite);
  EXPECT_FALSE(outcome.fires());
  EXPECT_EQ(outcome.err, 0);
}

TEST(FaultInjectionTest, UnarmedSiteLetsOperationsThrough) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kWalWrite, {.err = EIO});
  EXPECT_FALSE(CheckFault(FaultSite::kSegmentWrite).fires());
  EXPECT_TRUE(CheckFault(FaultSite::kWalWrite).fires());
}

TEST(FaultInjectionTest, SkipThenFireThenClear) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.skip = 2, .count = 3, .err = ENOSPC});
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(CheckFault(FaultSite::kSegmentWrite).fires()) << i;
  }
  for (int i = 0; i < 3; ++i) {
    const FaultOutcome outcome = CheckFault(FaultSite::kSegmentWrite);
    EXPECT_EQ(outcome.err, ENOSPC) << i;
  }
  // The schedule is exhausted: the site behaves healthy again.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(CheckFault(FaultSite::kSegmentWrite).fires()) << i;
  }
  EXPECT_EQ(fi->fired(FaultSite::kSegmentWrite), 3u);
  EXPECT_EQ(fi->seen(FaultSite::kSegmentWrite), 10u);
}

TEST(FaultInjectionTest, PermanentFaultFiresUntilDisarmed) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kWalFsync, {.count = UINT64_MAX, .err = EIO});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(CheckFault(FaultSite::kWalFsync).err, EIO) << i;
  }
  fi->Disarm(FaultSite::kWalFsync);
  EXPECT_FALSE(CheckFault(FaultSite::kWalFsync).fires());
  EXPECT_EQ(fi->fired(FaultSite::kWalFsync), 100u);
}

TEST(FaultInjectionTest, SilentFaultsCarryNoErrno) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.short_io = true});
  fi->Arm(FaultSite::kSegmentRead, {.corrupt = true});
  const FaultOutcome tear = CheckFault(FaultSite::kSegmentWrite);
  EXPECT_TRUE(tear.fires());
  EXPECT_TRUE(tear.short_io);
  EXPECT_EQ(tear.err, 0);
  const FaultOutcome rot = CheckFault(FaultSite::kSegmentRead);
  EXPECT_TRUE(rot.fires());
  EXPECT_TRUE(rot.corrupt);
  EXPECT_EQ(rot.err, 0);
}

TEST(FaultInjectionTest, RearmResetsTheCounter) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kFileWrite, {.skip = 1, .err = EIO});
  EXPECT_FALSE(CheckFault(FaultSite::kFileWrite).fires());
  fi->Arm(FaultSite::kFileWrite, {.skip = 1, .err = EIO});
  // The skip starts over after the rearm.
  EXPECT_FALSE(CheckFault(FaultSite::kFileWrite).fires());
  EXPECT_TRUE(CheckFault(FaultSite::kFileWrite).fires());
}

TEST(FaultInjectionTest, DisarmAllClearsEverySite) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.count = UINT64_MAX, .err = EIO});
  fi->Arm(FaultSite::kWalWrite, {.count = UINT64_MAX, .err = EIO});
  fi->DisarmAll();
  EXPECT_FALSE(CheckFault(FaultSite::kSegmentWrite).fires());
  EXPECT_FALSE(CheckFault(FaultSite::kWalWrite).fires());
}

TEST(FaultInjectionTest, ScopedInstallUninstallsOnExit) {
  {
    ScopedFaultInjector fi;
    EXPECT_EQ(FaultInjector::Current(), &*fi);
  }
  EXPECT_EQ(FaultInjector::Current(), nullptr);
}

TEST(FaultInjectionTest, SiteNamesAreDistinct) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    for (size_t j = i + 1; j < kNumFaultSites; ++j) {
      EXPECT_STRNE(FaultSiteName(static_cast<FaultSite>(i)),
                   FaultSiteName(static_cast<FaultSite>(j)));
    }
  }
}

// ------------------------- WriteFileAtomic temp hygiene regression -------

class WriteFileAtomicFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs these cases as concurrent
    // processes, and a shared directory let one case's remove_all race
    // another's files.
    dir_ = std::string("/tmp/endure_fault_injection_test_atomic_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDir(dir_).ok());
    path_ = dir_ + "/target";
    tmp_ = path_ + ".tmp";
  }

  std::string dir_;
  std::string path_;
  std::string tmp_;
};

TEST_F(WriteFileAtomicFaultTest, FailedWriteLeavesNoTempFile) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kFileWrite, {.err = ENOSPC});
  const Status s = WriteFileAtomic(path_, "payload");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(FileExists(tmp_));
  EXPECT_FALSE(FileExists(path_));
}

TEST_F(WriteFileAtomicFaultTest, FailedFsyncLeavesNoTempFile) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kFileFsync, {.err = EIO});
  const Status s = WriteFileAtomic(path_, "payload");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(FileExists(tmp_));
  EXPECT_FALSE(FileExists(path_));
}

TEST_F(WriteFileAtomicFaultTest, FailedRenameLeavesNoTempFile) {
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kFileRename, {.err = EIO});
  const Status s = WriteFileAtomic(path_, "payload");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(FileExists(tmp_));
  EXPECT_FALSE(FileExists(path_));
}

TEST_F(WriteFileAtomicFaultTest, FailurePreservesThePreviousContents) {
  ASSERT_TRUE(WriteFileAtomic(path_, "old contents").ok());
  {
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kFileRename, {.err = EIO});
    EXPECT_FALSE(WriteFileAtomic(path_, "new contents").ok());
  }
  auto read = ReadFileToString(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "old contents");
  EXPECT_FALSE(FileExists(tmp_));
  // With the fault cleared the same publish succeeds.
  ASSERT_TRUE(WriteFileAtomic(path_, "new contents").ok());
  read = ReadFileToString(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new contents");
}

}  // namespace
}  // namespace endure
