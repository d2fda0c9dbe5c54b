#include "lsm/page_store.h"

#include <gtest/gtest.h>

#include <cerrno>

#include "lsm/compaction.h"
#include "lsm/options.h"
#include "lsm/run.h"
#include "lsm/run_builder.h"
#include "util/fault_injection.h"

namespace endure::lsm {
namespace {

std::vector<Entry> MakeEntries(int n) {
  std::vector<Entry> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Entry{static_cast<Key>(i * 2), static_cast<SeqNum>(i),
                        static_cast<Value>(i * 100),
                        i % 7 == 0 ? EntryType::kTombstone
                                   : EntryType::kValue});
  }
  return out;
}

template <typename StoreFactory>
void RunStoreContractTests(StoreFactory make_store) {
  Statistics stats;
  auto store = make_store(&stats);

  const std::vector<Entry> entries = MakeEntries(10);  // B=4 -> 3 pages
  const SegmentId seg =
      store->WriteSegment(entries, IoContext::kFlush).value();
  EXPECT_EQ(store->NumPages(seg), 3u);
  EXPECT_EQ(store->NumEntries(seg), 10u);
  EXPECT_EQ(stats.pages_written, 3u);
  EXPECT_EQ(stats.flush_pages_written, 3u);

  PageBuffer page;
  store->ReadPage(seg, 0, IoContext::kPointQuery, &page);
  ASSERT_EQ(page.size(), 4u);
  EXPECT_EQ(page[0].key, 0u);
  EXPECT_EQ(page[3].key, 6u);
  EXPECT_EQ(page[0].type, EntryType::kTombstone);
  EXPECT_EQ(page[1].type, EntryType::kValue);
  EXPECT_EQ(stats.pages_read, 1u);
  EXPECT_EQ(stats.point_pages_read, 1u);

  // Last (partial) page has 2 entries.
  store->ReadPage(seg, 2, IoContext::kRangeQuery, &page);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[1].key, 18u);
  EXPECT_EQ(page[1].value, 900u);
  EXPECT_EQ(stats.range_pages_read, 1u);

  // A second segment coexists.
  const SegmentId seg2 =
      store->WriteSegment(MakeEntries(4), IoContext::kCompaction).value();
  EXPECT_NE(seg, seg2);
  EXPECT_EQ(store->NumPages(seg2), 1u);
  EXPECT_EQ(stats.compaction_pages_written, 1u);

  store->FreeSegment(seg);
  store->ReadPage(seg2, 0, IoContext::kCompaction, &page);
  EXPECT_EQ(page.size(), 4u);
  EXPECT_EQ(stats.compaction_pages_read, 1u);
}

template <typename StoreFactory>
void RunSegmentWriterContractTests(StoreFactory make_store) {
  Statistics stats;
  auto store = make_store(&stats);
  const std::vector<Entry> entries = MakeEntries(10);  // B=4 -> 3 pages

  // Streaming write: pages are counted as they are appended, before Seal.
  auto writer = store->NewSegmentWriter(IoContext::kCompaction);
  EXPECT_EQ(stats.pages_written, 0u);
  ASSERT_TRUE(writer->AppendPage(entries.data(), 4).ok());
  ASSERT_TRUE(writer->AppendPage(entries.data() + 4, 4).ok());
  EXPECT_EQ(stats.compaction_pages_written, 2u);
  ASSERT_TRUE(writer->AppendPage(entries.data() + 8, 2).ok());  // partial
  const SegmentId seg = writer->Seal().value();
  EXPECT_EQ(stats.compaction_pages_written, 3u);
  EXPECT_EQ(store->NumPages(seg), 3u);
  EXPECT_EQ(store->NumEntries(seg), 10u);

  // Round trip, including the partial page.
  PageBuffer page;
  store->ReadPage(seg, 2, IoContext::kPointQuery, &page);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].key, 16u);
  EXPECT_EQ(page[1].key, 18u);

  // An abandoned writer (destroyed unsealed) leaves no readable segment
  // but keeps its page writes counted: the device I/O happened.
  {
    auto abandoned = store->NewSegmentWriter(IoContext::kFlush);
    ASSERT_TRUE(abandoned->AppendPage(entries.data(), 4).ok());
  }
  EXPECT_EQ(stats.flush_pages_written, 1u);
  // The sealed segment is still intact.
  EXPECT_EQ(store->NumEntries(seg), 10u);
}

void ExpectSameEntries(const std::vector<Entry>& got,
                       const std::vector<Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << i;
    ASSERT_EQ(got[i].value, want[i].value) << i;
    ASSERT_EQ(got[i].type, want[i].type) << i;
  }
}

/// Segments whose page counts sit on either side of the file backend's
/// extent (37 pages at B = 4), with a full and with a partial last page,
/// written through a SegmentWriter and read back twice: once in order
/// through one ReadWindow bounded by the last page, once page by page.
/// Contents and page counts must be exact either way.
template <typename StoreFactory>
void RunExtentBoundaryRoundTrips(StoreFactory make_store) {
  for (const size_t pages : {1, 36, 37, 38, 112}) {
    for (const bool partial : {false, true}) {
      SCOPED_TRACE(::testing::Message() << pages << " pages, partial "
                                        << partial);
      Statistics stats;
      auto store = make_store(&stats);
      const std::vector<Entry> entries =
          MakeEntries(static_cast<int>(4 * pages - (partial ? 1 : 0)));
      const SegmentId seg =
          store->WriteSegment(entries, IoContext::kFlush).value();
      ASSERT_EQ(store->NumPages(seg), pages);
      EXPECT_EQ(stats.pages_written, pages);
      EXPECT_EQ(stats.flush_pages_written, pages);

      PageBuffer scratch;
      ReadWindow window;
      std::vector<Entry> in_order;
      for (size_t p = 0; p < pages; ++p) {
        const StatusOr<PageView> view = store->ReadPageView(
            seg, p, pages - 1, IoContext::kCompaction, &scratch, &window);
        ASSERT_TRUE(view.ok()) << view.status().message();
        in_order.insert(in_order.end(), view->begin(), view->end());
      }
      ExpectSameEntries(in_order, entries);
      EXPECT_EQ(stats.pages_read, pages);
      EXPECT_EQ(stats.compaction_pages_read, pages);

      std::vector<Entry> one_by_one;
      PageBuffer page;
      for (size_t p = 0; p < pages; ++p) {
        ASSERT_TRUE(store->ReadPage(seg, p, IoContext::kPointQuery, &page)
                        .ok());
        one_by_one.insert(one_by_one.end(), page.begin(), page.end());
      }
      ExpectSameEntries(one_by_one, entries);
      EXPECT_EQ(stats.point_pages_read, pages);
      EXPECT_EQ(stats.pages_read, 2 * pages);
    }
  }
}

TEST(MemPageStoreTest, Contract) {
  RunStoreContractTests([](Statistics* stats) {
    return std::make_unique<MemPageStore>(4, stats);
  });
}

TEST(MemPageStoreTest, SegmentWriterContract) {
  RunSegmentWriterContractTests([](Statistics* stats) {
    return std::make_unique<MemPageStore>(4, stats);
  });
}

TEST(FilePageStoreTest, Contract) {
  RunStoreContractTests([](Statistics* stats) {
    return std::make_unique<FilePageStore>(4, stats,
                                           "/tmp/endure_test_store");
  });
}

TEST(FilePageStoreTest, SegmentWriterContract) {
  RunSegmentWriterContractTests([](Statistics* stats) {
    return std::make_unique<FilePageStore>(4, stats,
                                           "/tmp/endure_test_store");
  });
}

TEST(MemPageStoreTest, ExtentBoundarySegmentsRoundTrip) {
  RunExtentBoundaryRoundTrips([](Statistics* stats) {
    return std::make_unique<MemPageStore>(4, stats);
  });
}

TEST(FilePageStoreTest, ExtentBoundarySegmentsRoundTrip) {
  RunExtentBoundaryRoundTrips([](Statistics* stats) {
    return std::make_unique<FilePageStore>(4, stats,
                                           "/tmp/endure_test_store");
  });
}

TEST(FilePageStoreTest, RoundTripsEntryEncoding) {
  Statistics stats;
  FilePageStore store(2, &stats, "/tmp/endure_test_store2");
  std::vector<Entry> in{
      Entry{0xDEADBEEFCAFEBABEull, 42, 0x0123456789ABCDEFull,
            EntryType::kValue},
      Entry{1, 2, 3, EntryType::kTombstone}};
  const SegmentId seg =
      store.WriteSegment(in, IoContext::kBulkLoad).value();
  PageBuffer out;
  store.ReadPage(seg, 0, IoContext::kPointQuery, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, in[0].key);
  EXPECT_EQ(out[0].seq, in[0].seq);
  EXPECT_EQ(out[0].value, in[0].value);
  EXPECT_EQ(out[0].type, in[0].type);
  EXPECT_EQ(out[1].type, EntryType::kTombstone);
}

// Inside a gtest fixture, `Run` names testing::Test::Run.
using RunPtr = std::shared_ptr<Run>;
using RunIterator = Run::Iterator;

/// Injected segment faults against the file backend's extent I/O: a
/// fault keeps its per-page meaning even though pages move to and from
/// the file an extent (37 pages at B = 4) at a time.
class PageStoreFaultInjectionTest : public ::testing::Test {
 protected:
  PageStoreFaultInjectionTest()
      : store_(4, &stats_, "/tmp/endure_test_store_faults") {}

  /// A run of `pages` full pages with keys 0, 1, 2, ...
  RunPtr MakeRun(size_t pages) {
    std::vector<Entry> entries;
    for (Key k = 0; k < 4 * pages; ++k) {
      entries.push_back(Entry{k, 1, k + 100, EntryType::kValue});
    }
    return BuildRun(&store_, entries, 10.0, IoContext::kBulkLoad).value();
  }

  Statistics stats_;
  FilePageStore store_;
};

TEST_F(PageStoreFaultInjectionTest, EveryPageAScanReachesConsultsTheReadSite) {
  const RunPtr run = MakeRun(112);
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentRead, {.skip = UINT64_MAX});  // counts only
  std::optional<RunIterator> it = run->NewRangeIterator(0, 4 * 112);
  ASSERT_TRUE(it.has_value());
  size_t entries = 0;
  for (; it->Valid(); it->Next()) ++entries;
  ASSERT_TRUE(it->status().ok()) << it->status().message();
  EXPECT_EQ(entries, 4u * 112);
  EXPECT_EQ(stats_.range_pages_read, 112u);
  EXPECT_EQ(fi->seen(FaultSite::kSegmentRead), 112u);
}

TEST_F(PageStoreFaultInjectionTest, ScanFailsAtExactlyTheFaultedPage) {
  const RunPtr run = MakeRun(112);
  for (const uint64_t k : {0, 1, 20, 36, 37, 38, 100, 111}) {
    SCOPED_TRACE(k);
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentRead, {.skip = k, .err = EIO});
    const uint64_t before = stats_.range_pages_read;
    std::optional<RunIterator> it = run->NewRangeIterator(0, 4 * 112);
    ASSERT_TRUE(it.has_value());
    size_t entries = 0;
    for (; it->Valid(); it->Next()) ++entries;
    // k clean pages are served and counted, then the (k+1)-th page fails
    // with the injected error — whether it sat in the window already or
    // needed a refill.
    EXPECT_EQ(it->status().code(), StatusCode::kIOError);
    EXPECT_NE(it->status().message().find("[injected]"), std::string::npos);
    EXPECT_EQ(entries, 4 * k);
    EXPECT_EQ(stats_.range_pages_read - before, k);
    EXPECT_EQ(fi->seen(FaultSite::kSegmentRead), k + 1);
    EXPECT_EQ(fi->fired(FaultSite::kSegmentRead), 1u);
  }
}

TEST_F(PageStoreFaultInjectionTest, CompactionFailsAtExactlyTheFaultedPage) {
  // A one-input merge (a bottom-level rewrite) reads its input in order,
  // so the faulted page is exactly the (k+1)-th page the merge reads.
  const RunPtr run = MakeRun(112);
  for (const uint64_t k : {0, 20, 37, 74, 111}) {
    SCOPED_TRACE(k);
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentRead, {.skip = k, .err = EIO});
    const uint64_t before = stats_.compaction_pages_read;
    const StatusOr<RunPtr> merged =
        MergeRuns(&store_, {run}, 10.0, /*drop_tombstones=*/true);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kIOError);
    EXPECT_EQ(stats_.compaction_pages_read - before, k);
    EXPECT_EQ(fi->seen(FaultSite::kSegmentRead), k + 1);
  }
  // The input is untouched: a clean merge afterwards reads all of it.
  const uint64_t before = stats_.compaction_pages_read;
  const StatusOr<RunPtr> merged =
      MergeRuns(&store_, {run}, 10.0, /*drop_tombstones=*/true);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ((*merged)->num_entries(), 4u * 112);
  EXPECT_EQ(stats_.compaction_pages_read - before, 112u);
}

TEST_F(PageStoreFaultInjectionTest, TornPageStagedBetweenCleanPagesFailsAlone) {
  // Page 20 tears silently while pages 0..19 sit staged in the writer's
  // extent buffer: the staged pages are written first, the torn page
  // alone behind them, and the rest of the segment after it. Only page
  // 20 fails its checksum; its neighbours — some read in the same extent
  // — verify.
  const std::vector<Entry> entries = MakeEntries(4 * 64);
  SegmentId seg;
  {
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentWrite, {.skip = 20, .short_io = true});
    seg = store_.WriteSegment(entries, IoContext::kFlush).value();
    EXPECT_EQ(fi->seen(FaultSite::kSegmentWrite), 64u);
    EXPECT_EQ(fi->fired(FaultSite::kSegmentWrite), 1u);
  }
  EXPECT_EQ(stats_.flush_pages_written, 64u);
  PageBuffer scratch;
  ReadWindow window;
  for (size_t p = 0; p < 64; ++p) {
    const StatusOr<PageView> view = store_.ReadPageView(
        seg, p, 63, IoContext::kCompaction, &scratch, &window);
    if (p == 20) {
      ASSERT_FALSE(view.ok());
      EXPECT_EQ(view.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(view.ok()) << p << ": " << view.status().message();
    ASSERT_EQ(view->size, 4u);
    EXPECT_EQ((*view)[0].key, entries[4 * p].key) << p;
  }
  EXPECT_EQ(stats_.checksum_failures, 1u);
  EXPECT_EQ(stats_.compaction_pages_read, 63u);
}

TEST_F(PageStoreFaultInjectionTest, FailedPageWriteAfterStagedPagesKeepsThem) {
  // An injected write error on page 40, behind a full extent already
  // written and three pages staged, is returned by that page's
  // AppendPage; the 40 pages accepted before it stay counted although
  // the segment is abandoned.
  const std::vector<Entry> entries = MakeEntries(4 * 64);
  auto writer = store_.NewSegmentWriter(IoContext::kCompaction);
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.skip = 40, .err = ENOSPC});
  Status failed;
  size_t accepted = 0;
  for (; accepted < 64; ++accepted) {
    failed = writer->AppendPage(entries.data() + 4 * accepted, 4);
    if (!failed.ok()) break;
  }
  EXPECT_EQ(accepted, 40u);
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_NE(failed.message().find("[injected]"), std::string::npos);
  EXPECT_EQ(stats_.compaction_pages_written, 40u);
}

TEST(PageBufferTest, ReserveIsIdempotentAndKeepsCapacity) {
  PageBuffer buf(8);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.size(), 0u);
  buf.data()[0] = Entry{7, 1, 70, EntryType::kValue};
  buf.set_size(1);
  buf.Reserve(4);  // smaller: no-op, contents kept
  EXPECT_EQ(buf.capacity(), 8u);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].key, 7u);
}

TEST(MakePageStoreTest, FactorySelectsBackend) {
  Statistics stats;
  auto mem = MakePageStore(4, &stats,
                           static_cast<int>(StorageBackend::kMemory), "");
  EXPECT_NE(dynamic_cast<MemPageStore*>(mem.get()), nullptr);
  auto file = MakePageStore(4, &stats,
                            static_cast<int>(StorageBackend::kFile),
                            "/tmp/endure_test_store3");
  EXPECT_NE(dynamic_cast<FilePageStore*>(file.get()), nullptr);
}

TEST(StatisticsTest, DeltaSubtractsAllCounters) {
  Statistics a;
  a.pages_read = 10;
  a.gets = 5;
  a.compaction_pages_written = 7;
  Statistics b = a;
  b.pages_read = 25;
  b.gets = 9;
  b.compaction_pages_written = 11;
  const Statistics d = b.Delta(a);
  EXPECT_EQ(d.pages_read, 15u);
  EXPECT_EQ(d.gets, 4u);
  EXPECT_EQ(d.compaction_pages_written, 4u);
  EXPECT_EQ(d.writes, 0u);
}

TEST(StatisticsTest, ToStringContainsCounters) {
  Statistics s;
  s.pages_read = 123;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("pages_read=123"), std::string::npos);
}

}  // namespace
}  // namespace endure::lsm
