// Unit tests for hfad_storage: block devices, buddy allocator, pager, superblock.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/coding.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/checksums.h"
#include "src/storage/pager.h"
#include "src/storage/superblock.h"

namespace hfad {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;
// Allocator regions never start at 0: offset 0 is the superblock in a real volume.
constexpr uint64_t kBase = 4096;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("hfad_storage_test_" + name)).string();
}

// ---------------------------------------------------------------- MemoryBlockDevice

TEST(MemoryBlockDeviceTest, WriteReadRoundTrip) {
  MemoryBlockDevice dev(kMiB);
  EXPECT_EQ(dev.Size(), kMiB);
  ASSERT_TRUE(dev.Write(4096, Slice("hello")).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(4096, 5, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST(MemoryBlockDeviceTest, FreshDeviceReadsZeros) {
  MemoryBlockDevice dev(8192);
  std::string out;
  ASSERT_TRUE(dev.Read(0, 16, &out).ok());
  EXPECT_EQ(out, std::string(16, '\0'));
}

TEST(MemoryBlockDeviceTest, OutOfBoundsRejected) {
  MemoryBlockDevice dev(8192);
  std::string out;
  EXPECT_FALSE(dev.Read(8192, 1, &out).ok());
  EXPECT_FALSE(dev.Read(8190, 4, &out).ok());
  EXPECT_FALSE(dev.Write(8192, Slice("x")).ok());
  EXPECT_FALSE(dev.Write(8190, Slice("abcd")).ok());
  // Exactly at the boundary is fine.
  EXPECT_TRUE(dev.Write(8188, Slice("abcd")).ok());
  EXPECT_TRUE(dev.Read(8188, 4, &out).ok());
}

TEST(MemoryBlockDeviceTest, OverlappingWritesLastWins) {
  MemoryBlockDevice dev(8192);
  ASSERT_TRUE(dev.Write(0, Slice("aaaaaaaa")).ok());
  ASSERT_TRUE(dev.Write(4, Slice("bbbb")).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(0, 8, &out).ok());
  EXPECT_EQ(out, "aaaabbbb");
}

// ---------------------------------------------------------------- FileBlockDevice

TEST(FileBlockDeviceTest, PersistsAcrossReopen) {
  std::string path = TempPath("persist");
  std::filesystem::remove(path);
  {
    auto dev = FileBlockDevice::Open(path, kMiB);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    ASSERT_TRUE((*dev)->Write(4096, Slice("durable data")).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    auto dev = FileBlockDevice::Open(path, kMiB);
    ASSERT_TRUE(dev.ok());
    std::string out;
    ASSERT_TRUE((*dev)->Read(4096, 12, &out).ok());
    EXPECT_EQ(out, "durable data");
  }
  std::filesystem::remove(path);
}

TEST(FileBlockDeviceTest, RespectsCapacity) {
  std::string path = TempPath("capacity");
  std::filesystem::remove(path);
  auto dev = FileBlockDevice::Open(path, 8192);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->Size(), 8192u);
  EXPECT_FALSE((*dev)->Write(8192, Slice("x")).ok());
  std::string out;
  EXPECT_FALSE((*dev)->Read(8192, 1, &out).ok());
  std::filesystem::remove(path);
}

// Reopening a persisted volume with a smaller capacity must refuse, not truncate the
// file and silently drop its tail.
TEST(FileBlockDeviceTest, ReopenAtSmallerSizeRefusesAndKeepsTheTail) {
  std::string path = TempPath("no_shrink");
  std::filesystem::remove(path);
  const uint64_t tail = kMiB - 4096;
  {
    auto dev = FileBlockDevice::Open(path, kMiB);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    ASSERT_TRUE((*dev)->Write(tail, Slice("tail bytes")).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    auto dev = FileBlockDevice::Open(path, 8192);
    ASSERT_FALSE(dev.ok());
    EXPECT_EQ(dev.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(dev.status().ToString().find(std::to_string(kMiB)), std::string::npos);
    EXPECT_NE(dev.status().ToString().find("8192"), std::string::npos);
  }
  EXPECT_EQ(std::filesystem::file_size(path), kMiB);
  {
    auto dev = FileBlockDevice::Open(path, kMiB);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    std::string out;
    ASSERT_TRUE((*dev)->Read(tail, 10, &out).ok());
    EXPECT_EQ(out, "tail bytes");
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- FaultyBlockDevice

TEST(FaultyBlockDeviceTest, UnlimitedByDefault) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(dev.Write(0, Slice("x")).ok());
  }
  EXPECT_EQ(dev.writes_attempted(), 100u);
}

TEST(FaultyBlockDeviceTest, BudgetExhaustionFailsWrites) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  dev.SetWriteBudget(3);
  EXPECT_TRUE(dev.Write(0, Slice("a")).ok());
  EXPECT_TRUE(dev.Write(1, Slice("b")).ok());
  EXPECT_TRUE(dev.Write(2, Slice("c")).ok());
  EXPECT_FALSE(dev.Write(3, Slice("d")).ok());
  EXPECT_FALSE(dev.Write(4, Slice("e")).ok());
  // Reads still succeed after write failures.
  std::string out;
  EXPECT_TRUE(dev.Read(0, 3, &out).ok());
  EXPECT_EQ(out, "abc");
}

TEST(FaultyBlockDeviceTest, TornWritePersistsOnlyPrefix) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  dev.SetWriteBudget(0);
  dev.EnableTornWrites(true);
  std::string payload(256, 'Z');
  EXPECT_FALSE(dev.Write(0, Slice(payload)).ok());
  std::string out;
  ASSERT_TRUE(base->Read(0, 256, &out).ok());
  // Some (possibly zero-length) prefix of Z's, then untouched zeros — never all Z's.
  size_t z_run = 0;
  while (z_run < out.size() && out[z_run] == 'Z') {
    z_run++;
  }
  EXPECT_LT(z_run, 256u);
  for (size_t i = z_run; i < out.size(); i++) {
    EXPECT_EQ(out[i], '\0') << "byte " << i << " written past the torn prefix";
  }
}

// ---------------------------------------------------------------- WriteBatch

// Out-of-order adjacent extents coalesce into one device run; the gap starts another.
TEST(WriteBatchTest, MemoryCoalescesSortedAdjacentExtents) {
  MemoryBlockDevice dev(kMiB);
  stats::ResetAll();
  std::vector<WriteExtent> batch = {
      {4, Slice("45")}, {0, Slice("0123")}, {6, Slice("6789")}, {100, Slice("far")}};
  ASSERT_TRUE(dev.WriteBatch(std::move(batch)).ok());
  EXPECT_EQ(stats::Get(stats::Counter::kDeviceWriteBatches), 1u);
  EXPECT_EQ(stats::Get(stats::Counter::kDeviceBatchRuns), 2u);  // [0,10) and [100,103).
  std::string out;
  ASSERT_TRUE(dev.Read(0, 10, &out).ok());
  EXPECT_EQ(out, "0123456789");
  ASSERT_TRUE(dev.Read(100, 3, &out).ok());
  EXPECT_EQ(out, "far");
}

TEST(WriteBatchTest, FileDeviceAssemblesRunsWithPwritev) {
  std::string path = TempPath("writebatch");
  std::remove(path.c_str());
  auto dev = FileBlockDevice::Open(path, kMiB);
  ASSERT_TRUE(dev.ok());
  std::vector<WriteExtent> batch = {
      {8192, Slice("tail")}, {4096, Slice("head")}, {4100, Slice("-mid-")}};
  ASSERT_TRUE((*dev)->WriteBatch(std::move(batch)).ok());
  ASSERT_TRUE((*dev)->Sync().ok());
  std::string out;
  ASSERT_TRUE((*dev)->Read(4096, 9, &out).ok());
  EXPECT_EQ(out, "head-mid-");
  ASSERT_TRUE((*dev)->Read(8192, 4, &out).ok());
  EXPECT_EQ(out, "tail");
  std::remove(path.c_str());
}

// A single coalesced run with more parts than IOV_MAX (1024 on Linux) must span
// multiple pwritev windows without losing or misplacing a byte — regression test for
// the window-offset bug where window 2+ wrote past the end of the run.
TEST(WriteBatchTest, FileDeviceRunsLargerThanIovMax) {
  std::string path = TempPath("writebatch_iovmax");
  std::remove(path.c_str());
  auto dev = FileBlockDevice::Open(path, kMiB);
  ASSERT_TRUE(dev.ok());
  constexpr size_t kParts = 1030;  // > IOV_MAX, 3 bytes each, all adjacent: one run.
  std::vector<std::string> bufs;
  bufs.reserve(kParts);
  std::vector<WriteExtent> batch;
  std::string expect;
  for (size_t i = 0; i < kParts; i++) {
    bufs.push_back(std::string(1, static_cast<char>('a' + (i % 26))) +
                   std::string(2, static_cast<char>('0' + (i % 10))));
    batch.push_back(WriteExtent{kPageSize + 3 * i, Slice(bufs.back())});
    expect += bufs.back();
  }
  ASSERT_TRUE((*dev)->WriteBatch(std::move(batch)).ok());
  std::string out;
  ASSERT_TRUE((*dev)->Read(kPageSize, expect.size(), &out).ok());
  EXPECT_EQ(out, expect);
  // Nothing leaked past the end of the run.
  ASSERT_TRUE((*dev)->Read(kPageSize + expect.size(), 64, &out).ok());
  EXPECT_EQ(out, std::string(64, '\0'));
  std::remove(path.c_str());
}

TEST(WriteBatchTest, EmptyAndSingleExtentBatches) {
  MemoryBlockDevice dev(kMiB);
  ASSERT_TRUE(dev.WriteBatch({}).ok());
  ASSERT_TRUE(dev.WriteBatch({{64, Slice("one")}}).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(64, 3, &out).ok());
  EXPECT_EQ(out, "one");
}

// Each coalesced run consumes one write-budget unit, so a batch can crash between runs
// (first run durable, second torn, third lost) — the torn-batch crash shape the journal
// watermark and checkpoint recovery are tested against.
TEST(WriteBatchTest, FaultyDeviceTearsMidBatch) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  dev.SetWriteBudget(1);
  dev.EnableTornWrites(true);
  std::vector<WriteExtent> batch = {
      {0, Slice("AAAA")}, {8192, Slice("BBBB")}, {16384, Slice("CCCC")}};
  EXPECT_FALSE(dev.WriteBatch(std::move(batch)).ok());
  std::string out;
  ASSERT_TRUE(base->Read(0, 4, &out).ok());
  EXPECT_EQ(out, "AAAA");  // First run: within budget.
  ASSERT_TRUE(base->Read(8192, 4, &out).ok());
  EXPECT_EQ(out, std::string("BB") + std::string(2, '\0'));  // Second run: torn in half.
  ASSERT_TRUE(base->Read(16384, 4, &out).ok());
  EXPECT_EQ(out, std::string(4, '\0'));  // Third run: never attempted (batch aborts).
  EXPECT_EQ(dev.writes_attempted(), 2u);
}

// ---------------------------------------------------------------- BuddyAllocator

TEST(BuddyAllocatorTest, AllocateRoundsUpToPowerOfTwo) {
  BuddyAllocator alloc(kBase, kMiB);
  auto e = alloc.Allocate(1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->length, BuddyAllocator::kMinBlockSize);
  auto e2 = alloc.Allocate(4097);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->length, 8192u);
  auto e3 = alloc.Allocate(65536);
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3->length, 65536u);
}

TEST(BuddyAllocatorTest, DistinctAllocationsDoNotOverlap) {
  BuddyAllocator alloc(kBase, kMiB);
  std::vector<BuddyAllocator::Extent> extents;
  Random rng(17);
  for (int i = 0; i < 50; i++) {
    auto e = alloc.Allocate(rng.Range(1, 16384));
    ASSERT_TRUE(e.ok());
    extents.push_back(*e);
  }
  std::sort(extents.begin(), extents.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  for (size_t i = 1; i < extents.size(); i++) {
    EXPECT_GE(extents[i].offset, extents[i - 1].offset + extents[i - 1].length);
  }
}

TEST(BuddyAllocatorTest, RegionStartRespected) {
  BuddyAllocator alloc(64 * 1024, kMiB);
  auto e = alloc.Allocate(4096);
  ASSERT_TRUE(e.ok());
  EXPECT_GE(e->offset, 64u * 1024);
}

TEST(BuddyAllocatorTest, FreeCoalescesBuddies) {
  BuddyAllocator alloc(kBase, kMiB);
  // Fill the region with min-size blocks, then free all: the region must coalesce back
  // into one max-size block.
  std::vector<uint64_t> offsets;
  while (true) {
    auto e = alloc.Allocate(BuddyAllocator::kMinBlockSize);
    if (!e.ok()) {
      break;
    }
    offsets.push_back(e->offset);
  }
  EXPECT_EQ(offsets.size(), kMiB / BuddyAllocator::kMinBlockSize);
  EXPECT_EQ(alloc.largest_free_block(), 0u);
  for (uint64_t off : offsets) {
    ASSERT_TRUE(alloc.Free(off).ok());
  }
  EXPECT_EQ(alloc.allocated_bytes(), 0u);
  EXPECT_EQ(alloc.largest_free_block(), kMiB);
  EXPECT_EQ(alloc.allocation_count(), 0u);
}

TEST(BuddyAllocatorTest, ExhaustionReturnsNoSpace) {
  BuddyAllocator alloc(kBase, 64 * 1024);
  auto big = alloc.Allocate(64 * 1024);
  ASSERT_TRUE(big.ok());
  auto more = alloc.Allocate(1);
  EXPECT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsNoSpace());
}

TEST(BuddyAllocatorTest, OversizedRequestRejected) {
  BuddyAllocator alloc(kBase, 64 * 1024);
  EXPECT_FALSE(alloc.Allocate(128 * 1024).ok());
}

TEST(BuddyAllocatorTest, DoubleFreeRejected) {
  BuddyAllocator alloc(kBase, kMiB);
  auto e = alloc.Allocate(4096);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(alloc.Free(e->offset).ok());
  EXPECT_FALSE(alloc.Free(e->offset).ok());
}

TEST(BuddyAllocatorTest, FreeUnknownOffsetRejected) {
  BuddyAllocator alloc(kBase, kMiB);
  EXPECT_FALSE(alloc.Free(4096).ok());
}

TEST(BuddyAllocatorTest, AccountingTracksAllocations) {
  BuddyAllocator alloc(kBase, kMiB);
  EXPECT_EQ(alloc.free_bytes(), kMiB);
  auto a = alloc.Allocate(4096);
  auto b = alloc.Allocate(10000);  // Rounds to 16384.
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc.allocated_bytes(), 4096u + 16384u);
  EXPECT_EQ(alloc.free_bytes(), kMiB - 4096 - 16384);
  EXPECT_EQ(alloc.allocation_count(), 2u);
  ASSERT_TRUE(alloc.Free(a->offset).ok());
  EXPECT_EQ(alloc.allocated_bytes(), 16384u);
}

TEST(BuddyAllocatorTest, FragmentationMetricBehaves) {
  BuddyAllocator alloc(kBase, kMiB);
  EXPECT_DOUBLE_EQ(alloc.ExternalFragmentation(), 0.0);
  // Allocate everything as 4K then free every other block: free space exists but the
  // largest block stays 4K => fragmentation approaches 1 - 4K/free.
  std::vector<uint64_t> offsets;
  while (true) {
    auto e = alloc.Allocate(4096);
    if (!e.ok()) {
      break;
    }
    offsets.push_back(e->offset);
  }
  for (size_t i = 0; i < offsets.size(); i += 2) {
    ASSERT_TRUE(alloc.Free(offsets[i]).ok());
  }
  double frag = alloc.ExternalFragmentation();
  EXPECT_GT(frag, 0.9);
  EXPECT_LE(frag, 1.0);
}

TEST(BuddyAllocatorTest, SerializeDeserializeRestoresState) {
  BuddyAllocator alloc(kBase, kMiB);
  Random rng(23);
  std::vector<uint64_t> live;
  for (int i = 0; i < 30; i++) {
    auto e = alloc.Allocate(rng.Range(1, 32768));
    ASSERT_TRUE(e.ok());
    live.push_back(e->offset);
  }
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(alloc.Free(live.back()).ok());
    live.pop_back();
  }
  std::string blob = alloc.Serialize();

  BuddyAllocator restored(kBase, kMiB);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  EXPECT_EQ(restored.allocated_bytes(), alloc.allocated_bytes());
  EXPECT_EQ(restored.allocation_count(), alloc.allocation_count());
  EXPECT_EQ(restored.free_bytes(), alloc.free_bytes());
  // The restored allocator must refuse to hand out live offsets again.
  std::vector<uint64_t> fresh;
  while (true) {
    auto e = restored.Allocate(4096);
    if (!e.ok()) {
      break;
    }
    fresh.push_back(e->offset);
  }
  for (uint64_t f : fresh) {
    EXPECT_EQ(std::count(live.begin(), live.end(), f), 0) << "offset " << f << " double-handed";
  }
}

TEST(BuddyAllocatorTest, DeserializeGarbageRejected) {
  BuddyAllocator alloc(kBase, kMiB);
  EXPECT_FALSE(alloc.Deserialize("not a snapshot").ok());
}

// Property sweep: random alloc/free interleavings keep accounting consistent and
// allocations disjoint, for several region sizes.
class BuddyAllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyAllocatorPropertyTest, RandomWorkloadMaintainsInvariants) {
  const uint64_t region = GetParam();
  BuddyAllocator alloc(kBase, region);
  Random rng(region);
  std::map<uint64_t, uint64_t> live;  // offset -> length
  for (int step = 0; step < 2000; step++) {
    if (live.empty() || rng.OneIn(2)) {
      auto e = alloc.Allocate(rng.Range(1, 64 * 1024));
      if (e.ok()) {
        // No overlap with any live extent.
        auto next = live.lower_bound(e->offset);
        if (next != live.end()) {
          ASSERT_LE(e->offset + e->length, next->first);
        }
        if (next != live.begin()) {
          auto prev = std::prev(next);
          ASSERT_LE(prev->first + prev->second, e->offset);
        }
        ASSERT_LE(e->offset + e->length, kBase + region);
        ASSERT_GE(e->offset, kBase);
        live[e->offset] = e->length;
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      ASSERT_TRUE(alloc.Free(it->first).ok());
      live.erase(it);
    }
    uint64_t live_bytes = 0;
    for (const auto& [off, len] : live) {
      live_bytes += len;
    }
    ASSERT_EQ(alloc.allocated_bytes(), live_bytes);
    ASSERT_EQ(alloc.allocation_count(), live.size());
    ASSERT_EQ(alloc.free_bytes(), region - live_bytes);
  }
  for (const auto& [off, len] : live) {
    ASSERT_TRUE(alloc.Free(off).ok());
  }
  EXPECT_EQ(alloc.largest_free_block(), region);
}

INSTANTIATE_TEST_SUITE_P(Regions, BuddyAllocatorPropertyTest,
                         ::testing::Values(256 * 1024, kMiB, 4 * kMiB, 16 * kMiB));

// ---------------------------------------------------------------- Pager

TEST(PagerTest, GetReadsThrough) {
  MemoryBlockDevice dev(kMiB);
  ASSERT_TRUE(dev.Write(4096, Slice("page-one")).ok());
  Pager pager(&dev, 16);
  auto p = pager.Get(4096);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(memcmp((*p)->cdata(), "page-one", 8), 0);
}

TEST(PagerTest, CacheHitAvoidsDeviceRead) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  stats::ResetAll();
  ASSERT_TRUE(pager.Get(0).ok());
  uint64_t misses_after_first = stats::Get(stats::Counter::kPageReads);
  ASSERT_TRUE(pager.Get(0).ok());
  EXPECT_EQ(stats::Get(stats::Counter::kPageReads), misses_after_first);
  EXPECT_GE(stats::Get(stats::Counter::kPagerHits), 1u);
}

TEST(PagerTest, DirtyPageWritesBackOnFlush) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  {
    auto p = pager.Get(8192);
    ASSERT_TRUE(p.ok());
    memcpy((*p)->cdata(), "dirty!", 6);
    (*p)->MarkDirty();
  }
  ASSERT_TRUE(pager.Flush().ok());
  std::string out;
  ASSERT_TRUE(dev.Read(8192, 6, &out).ok());
  EXPECT_EQ(out, "dirty!");
}

TEST(PagerTest, EvictionWritesBackDirtyPages) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 4);  // Tiny cache to force eviction.
  for (uint64_t i = 0; i < 16; i++) {
    auto p = pager.GetZeroed(i * kPageSize);
    ASSERT_TRUE(p.ok());
    (*p)->cdata()[0] = static_cast<char>('A' + i);
    (*p)->MarkDirty();
  }
  EXPECT_LE(pager.cached_pages(), 4u);
  ASSERT_TRUE(pager.Flush().ok());
  for (uint64_t i = 0; i < 16; i++) {
    std::string out;
    ASSERT_TRUE(dev.Read(i * kPageSize, 1, &out).ok());
    EXPECT_EQ(out[0], static_cast<char>('A' + i)) << "page " << i;
  }
}

// A checkpoint flush of scattered-but-clustered dirty pages issues one sorted batch:
// each adjacent cluster becomes a single device write.
TEST(PagerTest, FlushCoalescesDirtyPagesIntoRuns) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  Pager pager(&dev, 64);
  // Cluster A: pages 0..3 (adjacent). Cluster B: pages 32..33. One loner: page 60.
  for (uint64_t i : {0, 1, 2, 3, 32, 33, 60}) {
    auto p = pager.GetZeroed(i * kPageSize);
    ASSERT_TRUE(p.ok());
    (*p)->cdata()[0] = static_cast<char>('0' + (i % 10));
    (*p)->MarkDirty();
  }
  uint64_t writes_before = dev.writes_attempted();
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(dev.writes_attempted() - writes_before, 3u);  // One write per cluster.
  for (uint64_t i : {0, 1, 2, 3, 32, 33, 60}) {
    std::string out;
    ASSERT_TRUE(base->Read(i * kPageSize, 1, &out).ok());
    EXPECT_EQ(out[0], static_cast<char>('0' + (i % 10))) << "page " << i;
  }
  EXPECT_EQ(pager.dirty_pages(), 0u);
}

// Eviction never removes a dirty page outright: clean victims are evicted in place,
// dirty ones are written back in one batch (outside the stripe lock) and stay cached.
TEST(PagerTest, EvictionPrefersCleanVictimsAndBatchesWriteBack) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  Pager pager(&dev, 4);  // One stripe; capacity 4.
  // Two dirty pages (adjacent: one write-back run) and two clean ones.
  for (uint64_t i : {0, 1}) {
    auto p = pager.GetZeroed(i * kPageSize);
    ASSERT_TRUE(p.ok());
    (*p)->cdata()[0] = 'D';
    (*p)->MarkDirty();
  }
  ASSERT_TRUE(pager.Get(8 * kPageSize).ok());
  ASSERT_TRUE(pager.Get(9 * kPageSize).ok());
  uint64_t writes_before = dev.writes_attempted();
  // The miss forces an eviction sweep: the dirty pair is written back as ONE batch run
  // and stays resident; a clean page is evicted instead.
  ASSERT_TRUE(pager.Get(10 * kPageSize).ok());
  EXPECT_EQ(dev.writes_attempted() - writes_before, 1u);
  EXPECT_EQ(pager.dirty_pages(), 0u);  // Written back (epoch unchanged), now clean.
  std::string out;
  for (uint64_t i : {0, 1}) {
    ASSERT_TRUE(base->Read(i * kPageSize, 1, &out).ok());
    EXPECT_EQ(out[0], 'D') << "page " << i;
  }
  // Capacity is honored once the write-back made the dirty pair evictable.
  EXPECT_LE(pager.cached_pages(), 4u);
  // And the written-back content survives a fresh read path.
  auto p0 = pager.Get(0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ((*p0)->cdata()[0], 'D');
}

// With no_steal (the journaled OSD's mode) eviction still never writes a dirty page.
TEST(PagerTest, NoStealEvictionNeverTouchesTheDevice) {
  auto base = std::make_shared<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice dev(base);
  Pager pager(&dev, 4, /*no_steal=*/true);
  for (uint64_t i = 0; i < 12; i++) {
    auto p = pager.GetZeroed(i * kPageSize);
    ASSERT_TRUE(p.ok());
    (*p)->MarkDirty();
  }
  EXPECT_EQ(dev.writes_attempted(), 0u);
  EXPECT_EQ(pager.dirty_pages(), 12u);  // All retained (cache overflows by design).
}

TEST(PagerTest, GetZeroedSkipsDeviceRead) {
  MemoryBlockDevice dev(kMiB);
  ASSERT_TRUE(dev.Write(0, Slice("junkjunk")).ok());
  Pager pager(&dev, 16);
  stats::ResetAll();
  auto p = pager.GetZeroed(0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(stats::Get(stats::Counter::kPageReads), 0u);
  EXPECT_EQ((*p)->cdata()[0], '\0');  // Zeroed, not the junk on the device.
}

TEST(PagerTest, InvalidateDiscardsDirtyData) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  {
    auto p = pager.GetZeroed(0);
    ASSERT_TRUE(p.ok());
    (*p)->cdata()[0] = 'X';
    (*p)->MarkDirty();
  }
  pager.Invalidate(0);
  ASSERT_TRUE(pager.Flush().ok());
  std::string out;
  ASSERT_TRUE(dev.Read(0, 1, &out).ok());
  EXPECT_EQ(out[0], '\0');
}

TEST(PagerTest, UnalignedOffsetRejected) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  EXPECT_FALSE(pager.Get(100).ok());
}

TEST(PagerTest, RawIoBypassesCache) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  ASSERT_TRUE(pager.WriteRaw(64 * 1024, Slice("raw payload")).ok());
  std::string out;
  ASSERT_TRUE(pager.ReadRaw(64 * 1024, 11, &out).ok());
  EXPECT_EQ(out, "raw payload");
  // Raw data is immediately on the device, no flush needed.
  std::string direct;
  ASSERT_TRUE(dev.Read(64 * 1024, 11, &direct).ok());
  EXPECT_EQ(direct, "raw payload");
}

// A raw write that covers part of a page reads the page back to stamp its checksum. A
// transient read fault there is retried like one on a pager miss, so the page keeps a
// checksum; a persistent one leaves it unverified rather than stamped wrong.
TEST(PagerTest, RawWriteReadBackRetriesTransientReadFaults) {
  constexpr uint64_t kRaw = 64 * 1024;
  FaultyBlockDevice dev(std::make_shared<MemoryBlockDevice>(kMiB));
  PageChecksums checksums(kMiB, kPageSize);
  Pager pager(&dev, 16);
  pager.SetChecksums(&checksums);
  pager.SetRetryPolicy(RetryPolicy{});
  dev.SetReadFaults(0, 1);  // The next read fails once, then the device heals.
  ASSERT_TRUE(pager.WriteRaw(kRaw, std::string(1000, 'r')).ok());
  EXPECT_TRUE(checksums.HasChecksum(kRaw)) << "the read-back was not retried";
  std::string out;
  ASSERT_TRUE(pager.ReadRaw(kRaw, 1000, &out).ok());
  EXPECT_EQ(out, std::string(1000, 'r'));

  dev.SetReadFaults(0, -1);  // Past any retry budget.
  ASSERT_TRUE(pager.WriteRaw(kRaw + kPageSize, std::string(1000, 's')).ok());
  EXPECT_FALSE(checksums.HasChecksum(kRaw + kPageSize));
}

// A checksummed volume with three stamped raw pages at kRawBase, and the unaligned raw
// range [kRawBase + 100, kRawBase + 2 pages + 50) that touches all three of them.
class RawReadTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRawBase = 64 * 1024;
  static constexpr uint64_t kReadOffset = kRawBase + 100;
  static constexpr size_t kReadSize = 2 * kPageSize - 50;

  RawReadTest()
      : dev_(std::make_shared<MemoryBlockDevice>(kMiB)),
        checksums_(kMiB, kPageSize),
        pager_(&dev_, 16) {
    pager_.SetChecksums(&checksums_);
    payload_.resize(3 * kPageSize);
    for (size_t i = 0; i < payload_.size(); i++) {
      payload_[i] = static_cast<char>('a' + i % 23);
    }
    EXPECT_TRUE(pager_.WriteRaw(kRawBase, payload_).ok());
  }

  FaultyBlockDevice dev_;
  PageChecksums checksums_;
  Pager pager_;
  std::string payload_;
};

TEST_F(RawReadTest, UnalignedReadOfThreePagesMakesOneDeviceRead) {
  const uint64_t reads = dev_.reads_attempted();
  const uint64_t verifies = stats::Get(stats::Counter::kChecksumVerifies);
  std::string out;
  ASSERT_TRUE(pager_.ReadRaw(kReadOffset, kReadSize, &out).ok());
  EXPECT_EQ(dev_.reads_attempted() - reads, 1u);
  EXPECT_EQ(stats::Get(stats::Counter::kChecksumVerifies) - verifies, 3u);
  EXPECT_EQ(out, payload_.substr(kReadOffset - kRawBase, kReadSize));
}

TEST_F(RawReadTest, BitFlipInTheUnreadPartOfABoundaryPageFailsTheRead) {
  std::string out;
  // Head page, before the requested range.
  ASSERT_TRUE(dev_.FlipBit(kRawBase + 10, 3).ok());
  EXPECT_TRUE(pager_.ReadRaw(kReadOffset, kReadSize, &out).IsCorruption());
  ASSERT_TRUE(dev_.FlipBit(kRawBase + 10, 3).ok());
  ASSERT_TRUE(pager_.ReadRaw(kReadOffset, kReadSize, &out).ok());
  // Tail page, after the requested range.
  ASSERT_TRUE(dev_.FlipBit(kReadOffset + kReadSize + 1000, 5).ok());
  EXPECT_TRUE(pager_.ReadRaw(kReadOffset, kReadSize, &out).IsCorruption());
}

// ---------------------------------------------------------------- resident raw pages

// A checksummed pager over a counting device, and a payload of two pages and a bit that
// WriteFresh puts at the start of a block at kRaw.
class RawCacheTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRaw = 64 * 1024;

  RawCacheTest()
      : dev_(std::make_shared<MemoryBlockDevice>(kMiB)),
        checksums_(kMiB, kPageSize),
        pager_(&dev_, 16) {
    pager_.SetChecksums(&checksums_);
    Random rng(29);
    payload_ = rng.NextString(2 * kPageSize + 300);
  }

  // Device reads and raw-cache hits and misses since the last call.
  struct Counts {
    uint64_t reads, hits, misses;
  };
  Counts Take() {
    const Counts now{dev_.reads_attempted(), stats::Get(stats::Counter::kRawCacheHits),
                     stats::Get(stats::Counter::kRawCacheMisses)};
    const Counts delta{now.reads - last_.reads, now.hits - last_.hits,
                       now.misses - last_.misses};
    last_ = now;
    return delta;
  }

  FaultyBlockDevice dev_;
  PageChecksums checksums_;
  Pager pager_;
  std::string payload_;
  Counts last_{0, 0, 0};
};

TEST_F(RawCacheTest, ReadOfAFreshWriteIsServedFromMemoryUntilTheCacheIsDropped) {
  ASSERT_TRUE(pager_.WriteFresh(kRaw, payload_).ok());
  EXPECT_EQ(pager_.cached_pages(), 3u);
  Take();
  std::string out;
  ASSERT_TRUE(pager_.ReadRaw(kRaw + 100, payload_.size() - 100, &out).ok());
  EXPECT_EQ(out, payload_.substr(100));
  Counts d = Take();
  EXPECT_EQ(d.reads, 0u);
  EXPECT_EQ(d.hits, 1u);
  EXPECT_EQ(d.misses, 0u);

  ASSERT_TRUE(pager_.DropCacheForTesting().ok());
  Take();
  ASSERT_TRUE(pager_.ReadRaw(kRaw + 100, payload_.size() - 100, &out).ok());
  EXPECT_EQ(out, payload_.substr(100));
  d = Take();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.hits, 0u);
  EXPECT_EQ(d.misses, 1u);
}

// A read whose cover is not all resident reads the device and caches nothing, so a
// second read of it goes to the device again.
TEST_F(RawCacheTest, ReadMissFillsNothing) {
  ASSERT_TRUE(pager_.WriteFresh(kRaw, payload_).ok());
  pager_.Invalidate(kRaw + kPageSize);
  const size_t cached = pager_.cached_pages();
  Take();
  for (int i = 0; i < 2; i++) {
    std::string out;
    ASSERT_TRUE(pager_.ReadRaw(kRaw, payload_.size(), &out).ok());
    EXPECT_EQ(out, payload_);
    EXPECT_EQ(pager_.cached_pages(), cached);
    const Counts d = Take();
    EXPECT_EQ(d.reads, 1u);
    EXPECT_EQ(d.misses, 1u);
  }
  // A range inside the resident first page still hits.
  std::string out;
  ASSERT_TRUE(pager_.ReadRaw(kRaw + 10, 100, &out).ok());
  EXPECT_EQ(out, payload_.substr(10, 100));
  EXPECT_EQ(Take().hits, 1u);
}

// A fresh write replaces whatever copy of its pages is resident, zero-fills its partly
// written last page, and a failed one leaves none of its pages resident.
TEST_F(RawCacheTest, FreshWriteReplacesResidentPagesAndAFailedOneDropsThem) {
  ASSERT_TRUE(pager_.WriteFresh(kRaw, payload_).ok());
  ASSERT_TRUE(pager_.WriteFresh(kRaw, "short").ok());
  PageRef first = pager_.Peek(kRaw);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->dirty());
  EXPECT_EQ(std::string(first->cdata(), kPageSize),
            "short" + std::string(kPageSize - 5, '\0'));
  first.reset();
  std::string out;
  ASSERT_TRUE(pager_.ReadRaw(kRaw, 5, &out).ok());
  EXPECT_EQ(out, "short");

  dev_.SetWriteBudget(0);
  EXPECT_FALSE(pager_.WriteFresh(kRaw, payload_).ok());
  for (uint64_t page = kRaw; page < kRaw + payload_.size(); page += kPageSize) {
    EXPECT_EQ(pager_.Peek(page), nullptr) << page;
  }
}

// An in-place write drops the resident pages it touches; the next read of them goes to
// the device and returns the merged bytes.
TEST_F(RawCacheTest, InPlaceWriteDropsThePagesItWrites) {
  ASSERT_TRUE(pager_.WriteFresh(kRaw, payload_).ok());
  ASSERT_TRUE(pager_.WriteRaw(kRaw + kPageSize + 10, "overwritten").ok());
  EXPECT_NE(pager_.Peek(kRaw), nullptr);
  EXPECT_EQ(pager_.Peek(kRaw + kPageSize), nullptr);
  EXPECT_NE(pager_.Peek(kRaw + 2 * kPageSize), nullptr);
  payload_.replace(kPageSize + 10, 11, "overwritten");
  Take();
  std::string out;
  ASSERT_TRUE(pager_.ReadRaw(kRaw, payload_.size(), &out).ok());
  EXPECT_EQ(out, payload_);
  EXPECT_EQ(Take().reads, 1u);
}

// Resident raw pages are clean, so the sweep evicts them at capacity, also after a
// long run of pages dropped and installed again below it (which rebuilds the ring).
TEST(PagerTest, RawPagesAreEvictedAtCapacityAfterChurn) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 8);
  for (int round = 0; round < 2000; round++) {
    const uint64_t off = (round % 4) * kPageSize;
    const std::string body(100, static_cast<char>('a' + round % 26));
    ASSERT_TRUE(pager.WriteFresh(off, body).ok());
    pager.Invalidate(off);
  }
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_TRUE(pager.WriteFresh(i * kPageSize, std::string(kPageSize, 'z')).ok());
  }
  EXPECT_LE(pager.cached_pages(), 8u);
  std::string out;
  ASSERT_TRUE(pager.ReadRaw(31 * kPageSize, kPageSize, &out).ok());
  EXPECT_EQ(out, std::string(kPageSize, 'z'));
}

// ---------------------------------------------------------------- PageChecksums

// A page of distinct bytes for checksum cases.
std::string ChecksumPage(uint32_t seed) {
  Random rng(seed);
  return rng.NextString(kPageSize);
}

// A prefix stamp covers exactly its bytes: whatever follows them verifies, and a flip in
// any covered byte is rejected.
TEST(PageChecksumsTest, PrefixStampVerifiesExactlyTheCoveredBytes) {
  PageChecksums table(kMiB, kPageSize);
  for (size_t covered : {size_t{1}, size_t{1000}, kPageSize - 1}) {
    SCOPED_TRACE(covered);
    std::string page = ChecksumPage(static_cast<uint32_t>(covered));
    table.Stamp(kPageSize, Slice(page.data(), covered));
    ASSERT_TRUE(table.HasChecksum(kPageSize));
    EXPECT_EQ(table.CoveredLength(kPageSize), covered);
    EXPECT_TRUE(table.Verify(kPageSize, page).ok());
    for (size_t i = covered; i < kPageSize; i++) {
      page[i] = static_cast<char>(~page[i]);
    }
    EXPECT_TRUE(table.Verify(kPageSize, page).ok()) << "bytes past the prefix were checked";
    size_t caught = 0;
    for (size_t i = 0; i < covered; i++) {
      page[i] = static_cast<char>(page[i] ^ (1 << (i % 8)));
      caught += table.Verify(kPageSize, page).IsCorruption() ? 1 : 0;
      page[i] = static_cast<char>(page[i] ^ (1 << (i % 8)));
    }
    EXPECT_EQ(caught, covered);
  }
}

// Stamping the whole page over a prefix stamp makes every byte covered again.
TEST(PageChecksumsTest, FullStampClearsTheCoveredLength) {
  PageChecksums table(kMiB, kPageSize);
  std::string page = ChecksumPage(7);
  table.Stamp(0, Slice(page.data(), 1000));
  table.Stamp(0, page);
  EXPECT_EQ(table.CoveredLength(0), kPageSize);
  ASSERT_TRUE(table.Verify(0, page).ok());
  page[kPageSize - 1] = static_cast<char>(page[kPageSize - 1] ^ 0x10);
  EXPECT_TRUE(table.Verify(0, page).IsCorruption());
  table.Quarantine(0);  // A quarantined or absent entry covers nothing.
  EXPECT_EQ(table.CoveredLength(0), 0u);
  EXPECT_EQ(table.CoveredLength(kPageSize), 0u);
}

// The serialized table keeps each page's covered length.
TEST(PageChecksumsTest, SerializeKeepsTheCoveredLength) {
  PageChecksums table(kMiB, kPageSize);
  const std::string whole = ChecksumPage(1);
  std::string prefix = ChecksumPage(2);
  table.Stamp(0, whole);
  table.Stamp(kPageSize, Slice(prefix.data(), 1000));
  const std::string blob = table.Serialize(5);

  PageChecksums restored(kMiB, kPageSize);
  ASSERT_TRUE(restored.Deserialize(blob, 5).ok());
  EXPECT_EQ(restored.Serialize(5), blob);
  EXPECT_TRUE(restored.Verify(0, whole).ok());
  EXPECT_FALSE(restored.HasChecksum(2 * kPageSize));
  prefix[2000] = static_cast<char>(~prefix[2000]);
  EXPECT_TRUE(restored.Verify(kPageSize, prefix).ok());
  prefix[999] = static_cast<char>(~prefix[999]);
  EXPECT_TRUE(restored.Verify(kPageSize, prefix).IsCorruption());
}

// A table of the version before covered lengths loads unchanged: every stamped entry
// covers its whole page, and unstamped ones stay absent. A version this build does not
// know is refused, and the table is left as it was.
TEST(PageChecksumsTest, VersionOneTableLoadsWithEveryEntryIntact) {
  constexpr uint64_t kPages = kMiB / kPageSize;
  const std::string page0 = ChecksumPage(3);
  const std::string page2 = ChecksumPage(4);
  std::vector<uint64_t> entries(kPages, 0);
  entries[0] = (1ull << 32) | Crc32c(page0);
  entries[2] = (1ull << 32) | Crc32c(page2);
  auto encode = [&](uint32_t version) {
    std::string out;
    PutFixed32(&out, 0x484b5343);  // "HKSC"
    PutFixed32(&out, version);
    PutFixed64(&out, 9);  // Generation.
    PutFixed64(&out, kPages);
    for (uint64_t e : entries) {
      PutFixed64(&out, e);
    }
    PutFixed32(&out, MaskCrc(Crc32c(Slice(out))));
    return out;
  };

  PageChecksums table(kMiB, kPageSize);
  ASSERT_TRUE(table.Deserialize(encode(1), 9).ok());
  EXPECT_TRUE(table.Verify(0, page0).ok());
  EXPECT_FALSE(table.HasChecksum(kPageSize));
  EXPECT_TRUE(table.Verify(2 * kPageSize, page2).ok());
  std::string flipped = page2;
  flipped[kPageSize - 1] = static_cast<char>(~flipped[kPageSize - 1]);
  EXPECT_TRUE(table.Verify(2 * kPageSize, flipped).IsCorruption());
  // Rewritten as version 2, every entry keeps its bits.
  const std::string v2 = table.Serialize(9);
  EXPECT_EQ(DecodeFixed32(reinterpret_cast<const uint8_t*>(v2.data() + 4)), 2u);
  EXPECT_EQ(v2.substr(24, kPages * 8), encode(1).substr(24, kPages * 8));

  PageChecksums unknown(kMiB, kPageSize);
  EXPECT_TRUE(unknown.Deserialize(encode(3), 9).IsCorruption());
  EXPECT_FALSE(unknown.HasChecksum(0));
}

// Version 2 defines bits 0..46 of an entry, and a covered length below the page size;
// an entry outside that is refused like any malformed region.
TEST(PageChecksumsTest, MalformedVersionTwoEntryIsRejected) {
  PageChecksums table(kMiB, kPageSize);
  table.Stamp(0, Slice(ChecksumPage(5).data(), 100));
  const std::string good = table.Serialize(3);
  auto with_entry0 = [&](uint64_t entry) {
    std::string blob = good.substr(0, good.size() - 4);
    std::string encoded;
    PutFixed64(&encoded, entry);
    blob.replace(24, 8, encoded);
    PutFixed32(&blob, MaskCrc(Crc32c(Slice(blob))));
    return blob;
  };
  PageChecksums restored(kMiB, kPageSize);
  EXPECT_TRUE(restored.Deserialize(with_entry0((1ull << 32) | (uint64_t{kPageSize} << 34)), 3)
                  .IsCorruption());
  EXPECT_TRUE(restored.Deserialize(with_entry0((1ull << 32) | (1ull << 50)), 3).IsCorruption());
  EXPECT_TRUE(restored.Deserialize(good, 3).ok());
}

TEST(PagerTest, DropCacheForcesReRead) {
  MemoryBlockDevice dev(kMiB);
  Pager pager(&dev, 16);
  {
    auto p = pager.GetZeroed(0);
    ASSERT_TRUE(p.ok());
    (*p)->cdata()[0] = 'Q';
    (*p)->MarkDirty();
  }
  ASSERT_TRUE(pager.DropCacheForTesting().ok());
  EXPECT_EQ(pager.cached_pages(), 0u);
  auto p = pager.Get(0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->cdata()[0], 'Q');  // Was flushed by the drop, then re-read.
}

TEST(PagerTest, ConcurrentDistinctPages) {
  MemoryBlockDevice dev(16 * kMiB);
  Pager pager(&dev, 256);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&pager, t] {
      for (int i = 0; i < 200; i++) {
        uint64_t off = (static_cast<uint64_t>(t) * 200 + i) * kPageSize;
        auto p = pager.GetZeroed(off);
        ASSERT_TRUE(p.ok());
        (*p)->cdata()[0] = static_cast<char>(t);
        (*p)->MarkDirty();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(pager.Flush().ok());
  for (int t = 0; t < kThreads; t++) {
    std::string out;
    ASSERT_TRUE(dev.Read(static_cast<uint64_t>(t) * 200 * kPageSize, 1, &out).ok());
    EXPECT_EQ(out[0], static_cast<char>(t));
  }
}

// ---------------------------------------------------------------- Superblock

Superblock MakeSample() {
  Superblock sb;
  sb.device_size = 64 * kMiB;
  sb.alloc_area_offset = 4096;
  sb.alloc_area_size = 1 * kMiB;
  sb.alloc_snapshot_size = 777;
  sb.journal_offset = 2 * kMiB;
  sb.journal_size = 4 * kMiB;
  sb.heap_offset = 8 * kMiB;
  sb.heap_size = 32 * kMiB;
  sb.object_table_root = 8 * kMiB + 4096;
  sb.index_dir_root = 8 * kMiB + 8192;
  sb.next_oid = 1234;
  sb.journal_sequence = 99;
  return sb;
}

TEST(SuperblockTest, EncodeDecodeRoundTrip) {
  Superblock sb = MakeSample();
  std::string buf = sb.Encode();
  EXPECT_EQ(buf.size(), Superblock::kSuperblockSize);
  auto decoded = Superblock::Decode(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->device_size, sb.device_size);
  EXPECT_EQ(decoded->alloc_area_offset, sb.alloc_area_offset);
  EXPECT_EQ(decoded->alloc_snapshot_size, sb.alloc_snapshot_size);
  EXPECT_EQ(decoded->journal_offset, sb.journal_offset);
  EXPECT_EQ(decoded->journal_size, sb.journal_size);
  EXPECT_EQ(decoded->heap_offset, sb.heap_offset);
  EXPECT_EQ(decoded->heap_size, sb.heap_size);
  EXPECT_EQ(decoded->object_table_root, sb.object_table_root);
  EXPECT_EQ(decoded->index_dir_root, sb.index_dir_root);
  EXPECT_EQ(decoded->next_oid, sb.next_oid);
  EXPECT_EQ(decoded->journal_sequence, sb.journal_sequence);
}

TEST(SuperblockTest, SingleSlotCorruptionFallsBackToTheReplica) {
  // A torn or corrupted write that damages one slot must not lose the volume: the
  // other slot still decodes (the point of the dual-slot layout).
  Superblock sample = MakeSample();
  std::string buf = sample.Encode();
  for (size_t pos : {size_t{0}, size_t{8}, size_t{64}, Superblock::kSlotSize - 1}) {
    std::string mutated = buf;
    mutated[pos] ^= 0x1;  // Damage the primary slot only.
    auto decoded = Superblock::Decode(mutated);
    ASSERT_TRUE(decoded.ok()) << "flip at " << pos;
    EXPECT_EQ(decoded->object_table_root, sample.object_table_root);
    mutated[Superblock::kSlotSize + pos] ^= 0x1;  // Now damage the replica too.
    EXPECT_FALSE(Superblock::Decode(mutated).ok()) << "flip at " << pos;
  }
}

TEST(SuperblockTest, TornWriteLeavesADecodableSuperblock) {
  // Old superblock on disk, new image torn at an arbitrary byte: some prefix of the new
  // image lands over the old one. Every tear position must leave a decodable result —
  // fully old or fully new, never an unreadable volume.
  Superblock old_sb = MakeSample();
  Superblock new_sb = MakeSample();
  new_sb.object_table_root = 0x99999;
  std::string old_img = old_sb.Encode();
  std::string new_img = new_sb.Encode();
  for (size_t torn = 0; torn <= old_img.size(); torn += 509) {
    std::string on_disk = new_img.substr(0, torn) + old_img.substr(torn);
    auto decoded = Superblock::Decode(on_disk);
    ASSERT_TRUE(decoded.ok()) << "torn at " << torn;
    EXPECT_TRUE(decoded->object_table_root == old_sb.object_table_root ||
                decoded->object_table_root == new_sb.object_table_root)
        << "torn at " << torn;
  }
}

TEST(SuperblockTest, RejectsPreV3Images) {
  // Only v3 decodes. Both retired layouts, each with a valid CRC, are Corruption: v1
  // (one whole-page image, CRC in the page's last 4 bytes) and v2 (dual-slot, no
  // checksum-region fields).
  auto put_crc = [](std::string* image) {
    uint32_t crc = MaskCrc(Crc32c(Slice(*image)));
    for (int shift = 0; shift < 32; shift += 8) {
      image->push_back(static_cast<char>((crc >> shift) & 0xff));
    }
  };
  std::string fields = MakeSample().Encode().substr(0, Superblock::kSlotSize - 4);

  std::string v1 = fields;
  v1[4] = 1;  // Version field.
  v1.resize(Superblock::kSuperblockSize - 4, 0);
  put_crc(&v1);
  auto decoded = Superblock::Decode(v1);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();

  std::string v2_slot = fields;
  v2_slot[4] = 2;
  put_crc(&v2_slot);
  decoded = Superblock::Decode(v2_slot + v2_slot);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(SuperblockTest, WrongSizeRejected) {
  std::string buf = MakeSample().Encode();
  EXPECT_FALSE(Superblock::Decode(buf.substr(0, 100)).ok());
  EXPECT_FALSE(Superblock::Decode(buf + "x").ok());
}

TEST(SuperblockTest, BadMagicInBothSlotsRejected) {
  std::string buf = MakeSample().Encode();
  buf[0] = 'X';
  buf[1] = 'Y';
  buf[Superblock::kSlotSize] = 'X';
  buf[Superblock::kSlotSize + 1] = 'Y';
  EXPECT_FALSE(Superblock::Decode(buf).ok());
}

}  // namespace
}  // namespace hfad
