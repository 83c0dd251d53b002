// Unit + property tests for the counted extent tree (byte-accessible object data).
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/extent/extent_tree.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/checksums.h"
#include "src/storage/pager.h"

namespace hfad {
namespace extent {
namespace {

constexpr uint64_t kHeap = 256 * 1024 * 1024;

std::string Pattern(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; i++) {
    s[i] = static_cast<char>('a' + i % 26);
  }
  return s;
}

std::string ReadWhole(const ExtentTree& tree) {
  std::string out;
  EXPECT_TRUE(tree.Read(0, tree.Size(), &out).ok());
  return out;
}

// Device offset of the first extent of a tree of at most four extents.
uint64_t FirstExtent(const ExtentTree& tree) {
  std::vector<Extent> map;
  EXPECT_TRUE(tree.SmallMap(4, &map).value_or(false));
  return map.empty() ? 0 : map[0].device_offset;
}

class ExtentTreeTest : public ::testing::Test {
 protected:
  ExtentTreeTest()
      : dev_(kPageSize + kHeap),
        pager_(&dev_, 2048),
        alloc_(kPageSize, kHeap),
        tree_(&pager_, &alloc_, 0) {}

  std::string ReadAll() {
    std::string out;
    EXPECT_TRUE(tree_.Read(0, tree_.Size(), &out).ok());
    return out;
  }

  MemoryBlockDevice dev_;
  Pager pager_;
  BuddyAllocator alloc_;
  ExtentTree tree_;
};

TEST_F(ExtentTreeTest, EmptyObject) {
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(tree_.root(), 0u);
  std::string out;
  ASSERT_TRUE(tree_.Read(0, 10, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(tree_.Read(1, 1, &out).ok());  // Past the end.
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, WriteThenRead) {
  ASSERT_TRUE(tree_.Write(0, "hello world").ok());
  EXPECT_EQ(tree_.Size(), 11u);
  EXPECT_EQ(ReadAll(), "hello world");
  std::string out;
  ASSERT_TRUE(tree_.Read(6, 5, &out).ok());
  EXPECT_EQ(out, "world");
}

TEST_F(ExtentTreeTest, ShortReadAtEnd) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  std::string out;
  ASSERT_TRUE(tree_.Read(1, 100, &out).ok());
  EXPECT_EQ(out, "bc");
  ASSERT_TRUE(tree_.Read(3, 10, &out).ok());  // At exactly EOF: empty.
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(tree_.Read(4, 1, &out).ok());  // Beyond EOF: error.
}

TEST_F(ExtentTreeTest, OverwriteMiddle) {
  ASSERT_TRUE(tree_.Write(0, "aaaaaaaaaa").ok());
  ASSERT_TRUE(tree_.Write(3, "BBB").ok());
  EXPECT_EQ(ReadAll(), "aaaBBBaaaa");
  EXPECT_EQ(tree_.Size(), 10u);
}

TEST_F(ExtentTreeTest, WriteExtendsAtEof) {
  ASSERT_TRUE(tree_.Write(0, "12345").ok());
  ASSERT_TRUE(tree_.Write(5, "678").ok());  // Append via write at EOF.
  EXPECT_EQ(ReadAll(), "12345678");
  ASSERT_TRUE(tree_.Write(6, "XYZ").ok());  // Straddles EOF: overwrite + extend.
  EXPECT_EQ(ReadAll(), "123456XYZ");
}

TEST_F(ExtentTreeTest, WritePastEofRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.Write(5, "hole").ok());  // No implicit holes.
}

TEST_F(ExtentTreeTest, InsertIntoMiddle) {
  ASSERT_TRUE(tree_.Write(0, "helloworld").ok());
  ASSERT_TRUE(tree_.Insert(5, ", ").ok());
  EXPECT_EQ(ReadAll(), "hello, world");
  EXPECT_EQ(tree_.Size(), 12u);
}

TEST_F(ExtentTreeTest, InsertAtStartAndEnd) {
  ASSERT_TRUE(tree_.Write(0, "middle").ok());
  ASSERT_TRUE(tree_.Insert(0, "start-").ok());
  ASSERT_TRUE(tree_.Insert(tree_.Size(), "-end").ok());
  EXPECT_EQ(ReadAll(), "start-middle-end");
}

TEST_F(ExtentTreeTest, InsertIntoEmptyObject) {
  ASSERT_TRUE(tree_.Insert(0, "genesis").ok());
  EXPECT_EQ(ReadAll(), "genesis");
}

TEST_F(ExtentTreeTest, InsertBeyondEofRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.Insert(4, "x").ok());
}

TEST_F(ExtentTreeTest, RemoveRangeMiddle) {
  ASSERT_TRUE(tree_.Write(0, "hello, cruel world").ok());
  ASSERT_TRUE(tree_.RemoveRange(5, 6).ok());
  EXPECT_EQ(ReadAll(), std::string("hello, cruel world").erase(5, 6));
}

TEST_F(ExtentTreeTest, RemoveRangePrefixAndSuffix) {
  ASSERT_TRUE(tree_.Write(0, "0123456789").ok());
  ASSERT_TRUE(tree_.RemoveRange(0, 3).ok());
  EXPECT_EQ(ReadAll(), "3456789");
  ASSERT_TRUE(tree_.RemoveRange(4, 3).ok());  // Classic truncate-from-end.
  EXPECT_EQ(ReadAll(), "3456");
}

TEST_F(ExtentTreeTest, RemoveRangeWholeObject) {
  ASSERT_TRUE(tree_.Write(0, "everything").ok());
  ASSERT_TRUE(tree_.RemoveRange(0, 10).ok());
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(ReadAll(), "");
}

TEST_F(ExtentTreeTest, RemoveRangeOutOfBoundsRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.RemoveRange(1, 5).ok());
  EXPECT_FALSE(tree_.RemoveRange(4, 1).ok());
  EXPECT_TRUE(tree_.RemoveRange(1, 0).ok());  // Zero-length is a no-op.
  EXPECT_EQ(ReadAll(), "abc");
}

TEST_F(ExtentTreeTest, LargeWriteChunksIntoExtents) {
  std::string big(1024 * 1024, 'L');
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<char>('A' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, big).ok());
  EXPECT_EQ(tree_.Size(), big.size());
  auto extents = tree_.CountExtents();
  ASSERT_TRUE(extents.ok());
  EXPECT_GE(*extents, big.size() / kMaxExtentSize);  // Chunked.
  EXPECT_EQ(ReadAll(), big);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, InsertIntoLargeObjectPreservesContent) {
  std::string base(512 * 1024, 'x');
  for (size_t i = 0; i < base.size(); i++) {
    base[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, base).ok());
  std::string inserted(4096, 'I');
  uint64_t pos = base.size() / 2 + 37;  // Unaligned middle offset.
  ASSERT_TRUE(tree_.Insert(pos, inserted).ok());
  std::string expect = base.substr(0, pos) + inserted + base.substr(pos);
  EXPECT_EQ(tree_.Size(), expect.size());
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, RemoveRangeAcrossManyExtents) {
  std::string base(512 * 1024, 'x');
  for (size_t i = 0; i < base.size(); i++) {
    base[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, base).ok());
  // Remove a 200 KiB range spanning multiple 64 KiB extents, unaligned ends.
  uint64_t off = 100 * 1024 + 13;
  uint64_t len = 200 * 1024 + 5;
  ASSERT_TRUE(tree_.RemoveRange(off, len).ok());
  std::string expect = base.substr(0, off) + base.substr(off + len);
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, ClearFreesAllStorage) {
  std::string big(2 * 1024 * 1024, 'C');
  ASSERT_TRUE(tree_.Write(0, big).ok());
  EXPECT_GT(alloc_.allocated_bytes(), big.size() / 2);
  ASSERT_TRUE(tree_.Clear().ok());
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(tree_.root(), 0u);
  EXPECT_EQ(alloc_.allocation_count(), 0u);
  // Reusable after clear.
  ASSERT_TRUE(tree_.Write(0, "again").ok());
  EXPECT_EQ(ReadAll(), "again");
}

TEST_F(ExtentTreeTest, RemoveRangeFreesStorage) {
  std::string big(4 * 1024 * 1024, 'R');
  ASSERT_TRUE(tree_.Write(0, big).ok());
  uint64_t before = alloc_.allocated_bytes();
  ASSERT_TRUE(tree_.RemoveRange(0, big.size() / 2).ok());
  EXPECT_LT(alloc_.allocated_bytes(), before);
}

TEST_F(ExtentTreeTest, PersistsAcrossReopen) {
  std::string content;
  for (int i = 0; i < 1000; i++) {
    content += "line-" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(tree_.Write(0, content).ok());
  ASSERT_TRUE(tree_.Insert(5, "INSERTED").ok());
  uint64_t root = tree_.root();
  ASSERT_TRUE(pager_.Flush().ok());
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());

  ExtentTree reopened(&pager_, &alloc_, root);
  std::string expect = content.substr(0, 5) + "INSERTED" + content.substr(5);
  EXPECT_EQ(reopened.Size(), expect.size());
  std::string out;
  ASSERT_TRUE(reopened.Read(0, reopened.Size(), &out).ok());
  EXPECT_EQ(out, expect);
  ASSERT_TRUE(reopened.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, ManySmallInsertsAtFrontForceDeepTree) {
  // Repeated front insertion is the adversarial case for offset-keyed maps; the counted
  // tree must stay O(log n) and correct.
  std::string expect;
  for (int i = 0; i < 3000; i++) {
    std::string piece = std::to_string(i % 10);
    ASSERT_TRUE(tree_.Insert(0, piece).ok()) << i;
    expect = piece + expect;
  }
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// ---------------------------------------------------------------- failed inserts

// Every fresh extent is allocated and written before the tree changes, so an insert
// that fails partway leaves the object's bytes, size and invariants as they were.
TEST(ExtentInsertFailureTest, AllocatorRunningOutMidInsertLeavesTheObjectUnchanged) {
  constexpr uint64_t kSmallHeap = 256 * 1024;
  MemoryBlockDevice dev(kPageSize + kSmallHeap);
  Pager pager(&dev, 64);
  BuddyAllocator alloc(kPageSize, kSmallHeap);
  ExtentTree tree(&pager, &alloc, 0);
  std::string model = Pattern(40 * 1024);  // A root page plus one 64 KiB block.
  ASSERT_TRUE(tree.Write(0, model).ok());
  const uint64_t live = alloc.allocation_count();
  const uint64_t allocated = stats::Get(stats::Counter::kExtentsAllocated);

  // 150 KiB plus the carried 20 KiB tail is three chunks; the 188 KiB left free holds
  // only two 64 KiB blocks, so the third allocation fails after two succeeded.
  Status s = tree.Insert(20000, std::string(150 * 1024, 'N'));
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_EQ(stats::Get(stats::Counter::kExtentsAllocated) - allocated, 2u);
  EXPECT_EQ(alloc.allocation_count(), live);
  EXPECT_EQ(tree.Size(), model.size());
  EXPECT_EQ(ReadWhole(tree), model);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  ASSERT_TRUE(tree.Insert(20000, "fits").ok());
  model.insert(20000, "fits");
  EXPECT_EQ(ReadWhole(tree), model);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST(ExtentInsertFailureTest, FailedRawWriteLeavesTheObjectUnchanged) {
  FaultyBlockDevice dev(std::make_shared<MemoryBlockDevice>(kPageSize + kHeap));
  Pager pager(&dev, 64);  // Ample: the tree pages never leave the cache.
  BuddyAllocator alloc(kPageSize, kHeap);
  ExtentTree tree(&pager, &alloc, 0);
  std::string model = Pattern(40 * 1024);
  ASSERT_TRUE(tree.Write(0, model).ok());
  const uint64_t live = alloc.allocation_count();

  // 100 KiB plus the carried tail is two chunks: the first write lands, the second fails.
  dev.SetWriteBudget(1);
  Status s = tree.Insert(20000, std::string(100 * 1024, 'W'));
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(alloc.allocation_count(), live);
  EXPECT_EQ(tree.Size(), model.size());
  EXPECT_EQ(ReadWhole(tree), model);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  dev.SetWriteBudget(-1);
  ASSERT_TRUE(tree.Insert(20000, "after").ok());
  model.insert(20000, "after");
  EXPECT_EQ(ReadWhole(tree), model);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

// A first write into an empty object allocates the tree's root page before its extents.
// When the extents do not fit, the root goes back as well: the failed op stores no
// record that could reference it.
TEST(ExtentInsertFailureTest, FailedFirstWriteIntoAnEmptyObjectAllocatesNothing) {
  constexpr uint64_t kSmallHeap = 256 * 1024;
  MemoryBlockDevice dev(kPageSize + kSmallHeap);
  Pager pager(&dev, 64);
  BuddyAllocator alloc(kPageSize, kSmallHeap);
  ExtentTree full(&pager, &alloc, 0);
  ASSERT_TRUE(full.Write(0, Pattern(128 * 1024)).ok());  // A root page and two blocks.
  const uint64_t live = alloc.allocation_count();
  const uint64_t bytes = alloc.allocated_bytes();

  // 200 KiB is four chunks; the 124 KiB left free holds one 64 KiB block beside the
  // root page, so the second chunk's allocation fails.
  ExtentTree empty(&pager, &alloc, 0);
  Status s = empty.Write(0, std::string(200 * 1024, 'E'));
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_EQ(alloc.allocation_count(), live);
  EXPECT_EQ(alloc.allocated_bytes(), bytes);
  EXPECT_EQ(empty.root(), 0u);
  EXPECT_EQ(empty.Size(), 0u);

  ASSERT_TRUE(empty.Write(0, "fits").ok());
  EXPECT_EQ(ReadWhole(empty), "fits");
  ASSERT_TRUE(empty.CheckInvariants().ok());
}

// ---------------------------------------------------------------- device IO per edit

// FaultyBlockDevice that also logs the size of every single-range write.
class WriteSizeLogDevice : public FaultyBlockDevice {
 public:
  using FaultyBlockDevice::FaultyBlockDevice;
  Status Write(uint64_t offset, Slice data) override {
    sizes.push_back(data.size());
    return FaultyBlockDevice::Write(offset, data);
  }
  std::vector<size_t> sizes;
};

// Checksums on and every tree page resident, so each device call an edit makes is
// payload IO. One object of a single 10000-byte extent.
class ExtentIoTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kIoHeap = 4 * 1024 * 1024;
  static constexpr uint64_t kBase = 10000;

  ExtentIoTest()
      : dev_(std::make_shared<MemoryBlockDevice>(kPageSize + kIoHeap)),
        checksums_(kPageSize + kIoHeap, kPageSize),
        pager_(&dev_, 256),
        alloc_(kPageSize, kIoHeap),
        tree_(&pager_, &alloc_, 0),
        model_(Pattern(kBase)) {
    pager_.SetChecksums(&checksums_);
    EXPECT_TRUE(tree_.Write(0, model_).ok());
    reads_ = dev_.reads_attempted();
    writes_ = dev_.writes_attempted();
    dev_.sizes.clear();
    allocated_ = stats::Get(stats::Counter::kExtentsAllocated);
  }

  // Drops every resident page and reads the tree's page back in: the payload alone is
  // cold, as a payload written long ago and since evicted would be.
  void DropPayloadPages() {
    ASSERT_TRUE(pager_.DropCacheForTesting().ok());
    ASSERT_TRUE(tree_.CountExtents().ok());
    reads_ = dev_.reads_attempted();
    writes_ = dev_.writes_attempted();
    dev_.sizes.clear();
  }

  uint64_t Reads() const { return dev_.reads_attempted() - reads_; }
  uint64_t Writes() const { return dev_.writes_attempted() - writes_; }
  uint64_t Allocated() const {
    return stats::Get(stats::Counter::kExtentsAllocated) - allocated_;
  }

  WriteSizeLogDevice dev_;
  PageChecksums checksums_;
  Pager pager_;
  BuddyAllocator alloc_;
  ExtentTree tree_;
  std::string model_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t allocated_ = 0;
};

TEST_F(ExtentIoTest, InsertInsideAnExtentWritesOneExtentCarryingTheTail) {
  DropPayloadPages();
  const std::string data(1000, 'I');
  ASSERT_TRUE(tree_.Insert(5000, data).ok());
  EXPECT_EQ(Allocated(), 1u);
  // The tail read only: the new extent's partly written last page is stamped over the
  // bytes it owns, with no read-back.
  EXPECT_EQ(Reads(), 1u);
  EXPECT_EQ(dev_.sizes, std::vector<size_t>{data.size() + kBase - 5000});
  model_.insert(5000, data);
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(*tree_.CountExtents(), 2u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentIoTest, RemoveRangeInsideAnExtentWritesOnlyTheBytesAfterIt) {
  DropPayloadPages();
  ASSERT_TRUE(tree_.RemoveRange(3000, 2000).ok());
  EXPECT_EQ(Allocated(), 1u);
  EXPECT_EQ(dev_.sizes, std::vector<size_t>{kBase - 5000});
  EXPECT_EQ(Reads(), 1u);  // The surviving tail's read; its fresh extent reads nothing back.
  model_.erase(3000, 2000);
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(*tree_.CountExtents(), 2u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// The same two edits right after the extent was written: the tail they carry is still
// resident from that write, so they read nothing, and neither do the reads after them.
TEST_F(ExtentIoTest, InsertInsideAFreshlyWrittenExtentReadsNothing) {
  const std::string data(1000, 'I');
  ASSERT_TRUE(tree_.Insert(5000, data).ok());
  EXPECT_EQ(dev_.sizes, std::vector<size_t>{data.size() + kBase - 5000});
  model_.insert(5000, data);
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(Reads(), 0u);
}

TEST_F(ExtentIoTest, RemoveRangeInsideAFreshlyWrittenExtentReadsNothing) {
  ASSERT_TRUE(tree_.RemoveRange(3000, 2000).ok());
  EXPECT_EQ(dev_.sizes, std::vector<size_t>{kBase - 5000});
  model_.erase(3000, 2000);
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(Reads(), 0u);
}

// A middle insert cuts the extent in place: the page holding the cut keeps the bytes
// before it resident, and the pages wholly past it, which the extent no longer owns,
// leave the cache.
TEST_F(ExtentIoTest, MiddleInsertDropsThePagesPastTheCut) {
  const uint64_t first = FirstExtent(tree_);
  for (uint64_t page = 0; page < 3; page++) {
    ASSERT_NE(pager_.Peek(first + page * kPageSize), nullptr) << page;
  }
  ASSERT_TRUE(tree_.Insert(3000, "inserted").ok());
  EXPECT_NE(pager_.Peek(first), nullptr);
  EXPECT_EQ(pager_.Peek(first + kPageSize), nullptr);
  EXPECT_EQ(pager_.Peek(first + 2 * kPageSize), nullptr);
  model_.insert(3000, "inserted");
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(Reads(), 0u);
}

// A freed extent leaves no page in the cache, and the next owner of its block, a
// shorter extent of another object, reads back its own bytes.
TEST_F(ExtentIoTest, FreedExtentKeepsNoResidentPageForItsNextOwner) {
  ExtentTree old(&pager_, &alloc_, 0);
  ASSERT_TRUE(old.Write(0, Pattern(4 * kPageSize - 100)).ok());
  const uint64_t block = FirstExtent(old);
  ASSERT_TRUE(old.Clear().ok());
  for (uint64_t page = 0; page < 4; page++) {
    EXPECT_EQ(pager_.Peek(block + page * kPageSize), nullptr) << page;
  }
  ExtentTree next(&pager_, &alloc_, 0);
  const std::string body(2 * kPageSize + 1000, 'N');
  ASSERT_TRUE(next.Write(0, body).ok());
  ASSERT_EQ(FirstExtent(next), block) << "the block was not re-used";
  EXPECT_EQ(ReadWhole(next), body);
  EXPECT_EQ(pager_.Peek(block + 3 * kPageSize), nullptr);
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());
  EXPECT_EQ(ReadWhole(next), body);
}

// An object's first bytes (a create with a body) go to a fresh extent: one device write
// and no read, whatever the length.
TEST_F(ExtentIoTest, AppendIntoAnEmptyObjectReadsNothing) {
  const uint64_t readbacks = stats::Get(stats::Counter::kRawWriteReadbacks);
  for (size_t n : {size_t{1000}, kPageSize, 3 * kPageSize + 100}) {
    ExtentTree fresh(&pager_, &alloc_, 0);
    const std::string body = Pattern(n);
    reads_ = dev_.reads_attempted();
    dev_.sizes.clear();
    ASSERT_TRUE(fresh.Write(0, body).ok());
    EXPECT_EQ(Reads(), 0u) << n << " bytes";
    EXPECT_EQ(dev_.sizes, std::vector<size_t>{n});
    EXPECT_EQ(ReadWhole(fresh), body);
    ASSERT_TRUE(fresh.Clear().ok());
  }
  EXPECT_EQ(stats::Get(stats::Counter::kRawWriteReadbacks), readbacks);
}

TEST_F(ExtentIoTest, ShrinkingTruncateDoesNoDataIo) {
  // Grow to several extents first, then cut back to the middle of the first one, as
  // Osd::Truncate does with RemoveRange(new_size, size - new_size).
  const std::string more = Pattern(200 * 1024);
  ASSERT_TRUE(tree_.Insert(tree_.Size(), more).ok());
  model_ += more;
  ASSERT_GT(*tree_.CountExtents(), 3u);
  reads_ = dev_.reads_attempted();
  writes_ = dev_.writes_attempted();
  allocated_ = stats::Get(stats::Counter::kExtentsAllocated);
  ASSERT_TRUE(tree_.RemoveRange(4000, tree_.Size() - 4000).ok());
  EXPECT_EQ(Reads(), 0u);
  EXPECT_EQ(Writes(), 0u);
  EXPECT_EQ(Allocated(), 0u);
  model_.resize(4000);
  EXPECT_EQ(ReadWhole(tree_), model_);
  EXPECT_EQ(*tree_.CountExtents(), 1u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// Property test: mirror a std::string model through random byte operations.
struct ExtentWorkload {
  uint64_t seed;
  int ops;
  uint64_t max_piece;  // Largest single write/insert.
};

// Printed into the CTest name (".../seed101_ops1500_max64") instead of the raw struct
// bytes, whose padding changes from build to build.
void PrintTo(const ExtentWorkload& w, std::ostream* os) {
  *os << "seed" << w.seed << "_ops" << w.ops << "_max" << w.max_piece;
}

class ExtentTreePropertyTest : public ::testing::TestWithParam<ExtentWorkload> {};

TEST_P(ExtentTreePropertyTest, MatchesStringModel) {
  const ExtentWorkload p = GetParam();
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 2048);
  BuddyAllocator alloc(kPageSize, kHeap);
  ExtentTree tree(&pager, &alloc, 0);
  std::string model;
  Random rng(p.seed);

  for (int op = 0; op < p.ops; op++) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 3) {  // Write at random legal offset.
      uint64_t off = model.empty() ? 0 : rng.Uniform(model.size() + 1);
      std::string data = rng.NextString(rng.Range(1, p.max_piece));
      ASSERT_TRUE(tree.Write(off, data).ok());
      if (off + data.size() > model.size()) {
        model.resize(off + data.size());
      }
      model.replace(off, data.size(), data);
    } else if (action < 6) {  // Insert at random offset.
      uint64_t off = model.empty() ? 0 : rng.Uniform(model.size() + 1);
      std::string data = rng.NextString(rng.Range(1, p.max_piece));
      ASSERT_TRUE(tree.Insert(off, data).ok());
      model.insert(off, data);
    } else if (action < 8 && !model.empty()) {  // RemoveRange.
      uint64_t off = rng.Uniform(model.size());
      uint64_t len = rng.Range(1, model.size() - off);
      ASSERT_TRUE(tree.RemoveRange(off, len).ok());
      model.erase(off, len);
    } else if (!model.empty()) {  // Random read.
      uint64_t off = rng.Uniform(model.size());
      size_t n = rng.Range(1, p.max_piece);
      std::string out;
      ASSERT_TRUE(tree.Read(off, n, &out).ok());
      ASSERT_EQ(out, model.substr(off, n));
    }
    ASSERT_EQ(tree.Size(), model.size());
  }
  std::string all;
  ASSERT_TRUE(tree.Read(0, tree.Size(), &all).ok());
  ASSERT_EQ(all, model);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ExtentTreePropertyTest,
    ::testing::Values(ExtentWorkload{101, 1500, 64},           // Tiny pieces, many ops.
                      ExtentWorkload{202, 600, 4096},          // Page-ish pieces.
                      ExtentWorkload{303, 200, 150 * 1024},    // Pieces above kMaxExtentSize.
                      ExtentWorkload{404, 1000, 700}));        // Mixed.

}  // namespace
}  // namespace extent
}  // namespace hfad
