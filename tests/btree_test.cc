// Unit + property tests for the slotted-page B+tree.
#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/btree/btree.h"
#include "src/common/random.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/checksums.h"
#include "src/storage/pager.h"

namespace hfad {
namespace btree {
namespace {

constexpr uint64_t kHeap = 64 * 1024 * 1024;

// Shared fixture: a memory device, pager, and allocator per test.
class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : dev_(kPageSize + kHeap),
        pager_(&dev_, 1024),
        alloc_(kPageSize, kHeap),
        tree_(&pager_, &alloc_, 0) {}

  MemoryBlockDevice dev_;
  Pager pager_;
  BuddyAllocator alloc_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_.root(), 0u);
  EXPECT_EQ(tree_.Count(), 0u);
  EXPECT_FALSE(tree_.Contains("a"));
  EXPECT_TRUE(tree_.Get("a").status().IsNotFound());
  EXPECT_TRUE(tree_.Delete("a").IsNotFound());
  int visited = 0;
  ASSERT_TRUE(tree_.Scan("", "", [&](Slice, Slice) {
    visited++;
    return true;
  }).ok());
  EXPECT_EQ(visited, 0);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_.Put("key", "value").ok());
  EXPECT_NE(tree_.root(), 0u);
  EXPECT_EQ(tree_.Count(), 1u);
  auto v = tree_.Get("key");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value");
}

TEST_F(BTreeTest, PutOverwrites) {
  ASSERT_TRUE(tree_.Put("k", "v1").ok());
  ASSERT_TRUE(tree_.Put("k", "v2-longer-than-before").ok());
  EXPECT_EQ(tree_.Count(), 1u);
  EXPECT_EQ(*tree_.Get("k"), "v2-longer-than-before");
  ASSERT_TRUE(tree_.Put("k", "s").ok());  // Shrink.
  EXPECT_EQ(*tree_.Get("k"), "s");
  EXPECT_EQ(tree_.Count(), 1u);
}

TEST_F(BTreeTest, EmptyValueAndEmptyKey) {
  ASSERT_TRUE(tree_.Put("k", "").ok());
  auto v = tree_.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
  // Empty key is a legal byte string.
  ASSERT_TRUE(tree_.Put("", "empty-key").ok());
  EXPECT_EQ(*tree_.Get(""), "empty-key");
  EXPECT_EQ(tree_.Count(), 2u);
}

TEST_F(BTreeTest, KeyTooLargeRejected) {
  std::string big(kMaxKeySize + 1, 'k');
  EXPECT_FALSE(tree_.Put(big, "v").ok());
  std::string ok_key(kMaxKeySize, 'k');
  EXPECT_TRUE(tree_.Put(ok_key, "v").ok());
}

TEST_F(BTreeTest, DeleteRestoresAbsence) {
  ASSERT_TRUE(tree_.Put("a", "1").ok());
  ASSERT_TRUE(tree_.Put("b", "2").ok());
  ASSERT_TRUE(tree_.Delete("a").ok());
  EXPECT_FALSE(tree_.Contains("a"));
  EXPECT_TRUE(tree_.Contains("b"));
  EXPECT_EQ(tree_.Count(), 1u);
  EXPECT_TRUE(tree_.Delete("a").IsNotFound());
}

TEST_F(BTreeTest, ManyInsertsForceSplits) {
  constexpr int kN = 5000;
  for (int i = 0; i < kN; i++) {
    std::string key = "key" + std::to_string(i * 7919 % kN);  // Shuffled order.
    ASSERT_TRUE(tree_.Put(key, "value-" + key).ok()) << i;
  }
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  auto h = tree_.Height();
  ASSERT_TRUE(h.ok());
  EXPECT_GE(*h, 2);  // Must have split at least once.
  for (int i = 0; i < kN; i++) {
    std::string key = "key" + std::to_string(i);
    auto v = tree_.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, "value-" + key);
  }
  EXPECT_EQ(tree_.Count(), static_cast<uint64_t>(kN));
}

TEST_F(BTreeTest, ScanIsOrderedAndBounded) {
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    ASSERT_TRUE(tree_.Put(buf, std::to_string(i)).ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(tree_.Scan("k0100", "k0200", [&](Slice k, Slice v) {
    keys.push_back(k.ToString());
    EXPECT_EQ(v.ToString(), std::to_string(std::stoi(k.ToString().substr(1))));
    return true;
  }).ok());
  ASSERT_EQ(keys.size(), 100u);
  EXPECT_EQ(keys.front(), "k0100");
  EXPECT_EQ(keys.back(), "k0199");
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_.Put("k" + std::to_string(100 + i), "v").ok());
  }
  int seen = 0;
  ASSERT_TRUE(tree_.Scan("", "", [&](Slice, Slice) {
    seen++;
    return seen < 10;
  }).ok());
  EXPECT_EQ(seen, 10);
}

TEST_F(BTreeTest, ScanPrefix) {
  ASSERT_TRUE(tree_.Put("app/alpha", "1").ok());
  ASSERT_TRUE(tree_.Put("app/beta", "2").ok());
  ASSERT_TRUE(tree_.Put("apple", "3").ok());
  ASSERT_TRUE(tree_.Put("aqua", "4").ok());
  std::vector<std::string> hits;
  ASSERT_TRUE(tree_.ScanPrefix("app/", [&](Slice k, Slice) {
    hits.push_back(k.ToString());
    return true;
  }).ok());
  EXPECT_EQ(hits, (std::vector<std::string>{"app/alpha", "app/beta"}));
}

TEST_F(BTreeTest, ScanPrefixWith0xFFBytes) {
  // Prefix ending in 0xFF exercises the "increment prefix" upper-bound logic.
  std::string pre = "a";
  pre.push_back(static_cast<char>(0xff));
  ASSERT_TRUE(tree_.Put(pre + "1", "v1").ok());
  ASSERT_TRUE(tree_.Put(pre + "2", "v2").ok());
  ASSERT_TRUE(tree_.Put("b", "other").ok());
  int hits = 0;
  ASSERT_TRUE(tree_.ScanPrefix(pre, [&](Slice, Slice) {
    hits++;
    return true;
  }).ok());
  EXPECT_EQ(hits, 2);
}

TEST_F(BTreeTest, LargeValuesSpillToOverflow) {
  std::string big(100 * 1024, 'B');
  ASSERT_TRUE(tree_.Put("big", big).ok());
  std::string medium(kMaxInlineValue + 1, 'M');
  ASSERT_TRUE(tree_.Put("medium", medium).ok());
  EXPECT_EQ(*tree_.Get("big"), big);
  EXPECT_EQ(*tree_.Get("medium"), medium);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  // Overwriting an overflow value frees the old extent (no leak => allocator count stable
  // after delete).
  size_t before = alloc_.allocation_count();
  ASSERT_TRUE(tree_.Put("big", "now-small").ok());
  EXPECT_LT(alloc_.allocation_count(), before);
  ASSERT_TRUE(tree_.Delete("medium").ok());
  EXPECT_EQ(*tree_.Get("big"), "now-small");
}

TEST_F(BTreeTest, ClearFreesEverything) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree_.Put("key" + std::to_string(i), std::string(200, 'v')).ok());
  }
  ASSERT_TRUE(tree_.Clear().ok());
  EXPECT_EQ(tree_.root(), 0u);
  EXPECT_EQ(tree_.Count(), 0u);
  EXPECT_EQ(alloc_.allocation_count(), 0u);  // All pages and overflow extents returned.
  // Tree is reusable after Clear.
  ASSERT_TRUE(tree_.Put("x", "y").ok());
  EXPECT_EQ(*tree_.Get("x"), "y");
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree_.Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  uint64_t root = tree_.root();
  ASSERT_TRUE(pager_.Flush().ok());
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());

  BTree reopened(&pager_, &alloc_, root);
  EXPECT_EQ(reopened.Count(), 3000u);
  for (int i = 0; i < 3000; i += 17) {
    auto v = reopened.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  ASSERT_TRUE(reopened.CheckInvariants().ok());
}

TEST_F(BTreeTest, DeleteToEmptyFreesAllPages) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree_.Put("key" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree_.Delete("key" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(tree_.Count(), 0u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  // All pages reclaimed: the allocator should be (nearly) empty — at most the root.
  EXPECT_LE(alloc_.allocation_count(), 1u);
}

TEST_F(BTreeTest, BinaryKeysAndValues) {
  // Keys containing every byte value, including 0x00 and 0xFF.
  std::vector<std::string> keys;
  for (int b = 0; b < 256; b++) {
    std::string k;
    k.push_back(static_cast<char>(b));
    k.push_back('\0');
    k.push_back(static_cast<char>(255 - b));
    keys.push_back(k);
    std::string v(3, static_cast<char>(b));
    ASSERT_TRUE(tree_.Put(k, v).ok());
  }
  for (int b = 0; b < 256; b++) {
    auto v = tree_.Get(keys[b]);
    ASSERT_TRUE(v.ok()) << b;
    EXPECT_EQ(*v, std::string(3, static_cast<char>(b)));
  }
  // Scan returns them in unsigned-byte order.
  std::vector<std::string> scanned;
  ASSERT_TRUE(tree_.Scan("", "", [&](Slice k, Slice) {
    scanned.push_back(k.ToString());
    return true;
  }).ok());
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(scanned, sorted);
}

TEST_F(BTreeTest, TwoTreesShareAllocatorIndependently) {
  BTree other(&pager_, &alloc_, 0);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(tree_.Put("a" + std::to_string(i), "1").ok());
    ASSERT_TRUE(other.Put("b" + std::to_string(i), "2").ok());
  }
  EXPECT_EQ(tree_.Count(), 500u);
  EXPECT_EQ(other.Count(), 500u);
  EXPECT_FALSE(tree_.Contains("b0"));
  EXPECT_FALSE(other.Contains("a0"));
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  ASSERT_TRUE(other.CheckInvariants().ok());
}

// Property test: mirror a std::map through random Put/Delete/Get/Scan and verify
// equivalence, across value-size regimes (inline vs overflow).
struct WorkloadParam {
  uint64_t seed;
  size_t min_value;
  size_t max_value;
  int ops;
};

// Printed into the CTest name (".../seed1_values1to32_ops4000") instead of the raw
// struct bytes, whose padding changes from build to build.
void PrintTo(const WorkloadParam& w, std::ostream* os) {
  *os << "seed" << w.seed << "_values" << w.min_value << "to" << w.max_value << "_ops"
      << w.ops;
}

class BTreePropertyTest : public ::testing::TestWithParam<WorkloadParam> {};

TEST_P(BTreePropertyTest, MatchesStdMap) {
  const WorkloadParam p = GetParam();
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 512);
  BuddyAllocator alloc(kPageSize, kHeap);
  BTree tree(&pager, &alloc, 0);
  std::map<std::string, std::string> model;
  Random rng(p.seed);

  for (int op = 0; op < p.ops; op++) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 5) {  // Put
      std::string key = "k" + std::to_string(rng.Uniform(500));
      std::string value = rng.NextString(rng.Range(p.min_value, p.max_value));
      ASSERT_TRUE(tree.Put(key, value).ok());
      model[key] = value;
    } else if (action < 7) {  // Delete
      std::string key = "k" + std::to_string(rng.Uniform(500));
      Status s = tree.Delete(key);
      if (model.erase(key)) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else if (action < 9) {  // Get
      std::string key = "k" + std::to_string(rng.Uniform(500));
      auto v = tree.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(v.status().IsNotFound());
      } else {
        ASSERT_TRUE(v.ok());
        ASSERT_EQ(*v, it->second);
      }
    } else {  // Full scan equivalence.
      auto it = model.begin();
      bool mismatch = false;
      ASSERT_TRUE(tree.Scan("", "", [&](Slice k, Slice v) {
        if (it == model.end() || it->first != k.ToString() || it->second != v.ToString()) {
          mismatch = true;
          return false;
        }
        ++it;
        return true;
      }).ok());
      ASSERT_FALSE(mismatch);
      ASSERT_TRUE(it == model.end());
    }
    ASSERT_EQ(tree.Count(), model.size());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BTreePropertyTest,
    ::testing::Values(WorkloadParam{1, 1, 32, 4000},        // Small inline values.
                      WorkloadParam{2, 100, 800, 3000},     // Mid-size inline values.
                      WorkloadParam{3, 1400, 2000, 1500},   // Straddles the overflow limit.
                      WorkloadParam{4, 3000, 9000, 800},    // All overflow values.
                      WorkloadParam{5, 1, 9000, 2000}));    // Mixed.

// ---------------------------------------------------------------- BulkLoad

TEST_F(BTreeTest, BulkLoadIntoEmptyTreeMatchesPuts) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 5000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i);
    entries.emplace_back(key, "v" + std::to_string(i));
  }
  uint64_t inserted = 0;
  ASSERT_TRUE(tree_.BulkLoad(entries, &inserted).ok());
  EXPECT_EQ(inserted, entries.size());
  EXPECT_EQ(tree_.Count(), entries.size());
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  for (const auto& [k, v] : entries) {
    auto got = tree_.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(BTreeTest, BulkLoadRejectsOutOfOrderBeforeMutating) {
  ASSERT_TRUE(tree_.Put("existing", "x").ok());
  std::vector<std::pair<std::string, std::string>> bad = {
      {"b", "1"}, {"a", "2"}};
  EXPECT_TRUE(tree_.BulkLoad(bad).IsInvalidArgument());
  // Nothing was applied.
  EXPECT_EQ(tree_.Count(), 1u);
  EXPECT_FALSE(tree_.Contains("b"));
  std::string big_key(1024, 'k');
  std::vector<std::pair<std::string, std::string>> oversize = {{big_key, "v"}};
  EXPECT_TRUE(tree_.BulkLoad(oversize).IsInvalidArgument());
}

TEST_F(BTreeTest, BulkLoadAdjacentDuplicatesLastWins) {
  std::vector<std::pair<std::string, std::string>> entries = {
      {"a", "first"}, {"a", "second"}, {"b", "only"}, {"c", "one"}, {"c", "two"}};
  uint64_t inserted = 0;
  ASSERT_TRUE(tree_.BulkLoad(entries, &inserted).ok());
  EXPECT_EQ(inserted, 3u);
  EXPECT_EQ(tree_.Count(), 3u);
  EXPECT_EQ(*tree_.Get("a"), "second");
  EXPECT_EQ(*tree_.Get("c"), "two");
}

TEST_F(BTreeTest, BulkLoadOverwritesAndInterleavesWithExistingKeys) {
  // Seed via Put, then bulk-load a run that interleaves fresh keys with overwrites.
  for (int i = 0; i < 1000; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree_.Put(key, "old").ok());
  }
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    entries.emplace_back(key, "new" + std::to_string(i));
  }
  uint64_t inserted = 0;
  ASSERT_TRUE(tree_.BulkLoad(entries, &inserted).ok());
  EXPECT_EQ(inserted, 500u);  // The odd keys; evens were overwrites.
  EXPECT_EQ(tree_.Count(), 1000u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    EXPECT_EQ(*tree_.Get(key), "new" + std::to_string(i));
  }
}

TEST_F(BTreeTest, BulkLoadOverflowValuesAndScanOrder) {
  std::vector<std::pair<std::string, std::string>> entries;
  Random rng(77);
  for (int i = 0; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "ov%06d", i);
    // Straddle the inline/overflow boundary.
    entries.emplace_back(key, rng.NextString(1200 + rng.Uniform(800)));
  }
  ASSERT_TRUE(tree_.BulkLoad(entries).ok());
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  size_t i = 0;
  ASSERT_TRUE(tree_.Scan("", "", [&](Slice k, Slice v) {
    EXPECT_EQ(k.ToString(), entries[i].first);
    EXPECT_EQ(v.ToString(), entries[i].second);
    i++;
    return true;
  }).ok());
  EXPECT_EQ(i, entries.size());
  // Overwriting an overflow value through BulkLoad frees the old extent cleanly.
  std::vector<std::pair<std::string, std::string>> overwrite = {
      {"ov000000", "short now"}};
  ASSERT_TRUE(tree_.BulkLoad(overwrite).ok());
  EXPECT_EQ(*tree_.Get("ov000000"), "short now");
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// A value past kMaxInlineValue goes to a freshly allocated overflow extent: with
// checksums on, its partly written last page is stamped over the value's bytes, so the
// Put reads nothing from the device, and the value still reads back verified.
TEST(BTreeOverflowIoTest, OverflowPutReadsNothing) {
  constexpr uint64_t kSmallHeap = 4 * 1024 * 1024;
  auto base = std::make_shared<MemoryBlockDevice>(kPageSize + kSmallHeap);
  FaultyBlockDevice dev(base);
  PageChecksums checksums(kPageSize + kSmallHeap, kPageSize);
  Pager pager(&dev, 256);
  pager.SetChecksums(&checksums);
  BuddyAllocator alloc(kPageSize, kSmallHeap);
  BTree tree(&pager, &alloc, 0);
  ASSERT_TRUE(tree.Put("inline", "v").ok());  // The root page is resident from here on.
  const std::string values[] = {std::string(kMaxInlineValue + 1, 'o'),
                                std::string(3 * kPageSize + 100, 'p')};
  for (const std::string& value : values) {
    const uint64_t reads = dev.reads_attempted();
    ASSERT_TRUE(tree.Put("big" + std::to_string(value.size()), value).ok());
    EXPECT_EQ(dev.reads_attempted() - reads, 0u) << value.size() << "-byte value";
  }
  for (const std::string& value : values) {
    auto got = tree.Get("big" + std::to_string(value.size()));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
}

// An overflow value's pages stay resident after its Put, so reading it back reads
// nothing. Deleting it drops them before its block goes back to the allocator; the
// block's next owners, another value and then tree pages made with GetZeroed, read back
// only their own bytes, from memory and after the cache is dropped.
TEST(BTreeOverflowIoTest, FreedOverflowBlockKeepsNoResidentPage) {
  constexpr uint64_t kSmallHeap = 4 * 1024 * 1024;
  FaultyBlockDevice dev(std::make_shared<MemoryBlockDevice>(kPageSize + kSmallHeap));
  Pager pager(&dev, 256);
  BuddyAllocator alloc(kPageSize, kSmallHeap);
  BTree tree(&pager, &alloc, 0);
  ASSERT_TRUE(tree.Put("inline", "v").ok());
  // The block a Put of `value` under `key` spills to: the one live extent it added.
  auto put_overflow = [&](const std::string& key, const std::string& value) -> uint64_t {
    const std::vector<BuddyAllocator::Extent> before = alloc.LiveExtents();
    EXPECT_TRUE(tree.Put(key, value).ok());
    for (const BuddyAllocator::Extent& e : alloc.LiveExtents()) {
      const auto same = [&](const BuddyAllocator::Extent& b) { return b.offset == e.offset; };
      if (std::none_of(before.begin(), before.end(), same)) {
        return e.offset;
      }
    }
    ADD_FAILURE() << "no overflow block for " << key;
    return 0;
  };
  const std::string first(3 * kPageSize + 100, 'p');
  const uint64_t block = put_overflow("big", first);
  const uint64_t reads = dev.reads_attempted();
  EXPECT_EQ(tree.Get("big").value_or(""), first);
  EXPECT_EQ(dev.reads_attempted() - reads, 0u);

  ASSERT_TRUE(tree.Delete("big").ok());
  for (uint64_t page = 0; page < 4; page++) {
    EXPECT_EQ(pager.Peek(block + page * kPageSize), nullptr) << page;
  }
  const std::string second(2 * kPageSize + 10, 'q');  // Same block size, one page fewer.
  ASSERT_EQ(put_overflow("other", second), block) << "the block was not re-used";
  EXPECT_EQ(tree.Get("other").value_or(""), second);
  EXPECT_EQ(pager.Peek(block + 3 * kPageSize), nullptr);

  // Free the block again, then grow the tree until its pages take it over.
  ASSERT_TRUE(tree.Delete("other").ok());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000 && pager.Peek(block) == nullptr; i++) {
    const std::string key = "key" + std::to_string(1000000 + i);
    model[key] = std::string(100, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(tree.Put(key, model[key]).ok());
  }
  ASSERT_NE(pager.Peek(block), nullptr) << "no tree page took the block over";
  for (int pass = 0; pass < 2; pass++) {
    for (const auto& [key, value] : model) {
      ASSERT_EQ(tree.Get(key).value_or(""), value) << key << " pass " << pass;
    }
    ASSERT_TRUE(tree.CheckInvariants().ok());
    ASSERT_TRUE(pager.DropCacheForTesting().ok());
  }
}

}  // namespace
}  // namespace btree
}  // namespace hfad
