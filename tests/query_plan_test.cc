// Tests for the unified naming core: planner ordering, posting-iterator seek semantics,
// Find pagination (including stability under concurrent tag mutation), and
// NamespaceBatch atomicity — live and across crash recovery (FaultyBlockDevice).
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filesystem.h"
#include "src/index/index_store.h"
#include "src/index/posting_iterator.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace core {
namespace {

constexpr uint64_t kDev = 256 * 1024 * 1024;

FileSystemOptions FastOptions() {
  FileSystemOptions options;
  options.osd.journaling = false;
  return options;
}

class QueryPlanTest : public ::testing::Test {
 protected:
  QueryPlanTest() {
    auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), FastOptions());
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  ObjectId Create(const std::vector<TagValue>& names) {
    auto oid = fs_->Create(names);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return oid.ok() ? *oid : 0;
  }

  std::unique_ptr<FileSystem> fs_;
};

// ---------------------------------------------------------------- planner ordering

TEST_F(QueryPlanTest, SmallestPostingListDrivesTheIntersection) {
  ObjectId needle = Create({{"UDEF", "common"}, {"UDEF", "rare"}});
  for (int i = 0; i < 400; i++) {
    Create({{"UDEF", "common"}});
  }
  query::PlanStats stats;
  auto r = fs_->Find("UDEF:common AND UDEF:rare", {0, 0, &stats});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ids, (std::vector<ObjectId>{needle}));
  // The planner must open "rare" (1 posting) as the driver and degrade "common" (401
  // postings) to membership probes: one stream opened, one probe, tiny row count.
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.membership_probes, 1u);
  EXPECT_LT(stats.rows_scanned, 8u);
}

TEST_F(QueryPlanTest, TextualOrderWithoutOptimizer) {
  Create({{"UDEF", "common2"}, {"UDEF", "rare2"}});
  for (int i = 0; i < 200; i++) {
    Create({{"UDEF", "common2"}});
  }
  query::PlanStats naive;
  query::QueryEngine engine(fs_->indexes(), /*optimize=*/false);
  auto r = engine.Run("UDEF:common2 AND UDEF:rare2", &naive);
  ASSERT_TRUE(r.ok());
  // Unoptimized: the textual-order driver scans all 201 common postings.
  EXPECT_GE(naive.rows_scanned, 201u);
  EXPECT_EQ(naive.membership_probes, 0u);
}

TEST_F(QueryPlanTest, EmptyDriverNeverOpensTheOtherConjuncts) {
  for (int i = 0; i < 50; i++) {
    Create({{"UDEF", "everywhere2"}});
  }
  query::PlanStats stats;
  auto r = fs_->Find("UDEF:everywhere2 AND UDEF:absent2", {0, 0, &stats});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ids.empty());
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_TRUE(stats.early_exit);
}

// ---------------------------------------------------------------- prefix terms

TEST_F(QueryPlanTest, PrefixTermMatchesValuePrefix) {
  ObjectId grandma = Create({{"UDEF", "person:grandma"}});
  ObjectId grandpa = Create({{"UDEF", "person:grandpa"}});
  Create({{"UDEF", "place:hawaii"}});
  auto r = fs_->Find("UDEF:person:*");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ids, (std::vector<ObjectId>{grandma, grandpa}));

  // Prefix terms compose with the rest of the algebra.
  auto conj = fs_->Find("UDEF:person:* AND NOT UDEF:person:grandpa");
  ASSERT_TRUE(conj.ok());
  EXPECT_EQ(conj->ids, (std::vector<ObjectId>{grandma}));

  // A quoted star stays literal.
  auto literal = fs_->Find("UDEF:\"person:*\"");
  ASSERT_TRUE(literal.ok());
  EXPECT_TRUE(literal->ids.empty());
}

// ---------------------------------------------------------------- iterator semantics

TEST_F(QueryPlanTest, PostingIteratorSeeksAcrossBatches) {
  // More than two scan batches (kBatch = 1024) so seeks cross refills.
  constexpr int kCount = 2600;
  std::vector<ObjectId> all;
  for (int i = 0; i < kCount; i++) {
    all.push_back(Create({{"UDEF", "big"}}));
  }
  const index::IndexStore* store = fs_->indexes()->store("UDEF");
  auto it = store->OpenPostings("big");
  ASSERT_TRUE(it.ok());

  ASSERT_TRUE((*it)->SeekTo(0).ok());
  ASSERT_TRUE((*it)->Valid());
  EXPECT_EQ((*it)->Value(), all.front());

  // Forward seek deep into a later batch.
  ObjectId mid = all[2000];
  ASSERT_TRUE((*it)->SeekTo(mid).ok());
  ASSERT_TRUE((*it)->Valid());
  EXPECT_EQ((*it)->Value(), mid);

  // Backward seek is a no-op (forward-only contract).
  ASSERT_TRUE((*it)->SeekTo(all[10]).ok());
  EXPECT_EQ((*it)->Value(), mid);

  // Seek to a non-member lower bound lands on the next member.
  ASSERT_TRUE((*it)->SeekTo(all.back() + 1).ok());
  EXPECT_FALSE((*it)->Valid());

  // Next() walks across a batch boundary without skipping or repeating.
  auto it2 = store->OpenPostings("big");
  ASSERT_TRUE(it2.ok());
  ASSERT_TRUE((*it2)->SeekTo(0).ok());
  std::vector<ObjectId> streamed;
  while ((*it2)->Valid()) {
    streamed.push_back((*it2)->Value());
    ASSERT_TRUE((*it2)->Next().ok());
  }
  EXPECT_EQ(streamed, all);
}

// ---------------------------------------------------------------- pagination

TEST_F(QueryPlanTest, FindPaginatesWithLimitAndAfter) {
  std::vector<ObjectId> all;
  for (int i = 0; i < 100; i++) {
    all.push_back(Create({{"UDEF", "paged"}}));
  }
  std::vector<ObjectId> collected;
  query::FindOptions options;
  options.limit = 7;
  int pages = 0;
  for (;;) {
    auto page = fs_->Find("UDEF:paged", options);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_LE(page->ids.size(), 7u);
    collected.insert(collected.end(), page->ids.begin(), page->ids.end());
    pages++;
    if (!page->has_more) {
      break;
    }
    EXPECT_EQ(page->next_after, page->ids.back());
    options.after = page->next_after;
  }
  EXPECT_EQ(collected, all);
  EXPECT_EQ(pages, 15);  // ceil(100 / 7)

  // Disjunctions and negations paginate through the same path.
  auto disj = fs_->Find("UDEF:paged OR UDEF:absent", {3, all[4], nullptr});
  ASSERT_TRUE(disj.ok());
  EXPECT_EQ(disj->ids, (std::vector<ObjectId>(all.begin() + 5, all.begin() + 8)));
  EXPECT_TRUE(disj->has_more);
}

TEST_F(QueryPlanTest, LookupAndFindAgree) {
  for (int i = 0; i < 30; i++) {
    Create({{"UDEF", "both"}, {"USER", i % 2 == 0 ? "margo" : "nick"}});
  }
  auto lookup = fs_->Lookup({{"UDEF", "both"}, {"USER", "margo"}});
  auto find = fs_->Find("UDEF:both AND USER:margo");
  ASSERT_TRUE(lookup.ok());
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(*lookup, find->ids);
}

TEST_F(QueryPlanTest, CursorRootResultsAreCappedPages) {
  const size_t total = SearchCursor::kDefaultResultLimit + 40;
  for (size_t i = 0; i < total; i++) {
    Create({{"UDEF", "cap"}});
  }
  SearchCursor cursor = fs_->OpenCursor();
  // The old footgun: an unrefined cursor enumerated the whole volume. Now: one page.
  auto page1 = cursor.Results();
  ASSERT_TRUE(page1.ok());
  EXPECT_EQ(page1->size(), SearchCursor::kDefaultResultLimit);

  // ResultsPage continues past it.
  size_t seen = 0;
  query::FindOptions options;
  options.limit = 256;
  for (;;) {
    auto page = cursor.ResultsPage(options);
    ASSERT_TRUE(page.ok());
    seen += page->ids.size();
    if (!page->has_more) {
      break;
    }
    options.after = page->next_after;
  }
  EXPECT_EQ(seen, total);

  // Refined cursors page through Find.
  ASSERT_TRUE(cursor.Refine({"UDEF", "cap"}).ok());
  auto refined = cursor.ResultsPage({5, 0, nullptr});
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->ids.size(), 5u);
  EXPECT_TRUE(refined->has_more);
}

TEST_F(QueryPlanTest, PaginationStableUnderConcurrentTagMutation) {
  // Stable objects keep the tag for the whole test; churn objects toggle it. Pages must
  // never duplicate or reorder an oid, and every stable object must appear exactly once
  // per full sweep.
  std::vector<ObjectId> stable;
  std::vector<ObjectId> churn;
  for (int i = 0; i < 150; i++) {
    stable.push_back(Create({{"UDEF", "sweep"}}));
  }
  for (int i = 0; i < 150; i++) {
    churn.push_back(Create({{"UDEF", "sweep"}}));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int round = 0;
    while (!stop.load()) {
      for (ObjectId oid : churn) {
        if (round % 2 == 0) {
          (void)fs_->RemoveTag(oid, {"UDEF", "sweep"});
        } else {
          (void)fs_->AddTag(oid, {"UDEF", "sweep"});
        }
      }
      round++;
    }
  });
  for (int sweep = 0; sweep < 30; sweep++) {
    std::set<ObjectId> seen;
    ObjectId last = 0;
    query::FindOptions options;
    options.limit = 16;
    for (;;) {
      auto page = fs_->Find("UDEF:sweep", options);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      for (ObjectId oid : page->ids) {
        EXPECT_GT(oid, last);  // Strictly ascending across the whole sweep.
        last = oid;
        EXPECT_TRUE(seen.insert(oid).second);  // Never a duplicate.
      }
      if (!page->has_more) {
        break;
      }
      options.after = page->next_after;
    }
    for (ObjectId oid : stable) {
      EXPECT_EQ(seen.count(oid), 1u);  // Unmutated objects never fall out of a sweep.
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------- NamespaceBatch

class NamespaceBatchTest : public ::testing::Test {
 protected:
  NamespaceBatchTest() {
    FileSystemOptions options;
    options.osd.group_commit = false;  // Every journaled op durable on return.
    base_ = std::make_shared<MemoryBlockDevice>(kDev);
    faulty_ = std::make_shared<FaultyBlockDevice>(base_);
    auto fs = FileSystem::Create(faulty_, options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  // Crash (no further writes reach the device, including destructor checkpoints) and
  // reopen from the underlying memory device.
  std::unique_ptr<FileSystem> CrashAndRecover() {
    faulty_->SetWriteBudget(0);
    fs_.reset();
    auto fs = FileSystem::Open(base_);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return fs.ok() ? std::move(fs).value() : nullptr;
  }

  std::shared_ptr<MemoryBlockDevice> base_;
  std::shared_ptr<FaultyBlockDevice> faulty_;
  std::unique_ptr<FileSystem> fs_;
};

TEST_F(NamespaceBatchTest, StagesAndAppliesMixedOps) {
  auto a = fs_->Create({{"UDEF", "old"}});
  auto b = fs_->Create(std::vector<TagValue>{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  NamespaceBatch batch = fs_->NewBatch();
  ASSERT_TRUE(batch.AddTag(*a, {"UDEF", "new"}).ok());
  ASSERT_TRUE(batch.RemoveTag(*a, {"UDEF", "old"}).ok());
  ASSERT_TRUE(batch.AddTag(*b, {"USER", "margo"}).ok());
  auto c = batch.Create({{"UDEF", "new"}, {"APP", "batcher"}});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(batch.size(), 5u);

  // Nothing applied before Commit.
  auto pre = fs_->Lookup({{"UDEF", "new"}});
  ASSERT_TRUE(pre.ok());
  EXPECT_TRUE(pre->empty());

  ASSERT_TRUE(batch.Commit().ok());
  EXPECT_TRUE(batch.empty());

  EXPECT_EQ(*fs_->Lookup({{"UDEF", "new"}}), (std::vector<ObjectId>{*a, *c}));
  EXPECT_TRUE(fs_->Lookup({{"UDEF", "old"}})->empty());
  EXPECT_EQ(*fs_->Lookup({{"USER", "margo"}}), (std::vector<ObjectId>{*b}));
  EXPECT_EQ(*fs_->Lookup({{"APP", "batcher"}}), (std::vector<ObjectId>{*c}));
}

TEST_F(NamespaceBatchTest, InvalidTagsRejectedAtStageTime) {
  auto a = fs_->Create(std::vector<TagValue>{});
  ASSERT_TRUE(a.ok());
  NamespaceBatch batch = fs_->NewBatch();
  EXPECT_FALSE(batch.AddTag(*a, {"FULLTEXT", "nope"}).ok());  // Not manually taggable.
  EXPECT_FALSE(batch.AddTag(*a, {"BOGUS", "x"}).ok());        // No such store.
  EXPECT_TRUE(batch.empty());
}

TEST_F(NamespaceBatchTest, RemovePreconditionRejectsWholeBatch) {
  auto a = fs_->Create({{"UDEF", "keep"}});
  ASSERT_TRUE(a.ok());
  NamespaceBatch batch = fs_->NewBatch();
  ASSERT_TRUE(batch.AddTag(*a, {"UDEF", "added"}).ok());
  ASSERT_TRUE(batch.RemoveTag(*a, {"UDEF", "never-there"}).ok());
  Status s = batch.Commit();
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  // All-or-nothing: the valid add did not slip through.
  EXPECT_TRUE(fs_->Lookup({{"UDEF", "added"}})->empty());
  EXPECT_EQ(*fs_->Lookup({{"UDEF", "keep"}}), (std::vector<ObjectId>{*a}));
}

TEST_F(NamespaceBatchTest, OneJournalRecordPerBatch) {
  auto a = fs_->Create(std::vector<TagValue>{});
  ASSERT_TRUE(a.ok());
  osd::Osd* volume = fs_->volume();

  uint64_t before = volume->journal_records_appended();
  NamespaceBatch batch = fs_->NewBatch();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(batch.AddTag(*a, {"UDEF", "b" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(batch.Commit().ok());
  EXPECT_EQ(volume->journal_records_appended() - before, 1u);

  before = volume->journal_records_appended();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(fs_->AddTag(*a, {"UDEF", "l" + std::to_string(i)}).ok());
  }
  EXPECT_EQ(volume->journal_records_appended() - before, 8u);
}

TEST_F(NamespaceBatchTest, CommittedBatchRecoversAsAUnit) {
  auto a = fs_->Create(std::vector<TagValue>{});
  auto b = fs_->Create({{"UDEF", "doomed"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  NamespaceBatch batch = fs_->NewBatch();
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(batch.AddTag(*a, {"UDEF", "unit" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(batch.RemoveTag(*b, {"UDEF", "doomed"}).ok());
  ASSERT_TRUE(batch.Commit().ok());  // group_commit off: the record is durable.

  auto fs = CrashAndRecover();
  ASSERT_NE(fs, nullptr);
  for (int i = 0; i < 6; i++) {
    auto r = fs->Lookup({{"UDEF", "unit" + std::to_string(i)}});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, (std::vector<ObjectId>{*a})) << "unit" << i;
  }
  EXPECT_TRUE(fs->Lookup({{"UDEF", "doomed"}})->empty());
  // The recovered namespace is internally consistent.
  auto tags = fs->Tags(*a);
  ASSERT_TRUE(tags.ok());
  EXPECT_EQ(tags->size(), 6u);
}

TEST(NamespaceBatchCrashTest, UnsyncedBatchVanishesAtomically) {
  // With group commit the batch record stays buffered until Sync(); a crash before the
  // sync must lose the WHOLE batch, not a prefix.
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  FileSystemOptions options;
  options.osd.group_commit = true;
  ObjectId a = 0;
  {
    auto fs = std::move(FileSystem::Create(faulty, options)).value();
    auto ra = fs->Create({{"UDEF", "pre-batch"}});
    ASSERT_TRUE(ra.ok());
    a = *ra;
    ASSERT_TRUE(fs->Sync().ok());  // Object + its pre-batch name are durable.
    NamespaceBatch batch = fs->NewBatch();
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(batch.AddTag(a, {"UDEF", "lost" + std::to_string(i)}).ok());
    }
    ASSERT_TRUE(batch.Commit().ok());
    faulty->SetWriteBudget(0);  // Crash before any sync.
  }
  auto fs = std::move(FileSystem::Open(base, options)).value();
  EXPECT_EQ(*fs->Lookup({{"UDEF", "pre-batch"}}), (std::vector<ObjectId>{a}));
  for (int i = 0; i < 5; i++) {
    auto r = fs->Lookup({{"UDEF", "lost" + std::to_string(i)}});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty()) << "lost" << i << " leaked through the crash";
  }
}

}  // namespace
}  // namespace core
}  // namespace hfad
