// Tests for the native hFAD API: naming, tagging, access, search cursors, and
// namespace crash recovery.
#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace core {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : dev_(std::make_shared<MemoryBlockDevice>(kDev)) {
    auto fs = FileSystem::Create(dev_);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  std::shared_ptr<MemoryBlockDevice> dev_;
  std::unique_ptr<FileSystem> fs_;
};

TEST_F(CoreTest, CreateWithInitialNames) {
  auto oid = fs_->Create({{"USER", "margo"}, {"UDEF", "thesis"}});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  auto by_user = fs_->Lookup({{"USER", "margo"}});
  ASSERT_TRUE(by_user.ok());
  EXPECT_EQ(*by_user, (std::vector<ObjectId>{*oid}));
  auto both = fs_->Lookup({{"USER", "margo"}, {"UDEF", "thesis"}});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(*both, (std::vector<ObjectId>{*oid}));
}

TEST_F(CoreTest, NamesNeedNotBeUnique) {
  // §3.1.1: "no query need uniquely define a data item."
  auto a = fs_->Create({{"UDEF", "draft"}});
  auto b = fs_->Create({{"UDEF", "draft"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto r = fs_->Lookup({{"UDEF", "draft"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(CoreTest, ManualTagsOnFulltextAndIdRejected) {
  auto oid = fs_->Create();
  ASSERT_TRUE(oid.ok());
  EXPECT_FALSE(fs_->AddTag(*oid, {"FULLTEXT", "sneaky"}).ok());
  EXPECT_FALSE(fs_->AddTag(*oid, {"ID", "42"}).ok());
  EXPECT_FALSE(fs_->Create({{"FULLTEXT", "x"}}).ok());
  EXPECT_FALSE(fs_->AddTag(*oid, {"UNKNOWNTAG", "x"}).ok());
}

TEST_F(CoreTest, TagsEnumeratesAllNames) {
  auto oid = fs_->Create({{"USER", "nick"}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs_->AddTag(*oid, {"UDEF", "inbox"}).ok());
  ASSERT_TRUE(fs_->AddTag(*oid, {"APP", "mailer"}).ok());
  auto tags = fs_->Tags(*oid);
  ASSERT_TRUE(tags.ok());
  ASSERT_EQ(tags->size(), 3u);
  EXPECT_EQ((*tags)[0].tag, "APP");
  EXPECT_EQ((*tags)[0].value, "mailer");
  EXPECT_EQ((*tags)[1].tag, "UDEF");
  EXPECT_EQ((*tags)[2].tag, "USER");
}

TEST_F(CoreTest, RemoveTagUnnames) {
  auto oid = fs_->Create({{"UDEF", "temp"}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs_->RemoveTag(*oid, {"UDEF", "temp"}).ok());
  auto r = fs_->Lookup({{"UDEF", "temp"}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_TRUE(fs_->RemoveTag(*oid, {"UDEF", "temp"}).IsNotFound());
}

TEST_F(CoreTest, RemoveStripsEveryName) {
  auto oid = fs_->Create({{"USER", "margo"}, {"UDEF", "a"}, {"UDEF", "b"}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs_->Write(*oid, 0, "searchable content here").ok());
  ASSERT_TRUE(fs_->IndexContent(*oid).ok());
  ASSERT_TRUE(fs_->Remove(*oid).ok());

  for (const auto& term : std::vector<TagValue>{{"USER", "margo"}, {"UDEF", "a"},
                                                {"UDEF", "b"}}) {
    auto r = fs_->Lookup({term});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty()) << term.tag << ":" << term.value;
  }
  auto text = fs_->Lookup({{"FULLTEXT", "searchable"}});
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text->empty());
  EXPECT_TRUE(fs_->Stat(*oid).status().IsNotFound());
}

TEST_F(CoreTest, AccessInterfaces) {
  auto oid = fs_->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs_->Write(*oid, 0, "hello world").ok());
  ASSERT_TRUE(fs_->Insert(*oid, 5, ",").ok());
  ASSERT_TRUE(fs_->Truncate(*oid, 6, 1).ok());  // Remove the space.
  std::string out;
  ASSERT_TRUE(fs_->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "hello,world");
  EXPECT_EQ(*fs_->Size(*oid), 11u);
}

TEST_F(CoreTest, FulltextContentIndexing) {
  auto report = fs_->Create({{"APP", "editor"}});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(fs_->Write(*report, 0, "quarterly sales grew twelve percent").ok());
  ASSERT_TRUE(fs_->IndexContent(*report).ok());

  auto hits = fs_->SearchText({"quarterly", "sales"});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].docid, *report);

  // Re-index after an edit: old terms vanish, new ones appear.
  ASSERT_TRUE(fs_->Truncate(*report, 0, *fs_->Size(*report)).ok());
  ASSERT_TRUE(fs_->Write(*report, 0, "annual loss").ok());
  ASSERT_TRUE(fs_->IndexContent(*report).ok());
  auto stale = fs_->Lookup({{"FULLTEXT", "quarterly"}});
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->empty());
  auto fresh = fs_->Lookup({{"FULLTEXT", "annual"}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, (std::vector<ObjectId>{*report}));
}

TEST_F(CoreTest, QueryIntegration) {
  auto a = fs_->Create({{"USER", "margo"}, {"UDEF", "beach"}});
  auto b = fs_->Create({{"USER", "margo"}, {"UDEF", "work"}});
  auto c = fs_->Create({{"USER", "nick"}, {"UDEF", "beach"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  auto r = fs_->Query("USER:margo AND NOT UDEF:work");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<ObjectId>{*a}));
  auto r2 = fs_->Query("UDEF:beach OR UDEF:work");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 3u);
}

TEST_F(CoreTest, IdFastpathThroughLookup) {
  auto oid = fs_->Create();
  ASSERT_TRUE(oid.ok());
  auto r = fs_->Lookup({{"ID", std::to_string(*oid)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<ObjectId>{*oid}));
}

// ---------------------------------------------------------------- search cursor

TEST_F(CoreTest, CursorRefinementNarrows) {
  auto a = fs_->Create({{"USER", "margo"}, {"UDEF", "photo"}, {"UDEF", "hawaii"}});
  auto b = fs_->Create({{"USER", "margo"}, {"UDEF", "photo"}, {"UDEF", "boston"}});
  auto c = fs_->Create({{"USER", "margo"}, {"UDEF", "doc"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());

  SearchCursor cursor = fs_->OpenCursor();
  ASSERT_TRUE(cursor.Refine({"USER", "margo"}).ok());
  auto r1 = cursor.Results();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 3u);

  ASSERT_TRUE(cursor.Refine({"UDEF", "photo"}).ok());
  auto r2 = cursor.Results();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, (std::vector<ObjectId>{*a, *b}));

  ASSERT_TRUE(cursor.Refine({"UDEF", "hawaii"}).ok());
  auto r3 = cursor.Results();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, (std::vector<ObjectId>{*a}));
  EXPECT_EQ(cursor.depth(), 3u);
}

TEST_F(CoreTest, CursorUpIsCdDotDot) {
  auto a = fs_->Create({{"UDEF", "x"}, {"UDEF", "y"}});
  auto b = fs_->Create({{"UDEF", "x"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SearchCursor cursor = fs_->OpenCursor();
  ASSERT_TRUE(cursor.Refine({"UDEF", "x"}).ok());
  ASSERT_TRUE(cursor.Refine({"UDEF", "y"}).ok());
  auto narrow = cursor.Results();
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(*narrow, (std::vector<ObjectId>{*a}));

  ASSERT_TRUE(cursor.Up().ok());
  auto wide = cursor.Results();
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(*wide, (std::vector<ObjectId>{*a, *b}));
  EXPECT_EQ(cursor.depth(), 1u);

  ASSERT_TRUE(cursor.Up().ok());
  auto root = cursor.Results();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->size(), 2u);  // Volume root: everything.
  ASSERT_TRUE(cursor.Up().ok());  // Up at root is a no-op.
}

TEST_F(CoreTest, CursorRootPagingSeeksInsteadOfRescanning) {
  std::vector<ObjectId> all;
  for (int i = 0; i < 10; i++) {
    auto oid = fs_->Create({{"UDEF", "bulk"}});
    ASSERT_TRUE(oid.ok());
    all.push_back(*oid);
  }
  SearchCursor cursor = fs_->OpenCursor();  // Root: the whole volume.
  query::FindOptions options;
  options.limit = 3;
  std::vector<ObjectId> paged;
  stats::ResetAll();
  for (;;) {
    auto page = cursor.ResultsPage(options);
    ASSERT_TRUE(page.ok());
    paged.insert(paged.end(), page->ids.begin(), page->ids.end());
    if (!page->has_more) {
      break;
    }
    options.after = page->next_after;
  }
  EXPECT_EQ(paged, all);
  // Seekable ScanObjects: the 4 pages together touch each object-table entry once (one
  // extra probe per page boundary), instead of page k rescanning the first 3k entries.
  EXPECT_LE(stats::Get(stats::Counter::kIndexTraversals), all.size() + 8);
}

TEST_F(CoreTest, CursorTracksLiveChanges) {
  auto a = fs_->Create({{"UDEF", "inbox"}});
  ASSERT_TRUE(a.ok());
  SearchCursor cursor = fs_->OpenCursor();
  ASSERT_TRUE(cursor.Refine({"UDEF", "inbox"}).ok());
  auto before = cursor.Results();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 1u);
  // Refining again after new objects appear picks them up (each Refine re-queries the
  // newly added term; cached prefix results stay snapshots — documented semantics).
  auto b = fs_->Create({{"UDEF", "inbox"}, {"UDEF", "unread"}});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cursor.Up().ok());
  ASSERT_TRUE(cursor.Refine({"UDEF", "inbox"}).ok());
  auto after = cursor.Results();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);
}

// ---------------------------------------------------------------- persistence & crash

TEST(CorePersistenceTest, NamespaceSurvivesCleanReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid;
  {
    auto fs = FileSystem::Create(dev);
    ASSERT_TRUE(fs.ok());
    auto r = (*fs)->Create({{"USER", "margo"}, {"UDEF", "keeper"}});
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE((*fs)->Write(oid, 0, "persistent text content").ok());
    ASSERT_TRUE((*fs)->IndexContent(oid).ok());
    ASSERT_TRUE((*fs)->Checkpoint().ok());
  }
  auto fs = FileSystem::Open(dev, FileSystemOptions{});
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  auto by_tag = (*fs)->Lookup({{"UDEF", "keeper"}});
  ASSERT_TRUE(by_tag.ok());
  EXPECT_EQ(*by_tag, (std::vector<ObjectId>{oid}));
  auto by_text = (*fs)->Lookup({{"FULLTEXT", "persistent"}});
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*by_text, (std::vector<ObjectId>{oid}));
  auto tags = (*fs)->Tags(oid);
  ASSERT_TRUE(tags.ok());
  EXPECT_EQ(tags->size(), 2u);
}

// IndexContent persists the FULLTEXT store's root before it returns, so content indexed
// with default options is found after a clean close; no background indexer can be asked
// for.
TEST(CorePersistenceTest, IndexedContentSurvivesCleanReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  std::vector<ObjectId> oids;
  {
    auto fs = FileSystem::Create(dev);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    for (int i = 0; i < 50; i++) {
      auto oid = (*fs)->Create();
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE((*fs)->Write(*oid, 0, "reopened document " + std::to_string(i)).ok());
      ASSERT_TRUE((*fs)->IndexContent(*oid).ok());
      oids.push_back(*oid);
    }
  }
  {
    auto fs = FileSystem::Open(dev);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    auto hits = (*fs)->Lookup({{"FULLTEXT", "reopened"}});
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(*hits, oids);
    auto report = CheckFileSystem((*fs).get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->ToString();
  }
  FileSystemOptions background;
  background.lazy_indexing_threads = 2;
  EXPECT_TRUE(FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), background)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FileSystem::Open(dev, background).status().IsInvalidArgument());
}

// An IndexContent credit is given back when the call returns, like every other credit:
// by then the pages it dirtied count as dirty pages. With the kick off (so no checkpoint
// runs), 20 calls leave the accounted journal fill explained by appended bytes, dirty
// page images and allocator-snapshot entries alone, with no 64 KiB held per document.
TEST(CorePersistenceTest, IndexContentCreditEndsWithItsCall) {
  constexpr uint64_t kJournal = 8 * 1024 * 1024;
  FileSystemOptions opts;
  opts.osd.journal_size = kJournal;
  opts.osd.checkpoint_kick_occupancy = 0;
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  std::vector<ObjectId> oids;
  for (int i = 0; i < 20; i++) {
    auto oid = (*fs)->Create();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE((*fs)->Write(*oid, 0, "credited document " + std::to_string(i)).ok());
    oids.push_back(*oid);
  }
  osd::Osd* volume = (*fs)->cluster()->meta();
  // Accounted fill, in bytes, less what the pages and records on the volume explain: a
  // page image record per dirty page and a 16-byte snapshot entry per allocation.
  const double journal = static_cast<double>(kJournal);
  auto unexplained = [&] {
    const double images =
        static_cast<double>(volume->pager()->dirty_pages()) * (16 + 1 + 8 + 4096);
    const double entries =
        static_cast<double>(volume->allocator()->allocation_count()) * 16;
    return (volume->journal_reserved() - volume->journal_occupancy()) * journal - images -
           entries;
  };
  const double before = unexplained();
  for (ObjectId oid : oids) {
    ASSERT_TRUE((*fs)->IndexContent(oid).ok());
  }
  auto hits = (*fs)->Lookup({{"FULLTEXT", "credited"}});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, oids);
  EXPECT_LT(unexplained() - before, 1024.0)
      << "dropped content credits still count in the journal fill";
}

// Content indexed before a Sync and a Checkpoint is on the device when the power goes:
// the checkpoint that resets the journal holding the kNsIndexContent records also
// flushes the postings those records produced.
TEST(CorePersistenceTest, SyncedIndexContentSurvivesCheckpointAndCrash) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  std::vector<ObjectId> oids;
  {
    auto fs = FileSystem::Create(faulty);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    for (int i = 0; i < 200; i++) {
      auto oid = (*fs)->Create();
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE((*fs)->Write(*oid, 0, "checkpointed document " + std::to_string(i)).ok());
      ASSERT_TRUE((*fs)->IndexContent(*oid).ok());
      oids.push_back(*oid);
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    ASSERT_TRUE((*fs)->Checkpoint().ok());
    faulty->SetWriteBudget(0);  // Power cut: nothing after the checkpoint is written.
  }
  auto fs = FileSystem::Open(base);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  auto hits = (*fs)->Lookup({{"FULLTEXT", "checkpointed"}});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, oids);
}

TEST(CorePersistenceTest, NamespaceRecoversAfterCrash) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  ObjectId kept, removed;
  {
    FileSystemOptions opts;
    opts.osd.group_commit = false;  // Every op durable on return.
    auto fs = FileSystem::Create(faulty, opts);
    ASSERT_TRUE(fs.ok());
    auto r1 = (*fs)->Create({{"USER", "margo"}, {"UDEF", "crash-keeper"}});
    auto r2 = (*fs)->Create({{"UDEF", "doomed"}});
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    kept = *r1;
    removed = *r2;
    ASSERT_TRUE((*fs)->Write(kept, 0, "indexed before the crash").ok());
    ASSERT_TRUE((*fs)->IndexContent(kept).ok());
    ASSERT_TRUE((*fs)->RemoveTag(kept, {"USER", "margo"}).ok());
    ASSERT_TRUE((*fs)->Remove(removed).ok());
    faulty->SetWriteBudget(0);  // Crash: destructor checkpoint cannot reach the device.
  }
  FileSystemOptions opts;
  opts.osd.group_commit = false;
  auto fs = FileSystem::Open(base, opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  auto keeper = (*fs)->Lookup({{"UDEF", "crash-keeper"}});
  ASSERT_TRUE(keeper.ok());
  EXPECT_EQ(*keeper, (std::vector<ObjectId>{kept}));
  auto margo = (*fs)->Lookup({{"USER", "margo"}});
  ASSERT_TRUE(margo.ok());
  EXPECT_TRUE(margo->empty());  // Tag removal replayed.
  auto text = (*fs)->Lookup({{"FULLTEXT", "indexed"}});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, (std::vector<ObjectId>{kept}));
  auto doomed = (*fs)->Lookup({{"UDEF", "doomed"}});
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed->empty());
  EXPECT_FALSE((*fs)->volume()->Exists(removed));
}

// ---------------------------------------------------------------- concurrency

// The lock-striping stress case: N threads tag/untag an OVERLAPPING object set, so tag
// shards, index-store locks, and reverse-map stripes all see concurrent mixed traffic
// on the same objects. The schedule is adversarial but the invariant is exact: after
// the storm, the forward indexes and the reverse map must agree perfectly (Fsck), and
// every surviving name must be reachable through Lookup.
TEST(CoreConcurrencyTest, OverlappingTagStormStaysFsckClean) {
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(fs.ok());

  constexpr int kObjects = 48;
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::vector<ObjectId> oids;
  oids.reserve(kObjects);
  for (int i = 0; i < kObjects; i++) {
    auto oid = (*fs)->Create({{"USER", "owner" + std::to_string(i % 4)}});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&fs, &oids, t] {
      for (int i = 0; i < kIters; i++) {
        // Deterministic per-thread walk that collides with other threads' walks.
        ObjectId oid = oids[(t * 7 + i * 13) % kObjects];
        TagValue name{"UDEF", "mark" + std::to_string((t + i) % 6)};
        Status add = (*fs)->AddTag(oid, name);
        ASSERT_TRUE(add.ok()) << add.ToString();
        if (i % 3 != 0) {
          // Racing removers may hit NotFound when another thread already won; any
          // other failure is a real bug.
          Status rm = (*fs)->RemoveTag(oid, name);
          ASSERT_TRUE(rm.ok() || rm.IsNotFound()) << rm.ToString();
        }
        if (i % 16 == 0) {
          auto hits = (*fs)->Lookup({{"UDEF", "mark" + std::to_string(i % 6)}});
          ASSERT_TRUE(hits.ok());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  auto report = CheckFileSystem((*fs).get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();

  // Every name the storm left behind is reachable through the naming interface.
  for (ObjectId oid : oids) {
    auto tags = (*fs)->Tags(oid);
    ASSERT_TRUE(tags.ok());
    for (const TagValue& name : *tags) {
      auto hits = (*fs)->Lookup({name});
      ASSERT_TRUE(hits.ok());
      EXPECT_TRUE(std::find(hits->begin(), hits->end(), oid) != hits->end())
          << name.tag << ":" << name.value << " lookup misses object " << oid;
    }
  }
}

// Remove holds the object's tag shard from its name scan through the delete, so an
// AddTag or IndexContent racing it on the same object lands wholly before the remove
// (and is stripped with the rest) or after it (and finds no object). Each racer hammers
// the object the remover is on until it is gone, then moves to the next one.
TEST(CoreConcurrencyTest, RemoveRacingAddTagAndIndexContentLeavesNothingBehind) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "inline");
    FileSystemOptions opts;
    opts.lazy_tag_indexing = lazy;
    auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    std::vector<ObjectId> oids;
    for (int i = 0; i < 300; i++) {
      auto oid = (*fs)->Create({{"UDEF", "early"}});
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE((*fs)->Write(*oid, 0, "racing document").ok());
      oids.push_back(*oid);
    }
    std::atomic<bool> remover_done{false};
    auto race = [&oids, &remover_done](const std::function<Status(ObjectId)>& op) {
      for (ObjectId oid : oids) {
        while (!remover_done.load()) {
          Status s = op(oid);
          if (s.IsNotFound()) {
            break;  // Removed: on to the object the remover is on now.
          }
          EXPECT_TRUE(s.ok()) << s.ToString();
        }
      }
    };
    std::thread tagger(race,
                       [&fs](ObjectId oid) { return (*fs)->AddTag(oid, {"UDEF", "late"}); });
    std::thread indexer(race, [&fs](ObjectId oid) { return (*fs)->IndexContent(oid); });
    for (ObjectId oid : oids) {
      Status rm = (*fs)->Remove(oid);
      EXPECT_TRUE(rm.ok()) << rm.ToString();
      std::this_thread::yield();  // Let the racers reach the next object first.
    }
    remover_done = true;
    tagger.join();
    indexer.join();
    ASSERT_TRUE((*fs)->WaitForTagIndexing().ok());
    auto report = CheckFileSystem((*fs).get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->ToString();
    for (const TagValue& name : std::vector<TagValue>{
             {"UDEF", "early"}, {"UDEF", "late"}, {"FULLTEXT", "racing"}}) {
      auto hits = (*fs)->Lookup({name});
      ASSERT_TRUE(hits.ok()) << hits.status().ToString();
      EXPECT_TRUE(hits->empty()) << name.tag << ":" << name.value << " still names "
                                 << hits->size() << " objects";
    }
  }
}

TEST(CoreConcurrencyTest, ParallelTaggingOnIndependentObjects) {
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(fs.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&fs, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto oid = (*fs)->Create({{"USER", "user" + std::to_string(t)}});
        ASSERT_TRUE(oid.ok());
        ASSERT_TRUE((*fs)->AddTag(*oid, {"UDEF", "batch" + std::to_string(i)}).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; t++) {
    auto r = (*fs)->Lookup({{"USER", "user" + std::to_string(t)}});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), static_cast<size_t>(kPerThread));
  }
}

}  // namespace
}  // namespace core
}  // namespace hfad
