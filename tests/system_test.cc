// Whole-system integration tests: every layer exercised together — POSIX veneer, native
// tags, boolean queries, content search, search cursors, durability — on one volume,
// including a full crash in the middle of cross-layer activity.
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/posix/posix_fs.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace {

using core::FileSystem;
using core::FileSystemOptions;
using core::ObjectId;
using core::TagValue;

constexpr uint64_t kDev = 128 * 1024 * 1024;

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : dev_(std::make_shared<MemoryBlockDevice>(kDev)) {
    auto fs = FileSystem::Create(dev_);
    EXPECT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
    auto pfs = posix::PosixFs::Mount(fs_.get());
    EXPECT_TRUE(pfs.ok());
    pfs_ = std::move(pfs).value();
  }

  void WriteFile(const std::string& path, const std::string& content) {
    auto fd = pfs_->Open(path, posix::kWrite | posix::kCreate | posix::kTruncate);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_TRUE(pfs_->Pwrite(*fd, 0, content).ok());
    ASSERT_TRUE(pfs_->Close(*fd).ok());
  }

  std::shared_ptr<MemoryBlockDevice> dev_;
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<posix::PosixFs> pfs_;
};

// A document management workflow that crosses every API boundary.
TEST_F(SystemTest, DocumentWorkflowAcrossAllLayers) {
  // Legacy ingestion through POSIX.
  ASSERT_TRUE(pfs_->Mkdir("/projects").ok());
  ASSERT_TRUE(pfs_->Mkdir("/projects/hfad").ok());
  WriteFile("/projects/hfad/paper.tex", "we present a tagged search based namespace");
  WriteFile("/projects/hfad/eval.dat", "traversals four minimum measured three");
  WriteFile("/projects/hfad/notes.txt", "todo rewrite related work section");

  // Enrichment through the native API.
  for (const char* name : {"paper.tex", "eval.dat", "notes.txt"}) {
    auto oid = pfs_->Resolve(std::string("/projects/hfad/") + name);
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs_->AddTag(*oid, {"UDEF", "project:hfad"}).ok());
    ASSERT_TRUE(fs_->IndexContent(*oid).ok());
  }
  auto paper = pfs_->Resolve("/projects/hfad/paper.tex");
  ASSERT_TRUE(paper.ok());
  ASSERT_TRUE(fs_->AddTag(*paper, {"UDEF", "status:submitted"}).ok());

  // Boolean query mixing tag and content predicates.
  query::QueryEngine engine(fs_->indexes());
  auto r = engine.Run("UDEF:project:hfad AND FULLTEXT:namespace");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<ObjectId>{*paper}));

  // Cursor refinement across tag kinds.
  auto cursor = fs_->OpenCursor();
  ASSERT_TRUE(cursor.Refine({"UDEF", "project:hfad"}).ok());
  EXPECT_EQ(cursor.Results()->size(), 3u);
  ASSERT_TRUE(cursor.Refine({"FULLTEXT", "measured"}).ok());
  auto narrowed = cursor.Results();
  ASSERT_TRUE(narrowed.ok());
  ASSERT_EQ(narrowed->size(), 1u);

  // Byte-level edit through POSIX handle, visible to a re-index.
  auto fd = pfs_->Open("/projects/hfad/paper.tex", posix::kRead | posix::kWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->InsertAt(*fd, 0, "ABSTRACT respectfully provocative. ").ok());
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  ASSERT_TRUE(fs_->IndexContent(*paper).ok());
  auto provocative = fs_->Lookup({{"FULLTEXT", "provocative"}});
  ASSERT_TRUE(provocative.ok());
  EXPECT_EQ(*provocative, (std::vector<ObjectId>{*paper}));

  // POSIX unlink of a multi-named object keeps it reachable by its other names.
  ASSERT_TRUE(pfs_->Unlink("/projects/hfad/notes.txt").ok());
  auto still_tagged = fs_->Lookup({{"UDEF", "project:hfad"}});
  ASSERT_TRUE(still_tagged.ok());
  EXPECT_EQ(still_tagged->size(), 3u);  // The object lives: tags still name it.
  auto by_path = fs_->Lookup({{"POSIX", "/projects/hfad/notes.txt"}});
  ASSERT_TRUE(by_path.ok());
  EXPECT_TRUE(by_path->empty());  // But the path name is gone.
}

// Crash in the middle of cross-layer mutations; reopen must see a consistent namespace.
TEST(SystemCrashTest, CrossLayerCrashConsistency) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  FileSystemOptions opts;
  opts.osd.group_commit = false;
  std::string surviving_path;
  ObjectId tagged_oid = 0;
  {
    auto fs = std::move(FileSystem::Create(faulty, opts)).value();
    auto pfs = std::move(posix::PosixFs::Mount(fs.get())).value();
    ASSERT_TRUE(pfs->Mkdir("/data").ok());
    auto fd = pfs->Open("/data/record.bin", posix::kWrite | posix::kCreate);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(pfs->Pwrite(*fd, 0, "crash survivor payload").ok());
    ASSERT_TRUE(pfs->Close(*fd).ok());
    surviving_path = "/data/record.bin";
    auto oid = pfs->Resolve(surviving_path);
    ASSERT_TRUE(oid.ok());
    tagged_oid = *oid;
    ASSERT_TRUE(fs->AddTag(tagged_oid, {"UDEF", "important"}).ok());
    ASSERT_TRUE(fs->IndexContent(tagged_oid).ok());
    ASSERT_TRUE(pfs->Link(surviving_path, "/data/alias.bin").ok());
    faulty->SetWriteBudget(0);  // Crash.
  }
  auto fs = std::move(FileSystem::Open(base, opts)).value();
  auto pfs = std::move(posix::PosixFs::Mount(fs.get())).value();

  // Path, alias, tag, and content must all still name the same object.
  auto by_path = pfs->Resolve(surviving_path);
  ASSERT_TRUE(by_path.ok());
  EXPECT_EQ(*by_path, tagged_oid);
  auto by_alias = pfs->Resolve("/data/alias.bin");
  ASSERT_TRUE(by_alias.ok());
  EXPECT_EQ(*by_alias, tagged_oid);
  auto by_tag = fs->Lookup({{"UDEF", "important"}});
  ASSERT_TRUE(by_tag.ok());
  EXPECT_EQ(*by_tag, (std::vector<ObjectId>{tagged_oid}));
  auto by_text = fs->Lookup({{"FULLTEXT", "survivor"}});
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*by_text, (std::vector<ObjectId>{tagged_oid}));
  auto st = pfs->Stat(surviving_path);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);
  EXPECT_EQ(st->meta.size, 22u);
}

// Randomized cross-layer workload with a model check of name consistency, then a clean
// reopen. Property: the set of (name -> object) mappings survives intact.
struct SystemWorkload {
  uint64_t seed;
  int ops;
  bool journaling;
};

// Printed into the CTest name (".../seed1_ops400_journal"). Without a printer gtest dumps
// the raw struct bytes, padding included, so the name changes from build to build.
void PrintTo(const SystemWorkload& w, std::ostream* os) {
  *os << "seed" << w.seed << "_ops" << w.ops << (w.journaling ? "_journal" : "_nojournal");
}

class SystemPropertyTest : public ::testing::TestWithParam<SystemWorkload> {};

TEST_P(SystemPropertyTest, NamespaceModelSurvivesReopen) {
  const SystemWorkload p = GetParam();
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  FileSystemOptions opts;
  opts.osd.journaling = p.journaling;
  Random rng(p.seed);

  // Model: tag value -> set of oids; oid -> content.
  std::map<std::string, std::set<ObjectId>> tag_model;
  std::map<ObjectId, std::string> content_model;
  {
    auto fs = std::move(FileSystem::Create(dev, opts)).value();
    std::vector<ObjectId> live;
    for (int op = 0; op < p.ops; op++) {
      int action = static_cast<int>(rng.Uniform(10));
      if (action < 3 || live.empty()) {
        std::string tag = "t" + std::to_string(rng.Uniform(20));
        auto oid = fs->Create({{"UDEF", tag}});
        ASSERT_TRUE(oid.ok());
        std::string content = rng.NextString(rng.Range(1, 500));
        ASSERT_TRUE(fs->Write(*oid, 0, content).ok());
        live.push_back(*oid);
        tag_model[tag].insert(*oid);
        content_model[*oid] = content;
      } else if (action < 6) {
        ObjectId oid = live[rng.Uniform(live.size())];
        std::string tag = "t" + std::to_string(rng.Uniform(20));
        Status s = fs->AddTag(oid, {"UDEF", tag});
        ASSERT_TRUE(s.ok());
        tag_model[tag].insert(oid);
      } else if (action < 8) {
        ObjectId oid = live[rng.Uniform(live.size())];
        std::string tag = "t" + std::to_string(rng.Uniform(20));
        Status s = fs->RemoveTag(oid, {"UDEF", tag});
        if (tag_model[tag].erase(oid)) {
          ASSERT_TRUE(s.ok());
        } else {
          ASSERT_TRUE(s.IsNotFound());
        }
      } else if (live.size() > 1) {
        size_t idx = rng.Uniform(live.size());
        ObjectId oid = live[idx];
        ASSERT_TRUE(fs->Remove(oid).ok());
        live[idx] = live.back();
        live.pop_back();
        for (auto& [tag, oids] : tag_model) {
          oids.erase(oid);
        }
        content_model.erase(oid);
      }
    }
    ASSERT_TRUE(fs->Checkpoint().ok());
  }
  // Reopen and verify the whole model.
  auto fs = std::move(FileSystem::Open(dev, opts)).value();
  for (const auto& [tag, expected] : tag_model) {
    auto r = fs->Lookup({{"UDEF", tag}});
    ASSERT_TRUE(r.ok()) << tag;
    std::set<ObjectId> got(r->begin(), r->end());
    ASSERT_EQ(got, expected) << "tag " << tag;
  }
  for (const auto& [oid, content] : content_model) {
    std::string out;
    ASSERT_TRUE(fs->Read(oid, 0, content.size() + 10, &out).ok()) << oid;
    ASSERT_EQ(out, content) << "oid " << oid;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SystemPropertyTest,
                         ::testing::Values(SystemWorkload{1, 400, true},
                                           SystemWorkload{2, 400, false},
                                           SystemWorkload{3, 800, true}));

}  // namespace
}  // namespace hfad
