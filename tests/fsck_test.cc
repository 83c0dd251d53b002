// Tests for the offline consistency checker, including detection of injected damage.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/posix/posix_fs.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace core {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

std::unique_ptr<FileSystem> MakeFs(std::shared_ptr<BlockDevice> dev) {
  auto fs = FileSystem::Create(std::move(dev));
  EXPECT_TRUE(fs.ok());
  return std::move(fs).value();
}

TEST(FsckTest, FreshVolumeIsClean) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->objects_checked, 0u);
}

TEST(FsckTest, PopulatedVolumeIsClean) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto pfs = std::move(posix::PosixFs::Mount(fs.get())).value();
  ASSERT_TRUE(pfs->Mkdir("/d").ok());
  for (int i = 0; i < 50; i++) {
    auto oid = fs->Create({{"USER", "u" + std::to_string(i % 5)},
                           {"UDEF", "tag" + std::to_string(i)}});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, "content " + std::to_string(i)).ok());
    ASSERT_TRUE(fs->IndexContent(*oid).ok());
  }
  auto fd = pfs->Open("/d/file", posix::kWrite | posix::kCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs->Close(*fd).ok());

  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->objects_checked, 53u);  // 50 tagged + "/" + "/d" + "/d/file".
  EXPECT_GT(report->names_checked, 100u);
  EXPECT_EQ(report->postings_checked, 50u);
}

TEST(FsckTest, CleanAfterChurn) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  std::vector<ObjectId> oids;
  for (int i = 0; i < 60; i++) {
    auto oid = fs->Create({{"UDEF", "churn" + std::to_string(i % 7)}});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, std::string(100 + i, 'x')).ok());
    ASSERT_TRUE(fs->IndexContent(*oid).ok());
    oids.push_back(*oid);
  }
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(fs->Remove(oids[i]).ok());
  }
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->objects_checked, 30u);
  EXPECT_EQ(report->postings_checked, 30u);
}

// Remove strips an object's postings once IndexContent has returned: no full-text
// posting is left on the dead object.
TEST(FsckTest, RemoveAfterIndexContentLeavesNoDeadPosting) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  std::vector<ObjectId> oids;
  for (int i = 0; i < 200; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, "indexed document " + std::to_string(i)).ok());
    oids.push_back(*oid);
  }
  for (ObjectId oid : oids) {
    ASSERT_TRUE(fs->IndexContent(oid).ok());
  }
  ASSERT_TRUE(fs->Remove(oids.back()).ok());
  oids.pop_back();
  auto hits = fs->Lookup({{"FULLTEXT", "indexed"}});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, oids);
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
}

TEST(FsckTest, DetectsOrphanedForwardIndexEntry) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create({{"UDEF", "legit"}});
  ASSERT_TRUE(oid.ok());
  // Inject damage: add a forward index entry with no reverse record, referencing a
  // dead object.
  ASSERT_TRUE(fs->indexes()->store("UDEF")->Add("phantom", 424242).ok());

  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  bool mentions_dead = false;
  for (const std::string& p : report->problems) {
    if (p.find("dead object 424242") != std::string::npos) {
      mentions_dead = true;
    }
  }
  EXPECT_TRUE(mentions_dead) << report->ToString();
}

TEST(FsckTest, DetectsDanglingFulltextPosting) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->Write(*oid, 0, "ghost words").ok());
  ASSERT_TRUE(fs->IndexContent(*oid).ok());
  // Delete the object behind the index's back (the OSD API, not FileSystem::Remove).
  ASSERT_TRUE(fs->volume()->DeleteObject(*oid).ok());

  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_NE(report->ToString().find("full-text index contains dead object"),
            std::string::npos)
      << report->ToString();
}

TEST(FsckTest, DetectsMissingForwardEntry) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create({{"UDEF", "will-vanish"}});
  ASSERT_TRUE(oid.ok());
  // Remove the forward entry directly, leaving the reverse record dangling.
  ASSERT_TRUE(fs->indexes()->store("UDEF")->Remove("will-vanish", *oid).ok());

  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_NE(report->ToString().find("missing from forward index"), std::string::npos)
      << report->ToString();
}

}  // namespace
}  // namespace core
}  // namespace hfad
