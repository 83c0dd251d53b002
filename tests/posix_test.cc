// Tests for the POSIX compatibility layer over the native hFAD API.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/posix/posix_fs.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace posix {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

// ---------------------------------------------------------------- path helpers

TEST(PathTest, Normalization) {
  EXPECT_EQ(*NormalizePath("/"), "/");
  EXPECT_EQ(*NormalizePath("/a/b"), "/a/b");
  EXPECT_EQ(*NormalizePath("//a///b/"), "/a/b");
  EXPECT_EQ(*NormalizePath("/a/"), "/a");
  EXPECT_FALSE(NormalizePath("").ok());
  EXPECT_FALSE(NormalizePath("relative/path").ok());
  EXPECT_FALSE(NormalizePath("/a/../b").ok());
  EXPECT_FALSE(NormalizePath("/a/./b").ok());
}

TEST(PathTest, ParentAndBasename) {
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/"), "");
  EXPECT_EQ(Basename("/a/b/c"), "c");
  EXPECT_EQ(Basename("/a"), "a");
  EXPECT_EQ(Basename("/"), "");
}

// ---------------------------------------------------------------- fixture

class PosixFsTest : public ::testing::Test {
 protected:
  PosixFsTest() : dev_(std::make_shared<MemoryBlockDevice>(kDev)) {
    auto fs = core::FileSystem::Create(dev_);
    EXPECT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
    auto pfs = PosixFs::Mount(fs_.get());
    EXPECT_TRUE(pfs.ok()) << pfs.status().ToString();
    pfs_ = std::move(pfs).value();
  }

  std::string ReadFile(const std::string& path) {
    auto fd = pfs_->Open(path, kRead);
    EXPECT_TRUE(fd.ok()) << path;
    std::string out;
    auto n = pfs_->Pread(*fd, 0, 1 << 20, &out);
    EXPECT_TRUE(n.ok());
    EXPECT_TRUE(pfs_->Close(*fd).ok());
    return out;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    auto fd = pfs_->Open(path, kWrite | kCreate | kTruncate);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_TRUE(pfs_->Pwrite(*fd, 0, content).ok());
    ASSERT_TRUE(pfs_->Close(*fd).ok());
  }

  std::shared_ptr<MemoryBlockDevice> dev_;
  std::unique_ptr<core::FileSystem> fs_;
  std::unique_ptr<PosixFs> pfs_;
};

TEST_F(PosixFsTest, RootExistsAfterMount) {
  auto st = pfs_->Stat("/");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->is_dir);
}

TEST_F(PosixFsTest, CreateWriteReadFile) {
  WriteFile("/hello.txt", "hello posix world");
  EXPECT_EQ(ReadFile("/hello.txt"), "hello posix world");
  auto st = pfs_->Stat("/hello.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_dir);
  EXPECT_EQ(st->meta.size, 17u);
}

TEST_F(PosixFsTest, OpenFlagsSemantics) {
  EXPECT_TRUE(pfs_->Open("/absent", kRead).status().IsNotFound());
  WriteFile("/f", "x");
  EXPECT_TRUE(pfs_->Open("/f", kWrite | kCreate | kExclusive).status().IsAlreadyExists());
  EXPECT_FALSE(pfs_->Open("/f", 0).ok());  // Need kRead or kWrite.
  // kTruncate clears content.
  auto fd = pfs_->Open("/f", kWrite | kTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  EXPECT_EQ(ReadFile("/f"), "");
  // Writing through a read-only fd fails.
  auto ro = pfs_->Open("/f", kRead);
  ASSERT_TRUE(ro.ok());
  EXPECT_FALSE(pfs_->Pwrite(*ro, 0, "nope").ok());
}

TEST_F(PosixFsTest, CreateRequiresExistingParentDir) {
  EXPECT_TRUE(pfs_->Open("/no/such/dir/f", kWrite | kCreate).status().IsNotFound());
  ASSERT_TRUE(pfs_->Mkdir("/dir").ok());
  EXPECT_TRUE(pfs_->Open("/dir/f", kWrite | kCreate).ok());
  // A file is not a valid parent.
  WriteFile("/plain", "data");
  EXPECT_FALSE(pfs_->Open("/plain/child", kWrite | kCreate).ok());
}

TEST_F(PosixFsTest, SequentialReadWriteAdvancesOffset) {
  auto fd = pfs_->Open("/seq", kRead | kWrite | kCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Write(*fd, "abc").ok());
  ASSERT_TRUE(pfs_->Write(*fd, "def").ok());
  ASSERT_TRUE(pfs_->Seek(*fd, 0).ok());
  std::string out;
  auto n1 = pfs_->Read(*fd, 4, &out);
  ASSERT_TRUE(n1.ok());
  EXPECT_EQ(out, "abcd");
  auto n2 = pfs_->Read(*fd, 10, &out);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(out, "ef");
  auto n3 = pfs_->Read(*fd, 10, &out);  // At EOF.
  ASSERT_TRUE(n3.ok());
  EXPECT_EQ(*n3, 0u);
}

TEST_F(PosixFsTest, AppendMode) {
  WriteFile("/log", "line1\n");
  auto fd = pfs_->Open("/log", kWrite | kAppend);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Pwrite(*fd, 0, "line2\n").ok());  // Offset ignored under kAppend.
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  EXPECT_EQ(ReadFile("/log"), "line1\nline2\n");
}

TEST_F(PosixFsTest, SparseWriteZeroFills) {
  auto fd = pfs_->Open("/sparse", kWrite | kCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Pwrite(*fd, 10, "end").ok());
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  std::string content = ReadFile("/sparse");
  EXPECT_EQ(content, std::string(10, '\0') + "end");
}

TEST_F(PosixFsTest, HfadExtensionsOnHandles) {
  auto fd = pfs_->Open("/doc", kRead | kWrite | kCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Pwrite(*fd, 0, "helloworld").ok());
  ASSERT_TRUE(pfs_->InsertAt(*fd, 5, ", ").ok());          // Insert into the middle.
  ASSERT_TRUE(pfs_->RemoveRange(*fd, 0, 5).ok());          // Two-off_t truncate.
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  EXPECT_EQ(ReadFile("/doc"), ", world");
}

TEST_F(PosixFsTest, MkdirRmdir) {
  ASSERT_TRUE(pfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pfs_->Mkdir("/a/b").ok());
  EXPECT_TRUE(pfs_->Mkdir("/a").IsAlreadyExists());
  EXPECT_TRUE(pfs_->Mkdir("/x/y").IsNotFound());  // Parent missing.
  WriteFile("/a/b/f", "content");
  EXPECT_FALSE(pfs_->Rmdir("/a/b").ok());  // Not empty.
  ASSERT_TRUE(pfs_->Unlink("/a/b/f").ok());
  ASSERT_TRUE(pfs_->Rmdir("/a/b").ok());
  ASSERT_TRUE(pfs_->Rmdir("/a").ok());
  EXPECT_TRUE(pfs_->Stat("/a").status().IsNotFound());
  EXPECT_FALSE(pfs_->Rmdir("/").ok());
}

TEST_F(PosixFsTest, ReaddirListsDirectChildrenOnly) {
  ASSERT_TRUE(pfs_->Mkdir("/home").ok());
  ASSERT_TRUE(pfs_->Mkdir("/home/margo").ok());
  WriteFile("/home/margo/thesis.tex", "abstract");
  WriteFile("/home/margo/notes.txt", "todo");
  ASSERT_TRUE(pfs_->Mkdir("/home/nick").ok());
  WriteFile("/home/nick/deep.txt", "hidden from /home listing");

  auto entries = pfs_->Readdir("/home");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "margo");
  EXPECT_TRUE((*entries)[0].is_dir);
  EXPECT_EQ((*entries)[1].name, "nick");

  auto margo = pfs_->Readdir("/home/margo");
  ASSERT_TRUE(margo.ok());
  ASSERT_EQ(margo->size(), 2u);
  EXPECT_EQ((*margo)[0].name, "notes.txt");
  EXPECT_FALSE((*margo)[0].is_dir);
  EXPECT_EQ((*margo)[1].name, "thesis.tex");

  auto root = pfs_->Readdir("/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "home");

  EXPECT_FALSE(pfs_->Readdir("/home/margo/thesis.tex").ok());  // Not a directory.
}

TEST_F(PosixFsTest, UnlinkRemovesFile) {
  WriteFile("/tmp.txt", "ephemeral");
  ASSERT_TRUE(pfs_->Unlink("/tmp.txt").ok());
  EXPECT_TRUE(pfs_->Stat("/tmp.txt").status().IsNotFound());
  EXPECT_TRUE(pfs_->Unlink("/tmp.txt").IsNotFound());
  ASSERT_TRUE(pfs_->Mkdir("/d").ok());
  EXPECT_FALSE(pfs_->Unlink("/d").ok());  // Directories need Rmdir.
}

TEST_F(PosixFsTest, HardLinksShareTheObject) {
  WriteFile("/original", "shared bytes");
  ASSERT_TRUE(pfs_->Link("/original", "/alias").ok());
  auto st = pfs_->Stat("/original");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);
  // Writing through one name is visible through the other.
  auto fd = pfs_->Open("/alias", kWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pfs_->Pwrite(*fd, 0, "SHARED").ok());
  ASSERT_TRUE(pfs_->Close(*fd).ok());
  EXPECT_EQ(ReadFile("/original"), "SHARED bytes");
  // Unlinking one name keeps the object alive through the other.
  ASSERT_TRUE(pfs_->Unlink("/original").ok());
  EXPECT_EQ(ReadFile("/alias"), "SHARED bytes");
  auto st2 = pfs_->Stat("/alias");
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(st2->nlink, 1u);
  ASSERT_TRUE(pfs_->Unlink("/alias").ok());
}

TEST_F(PosixFsTest, RenameFile) {
  WriteFile("/old-name", "payload");
  ASSERT_TRUE(pfs_->Rename("/old-name", "/new-name").ok());
  EXPECT_TRUE(pfs_->Stat("/old-name").status().IsNotFound());
  EXPECT_EQ(ReadFile("/new-name"), "payload");
  // Destination collision fails.
  WriteFile("/other", "x");
  EXPECT_TRUE(pfs_->Rename("/new-name", "/other").IsAlreadyExists());
}

TEST_F(PosixFsTest, RenameDirectoryRewritesDescendants) {
  ASSERT_TRUE(pfs_->Mkdir("/proj").ok());
  ASSERT_TRUE(pfs_->Mkdir("/proj/src").ok());
  WriteFile("/proj/readme.md", "docs");
  WriteFile("/proj/src/main.c", "int main(){}");
  ASSERT_TRUE(pfs_->Rename("/proj", "/project").ok());
  EXPECT_TRUE(pfs_->Stat("/proj").status().IsNotFound());
  EXPECT_EQ(ReadFile("/project/readme.md"), "docs");
  EXPECT_EQ(ReadFile("/project/src/main.c"), "int main(){}");
  auto entries = pfs_->Readdir("/project");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  // Moving a directory into itself is rejected.
  EXPECT_FALSE(pfs_->Rename("/project", "/project/sub").ok());
}

TEST_F(PosixFsTest, TruncateGrowsAndShrinks) {
  WriteFile("/t", "123456");
  ASSERT_TRUE(pfs_->Truncate("/t", 3).ok());
  EXPECT_EQ(ReadFile("/t"), "123");
  ASSERT_TRUE(pfs_->Truncate("/t", 6).ok());
  EXPECT_EQ(ReadFile("/t"), std::string("123") + std::string(3, '\0'));
}

TEST_F(PosixFsTest, PathIsJustOneNameAmongMany) {
  // The same object reached by path, tag, and content search (§3.1.1).
  WriteFile("/report.txt", "bizarre quarterly figures");
  auto oid = pfs_->Resolve("/report.txt");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs_->AddTag(*oid, {"UDEF", "finance"}).ok());
  ASSERT_TRUE(fs_->IndexContent(*oid).ok());

  auto by_path = fs_->Lookup({{"POSIX", "/report.txt"}});
  auto by_tag = fs_->Lookup({{"UDEF", "finance"}});
  auto by_text = fs_->Lookup({{"FULLTEXT", "bizarre"}});
  ASSERT_TRUE(by_path.ok());
  ASSERT_TRUE(by_tag.ok());
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*by_path, *by_tag);
  EXPECT_EQ(*by_path, *by_text);
  EXPECT_EQ(*by_path, (std::vector<ObjectId>{*oid}));
}

TEST_F(PosixFsTest, DeepPathsResolveInOneLookup) {
  std::string path;
  for (int d = 0; d < 10; d++) {
    path += "/d" + std::to_string(d);
    ASSERT_TRUE(pfs_->Mkdir(path).ok());
  }
  WriteFile(path + "/leaf", "deep");
  stats::ResetAll();
  auto oid = pfs_->Resolve(path + "/leaf");
  ASSERT_TRUE(oid.ok());
  // One index traversal regardless of depth — the §2.3 argument made measurable.
  EXPECT_EQ(stats::Get(stats::Counter::kIndexTraversals), 1u);
  EXPECT_EQ(stats::Get(stats::Counter::kDirComponentsWalked), 0u);
}

TEST_F(PosixFsTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(pfs_->Mkdir("/bulk").ok());
  constexpr int kFiles = 500;
  for (int i = 0; i < kFiles; i++) {
    char name[32];
    snprintf(name, sizeof(name), "/bulk/file%04d", i);
    WriteFile(name, "x");
  }
  auto entries = pfs_->Readdir("/bulk");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), static_cast<size_t>(kFiles));
  EXPECT_TRUE(std::is_sorted(entries->begin(), entries->end(),
                             [](const DirEntry& a, const DirEntry& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(PosixFsTest, PersistsAcrossReopen) {
  ASSERT_TRUE(pfs_->Mkdir("/persist").ok());
  WriteFile("/persist/data.bin", "durable posix state");
  ASSERT_TRUE(pfs_->Link("/persist/data.bin", "/persist/alias").ok());
  pfs_.reset();
  ASSERT_TRUE(fs_->Checkpoint().ok());
  fs_.reset();

  auto fs = core::FileSystem::Open(dev_, core::FileSystemOptions{});
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  auto pfs = PosixFs::Mount(fs_.get());
  ASSERT_TRUE(pfs.ok());
  pfs_ = std::move(pfs).value();

  EXPECT_EQ(ReadFile("/persist/data.bin"), "durable posix state");
  auto st = pfs_->Stat("/persist/alias");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);
}

}  // namespace
}  // namespace posix
}  // namespace hfad
