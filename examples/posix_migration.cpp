// POSIX migration: backwards compatibility as §2.3 demands — "a storage system is not
// useful without some support for backwards compatibility in interface if not in disk
// layout."
//
// A legacy application works through paths and file descriptors, never knowing the
// namespace underneath is tag-based; meanwhile new code reaches the same objects by tag
// and by content. Hard links, the classic POSIX wart, fall out trivially: a link is
// just one more name.
//
//   $ ./examples/posix_migration
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/filesystem.h"
#include "src/posix/posix_fs.h"
#include "src/storage/block_device.h"

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::posix::kAppend;
using hfad::posix::kCreate;
using hfad::posix::kRead;
using hfad::posix::kTruncate;
using hfad::posix::kWrite;
using hfad::posix::PosixFs;

namespace {

void Check(const hfad::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

}  // namespace

int main() {
  auto device = std::make_shared<MemoryBlockDevice>(64ull << 20);
  auto fs_or = FileSystem::Create(device);
  Check(fs_or.status(), "create volume");
  auto& fs = *fs_or;
  auto pfs_or = PosixFs::Mount(fs.get());
  Check(pfs_or.status(), "mount posix layer");
  auto& pfs = *pfs_or;

  // --- The legacy application: plain POSIX calls. ---
  Check(pfs->Mkdir("/home"), "mkdir /home");
  Check(pfs->Mkdir("/home/margo"), "mkdir /home/margo");
  Check(pfs->Mkdir("/home/margo/papers"), "mkdir papers");

  auto fd = pfs->Open("/home/margo/papers/hfad.tex", kWrite | kCreate);
  Check(fd.status(), "open for write");
  Check(pfs->Pwrite(*fd, 0, "\\title{Hierarchical File Systems are Dead}\n").status(),
        "write");
  Check(pfs->Close(*fd), "close");

  fd = pfs->Open("/home/margo/papers/hfad.tex", kWrite | kAppend);
  Check(fd.status(), "open for append");
  Check(pfs->Pwrite(*fd, 0, "\\begin{abstract}...\\end{abstract}\n").status(), "append");
  Check(pfs->Close(*fd), "close");

  auto entries = pfs->Readdir("/home/margo/papers");
  Check(entries.status(), "readdir");
  printf("ls /home/margo/papers -> %zu entries\n", entries->size());

  auto st = pfs->Stat("/home/margo/papers/hfad.tex");
  Check(st.status(), "stat");
  printf("stat: %llu bytes, nlink %llu\n", (unsigned long long)st->meta.size,
         (unsigned long long)st->nlink);

  // Hard links: the same object under two paths, both first-class.
  Check(pfs->Link("/home/margo/papers/hfad.tex", "/home/margo/current-draft"),
        "hard link");
  auto st2 = pfs->Stat("/home/margo/current-draft");
  Check(st2.status(), "stat link");
  printf("after link: nlink %llu\n", (unsigned long long)st2->nlink);

  // --- The migration step: enrich the SAME object with tags and content search. ---
  auto oid = pfs->Resolve("/home/margo/papers/hfad.tex");
  Check(oid.status(), "resolve");
  Check(fs->AddTag(*oid, {"UDEF", "status:submitted"}), "tag");
  Check(fs->AddTag(*oid, {"UDEF", "venue:hotos09"}), "tag");
  Check(fs->IndexContent(*oid), "index");

  // New code never touches a path again:
  auto by_tag = fs->Lookup({{"UDEF", "venue:hotos09"}});
  Check(by_tag.status(), "lookup by tag");
  auto by_text = fs->Lookup({{"FULLTEXT", "abstract"}});
  Check(by_text.status(), "lookup by content");
  auto by_path = fs->Lookup({{"POSIX", "/home/margo/papers/hfad.tex"}});
  Check(by_path.status(), "lookup by path");
  printf("same object by tag/content/path: %s\n",
         (*by_tag == *by_text && *by_text == *by_path) ? "yes" : "NO");

  // Every name the object carries (both paths included — a path is just a name).
  auto tags = fs->Tags(*oid);
  Check(tags.status(), "tags");
  printf("the object's names:\n");
  for (const auto& tv : *tags) {
    printf("  %-8s %s\n", tv.tag.c_str(), tv.value.c_str());
  }

  // --- hFAD extensions through the POSIX layer: edit the middle of the file. ---
  fd = pfs->Open("/home/margo/current-draft", kRead | kWrite);
  Check(fd.status(), "open");
  Check(pfs->InsertAt(*fd, 0, "% reviewed by nick\n"), "insert at front");
  std::string head;
  Check(pfs->Pread(*fd, 0, 19, &head).status(), "read");
  Check(pfs->Close(*fd), "close");
  printf("first line is now: %s", head.c_str());

  // Rename, then verify both the namespace and the object survive.
  Check(pfs->Rename("/home/margo/papers", "/home/margo/published"), "rename dir");
  auto moved = pfs->Stat("/home/margo/published/hfad.tex");
  Check(moved.status(), "stat moved");
  printf("rename kept bytes: %llu\n", (unsigned long long)moved->meta.size);

  Check(fs->Checkpoint(), "checkpoint");
  printf("OK\n");
  return 0;
}
