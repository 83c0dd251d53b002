// Quickstart: the native hFAD API in one sitting.
//
//   $ ./examples/quickstart
//
// Creates an hFAD volume in memory, stores a few objects under tagged names, finds them
// by tag / boolean query / content search, and exercises the byte-level access
// interfaces (insert into the middle, two-off_t truncate) that POSIX cannot express.
#include <cstdio>
#include <memory>

#include "src/core/filesystem.h"
#include "src/storage/block_device.h"

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::ObjectId;

namespace {

void Check(const hfad::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

}  // namespace

int main() {
  // 1. Create a volume. Any BlockDevice works; FileBlockDevice persists across runs.
  auto device = std::make_shared<MemoryBlockDevice>(64ull << 20);
  auto fs_or = FileSystem::Create(device);
  Check(fs_or.status(), "create volume");
  auto& fs = *fs_or;

  // 2. Objects are named by tag/value pairs — as many as you like, none canonical.
  auto note = fs->Create({{"USER", "margo"}, {"UDEF", "ideas"}, {"UDEF", "hotos"}});
  Check(note.status(), "create note");
  Check(fs->Write(*note, 0, "position papers should provoke discussion"), "write");
  Check(fs->IndexContent(*note), "index content");

  auto draft = fs->Create({{"USER", "margo"}, {"UDEF", "ideas"}, {"APP", "editor"}});
  Check(draft.status(), "create draft");
  Check(fs->Write(*draft, 0, "hierarchical namespaces considered harmful"), "write");
  Check(fs->IndexContent(*draft), "index content");

  // 3. Naming lookups are conjunctions; results need not be unique.
  auto ideas = fs->Lookup({{"UDEF", "ideas"}});
  Check(ideas.status(), "lookup");
  printf("objects tagged ideas: %zu\n", ideas->size());

  auto hotos_ideas = fs->Lookup({{"UDEF", "ideas"}, {"UDEF", "hotos"}});
  Check(hotos_ideas.status(), "lookup");
  printf("ideas AND hotos:      %zu (oid %llu)\n", hotos_ideas->size(),
         (unsigned long long)(*hotos_ideas)[0]);

  // 4. Boolean queries and ranked content search run over the same indexes.
  auto q = fs->Query("USER:margo AND NOT APP:editor");
  Check(q.status(), "query");
  printf("margo's non-editor objects: %zu\n", q->size());

  auto hits = fs->SearchText({"hierarchical", "namespaces"});
  Check(hits.status(), "search");
  printf("content search hit: oid %llu (score %.3f)\n",
         (unsigned long long)(*hits)[0].docid, (*hits)[0].score);

  // 5. Byte-level access: insert into the middle and remove a range — no
  //    read-shift-rewrite, the extent tree shifts in O(log n).
  Check(fs->Insert(*note, 9, "HotOS "), "insert");
  std::string text;
  Check(fs->Read(*note, 0, 1024, &text), "read");
  printf("after insert:  \"%s\"\n", text.c_str());

  Check(fs->Truncate(*note, 15, 22), "two-off_t truncate");  // Drop "papers should ..."
  Check(fs->Read(*note, 0, 1024, &text), "read");
  printf("after truncate: \"%s\"\n", text.c_str());

  // 6. Iterative search refinement: the "current directory" of a search namespace.
  auto cursor = fs->OpenCursor();
  Check(cursor.Refine({"USER", "margo"}), "refine");
  Check(cursor.Refine({"UDEF", "ideas"}), "refine");
  auto results = cursor.Results();
  Check(results.status(), "cursor results");
  printf("cursor at USER:margo/UDEF:ideas -> %zu objects\n", results->size());

  Check(fs->Checkpoint(), "checkpoint");
  printf("OK\n");
  return 0;
}
