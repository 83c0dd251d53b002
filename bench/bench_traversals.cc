// C1 (§2.3 ¶1): "Consider the path between a search term and a data block in most
// systems today ... At a minimum, we encountered four index traversals; at a maximum,
// many more."
//
// This bench instruments that exact path on both architectures:
//
//   hierarchical stack (hierfs):
//     1. the search index — itself "built on top of files in the file system": resolving
//        the index file's path walks the namespace (one traversal per component), and
//     2. reading the index file traverses its physical extent map,
//     3. the result is a *file name*, so resolving it walks the namespace again
//        (one traversal per path component), and
//     4. reading the target block traverses that file's physical extent map.
//
//   hFAD: the search term hits the full-text index (one traversal) and yields an object
//   id; the object's extent tree is the only other index between the id and the data.
//
// Reported counters are hfad::stats deltas per lookup: index_traversals is the paper's
// quantity; dir_components is the hierarchical walk length. Wall-clock is secondary —
// the claim is about structure.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/hierfs/hierfs.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
namespace stats = hfad::stats;

constexpr int kFilesPerDir = 32;

std::string TermFor(int i) { return "needle" + std::to_string(i); }

std::string ContentFor(int i) {
  return "document body mentioning " + TermFor(i) + " among other words";
}

// Directory path of depth `depth` for file i: /d0/d1/.../f<i>.
std::string DeepPath(int depth, int i) {
  std::string p;
  for (int d = 0; d < depth; d++) {
    p += "/dir" + std::to_string(d);
  }
  return p + "/file" + std::to_string(i);
}

// ---- hierarchical search stack ----

struct HierStack {
  explicit HierStack(int depth) {
    auto fs_or = hfad::hierfs::HierFs::Create(
        std::make_shared<MemoryBlockDevice>(512ull << 20));
    fs = std::move(fs_or).value();
    std::string dir;
    for (int d = 0; d < depth; d++) {
      dir += "/dir" + std::to_string(d);
      (void)fs->Mkdir(dir);
    }
    // Data files plus the search-index file, which lives IN the file system.
    std::string index_blob;
    for (int i = 0; i < kFilesPerDir; i++) {
      std::string path = DeepPath(depth, i);
      auto ino = fs->CreateFile(path);
      (void)fs->Write(*ino, 0, ContentFor(i));
      index_blob += TermFor(i) + " " + path + "\n";
    }
    auto idx = fs->CreateFile("/search.idx");
    (void)fs->Write(*idx, 0, index_blob);
  }

  // The full search-term -> data-block path.
  std::string Lookup(const std::string& term) {
    // 1+2: find and read the index file (namespace walk + extent traversal).
    auto idx_ino = fs->ResolvePath("/search.idx");
    std::string blob;
    (void)fs->Read(*idx_ino, 0, 1 << 20, &blob);
    // Parse term -> path.
    std::string path;
    size_t pos = 0;
    while (pos < blob.size()) {
      size_t eol = blob.find('\n', pos);
      size_t sp = blob.find(' ', pos);
      if (blob.compare(pos, sp - pos, term) == 0) {
        path = blob.substr(sp + 1, eol - sp - 1);
        break;
      }
      pos = eol + 1;
    }
    // 3: resolve the file name through the hierarchy.
    auto ino = fs->ResolvePath(path);
    // 4: read the data block through the file's physical index.
    std::string block;
    (void)fs->Read(*ino, 0, 4096, &block);
    return block;
  }

  std::unique_ptr<hfad::hierfs::HierFs> fs;
};

// ---- hFAD native stack ----

struct HfadStack {
  HfadStack() {
    auto fs_or = FileSystem::Create(std::make_shared<MemoryBlockDevice>(512ull << 20));
    fs = std::move(fs_or).value();
    for (int i = 0; i < kFilesPerDir; i++) {
      auto oid = fs->Create();
      (void)fs->Write(*oid, 0, ContentFor(i));
      (void)fs->IndexContent(*oid);
    }
  }

  std::string Lookup(const std::string& term) {
    auto ids = fs->Lookup({{"FULLTEXT", term}});
    std::string block;
    (void)fs->Read((*ids)[0], 0, 4096, &block);
    return block;
  }

  std::unique_ptr<FileSystem> fs;
};

void BM_SearchToBlock_Hierarchical(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  HierStack stack(depth);
  int i = 0;
  stats::Snapshot before = stats::Snapshot::Take();
  for (auto _ : state) {
    std::string block = stack.Lookup(TermFor(i % kFilesPerDir));
    benchmark::DoNotOptimize(block.data());
    i++;
  }
  stats::Snapshot delta = stats::Snapshot::Take().Delta(before);
  double n = static_cast<double>(state.iterations());
  state.counters["index_traversals"] =
      static_cast<double>(delta[stats::Counter::kIndexTraversals]) / n;
  state.counters["dir_components"] =
      static_cast<double>(delta[stats::Counter::kDirComponentsWalked]) / n;
  state.counters["lock_acqs"] =
      static_cast<double>(delta[stats::Counter::kLockAcquisitions]) / n;
  state.SetLabel("path depth " + std::to_string(depth));
}
BENCHMARK(BM_SearchToBlock_Hierarchical)->DenseRange(2, 10, 2);

void BM_SearchToBlock_Hfad(benchmark::State& state) {
  HfadStack stack;
  int i = 0;
  stats::Snapshot before = stats::Snapshot::Take();
  for (auto _ : state) {
    std::string block = stack.Lookup(TermFor(i % kFilesPerDir));
    benchmark::DoNotOptimize(block.data());
    i++;
  }
  stats::Snapshot delta = stats::Snapshot::Take().Delta(before);
  double n = static_cast<double>(state.iterations());
  state.counters["index_traversals"] =
      static_cast<double>(delta[stats::Counter::kIndexTraversals]) / n;
  state.counters["dir_components"] =
      static_cast<double>(delta[stats::Counter::kDirComponentsWalked]) / n;
  state.counters["lock_acqs"] =
      static_cast<double>(delta[stats::Counter::kLockAcquisitions]) / n;
  state.SetLabel("flat namespace (depth-independent)");
}
BENCHMARK(BM_SearchToBlock_Hfad);

// Pure path resolution (no search), the everyday namespace cost: component walk vs one
// full-path probe.
void BM_PathResolve_Hierarchical(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  HierStack stack(depth);
  std::string path = DeepPath(depth, 7);
  for (auto _ : state) {
    auto ino = stack.fs->ResolvePath(path);
    benchmark::DoNotOptimize(ino.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("depth " + std::to_string(depth));
}
BENCHMARK(BM_PathResolve_Hierarchical)->DenseRange(2, 10, 2);

void BM_PathResolve_HfadPosixTag(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(512ull << 20)))
                .value();
  std::string path = DeepPath(depth, 7);
  auto oid = fs->Create({{"POSIX", path}});
  for (auto _ : state) {
    auto ids = fs->Lookup({{"POSIX", path}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("depth " + std::to_string(depth) + " (one probe)");
}
BENCHMARK(BM_PathResolve_HfadPosixTag)->DenseRange(2, 10, 2);

}  // namespace

BENCHMARK_MAIN();
