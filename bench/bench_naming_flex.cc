// C7 (§2.2): "a single piece of data may belong to multiple collections ... a data item
// may have many names, all equally useful and even equally used."
//
// Measures the cost of the k-th additional name on one object — hFAD AddTag vs the
// hierarchical equivalent (hard link: directory entry + nlink bump) — and the cost of
// reorganizing a "collection": retagging members vs renaming a directory. The second
// comparison is the honest one the hierarchy wins: a directory rename is a pointer
// swing, while hFAD retags every member (and the POSIX-on-hFAD layer rewrites every
// descendant path).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "src/core/filesystem.h"
#include "src/hierfs/hierfs.h"
#include "src/posix/posix_fs.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;

std::unique_ptr<FileSystem> MakeHfad() {
  FileSystemOptions options;
  options.osd.journaling = false;
  return std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                      options))
      .value();
}

// k-th additional name: hFAD tag.
void BM_KthName_HfadTag(benchmark::State& state) {
  auto fs = MakeHfad();
  auto oid = fs->Create();
  uint64_t k = 0;
  for (auto _ : state) {
    (void)fs->AddTag(*oid, {"UDEF", "collection" + std::to_string(k++)});
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["names_on_object"] = static_cast<double>(k);
}
BENCHMARK(BM_KthName_HfadTag);

// k-th additional name: hierfs hard link (each into its own directory, as collections
// would be).
void BM_KthName_HierLink(benchmark::State& state) {
  auto fs = std::move(hfad::hierfs::HierFs::Create(
                          std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  (void)fs->CreateFile("/item");
  uint64_t k = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = "/collection" + std::to_string(k);
    (void)fs->Mkdir(dir);
    state.ResumeTiming();
    (void)fs->Link("/item", dir + "/item");
    k++;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["names_on_object"] = static_cast<double>(k);
}
BENCHMARK(BM_KthName_HierLink);

// Membership query: all members of collection k, with objects in many collections.
void BM_CollectionListing_Hfad(benchmark::State& state) {
  auto fs = MakeHfad();
  const int members = static_cast<int>(state.range(0));
  for (int i = 0; i < members; i++) {
    auto oid = fs->Create({{"UDEF", "album"}});
    // Every object is also in 4 other collections — multi-membership is free.
    for (int c = 0; c < 4; c++) {
      (void)fs->AddTag(*oid, {"UDEF", "other" + std::to_string((i + c) % 16)});
    }
  }
  for (auto _ : state) {
    auto ids = fs->Lookup({{"UDEF", "album"}});
    benchmark::DoNotOptimize(ids->size());
  }
  state.SetItemsProcessed(state.iterations() * members);
  state.SetLabel(std::to_string(members) + " members");
}
BENCHMARK(BM_CollectionListing_Hfad)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_CollectionListing_HierReaddir(benchmark::State& state) {
  auto fs = std::move(hfad::hierfs::HierFs::Create(
                          std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  const int members = static_cast<int>(state.range(0));
  (void)fs->Mkdir("/album");
  for (int i = 0; i < 16; i++) {
    (void)fs->Mkdir("/other" + std::to_string(i));
  }
  for (int i = 0; i < members; i++) {
    std::string name = "/album/m" + std::to_string(i);
    (void)fs->CreateFile(name);
    // Multi-membership costs a hard link per extra collection.
    for (int c = 0; c < 4; c++) {
      (void)fs->Link(name, "/other" + std::to_string((i + c) % 16) + "/m" +
                               std::to_string(i));
    }
  }
  for (auto _ : state) {
    auto entries = fs->Readdir("/album");
    benchmark::DoNotOptimize(entries->size());
  }
  state.SetItemsProcessed(state.iterations() * members);
  state.SetLabel(std::to_string(members) + " members");
}
BENCHMARK(BM_CollectionListing_HierReaddir)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

// Collection rename. hierfs: O(1) pointer swing. hFAD tags: retag every member.
// POSIX-on-hFAD: rewrite every descendant path. The hierarchy's honest win.
void BM_CollectionRename_Hier(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  auto fs = std::move(hfad::hierfs::HierFs::Create(
                          std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  (void)fs->Mkdir("/c0");
  for (int i = 0; i < members; i++) {
    (void)fs->CreateFile("/c0/m" + std::to_string(i));
  }
  uint64_t gen = 0;
  for (auto _ : state) {
    std::string from = "/c" + std::to_string(gen);
    std::string to = "/c" + std::to_string(gen + 1);
    (void)fs->Rename(from, to);
    gen++;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(members) + " members, O(1)");
}
BENCHMARK(BM_CollectionRename_Hier)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_CollectionRename_HfadRetag(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  auto fs = MakeHfad();
  for (int i = 0; i < members; i++) {
    (void)fs->Create({{"UDEF", "gen0"}});
  }
  uint64_t gen = 0;
  for (auto _ : state) {
    std::string from = "gen" + std::to_string(gen);
    std::string to = "gen" + std::to_string(gen + 1);
    auto ids = fs->Lookup({{"UDEF", from}});
    for (auto oid : *ids) {
      (void)fs->AddTag(oid, {"UDEF", to});
      (void)fs->RemoveTag(oid, {"UDEF", from});
    }
    gen++;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(members) + " members, O(members)");
}
BENCHMARK(BM_CollectionRename_HfadRetag)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_CollectionRename_HfadPosixDir(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  auto fs = MakeHfad();
  auto pfs = std::move(hfad::posix::PosixFs::Mount(fs.get())).value();
  (void)pfs->Mkdir("/c0");
  for (int i = 0; i < members; i++) {
    auto fd = pfs->Open("/c0/m" + std::to_string(i),
                        hfad::posix::kWrite | hfad::posix::kCreate);
    (void)pfs->Close(*fd);
  }
  uint64_t gen = 0;
  for (auto _ : state) {
    std::string from = "/c" + std::to_string(gen);
    std::string to = "/c" + std::to_string(gen + 1);
    (void)pfs->Rename(from, to);
    gen++;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(members) + " members, full-path rewrite");
}
BENCHMARK(BM_CollectionRename_HfadPosixDir)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
