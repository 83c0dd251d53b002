// C2 (§2.3 ¶2): "the directories /home/nick and /home/margo are functionally unrelated
// most of the time, yet accessing them requires synchronizing read access through a
// shared ancestor directory."
//
// N threads each work on their own user's files. In hierfs every operation resolves
// /home/user<i>/..., read-locking "/" and "/home" on the way — the shared-ancestor
// bottleneck. In hFAD each thread's objects are named by USER:user<i> tags; no shared
// structure sits between unrelated users. Throughput vs thread count is the paper's
// claimed divergence; lock_contentions makes the cause visible.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/hierfs/hierfs.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
namespace stats = hfad::stats;

constexpr int kFilesPerUser = 64;

// Shared fixtures across benchmark threads (google-benchmark runs the function once
// per thread; thread 0 does setup).
std::unique_ptr<hfad::hierfs::HierFs> g_hier;
std::unique_ptr<FileSystem> g_hfad;

void BM_LookupThroughSharedAncestors_Hier(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_hier = std::move(hfad::hierfs::HierFs::Create(
                           std::make_shared<MemoryBlockDevice>(1ull << 30)))
                 .value();
    (void)g_hier->Mkdir("/home");
    for (int u = 0; u < state.threads(); u++) {
      std::string dir = "/home/user" + std::to_string(u);
      (void)g_hier->Mkdir(dir);
      for (int f = 0; f < kFilesPerUser; f++) {
        auto ino = g_hier->CreateFile(dir + "/f" + std::to_string(f));
        (void)g_hier->Write(*ino, 0, "x");
      }
    }
    stats::ResetAll();
  }
  const std::string dir = "/home/user" + std::to_string(state.thread_index());
  int i = 0;
  for (auto _ : state) {
    auto ino = g_hier->ResolvePath(dir + "/f" + std::to_string(i % kFilesPerUser));
    benchmark::DoNotOptimize(ino.ok());
    i++;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["lock_contentions"] =
        static_cast<double>(stats::Get(stats::Counter::kLockContentions));
  }
}
BENCHMARK(BM_LookupThroughSharedAncestors_Hier)
    ->ThreadRange(1, 16)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_LookupByTag_Hfad(benchmark::State& state) {
  if (state.thread_index() == 0) {
    FileSystemOptions options;
    options.osd.journaling = false;  // Match hierfs (no journal) for a fair comparison.
    g_hfad = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                          options))
                 .value();
    for (int u = 0; u < state.threads(); u++) {
      std::string user = "user" + std::to_string(u);
      for (int f = 0; f < kFilesPerUser; f++) {
        auto oid = g_hfad->Create(
            {{"USER", user}, {"UDEF", "file" + std::to_string(f)}});
        (void)g_hfad->Write(*oid, 0, "x");
      }
    }
    stats::ResetAll();
  }
  const std::string user = "user" + std::to_string(state.thread_index());
  int i = 0;
  for (auto _ : state) {
    auto ids = g_hfad->Lookup(
        {{"USER", user}, {"UDEF", "file" + std::to_string(i % kFilesPerUser)}});
    benchmark::DoNotOptimize(ids.ok());
    i++;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["lock_contentions"] =
        static_cast<double>(stats::Get(stats::Counter::kLockContentions));
  }
}
BENCHMARK(BM_LookupByTag_Hfad)->ThreadRange(1, 16)->UseRealTime()->MeasureProcessCPUTime();

// Create storm: every thread creates files in its own directory / under its own tag.
// hierfs exclusive-locks the per-user directory AND walks the shared ancestors; hFAD
// appends to independent index entries.
void BM_CreateStorm_Hier(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_hier = std::move(hfad::hierfs::HierFs::Create(
                           std::make_shared<MemoryBlockDevice>(1ull << 30)))
                 .value();
    (void)g_hier->Mkdir("/home");
    for (int u = 0; u < state.threads(); u++) {
      (void)g_hier->Mkdir("/home/user" + std::to_string(u));
    }
  }
  const std::string dir = "/home/user" + std::to_string(state.thread_index());
  uint64_t i = 0;
  for (auto _ : state) {
    auto ino = g_hier->CreateFile(dir + "/new" + std::to_string(i++));
    benchmark::DoNotOptimize(ino.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CreateStorm_Hier)->ThreadRange(1, 16)->UseRealTime()->MeasureProcessCPUTime();

void BM_CreateStorm_Hfad(benchmark::State& state) {
  if (state.thread_index() == 0) {
    FileSystemOptions options;
    options.osd.journaling = false;
    g_hfad = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                          options))
                 .value();
  }
  const std::string user = "user" + std::to_string(state.thread_index());
  uint64_t i = 0;
  for (auto _ : state) {
    auto oid = g_hfad->Create({{"USER", user}, {"UDEF", "new" + std::to_string(i++)}});
    benchmark::DoNotOptimize(oid.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CreateStorm_Hfad)->ThreadRange(1, 16)->UseRealTime()->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
