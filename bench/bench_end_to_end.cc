// F1 (Figure 1): the layered architecture working end to end — index stores and
// arbitrary-length extents over the OSD over stable storage, with the POSIX veneer on
// top. Mixed-workload throughput through every layer, plus the durability-mode sweep
// (journaling × group commit: §3.3's "the OSD may be transactional" as a dial).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/posix/posix_fs.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::Random;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::core::ObjectId;

// A lifecycle op mix through the native API: create+tag, write, index, search by tag,
// content search, read, retag, delete. Roughly what a desktop search-centric workload
// does all day.
void BM_MixedNativeWorkload(benchmark::State& state) {
  FileSystemOptions options;
  options.osd.journaling = state.range(0) != 0;
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                         options))
                .value();
  Random rng(11);
  std::vector<ObjectId> live;
  uint64_t serial = 0;
  for (auto _ : state) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 3 || live.size() < 8) {
      auto oid = fs->Create({{"USER", "user" + std::to_string(serial % 8)},
                             {"UDEF", "batch" + std::to_string(serial % 32)}});
      std::string body = "document " + std::to_string(serial) + " about subject" +
                         std::to_string(serial % 64);
      (void)fs->Write(*oid, 0, body);
      (void)fs->IndexContent(*oid);
      live.push_back(*oid);
      serial++;
    } else if (action < 5) {
      auto ids = fs->Lookup({{"UDEF", "batch" + std::to_string(rng.Uniform(32))}});
      benchmark::DoNotOptimize(ids.ok());
    } else if (action < 7) {
      auto hits = fs->SearchText({"subject" + std::to_string(rng.Uniform(64))}, 10);
      benchmark::DoNotOptimize(hits.ok());
    } else if (action < 9) {
      ObjectId oid = live[rng.Uniform(live.size())];
      std::string out;
      (void)fs->Read(oid, 0, 4096, &out);
      benchmark::DoNotOptimize(out.data());
    } else {
      size_t idx = rng.Uniform(live.size());
      (void)fs->Remove(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(options.osd.journaling ? "journaled" : "no journal");
}
// Iteration counts are pinned: these workloads consume allocator space monotonically
// (only ~10% of ops delete), so letting the harness auto-scale iterations makes a fast
// build run the volume into NoSpace. Fixed counts stay below the 512 MiB buddy heap
// and keep items/s comparable across builds.
BENCHMARK(BM_MixedNativeWorkload)->Arg(0)->Arg(1)->Iterations(50000);

// The same spirit through the POSIX veneer: create/write/read/readdir/unlink under a
// directory tree. Everything below the veneer is tag lookups and range scans.
void BM_MixedPosixWorkload(benchmark::State& state) {
  FileSystemOptions options;
  options.osd.journaling = false;
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                         options))
                .value();
  auto pfs = std::move(hfad::posix::PosixFs::Mount(fs.get())).value();
  for (int d = 0; d < 8; d++) {
    (void)pfs->Mkdir("/dir" + std::to_string(d));
  }
  Random rng(13);
  uint64_t serial = 0;
  std::vector<std::string> files;
  for (auto _ : state) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 4 || files.size() < 8) {
      std::string path = "/dir" + std::to_string(serial % 8) + "/f" +
                         std::to_string(serial);
      auto fd = pfs->Open(path, hfad::posix::kWrite | hfad::posix::kCreate);
      (void)pfs->Pwrite(*fd, 0, "file body " + std::to_string(serial));
      (void)pfs->Close(*fd);
      files.push_back(path);
      serial++;
    } else if (action < 7) {
      auto fd = pfs->Open(files[rng.Uniform(files.size())], hfad::posix::kRead);
      if (fd.ok()) {
        std::string out;
        (void)pfs->Pread(*fd, 0, 4096, &out);
        (void)pfs->Close(*fd);
      }
    } else if (action < 9) {
      auto entries = pfs->Readdir("/dir" + std::to_string(rng.Uniform(8)));
      benchmark::DoNotOptimize(entries.ok());
    } else {
      size_t idx = rng.Uniform(files.size());
      (void)pfs->Unlink(files[idx]);
      files[idx] = files.back();
      files.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixedPosixWorkload)->Iterations(30000);

// Durability dial: cost of one tagged-create+write under each §3.3 mode.
void BM_DurabilityModes(benchmark::State& state) {
  FileSystemOptions options;
  options.osd.journaling = state.range(0) != 0;
  options.osd.group_commit = state.range(1) != 0;
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                         options))
                .value();
  uint64_t serial = 0;
  for (auto _ : state) {
    auto oid = fs->Create({{"UDEF", "d" + std::to_string(serial++)}});
    (void)fs->Write(*oid, 0, "payload payload payload");
  }
  state.SetItemsProcessed(state.iterations());
  if (!options.osd.journaling) {
    state.SetLabel("no journal (durability at checkpoint only)");
  } else if (options.osd.group_commit) {
    state.SetLabel("journal + group commit (durable at Sync)");
  } else {
    state.SetLabel("journal + sync per op (durable at return)");
  }
}
BENCHMARK(BM_DurabilityModes)->Args({0, 0})->Args({1, 1})->Args({1, 0})->Iterations(10000);

// Recovery time vs uncheckpointed work: how long Open takes after a crash with k
// journaled ops outstanding.
void BM_CrashRecovery(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto base = std::make_shared<MemoryBlockDevice>(512ull << 20);
    auto faulty = std::make_shared<hfad::FaultyBlockDevice>(base);
    FileSystemOptions options;
    options.osd.group_commit = false;
    {
      auto fs = std::move(FileSystem::Create(faulty, options)).value();
      for (int i = 0; i < ops; i++) {
        auto oid = fs->Create({{"UDEF", "crash" + std::to_string(i)}});
        (void)fs->Write(*oid, 0, "payload " + std::to_string(i));
      }
      faulty->SetWriteBudget(0);  // Crash.
    }
    state.ResumeTiming();
    auto recovered = FileSystem::Open(base, options);
    benchmark::DoNotOptimize(recovered.ok());
  }
  state.SetLabel(std::to_string(ops) + " ops to replay");
}
BENCHMARK(BM_CrashRecovery)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
