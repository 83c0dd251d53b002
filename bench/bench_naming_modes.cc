// T1 (Table 1): every naming mode — POSIX path, FULLTEXT term, USER/UDEF manual tags,
// APP tags, and the ID fastpath — measured as lookup latency against volume size.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::Random;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::core::ObjectId;

// One volume per size, shared by all naming-mode benches at that size.
struct Fixture {
  explicit Fixture(int objects) {
    FileSystemOptions options;
    options.osd.journaling = false;
    fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(2ull << 30),
                                      options))
             .value();
    Random rng(17);
    oids.reserve(objects);
    for (int i = 0; i < objects; i++) {
      std::string suffix = std::to_string(i);
      auto oid = fs->Create({{"POSIX", "/corpus/dir" + std::to_string(i % 100) +
                                           "/file" + suffix},
                             {"USER", "user" + std::to_string(i % 50)},
                             {"UDEF", "tag" + suffix},
                             {"APP", "app" + std::to_string(i % 10)}});
      (void)fs->Write(*oid, 0, "content body with token" + suffix + " inside");
      (void)fs->IndexContent(*oid);
      oids.push_back(*oid);
    }
  }

  std::unique_ptr<FileSystem> fs;
  std::vector<ObjectId> oids;
};

Fixture* GetFixture(int objects) {
  static Fixture f10k(10000);
  static Fixture f100k(100000);
  return objects == 10000 ? &f10k : &f100k;
}

void BM_NamePosixPath(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(1);
  const int n = static_cast<int>(f->oids.size());
  for (auto _ : state) {
    int i = static_cast<int>(rng.Uniform(n));
    auto ids = f->fs->Lookup({{"POSIX", "/corpus/dir" + std::to_string(i % 100) +
                                            "/file" + std::to_string(i)}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NamePosixPath)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_NameFulltextTerm(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(2);
  const int n = static_cast<int>(f->oids.size());
  for (auto _ : state) {
    auto ids = f->fs->Lookup(
        {{"FULLTEXT", "token" + std::to_string(rng.Uniform(n))}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameFulltextTerm)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_NameUserTag(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(3);
  for (auto _ : state) {
    // USER values are shared by n/50 objects: measures multi-result naming.
    auto ids = f->fs->Lookup({{"USER", "user" + std::to_string(rng.Uniform(50))}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("~n/50 results per lookup");
}
BENCHMARK(BM_NameUserTag)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_NameUdefTag(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(4);
  const int n = static_cast<int>(f->oids.size());
  for (auto _ : state) {
    auto ids = f->fs->Lookup({{"UDEF", "tag" + std::to_string(rng.Uniform(n))}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameUdefTag)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_NameAppConjunction(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(5);
  const int n = static_cast<int>(f->oids.size());
  for (auto _ : state) {
    // Table 1's application row: APP plus USER, as applications tag both.
    int i = static_cast<int>(rng.Uniform(n));
    auto ids = f->fs->Lookup({{"APP", "app" + std::to_string(i % 10)},
                              {"USER", "user" + std::to_string(i % 50)}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameAppConjunction)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_NameIdFastpath(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  Random rng(6);
  const int n = static_cast<int>(f->oids.size());
  for (auto _ : state) {
    auto ids = f->fs->Lookup(
        {{"ID", std::to_string(f->oids[rng.Uniform(n)])}});
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("object-reference caching path");
}
BENCHMARK(BM_NameIdFastpath)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
