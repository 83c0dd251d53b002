// The unified naming API under load: boolean plans of varying selectivity through the
// cost-based planner, paginated vs. materializing lookup, and batched vs. per-tag
// namespace mutation (journal records written is the headline: one per batch vs. one
// per tag). Baseline lives in BENCH_query.json; numbers in docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/core/filesystem.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::core::NamespaceBatch;
using hfad::core::TagValue;
using hfad::query::FindOptions;
using hfad::query::PlanStats;

// Skewed read-mostly volume for the query benches (journaling off: pure index cost).
//   huge: every object (n)   big: n/10   mid: n/100   rare: n/1000
struct QueryFixture {
  explicit QueryFixture(int n) {
    FileSystemOptions options;
    options.osd.journaling = false;
    fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                      options))
             .value();
    for (int i = 0; i < n; i++) {
      auto oid = fs->Create({{"UDEF", "huge"}});
      if (i % 10 == 0) {
        (void)fs->AddTag(*oid, {"UDEF", "big"});
      }
      if (i % 100 == 0) {
        (void)fs->AddTag(*oid, {"UDEF", "mid"});
      }
      if (i % 1000 == 0) {
        (void)fs->AddTag(*oid, {"UDEF", "rare"});
      }
    }
  }
  std::unique_ptr<FileSystem> fs;
};

QueryFixture* Fixture() {
  static QueryFixture f(20000);
  return &f;
}

// ---------------------------------------------------------------- boolean selectivity

void RunFind(benchmark::State& state, const char* query) {
  FileSystem* fs = Fixture()->fs.get();
  uint64_t rows = 0, lookups = 0, probes = 0, results = 0, runs = 0;
  for (auto _ : state) {
    PlanStats stats;
    FindOptions options;
    options.stats = &stats;
    auto r = fs->Find(query, options);
    benchmark::DoNotOptimize(r.ok());
    rows += stats.rows_scanned;
    lookups += stats.index_lookups;
    probes += stats.membership_probes;
    results += r.ok() ? r->ids.size() : 0;
    runs++;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_scanned"] = static_cast<double>(rows) / runs;
  state.counters["index_lookups"] = static_cast<double>(lookups) / runs;
  state.counters["membership_probes"] = static_cast<double>(probes) / runs;
  state.counters["results"] = static_cast<double>(results) / runs;
}

// High selectivity: the planner drives with 20 postings against 20000.
void BM_Find_RareAndHuge(benchmark::State& state) { RunFind(state, "UDEF:rare AND UDEF:huge"); }
BENCHMARK(BM_Find_RareAndHuge)->Unit(benchmark::kMicrosecond);

// Medium selectivity: 200 against 2000.
void BM_Find_MidAndBig(benchmark::State& state) { RunFind(state, "UDEF:mid AND UDEF:big"); }
BENCHMARK(BM_Find_MidAndBig)->Unit(benchmark::kMicrosecond);

// Low selectivity with negation: most of the volume survives.
void BM_Find_HugeNotBig(benchmark::State& state) {
  RunFind(state, "UDEF:huge AND NOT UDEF:big");
}
BENCHMARK(BM_Find_HugeNotBig)->Unit(benchmark::kMicrosecond);

// Disjunction merge.
void BM_Find_MidOrRare(benchmark::State& state) { RunFind(state, "UDEF:mid OR UDEF:rare"); }
BENCHMARK(BM_Find_MidOrRare)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- paginated vs. full

// The legacy shape: materialize all ~20000 ids per call.
void BM_Lookup_Materializing(benchmark::State& state) {
  FileSystem* fs = Fixture()->fs.get();
  for (auto _ : state) {
    auto r = fs->Lookup({{"UDEF", "huge"}});
    benchmark::DoNotOptimize(r.ok() ? r->size() : 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lookup_Materializing)->Unit(benchmark::kMicrosecond);

// The streaming shape: one 64-id page of the same result set per call.
void BM_Find_FirstPage64(benchmark::State& state) {
  FileSystem* fs = Fixture()->fs.get();
  FindOptions options;
  options.limit = 64;
  for (auto _ : state) {
    auto r = fs->Find("UDEF:huge", options);
    benchmark::DoNotOptimize(r.ok() ? r->ids.size() : 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Find_FirstPage64)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- batched mutation

constexpr int kTagsPerObject = 8;

// Journaled volume for the mutation benches (group commit on, the default).
std::unique_ptr<FileSystem> MakeJournaledFs() {
  return std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30)))
      .value();
}

// N loose AddTag calls: one tag-shard acquisition and one journal record per tag.
void BM_Mutate_PerTagAddTag(benchmark::State& state) {
  auto fs = MakeJournaledFs();
  uint64_t records = 0, ops = 0;
  int serial = 0;
  for (auto _ : state) {
    auto oid = fs->Create(std::vector<TagValue>{});
    uint64_t before = fs->volume()->journal_records_appended();
    for (int t = 0; t < kTagsPerObject; t++) {
      (void)fs->AddTag(*oid, {"UDEF", "tag" + std::to_string((serial + t) % 64)});
    }
    records += fs->volume()->journal_records_appended() - before;
    ops++;
    serial++;
  }
  state.SetItemsProcessed(state.iterations() * kTagsPerObject);
  state.counters["journal_records_per_object"] = static_cast<double>(records) / ops;
}
BENCHMARK(BM_Mutate_PerTagAddTag)->Unit(benchmark::kMicrosecond);

// The same tags staged on a NamespaceBatch: one multi-shard acquisition, ONE record.
void BM_Mutate_BatchedAddTag(benchmark::State& state) {
  auto fs = MakeJournaledFs();
  uint64_t records = 0, ops = 0;
  int serial = 0;
  for (auto _ : state) {
    auto oid = fs->Create(std::vector<TagValue>{});
    uint64_t before = fs->volume()->journal_records_appended();
    NamespaceBatch batch = fs->NewBatch();
    for (int t = 0; t < kTagsPerObject; t++) {
      (void)batch.AddTag(*oid, {"UDEF", "tag" + std::to_string((serial + t) % 64)});
    }
    (void)batch.Commit();
    records += fs->volume()->journal_records_appended() - before;
    ops++;
    serial++;
  }
  state.SetItemsProcessed(state.iterations() * kTagsPerObject);
  state.counters["journal_records_per_object"] = static_cast<double>(records) / ops;
}
BENCHMARK(BM_Mutate_BatchedAddTag)->Unit(benchmark::kMicrosecond);

// Create with initial names also rides one batch record now.
void BM_Mutate_CreateWithNames(benchmark::State& state) {
  auto fs = MakeJournaledFs();
  uint64_t records = 0, ops = 0;
  for (auto _ : state) {
    uint64_t before = fs->volume()->journal_records_appended();
    std::vector<TagValue> names;
    for (int t = 0; t < kTagsPerObject; t++) {
      names.push_back({"UDEF", "tag" + std::to_string(t)});
    }
    auto oid = fs->Create(names);
    benchmark::DoNotOptimize(oid.ok());
    records += fs->volume()->journal_records_appended() - before;
    ops++;
  }
  state.SetItemsProcessed(state.iterations() * kTagsPerObject);
  state.counters["journal_records_per_object"] = static_cast<double>(records) / ops;
}
BENCHMARK(BM_Mutate_CreateWithNames)->Unit(benchmark::kMicrosecond);

}  // namespace

// BENCHMARK_MAIN plus an optional metrics dump: with HFAD_DUMP_METRICS=<path> the
// run's FileSystem::DumpMetrics() JSON lands there after the benchmarks finish (CI
// validates it against the documented schema via tools/check_metrics_schema.py).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("HFAD_DUMP_METRICS")) {
    std::string doc = Fixture()->fs->DumpMetrics();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for metrics dump\n", path);
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  return 0;
}
