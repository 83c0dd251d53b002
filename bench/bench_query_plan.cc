// A1 (ablation): the selectivity-ordered conjunction optimizer vs naive left-to-right
// evaluation, on skewed tag cardinalities. Open question #3 asked whether index stores
// should include "full-fledged query optimizers"; this quantifies how far the cheap
// cardinality-ordering heuristic gets.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "src/core/filesystem.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::query::PlanStats;
using hfad::query::QueryEngine;

// Skewed volume: tag cardinalities span three orders of magnitude.
//   huge:  every object            (n)
//   big:   every 10th              (n/10)
//   mid:   every 100th             (n/100)
//   rare:  every 1000th            (n/1000)
struct SkewFixture {
  explicit SkewFixture(int n) {
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

SkewFixture* Fixture() {
  static SkewFixture f(20000);
  return &f;
}

void RunQuery(benchmark::State& state, const char* query, bool optimize) {
  SkewFixture* f = Fixture();
  QueryEngine engine(f->fs->indexes(), optimize);
  uint64_t rows = 0;
  uint64_t lookups = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    PlanStats stats;
    auto r = engine.Run(query, &stats);
    benchmark::DoNotOptimize(r.ok());
    rows += stats.rows_scanned;
    lookups += stats.index_lookups;
    runs++;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_scanned"] = static_cast<double>(rows) / runs;
  state.counters["index_lookups"] = static_cast<double>(lookups) / runs;
}

// Worst-case term order for the naive plan: biggest first.
void BM_TwoTerm_Optimized(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:rare", true);
}
BENCHMARK(BM_TwoTerm_Optimized)->Unit(benchmark::kMicrosecond);

void BM_TwoTerm_Naive(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:rare", false);
}
BENCHMARK(BM_TwoTerm_Naive)->Unit(benchmark::kMicrosecond);

void BM_FourTerm_Optimized(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:big AND UDEF:mid AND UDEF:rare", true);
}
BENCHMARK(BM_FourTerm_Optimized)->Unit(benchmark::kMicrosecond);

void BM_FourTerm_Naive(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:big AND UDEF:mid AND UDEF:rare", false);
}
BENCHMARK(BM_FourTerm_Naive)->Unit(benchmark::kMicrosecond);

// Empty-term early exit: the optimizer runs the 0-cardinality term first and skips
// every other lookup; the naive plan scans the huge term for nothing.
void BM_EmptyConjunct_Optimized(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:big AND UDEF:absent", true);
}
BENCHMARK(BM_EmptyConjunct_Optimized)->Unit(benchmark::kMicrosecond);

void BM_EmptyConjunct_Naive(benchmark::State& state) {
  RunQuery(state, "UDEF:huge AND UDEF:big AND UDEF:absent", false);
}
BENCHMARK(BM_EmptyConjunct_Naive)->Unit(benchmark::kMicrosecond);

// Best-case order for the naive plan (already selective-first): the optimizer must not
// make it worse.
void BM_AlreadyOrdered_Optimized(benchmark::State& state) {
  RunQuery(state, "UDEF:rare AND UDEF:mid AND UDEF:huge", true);
}
BENCHMARK(BM_AlreadyOrdered_Optimized)->Unit(benchmark::kMicrosecond);

void BM_AlreadyOrdered_Naive(benchmark::State& state) {
  RunQuery(state, "UDEF:rare AND UDEF:mid AND UDEF:huge", false);
}
BENCHMARK(BM_AlreadyOrdered_Naive)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
