// Instrumentation overhead: the bench_query page-64 Find hot path and the journaled
// AddTag hot path re-run at fixed iteration counts under four observability modes —
// everything off, always-on histograms only (the shipped default), histograms plus
// 1-in-64 sampled tracing (the default sampling rate), and histograms plus tracing
// every operation. Baseline lives in BENCH_observability.json; the acceptance bar is
// always-on histogram cost < 5% on the Find path.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/filesystem.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::core::TagValue;
using hfad::query::FindOptions;

// Mode axis: state.range(0).
enum Mode : int {
  kOff = 0,        // Histograms disabled, tracing off — the true baseline.
  kHistOnly = 1,   // Always-on histograms, tracing off — the shipped default cost.
  kTrace64 = 2,    // Histograms + 1-in-64 sampled tracing (default sample rate).
  kTraceAll = 3,   // Histograms + every operation traced.
};

const char* ModeName(int mode) {
  switch (mode) {
    case kOff: return "off";
    case kHistOnly: return "hist_only";
    case kTrace64: return "trace_1_in_64";
    default: return "trace_always";
  }
}

void ApplyMode(int mode) {
  hfad::metrics::SetEnabled(mode != kOff);
  hfad::trace::SetSampleEvery(mode == kTrace64 ? 64 : mode == kTraceAll ? 1 : 0);
}

void RestoreDefaults() {
  hfad::metrics::SetEnabled(true);
  hfad::trace::SetSampleEvery(64);
}

// Same skewed volume as bench_query (journaling off: pure index + pager cost).
FileSystem* QueryFixture() {
  static std::unique_ptr<FileSystem> fs = [] {
    FileSystemOptions options;
    options.osd.journaling = false;
    auto f = FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30), options);
    for (int i = 0; i < 20000; i++) {
      auto oid = (*f)->Create({{"UDEF", "huge"}});
      if (i % 10 == 0) {
        (void)(*f)->AddTag(*oid, {"UDEF", "big"});
      }
    }
    return std::move(*f);
  }();
  return fs.get();
}

// The bench_query streaming hot path: one 64-id page per call.
void BM_FindPage64(benchmark::State& state) {
  FileSystem* fs = QueryFixture();
  ApplyMode(static_cast<int>(state.range(0)));
  FindOptions options;
  options.limit = 64;
  for (auto _ : state) {
    auto r = fs->Find("UDEF:huge", options);
    benchmark::DoNotOptimize(r.ok() ? r->ids.size() : 0);
  }
  RestoreDefaults();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ModeName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FindPage64)
    ->Arg(kOff)->Arg(kHistOnly)->Arg(kTrace64)->Arg(kTraceAll)
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

// The journal hot path: one journaled AddTag per iteration (group commit on, the
// default), cycling values so postings stay small.
void BM_JournalAddTag(benchmark::State& state) {
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  auto oid = fs->Create(std::vector<TagValue>{});
  ApplyMode(static_cast<int>(state.range(0)));
  int serial = 0;
  for (auto _ : state) {
    (void)fs->AddTag(*oid, {"UDEF", "v" + std::to_string(serial++)});
  }
  RestoreDefaults();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ModeName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_JournalAddTag)
    ->Arg(kOff)->Arg(kHistOnly)->Arg(kTrace64)->Arg(kTraceAll)
    ->Iterations(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
