// The durability hot path: journal commit storms, checkpoint-under-load, and write-back
// coalescing.
//
// MemoryBlockDevice::Sync() is free, which would make any fsync-amortization win
// invisible; SlowSyncDevice charges a fixed latency per Sync (default 100us, roughly one
// NVMe FLUSH) so the benchmarks measure how many acknowledged records one device sync
// amortizes across. The numbers to watch:
//
//   * CommitStorm@8 vs @1      — how group commit scales when every op syncs.
//   * file:1 arms              — CommitStorm and OsdSyncStorm on a FileBlockDevice in
//                                the temp directory, where Sync is a real fdatasync.
//   * AppendDuringSync         — whether appenders ride out an in-flight fsync (the
//                                commit chain) or queue behind it.
//   * OsdSyncStorm / TagStorm  — the same window measured end-to-end through the OSD and
//                                FileSystem layers (journal_mu_ plumbing included).
//   * CheckpointUnderLoad      — op throughput while the journal keeps filling (NoSpace
//                                recovery vs threshold-triggered checkpoints).
//   * FlushCoalescing          — device writes issued per checkpoint flush of scattered
//                                vs adjacent dirty pages (sorted, coalesced write-back).
//
// BENCH_journal.json holds the checked-in trajectory (pre- and post-group-commit);
// docs/BENCHMARKS.md has the regeneration commands.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/journal/journal.h"
#include "src/osd/osd.h"
#include "src/storage/block_device.h"
#include "src/storage/pager.h"

namespace {

using hfad::BlockDevice;
using hfad::FaultyBlockDevice;
using hfad::FileBlockDevice;
using hfad::MemoryBlockDevice;
using hfad::Slice;
using hfad::Status;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::journal::Journal;
using hfad::osd::Osd;
using hfad::osd::OsdOptions;
namespace stats = hfad::stats;

// Charges a fixed latency per Sync — the cost group commit exists to amortize. Reads and
// writes pass through untouched (RAM-speed, like a device write cache).
class SlowSyncDevice : public BlockDevice {
 public:
  SlowSyncDevice(std::shared_ptr<BlockDevice> base, std::chrono::microseconds sync_cost)
      : base_(std::move(base)), sync_cost_(sync_cost) {}

  Status Read(uint64_t offset, size_t size, std::string* out) const override {
    return base_->Read(offset, size, out);
  }
  Status Write(uint64_t offset, Slice data) override { return base_->Write(offset, data); }
  Status Sync() override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(sync_cost_);
    return base_->Sync();
  }
  uint64_t Size() const override { return base_->Size(); }

  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<BlockDevice> base_;
  const std::chrono::microseconds sync_cost_;
  std::atomic<uint64_t> syncs_{0};
};

constexpr auto kSyncCost = std::chrono::microseconds(100);
constexpr uint64_t kJournalRegion = 64ull * 1024 * 1024;

std::shared_ptr<SlowSyncDevice> g_slow;
std::shared_ptr<BlockDevice> g_dev;  // The storm's device: g_slow or a file.
uint64_t g_commits_before = 0;
std::unique_ptr<Journal> g_journal;
std::unique_ptr<Osd> g_osd;
std::unique_ptr<FileSystem> g_fs;
std::atomic<int> g_storm_active{0};

std::string StormFilePath() {
  return (std::filesystem::temp_directory_path() / "hfad_bench_journal_storm.img").string();
}

// Sets g_dev to the device arm `file` selects (the storm benchmarks' argument): RAM
// charged kSyncCost per Sync (also kept in g_slow for its sync count), or a fresh
// FileBlockDevice of `size` bytes in the temp directory.
void OpenStormDevice(bool file, uint64_t size) {
  if (file) {
    std::filesystem::remove(StormFilePath());
    g_dev = std::move(FileBlockDevice::Open(StormFilePath(), size)).value();
    g_commits_before = stats::Get(stats::Counter::kJournalCommits);
  } else {
    g_slow = std::make_shared<SlowSyncDevice>(std::make_shared<MemoryBlockDevice>(size),
                                              kSyncCost);
    g_dev = g_slow;
  }
}

// Reports the arm's device syncs (RAM) or journal commits (file) so far.
void ReportStormCounters(benchmark::State& state) {
  if (g_slow) {
    state.counters["syncs"] = static_cast<double>(g_slow->syncs());
  } else {
    state.counters["commits"] =
        static_cast<double>(stats::Get(stats::Counter::kJournalCommits) - g_commits_before);
  }
}

// Drops the device and removes the file arm's file.
void CloseStormDevice() {
  if (!g_slow) std::filesystem::remove(StormFilePath());
  g_slow.reset();
  g_dev.reset();
}

// ---------------------------------------------------------------- raw journal storms

// Every iteration is one acknowledged durable record: Append + a blocking Commit. With
// one thread this is the floor (one sync per record); with 8 it measures how many
// threads one chain link's sync covers.
void BM_CommitStorm(benchmark::State& state) {
  if (state.thread_index() == 0) {
    OpenStormDevice(state.range(0) != 0, kJournalRegion);
    g_journal = std::make_unique<Journal>(g_dev.get(), 0, kJournalRegion);
  }
  const std::string payload = "commit-storm-record-" + std::to_string(state.thread_index());
  for (auto _ : state) {
    auto seq = g_journal->Append(payload);
    if (!seq.ok()) {  // Region full: reset (not measured as an error path).
      (void)g_journal->Reset();
      seq = g_journal->Append(payload);
    }
    benchmark::DoNotOptimize(seq.ok());
    Status s = g_journal->Commit();
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ReportStormCounters(state);
    g_journal.reset();
    CloseStormDevice();
  }
}
BENCHMARK(BM_CommitStorm)
    ->ArgName("file")
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The completion-driven commit path: 64 simulated clients spread across the benchmark
// threads, each keeping a window of Append+CommitAsync commits outstanding instead of
// blocking per record. One chained engine commit covers every record appended while the
// previous link's fsync was in flight, so throughput is bounded by window-per-sync, not
// threads-per-sync — the "thousands of in-flight commits on a handful of threads" shape,
// held to 64 here to compare against BM_CommitStorm@8's blocking ceiling.
void BM_AsyncCommitStorm(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_slow = std::make_shared<SlowSyncDevice>(
        std::make_shared<MemoryBlockDevice>(kJournalRegion), kSyncCost);
    g_journal = std::make_unique<Journal>(g_slow.get(), 0, kJournalRegion);
    g_storm_active.store(state.threads());
  }
  const int window = std::max(1, 64 / static_cast<int>(state.threads()));
  const std::string payload = "async-storm-record-" + std::to_string(state.thread_index());
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  uint64_t failures = 0;
  for (auto _ : state) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < window; });
      ++outstanding;
    }
    auto seq = g_journal->Append(payload);
    if (!seq.ok()) {  // Region full: reset (not measured as an error path).
      (void)g_journal->Reset();
      seq = g_journal->Append(payload);
    }
    benchmark::DoNotOptimize(seq.ok());
    g_journal->CommitAsync(*seq, [&](Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (!s.ok()) ++failures;
      --outstanding;
      cv.notify_one();
    });
  }
  {  // Drain this thread's window before anyone tears the journal down.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  state.SetItemsProcessed(state.iterations());
  if (failures != 0) state.SkipWithError("async commit failed");
  g_storm_active.fetch_sub(1);
  if (state.thread_index() == 0) {
    while (g_storm_active.load() != 0) std::this_thread::yield();
    state.counters["syncs"] = static_cast<double>(g_slow->syncs());
    state.counters["max_queue_depth"] =
        static_cast<double>(g_journal->io_engine()->max_queue_depth());
    g_journal.reset();  // ~Journal shuts its engine down before the device goes.
    g_slow.reset();
  }
}
BENCHMARK(BM_AsyncCommitStorm)->ThreadRange(1, 8)->UseRealTime()->MeasureProcessCPUTime();

// Mixed appenders and committers: each thread appends a burst of 8 records, then makes
// them durable with one Commit. The burst appends land while other threads' commits are
// mid-fsync — the path that serializes when Append must wait for an in-flight Sync.
void BM_AppendDuringSync(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_slow = std::make_shared<SlowSyncDevice>(
        std::make_shared<MemoryBlockDevice>(kJournalRegion), kSyncCost);
    g_journal = std::make_unique<Journal>(g_slow.get(), 0, kJournalRegion);
  }
  const std::string payload = "burst-record";
  int i = 0;
  for (auto _ : state) {
    auto seq = g_journal->Append(payload);
    if (!seq.ok()) {
      (void)g_journal->Reset();
      seq = g_journal->Append(payload);
    }
    benchmark::DoNotOptimize(seq.ok());
    if (++i % 8 == 0) {
      Status s = g_journal->Commit();
      benchmark::DoNotOptimize(s.ok());
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["syncs"] = static_cast<double>(g_slow->syncs());
    g_journal.reset();
    g_slow.reset();
  }
}
BENCHMARK(BM_AppendDuringSync)->ThreadRange(1, 8)->UseRealTime()->MeasureProcessCPUTime();

// ---------------------------------------------------------------- OSD / FS end to end

// fsync-per-op through the OSD: every iteration creates an object and makes it durable.
// Exercises journal_mu_ + the commit protocol together.
void BM_OsdSyncStorm(benchmark::State& state) {
  if (state.thread_index() == 0) {
    OpenStormDevice(state.range(0) != 0, 1ull << 30);
    OsdOptions options;
    g_osd = std::move(Osd::Create(g_dev, options)).value();
  }
  for (auto _ : state) {
    auto oid = g_osd->CreateObject();
    benchmark::DoNotOptimize(oid.ok());
    Status s = g_osd->Sync();
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ReportStormCounters(state);
    g_osd.reset();
    CloseStormDevice();
  }
}
BENCHMARK(BM_OsdSyncStorm)
    ->ArgName("file")
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Tag storm with per-batch durability through the FileSystem: each iteration commits a
// NamespaceBatch of 4 tags and Syncs. The 8-thread number is ROADMAP perf target 2.
void BM_TagStormSync(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_slow = std::make_shared<SlowSyncDevice>(
        std::make_shared<MemoryBlockDevice>(1ull << 30), kSyncCost);
    g_fs = std::move(FileSystem::Create(g_slow)).value();
  }
  const std::string user = "user" + std::to_string(state.thread_index());
  uint64_t i = 0;
  for (auto _ : state) {
    auto batch = g_fs->NewBatch();
    auto oid = batch.Create({{"USER", user}});
    benchmark::DoNotOptimize(oid.ok());
    std::string n = std::to_string(i++);
    (void)batch.AddTag(*oid, {"UDEF", "a" + n});
    (void)batch.AddTag(*oid, {"UDEF", "b" + n});
    (void)batch.AddTag(*oid, {"APP", "bench"});
    Status s = batch.Commit();
    benchmark::DoNotOptimize(s.ok());
    s = g_fs->Sync();
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["syncs"] = static_cast<double>(g_slow->syncs());
    g_fs.reset();
    g_slow.reset();
  }
}
BENCHMARK(BM_TagStormSync)->ThreadRange(1, 8)->UseRealTime()->MeasureProcessCPUTime();

// Ops against a deliberately small journal so checkpoints trigger continuously: measures
// whether a tag storm stalls behind full checkpoints on the op path. No slow sync — the
// checkpoint's page write-back is the cost under test.
void BM_CheckpointUnderLoad(benchmark::State& state) {
  if (state.thread_index() == 0) {
    FileSystemOptions options;
    options.osd.journal_size = 256 * 1024;  // Fills every few hundred ops.
    g_fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                        options))
               .value();
  }
  const std::string user = "user" + std::to_string(state.thread_index());
  uint64_t i = 0;
  for (auto _ : state) {
    auto oid = g_fs->Create({{"USER", user}, {"UDEF", "n" + std::to_string(i++)}});
    benchmark::DoNotOptimize(oid.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    g_fs.reset();
  }
}
BENCHMARK(BM_CheckpointUnderLoad)->ThreadRange(1, 8)->UseRealTime()->MeasureProcessCPUTime();

// ---------------------------------------------------------------- write-back coalescing

// Dirty 256 4-KiB pages straight in the page cache (Arg 0: one adjacent run; Arg 1:
// strided, so nothing can merge), then Flush. device_writes_per_flush is the coalescing
// win: the sorted batched write-back collapses an adjacent dirty run into one device
// write, where the per-page path issued one write per page regardless of layout.
void BM_FlushCoalescing(benchmark::State& state) {
  const bool strided = state.range(0) != 0;
  const int pages = 256;
  auto base = std::make_shared<MemoryBlockDevice>(1ull << 30);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  hfad::Pager pager(faulty.get(), 8192);
  uint64_t flushes = 0;
  const uint64_t writes_before = faulty->writes_attempted();
  for (auto _ : state) {
    for (int p = 0; p < pages; p++) {
      uint64_t off = hfad::kPageSize *
                     (1 + static_cast<uint64_t>(p) * (strided ? 2 : 1));
      auto page = pager.GetZeroed(off);
      (*page)->cdata()[0] = 'x';
      (*page)->MarkDirty();
    }
    benchmark::DoNotOptimize(pager.Flush().ok());
    flushes++;
  }
  state.SetItemsProcessed(state.iterations() * pages);
  state.counters["device_writes_per_flush"] =
      flushes == 0 ? 0
                   : static_cast<double>(faulty->writes_attempted() - writes_before) /
                         static_cast<double>(flushes);
}
BENCHMARK(BM_FlushCoalescing)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
