// Lazy background tag indexing (§3.4 applied to the namespace): tag-storm ingest
// throughput with inline posting updates vs. journaled intents drained by the
// background bulk indexer, plus the strict/relaxed read-visibility cost.
//
// The headline comparison (BM_TagStormIngest) runs against a posting index that does
// NOT fit the page cache, on a device that charges a seek per read: that is the regime
// the lazy design targets — the inline path pays a cold posting-btree descent before it
// can acknowledge, the lazy path acknowledges at journal + reverse-map speed and the
// descent happens behind the ack. The *Warm variants keep everything RAM-resident to
// show the floor: when the index is cached, deferral buys little and costs nothing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/storage/block_device.h"

namespace {

using hfad::BlockDevice;
using hfad::MemoryBlockDevice;
using hfad::Random;
using hfad::Slice;
using hfad::Status;
using hfad::WriteExtent;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::core::ObjectId;

constexpr uint64_t kDev = 1ull << 30;

// Charges a fixed latency per Read — the cache-miss seek that inline posting updates
// put on the acknowledge path. Writes and Sync are free: in this stack every write is
// either a sequential journal append or a sorted, coalesced checkpoint batch, which is
// exactly the IO shape the paper argues journaling buys, so charging them would blur
// the variable under test.
class SeekChargedDevice : public BlockDevice {
 public:
  SeekChargedDevice(std::shared_ptr<BlockDevice> base, std::chrono::microseconds seek)
      : base_(std::move(base)), seek_(seek) {}

  Status Read(uint64_t offset, size_t size, std::string* out) const override {
    // Busy-wait: sleep_for rounds a 25us charge up to timer-slack granularity, and the
    // charge must land on the calling thread's CPU clock to be visible either way the
    // harness reports time.
    auto end = std::chrono::steady_clock::now() + seek_;
    while (std::chrono::steady_clock::now() < end) {
    }
    return base_->Read(offset, size, out);
  }
  Status Write(uint64_t offset, Slice data) override { return base_->Write(offset, data); }
  Status WriteBatch(std::vector<WriteExtent> extents) override {
    return base_->WriteBatch(std::move(extents));
  }
  Status Sync() override { return base_->Sync(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::shared_ptr<BlockDevice> base_;
  std::chrono::microseconds seek_;
};

std::unique_ptr<FileSystem> MakeFs(bool lazy_tags) {
  FileSystemOptions options;
  options.lazy_tag_indexing = lazy_tags;
  // A deep queue: the bench measures acknowledge throughput (the relaxed-mode ingest
  // win), not worker backpressure.
  options.tag_intent_queue_capacity = 1 << 16;
  return std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev),
                                      options))
      .value();
}

// Values padded so the seeded posting tree spans thousands of leaves — more leaves
// than storm operations, so a random-value storm stays miss-dominated instead of
// paging the whole tree in and measuring RAM.
std::string PaddedValue(uint64_t i) {
  std::string v = "v" + std::to_string(1000000 + i);
  v.resize(128, 'x');
  return v;
}

constexpr int kSeedPostings = 100000;
constexpr int kStormOids = 16;

// Tag-storm ingest, cold index: acknowledged AddTag throughput against a pre-seeded
// 100k-posting UDEF index reopened with a 256-page cache on a 25us-per-read device.
// Arg(0) = inline (every ack pays a cold posting-btree descent), Arg(1) = lazy (ack is
// journal append + reverse-map insert; the descent happens behind the ack and is
// drained untimed). Iteration count is pinned so every repetition measures the same
// cold burst rather than auto-scaling into a warmed cache.
void BM_TagStormIngest(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto device =
      std::make_shared<SeekChargedDevice>(base, std::chrono::microseconds(25));

  {
    // Seed with ascending values (fresh pages, no cold reads), then close so the
    // reopened pager starts empty.
    auto seed_fs = std::move(FileSystem::Create(device)).value();
    std::vector<ObjectId> seed_oids;
    for (int i = 0; i < kStormOids; i++) {
      seed_oids.push_back(*seed_fs->Create());
    }
    for (int i = 0; i < kSeedPostings;) {
      auto batch = seed_fs->NewBatch();
      for (int k = 0; k < 512 && i < kSeedPostings; k++, i++) {
        (void)batch.AddTag(seed_oids[i % seed_oids.size()], {"UDEF", PaddedValue(i)});
      }
      if (!batch.Commit().ok()) {
        state.SkipWithError("seed commit failed");
        return;
      }
    }
  }

  FileSystemOptions options;
  options.lazy_tag_indexing = lazy;
  options.tag_intent_queue_capacity = 1 << 16;
  options.osd.pager_capacity_pages = 256;
  auto fs = std::move(FileSystem::Open(device, options)).value();
  std::vector<ObjectId> oids;
  for (int i = 0; i < kStormOids; i++) {
    oids.push_back(*fs->Create());
  }
  Random rng(42);
  uint64_t i = 0;
  for (auto _ : state) {
    ObjectId oid = oids[i % oids.size()];
    benchmark::DoNotOptimize(
        fs->AddTag(oid, {"UDEF", PaddedValue(rng.Uniform(kSeedPostings))}).ok());
    i++;
  }
  (void)fs->WaitForTagIndexing();  // Untimed: relaxed mode's deferred work.
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(lazy ? "lazy (relaxed ack)" : "inline");
}
BENCHMARK(BM_TagStormIngest)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Tag-storm ingest, warm index: same comparison with everything RAM-resident and the
// posting tree growing from empty. This is the floor for the lazy win — when every
// descent is a cache hit, deferral saves only the descent's CPU.
void BM_TagStormIngestWarm(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  auto fs = MakeFs(lazy);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 1024; i++) {
    oids.push_back(*fs->Create());
  }
  uint64_t i = 0;
  for (auto _ : state) {
    ObjectId oid = oids[i % oids.size()];
    benchmark::DoNotOptimize(
        fs->AddTag(oid, {"UDEF", "storm" + std::to_string(i)}).ok());
    i++;
  }
  (void)fs->WaitForTagIndexing();  // Untimed: relaxed mode's deferred work.
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(lazy ? "lazy (relaxed ack)" : "inline");
}
BENCHMARK(BM_TagStormIngestWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Batched warm storm: NamespaceBatch commits of 16 adds — one journal record either
// way; lazy additionally collapses the posting work into sorted bulk loads.
void BM_TagStormBatchedIngest(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  auto fs = MakeFs(lazy);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 1024; i++) {
    oids.push_back(*fs->Create());
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto batch = fs->NewBatch();
    for (int k = 0; k < 16; k++) {
      (void)batch.AddTag(oids[(i + k) % oids.size()],
                         {"UDEF", "batch" + std::to_string(i + k)});
    }
    benchmark::DoNotOptimize(batch.Commit().ok());
    i += 16;
  }
  (void)fs->WaitForTagIndexing();
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel(lazy ? "lazy (relaxed ack)" : "inline");
}
BENCHMARK(BM_TagStormBatchedIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Read-side visibility cost on a quiescent lazy volume: strict pays one horizon check
// per queried tag, relaxed none. Both should be within noise of each other once the
// queue is drained — the point is that strict is cheap when there is nothing to wait
// for.
void BM_FindVisibility(benchmark::State& state) {
  const bool strict = state.range(0) != 0;
  auto fs = MakeFs(true);
  for (int i = 0; i < 4096; i++) {
    auto oid = fs->Create();
    (void)fs->AddTag(*oid, {"UDEF", "q" + std::to_string(i % 64)});
  }
  (void)fs->WaitForTagIndexing();
  hfad::query::FindOptions options;
  options.visibility = strict ? hfad::query::Visibility::kStrict
                              : hfad::query::Visibility::kRelaxed;
  Random rng(9);
  for (auto _ : state) {
    auto page = fs->Find(hfad::Slice("UDEF:q" + std::to_string(rng.Uniform(64))),
                         options);
    benchmark::DoNotOptimize(page.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(strict ? "strict" : "relaxed");
}
BENCHMARK(BM_FindVisibility)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
