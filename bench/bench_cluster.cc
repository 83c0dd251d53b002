// Sharded OsdCluster scaling: the durability storms from bench_journal.cc rerun at
// shard_count 1, 4, and 8, so the number under test is how much per-shard journals and
// per-shard group commit buy once every volume syncs independently.
//
// SlowSyncDevice charges 100us per Sync (one NVMe FLUSH) on every shard. Each op makes
// itself durable on the OWNING shard only — the cluster's contract is that an object's
// records live in its owner's journal — so threads spread across shards ride
// independent fsync queues instead of one global one. The numbers to watch:
//
//   * OsdSyncStorm/4@8  vs  OsdSyncStorm/1@8 — the acceptance ratio (>= 2.5x): eight
//     fsync-per-op writers over four journals vs one.
//   * TagStormSync/N@8 — the same window through the FileSystem batch path (tag-shard
//     locks, reverse map on the metadata shard, journal on the owner).
//   * ClusterSyncStorm/N@T — the cluster-wide Sync() instead of the owner's: each of T
//     threads writes an object on shard t % N, so one Sync has up to min(T, N) journals
//     to commit. The cluster starts every shard's commit before it waits for any, so
//     this should cost one device sync per op, not one per dirty shard.
//     ClusterSyncStorm/1 takes the same fan-out over its one shard, and OsdSyncStorm
//     and TagStormSync bypass it.
//
// BENCH_cluster.json holds the checked-in trajectory; docs/BENCHMARKS.md has the
// regeneration commands.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/filesystem.h"
#include "src/osd/osd.h"
#include "src/osd/osd_cluster.h"
#include "src/storage/block_device.h"

namespace {

using hfad::BlockDevice;
using hfad::MemoryBlockDevice;
using hfad::Slice;
using hfad::Status;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;
using hfad::osd::ObjectId;
using hfad::osd::OsdCluster;
using hfad::osd::OsdOptions;

// Same device model as bench_journal.cc: Sync costs a fixed latency, everything else
// runs at RAM speed.
class SlowSyncDevice : public BlockDevice {
 public:
  SlowSyncDevice(std::shared_ptr<BlockDevice> base, std::chrono::microseconds sync_cost)
      : base_(std::move(base)), sync_cost_(sync_cost) {}

  Status Read(uint64_t offset, size_t size, std::string* out) const override {
    return base_->Read(offset, size, out);
  }
  Status Write(uint64_t offset, Slice data) override {
    return base_->Write(offset, data);
  }
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
constexpr uint64_t kShardBytes = 128ull * 1024 * 1024;

std::vector<std::shared_ptr<SlowSyncDevice>> g_slow;
std::unique_ptr<OsdCluster> g_cluster;
std::unique_ptr<FileSystem> g_fs;
std::vector<ObjectId> g_thread_oids;

std::vector<std::shared_ptr<BlockDevice>> MakeSlowDevices(size_t shards) {
  g_slow.clear();
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (size_t i = 0; i < shards; i++) {
    g_slow.push_back(std::make_shared<SlowSyncDevice>(
        std::make_shared<MemoryBlockDevice>(kShardBytes), kSyncCost));
    devices.push_back(g_slow.back());
  }
  return devices;
}

uint64_t TotalSyncs() {
  uint64_t n = 0;
  for (const auto& d : g_slow) {
    n += d->syncs();
  }
  return n;
}

// fsync-per-op through the cluster: every iteration creates an object and syncs its
// owning shard. Arg = shard count.
void BM_OsdSyncStorm(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  if (state.thread_index() == 0) {
    g_cluster = std::move(OsdCluster::Create(MakeSlowDevices(shards), OsdOptions{}))
                    .value();
  }
  for (auto _ : state) {
    auto oid = g_cluster->CreateObject();
    benchmark::DoNotOptimize(oid.ok());
    Status s = g_cluster->owner(*oid)->Sync();
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["syncs"] = static_cast<double>(TotalSyncs());
    state.counters["shards"] = static_cast<double>(shards);
    g_cluster.reset();
    g_slow.clear();
  }
}
BENCHMARK(BM_OsdSyncStorm)->Arg(1)->Arg(4)->Arg(8)->ThreadRange(1, 8)->UseRealTime()
    ->MeasureProcessCPUTime();

// Tag storm with per-batch durability through the sharded FileSystem: each iteration
// commits a NamespaceBatch of 4 tags on a fresh object and syncs that object's owning
// shard (the batch's journal record lives there). Arg = shard count.
void BM_TagStormSync(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  if (state.thread_index() == 0) {
    FileSystemOptions options;
    options.shard_count = shards;
    g_fs = std::move(FileSystem::Create(MakeSlowDevices(shards), options)).value();
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
    s = g_fs->cluster()->owner(*oid)->Sync();
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["syncs"] = static_cast<double>(TotalSyncs());
    state.counters["shards"] = static_cast<double>(shards);
    g_fs.reset();
    g_slow.clear();
  }
}
BENCHMARK(BM_TagStormSync)->Arg(1)->Arg(4)->Arg(8)->ThreadRange(1, 8)->UseRealTime()
    ->MeasureProcessCPUTime();

// Cluster-wide durability: each iteration writes the thread's own object (a journaled
// attribute update: one record, no allocation, not synced on its own) and then calls
// OsdCluster::Sync(), which must make every shard durable. Thread t's object lives on
// shard t % shards. `failed` counts ops that did not return OK. Arg = shard count.
void BM_ClusterSyncStorm(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  if (state.thread_index() == 0) {
    g_cluster = std::move(OsdCluster::Create(MakeSlowDevices(shards), OsdOptions{}))
                    .value();
    const size_t threads = static_cast<size_t>(state.threads());
    g_thread_oids.assign(threads, 0);
    for (size_t left = threads; left > 0;) {
      const ObjectId oid = g_cluster->CreateObject().value();
      for (size_t t = 0; t < threads; t++) {
        if (g_thread_oids[t] == 0 && t % shards == g_cluster->ShardOf(oid)) {
          g_thread_oids[t] = oid;
          left--;
          break;
        }
      }
    }
  }
  uint32_t uid = 0;
  uint64_t failed = 0;
  for (auto _ : state) {
    // Read inside the loop: thread 0's set-up is visible to the others only after the
    // barrier the loop starts with.
    const ObjectId oid = g_thread_oids[static_cast<size_t>(state.thread_index())];
    Status s = g_cluster->SetAttributes(oid, 0600, uid++, 0);
    if (s.ok()) {
      s = g_cluster->Sync();
    }
    benchmark::DoNotOptimize(s.ok());
    failed += s.ok() ? 0 : 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["failed"] = static_cast<double>(failed);
  if (state.thread_index() == 0) {
    state.counters["syncs"] = static_cast<double>(TotalSyncs());
    state.counters["shards"] = static_cast<double>(shards);
    g_cluster.reset();
    g_slow.clear();
  }
}
BENCHMARK(BM_ClusterSyncStorm)->Arg(1)->Arg(4)->Arg(8)->ThreadRange(1, 8)->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
