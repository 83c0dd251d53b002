// Fault-domain hardening overhead: (1) CRC32C verification cost on the pager's
// cold-miss read path, checksums on vs. off — the acceptance bar is < 5% on-cost —
// and (2) surviving-shard throughput on a 4-shard cluster with one shard failed
// vs. all healthy, which should be flat: a dead shard's gate is one relaxed atomic
// load on the owning volume, and routing never touches the other shards. Baseline
// lives in BENCH_faults.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/osd/osd.h"
#include "src/osd/osd_cluster.h"
#include "src/storage/block_device.h"
#include "src/storage/pager.h"
#include "src/storage/volume_health.h"

namespace {

using hfad::BlockDevice;
using hfad::HealthState;
using hfad::MemoryBlockDevice;
using hfad::osd::ObjectId;
using hfad::osd::Osd;
using hfad::osd::OsdCluster;
using hfad::osd::OsdOptions;

constexpr uint64_t kDev = 256ull * 1024 * 1024;
constexpr int kObjects = 4096;
constexpr size_t kObjectBytes = 4096;

std::string Payload(int i) {
  std::string out;
  while (out.size() < kObjectBytes) {
    out += "bench-faults-" + std::to_string(i) + "|";
  }
  out.resize(kObjectBytes);
  return out;
}

// A volume whose working set is far larger than the page cache, so every read in the
// measurement loop is a pager miss: device read (+ CRC verify when enabled).
struct ColdVolume {
  std::shared_ptr<MemoryBlockDevice> dev;
  std::unique_ptr<Osd> osd;
  std::vector<ObjectId> oids;

  explicit ColdVolume(bool checksums) {
    dev = std::make_shared<MemoryBlockDevice>(kDev);
    OsdOptions opts;
    opts.page_checksums = checksums;
    opts.pager_capacity_pages = 64;  // ~256 KiB cache vs. a 16 MiB working set.
    osd = std::move(Osd::Create(dev, opts)).value();
    for (int i = 0; i < kObjects; i++) {
      auto oid = osd->CreateObject();
      (void)osd->Write(*oid, 0, Payload(i));
      oids.push_back(*oid);
    }
    (void)osd->Checkpoint();  // Stamp every page; cache drains to clean.
  }
};

// state.range(0): 0 = checksums off (baseline), 1 = on (verify every miss).
void BM_PageReadColdMiss(benchmark::State& state) {
  static ColdVolume plain(false);
  static ColdVolume checked(true);
  ColdVolume& vol = state.range(0) ? checked : plain;
  size_t i = 0;
  std::string out;
  for (auto _ : state) {
    // Stride coprime with the object count: defeats both the cache and readahead.
    i = (i + 2039) % vol.oids.size();
    benchmark::DoNotOptimize(vol.osd->Read(vol.oids[i], 0, kObjectBytes, &out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kObjectBytes));
  state.SetLabel(state.range(0) ? "checksums_on" : "checksums_off");
}
BENCHMARK(BM_PageReadColdMiss)->Arg(0)->Arg(1)->Iterations(30000)
    ->Unit(benchmark::kMicrosecond);

struct Cluster {
  std::unique_ptr<OsdCluster> cluster;
  // Objects owned by shards other than the victim (shard 2).
  std::vector<ObjectId> surviving;

  explicit Cluster(bool degraded) {
    std::vector<std::shared_ptr<BlockDevice>> devices;
    for (int i = 0; i < 4; i++) {
      devices.push_back(std::make_shared<MemoryBlockDevice>(kDev / 4));
    }
    OsdOptions opts;
    cluster = std::move(OsdCluster::Create(devices, opts)).value();
    for (int i = 0; i < kObjects; i++) {
      auto oid = cluster->CreateObject();
      (void)cluster->Write(*oid, 0, Payload(i));
      if (cluster->ShardOf(*oid) != 2) {
        surviving.push_back(*oid);
      }
    }
    if (degraded) {
      cluster->shard(2)->health().Escalate(HealthState::kFailed, "bench: dead shard");
    }
  }
};

// state.range(0): 0 = all healthy, 1 = shard 2 failed. Reads go only to survivors in
// both modes, so the delta is pure health-gate + degraded-routing overhead.
void BM_DegradedClusterRead(benchmark::State& state) {
  static Cluster healthy(false);
  static Cluster degraded(true);
  Cluster& c = state.range(0) ? degraded : healthy;
  size_t i = 0;
  std::string out;
  for (auto _ : state) {
    i = (i + 1009) % c.surviving.size();
    benchmark::DoNotOptimize(c.cluster->Read(c.surviving[i], 0, kObjectBytes, &out).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) ? "one_shard_failed" : "all_healthy");
}
BENCHMARK(BM_DegradedClusterRead)->Arg(0)->Arg(1)->Iterations(30000)
    ->Unit(benchmark::kMicrosecond);

void BM_DegradedClusterWrite(benchmark::State& state) {
  static Cluster healthy(false);
  static Cluster degraded(true);
  Cluster& c = state.range(0) ? degraded : healthy;
  size_t i = 0;
  for (auto _ : state) {
    i = (i + 1009) % c.surviving.size();
    benchmark::DoNotOptimize(c.cluster->Write(c.surviving[i], 0, "overwrite-16-byte").ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) ? "one_shard_failed" : "all_healthy");
}
BENCHMARK(BM_DegradedClusterWrite)->Arg(0)->Arg(1)->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
