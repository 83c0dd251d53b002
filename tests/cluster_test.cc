// Multi-volume sharded OsdCluster: placement and routing, merged scans, device-set
// stamping, crash-proven cross-shard 2PC batches (tear sweep over every write budget on
// every participant shard), a seeded differential check of 4-shard vs single-volume
// behavior, and a concurrent cross-shard batch storm with live readers and fsck.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/osd/osd.h"
#include "src/osd/osd_cluster.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace core {
namespace {

using osd::ObjectMeta;
using osd::Osd;
using osd::OsdCluster;
using osd::OsdOptions;

constexpr uint64_t kDev = 32 * 1024 * 1024;

std::vector<std::shared_ptr<BlockDevice>> MakeDevices(size_t n) {
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (size_t i = 0; i < n; i++) {
    devices.push_back(std::make_shared<MemoryBlockDevice>(kDev));
  }
  return devices;
}

FileSystemOptions ShardedOptions(size_t n) {
  FileSystemOptions opts;
  opts.shard_count = n;
  return opts;
}

std::vector<ObjectId> StrictFind(FileSystem* fs, const std::string& q) {
  query::FindOptions o;
  o.visibility = query::Visibility::kStrict;
  auto page = fs->Find(Slice(q), o);
  EXPECT_TRUE(page.ok()) << q << ": " << page.status().ToString();
  return page.ok() ? page->ids : std::vector<ObjectId>{};
}

// Tags() as sortable (tag, value) pairs, for cross-filesystem comparison.
std::vector<std::pair<std::string, std::string>> SortedTags(FileSystem* fs,
                                                            ObjectId oid) {
  std::vector<std::pair<std::string, std::string>> out;
  auto tags = fs->Tags(oid);
  EXPECT_TRUE(tags.ok()) << tags.status().ToString();
  if (tags.ok()) {
    for (const TagValue& t : *tags) {
      out.emplace_back(t.tag, t.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Four shards on FaultyBlockDevice, with no background checkpoint to sync in a gated
// window.
struct GatedCluster {
  static constexpr size_t kShards = 4;

  GatedCluster() = default;
  GatedCluster(const GatedCluster&) = delete;
  GatedCluster& operator=(const GatedCluster&) = delete;

  // The hooks go first: the gate they call may already be gone, and Close syncs.
  ~GatedCluster() {
    for (auto& f : faulty) {
      f->SetSyncHook(nullptr);
    }
    cluster.reset();
  }

  void Open() {
    std::vector<std::shared_ptr<BlockDevice>> devices;
    for (auto& b : MakeDevices(kShards)) {
      faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
      devices.push_back(faulty.back());
    }
    OsdOptions opts;
    opts.checkpoint_kick_occupancy = 0;
    auto created = OsdCluster::Create(devices, opts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    cluster = std::move(created).value();
    on_shard.assign(kShards, 0);
    for (size_t left = kShards; left > 0;) {
      auto oid = cluster->CreateObject();
      ASSERT_TRUE(oid.ok());
      ObjectId& slot = on_shard[cluster->ShardOf(*oid)];
      if (slot == 0) {
        ASSERT_TRUE(cluster->Write(*oid, 0, "gated").ok());
        slot = *oid;
        left--;
      }
    }
  }

  std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
  std::unique_ptr<OsdCluster> cluster;
  std::vector<ObjectId> on_shard;  // One written object per shard.
};

constexpr auto kParkWait = std::chrono::seconds(5);

// ---------------------------------------------------------------- cluster routing

TEST(ClusterTest, RoutesObjectsAcrossShardsAndMergesScans) {
  auto devices = MakeDevices(4);
  auto r = OsdCluster::Create(devices, OsdOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto cluster = std::move(r).value();
  ASSERT_EQ(cluster->shard_count(), 4u);

  std::vector<ObjectId> oids;
  for (int i = 0; i < 64; i++) {
    auto oid = cluster->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
    std::string payload = "shard payload #" + std::to_string(i);
    ASSERT_TRUE(cluster->Write(*oid, 0, payload).ok());
  }
  EXPECT_EQ(cluster->object_count(), oids.size());

  // The hash must actually spread: every shard owns some objects, and each object
  // lives exactly on the shard ShardOf names.
  for (size_t k = 0; k < 4; k++) {
    EXPECT_GT(cluster->shard(k)->object_count(), 0u) << "shard " << k << " empty";
  }
  for (ObjectId oid : oids) {
    EXPECT_TRUE(cluster->shard(cluster->ShardOf(oid))->Exists(oid));
    for (size_t k = 0; k < 4; k++) {
      if (k != cluster->ShardOf(oid)) {
        EXPECT_FALSE(cluster->shard(k)->Exists(oid));
      }
    }
  }

  // Merged scan: global ascending oid order, every object exactly once.
  std::vector<ObjectId> scanned;
  ASSERT_TRUE(cluster->ScanObjects([&](ObjectId oid, const ObjectMeta&) {
    scanned.push_back(oid);
    return true;
  }).ok());
  EXPECT_EQ(scanned, oids);  // CreateObject allocates ascending ids.

  // Reopen: placement, payloads, and the id allocator all survive.
  ASSERT_TRUE(cluster->Checkpoint().ok());
  ASSERT_TRUE(cluster->Close().ok());
  cluster.reset();
  auto reopened = OsdCluster::Open(devices, OsdOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int i = 0; i < 64; i++) {
    std::string out;
    ASSERT_TRUE((*reopened)->Read(oids[i], 0, 64, &out).ok());
    EXPECT_EQ(out, "shard payload #" + std::to_string(i));
  }
  auto fresh = (*reopened)->CreateObject();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, oids.back());
}

// Every cluster volume carries a shard stamp. A bare Osd volume has none, and neither
// the cluster nor the FileSystem adopts it.
TEST(ClusterTest, UnstampedVolumeIsRefused) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  {
    auto created = Osd::Create(dev, OsdOptions{});
    ASSERT_TRUE(created.ok());
    auto oid = (*created)->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE((*created)->Write(*oid, 0, "plain osd bytes").ok());
    ASSERT_TRUE((*created)->Checkpoint().ok());
  }
  auto as_cluster = OsdCluster::Open({dev}, OsdOptions{});
  ASSERT_FALSE(as_cluster.ok());
  EXPECT_TRUE(as_cluster.status().IsInvalidArgument()) << as_cluster.status().ToString();
  EXPECT_NE(as_cluster.status().message().find("no cluster shard stamp"), std::string::npos)
      << as_cluster.status().ToString();
  auto as_fs = FileSystem::Open(dev);
  ASSERT_FALSE(as_fs.ok());
  EXPECT_TRUE(as_fs.status().IsInvalidArgument()) << as_fs.status().ToString();
  EXPECT_NE(as_fs.status().message().find("no cluster shard stamp"), std::string::npos)
      << as_fs.status().ToString();
}

// The same refusal when the unstamped volume crashed with a higher-layer record still in
// its journal: the record's replay reaches the stamp check, and the refusal keeps its
// InvalidArgument code (with the record's position in its message) instead of reading as
// a corrupt journal.
TEST(ClusterTest, CrashedUnstampedVolumeIsRefusedAsInvalidArgument) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  {
    auto created = Osd::Create(faulty, OsdOptions{});
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->AppendForeign("an unframed higher-layer record").ok());
    ASSERT_TRUE((*created)->Sync().ok());
    faulty->SetWriteBudget(0);  // Power cut: the record stays in the journal.
  }
  auto as_fs = FileSystem::Open(base);
  ASSERT_FALSE(as_fs.ok());
  EXPECT_TRUE(as_fs.status().IsInvalidArgument()) << as_fs.status().ToString();
  EXPECT_NE(as_fs.status().message().find("no cluster shard stamp"), std::string::npos)
      << as_fs.status().ToString();
  EXPECT_NE(as_fs.status().message().find("journal replay failed at seq"), std::string::npos)
      << as_fs.status().ToString();
}

// A one-shard cluster's volume is a plain Osd volume plus its stamp, one named root: it
// opens as a bare Osd, and the bare Osd's close keeps it a cluster volume.
TEST(ClusterTest, OneShardClusterVolumeOpensAsAPlainOsd) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid;
  {
    auto cluster = OsdCluster::Create({dev}, OsdOptions{});
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    auto r = (*cluster)->CreateObject();
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE((*cluster)->Write(oid, 0, "cluster bytes").ok());
    ASSERT_TRUE((*cluster)->Close().ok());
  }
  {
    auto as_osd = Osd::Open(dev, OsdOptions{});
    ASSERT_TRUE(as_osd.ok()) << as_osd.status().ToString();
    std::string out;
    ASSERT_TRUE((*as_osd)->Read(oid, 0, 64, &out).ok());
    EXPECT_EQ(out, "cluster bytes");
    auto stamp = (*as_osd)->GetNamedRoot("osd/cluster-shard");
    ASSERT_TRUE(stamp.ok()) << stamp.status().ToString();
    EXPECT_EQ(*stamp, (uint64_t{1} << 32) | 1);  // Shard 0 of a one-shard cluster.
  }
  auto again = OsdCluster::Open({dev}, OsdOptions{});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  std::string out;
  ASSERT_TRUE((*again)->Read(oid, 0, 64, &out).ok());
  EXPECT_EQ(out, "cluster bytes");
}

TEST(ClusterTest, RejectsMisassembledDeviceSets) {
  auto devices = MakeDevices(2);
  {
    auto r = OsdCluster::Create(devices, OsdOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE((*r)->Checkpoint().ok());
    ASSERT_TRUE((*r)->Close().ok());
  }
  // One shard of a 2-shard cluster is not a standalone volume.
  EXPECT_FALSE(OsdCluster::Open({devices[0]}, OsdOptions{}).ok());
  EXPECT_FALSE(OsdCluster::Open({devices[1]}, OsdOptions{}).ok());
  // Reordered devices put shard 1's stamp where shard 0 is expected.
  EXPECT_FALSE(OsdCluster::Open({devices[1], devices[0]}, OsdOptions{}).ok());
  // Two unstamped single volumes are not a 2-shard cluster.
  auto singles = MakeDevices(2);
  for (auto& d : singles) {
    auto r = Osd::Create(d, OsdOptions{});
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->Checkpoint().ok());
  }
  EXPECT_FALSE(OsdCluster::Open(singles, OsdOptions{}).ok());
  // The correct assembly still opens.
  EXPECT_TRUE(OsdCluster::Open(devices, OsdOptions{}).ok());
}

// ------------------------------------------------------- sharded filesystem basics

TEST(ShardedFileSystemTest, NamespaceOpsSpanShardsAndSurviveReopen) {
  auto devices = MakeDevices(4);
  FileSystemOptions opts = ShardedOptions(4);
  std::vector<ObjectId> oids;
  {
    auto fs = FileSystem::Create(devices, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    for (int i = 0; i < 16; i++) {
      auto oid = (*fs)->Create({{"UDEF", "all"}});
      ASSERT_TRUE(oid.ok());
      oids.push_back(*oid);
      std::string body = "searchable document number" + std::to_string(i);
      ASSERT_TRUE((*fs)->Write(*oid, 0, body).ok());
      ASSERT_TRUE((*fs)->IndexContent(*oid).ok());
    }
    // Objects really landed on distinct shards.
    std::set<size_t> owners;
    for (ObjectId oid : oids) {
      owners.insert((*fs)->cluster()->ShardOf(oid));
    }
    EXPECT_GT(owners.size(), 1u);
    EXPECT_EQ(StrictFind(fs->get(), "UDEF:all"), oids);
    auto hits = (*fs)->SearchText({"searchable"});
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), oids.size());
    // Aggregated metrics expose the topology.
    EXPECT_NE((*fs)->DumpMetrics().find("shard_count"), std::string::npos);
    auto report = CheckFileSystem(fs->get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->ToString();
    EXPECT_EQ(report->shards_checked, 4u);
    ASSERT_TRUE((*fs)->Checkpoint().ok());
  }
  auto reopened = FileSystem::Open(devices, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StrictFind(reopened->get(), "UDEF:all"), oids);
  auto hits = (*reopened)->SearchText({"searchable"});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), oids.size());
  auto report = CheckFileSystem(reopened->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// A hard crash (no checkpoint, journals only) with lazy tag intents pending on BOTH
// shards: recovery must route each intent back through its owner's journal and rebuild
// the unapplied queue.
TEST(ShardedFileSystemTest, LazyIntentsOnEveryShardSurviveAHardCrash) {
  auto bases = MakeDevices(2);
  std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (auto& b : bases) {
    faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
    devices.push_back(faulty.back());
  }
  FileSystemOptions opts = ShardedOptions(2);
  opts.lazy_tag_indexing = true;
  opts.osd.group_commit = false;
  std::vector<std::pair<ObjectId, std::string>> acked;
  {
    auto fs = FileSystem::Create(devices, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    std::vector<ObjectId> oids;
    std::set<size_t> owners;
    while (owners.size() < 2) {  // At least one object on each shard.
      auto oid = (*fs)->Create();
      ASSERT_TRUE(oid.ok());
      oids.push_back(*oid);
      owners.insert((*fs)->cluster()->ShardOf(*oid));
    }
    (*fs)->tag_indexer_for_testing()->SetPausedForTesting(true);
    for (size_t i = 0; i < oids.size(); i++) {
      std::string value = "pinned" + std::to_string(i);
      ASSERT_TRUE((*fs)->AddTag(oids[i], {"UDEF", value}).ok());
      acked.emplace_back(oids[i], value);
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    for (auto& f : faulty) {
      f->SetWriteBudget(0);  // Hard crash on every device at once.
    }
  }
  auto reopened = FileSystem::Open(bases, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->WaitForTagIndexing().ok());
  for (const auto& [oid, value] : acked) {
    EXPECT_EQ(StrictFind(reopened->get(), "UDEF:" + value), std::vector<ObjectId>{oid})
        << "lost acknowledged intent " << value;
  }
  auto report = CheckFileSystem(reopened->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// A clean close while tag intents are still unapplied (the indexer held paused, so the
// destructor's drain returns at once): every shard's close-time checkpoint persists the
// intents its objects own, on one shard as on several, and the reopen applies them.
TEST(ShardedFileSystemTest, CleanCloseKeepsUnappliedIntents) {
  constexpr size_t kObjects = 16;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto devices = MakeDevices(shards);
    FileSystemOptions opts = ShardedOptions(shards);
    opts.lazy_tag_indexing = true;
    std::vector<ObjectId> oids;
    {
      auto fs = FileSystem::Create(devices, opts);
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      for (size_t i = 0; i < kObjects; i++) {
        auto oid = (*fs)->Create();
        ASSERT_TRUE(oid.ok());
        oids.push_back(*oid);
      }
      ASSERT_TRUE((*fs)->WaitForTagIndexing().ok());
      (*fs)->tag_indexer_for_testing()->SetPausedForTesting(true);
      for (size_t i = 0; i < kObjects; i++) {
        ASSERT_TRUE((*fs)->AddTag(oids[i], {"UDEF", "pinned" + std::to_string(i)}).ok());
      }
      ASSERT_TRUE((*fs)->Sync().ok());
    }
    auto reopened = FileSystem::Open(devices, opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->WaitForTagIndexing().ok());
    for (size_t i = 0; i < kObjects; i++) {
      EXPECT_EQ(StrictFind(reopened->get(), "UDEF:pinned" + std::to_string(i)),
                std::vector<ObjectId>{oids[i]})
          << "lost intent pinned" << i;
    }
    auto report = CheckFileSystem(reopened->get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->ToString();
  }
}

// Devices passed in the wrong order after a crash: the refused Open must leave every
// volume as it found it, so the right order still recovers every acknowledged name.
// (Recovering a data shard as shard 0, then resetting its journal, would lose the names
// its journal held.)
TEST(ShardedFileSystemTest, RefusedReorderedOpenLosesNothing) {
  auto bases = MakeDevices(2);
  std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (auto& b : bases) {
    faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
    devices.push_back(faulty.back());
  }
  const FileSystemOptions opts = ShardedOptions(2);
  std::vector<std::pair<ObjectId, std::string>> acked;
  std::set<size_t> owners;
  {
    auto fs = FileSystem::Create(devices, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    for (int i = 0; i < 16; i++) {
      auto oid = (*fs)->Create();
      ASSERT_TRUE(oid.ok());
      const std::string value = "named" + std::to_string(i);
      ASSERT_TRUE((*fs)->AddTag(*oid, {"UDEF", value}).ok());
      acked.emplace_back(*oid, value);
      owners.insert((*fs)->cluster()->ShardOf(*oid));
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    for (auto& f : faulty) {
      f->SetWriteBudget(0);  // Crash: every name lives only in its owner's journal.
    }
  }
  ASSERT_EQ(owners.size(), 2u);
  auto reordered = FileSystem::Open({bases[1], bases[0]}, opts);
  ASSERT_FALSE(reordered.ok());
  EXPECT_NE(reordered.status().ToString().find("is not shard 0 of a 2-shard cluster"),
            std::string::npos)
      << reordered.status().ToString();
  auto reopened = FileSystem::Open(bases, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const auto& [oid, value] : acked) {
    EXPECT_EQ(StrictFind(reopened->get(), "UDEF:" + value), std::vector<ObjectId>{oid})
        << "lost acknowledged name " << value;
  }
  auto report = CheckFileSystem(reopened->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// A cross-shard batch names two objects, both are removed, and a checkpoint makes all of
// it durable. A crash before any later checkpoint must not bring the batch's names back:
// the metadata shard's checkpoint captured the batch's effects, so its pending set must
// not carry the batch's records into recovery, where they would apply after the removes.
TEST(ShardedFileSystemTest, CheckpointedBatchNamesOfRemovedObjectsStayGone) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "inline");
    auto bases = MakeDevices(2);
    std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
    std::vector<std::shared_ptr<BlockDevice>> devices;
    for (auto& b : bases) {
      faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
      devices.push_back(faulty.back());
    }
    FileSystemOptions opts = ShardedOptions(2);
    opts.lazy_tag_indexing = lazy;
    opts.osd.checkpoint_kick_occupancy = 0;  // Only the explicit checkpoint below.
    {
      auto fs = FileSystem::Create(devices, opts);
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      std::vector<ObjectId> owned(2, 0);  // One object on each shard.
      while (owned[0] == 0 || owned[1] == 0) {
        auto oid = (*fs)->Create();
        ASSERT_TRUE(oid.ok());
        owned[(*fs)->cluster()->ShardOf(*oid)] = *oid;
      }
      NamespaceBatch batch = (*fs)->NewBatch();
      ASSERT_TRUE(batch.AddTag(owned[0], {"UDEF", "gone"}).ok());
      ASSERT_TRUE(batch.AddTag(owned[1], {"UDEF", "gone"}).ok());
      ASSERT_TRUE(batch.Commit().ok());
      ASSERT_TRUE((*fs)->WaitForTagIndexing().ok());
      ASSERT_TRUE((*fs)->Remove(owned[0]).ok());
      ASSERT_TRUE((*fs)->Remove(owned[1]).ok());
      ASSERT_TRUE((*fs)->WaitForTagIndexing().ok());
      ASSERT_TRUE((*fs)->Checkpoint().ok());
      for (auto& f : faulty) {
        f->SetWriteBudget(0);  // Hard crash on every device at once.
      }
    }
    auto reopened = FileSystem::Open(bases, opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->WaitForTagIndexing().ok());
    EXPECT_TRUE(StrictFind(reopened->get(), "UDEF:gone").empty());
    auto report = CheckFileSystem(reopened->get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->ToString();
  }
}

// Removing an object strips all its names in one record: its owner's journal grows by
// the name strip and the delete, whatever the name count, plus the full-text unindex
// only for an object whose content was indexed. After a crash both objects, every name
// of them and the indexed object's postings are gone; a name they shared stays on the
// third object.
TEST(ShardedFileSystemTest, RemoveStripsEveryNameInOneRecord) {
  const std::vector<TagValue> names = {
      {"USER", "alice"}, {"APP", "mail"}, {"UDEF", "a"}, {"UDEF", "b"}, {"UDEF", "c"}};
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (bool lazy : {false, true}) {
      SCOPED_TRACE(std::to_string(shards) + (lazy ? " shards, lazy" : " shards, inline"));
      auto bases = MakeDevices(shards);
      std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
      std::vector<std::shared_ptr<BlockDevice>> devices;
      for (auto& b : bases) {
        faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
        devices.push_back(faulty.back());
      }
      FileSystemOptions opts = ShardedOptions(shards);
      opts.lazy_tag_indexing = lazy;
      // No checkpoint epilogue inside the counted window.
      opts.osd.checkpoint_kick_occupancy = 0;
      ObjectId gone = 0, indexed = 0, kept = 0;
      {
        auto fs = FileSystem::Create(devices, opts);
        ASSERT_TRUE(fs.ok()) << fs.status().ToString();
        auto a = (*fs)->Create(names);
        auto c = (*fs)->Create(names);
        auto b = (*fs)->Create({{"UDEF", "a"}});
        ASSERT_TRUE(a.ok() && b.ok() && c.ok());
        gone = *a;
        indexed = *c;
        kept = *b;
        ASSERT_TRUE((*fs)->Write(indexed, 0, "quokka marsupial").ok());
        ASSERT_TRUE((*fs)->IndexContent(indexed).ok());
        ASSERT_TRUE((*fs)->WaitForTagIndexing().ok());
        auto records_to_remove = [&](ObjectId oid) -> uint64_t {
          osd::Osd* owner = (*fs)->cluster()->owner(oid);
          const uint64_t before = owner->journal_records_appended();
          Status s = (*fs)->Remove(oid);
          EXPECT_TRUE(s.ok()) << s.ToString();
          return owner->journal_records_appended() - before;
        };
        EXPECT_EQ(records_to_remove(gone), 2u) << "want the name strip and the delete";
        EXPECT_EQ(records_to_remove(indexed), 3u)
            << "want the name strip, the full-text unindex and the delete";
        ASSERT_TRUE((*fs)->Sync().ok());
        for (auto& f : faulty) {
          f->SetWriteBudget(0);  // Hard crash on every device at once.
        }
      }
      auto reopened = FileSystem::Open(bases, opts);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      FileSystem* fs = reopened->get();
      ASSERT_TRUE(fs->WaitForTagIndexing().ok());
      EXPECT_FALSE(fs->cluster()->Exists(gone));
      EXPECT_FALSE(fs->cluster()->Exists(indexed));
      EXPECT_TRUE(fs->cluster()->Exists(kept));
      for (const TagValue& name : names) {
        const std::vector<ObjectId> want =
            name.value == "a" ? std::vector<ObjectId>{kept} : std::vector<ObjectId>{};
        EXPECT_EQ(StrictFind(fs, name.tag + ":" + name.value), want)
            << name.tag << ":" << name.value;
      }
      EXPECT_TRUE(StrictFind(fs, "FULLTEXT:quokka").empty());
      auto report = CheckFileSystem(fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->clean()) << report->ToString();
      EXPECT_EQ(report->postings_checked, 0u) << "the removed object's postings survived";
    }
  }
}

// Records retained on the data shards wait for journal pressure, not for a count: 1500
// retags of objects on shards 1-3 retain 1500 records and run no checkpoint while every
// journal is roomy. Once one data shard's journal crosses its kick, the metadata shard
// checkpoints too and trims the lists. A crash after that loses no name and brings
// back no old one.
TEST(ShardedFileSystemTest, RetainedRecordsWaitForDataShardJournalPressure) {
  constexpr size_t kShards = 4;
  constexpr int kRetags = 1500;
  auto bases = MakeDevices(kShards);
  std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (auto& b : bases) {
    faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
    devices.push_back(faulty.back());
  }
  FileSystemOptions opts = ShardedOptions(kShards);
  opts.lazy_tag_indexing = true;
  opts.osd.journal_size = 4 * 1024 * 1024;
  auto name = [](size_t i, int v) {
    return TagValue{"UDEF", "r" + std::to_string(i) + "-" + std::to_string(v)};
  };
  std::vector<ObjectId> oids;  // Eight objects on each data shard.
  std::vector<int> version;
  {
    auto fsr = FileSystem::Create(devices, opts);
    ASSERT_TRUE(fsr.ok()) << fsr.status().ToString();
    FileSystem* fs = fsr->get();
    OsdCluster* cluster = fs->cluster();
    std::vector<size_t> per_shard(kShards, 0);
    while (oids.size() < 8 * (kShards - 1)) {
      auto oid = fs->Create();
      ASSERT_TRUE(oid.ok());
      const size_t k = cluster->ShardOf(*oid);
      if (k != 0 && per_shard[k] < 8) {
        per_shard[k]++;
        ASSERT_TRUE(fs->AddTag(*oid, name(oids.size(), 0)).ok());
        oids.push_back(*oid);
      }
    }
    version.assign(oids.size(), 0);
    ASSERT_TRUE(fs->WaitForTagIndexing().ok());
    auto all_idle = [&] {
      for (size_t k = 0; k < kShards; k++) {
        if (cluster->shard(k)->checkpointer_state() != Osd::CheckpointerState::kIdle) {
          return false;
        }
      }
      return true;
    };
    auto wait_until = [](const std::function<bool()>& done) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!done() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return done();
    };
    ASSERT_TRUE(wait_until(all_idle));
    auto checkpoints = [] {
      return metrics::HistSnapshot::Take(metrics::Hist::kCheckpoint).count;
    };
    const uint64_t checkpoints_before = checkpoints();
    const size_t retained_before = cluster->retained_records();

    for (int i = 0; i < kRetags; i++) {
      const size_t k = static_cast<size_t>(i) % oids.size();
      NamespaceBatch batch = fs->NewBatch();  // One owner: one record, retained there.
      ASSERT_TRUE(batch.RemoveTag(oids[k], name(k, version[k])).ok());
      ASSERT_TRUE(batch.AddTag(oids[k], name(k, version[k] + 1)).ok());
      Status s = batch.Commit();
      ASSERT_TRUE(s.ok()) << "retag " << i << ": " << s.ToString();
      version[k]++;
    }
    ASSERT_TRUE(fs->WaitForTagIndexing().ok());
    ASSERT_TRUE(wait_until(all_idle));
    EXPECT_EQ(checkpoints(), checkpoints_before)
        << "a checkpoint ran with every journal roomy";
    const size_t retained = cluster->retained_records();
    EXPECT_GE(retained, retained_before + kRetags);
    const std::string gauge = "\"retained_records\":" + std::to_string(retained) + ",";
    EXPECT_NE(fs->DumpMetrics().find(gauge), std::string::npos);

    // 64 KiB appends to one object until its data shard's journal passes the kick.
    const ObjectId big = oids[0];
    Osd* data = cluster->owner(big);
    const std::string chunk(64 * 1024, 'j');
    uint64_t offset = 0;
    for (int i = 0; i < 100 && data->journal_reserved() < 0.75; i++) {
      ASSERT_TRUE(fs->Write(big, offset, chunk).ok());
      offset += chunk.size();
    }
    ASSERT_TRUE(fs->Write(big, offset, chunk).ok());
    EXPECT_TRUE(wait_until([&] { return cluster->retained_records() < retained; }))
        << "the metadata shard never checkpointed: " << cluster->retained_records()
        << " records still retained";
    ASSERT_TRUE(fs->Sync().ok());
    for (auto& f : faulty) {
      f->SetWriteBudget(0);  // Hard crash on every device at once.
    }
  }
  auto reopened = FileSystem::Open(bases, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  FileSystem* fs = reopened->get();
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  for (size_t k = 0; k < oids.size(); k++) {
    EXPECT_EQ(StrictFind(fs, "UDEF:" + name(k, version[k]).value),
              std::vector<ObjectId>{oids[k]})
        << "object " << oids[k];
    EXPECT_TRUE(StrictFind(fs, "UDEF:" + name(k, version[k] - 1).value).empty())
        << "object " << oids[k];
  }
  auto report = CheckFileSystem(fs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// A data shard's kick reaches the metadata shard while that shard runs a checkpoint. It
// is not the metadata shard's own fill crossing its line, so it is not re-checked: the
// metadata shard runs exactly one more checkpoint, though its journal is nearly empty.
TEST(ShardedCheckpointKickTest, DataShardKickDuringAMetadataCheckpointRunsOneMore) {
  test::SyncGate gate;  // Outlives the cluster, whose Close syncs.
  std::vector<std::shared_ptr<FaultyBlockDevice>> faulty;
  std::vector<std::shared_ptr<BlockDevice>> devices;
  for (auto& b : MakeDevices(2)) {
    faulty.push_back(std::make_shared<FaultyBlockDevice>(b));
    devices.push_back(faulty.back());
  }
  OsdOptions opts;
  opts.journal_size = 1024 * 1024;
  auto created = OsdCluster::Create(devices, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OsdCluster> cluster = std::move(created).value();
  struct Ungate {
    test::SyncGate* gate;
    ~Ungate() { gate->ReleaseAll(); }
  } ungate{&gate};
  Osd* meta = cluster->shard(0);
  Osd* data = cluster->shard(1);
  auto wait_idle = [](Osd* osd) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (osd->checkpointer_state() != Osd::CheckpointerState::kIdle &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return osd->checkpointer_state() == Osd::CheckpointerState::kIdle;
  };
  auto checkpoints = [] { return metrics::HistSnapshot::Take(metrics::Hist::kCheckpoint).count; };
  ASSERT_TRUE(wait_idle(meta) && wait_idle(data));

  gate.Install(faulty[0].get());
  meta->RequestCheckpoint();
  ASSERT_TRUE(gate.WaitParked(1, kParkWait));
  ASSERT_EQ(meta->checkpointer_state(), Osd::CheckpointerState::kRunning);
  // The data shard's reservations cross its kick line; its kick wakes its own
  // checkpointer and the metadata shard's.
  std::vector<Osd::JournalCredit> held;
  while (data->journal_reserved() < 0.75) {
    auto credit = data->ReserveApplyCredit(Osd::CreditUse::kApply, 1);
    ASSERT_TRUE(credit.ok()) << credit.status().ToString();
    held.push_back(std::move(credit).value());
  }
  held.clear();
  ASSERT_TRUE(wait_idle(data));
  ASSERT_LT(meta->journal_reserved(), 0.7);

  const uint64_t before = checkpoints();
  gate.ReleaseAll();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((checkpoints() < before + 2 || !wait_idle(meta)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(checkpoints(), before + 2) << "the held checkpoint, then exactly one more";
}

// ------------------------------------------------------- cross-shard commit overlap

// A cluster-wide Sync starts every dirty shard's journal commit before it waits for
// any: all four device syncs are in flight together.
TEST(ClusterSyncTest, SyncOverlapsEveryShardCommit) {
  GatedCluster g;
  g.Open();
  if (HasFatalFailure()) {
    return;
  }
  test::SyncGate gate;
  for (const auto& d : g.faulty) {
    gate.Install(d.get());  // After Create, whose checkpoints sync every shard.
  }
  Status synced;
  std::thread syncer([&] { synced = g.cluster->Sync(); });
  const bool overlapped = gate.WaitParked(GatedCluster::kShards, kParkWait);
  gate.ReleaseAll();
  syncer.join();
  EXPECT_TRUE(overlapped) << "at most " << gate.max_parked() << " of "
                          << GatedCluster::kShards
                          << " shard syncs were in flight together";
  EXPECT_TRUE(synced.ok()) << synced.ToString();
  for (size_t k = 0; k < GatedCluster::kShards; k++) {
    EXPECT_EQ(g.cluster->shard(k)->journal_pending_records(), 0u) << "shard " << k;
  }
}

// The prepare round of a cross-shard batch syncs its participants together, and the
// coordinator's commit record is appended only once all of them are durable.
TEST(ClusterSyncTest, PrepareRoundOverlapsParticipantSyncs) {
  GatedCluster g;
  g.Open();
  if (HasFatalFailure()) {
    return;
  }
  const std::vector<ObjectId> members = {g.on_shard[1], g.on_shard[2], g.on_shard[3]};
  Osd* coordinator = g.cluster->shard(1);
  const uint64_t before = coordinator->journal_records_appended();
  test::SyncGate gate;
  for (const auto& d : g.faulty) {
    gate.Install(d.get());
  }
  Status committed;
  std::thread committer([&] {
    committed = g.cluster->CommitForeignBatch(members, Slice("overlap")).status();
  });
  const bool overlapped = gate.WaitParked(3, kParkWait);
  const uint64_t while_parked = coordinator->journal_records_appended();
  gate.ReleaseAll();
  committer.join();
  EXPECT_TRUE(overlapped) << "at most " << gate.max_parked()
                          << " of 3 prepare syncs were in flight together";
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(while_parked, before + 1) << "only the prepare before its sync";
  EXPECT_EQ(coordinator->journal_records_appended(), before + 2);
}

// ------------------------------------------------------- cross-shard 2PC tear sweep

// The acceptance sweep: a cross-shard batch is torn after `budget` writes on shard
// `victim` — across every budget, on every participant. After recovery an acked batch
// is fully visible on all member shards; an unacked batch either committed entirely
// (its commit record became durable before the tear) or left no residue at all. fsck
// must come back clean either way: no half-applied batch can exist.
class ClusterBatchTearTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClusterBatchTearTest, TornCrossShardBatchIsAllOrNothing) {
  const size_t victim = static_cast<size_t>(std::get<0>(GetParam()));
  const int64_t budget = std::get<1>(GetParam());
  FileSystemOptions opts = ShardedOptions(2);
  opts.osd.group_commit = false;
  std::vector<ObjectId> members;  // One object per shard: every batch is cross-shard.
  bool torn_acked = false;
  test::RunTornWriteCrashMulti(
      2, kDev, victim, budget,
      [&](const std::vector<std::shared_ptr<BlockDevice>>& devices,
          test::CrashPoint* point) {
        auto fs = FileSystem::Create(devices, opts);
        ASSERT_TRUE(fs.ok()) << fs.status().ToString();
        std::vector<ObjectId> per_shard(2, 0);
        while (per_shard[0] == 0 || per_shard[1] == 0) {
          auto oid = (*fs)->Create();
          ASSERT_TRUE(oid.ok());
          per_shard[(*fs)->cluster()->ShardOf(*oid)] = *oid;
        }
        members = {std::min(per_shard[0], per_shard[1]),
                   std::max(per_shard[0], per_shard[1])};

        // Acked before the fault: must survive whatever happens next.
        NamespaceBatch acked = (*fs)->NewBatch();
        for (ObjectId oid : members) {
          ASSERT_TRUE(acked.AddTag(oid, {"UDEF", "acked"}).ok());
        }
        ASSERT_TRUE(acked.Commit().ok());
        ASSERT_TRUE((*fs)->Sync().ok());

        point->Tear();
        NamespaceBatch torn = (*fs)->NewBatch();
        for (ObjectId oid : members) {
          ASSERT_TRUE(torn.AddTag(oid, {"UDEF", "torn"}).ok());
        }
        // An ok() return is an acknowledgment: the batch must then be durable on
        // every shard even though `victim`'s device dies right after.
        torn_acked = torn.Commit().ok();
        point->Crash();
      },
      [&](const std::vector<std::shared_ptr<BlockDevice>>& bases) {
        auto reopened = FileSystem::Open(bases, opts);
        ASSERT_TRUE(reopened.ok())
            << "victim " << victim << " budget " << budget << ": "
            << reopened.status().ToString();
        FileSystem* fs = reopened->get();
        EXPECT_EQ(StrictFind(fs, "UDEF:acked"), members)
            << "victim " << victim << " budget " << budget;
        int visible = 0;
        for (ObjectId oid : members) {
          visible += fs->HasName(oid, {"UDEF", "torn"}) ? 1 : 0;
        }
        if (torn_acked) {
          EXPECT_EQ(visible, 2) << "acked batch lost (victim " << victim
                                << " budget " << budget << ")";
        } else {
          EXPECT_TRUE(visible == 0 || visible == 2)
              << "partial batch residue: " << visible << " of 2 members tagged "
              << "(victim " << victim << " budget " << budget << ")";
        }
        // Find and the reverse map agree with each other in either outcome.
        EXPECT_EQ(StrictFind(fs, "UDEF:torn"),
                  visible == 2 ? members : std::vector<ObjectId>{});
        auto report = CheckFileSystem(fs);
        ASSERT_TRUE(report.ok());
        EXPECT_TRUE(report->clean()) << "victim " << victim << " budget " << budget
                                     << ": " << report->ToString();
      });
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWriteOnEveryShard, ClusterBatchTearTest,
                         ::testing::Combine(::testing::Range(0, 2),
                                            ::testing::Range(0, 8)));

// ------------------------------------------------------------- differential testing

// The same seeded 500-op workload driven against a single volume and a 4-shard
// cluster must be observationally identical: same Find pages, same Tags, same
// full-text hits, same fsck verdict.
class ClusterDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterDifferentialTest, FourShardsMatchSingleVolume) {
  Random rng(GetParam());
  auto fs1r = FileSystem::Create(MakeDevices(1), ShardedOptions(1));
  auto fs4r = FileSystem::Create(MakeDevices(4), ShardedOptions(4));
  ASSERT_TRUE(fs1r.ok()) << fs1r.status().ToString();
  ASSERT_TRUE(fs4r.ok()) << fs4r.status().ToString();
  FileSystem* fs1 = fs1r->get();
  FileSystem* fs4 = fs4r->get();

  const std::vector<std::string> vocab = {"alpha", "bravo", "charlie", "delta",
                                          "echo",  "fox",   "golf",    "hotel"};
  std::vector<ObjectId> live;
  for (int op = 0; op < 500; op++) {
    int dice = rng.Uniform(100);
    if (dice < 25 || live.empty()) {  // create (+ content + fulltext)
      auto o1 = fs1->Create();
      auto o4 = fs4->Create();
      ASSERT_TRUE(o1.ok());
      ASSERT_TRUE(o4.ok());
      ASSERT_EQ(*o1, *o4) << "oid allocation diverged at op " << op;
      std::string body = vocab[rng.Uniform(vocab.size())] + " " +
                         vocab[rng.Uniform(vocab.size())] + " document";
      ASSERT_TRUE(fs1->Write(*o1, 0, body).ok());
      ASSERT_TRUE(fs4->Write(*o4, 0, body).ok());
      ASSERT_TRUE(fs1->IndexContent(*o1).ok());
      ASSERT_TRUE(fs4->IndexContent(*o4).ok());
      live.push_back(*o1);
    } else if (dice < 50) {  // loose AddTag
      ObjectId oid = live[rng.Uniform(live.size())];
      TagValue name{"UDEF", "v" + std::to_string(rng.Uniform(24))};
      Status s1 = fs1->AddTag(oid, name);
      Status s4 = fs4->AddTag(oid, name);
      EXPECT_EQ(s1.ok(), s4.ok()) << s1.ToString() << " vs " << s4.ToString();
    } else if (dice < 62) {  // loose RemoveTag (NotFound in lockstep)
      ObjectId oid = live[rng.Uniform(live.size())];
      TagValue name{"UDEF", "v" + std::to_string(rng.Uniform(24))};
      Status s1 = fs1->RemoveTag(oid, name);
      Status s4 = fs4->RemoveTag(oid, name);
      EXPECT_EQ(s1.code(), s4.code()) << s1.ToString() << " vs " << s4.ToString();
    } else if (dice < 80) {  // atomic batch over 2-4 objects (cross-shard on fs4)
      NamespaceBatch b1 = fs1->NewBatch();
      NamespaceBatch b4 = fs4->NewBatch();
      std::string value = "b" + std::to_string(rng.Uniform(12));
      int width = 2 + rng.Uniform(3);
      for (int i = 0; i < width; i++) {
        ObjectId oid = live[rng.Uniform(live.size())];
        ASSERT_TRUE(b1.AddTag(oid, {"UDEF", value}).ok());
        ASSERT_TRUE(b4.AddTag(oid, {"UDEF", value}).ok());
      }
      Status s1 = b1.Commit();
      Status s4 = b4.Commit();
      EXPECT_EQ(s1.ok(), s4.ok()) << s1.ToString() << " vs " << s4.ToString();
    } else if (dice < 85 && live.size() > 4) {  // remove an object
      size_t pick = rng.Uniform(live.size());
      ObjectId oid = live[pick];
      Status s1 = fs1->Remove(oid);
      Status s4 = fs4->Remove(oid);
      EXPECT_EQ(s1.ok(), s4.ok()) << s1.ToString() << " vs " << s4.ToString();
      live.erase(live.begin() + pick);
    } else {  // interleaved read: strict Find must agree mid-workload
      std::string q = rng.OneIn(2)
                          ? "UDEF:v" + std::to_string(rng.Uniform(24))
                          : "UDEF:b" + std::to_string(rng.Uniform(12));
      EXPECT_EQ(StrictFind(fs1, q), StrictFind(fs4, q)) << "query " << q;
    }
  }

  for (int v = 0; v < 24; v++) {
    std::string q = "UDEF:v" + std::to_string(v);
    EXPECT_EQ(StrictFind(fs1, q), StrictFind(fs4, q)) << q;
  }
  for (int v = 0; v < 12; v++) {
    std::string q = "UDEF:b" + std::to_string(v);
    EXPECT_EQ(StrictFind(fs1, q), StrictFind(fs4, q)) << q;
  }
  for (ObjectId oid : live) {
    EXPECT_EQ(SortedTags(fs1, oid), SortedTags(fs4, oid)) << "oid " << oid;
  }
  for (const std::string& word : vocab) {
    auto h1 = fs1->SearchText({word});
    auto h4 = fs4->SearchText({word});
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(h4.ok());
    ASSERT_EQ(h1->size(), h4->size()) << word;
    for (size_t i = 0; i < h1->size(); i++) {
      EXPECT_EQ((*h1)[i].docid, (*h4)[i].docid) << word << " hit " << i;
      EXPECT_DOUBLE_EQ((*h1)[i].score, (*h4)[i].score) << word << " hit " << i;
    }
  }
  auto r1 = CheckFileSystem(fs1);
  auto r4 = CheckFileSystem(fs4);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1->clean(), r4->clean());
  EXPECT_TRUE(r1->clean()) << r1->ToString();
  EXPECT_TRUE(r4->clean()) << r4->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterDifferentialTest,
                         ::testing::Values(0xC0FFEEull, 0xDECAFull, 0xF00Dull));

// --------------------------------------------------------------- concurrent storm

// 8 writer threads commit cross-shard batches against a 4-shard lazy filesystem while
// strict and relaxed readers page results and fsck sweeps the live volume. TSan runs
// this in CI. Mid-storm fsck reports may be transiently stale (pending intents) and
// only the quiesced report is asserted clean.
TEST(ClusterStormTest, CrossShardBatchStormWithReadersAndFsck) {
  FileSystemOptions opts = ShardedOptions(4);
  opts.lazy_tag_indexing = true;
  opts.tag_intent_queue_capacity = 64;  // Exercise backpressure.
  auto fsr = FileSystem::Create(MakeDevices(4), opts);
  ASSERT_TRUE(fsr.ok()) << fsr.status().ToString();
  FileSystem* fs = fsr->get();

  constexpr int kWriters = 8;
  constexpr int kBatchesPerWriter = 60;
  std::vector<ObjectId> oids;
  for (int i = 0; i < 48; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      Random rng(7000 + w);
      for (int i = 0; i < kBatchesPerWriter; i++) {
        NamespaceBatch batch = fs->NewBatch();
        std::string value = "w" + std::to_string(w) + "v" +
                            std::to_string(rng.Uniform(8));
        int width = 2 + rng.Uniform(3);
        for (int m = 0; m < width; m++) {
          if (!batch.AddTag(oids[rng.Uniform(oids.size())], {"UDEF", value}).ok()) {
            failures.fetch_add(1);
          }
        }
        if (!batch.Commit().ok()) {
          failures.fetch_add(1);
        }
        if (rng.OneIn(4)) {
          Status s = fs->RemoveTag(oids[rng.Uniform(oids.size())],
                                   {"UDEF", value});
          if (!s.ok() && !s.IsNotFound()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {  // Strict reader.
    Random rng(8100);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kStrict;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(kWriters)) +
                                 "v" + std::to_string(rng.Uniform(8))),
                           o);
      if (!page.ok()) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // Relaxed reader.
    Random rng(8200);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kRelaxed;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(kWriters)) +
                                 "v" + std::to_string(rng.Uniform(8))),
                           o);
      if (!page.ok()) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // Live fsck: must complete without IO errors.
    while (!stop.load()) {
      auto report = CheckFileSystem(fs);
      if (!report.ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (int w = 0; w < kWriters; w++) {
    threads[w].join();
  }
  stop.store(true);
  for (size_t i = kWriters; i < threads.size(); i++) {
    threads[i].join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  EXPECT_TRUE(fs->PendingIndexIntents().empty());

  auto report = CheckFileSystem(fs);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  // Strict Find agrees with the authoritative reverse map for every value.
  for (int w = 0; w < kWriters; w++) {
    for (int v = 0; v < 8; v++) {
      std::string value = "w" + std::to_string(w) + "v" + std::to_string(v);
      std::vector<ObjectId> expect;
      for (ObjectId oid : oids) {
        if (fs->HasName(oid, {"UDEF", value})) {
          expect.push_back(oid);
        }
      }
      EXPECT_EQ(StrictFind(fs, "UDEF:" + value), expect) << value;
    }
  }
}

// Journal-credit accounting under pressure: 512 KiB journals (a checkpoint every few
// dozen ops) and eight writers mixing bodied and content-indexed creates, retags,
// cross-shard batches, middle inserts and removes while the tag indexer applies, on one
// and four shards, with lazy and inline tag indexing. Every op must succeed (no
// reservation fails or deadlocks) and no checkpoint may find its epilogue larger than
// the room the credits promised. Each run ends with a clean close, a reopen and fsck.
TEST(ClusterStormTest, JournalCreditsHoldUnderSmallJournals) {
  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 400;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (bool lazy : {false, true}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + (lazy ? ", lazy" : ", inline"));
      const uint64_t overflows = stats::Get(stats::Counter::kCheckpointEpilogueOverflows);
      const uint64_t checkpoints = metrics::HistSnapshot::Take(metrics::Hist::kCheckpoint).count;
      auto devices = MakeDevices(shards);
      FileSystemOptions opts = ShardedOptions(shards);
      opts.osd.journal_size = 512 * 1024;
      opts.lazy_tag_indexing = lazy;
      std::atomic<int> failures{0};
      std::atomic<uint64_t> live{0};
      {
        auto fsr = FileSystem::Create(devices, opts);
        ASSERT_TRUE(fsr.ok()) << fsr.status().ToString();
        FileSystem* fs = fsr->get();
        std::vector<ObjectId> pool;  // Shared batch targets; never removed.
        for (int i = 0; i < 32; i++) {
          auto oid = fs->Create({{"APP", "pool"}});
          ASSERT_TRUE(oid.ok());
          pool.push_back(*oid);
        }
        live = pool.size();
        auto check = [&](const Status& s) {
          if (!s.ok()) {
            failures.fetch_add(1);
            ADD_FAILURE() << s.ToString();
          }
        };
        std::vector<std::thread> threads;
        for (int w = 0; w < kWriters; w++) {
          threads.emplace_back([&, w] {
            Random rng(9100 + w);
            struct Own {
              ObjectId oid;
              int version;
            };
            std::vector<Own> own;
            const std::string tag = "w" + std::to_string(w);
            for (int i = 0; i < kOpsPerWriter; i++) {
              const int kind = own.empty() ? 0 : static_cast<int>(rng.Uniform(5));
              if (kind == 0) {  // Create with names and a body.
                auto oid = fs->Create({{"UDEF", tag + "-0"}, {"USER", tag}});
                check(oid.status());
                if (!oid.ok()) continue;
                check(fs->Write(*oid, 0, std::string(1024 + rng.Uniform(2048), 'b')));
                if (rng.OneIn(3)) check(fs->IndexContent(*oid));
                own.push_back({*oid, 0});
                live.fetch_add(1);
              } else if (kind == 1) {  // Retag one of its own objects.
                Own& o = own[rng.Uniform(own.size())];
                NamespaceBatch batch = fs->NewBatch();
                check(batch.RemoveTag(o.oid, {"UDEF", tag + "-" + std::to_string(o.version)}));
                o.version++;
                check(batch.AddTag(o.oid, {"UDEF", tag + "-" + std::to_string(o.version)}));
                check(batch.Commit());
              } else if (kind == 2) {  // A batch across pool objects (and shards).
                NamespaceBatch batch = fs->NewBatch();
                const std::string value = tag + "x" + std::to_string(i);
                for (int m = 0; m < 3; m++) {
                  check(batch.AddTag(pool[rng.Uniform(pool.size())], {"UDEF", value}));
                }
                check(batch.Commit());
              } else if (kind == 3) {  // Insert into the middle of its own object.
                const ObjectId oid = own[rng.Uniform(own.size())].oid;
                auto size = fs->Size(oid);
                check(size.status());
                if (size.ok()) check(fs->Insert(oid, *size / 2, std::string(700, 'i')));
              } else {  // Remove one of its own objects.
                const size_t k = rng.Uniform(own.size());
                check(fs->Remove(own[k].oid));
                own.erase(own.begin() + static_cast<ptrdiff_t>(k));
                live.fetch_sub(1);
              }
            }
          });
        }
        for (auto& t : threads) {
          t.join();
        }
        ASSERT_TRUE(fs->WaitForTagIndexing().ok());
        // The journals must actually fill, or the accounting goes untested.
        EXPECT_GT(metrics::HistSnapshot::Take(metrics::Hist::kCheckpoint).count - checkpoints,
                  20u);
        auto report = CheckFileSystem(fs);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_TRUE(report->clean()) << report->ToString();
        ASSERT_TRUE(fs->cluster()->Close().ok());
      }
      EXPECT_EQ(failures.load(), 0);
      auto reopened = FileSystem::Open(devices, opts);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ((*reopened)->cluster()->object_count(), live.load());
      auto report = CheckFileSystem(reopened->get());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->clean()) << report->ToString();
      EXPECT_EQ(stats::Get(stats::Counter::kCheckpointEpilogueOverflows), overflows);
    }
  }
}

// A tag-only phase on 512 KiB journals. Records whose apply is deferred (retained on
// a data shard until shard 0 checkpoints, or lazy intents awaiting the indexer) add
// nothing to their own shard's dirty pages, so only the room their next snapshot may
// take grows; that estimate must trigger checkpoints, never refuse a record as too
// large for the journal. Every op must succeed with no epilogue overflow.
TEST(ClusterStormTest, TagOnlyPhasesNeverRefuseRecords) {
  struct Config {
    size_t shards;
    bool lazy;
  };
  for (const Config& c : {Config{4, false}, Config{4, true}, Config{1, true}, Config{1, false}}) {
    SCOPED_TRACE("shards " + std::to_string(c.shards) + (c.lazy ? ", lazy" : ", inline"));
    const uint64_t overflows = stats::Get(stats::Counter::kCheckpointEpilogueOverflows);
    auto devices = MakeDevices(c.shards);
    FileSystemOptions opts = ShardedOptions(c.shards);
    opts.osd.journal_size = 512 * 1024;
    opts.lazy_tag_indexing = c.lazy;
    auto fsr = FileSystem::Create(devices, opts);
    ASSERT_TRUE(fsr.ok()) << fsr.status().ToString();
    FileSystem* fs = fsr->get();
    auto name = [](size_t k, int v) {
      return TagValue{"UDEF", "t" + std::to_string(k) + "-" + std::to_string(v)};
    };
    std::vector<ObjectId> oids;
    for (size_t k = 0; k < 16; k++) {  // A hot set, spread over every shard.
      auto oid = fs->Create({{"APP", "hot"}, name(k, 0)});
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      oids.push_back(*oid);
    }
    std::vector<int> version(oids.size(), 0);
    for (int i = 0; i < 3000; i++) {
      const size_t k = static_cast<size_t>(i) % oids.size();
      if (i % 3 == 0) {  // A batch across the hot set.
        NamespaceBatch batch = fs->NewBatch();
        ASSERT_TRUE(batch.AddTag(oids[k], {"USER", "b" + std::to_string(i)}).ok());
        ASSERT_TRUE(batch.AddTag(oids[(k + 5) % oids.size()], {"USER", "b" + std::to_string(i)})
                        .ok());
        Status s = batch.Commit();
        ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
      } else {  // A retag.
        Status s = fs->AddTag(oids[k], name(k, version[k] + 1));
        ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
        s = fs->RemoveTag(oids[k], name(k, version[k]));
        ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
        version[k]++;
      }
    }
    ASSERT_TRUE(fs->WaitForTagIndexing().ok());
    EXPECT_EQ(StrictFind(fs, "UDEF:t3-" + std::to_string(version[3])),
              std::vector<ObjectId>{oids[3]});
    EXPECT_EQ(stats::Get(stats::Counter::kCheckpointEpilogueOverflows), overflows);
    auto report = CheckFileSystem(fs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->ToString();
  }
}

// Fault sweep: flip one bit in every page of one shard's device. The cluster must
// never serve corrupt bytes silently — every read is byte-exact or an error — the
// damage stays confined to the flipped shard (other shards' objects always read
// clean), and at least one flip is actually caught (the sweep covers every stamped
// data page, so detections are guaranteed, not incidental).
TEST(ClusterFaultSweepTest, BitFlipOnOneShardIsCaughtAndConfined) {
  constexpr uint64_t kFlipDev = 4 * 1024 * 1024;
  auto base0 = std::make_shared<MemoryBlockDevice>(kFlipDev);
  auto faulty0 = std::make_shared<FaultyBlockDevice>(base0);
  std::vector<std::shared_ptr<BlockDevice>> devices = {
      faulty0, std::make_shared<MemoryBlockDevice>(kFlipDev)};
  OsdOptions opts;
  opts.pager_capacity_pages = 16;  // Small cache: reads hit the device, not memory.
  auto created = OsdCluster::Create(devices, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto cluster = std::move(created).value();

  std::vector<osd::ObjectId> oids;
  std::vector<std::string> payloads;
  for (int i = 0; i < 32; i++) {
    auto oid = cluster->CreateObject();
    ASSERT_TRUE(oid.ok());
    payloads.push_back("cluster-flip-" + std::to_string(i) +
                       std::string(3000, static_cast<char>('A' + i % 26)));
    ASSERT_TRUE(cluster->Write(*oid, 0, payloads.back()).ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(cluster->Checkpoint().ok());

  size_t corruption_caught = 0;
  test::RunBitFlipSweep(base0, faulty0.get(), kFlipDev, kPageSize, [&](uint64_t off) {
    std::string out;
    for (size_t i = 0; i < oids.size(); i++) {
      Status s = cluster->Read(oids[i], 0, payloads[i].size(), &out);
      if (cluster->ShardOf(oids[i]) != 0) {
        ASSERT_TRUE(s.ok()) << "healthy shard read failed with flip at " << off << ": "
                            << s.ToString();
        ASSERT_EQ(out, payloads[i]);
      } else if (s.ok()) {
        ASSERT_EQ(out, payloads[i]) << "silent corruption served, flip at " << off;
      } else {
        corruption_caught++;
      }
    }
    cluster->shard(0)->health().Reset();  // Detection degrades; undo per round.
  });
  EXPECT_GT(corruption_caught, 0u) << "no flip landed on a read data page; vacuous sweep";
  EXPECT_EQ(cluster->shard(1)->health_state(), HealthState::kHealthy);
}

}  // namespace
}  // namespace core
}  // namespace hfad
