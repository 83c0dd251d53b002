// Fault-domain hardening tests: page checksums, transient-IO retry, scrub
// repair/quarantine, volume health gates, and degraded-shard cluster availability.
//
// The corruption sweep here is the PR's acceptance bar: a single bit flipped in ANY
// page of the volume is either invisible (a region with its own integrity check, or
// bytes nothing reads) or caught — by read-path verify, by scrub, or by an open-time
// CRC — and never served to a caller as wrong data.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/osd/osd.h"
#include "src/osd/osd_cluster.h"
#include "src/osd/scrubber.h"
#include "src/storage/block_device.h"
#include "src/storage/pager.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace osd {
namespace {

constexpr uint64_t kSmallDev = 4 * 1024 * 1024;
constexpr uint64_t kDev = 16 * 1024 * 1024;

std::string Payload(int i, size_t len = 8000) {
  std::string out;
  out.reserve(len);
  while (out.size() < len) {
    out += "object-" + std::to_string(i) + "-payload|";
  }
  out.resize(len);
  return out;
}

// ---------------------------------------------------------------- corruption sweep

// Flip one bit in every page of the device in turn. For each flip: scrub must flag the
// page, repairing it from a resident copy or quarantining it, exactly when the flip lies
// in the bytes its checksum covers, and every object read must return either the exact
// expected bytes or a non-OK status — never silently wrong data — and fail only for a
// flip the checksums can detect.
TEST(FaultsTest, BitFlipSweepNeverServesCorruptDataSilently) {
  auto base = std::make_shared<MemoryBlockDevice>(kSmallDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  auto created = Osd::Create(faulty, OsdOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto osd = std::move(created).value();
  ASSERT_NE(osd->checksums(), nullptr);

  constexpr int kObjects = 12;
  std::vector<ObjectId> oids;
  for (int i = 0; i < kObjects; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(osd->Write(*oid, 0, Payload(i)).ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Checkpoint().ok());

  // Pages carrying a CRC after the checkpoint; the sweep must catch a flip in each.
  std::vector<uint64_t> stamped;
  for (uint64_t off = 0; off + kPageSize <= kSmallDev; off += kPageSize) {
    if (osd->checksums()->HasChecksum(off)) {
      stamped.push_back(off);
    }
  }
  ASSERT_GT(stamped.size(), 20u) << "checkpoint should have stamped data pages";

  uint64_t stamped_seen = 0, stamped_caught = 0, past_prefix = 0;
  test::RunBitFlipSweep(base, faulty.get(), kSmallDev, kPageSize, [&](uint64_t off) {
    // Taken before the scrub, which drops the covered length when it quarantines.
    const size_t covered = osd->checksums()->CoveredLength(off);
    const test::BitFlip flip = test::BitFlipFor(off, kPageSize);
    const bool detectable = flip.byte < covered;
    std::string pristine;
    ASSERT_TRUE(base->Read(off, kPageSize, &pristine).ok());
    pristine[flip.byte] = static_cast<char>(pristine[flip.byte] ^ (1 << flip.bit));

    ScrubReport rep;
    ASSERT_TRUE(osd->ScrubNow(&rep).ok());
    const bool quarantined = osd->checksums()->IsQuarantined(off);
    if (detectable) {
      EXPECT_EQ(rep.errors_found, 1u)
          << "scrub missed a bit flip in covered byte " << flip.byte << " of page " << off;
      EXPECT_EQ(rep.pages_repaired + rep.pages_quarantined, 1u) << "page " << off;
      EXPECT_EQ(rep.pages_quarantined, quarantined ? 1u : 0u) << "page " << off;
    } else {
      EXPECT_EQ(rep.errors_found, 0u)
          << "scrub flagged page " << off << " for a flip at byte " << flip.byte
          << " past the " << covered << " bytes its checksum covers";
    }
    if (covered > 0) {
      stamped_seen++;
      if (!detectable) {
        past_prefix++;
      } else if (rep.errors_found == 1) {
        stamped_caught++;
      }
    }
    for (int i = 0; i < kObjects; i++) {
      std::string out;
      Status s = osd->Read(oids[i], 0, Payload(i).size(), &out);
      if (s.ok()) {
        ASSERT_EQ(out, Payload(i))
            << "corrupt bytes served silently for object " << oids[i]
            << " with flip at offset " << off;
      } else {
        EXPECT_TRUE(detectable) << "read of object " << oids[i] << " failed for a flip at "
                                << off << " no checksum covers: " << s.ToString();
      }
    }
    // Restore iteration independence: RunBitFlipSweep puts the pristine bytes back; a
    // quarantined entry is stamped again from them, over the bytes it covered (a
    // repaired page keeps its entry), and the health escalation the detection
    // rightfully made is cleared.
    if (quarantined) {
      osd->checksums()->Stamp(off, Slice(pristine.data(), covered));
    }
    osd->health().Reset();
  });
  EXPECT_EQ(stamped_caught + past_prefix, stamped_seen);
  EXPECT_GE(stamped_seen, stamped.size());
}

// ---------------------------------------------------------------- scrub repair paths

// Returns a stamped page offset that currently backs object data (the highest stamped
// offset is always in the heap, past the fixed metadata regions).
uint64_t LastStampedPage(Osd* osd, uint64_t device_bytes) {
  uint64_t last = 0;
  for (uint64_t off = 0; off + kPageSize <= device_bytes; off += kPageSize) {
    if (osd->checksums()->HasChecksum(off)) {
      last = off;
    }
  }
  return last;
}

TEST(FaultsTest, ScrubRepairsCorruptPageFromCachedCopy) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  auto created = Osd::Create(faulty, OsdOptions{});
  ASSERT_TRUE(created.ok());
  auto osd = std::move(created).value();

  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, Payload(7)).ok());
  ASSERT_TRUE(osd->Checkpoint().ok());

  // Pick a stamped page that is RESIDENT in the pager — only cached pages can be
  // repaired in place (object data reads bypass the cache, so data pages get
  // quarantined instead). Under no-steal the cached clean copy IS the checkpoint
  // content, which is exactly what the repair re-stamps to disk.
  uint64_t victim = 0;
  for (uint64_t off = 0; off + kPageSize <= kDev; off += kPageSize) {
    if (osd->checksums()->HasChecksum(off) && osd->pager()->Peek(off)) {
      victim = off;
    }
  }
  ASSERT_GT(victim, 0u);
  ASSERT_TRUE(faulty->FlipBit(victim + 100, 3).ok());

  ScrubReport rep;
  ASSERT_TRUE(osd->ScrubNow(&rep).ok());
  EXPECT_GE(rep.errors_found, 1u);
  EXPECT_GE(rep.pages_repaired, 1u);
  EXPECT_EQ(rep.pages_quarantined, 0u);
  EXPECT_EQ(osd->health_state(), HealthState::kDegraded);

  // The repair lands at the next checkpoint: device bytes match the CRC again.
  ASSERT_TRUE(osd->Checkpoint().ok());
  ScrubReport after;
  ASSERT_TRUE(osd->ScrubNow(&after).ok());
  EXPECT_EQ(after.errors_found, 0u);
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, Payload(7).size(), &out).ok());
  EXPECT_EQ(out, Payload(7));
}

TEST(FaultsTest, ScrubQuarantinesCorruptPageWithNoCachedCopy) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  uint64_t victim = 0;
  {
    auto created = Osd::Create(faulty, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(osd->Write(*oid, 0, Payload(3)).ok());
    ASSERT_TRUE(osd->Checkpoint().ok());
    victim = LastStampedPage(osd.get(), kDev);
    ASSERT_TRUE(osd->Close().ok());
  }
  // Cold cache after reopen: the corrupt device page has no in-memory copy left.
  ASSERT_TRUE(faulty->FlipBit(victim + 17, 5).ok());
  auto reopened = Osd::Open(faulty, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto osd = std::move(reopened).value();

  ScrubReport rep;
  ASSERT_TRUE(osd->ScrubNow(&rep).ok());
  EXPECT_GE(rep.errors_found, 1u);
  EXPECT_GE(rep.pages_quarantined, 1u);
  EXPECT_TRUE(osd->checksums()->IsQuarantined(victim));
  EXPECT_EQ(osd->health_state(), HealthState::kDegraded);
  EXPECT_FALSE(osd->checksums()->QuarantinedPages().empty());
}

// ---------------------------------------------------------------- transient retry

TEST(FaultsTest, TransientReadFaultIsAbsorbedByRetry) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;  // Default RetryPolicy: 3 attempts.
  auto created = Osd::Create(faulty, opts);
  ASSERT_TRUE(created.ok());
  auto osd = std::move(created).value();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, Payload(1)).ok());
  ASSERT_TRUE(osd->Close().ok());

  auto reopened = Osd::Open(faulty, opts);
  ASSERT_TRUE(reopened.ok());
  osd = std::move(reopened).value();
  // Fail the next two device reads; the third attempt of the retry loop succeeds.
  faulty->SetReadFaults(0, 2);
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, Payload(1).size(), &out).ok());
  EXPECT_EQ(out, Payload(1));
  EXPECT_EQ(osd->health_state(), HealthState::kHealthy);
}

TEST(FaultsTest, PersistentReadFaultDegradesVolumeButKeepsItWritable) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  auto created = Osd::Create(faulty, opts);
  ASSERT_TRUE(created.ok());
  auto osd = std::move(created).value();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, Payload(2)).ok());
  ASSERT_TRUE(osd->Close().ok());

  auto reopened = Osd::Open(faulty, opts);
  ASSERT_TRUE(reopened.ok());
  osd = std::move(reopened).value();
  faulty->SetReadFaults(0, -1);  // Every read fails, past any retry budget.
  std::string out;
  EXPECT_FALSE(osd->Read(*oid, 0, 16, &out).ok());
  EXPECT_EQ(osd->health_state(), HealthState::kDegraded);

  // Degraded is not read-only: once the fault clears, both reads and writes serve.
  faulty->SetReadFaults(-1, 0);
  ASSERT_TRUE(osd->Read(*oid, 0, Payload(2).size(), &out).ok());
  EXPECT_EQ(out, Payload(2));
  EXPECT_TRUE(osd->Write(*oid, 0, "still writable").ok());
}

// Sweep a transient two-read fault across every read position of a reopen+read
// workload: the retry policy must absorb all of them with zero caller-visible errors.
TEST(FaultsTest, ReadFaultSweepIsInvisibleUnderRetry) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  std::vector<ObjectId> oids;
  {
    auto created = Osd::Create(faulty, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    for (int i = 0; i < 8; i++) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(osd->Write(*oid, 0, Payload(i)).ok());
      oids.push_back(*oid);
    }
    ASSERT_TRUE(osd->Close().ok());
  }
  test::RunReadFaultSweep(faulty.get(), /*max_after=*/30, /*fail_count=*/2,
                          [&](int64_t after) {
                            auto r = Osd::Open(faulty, opts);
                            ASSERT_TRUE(r.ok()) << "open failed with transient fault after "
                                                << after << " reads: " << r.status().ToString();
                            auto osd = std::move(r).value();
                            for (size_t i = 0; i < oids.size(); i++) {
                              std::string out;
                              ASSERT_TRUE(osd->Read(oids[i], 0, Payload(i).size(), &out).ok());
                              EXPECT_EQ(out, Payload(i));
                            }
                            ASSERT_TRUE(osd->Close().ok());
                          });
}

// ---------------------------------------------------------------- health gates

TEST(FaultsTest, ReadOnlyVolumeServesReadsAndRejectsMutations) {
  auto osd_r = Osd::Create(std::make_shared<MemoryBlockDevice>(kDev), OsdOptions{});
  ASSERT_TRUE(osd_r.ok());
  auto osd = std::move(osd_r).value();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, Payload(9)).ok());

  osd->health().Escalate(HealthState::kReadOnly, "test: simulated persistent write failure");

  std::string out;
  EXPECT_TRUE(osd->Read(*oid, 0, Payload(9).size(), &out).ok());
  EXPECT_EQ(out, Payload(9));
  EXPECT_TRUE(osd->Stat(*oid).ok());
  EXPECT_TRUE(osd->Write(*oid, 0, "x").IsReadOnly());
  EXPECT_TRUE(osd->Insert(*oid, 0, "x").IsReadOnly());
  EXPECT_TRUE(osd->RemoveRange(*oid, 0, 1).IsReadOnly());
  EXPECT_TRUE(osd->Truncate(*oid, 1).IsReadOnly());
  EXPECT_TRUE(osd->DeleteObject(*oid).IsReadOnly());
  EXPECT_TRUE(osd->CreateObject().status().IsReadOnly());

  osd->health().Escalate(HealthState::kFailed, "test: simulated total failure");
  EXPECT_FALSE(osd->Read(*oid, 0, 1, &out).ok());
  EXPECT_FALSE(osd->Stat(*oid).ok());

  // Metrics reflect the transition (gauge + name).
  std::string metrics = osd->DumpMetrics();
  EXPECT_NE(metrics.find("\"volume_health\""), std::string::npos);
  EXPECT_NE(metrics.find("failed"), std::string::npos);

  osd->health().Reset();  // Let teardown close cleanly.
}

TEST(FaultsTest, CheckpointWriteFailureEscalatesToReadOnly) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  opts.retry = RetryPolicy::None();  // One shot: the budget kill is persistent.
  auto created = Osd::Create(faulty, opts);
  ASSERT_TRUE(created.ok());
  auto osd = std::move(created).value();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, Payload(4)).ok());
  ASSERT_TRUE(osd->Sync().ok());

  // Budget 2: the checkpoint's journal epilogue (one batched write + sync) still
  // lands — journal-phase failures are clean aborts that deliberately don't
  // escalate — and the device then dies under the in-place phase, which does.
  faulty->SetWriteBudget(2);
  Status ck = osd->Checkpoint();
  EXPECT_FALSE(ck.ok()) << ck.ToString();
  EXPECT_EQ(osd->health_state(), HealthState::kReadOnly);
  EXPECT_TRUE(osd->Write(*oid, 0, "y").IsReadOnly());
  std::string out;
  EXPECT_TRUE(osd->Read(*oid, 0, Payload(4).size(), &out).ok());
  EXPECT_EQ(out, Payload(4));
}

// ---------------------------------------------------------------- degraded cluster

std::vector<std::shared_ptr<BlockDevice>> MakeDevices(size_t n) {
  std::vector<std::shared_ptr<BlockDevice>> out;
  for (size_t i = 0; i < n; i++) {
    out.push_back(std::make_shared<MemoryBlockDevice>(kDev));
  }
  return out;
}

// The acceptance scenario: one persistently failing shard fails exactly its own
// objects; every other shard stays fully available and the health gauges say so.
TEST(FaultsTest, FailedShardLeavesOtherShardsAvailable) {
  auto r = OsdCluster::Create(MakeDevices(4), OsdOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto cluster = std::move(r).value();

  std::vector<ObjectId> oids;
  for (int i = 0; i < 64; i++) {
    auto oid = cluster->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(cluster->Write(*oid, 0, Payload(i, 500)).ok());
    oids.push_back(*oid);
  }

  const size_t victim = 2;
  cluster->shard(victim)->health().Escalate(HealthState::kFailed,
                                            "test: simulated dead shard");
  EXPECT_EQ(cluster->worst_health(), HealthState::kFailed);
  EXPECT_EQ(cluster->shard_health(victim), HealthState::kFailed);
  EXPECT_EQ(cluster->shard_health(0), HealthState::kHealthy);

  size_t on_victim = 0, served = 0;
  for (size_t i = 0; i < oids.size(); i++) {
    std::string out;
    Status s = cluster->Read(oids[i], 0, 500, &out);
    if (cluster->ShardOf(oids[i]) == victim) {
      on_victim++;
      EXPECT_FALSE(s.ok()) << "read served from a failed shard";
      EXPECT_FALSE(cluster->Write(oids[i], 0, "z").ok());
    } else {
      served++;
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(out, Payload(static_cast<int>(i), 500));
      EXPECT_TRUE(cluster->Write(oids[i], 0, Payload(static_cast<int>(i), 500)).ok());
    }
  }
  EXPECT_GT(on_victim, 0u) << "hash placed nothing on the victim; test is vacuous";
  EXPECT_GT(served, 0u);

  // New creations keep landing on healthy shards' ids; ones hashed to the victim fail
  // loudly instead of landing elsewhere (placement stays deterministic).
  size_t created_ok = 0, created_failed = 0;
  for (int i = 0; i < 32; i++) {
    auto oid = cluster->CreateObject();
    if (oid.ok()) {
      created_ok++;
      EXPECT_NE(cluster->ShardOf(*oid), victim);
    } else {
      created_failed++;
    }
  }
  EXPECT_GT(created_ok, 0u);
  EXPECT_GT(created_failed, 0u);

  // Cluster-wide durability ops report the failure but still run the healthy shards.
  EXPECT_FALSE(cluster->Checkpoint().ok());
  std::string out;
  ASSERT_TRUE(cluster->Read(oids[0], 0, 500, &out).ok());

  // A record pending on every healthy shard (the victim refuses its own; an insert, as an
  // overwrite would sync its own record), then one Sync: it returns the victim's error
  // and still leaves every healthy journal committed.
  for (size_t k = 0; k < cluster->shard_count(); k++) {
    auto on_k = std::find_if(oids.begin(), oids.end(),
                             [&](ObjectId oid) { return cluster->ShardOf(oid) == k; });
    ASSERT_NE(on_k, oids.end()) << "no object on shard " << k;
    Status inserted = cluster->Insert(*on_k, 0, "pending");
    EXPECT_EQ(inserted.ok(), k != victim) << "shard " << k << ": " << inserted.ToString();
    if (k != victim) {
      EXPECT_GT(cluster->shard(k)->journal_pending_records(), 0u) << "shard " << k;
    }
  }
  Status synced = cluster->Sync();
  EXPECT_TRUE(synced.IsIoError()) << synced.ToString();
  EXPECT_NE(synced.ToString().find("simulated dead shard"), std::string::npos)
      << synced.ToString();
  for (size_t k = 0; k < cluster->shard_count(); k++) {
    if (k != victim) {
      EXPECT_EQ(cluster->shard(k)->journal_pending_records(), 0u) << "shard " << k;
    }
  }

  cluster->shard(victim)->health().Reset();  // Close cleanly in teardown.
}

TEST(FaultsTest, ReadOnlyShardRejectsForeignAppends) {
  auto r = OsdCluster::Create(MakeDevices(4), OsdOptions{});
  ASSERT_TRUE(r.ok());
  auto cluster = std::move(r).value();
  auto oid = cluster->CreateObject();
  ASSERT_TRUE(oid.ok());

  size_t owner = cluster->ShardOf(*oid);
  cluster->shard(owner)->health().Escalate(HealthState::kReadOnly, "test");
  uint64_t token = 0;
  EXPECT_TRUE(cluster->AppendForeign(*oid, "namespace-record", &token).IsReadOnly());
  cluster->shard(owner)->health().Reset();
}

// With journaling off no tag record is written, so no journal append can refuse a tag
// mutation: the metadata volume's naming credit is the health gate.
TEST(FaultsTest, ReadOnlyVolumeRejectsTagMutationsWithJournalingOff) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "inline");
    core::FileSystemOptions opts;
    opts.lazy_tag_indexing = lazy;
    opts.osd.journaling = false;
    auto fs_r = core::FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), opts);
    ASSERT_TRUE(fs_r.ok()) << fs_r.status().ToString();
    auto fs = std::move(fs_r).value();
    auto oid = fs->Create({{"UDEF", "kept"}});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->WaitForTagIndexing().ok());

    fs->volume()->health().Escalate(HealthState::kReadOnly, "test: read-only volume");
    Status s = fs->AddTag(*oid, {"UDEF", "added"});
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
    s = fs->RemoveTag(*oid, {"UDEF", "kept"});
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
    core::NamespaceBatch batch = fs->NewBatch();
    ASSERT_TRUE(batch.AddTag(*oid, {"UDEF", "batched"}).ok());
    ASSERT_TRUE(batch.RemoveTag(*oid, {"UDEF", "kept"}).ok());
    s = batch.Commit();
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();

    auto tags = fs->Tags(*oid);
    ASSERT_TRUE(tags.ok()) << tags.status().ToString();
    ASSERT_EQ(tags->size(), 1u);
    EXPECT_EQ((*tags)[0].value, "kept");
    auto kept = fs->Lookup({{"UDEF", "kept"}});
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    EXPECT_EQ(*kept, std::vector<ObjectId>{*oid});
    EXPECT_TRUE(fs->Lookup({{"UDEF", "added"}})->empty());
    EXPECT_TRUE(fs->Lookup({{"UDEF", "batched"}})->empty());
    fs->volume()->health().Reset();  // Let teardown close cleanly.
  }
}

// Namespace state lives on shard 0, but an object's tag records go to its owner's
// journal: a read-only shard 0 must refuse tag mutations on objects a healthy shard
// owns.
TEST(FaultsTest, ReadOnlyMetadataShardRejectsTagMutationsOnHealthyOwners) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "inline");
    core::FileSystemOptions opts;
    opts.lazy_tag_indexing = lazy;
    opts.shard_count = 4;
    auto fs_r = core::FileSystem::Create(MakeDevices(4), opts);
    ASSERT_TRUE(fs_r.ok()) << fs_r.status().ToString();
    auto fs = std::move(fs_r).value();
    Result<ObjectId> oid = fs->Create();
    for (int i = 0; i < 64 && oid.ok() && fs->cluster()->ShardOf(*oid) == 0; i++) {
      oid = fs->Create();
    }
    ASSERT_TRUE(oid.ok());
    ASSERT_NE(fs->cluster()->ShardOf(*oid), 0u) << "hash placed nothing off shard 0";
    ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "kept"}).ok());
    ASSERT_TRUE(fs->WaitForTagIndexing().ok());

    fs->volume()->health().Escalate(HealthState::kReadOnly, "test: read-only shard 0");
    Status s = fs->AddTag(*oid, {"UDEF", "added"});
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
    s = fs->RemoveTag(*oid, {"UDEF", "kept"});
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();

    auto tags = fs->Tags(*oid);
    ASSERT_TRUE(tags.ok()) << tags.status().ToString();
    ASSERT_EQ(tags->size(), 1u);
    EXPECT_EQ((*tags)[0].value, "kept");
    auto kept = fs->Lookup({{"UDEF", "kept"}});
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    EXPECT_EQ(*kept, std::vector<ObjectId>{*oid});
    EXPECT_TRUE(fs->Lookup({{"UDEF", "added"}})->empty());
    fs->volume()->health().Reset();  // Let teardown close cleanly.
  }
}

// ---------------------------------------------------------------- scrub vs. live load

// TSan target: back-to-back background scrub passes and five unpaced foreground passes
// under an 8-thread tag storm. Proves the scrubber's lock discipline (flush_mu_ shared
// -> stripe Peek, no content-byte reads from cached pages) against concurrent tag
// mutations, checkpoints, and reads.
TEST(FaultsTest, ScrubUnderTagStormIsRaceFree) {
  core::FileSystemOptions opts;
  opts.osd.scrub_interval_ms = 1;  // Scrub continuously.
  auto fs_r = core::FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), opts);
  ASSERT_TRUE(fs_r.ok()) << fs_r.status().ToString();
  auto fs = std::move(fs_r).value();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string val = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto oid = fs->Create({{"UDEF", val}});
        if (!oid.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!fs->Write(*oid, 0, Payload(i, 600)).ok() ||
            !fs->AddTag(*oid, {"USER", "storm"}).ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::string out;
        if (!fs->Read(*oid, 0, 600, &out).ok() || out != Payload(i, 600)) {
          failures.fetch_add(1);
        }
        if (i % 16 == 0 && !fs->RemoveTag(*oid, {"USER", "storm"}).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Foreground synchronous passes race the background thread and the storm.
  for (int i = 0; i < 5; i++) {
    ScrubReport rep;
    ASSERT_TRUE(fs->cluster()->ScrubAll(&rep).ok());
    EXPECT_EQ(rep.errors_found, 0u) << "scrub flagged a healthy volume under load";
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fs->cluster()->worst_health(), HealthState::kHealthy);

  auto report = core::CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->quarantined_pages, 0u);
}

// Quarantined pages surface through fsck so the operator sees which shard/offset died.
TEST(FaultsTest, FsckReportsQuarantinedPages) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  uint64_t victim = 0;
  {
    auto fs_r = core::FileSystem::Create(faulty);
    ASSERT_TRUE(fs_r.ok());
    auto fs = std::move(fs_r).value();
    auto oid = fs->Create({{"UDEF", "doomed"}});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, Payload(0)).ok());
    ASSERT_TRUE(fs->Checkpoint().ok());
    victim = LastStampedPage(fs->cluster()->shard(0), kDev);
  }  // Destructor closes the filesystem; cache is cold at reopen.
  ASSERT_TRUE(faulty->FlipBit(victim + 9, 2).ok());
  auto fs_r = core::FileSystem::Open(faulty);
  ASSERT_TRUE(fs_r.ok()) << fs_r.status().ToString();
  auto fs = std::move(fs_r).value();
  ScrubReport rep;
  ASSERT_TRUE(fs->cluster()->ScrubAll(&rep).ok());
  ASSERT_GE(rep.pages_quarantined, 1u);

  auto report = core::CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->quarantined_pages, 1u);
  EXPECT_FALSE(report->clean());
}

// Pre-checksum volumes (superblock without a checksum region) still open and serve;
// they simply run unverified, and ScrubNow is a no-op.
TEST(FaultsTest, VolumeCreatedWithoutChecksumsStillOpens) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  opts.page_checksums = false;
  ObjectId oid_v = 0;
  {
    auto created = Osd::Create(dev, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oid_v = *oid;
    ASSERT_TRUE(osd->Write(*oid, 0, Payload(5)).ok());
    ASSERT_TRUE(osd->Close().ok());
  }
  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok());
  auto osd = std::move(reopened).value();
  EXPECT_EQ(osd->checksums(), nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(oid_v, 0, Payload(5).size(), &out).ok());
  EXPECT_EQ(out, Payload(5));
  ScrubReport rep;
  ASSERT_TRUE(osd->ScrubNow(&rep).ok());
  EXPECT_EQ(rep.pages_scanned, 0u);
}

// The checksum table survives close/reopen via the superblock generation gate, and a
// stale table (generation mismatch) is dropped rather than trusted.
TEST(FaultsTest, ChecksumTablePersistsAcrossReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  ObjectId oid_v = 0;
  {
    auto created = Osd::Create(dev, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oid_v = *oid;
    ASSERT_TRUE(osd->Write(*oid, 0, Payload(6)).ok());
    ASSERT_TRUE(osd->Close().ok());
  }
  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok());
  auto osd = std::move(reopened).value();
  ASSERT_NE(osd->checksums(), nullptr);
  // A loaded table means reads verify immediately — and scrub scans real pages.
  ScrubReport rep;
  ASSERT_TRUE(osd->ScrubNow(&rep).ok());
  EXPECT_GT(rep.pages_scanned, 0u);
  EXPECT_EQ(rep.errors_found, 0u);
  std::string out;
  ASSERT_TRUE(osd->Read(oid_v, 0, Payload(6).size(), &out).ok());
  EXPECT_EQ(out, Payload(6));
}

// ---------------------------------------------------------------- partly written pages

// A checksummed volume holding one object whose only extent ends part-way into its last
// page: a fresh extent stamps that page over the bytes it owns, and no further.
struct PartlyWrittenObject {
  std::shared_ptr<MemoryBlockDevice> base;
  std::shared_ptr<FaultyBlockDevice> faulty;
  std::unique_ptr<Osd> osd;
  ObjectId oid = 0;
  std::string body;
  uint64_t last_page = 0;  // Device offset of the body's last page.
  size_t covered = 0;      // Bytes of that page the object owns.

  void Make(size_t size) {
    base = std::make_shared<MemoryBlockDevice>(kDev);
    faulty = std::make_shared<FaultyBlockDevice>(base);
    auto created = Osd::Create(faulty, OsdOptions{});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    osd = std::move(created).value();
    auto id = osd->CreateObject();
    ASSERT_TRUE(id.ok());
    oid = *id;
    body = Payload(static_cast<int>(size), size);
    ASSERT_TRUE(osd->Write(oid, 0, body).ok());
    const size_t last_start = (size - 1) / kPageSize * kPageSize;
    covered = size - last_start;
    // The one stamped page that starts with the body's last bytes.
    int found = 0;
    for (uint64_t off = 0; off + kPageSize <= kDev; off += kPageSize) {
      std::string page;
      ASSERT_TRUE(base->Read(off, kPageSize, &page).ok());
      if (osd->checksums()->HasChecksum(off) &&
          page.compare(0, covered, body, last_start, covered) == 0) {
        last_page = off;
        found++;
      }
    }
    ASSERT_EQ(found, 1);
  }

  Status ReadBody(std::string* out) const { return osd->Read(oid, 0, body.size(), out); }

  ScrubReport Scrub() const {
    ScrubReport rep;
    EXPECT_TRUE(osd->ScrubNow(&rep).ok());
    return rep;
  }
};

constexpr size_t kPartlyWrittenSizes[] = {1000, 3 * kPageSize + 100};

// The cache is dropped first: with no resident copy of the page, the read goes to the
// device and the scrub has nothing to repair from.
TEST(PartlyWrittenPageTest, FlipInACoveredByteFailsTheReadAndTheScrub) {
  for (size_t size : kPartlyWrittenSizes) {
    for (size_t at : {size_t{0}, size % kPageSize - 1}) {
      SCOPED_TRACE(std::to_string(size) + "-byte object, flip at byte " + std::to_string(at));
      PartlyWrittenObject o;
      o.Make(size);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_TRUE(o.osd->pager()->DropCacheForTesting().ok());
      ASSERT_TRUE(o.faulty->FlipBit(o.last_page + at, 4).ok());
      std::string out;
      EXPECT_TRUE(o.ReadBody(&out).IsCorruption());
      const ScrubReport rep = o.Scrub();
      EXPECT_EQ(rep.errors_found, 1u);
      EXPECT_TRUE(o.osd->checksums()->IsQuarantined(o.last_page));
    }
  }
}

// The same flips under the resident copy the write left in the cache: reads are served
// from that copy, the scrub repairs the device page from it instead of quarantining it,
// and the next checkpoint writes it back, so the page then verifies from the device.
TEST(PartlyWrittenPageTest, FlipUnderAResidentCopyIsRepairedFromIt) {
  for (size_t size : kPartlyWrittenSizes) {
    for (size_t at : {size_t{0}, size % kPageSize - 1}) {
      SCOPED_TRACE(std::to_string(size) + "-byte object, flip at byte " + std::to_string(at));
      PartlyWrittenObject o;
      o.Make(size);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_NE(o.osd->pager()->Peek(o.last_page), nullptr);
      ASSERT_TRUE(o.faulty->FlipBit(o.last_page + at, 4).ok());
      std::string out;
      ASSERT_TRUE(o.ReadBody(&out).ok());
      EXPECT_EQ(out, o.body);
      const ScrubReport rep = o.Scrub();
      EXPECT_EQ(rep.errors_found, 1u);
      EXPECT_EQ(rep.pages_repaired, 1u);
      EXPECT_EQ(rep.pages_quarantined, 0u);
      EXPECT_FALSE(o.osd->checksums()->IsQuarantined(o.last_page));

      ASSERT_TRUE(o.osd->Checkpoint().ok());
      std::string page;
      ASSERT_TRUE(o.base->Read(o.last_page, kPageSize, &page).ok());
      EXPECT_TRUE(o.osd->checksums()->Verify(o.last_page, page).ok());
      EXPECT_EQ(page.compare(0, o.covered, o.body, o.body.size() - o.covered, o.covered), 0);
      ASSERT_TRUE(o.osd->pager()->DropCacheForTesting().ok());
      ASSERT_TRUE(o.ReadBody(&out).ok());
      EXPECT_EQ(out, o.body);
      EXPECT_EQ(o.Scrub().errors_found, 0u);
    }
  }
}

// Bytes past the covered prefix belong to no extent: a flip there changes nothing a
// reader gets, and the scrub, which checks what the stamp covers, stays silent. So it
// does after a checkpoint and a reopen, which load the covered length from disk.
TEST(PartlyWrittenPageTest, FlipPastTheCoveredBytesIsNeitherReadNorReported) {
  for (size_t size : kPartlyWrittenSizes) {
    SCOPED_TRACE(std::to_string(size) + "-byte object");
    PartlyWrittenObject o;
    o.Make(size);
    if (HasFatalFailure()) {
      return;
    }
    ASSERT_TRUE(o.faulty->FlipBit(o.last_page + o.covered, 1).ok());
    ASSERT_TRUE(o.faulty->FlipBit(o.last_page + kPageSize - 1, 6).ok());
    std::string out;
    ASSERT_TRUE(o.ReadBody(&out).ok());
    EXPECT_EQ(out, o.body);
    EXPECT_EQ(o.Scrub().errors_found, 0u);

    ASSERT_TRUE(o.osd->Close().ok());
    o.osd.reset();
    ASSERT_TRUE(o.faulty->FlipBit(o.last_page + o.covered + 7, 2).ok());
    auto reopened = Osd::Open(o.faulty, OsdOptions{});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    o.osd = std::move(reopened).value();
    ASSERT_TRUE(o.osd->checksums()->HasChecksum(o.last_page));
    ASSERT_TRUE(o.ReadBody(&out).ok());
    EXPECT_EQ(out, o.body);
    EXPECT_EQ(o.Scrub().errors_found, 0u);
    ASSERT_TRUE(o.faulty->FlipBit(o.last_page + o.covered - 1, 2).ok());
    EXPECT_TRUE(o.ReadBody(&out).IsCorruption());
    EXPECT_EQ(o.Scrub().errors_found, 1u);
  }
}

// An in-place write over part of the page goes through WriteRaw: it reads the page back
// and stamps it whole, so from then on a flip past the old prefix is caught as well.
TEST(PartlyWrittenPageTest, InPlaceWriteReadsThePageBackAndStampsItWhole) {
  for (size_t size : kPartlyWrittenSizes) {
    SCOPED_TRACE(std::to_string(size) + "-byte object");
    PartlyWrittenObject o;
    o.Make(size);
    if (HasFatalFailure()) {
      return;
    }
    const uint64_t at = (size - 1) / kPageSize * kPageSize + 10;
    const uint64_t readbacks = stats::Get(stats::Counter::kRawWriteReadbacks);
    ASSERT_TRUE(o.osd->Write(o.oid, at, "overwritten").ok());
    EXPECT_EQ(stats::Get(stats::Counter::kRawWriteReadbacks) - readbacks, 1u);
    o.body.replace(at, 11, "overwritten");
    std::string out;
    ASSERT_TRUE(o.ReadBody(&out).ok());
    EXPECT_EQ(out, o.body);
    EXPECT_EQ(o.Scrub().errors_found, 0u);
    ASSERT_TRUE(o.faulty->FlipBit(o.last_page + kPageSize - 1, 3).ok());
    EXPECT_EQ(o.Scrub().errors_found, 1u);
  }
}

}  // namespace
}  // namespace osd
}  // namespace hfad
