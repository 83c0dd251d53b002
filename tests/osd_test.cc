// Unit, integration, and crash-recovery tests for the object-based storage device.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/osd/osd.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace osd {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

std::unique_ptr<Osd> MakeOsd(std::shared_ptr<BlockDevice> dev, OsdOptions opts = {}) {
  auto r = Osd::Create(std::move(dev), opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(OsdTest, CreateFormatsAVolume) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(osd->object_count(), 0u);
}

TEST(OsdTest, DeviceTooSmallRejected) {
  auto r = Osd::Create(std::make_shared<MemoryBlockDevice>(64 * 1024), OsdOptions{});
  EXPECT_FALSE(r.ok());
}

TEST(OsdTest, CreateObjectAssignsFreshIds) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::set<ObjectId> ids;
  for (int i = 0; i < 100; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    EXPECT_TRUE(ids.insert(*oid).second) << "duplicate oid " << *oid;
  }
  EXPECT_EQ(osd->object_count(), 100u);
}

TEST(OsdTest, WriteReadRoundTrip) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "hello object world").ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 6, 6, &out).ok());
  EXPECT_EQ(out, "object");
  auto size = osd->Size(*oid);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 18u);
}

TEST(OsdTest, OpsOnMissingObjectFail) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::string out;
  EXPECT_TRUE(osd->Read(999, 0, 1, &out).IsNotFound());
  EXPECT_TRUE(osd->Write(999, 0, "x").IsNotFound());
  EXPECT_TRUE(osd->Insert(999, 0, "x").IsNotFound());
  EXPECT_TRUE(osd->RemoveRange(999, 0, 1).IsNotFound());
  EXPECT_TRUE(osd->DeleteObject(999).IsNotFound());
  EXPECT_TRUE(osd->Stat(999).status().IsNotFound());
  EXPECT_FALSE(osd->Exists(999));
}

TEST(OsdTest, InsertAndRemoveRange) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "helloworld").ok());
  ASSERT_TRUE(osd->Insert(*oid, 5, ", ").ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "hello, world");
  ASSERT_TRUE(osd->RemoveRange(*oid, 5, 2).ok());
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "helloworld");
}

TEST(OsdTest, TruncateGrowZeroFillsAndShrinkDrops) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "abcdef").ok());
  ASSERT_TRUE(osd->Truncate(*oid, 10).ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, std::string("abcdef") + std::string(4, '\0'));
  ASSERT_TRUE(osd->Truncate(*oid, 3).ok());
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "abc");
}

TEST(OsdTest, DeleteReleasesStorage) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  uint64_t baseline = osd->heap_allocated_bytes();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, std::string(1024 * 1024, 'D')).ok());
  EXPECT_GT(osd->heap_allocated_bytes(), baseline + 512 * 1024);
  ASSERT_TRUE(osd->DeleteObject(*oid).ok());
  EXPECT_FALSE(osd->Exists(*oid));
  EXPECT_LE(osd->heap_allocated_bytes(), baseline + 64 * 1024);
}

// A write into an empty object that the heap cannot hold fails with NoSpace and leaves
// the heap as it found it: the extent-tree root page the write allocated first goes back
// with its extents.
TEST(OsdTest, FailedFirstWriteIntoAnEmptyObjectLeavesTheHeapAlone) {
  OsdOptions opts;
  opts.checkpoint_kick_occupancy = 0;
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(8 * 1024 * 1024), opts);
  auto filler = osd->CreateObject();
  auto empty = osd->CreateObject();
  ASSERT_TRUE(filler.ok() && empty.ok());
  const std::string chunk(64 * 1024, 'f');
  uint64_t size = 0;
  for (;;) {
    Status s = osd->Write(*filler, size, chunk);
    if (s.IsNoSpace()) {
      break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    size += chunk.size();
  }
  // One 64 KiB block free again: room for a root page, not for the write below.
  ASSERT_TRUE(osd->Truncate(*filler, size - chunk.size()).ok());
  const uint64_t heap = osd->heap_allocated_bytes();
  Status s = osd->Write(*empty, 0, std::string(200 * 1024, 'e'));
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_EQ(osd->heap_allocated_bytes(), heap);
  auto empty_size = osd->Size(*empty);
  ASSERT_TRUE(empty_size.ok());
  EXPECT_EQ(*empty_size, 0u);
  EXPECT_TRUE(osd->CheckObject(*empty).ok());
}

TEST(OsdTest, StatReportsMetadata) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  auto meta0 = osd->Stat(*oid);
  ASSERT_TRUE(meta0.ok());
  EXPECT_EQ(meta0->size, 0u);
  EXPECT_GT(meta0->ctime_ns, 0u);

  ASSERT_TRUE(osd->Write(*oid, 0, "0123456789").ok());
  auto meta1 = osd->Stat(*oid);
  ASSERT_TRUE(meta1.ok());
  EXPECT_EQ(meta1->size, 10u);
  EXPECT_GE(meta1->mtime_ns, meta0->mtime_ns);

  ASSERT_TRUE(osd->SetAttributes(*oid, 0755, 1000, 100).ok());
  auto meta2 = osd->Stat(*oid);
  ASSERT_TRUE(meta2.ok());
  EXPECT_EQ(meta2->mode, 0755u);
  EXPECT_EQ(meta2->uid, 1000u);
  EXPECT_EQ(meta2->gid, 100u);
  EXPECT_EQ(meta2->size, 10u);  // SetAttributes does not touch size.
}

TEST(OsdTest, ScanObjectsVisitsInOidOrder) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::vector<ObjectId> created;
  for (int i = 0; i < 20; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    created.push_back(*oid);
  }
  ASSERT_TRUE(osd->DeleteObject(created[5]).ok());
  std::vector<ObjectId> seen;
  ASSERT_TRUE(osd->ScanObjects([&](ObjectId oid, const ObjectMeta&) {
    seen.push_back(oid);
    return true;
  }).ok());
  EXPECT_EQ(seen.size(), 19u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::count(seen.begin(), seen.end(), created[5]), 0);
}

TEST(OsdTest, ScanObjectsSeeksToStartKey) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(osd->CreateObject().ok());  // Oids 1..10.
  }
  std::vector<ObjectId> seen;
  ASSERT_TRUE(osd->ScanObjects(7, [&](ObjectId oid, const ObjectMeta&) {
                   seen.push_back(oid);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<ObjectId>{7, 8, 9, 10}));
  seen.clear();
  ASSERT_TRUE(osd->ScanObjects(11, [&](ObjectId oid, const ObjectMeta&) {
                   seen.push_back(oid);
                   return true;
                 })
                  .ok());
  EXPECT_TRUE(seen.empty());
}

// ---- Close status (shutdown errors must not vanish) ----

TEST(OsdCloseTest, CleanCloseRecordsOk) {
  stats::ResetAll();
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(osd->CreateObject().ok());
  EXPECT_TRUE(osd->Close().ok());
  EXPECT_TRUE(osd->last_close_status().ok());
  osd.reset();
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 0u);
}

TEST(OsdCloseTest, FailedFinalCheckpointIsRecordedAndCounted) {
  stats::ResetAll();
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  auto osd = MakeOsd(faulty);
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "will not checkpoint").ok());
  faulty->SetWriteBudget(0);  // The device dies before shutdown.
  Status s = osd->Close();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(osd->last_close_status().ok());
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 1u);
  // The destructor reuses the recorded outcome — no double count, no second checkpoint.
  osd.reset();
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 1u);
}

// ---- Threshold-triggered checkpoints ----

// A tag-storm-sized load against a deliberately tiny journal: the occupancy kick keeps
// checkpoints running in the background so ops keep succeeding long past the point the
// journal would have filled many times over.
TEST(OsdCheckpointTest, ThresholdCheckpointsAbsorbSustainedLoad) {
  OsdOptions opts;
  opts.journal_size = 256 * 1024;
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  auto osd = MakeOsd(dev, opts);
  const std::string payload(512, 'p');
  std::vector<ObjectId> oids;
  for (int i = 0; i < 2000; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok()) << "op " << i;
    ASSERT_TRUE(osd->Write(*oid, 0, payload).ok()) << "op " << i;
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Close().ok());
  osd.reset();
  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->object_count(), oids.size());
  std::string out;
  ASSERT_TRUE((*reopened)->Read(oids.back(), 0, payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
}

// Checkpoints that run on an op's own thread are counted, and only real journal
// pressure triggers them (the occupancy kick is off here, so a full journal falls into
// the backstop): small writes never do; overwrites whose records fill the journal do at
// the op the accounting predicts; an op too large to journal adds exactly one. Explicit
// checkpoints are not inline ones.
TEST(OsdCheckpointTest, InlineCheckpointsAreCounted) {
  constexpr uint64_t kJournal = 256 * 1024;
  OsdOptions opts;
  opts.journal_size = kJournal;
  opts.checkpoint_kick_occupancy = 0;
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev), opts);
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  auto inline_checkpoints = [base = stats::Get(stats::Counter::kCheckpointsInline)] {
    return stats::Get(stats::Counter::kCheckpointsInline) - base;
  };
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(osd->Write(*oid, 0, std::string(512, 'p')).ok()) << "op " << i;
  }
  EXPECT_EQ(inline_checkpoints(), 0u);

  // Same-size overwrites of one extent each append one record and dirty nothing new, so
  // the accounted fill before the i-th is fill + i * record. Each reserves its record
  // bound (payload + 64, plus a header) and an epilogue credit: one object-table Put
  // (2h + 2 pages) and a one-extent splice (2h + 1 pages), each page an image plus an
  // allocator entry, plus the extent's allocator entry.
  const std::string payload(4000, 'o');
  ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());  // Grows the object to one extent.
  auto fill = [&] { return static_cast<uint64_t>(osd->journal_reserved() * kJournal); };
  auto appended = [&] { return static_cast<uint64_t>(osd->journal_occupancy() * kJournal); };
  const uint64_t fill_before = fill();
  const uint64_t appended_before = appended();
  ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());
  const uint64_t record = appended() - appended_before;
  ASSERT_EQ(fill(), fill_before + record);
  const uint64_t h = static_cast<uint64_t>(osd->pager()->tree_height_bound());
  const uint64_t page_credit = (16 + 1 + 8 + 4096) + 16;
  const uint64_t need =
      (payload.size() + 64 + 16) + ((2 * h + 2) + (2 * h + 1)) * page_credit + 16;
  const uint64_t capacity = kJournal - 16;
  uint64_t first_backstop = 0;
  while (fill_before + (first_backstop + 1) * record + need <= capacity) {
    first_backstop++;
  }
  ASSERT_GT(first_backstop, 10u);
  for (uint64_t i = 0; i < first_backstop; i++) {
    ASSERT_TRUE(osd->Write(*oid, 0, payload).ok()) << "op " << i;
    ASSERT_EQ(inline_checkpoints(), 0u) << "op " << i;
  }
  ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());
  EXPECT_EQ(inline_checkpoints(), 1u);

  // Too large to journal beside its epilogue: applied, then checkpointed at once.
  ASSERT_TRUE(osd->Insert(*oid, 0, std::string(200 * 1024, 'L')).ok());
  EXPECT_EQ(inline_checkpoints(), 2u);
  ASSERT_TRUE(osd->Checkpoint().ok());
  EXPECT_EQ(inline_checkpoints(), 2u);
}

// Ops that fail their checks after reserving journal space give it all back: with the
// kick on and a tiny journal, thousands of failed deletes and past-end writes leave a
// valid write nothing to wait for and no checkpoint to run.
TEST(OsdCheckpointTest, FailedOpsGiveBackTheirReservations) {
  OsdOptions opts;
  opts.journal_size = 256 * 1024;
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev), opts);
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  const uint64_t base = stats::Get(stats::Counter::kCheckpointsInline);
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(osd->DeleteObject(*oid + 1000).IsNotFound()) << "op " << i;
  }
  for (int i = 0; i < 5000; i++) {
    ASSERT_EQ(osd->Write(*oid, 1, "past the end").code(), StatusCode::kOutOfRange) << "op " << i;
  }
  Status s = osd->Write(*oid, 0, "valid");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats::Get(stats::Counter::kCheckpointsInline) - base, 0u);
}

// ---- Kicks that arrive while a background checkpoint runs ----

// A volume on a FaultyBlockDevice whose checkpoints are counted, and a gate that holds a
// background checkpoint at its first device sync, before it resets the journal.
class CheckpointKickTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kJournal = 1024 * 1024;

  void SetUp() override {
    faulty_ = std::make_shared<FaultyBlockDevice>(std::make_shared<MemoryBlockDevice>(kDev));
    OsdOptions opts;
    opts.journal_size = kJournal;
    osd_ = MakeOsd(faulty_, opts);
    ASSERT_NE(osd_, nullptr);
    osd_->SetCheckpointCallback([this] { checkpoints_++; });
  }

  // The gate goes first: Close syncs.
  void TearDown() override {
    gate_.ReleaseAll();
    faulty_->SetSyncHook(nullptr);
  }

  // Starts a background checkpoint and holds it at its first device sync.
  void HoldACheckpoint() {
    gate_.Install(faulty_.get());
    osd_->RequestCheckpoint();
    ASSERT_TRUE(gate_.WaitParked(1, std::chrono::seconds(5)));
    ASSERT_EQ(osd_->checkpointer_state(), Osd::CheckpointerState::kRunning);
  }

  // Takes apply credits until the accounted fill reaches `fraction` of the journal.
  void ReserveUntil(double fraction, std::vector<Osd::JournalCredit>* held) {
    while (osd_->journal_reserved() < fraction) {
      auto credit = osd_->ReserveApplyCredit(Osd::CreditUse::kApply, 1);
      ASSERT_TRUE(credit.ok()) << credit.status().ToString();
      held->push_back(std::move(credit).value());
    }
  }

  // Lets the held checkpoint finish, waits until the checkpointer has acted on every
  // kick it holds, and returns the checkpoints counted so far.
  int ReleaseAndSettle() {
    gate_.ReleaseAll();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((checkpoints_ == 0 ||
            osd_->checkpointer_state() != Osd::CheckpointerState::kIdle) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return checkpoints_;
  }

  std::shared_ptr<FaultyBlockDevice> faulty_;
  test::SyncGate gate_;
  std::atomic<int> checkpoints_{0};
  std::unique_ptr<Osd> osd_;
};

// Half the journal holds appended records when a checkpoint starts. A reservation made
// while it runs crosses the kick line, so its kick queues. The checkpoint resets the
// journal, which brings the fill, that reservation's credit included, back under the
// line: the queued kick adds no checkpoint.
TEST_F(CheckpointKickTest, QueuedKickUnderTheLineAfterTheCheckpointRunsNone) {
  auto oid = osd_->CreateObject();
  ASSERT_TRUE(oid.ok());
  const std::string payload(4000, 'k');
  while (osd_->journal_reserved() < 0.5) {
    ASSERT_TRUE(osd_->Write(*oid, 0, payload).ok());
  }
  ASSERT_EQ(checkpoints_, 0);
  HoldACheckpoint();
  std::vector<Osd::JournalCredit> held;
  ReserveUntil(0.72, &held);
  EXPECT_EQ(ReleaseAndSettle(), 1) << "the queued kick ran a second checkpoint";
  EXPECT_LT(osd_->journal_reserved(), 0.7);
  held.clear();
  EXPECT_EQ(ReleaseAndSettle(), 1);
}

// Credits held past the checkpoint keep the fill over the line: the queued kick runs
// exactly one more checkpoint.
TEST_F(CheckpointKickTest, QueuedKickStillOverTheLineRunsOneMore) {
  HoldACheckpoint();
  std::vector<Osd::JournalCredit> held;
  ReserveUntil(0.75, &held);
  EXPECT_EQ(ReleaseAndSettle(), 2);
  EXPECT_GE(osd_->journal_reserved(), 0.7);
  held.clear();
  EXPECT_EQ(ReleaseAndSettle(), 2);
}

// The allocator snapshot every checkpoint must journal grows with the volume. Once it
// takes a large share of a small journal, small ops still journal normally, in the room
// it leaves: none is treated as too large to journal (which would apply it under the
// exclusive lock and checkpoint on its own thread).
TEST(OsdCheckpointTest, LargeAllocatorSnapshotLeavesSmallOpsJournaled) {
  constexpr uint64_t kJournal = 256 * 1024;
  OsdOptions opts;
  opts.journal_size = kJournal;
  opts.checkpoint_kick_occupancy = 0;
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev), opts);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 3200; i++) {  // An extent-tree page and a data block each.
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    Status w = osd->Write(*oid, 0, "x");
    ASSERT_TRUE(w.ok()) << "op " << i << ": " << w.ToString();
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Checkpoint().ok());
  // Right after a checkpoint the accounted fill is the floor alone. Together with half
  // the journal and one overwrite's credit (see InlineCheckpointsAreCounted) it exceeds
  // the journal, so a rule that reserved half the journal beside the floor would refuse
  // every op below.
  const uint64_t floor = static_cast<uint64_t>(osd->journal_reserved() * kJournal);
  const uint64_t h = static_cast<uint64_t>(osd->pager()->tree_height_bound());
  const uint64_t need = (1 + 64 + 16) + ((2 * h + 2) + (2 * h + 1)) * (4113 + 16) + 16;
  const uint64_t capacity = kJournal - 16;
  ASSERT_GT(floor + capacity / 2 + need, capacity);
  const uint64_t base = stats::Get(stats::Counter::kCheckpointsInline);
  for (int i = 0; i < 100; i++) {
    Status s = osd->Write(oids[static_cast<size_t>(i)], 0, "y");
    ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
  }
  EXPECT_EQ(stats::Get(stats::Counter::kCheckpointsInline) - base, 0u);
  std::string out;
  ASSERT_TRUE(osd->Read(oids[99], 0, 1, &out).ok());
  EXPECT_EQ(out, "y");
}

// ---- Checkpoint-boundary crash sweep (torn WriteBatch fault injection) ----
//
// Every op below is Sync()ed (acknowledged durable) before the crash, then a checkpoint
// is cut off after `budget` device writes with the final write torn in half. Whatever
// the tear position — mid page-image epilogue, mid in-place WriteBatch, before the
// superblock, before the journal reset — recovery must replay exactly the covered
// watermark: every acknowledged op, never a torn suffix.
// Parameterized over the write budget. Journal commits ride the IoEngine chain, whose
// thread-pool workers run the device's own Write/Sync, so every budget tears the same
// device write it would on a direct call.
class CheckpointTearTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointTearTest, SyncedOpsSurviveACheckpointTornAtAnyWrite) {
  const int64_t budget = GetParam();
  OsdOptions opts;
  std::vector<std::pair<ObjectId, std::string>> acked;
  test::RunTornWriteCrash(
      kDev, budget,
      [&](const std::shared_ptr<FaultyBlockDevice>& faulty, test::CrashPoint* point) {
        auto r = Osd::Create(faulty, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        auto osd = std::move(r).value();
        for (int i = 0; i < 8; i++) {
          auto oid = osd->CreateObject();
          ASSERT_TRUE(oid.ok());
          std::string payload = "acknowledged payload #" + std::to_string(i) +
                                std::string(200 + 50 * i, 'a' + static_cast<char>(i));
          ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());
          acked.emplace_back(*oid, payload);
        }
        ASSERT_TRUE(osd->Sync().ok());  // Covered by the watermark from here on.

        point->Tear();
        (void)osd->Checkpoint();  // May fail anywhere, including mid-WriteBatch.
        point->Crash();           // Hard crash: the destructor reaches nothing.
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        auto reopened = Osd::Open(base, opts);
        ASSERT_TRUE(reopened.ok())
            << "budget " << budget << ": " << reopened.status().ToString();
        for (const auto& [oid, payload] : acked) {
          std::string out;
          ASSERT_TRUE((*reopened)->Read(oid, 0, payload.size() + 16, &out).ok())
              << "budget " << budget << " oid " << oid;
          EXPECT_EQ(out, payload) << "budget " << budget << " oid " << oid;
        }
        EXPECT_EQ((*reopened)->object_count(), acked.size());
      });
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWrite, CheckpointTearTest, ::testing::Range(0, 14));

// A checkpoint torn over a table the previous checkpoint already persisted: recovery
// must redo the committed epilogue before any page of the old tables is read, or the
// page cache keeps the pre-redo copy and acknowledged objects vanish. (CheckpointTearTest
// starts from an empty table, whose old root is 0 and never read.)
TEST(OsdCheckpointTest, TornCheckpointOverACheckpointedTableRecovers) {
  constexpr uint64_t kSmallDev = 8 * 1024 * 1024;
  OsdOptions opts;
  for (int64_t budget = 0; budget < 24; budget++) {
    std::vector<std::pair<ObjectId, std::string>> acked;
    test::RunTornWriteCrash(
        kSmallDev, budget,
        [&](const std::shared_ptr<FaultyBlockDevice>& faulty, test::CrashPoint* point) {
          auto r = Osd::Create(faulty, opts);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          auto osd = std::move(r).value();
          for (int i = 0; i < 16; i++) {
            if (i == 8) {
              ASSERT_TRUE(osd->Checkpoint().ok());
            }
            auto oid = osd->CreateObject();
            ASSERT_TRUE(oid.ok());
            std::string payload = "payload #" + std::to_string(i) +
                                  std::string(300, static_cast<char>('a' + i));
            ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());
            acked.emplace_back(*oid, payload);
          }
          ASSERT_TRUE(osd->Sync().ok());
          point->Tear();
          (void)osd->Checkpoint();
          point->Crash();
        },
        [&](const std::shared_ptr<MemoryBlockDevice>& base) {
          auto reopened = Osd::Open(base, opts);
          ASSERT_TRUE(reopened.ok()) << "budget " << budget << ": "
                                     << reopened.status().ToString();
          for (const auto& [oid, payload] : acked) {
            std::string out;
            ASSERT_TRUE((*reopened)->Read(oid, 0, payload.size(), &out).ok())
                << "budget " << budget << " oid " << oid;
            EXPECT_EQ(out, payload) << "budget " << budget << " oid " << oid;
          }
        });
  }
}

TEST(OsdTest, PersistsAcrossCleanReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid;
  {
    auto osd = MakeOsd(dev);
    auto r = osd->CreateObject();
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE(osd->Write(oid, 0, "survives reopen").ok());
    ASSERT_TRUE(osd->Checkpoint().ok());
  }
  auto reopened = Osd::Open(dev, OsdOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string out;
  ASSERT_TRUE((*reopened)->Read(oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "survives reopen");
  EXPECT_EQ((*reopened)->object_count(), 1u);
}

TEST(OsdTest, NamedRootsPersist) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  {
    auto osd = MakeOsd(dev);
    auto missing = osd->GetNamedRoot("fulltext");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(*missing, 0u);
    ASSERT_TRUE(osd->SetNamedRoot("fulltext", 123456).ok());
    ASSERT_TRUE(osd->SetNamedRoot("posix", 789).ok());
    ASSERT_TRUE(osd->Checkpoint().ok());
  }
  auto reopened = Osd::Open(dev, OsdOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetNamedRoot("fulltext"), 123456u);
  EXPECT_EQ(*(*reopened)->GetNamedRoot("posix"), 789u);
}

// ---------------------------------------------------------------- crash recovery

// Crash simulation: the Osd runs on a FaultyBlockDevice; "crashing" sets the write budget
// to zero so nothing (including the destructor's best-effort checkpoint) reaches the
// device afterward, then the volume is reopened from the underlying memory device.
class CrashHarness {
 public:
  explicit CrashHarness(OsdOptions opts = MakeDefaultOptions())
      : base_(std::make_shared<MemoryBlockDevice>(kDev)),
        faulty_(std::make_shared<FaultyBlockDevice>(base_)),
        opts_(opts) {
    auto r = Osd::Create(faulty_, opts_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    osd_ = std::move(r).value();
  }

  static OsdOptions MakeDefaultOptions() {
    OsdOptions opts;
    opts.group_commit = false;  // Every op durable on return.
    return opts;
  }

  Osd* osd() { return osd_.get(); }

  // Crash and reopen. Returns the recovered Osd (running directly on the base device).
  std::unique_ptr<Osd> CrashAndRecover(Osd::ForeignReplayFn replay = nullptr) {
    faulty_->SetWriteBudget(0);
    osd_.reset();  // Destructor checkpoint fails against the dead device.
    auto r = Osd::Open(base_, opts_, std::move(replay));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : nullptr;
  }

 private:
  std::shared_ptr<MemoryBlockDevice> base_;
  std::shared_ptr<FaultyBlockDevice> faulty_;
  OsdOptions opts_;
  std::unique_ptr<Osd> osd_;
};

TEST(OsdRecoveryTest, ReplaysLoggedOpsAfterCrash) {
  CrashHarness h;
  auto ra = h.osd()->CreateObject();
  auto rb = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ObjectId a = *ra, b = *rb;
  ASSERT_TRUE(h.osd()->Write(a, 0, "object a data").ok());
  ASSERT_TRUE(h.osd()->Write(b, 0, "object b data").ok());
  ASSERT_TRUE(h.osd()->Insert(a, 6, "<INS>").ok());
  ASSERT_TRUE(h.osd()->RemoveRange(b, 0, 7).ok());
  ASSERT_TRUE(h.osd()->SetAttributes(a, 0700, 42, 43).ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  EXPECT_EQ(out, "object<INS> a data");
  ASSERT_TRUE(osd->Read(b, 0, 100, &out).ok());
  EXPECT_EQ(out, "b data");
  auto meta = osd->Stat(a);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->mode, 0700u);
  EXPECT_EQ(meta->uid, 42u);
}

TEST(OsdRecoveryTest, UnsyncedGroupCommitOpsMayVanishButStateIsConsistent) {
  OsdOptions opts;
  opts.group_commit = true;
  CrashHarness h(opts);
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ObjectId a = *ra;
  ASSERT_TRUE(h.osd()->Write(a, 0, "synced payload").ok());
  ASSERT_TRUE(h.osd()->Sync().ok());  // Everything so far is durable.
  ASSERT_TRUE(h.osd()->Write(a, 0, "UNSYNCED").ok());  // Overwrite: forces its own sync.
  auto rb = h.osd()->CreateObject();  // Not synced: may vanish.
  ASSERT_TRUE(rb.ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  // The overwrite forced a journal sync (it clobbers live bytes in place), so it must
  // have survived.
  ASSERT_GE(out.size(), 8u);
  EXPECT_EQ(out.substr(0, 8), "UNSYNCED");
}

TEST(OsdRecoveryTest, CreateDeleteCycleRecovers) {
  CrashHarness h;
  std::vector<ObjectId> kept;
  for (int i = 0; i < 30; i++) {
    auto oid = h.osd()->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(h.osd()->Write(*oid, 0, "obj " + std::to_string(*oid)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(h.osd()->DeleteObject(*oid).ok());
    } else {
      kept.push_back(*oid);
    }
  }
  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(osd->object_count(), kept.size());
  for (ObjectId oid : kept) {
    std::string out;
    ASSERT_TRUE(osd->Read(oid, 0, 100, &out).ok()) << oid;
    EXPECT_EQ(out, "obj " + std::to_string(oid));
  }
  // New objects get fresh ids, never reusing replayed ones.
  auto fresh = osd->CreateObject();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, kept.back());
}

TEST(OsdRecoveryTest, RecoveryAfterCheckpointReplaysOnlySuffix) {
  CrashHarness h;
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ObjectId a = *ra;
  ASSERT_TRUE(h.osd()->Write(a, 0, "checkpointed").ok());
  ASSERT_TRUE(h.osd()->Checkpoint().ok());
  ASSERT_TRUE(h.osd()->Write(a, 12, " plus suffix").ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  EXPECT_EQ(out, "checkpointed plus suffix");
}

TEST(OsdRecoveryTest, ForeignRecordsReplayInOrder) {
  CrashHarness h;
  ASSERT_TRUE(h.osd()->AppendForeign("tag-op-1").ok());
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(h.osd()->AppendForeign("tag-op-2").ok());
  ASSERT_TRUE(h.osd()->Sync().ok());

  std::vector<std::string> replayed;
  auto osd = h.CrashAndRecover([&](Osd*, Slice payload) {
    replayed.push_back(payload.ToString());
    return Status::Ok();
  });
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(replayed, (std::vector<std::string>{"tag-op-1", "tag-op-2"}));
  EXPECT_TRUE(osd->Exists(*ra));
}

TEST(OsdRecoveryTest, RepeatedCrashRecoverCyclesConvergeToSameState) {
  Random rng(77);
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  opts.group_commit = false;
  std::vector<ObjectId> live;
  std::map<ObjectId, std::string> model;
  {
    auto faulty = std::make_shared<FaultyBlockDevice>(base);
    auto created = Osd::Create(faulty, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    for (int i = 0; i < 50; i++) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      std::string data = rng.NextString(rng.Range(1, 4000));
      ASSERT_TRUE(osd->Write(*oid, 0, data).ok());
      model[*oid] = data;
    }
    faulty->SetWriteBudget(0);
  }
  // Three crash/recover cycles; state must be identical each time.
  for (int cycle = 0; cycle < 3; cycle++) {
    auto faulty = std::make_shared<FaultyBlockDevice>(base);
    auto r = Osd::Open(faulty, opts);
    ASSERT_TRUE(r.ok()) << "cycle " << cycle << ": " << r.status().ToString();
    auto osd = std::move(r).value();
    EXPECT_EQ(osd->object_count(), model.size());
    for (const auto& [oid, data] : model) {
      std::string out;
      ASSERT_TRUE(osd->Read(oid, 0, data.size() + 10, &out).ok());
      ASSERT_EQ(out, data) << "cycle " << cycle << " oid " << oid;
    }
    if (cycle < 2) {
      faulty->SetWriteBudget(0);  // Crash again (even mid-recovery checkpoint is fine).
    } else {
      ASSERT_TRUE(osd->Checkpoint().ok());
    }
  }
}

// ---------------------------------------------------------------- concurrency

TEST(OsdConcurrencyTest, ParallelOpsOnDistinctObjects) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100;
  std::vector<ObjectId> oids(kThreads);
  for (int t = 0; t < kThreads; t++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids[t] = *oid;
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&osd, &oids, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string chunk = "t" + std::to_string(t) + "op" + std::to_string(i) + ";";
        auto size = osd->Size(oids[t]);
        ASSERT_TRUE(size.ok());
        ASSERT_TRUE(osd->Write(oids[t], *size, chunk).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; t++) {
    std::string out;
    ASSERT_TRUE(osd->Read(oids[t], 0, 1 << 20, &out).ok());
    // Every chunk this thread wrote must be present, in order.
    size_t pos = 0;
    for (int i = 0; i < kOpsPerThread; i++) {
      std::string chunk = "t" + std::to_string(t) + "op" + std::to_string(i) + ";";
      size_t found = out.find(chunk, pos);
      ASSERT_NE(found, std::string::npos) << "thread " << t << " op " << i;
      pos = found + chunk.size();
    }
  }
}

// Shared-object stress for the sharded object locks: every thread mutates and reads the
// SAME small object set, so writers on one object serialize through its shard while
// readers take it shared, and distinct objects proceed independently. The end state
// must pass CheckObject on every object, and each object's byte content must be one of
// the values some writer actually wrote (no torn or interleaved pages).
TEST(OsdConcurrencyTest, OverlappingWritersAndReadersStayConsistent) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  constexpr int kObjects = 12;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  std::vector<ObjectId> oids(kObjects);
  for (int i = 0; i < kObjects; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids[i] = *oid;
    ASSERT_TRUE(osd->Write(oids[i], 0, "seed----").ok());
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&osd, &oids, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        ObjectId oid = oids[(t * 5 + i * 3) % kObjects];
        if ((t + i) % 4 == 0) {
          // Fixed-width overwrite at offset 0: the whole value is one page, so any
          // interleaving of writers leaves one complete writer's value behind.
          std::string body = "w" + std::to_string(t % 10) + std::to_string(i % 10) +
                             "-----";
          ASSERT_TRUE(osd->Write(oid, 0, body).ok());
        } else if ((t + i) % 4 == 1) {
          auto meta = osd->Stat(oid);
          ASSERT_TRUE(meta.ok());
        } else if ((t + i) % 4 == 2) {
          auto size = osd->Size(oid);
          ASSERT_TRUE(size.ok());
          ASSERT_GE(*size, 8u);
        } else {
          std::string out;
          ASSERT_TRUE(osd->Read(oid, 0, 8, &out).ok());
          ASSERT_EQ(out.size(), 8u);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int i = 0; i < kObjects; i++) {
    Status s = osd->CheckObject(oids[i]);
    EXPECT_TRUE(s.ok()) << "object " << oids[i] << ": " << s.ToString();
    std::string out;
    ASSERT_TRUE(osd->Read(oids[i], 0, 8, &out).ok());
    ASSERT_EQ(out.size(), 8u);
    // Either still the seed or exactly one writer's 8-byte record.
    EXPECT_TRUE(out == "seed----" || (out[0] == 'w' && out.substr(3, 5) == "-----"))
        << "torn content: '" << out << "'";
  }
}

TEST(OsdConcurrencyTest, CheckpointsInterleaveWithWriters) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    while (!stop.load()) {
      ASSERT_TRUE(osd->Checkpoint().ok());
    }
  });
  for (int i = 0; i < 300; i++) {
    auto size = osd->Size(*oid);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(osd->Write(*oid, *size, "x").ok());
  }
  stop.store(true);
  checkpointer.join();
  auto size = osd->Size(*oid);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 300u);
}

// ---------------------------------------------------------------- property sweep

struct OsdWorkload {
  uint64_t seed;
  bool journaling;
  bool group_commit;
  int ops;
};

// Printed into the CTest name (".../seed1_journal_group_ops800"). Without a printer gtest dumps the
// raw struct bytes, padding included, so the name changes from build to build.
void PrintTo(const OsdWorkload& w, std::ostream* os) {
  *os << "seed" << w.seed << (w.journaling ? "_journal" : "_nojournal")
      << (w.group_commit ? "_group" : "") << "_ops" << w.ops;
}

class OsdPropertyTest : public ::testing::TestWithParam<OsdWorkload> {};

// Random op mix mirrored against in-memory models; final state must match after a clean
// reopen as well.
TEST_P(OsdPropertyTest, MatchesModel) {
  const OsdWorkload p = GetParam();
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  opts.journaling = p.journaling;
  opts.group_commit = p.group_commit;
  auto osd = MakeOsd(dev, opts);
  Random rng(p.seed);
  std::map<ObjectId, std::string> model;

  for (int op = 0; op < p.ops; op++) {
    int action = static_cast<int>(rng.Uniform(12));
    if (action < 3 || model.empty()) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      model[*oid] = "";
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ObjectId oid = it->first;
      std::string& m = it->second;
      if (action < 6) {  // Write.
        uint64_t off = m.empty() ? 0 : rng.Uniform(m.size() + 1);
        std::string data = rng.NextString(rng.Range(1, 2000));
        ASSERT_TRUE(osd->Write(oid, off, data).ok());
        if (off + data.size() > m.size()) {
          m.resize(off + data.size());
        }
        m.replace(off, data.size(), data);
      } else if (action < 8) {  // Insert.
        uint64_t off = m.empty() ? 0 : rng.Uniform(m.size() + 1);
        std::string data = rng.NextString(rng.Range(1, 500));
        ASSERT_TRUE(osd->Insert(oid, off, data).ok());
        m.insert(off, data);
      } else if (action < 9 && !m.empty()) {  // RemoveRange.
        uint64_t off = rng.Uniform(m.size());
        uint64_t len = rng.Range(1, m.size() - off);
        ASSERT_TRUE(osd->RemoveRange(oid, off, len).ok());
        m.erase(off, len);
      } else if (action < 10) {  // Read and compare.
        std::string out;
        ASSERT_TRUE(osd->Read(oid, 0, m.size() + 10, &out).ok());
        ASSERT_EQ(out, m);
      } else if (action < 11) {  // Delete.
        ASSERT_TRUE(osd->DeleteObject(oid).ok());
        model.erase(it);
      } else {  // Truncate.
        uint64_t new_size = rng.Uniform(m.size() + 100);
        ASSERT_TRUE(osd->Truncate(oid, new_size).ok());
        m.resize(new_size, '\0');
      }
    }
  }
  ASSERT_TRUE(osd->Checkpoint().ok());
  osd.reset();

  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->object_count(), model.size());
  for (const auto& [oid, data] : model) {
    std::string out;
    ASSERT_TRUE((*reopened)->Read(oid, 0, data.size() + 10, &out).ok()) << oid;
    ASSERT_EQ(out, data) << "oid " << oid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, OsdPropertyTest,
    ::testing::Values(OsdWorkload{1, true, true, 800},    // Journaled, group commit.
                      OsdWorkload{2, true, false, 400},   // Journaled, sync per op.
                      OsdWorkload{3, false, false, 800},  // No journal.
                      OsdWorkload{4, true, true, 1500})); // Longer journaled run.

// Fault sweep: a two-read transient burst injected at every point in the device read
// stream is invisible — the default RetryPolicy (3 attempts) absorbs it, every object
// reads back byte-exact, and the volume never leaves healthy. A tiny page cache forces
// real device reads so the sweep actually exercises the miss path, not the cache.
TEST(OsdFaultSweepTest, TransientReadBurstsAtEveryOffsetAreAbsorbed) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  opts.pager_capacity_pages = 16;
  auto osd = MakeOsd(faulty, opts);
  ASSERT_NE(osd, nullptr);

  std::vector<ObjectId> oids;
  std::vector<std::string> payloads;
  for (int i = 0; i < 24; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    payloads.push_back("sweep-payload-" + std::to_string(i) +
                       std::string(6000, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(osd->Write(*oid, 0, payloads.back()).ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Checkpoint().ok());

  test::RunReadFaultSweep(faulty.get(), /*max_after=*/40, /*fail_count=*/2,
                          [&](int64_t after) {
                            std::string out;
                            for (size_t i = 0; i < oids.size(); i++) {
                              Status s = osd->Read(oids[i], 0, payloads[i].size(), &out);
                              ASSERT_TRUE(s.ok()) << "after=" << after << " oid#" << i
                                                  << ": " << s.ToString();
                              ASSERT_EQ(out, payloads[i]) << "after=" << after;
                            }
                          });
  EXPECT_EQ(osd->health_state(), HealthState::kHealthy);
}

// The same burst swept over cold first reads: a fresh Osd per fault position, so every
// read descends the object table and misses its extent tree's root page before its data
// read, and the burst lands on each kind of read in turn. (Above, the first round fills
// every object's cached extent map, and later rounds' faults land on data reads only.)
TEST(OsdFaultSweepTest, TransientReadBurstsOnColdFirstReadsAreAbsorbed) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  opts.pager_capacity_pages = 16;
  std::vector<ObjectId> oids;
  std::vector<std::string> payloads;
  {
    auto osd = MakeOsd(faulty, opts);
    ASSERT_NE(osd, nullptr);
    for (int i = 0; i < 24; i++) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      payloads.push_back("cold-payload-" + std::to_string(i) +
                         std::string(6000, static_cast<char>('a' + i % 26)));
      ASSERT_TRUE(osd->Write(*oid, 0, payloads.back()).ok());
      oids.push_back(*oid);
    }
    ASSERT_TRUE(osd->Close().ok());
  }
  // A fault-free round (after = -1) counts a cold round's device reads; the burst then
  // starts at each of them in turn.
  int64_t round_reads = 0;
  for (int64_t after = -1; after < round_reads; after++) {
    auto opened = Osd::Open(faulty, opts);
    ASSERT_TRUE(opened.ok()) << "after=" << after << ": " << opened.status().ToString();
    Osd* osd = opened->get();
    const uint64_t reads_before = faulty->reads_attempted();
    if (after >= 0) {
      faulty->SetReadFaults(after, /*fail_count=*/2);
    }
    std::string out;
    for (size_t i = 0; i < oids.size(); i++) {
      Status s = osd->Read(oids[i], 0, payloads[i].size(), &out);
      ASSERT_TRUE(s.ok()) << "after=" << after << " oid#" << i << ": " << s.ToString();
      ASSERT_EQ(out, payloads[i]) << "after=" << after;
    }
    faulty->SetReadFaults(-1, 0);
    if (after < 0) {
      round_reads = static_cast<int64_t>(faulty->reads_attempted() - reads_before);
      // Every object's extent-tree root page and its data, at least.
      ASSERT_GE(round_reads, 2 * static_cast<int64_t>(oids.size()));
    }
    EXPECT_EQ(osd->health_state(), HealthState::kHealthy) << "after=" << after;
    ASSERT_TRUE(osd->Close().ok());
  }
}

// ---------------------------------------------------------------- extent-map cache

// Reads all of `oid` into *out; true when the read was served from a cached extent map.
bool ReadWholeCounted(Osd* osd, ObjectId oid, std::string* out) {
  const uint64_t hits = stats::Get(stats::Counter::kExtentMapHits);
  Status s = osd->Read(oid, 0, 1 << 20, out);
  EXPECT_TRUE(s.ok()) << "oid " << oid << ": " << s.ToString();
  return stats::Get(stats::Counter::kExtentMapHits) > hits;
}

// The IO-count guard: once a small object has been read, reading it again makes one
// device read, its data, however cold its extent tree has gone. Checksums are on, so
// that read still verifies its pages; the volume is reopened with a 16-page cache,
// which reads of 64 other objects then cycle, so without the cached map the read would
// miss the extent tree's root page first.
TEST(ExtentMapCacheTest, WarmSmallObjectReadMakesOneDeviceRead) {
  auto counting = std::make_shared<FaultyBlockDevice>(std::make_shared<MemoryBlockDevice>(kDev));
  OsdOptions opts;
  opts.pager_capacity_pages = 16;
  ASSERT_TRUE(opts.page_checksums);
  const std::string body = "small object " + std::string(3000, 's');
  ObjectId target = 0;
  std::vector<ObjectId> others;
  {
    auto osd = MakeOsd(counting, opts);
    ASSERT_NE(osd, nullptr);
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    target = *oid;
    ASSERT_TRUE(osd->Write(target, 0, body).ok());
    for (int i = 0; i < 64; i++) {
      oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(osd->Write(*oid, 0, std::string(2000, static_cast<char>('a' + i % 26))).ok());
      others.push_back(*oid);
    }
    ASSERT_TRUE(osd->Close().ok());
  }
  auto opened = Osd::Open(counting, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Osd* osd = opened->get();
  std::string out;
  ASSERT_TRUE(osd->Read(target, 0, 4096, &out).ok());
  ASSERT_EQ(out, body);
  for (ObjectId oid : others) {  // 64 extent-tree root pages through 16 cache slots.
    ASSERT_TRUE(osd->Read(oid, 0, 4096, &out).ok());
  }
  const uint64_t before = counting->reads_attempted();
  ASSERT_TRUE(osd->Read(target, 0, 4096, &out).ok());
  EXPECT_EQ(counting->reads_attempted() - before, 1u);
  EXPECT_EQ(out, body);
}

// Random Write (overwrites and appends), Insert, RemoveRange, Truncate, SetAttributes
// and DeleteObject on a handful of small objects, each followed by reads checked
// against a string model: a stale cached map would return bytes of extents the op cut,
// moved or freed. Short appends push objects past four extents, where their maps are no
// longer cached, and cuts, truncates and deletes bring them back under; both crossings
// must happen.
TEST(ExtentMapCacheTest, ReadsMatchAModelAcrossTheFourExtentLine) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(osd, nullptr);
  Random rng(2027);
  std::map<ObjectId, std::string> model;
  std::map<ObjectId, bool> cached;  // Whether the object's last re-read was a hit.
  int grew_past = 0;
  int shrank_under = 0;
  for (int i = 0; i < 6; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    model[*oid] = "";
  }
  auto check = [&](ObjectId oid) {
    const std::string& m = model[oid];
    std::string out;
    ReadWholeCounted(osd.get(), oid, &out);  // Fills the map when the object is small.
    ASSERT_EQ(out, m) << "oid " << oid;
    const bool hit = ReadWholeCounted(osd.get(), oid, &out);
    ASSERT_EQ(out, m) << "oid " << oid;
    if (!m.empty()) {
      const uint64_t off = rng.Uniform(m.size());
      const uint64_t len = rng.Range(1, m.size() - off + 8);
      ASSERT_TRUE(osd->Read(oid, off, len, &out).ok());
      ASSERT_EQ(out, m.substr(off, len)) << "oid " << oid << " [" << off << ", +" << len << ")";
    }
    ASSERT_EQ(osd->Read(oid, m.size() + 1, 1, &out).code(), StatusCode::kOutOfRange);
    auto it = cached.find(oid);
    if (it != cached.end() && it->second != hit) {
      (hit ? shrank_under : grew_past)++;
    }
    cached[oid] = hit;
    Status s = osd->CheckObject(oid);
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  for (int op = 0; op < 1500; op++) {
    auto it = model.begin();
    std::advance(it, rng.Uniform(model.size()));
    const ObjectId oid = it->first;
    std::string& m = it->second;
    const uint64_t action = rng.Uniform(10);
    if (action < 3) {  // Write: an append two times in three, else an overwrite.
      const uint64_t off = rng.OneIn(3) ? rng.Uniform(m.size() + 1) : m.size();
      const std::string data = rng.NextString(rng.Range(1, 300));
      ASSERT_TRUE(osd->Write(oid, off, data).ok());
      m.resize(std::max<size_t>(m.size(), off + data.size()));
      m.replace(off, data.size(), data);
    } else if (action < 4) {
      const uint64_t off = rng.Uniform(m.size() + 1);
      const std::string data = rng.NextString(rng.Range(1, 100));
      ASSERT_TRUE(osd->Insert(oid, off, data).ok());
      m.insert(off, data);
    } else if (action < 5 && !m.empty()) {
      const uint64_t off = rng.Uniform(m.size());
      const uint64_t len = rng.Range(1, m.size() - off);
      ASSERT_TRUE(osd->RemoveRange(oid, off, len).ok());
      m.erase(off, len);
    } else if (action < 6) {  // Truncate: shrinks, and zero-filling grows.
      const uint64_t new_size = rng.Uniform(m.size() + 64);
      ASSERT_TRUE(osd->Truncate(oid, new_size).ok());
      m.resize(new_size, '\0');
    } else if (action < 7) {
      ASSERT_TRUE(osd->SetAttributes(oid, 0640, static_cast<uint32_t>(op), 7).ok());
    } else if (action < 8 && rng.OneIn(4)) {  // Delete, and a fresh object in its place.
      ASSERT_TRUE(osd->DeleteObject(oid).ok());
      std::string out;
      ASSERT_TRUE(osd->Read(oid, 0, 1, &out).IsNotFound());
      model.erase(it);
      cached.erase(oid);
      auto fresh = osd->CreateObject();
      ASSERT_TRUE(fresh.ok());
      model[*fresh] = "";
      continue;
    }
    check(oid);
  }
  EXPECT_GT(grew_past, 0);
  EXPECT_GT(shrank_under, 0);
}

// Recovery reads objects partway through their history: an object's content-index record
// replays between its Write and a later Insert and reads the object as the Write left
// it. After the power cut and reopen, reads return the object as the Insert left it, and
// fsck, which compares every cached map with its tree, is clean.
TEST(ExtentMapCacheTest, ContentReplayBetweenAWriteAndAnInsertReadsTheModel) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  ObjectId oid = 0;
  std::string model = "replayed bytes of one small object";
  {
    auto fs = core::FileSystem::Create(faulty);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    auto created = (*fs)->Create();
    ASSERT_TRUE(created.ok());
    oid = *created;
    ASSERT_TRUE((*fs)->Write(oid, 0, model).ok());
    ASSERT_TRUE((*fs)->IndexContent(oid).ok());
    std::string out;
    ASSERT_TRUE((*fs)->Read(oid, 0, 4096, &out).ok());  // A live map, dropped below.
    ASSERT_TRUE((*fs)->Insert(oid, 9, "<inserted> ").ok());
    model.insert(9, "<inserted> ");
    ASSERT_TRUE((*fs)->Sync().ok());
    faulty->SetWriteBudget(0);  // Power cut: the journal holds all three records.
  }
  auto fs = core::FileSystem::Open(base);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  for (int i = 0; i < 2; i++) {  // The second read is served from the cached map.
    std::string out;
    ASSERT_TRUE((*fs)->Read(oid, 0, 4096, &out).ok());
    EXPECT_EQ(out, model);
  }
  auto hits = (*fs)->Lookup({{"FULLTEXT", "replayed"}});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, std::vector<ObjectId>{oid});
  auto report = core::CheckFileSystem(fs->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->problems.empty()) << report->problems.front();
}

// Readers race mutators on the same small objects. Every object is a run of 8-byte
// tokens, and every mutation keeps it one (token-aligned appends, overwrites, inserts,
// cuts and shrinks), so any read a stale map served would show as a misaligned size or a
// broken token. One mutator owns each object, so its final bytes are known exactly.
TEST(ExtentMapCacheTest, ReadersRaceMutatorsOnSmallObjects) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(osd, nullptr);
  constexpr int kMutators = 2;
  constexpr int kObjectsPerMutator = 3;
  constexpr int kReaders = 3;
  constexpr int kOps = 300;
  constexpr size_t kToken = 8;
  std::vector<ObjectId> oids;
  for (int i = 0; i < kMutators * kObjectsPerMutator; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  auto token = [](int m, int op) {  // "<m" + op in five digits + ">".
    const std::string digits = std::to_string(op % 100000);
    return "<" + std::to_string(m) + std::string(5 - digits.size(), '0') + digits + ">";
  };
  std::vector<std::map<ObjectId, std::string>> models(kMutators);
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int m = 0; m < kMutators; m++) {
    threads.emplace_back([&, m] {
      Random rng(100 + m);
      std::map<ObjectId, std::string>& model = models[m];
      for (int i = 0; i < kObjectsPerMutator; i++) {
        model[oids[m * kObjectsPerMutator + i]] = "";
      }
      for (int op = 0; op < kOps; op++) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        const ObjectId oid = it->first;
        std::string& s = it->second;
        const uint64_t tokens = s.size() / kToken;
        const std::string t = token(m, op);
        const uint64_t action = rng.Uniform(5);
        if (tokens >= 10) {  // Shrink back under the line.
          ASSERT_TRUE(osd->Truncate(oid, 2 * kToken).ok());
          s.resize(2 * kToken);
        } else if (action == 0 || tokens == 0) {
          ASSERT_TRUE(osd->Write(oid, s.size(), t).ok());
          s += t;
        } else if (action == 1) {
          const uint64_t at = rng.Uniform(tokens) * kToken;
          ASSERT_TRUE(osd->Write(oid, at, t).ok());
          s.replace(at, kToken, t);
        } else if (action == 2) {
          const uint64_t at = rng.Uniform(tokens + 1) * kToken;
          ASSERT_TRUE(osd->Insert(oid, at, t).ok());
          s.insert(at, t);
        } else {
          const uint64_t at = rng.Uniform(tokens) * kToken;
          ASSERT_TRUE(osd->RemoveRange(oid, at, kToken).ok());
          s.erase(at, kToken);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(200 + r);
      while (!done.load()) {
        const ObjectId oid = oids[rng.Uniform(oids.size())];
        std::string out;
        if (r == 0 && rng.OneIn(8)) {
          Status s = osd->CheckObject(oid);
          ASSERT_TRUE(s.ok()) << s.ToString();
          continue;
        }
        ASSERT_TRUE(osd->Read(oid, 0, 1 << 16, &out).ok());
        bool well_formed = out.size() % kToken == 0;
        for (size_t at = 0; well_formed && at < out.size(); at += kToken) {
          well_formed = out[at] == '<' && out[at + kToken - 1] == '>';
        }
        if (!well_formed) {
          bad_reads++;
        }
      }
    });
  }
  for (int m = 0; m < kMutators; m++) {
    threads[m].join();
  }
  done.store(true);
  for (size_t i = kMutators; i < threads.size(); i++) {
    threads[i].join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  for (const auto& model : models) {
    for (const auto& [oid, want] : model) {
      std::string out;
      ASSERT_TRUE(osd->Read(oid, 0, 1 << 16, &out).ok());
      EXPECT_EQ(out, want) << "oid " << oid;
      Status s = osd->CheckObject(oid);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
}

// ---------------------------------------------------------------- resident payload pages

// Readers race mutators on multi-extent objects whose edits free blocks that later edits
// re-use: inserts carry tails into fresh extents and cut the old ones short, cuts and
// truncates free whole extents, and deletes free every extent of an object that a fresh
// one replaces. Each slot's object is a run of 8-byte tokens naming the slot, so a read
// served from a page another extent left resident would show a foreign or broken token.
// One mutator owns each slot, so its final bytes are known exactly.
TEST(ResidentPageTest, ReadersRaceMutatorsThatFreeAndReuseBlocks) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(osd, nullptr);
  constexpr int kMutators = 2;
  constexpr int kSlotsPerMutator = 3;
  constexpr int kReaders = 3;
  constexpr int kOps = 200;
  constexpr size_t kToken = 8;
  constexpr size_t kMaxTokens = 3000;  // About 24 KiB: several extents, several pages each.
  std::vector<std::atomic<ObjectId>> slots(kMutators * kSlotsPerMutator);
  for (auto& slot : slots) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    slot.store(*oid);
  }
  auto tokens = [](size_t slot, int op, uint64_t n) {  // n x "<" slot letter, 5 digits ">".
    const std::string digits = std::to_string(op % 100000);
    const std::string one = "<" + std::string(1, static_cast<char>('a' + slot)) +
                            std::string(5 - digits.size(), '0') + digits + ">";
    std::string out;
    for (uint64_t i = 0; i < n; i++) {
      out += one;
    }
    return out;
  };
  const uint64_t freed = stats::Get(stats::Counter::kExtentsFreed);
  std::vector<std::vector<std::string>> models(kMutators,
                                               std::vector<std::string>(kSlotsPerMutator));
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int m = 0; m < kMutators; m++) {
    threads.emplace_back([&, m] {
      Random rng(300 + m);
      for (int op = 0; op < kOps; op++) {
        const size_t i = rng.Uniform(kSlotsPerMutator);
        const size_t slot = m * kSlotsPerMutator + i;
        const ObjectId oid = slots[slot].load();
        std::string& s = models[m][i];
        const uint64_t n = s.size() / kToken;
        const uint64_t action = rng.Uniform(8);
        if (n > kMaxTokens || (action == 0 && n > 0)) {  // Truncate, freeing extents.
          const uint64_t keep = rng.Uniform(std::min<uint64_t>(n, kMaxTokens / 2));
          ASSERT_TRUE(osd->Truncate(oid, keep * kToken).ok());
          s.resize(keep * kToken);
        } else if (action == 1 && rng.OneIn(3)) {  // Delete; a fresh object takes the slot.
          ASSERT_TRUE(osd->DeleteObject(oid).ok());
          auto fresh = osd->CreateObject();
          ASSERT_TRUE(fresh.ok());
          slots[slot].store(*fresh);
          s.clear();
        } else if (action < 5 || n == 0) {  // Insert several pages' worth anywhere.
          const uint64_t at = rng.Uniform(n + 1) * kToken;
          const std::string run = tokens(slot, op, rng.Range(1, 1200));
          ASSERT_TRUE(osd->Insert(oid, at, run).ok());
          s.insert(at, run);
        } else {  // Cut a range out of the middle.
          const uint64_t at = rng.Uniform(n);
          const uint64_t len = rng.Range(1, n - at);
          ASSERT_TRUE(osd->RemoveRange(oid, at * kToken, len * kToken).ok());
          s.erase(at * kToken, len * kToken);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(400 + r);
      while (!done.load()) {
        const size_t slot = rng.Uniform(slots.size());
        std::string out;
        Status s = osd->Read(slots[slot].load(), 0, 1 << 20, &out);
        if (s.IsNotFound()) {
          continue;  // Deleted between the load and the read.
        }
        ASSERT_TRUE(s.ok()) << s.ToString();
        bool well_formed = out.size() % kToken == 0;
        for (size_t at = 0; well_formed && at < out.size(); at += kToken) {
          well_formed = out[at] == '<' && out[at + 1] == static_cast<char>('a' + slot) &&
                        out[at + kToken - 1] == '>';
        }
        if (!well_formed) {
          bad_reads++;
        }
      }
    });
  }
  for (int m = 0; m < kMutators; m++) {
    threads[m].join();
  }
  done.store(true);
  for (size_t i = kMutators; i < threads.size(); i++) {
    threads[i].join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(stats::Get(stats::Counter::kExtentsFreed), freed);
  for (int m = 0; m < kMutators; m++) {
    for (int i = 0; i < kSlotsPerMutator; i++) {
      const ObjectId oid = slots[m * kSlotsPerMutator + i].load();
      std::string out;
      ASSERT_TRUE(osd->Read(oid, 0, 1 << 20, &out).ok());
      EXPECT_EQ(out, models[m][i]) << "oid " << oid;
      Status s = osd->CheckObject(oid);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
}

}  // namespace
}  // namespace osd
}  // namespace hfad
