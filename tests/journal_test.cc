// Unit and failure-injection tests for the write-ahead journal.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/journal/journal.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace journal {
namespace {

constexpr uint64_t kRegion = 256 * 1024;

using Records = std::vector<std::pair<uint64_t, std::string>>;

Records RecoverAll(Journal* j, uint64_t* count = nullptr) {
  Records out;
  auto n = j->Recover([&](uint64_t seq, Slice payload) {
    out.emplace_back(seq, payload.ToString());
  });
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  if (count != nullptr) {
    *count = n.ok() ? *n : 0;
  }
  return out;
}

// Bound on every wait for the commit chain to reach a state, so a chain that never gets
// there fails the test instead of hanging it.
constexpr auto kParkWait = std::chrono::seconds(5);

// Waits up to kParkWait for `done` to hold.
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + kParkWait;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(JournalTest, EmptyLogRecoversNothing) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  Records r = RecoverAll(&j);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(j.next_sequence(), 1u);
}

void CommitTwoRecords(BlockDevice* dev) {
  Journal j(dev, 0, kRegion);
  auto s1 = j.Append("first record");
  auto s2 = j.Append("second record");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, 1u);
  EXPECT_EQ(*s2, 2u);
  ASSERT_TRUE(j.Commit().ok());
}

void ExpectTwoRecordsRecovered(BlockDevice* dev) {
  Journal j(dev, 0, kRegion);
  Records r = RecoverAll(&j);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (std::pair<uint64_t, std::string>{1, "first record"}));
  EXPECT_EQ(r[1], (std::pair<uint64_t, std::string>{2, "second record"}));
  EXPECT_EQ(j.next_sequence(), 3u);
}

TEST(JournalTest, AppendCommitRecover) {
  {
    SCOPED_TRACE("memory device");
    MemoryBlockDevice dev(kRegion);
    CommitTwoRecords(&dev);
    ExpectTwoRecordsRecovered(&dev);
  }
  SCOPED_TRACE("file device");
  const std::string path =
      (std::filesystem::temp_directory_path() / "hfad_journal_test_append_commit_recover")
          .string();
  std::filesystem::remove(path);
  {
    auto dev = FileBlockDevice::Open(path, kRegion);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    CommitTwoRecords(dev->get());
  }
  // The commit chain wrote and synced through the file's fd; a freshly opened device
  // sees only what reached the file.
  auto dev = FileBlockDevice::Open(path, kRegion);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  ExpectTwoRecordsRecovered(dev->get());
  std::filesystem::remove(path);
}

TEST(JournalTest, UncommittedRecordsAreNotDurable) {
  MemoryBlockDevice dev(kRegion);
  {
    Journal j(&dev, 0, kRegion);
    ASSERT_TRUE(j.Append("committed").ok());
    ASSERT_TRUE(j.Commit().ok());
    ASSERT_TRUE(j.Append("lost in crash").ok());
    EXPECT_EQ(j.pending_records(), 1u);
    // No commit: simulated crash.
  }
  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "committed");
}

TEST(JournalTest, GroupCommitBatchesPending) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(j.Append("record " + std::to_string(i)).ok());
  }
  uint64_t writes_before = dev.writes_attempted();
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(dev.writes_attempted(), writes_before + 1);  // One write for 100 records.
  EXPECT_EQ(j.pending_records(), 0u);
}

TEST(JournalTest, CommitIsNoOpWithNothingPending) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  uint64_t before = dev.writes_attempted();
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(dev.writes_attempted(), before);
}

TEST(JournalTest, EmptyPayloadIsValid) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  ASSERT_TRUE(j.Append("").ok());
  ASSERT_TRUE(j.Commit().ok());
  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].second.empty());
}

TEST(JournalTest, BinaryPayloadSurvives) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  std::string payload;
  for (int i = 0; i < 256; i++) {
    payload.push_back(static_cast<char>(i));
  }
  ASSERT_TRUE(j.Append(payload).ok());
  ASSERT_TRUE(j.Commit().ok());
  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, payload);
}

TEST(JournalTest, NoSpaceWhenRegionFull) {
  MemoryBlockDevice dev(8192);
  Journal j(&dev, 0, 8192);
  std::string big(4080, 'x');  // One record: 16 + 4080 = 4096 bytes.
  ASSERT_TRUE(j.Append(big).ok());
  ASSERT_TRUE(j.Append(big).status().IsNoSpace());
  // Small records still fit in the remainder.
  ASSERT_TRUE(j.Append("small").ok());
}

TEST(JournalTest, ResetEmptiesTheLog) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  ASSERT_TRUE(j.Append("before checkpoint").ok());
  ASSERT_TRUE(j.Commit().ok());
  ASSERT_TRUE(j.Reset().ok());
  EXPECT_EQ(j.committed_bytes(), 0u);
  // Sequence numbering continues across the reset.
  auto s = j.Append("after checkpoint");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, 2u);
  ASSERT_TRUE(j.Commit().ok());

  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "after checkpoint");
  EXPECT_EQ(r[0].first, 2u);
}

TEST(JournalTest, RecoveryStopsAtStaleGenerationRecords) {
  // Reset() only zeroes one header; stale records from a longer previous log generation
  // remain beyond the new tail. The sequence-continuity check must reject them.
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  ASSERT_TRUE(j.Append("old-1").ok());
  ASSERT_TRUE(j.Append("old-2").ok());
  ASSERT_TRUE(j.Append("old-3").ok());
  ASSERT_TRUE(j.Commit().ok());
  ASSERT_TRUE(j.Reset().ok());
  ASSERT_TRUE(j.Append("new-4").ok());  // Sequence 4.
  ASSERT_TRUE(j.Commit().ok());

  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  // Recovery sees new-4 (seq 4) then old-2 (seq 2) — discontinuous, so it stops.
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "new-4");
}

TEST(JournalTest, TornFinalRecordIsDiscarded) {
  test::RunTornWriteCrash(
      kRegion, /*budget=*/0,
      [&](const std::shared_ptr<FaultyBlockDevice>& dev, test::CrashPoint* point) {
        Journal j(dev.get(), 0, kRegion);
        ASSERT_TRUE(j.Append("intact record").ok());
        ASSERT_TRUE(j.Commit().ok());
        // Second commit is torn mid-write.
        ASSERT_TRUE(j.Append(std::string(1000, 'T')).ok());
        point->Tear();
        EXPECT_FALSE(j.Commit().ok());
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        Journal j2(base.get(), 0, kRegion);
        Records r = RecoverAll(&j2);
        ASSERT_EQ(r.size(), 1u);
        EXPECT_EQ(r[0].second, "intact record");
        // The journal is positioned to append after the intact record; new appends
        // work.
        ASSERT_TRUE(j2.Append("after recovery").ok());
        ASSERT_TRUE(j2.Commit().ok());
        Journal j3(base.get(), 0, kRegion);
        Records r3 = RecoverAll(&j3);
        ASSERT_EQ(r3.size(), 2u);
        EXPECT_EQ(r3[1].second, "after recovery");
      });
}

TEST(JournalTest, CorruptMiddleRecordTruncatesRecovery) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  ASSERT_TRUE(j.Append("one").ok());
  ASSERT_TRUE(j.Append("two").ok());
  ASSERT_TRUE(j.Append("three").ok());
  ASSERT_TRUE(j.Commit().ok());
  // Flip a byte in the second record's payload.
  uint64_t second_payload_off = (16 + 3) + 16;
  std::string b;
  ASSERT_TRUE(dev.Read(second_payload_off, 1, &b).ok());
  b[0] ^= 0x40;
  ASSERT_TRUE(dev.Write(second_payload_off, Slice(b)).ok());

  Journal j2(&dev, 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "one");
}

TEST(JournalTest, FailedCommitKeepsRecordsPending) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  ASSERT_TRUE(j.Append("retry me").ok());
  dev.SetWriteBudget(0);
  EXPECT_FALSE(j.Commit().ok());
  EXPECT_EQ(j.pending_records(), 1u);
  dev.SetWriteBudget(-1);
  ASSERT_TRUE(j.Commit().ok());
  Journal j2(base.get(), 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "retry me");
}

TEST(JournalTest, RegionOffsetIsRespected) {
  MemoryBlockDevice dev(kRegion);
  constexpr uint64_t kOff = 64 * 1024;
  Journal j(&dev, kOff, 64 * 1024);
  ASSERT_TRUE(j.Append("at offset").ok());
  ASSERT_TRUE(j.Commit().ok());
  // Nothing before the region was touched.
  std::string head;
  ASSERT_TRUE(dev.Read(0, 1024, &head).ok());
  EXPECT_EQ(head, std::string(1024, '\0'));
  Journal j2(&dev, kOff, 64 * 1024);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].second, "at offset");
}

TEST(JournalTest, SequencesContinueAfterRecovery) {
  MemoryBlockDevice dev(kRegion);
  {
    Journal j(&dev, 0, kRegion, 100);
    ASSERT_TRUE(j.Append("a").ok());
    auto s = j.Append("b");
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, 101u);
    ASSERT_TRUE(j.Commit().ok());
  }
  Journal j2(&dev, 0, kRegion);
  RecoverAll(&j2);
  EXPECT_EQ(j2.next_sequence(), 102u);
}

// ---- Group commit: the completion chain ----

// Park the device inside the first chain link's sync and append two followers' records
// meanwhile. The first follower's commit starts link 2 at once, because link 1's write
// has landed, so link 2's sync parks beside link 1's; the second follower rides link 2.
// Two syncs cover the three records, and fsync cost amortizes across the window.
TEST(JournalGroupCommitTest, FollowersShareOneSyncPerWindow) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  // Declared before the journal, so a sync or callback its teardown still runs finds
  // them.
  test::SyncGate gate;
  gate.Install(&dev);
  std::atomic<bool> second_fired{false};
  Status second_status;
  Journal j(&dev, 0, kRegion);

  ASSERT_TRUE(j.Append("window-1 record").ok());
  Status leader_status;
  std::thread leader([&] { leader_status = j.Commit(); });
  const bool leader_parked = gate.WaitParked(1, kParkWait);
  // Both appends complete while the first sync is parked: appenders never wait behind
  // an in-flight fsync.
  ASSERT_TRUE(j.Append("window-2 record a").ok());
  auto b = j.Append("window-2 record b");
  ASSERT_TRUE(b.ok());
  Status first_status;
  std::thread first([&] { first_status = j.Commit(); });
  const bool both_parked = gate.WaitParked(2, kParkWait);
  const uint64_t submitted_while_parked = j.io_engine()->submitted();
  j.CommitAsync(*b, [&](Status s) {
    second_status = s;
    second_fired.store(true);
  });
  // The second follower drained nothing: link 2 already holds its record.
  EXPECT_FALSE(second_fired.load());
  EXPECT_EQ(j.io_engine()->submitted(), submitted_while_parked);
  EXPECT_EQ(j.committed_sequence(), 0u);
  gate.ReleaseAll();
  leader.join();
  first.join();
  ASSERT_TRUE(WaitUntil([&] { return second_fired.load(); }));

  EXPECT_TRUE(leader_parked);
  EXPECT_TRUE(both_parked) << "link 2 never synced while link 1's sync was parked";
  EXPECT_TRUE(leader_status.ok()) << leader_status.ToString();
  EXPECT_TRUE(first_status.ok()) << first_status.ToString();
  EXPECT_TRUE(second_status.ok()) << second_status.ToString();
  EXPECT_EQ(j.committed_sequence(), 3u);
  EXPECT_EQ(j.pending_records(), 0u);
  // Exactly two batch syncs: the parked link's window, then ONE link that drained both
  // followers' records.
  EXPECT_EQ(dev.syncs_attempted(), 2u);

  Journal j2(base.get(), 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].second, "window-1 record");
  EXPECT_EQ(r[1].second, "window-2 record a");
  EXPECT_EQ(r[2].second, "window-2 record b");

  // A write and a sync per link, and one write at a time: link 2's write ran while
  // link 1's sync was parked, then the two syncs, so the depth peaks at two requests.
  EXPECT_EQ(j.io_engine()->submitted(), 4u);
  EXPECT_EQ(j.io_engine()->max_queue_depth(), 2u);
}

// With link 1's sync parked, a commit of a later record drains link 2 and its sync
// reaches the device, so two syncs are parked at once. Link 2's sync returning first
// retires nothing: links retire in order, so its waiter stays blocked and the watermark
// stays put until link 1 lands.
TEST(JournalGroupCommitTest, NextLinkSyncsWhileThePreviousSyncIsParked) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  // Declared before the journal, so a sync its teardown still runs finds the gate.
  test::SyncGate gate;
  gate.Install(&dev);
  Journal j(&dev, 0, kRegion);

  ASSERT_TRUE(j.Append("link 1").ok());
  Status first_status;
  std::thread first([&] { first_status = j.Commit(); });
  EXPECT_TRUE(gate.WaitParked(1, kParkWait));
  ASSERT_TRUE(j.Append("link 2").ok());
  Status second_status;
  std::atomic<bool> second_returned{false};
  std::thread second([&] {
    second_status = j.Commit();
    second_returned.store(true);
  });
  const bool overlapped = gate.WaitParked(2, kParkWait);
  if (overlapped) {
    gate.Release(2);  // Link 2's sync returns; link 1's stays parked.
    EXPECT_TRUE(gate.WaitLeft(2, kParkWait));
    // Both writes and link 2's sync have completed.
    EXPECT_TRUE(WaitUntil([&] { return j.io_engine()->completed() >= 3; }));
    for (int i = 0; i < 20; i++) {
      EXPECT_EQ(j.committed_sequence(), 0u);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(second_returned.load());
    EXPECT_EQ(j.pending_records(), 2u);
  }
  gate.ReleaseAll();
  first.join();
  second.join();
  EXPECT_TRUE(overlapped) << "link 2's sync never reached the device while link 1's "
                             "sync was parked";
  EXPECT_TRUE(first_status.ok()) << first_status.ToString();
  EXPECT_TRUE(second_status.ok()) << second_status.ToString();
  EXPECT_EQ(j.committed_sequence(), 2u);
  EXPECT_EQ(dev.syncs_attempted(), 2u);
}

// The acceptance-criterion test: Append must complete while a slow device Sync is in
// flight, because the journal lock is never held across the chain's device IO.
TEST(JournalGroupCommitTest, AppendNeverBlocksOnInFlightSync) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);

  std::atomic<bool> in_sync{false};
  std::atomic<bool> release{false};
  dev.SetSyncHook([&] {
    in_sync.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });

  ASSERT_TRUE(j.Append("synced record").ok());
  std::thread committer([&] { EXPECT_TRUE(j.Commit().ok()); });
  while (!in_sync.load()) {
    std::this_thread::yield();
  }
  // 100 appends land while the fsync is parked. If Append needed a lock held across
  // Sync, this loop would deadlock (the hook never releases by itself).
  for (int i = 0; i < 100; i++) {
    auto seq = j.Append("unblocked append " + std::to_string(i));
    ASSERT_TRUE(seq.ok());
  }
  EXPECT_FALSE(release.load());  // The sync really was still parked throughout.
  EXPECT_EQ(j.pending_records(), 101u);  // 100 new + the in-flight (not yet durable) one.
  release.store(true);
  committer.join();
  EXPECT_EQ(j.committed_sequence(), 1u);  // Only the drained window is durable.
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(j.committed_sequence(), 101u);
}

TEST(JournalGroupCommitTest, CommittedSequenceWatermark) {
  MemoryBlockDevice dev(kRegion);
  Journal j(&dev, 0, kRegion);
  EXPECT_EQ(j.committed_sequence(), 0u);
  ASSERT_TRUE(j.Append("a").ok());
  ASSERT_TRUE(j.Append("b").ok());
  // CommitThrough(1) may (and here does) cover more: one batch drains all pending.
  ASSERT_TRUE(j.CommitThrough(1).ok());
  EXPECT_EQ(j.committed_sequence(), 2u);
  // Covered and beyond-appended targets return without further device work.
  auto base_syncless = j.committed_sequence();
  ASSERT_TRUE(j.CommitThrough(2).ok());
  ASSERT_TRUE(j.CommitThrough(999).ok());
  EXPECT_EQ(j.committed_sequence(), base_syncless);
  // Reset keeps pre-reset sequences covered (they are checkpoint-durable).
  ASSERT_TRUE(j.Reset().ok());
  EXPECT_EQ(j.committed_sequence(), 2u);
  ASSERT_TRUE(j.Append("c").ok());  // Sequence 3.
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(j.committed_sequence(), 3u);
}

// ---- CommitAsync: one waiter list for blocking and async callers ----

TEST(JournalCommitAsyncTest, CoveredTargetFiresBeforeReturning) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  auto expect_inline_ok = [&](uint64_t sequence) {
    bool fired = false;
    Status got = Status::IoError("not fired");
    j.CommitAsync(sequence, [&](Status s) {
      fired = true;
      got = s;
    });
    EXPECT_TRUE(fired) << "sequence " << sequence;
    EXPECT_TRUE(got.ok()) << got.ToString();
  };
  expect_inline_ok(~uint64_t{0});  // Nothing appended yet: trivially covered.
  auto seq = j.Append("durable");
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(j.Commit().ok());
  const uint64_t syncs = dev.syncs_attempted();
  expect_inline_ok(*seq);
  expect_inline_ok(~uint64_t{0});  // Clamped to the highest appended, also covered.
  EXPECT_EQ(dev.syncs_attempted(), syncs);  // No device work for covered targets.
}

// While the first link's sync is parked, one blocking Commit() and two CommitAsync
// waiters register for later records. All three resolve Ok from ONE further link.
TEST(JournalCommitAsyncTest, BlockingAndAsyncWaitersShareOneLink) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  std::atomic<bool> in_sync{false};
  std::atomic<bool> release{false};
  dev.SetSyncHook([&] {
    in_sync.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });

  ASSERT_TRUE(j.Append("first window").ok());
  std::thread first([&] { EXPECT_TRUE(j.Commit().ok()); });
  while (!in_sync.load()) {
    std::this_thread::yield();
  }
  auto b = j.Append("second window b");
  auto c = j.Append("second window c");
  ASSERT_TRUE(b.ok() && c.ok());
  std::atomic<int> async_ok{0};
  std::atomic<int> async_fired{0};
  auto on_done = [&](Status s) {
    if (s.ok()) async_ok.fetch_add(1);
    async_fired.fetch_add(1);
  };
  j.CommitAsync(*b, on_done);
  j.CommitAsync(*c, on_done);
  EXPECT_EQ(async_fired.load(), 0);  // Parked behind the in-flight link.
  std::thread blocking([&] { EXPECT_TRUE(j.Commit().ok()); });
  release.store(true);
  first.join();
  blocking.join();
  while (async_fired.load() < 2) {
    std::this_thread::yield();
  }
  EXPECT_EQ(async_ok.load(), 2);
  EXPECT_EQ(j.committed_sequence(), *c);
  EXPECT_EQ(dev.syncs_attempted(), 2u);
}

// A link that fails hands its error to every waiter on it, blocking and async alike,
// and its records stay pending; the next Commit() makes each durable exactly once.
TEST(JournalCommitAsyncTest, FailedLinkFailsEveryWaiterAndKeepsRecords) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  Journal j(&dev, 0, kRegion);
  std::atomic<bool> in_sync{false};
  std::atomic<bool> release{false};
  dev.SetSyncHook([&] {
    in_sync.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });

  ASSERT_TRUE(j.Append("record a").ok());
  std::thread blocking([&] { EXPECT_FALSE(j.Commit().ok()); });
  while (!in_sync.load()) {
    std::this_thread::yield();
  }
  auto b = j.Append("record b");
  ASSERT_TRUE(b.ok());
  std::atomic<bool> async_fired{false};
  Status async_status;
  j.CommitAsync(*b, [&](Status s) {
    async_status = s;
    async_fired.store(true);
  });
  dev.SetWriteBudget(0);  // The parked sync now fails.
  release.store(true);
  blocking.join();
  while (!async_fired.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(async_status.ok());
  EXPECT_EQ(j.committed_sequence(), 0u);
  EXPECT_EQ(j.pending_records(), 2u);

  dev.SetWriteBudget(-1);
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(j.pending_records(), 0u);
  Journal j2(base.get(), 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (std::pair<uint64_t, std::string>{1, "record a"}));
  EXPECT_EQ(r[1], (std::pair<uint64_t, std::string>{2, "record b"}));
}

// Link 1's sync fails while link 2 is in flight. Link 2 cannot retire past it: once link 2
// lands too, both batches go back to pending in sequence order and both waiters get the
// error, although link 2's own sync succeeded. The next Commit rewrites both records
// where they were, and recovery returns each once, in order.
TEST(JournalTest, FailedOlderLinkFailsTheNewerOneAndRewritesInOrder) {
  auto base = std::make_shared<MemoryBlockDevice>(kRegion);
  FaultyBlockDevice dev(base);
  // Declared before the journal, so a sync its teardown still runs finds the gate.
  test::SyncGate gate;
  gate.Install(&dev);
  Journal j(&dev, 0, kRegion);

  ASSERT_TRUE(j.Append("record 1").ok());
  Status first_status;
  std::atomic<bool> first_returned{false};
  std::thread first([&] {
    first_status = j.Commit();
    first_returned.store(true);
  });
  EXPECT_TRUE(gate.WaitParked(1, kParkWait));
  ASSERT_TRUE(j.Append("record 2").ok());
  Status second_status;
  std::thread second([&] { second_status = j.Commit(); });
  const bool overlapped = gate.WaitParked(2, kParkWait);
  dev.SetWriteBudget(0);  // The parked syncs now fail.
  if (overlapped) {
    gate.Release(1);  // Link 1's sync fails; link 2's stays parked.
    EXPECT_TRUE(gate.WaitLeft(1, kParkWait));
    EXPECT_TRUE(WaitUntil([&] { return j.io_engine()->completed() >= 3; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Link 2 is still in flight, so nobody has heard of the failure yet.
    EXPECT_FALSE(first_returned.load());
    dev.SetWriteBudget(-1);  // Link 2's sync succeeds.
  }
  gate.ReleaseAll();
  first.join();
  second.join();
  EXPECT_TRUE(overlapped) << "link 2 never synced while link 1's sync was parked";
  EXPECT_TRUE(first_status.IsIoError()) << first_status.ToString();
  EXPECT_TRUE(second_status.IsIoError()) << second_status.ToString();
  EXPECT_EQ(j.committed_sequence(), 0u);
  EXPECT_EQ(j.pending_records(), 2u);

  dev.SetWriteBudget(-1);
  ASSERT_TRUE(j.Commit().ok());
  EXPECT_EQ(j.pending_records(), 0u);
  EXPECT_EQ(j.committed_sequence(), 2u);
  Journal j2(base.get(), 0, kRegion);
  Records r = RecoverAll(&j2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (std::pair<uint64_t, std::string>{1, "record 1"}));
  EXPECT_EQ(r[1], (std::pair<uint64_t, std::string>{2, "record 2"}));
}

// Tear sweep across two overlapping links. Link 2 drains once link 1's write lands, and
// link 1's sync is held until link 2's write has been attempted, so the budget moves the
// tear across both writes, the syncs after them and a third link. At every budget the
// reopened journal is a prefix of the appended records that holds every acknowledged one.
class JournalOverlapTearTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(JournalOverlapTearTest, TornOverlappingLinksRecoverAnAcknowledgedPrefix) {
  const std::vector<std::string> payloads = {"acked 1", "acked 2", std::string(700, 'x'),
                                             std::string(900, 'y'), "z"};
  size_t acked = 0;
  bool overlapped = false;
  test::RunTornWriteCrash(
      kRegion, GetParam(),
      [&](const std::shared_ptr<FaultyBlockDevice>& dev, test::CrashPoint* point) {
        // Declared before the journal, so a sync or callback its teardown still runs
        // finds them.
        uint64_t writes_before = 0;
        std::atomic<int> syncs{0};
        std::atomic<bool> saw_second_write{false};
        std::atomic<int> fired{0};
        Status link_status[2];
        Journal j(dev.get(), 0, kRegion);
        for (size_t i = 0; i < 2; i++) {
          ASSERT_TRUE(j.Append(payloads[i]).ok());
          ASSERT_TRUE(j.Commit().ok());
        }
        acked = 2;
        point->Tear();
        writes_before = dev->writes_attempted();
        dev->SetSyncHook([&] {
          if (syncs.fetch_add(1) > 0) {
            return;  // Only the first sync, link 1's, waits.
          }
          WaitUntil([&] { return dev->writes_attempted() >= writes_before + 2; });
          saw_second_write.store(dev->writes_attempted() >= writes_before + 2);
        });
        for (int k = 0; k < 2; k++) {
          auto seq = j.Append(payloads[2 + k]);
          ASSERT_TRUE(seq.ok());
          j.CommitAsync(*seq, [&, k](Status s) {
            link_status[k] = std::move(s);
            fired.fetch_add(1);
          });
        }
        ASSERT_TRUE(WaitUntil([&] { return fired.load() == 2; }));
        // Acknowledgement order is record order.
        EXPECT_TRUE(link_status[0].ok() || !link_status[1].ok());
        if (link_status[0].ok()) acked = 3;
        if (link_status[1].ok()) acked = 4;
        ASSERT_TRUE(j.Append(payloads[4]).ok());
        if (j.Commit().ok()) {
          EXPECT_EQ(acked, 4u);
          acked = 5;
        }
        overlapped = saw_second_write.load();
        dev->SetSyncHook(nullptr);
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        Journal j2(base.get(), 0, kRegion);
        Records r = RecoverAll(&j2);
        ASSERT_GE(r.size(), acked);
        ASSERT_LE(r.size(), payloads.size());
        for (size_t i = 0; i < r.size(); i++) {
          EXPECT_EQ(r[i], (std::pair<uint64_t, std::string>{i + 1, payloads[i]}))
              << "record " << i;
        }
      });
  if (GetParam() >= 1) {
    // Link 1's write landed, so its sync met link 2's write.
    EXPECT_TRUE(overlapped);
  }
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWrite, JournalOverlapTearTest,
                         ::testing::Range<int64_t>(0, 5));

// A torn commit never advances the watermark, and recovery replays exactly the covered
// records plus at most a durable prefix of the torn batch — never a torn suffix.
TEST(JournalTest, WatermarkNeverIncludesATornSuffix) {
  test::RunTornWriteCrash(
      kRegion, /*budget=*/0,
      [&](const std::shared_ptr<FaultyBlockDevice>& dev, test::CrashPoint* point) {
        Journal j(dev.get(), 0, kRegion);
        ASSERT_TRUE(j.Append("covered 1").ok());
        ASSERT_TRUE(j.Append("covered 2").ok());
        ASSERT_TRUE(j.Append("covered 3").ok());
        ASSERT_TRUE(j.Commit().ok());
        EXPECT_EQ(j.committed_sequence(), 3u);
        ASSERT_TRUE(j.Append(std::string(900, 'd')).ok());
        ASSERT_TRUE(j.Append(std::string(900, 'e')).ok());
        point->Tear();
        EXPECT_FALSE(j.Commit().ok());
        EXPECT_EQ(j.committed_sequence(), 3u);  // The failed window is not covered.
        EXPECT_EQ(j.pending_records(), 2u);     // Its records remain pending.
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        Journal j2(base.get(), 0, kRegion);
        Records r = RecoverAll(&j2);
        ASSERT_GE(r.size(), 3u);
        ASSERT_LE(r.size(), 4u);  // The torn half-write can keep record 4, never 5.
        EXPECT_EQ(r[0].second, "covered 1");
        EXPECT_EQ(r[1].second, "covered 2");
        EXPECT_EQ(r[2].second, "covered 3");
        if (r.size() == 4) {
          EXPECT_EQ(r[3].second, std::string(900, 'd'));
        }
        // The recovered journal's watermark covers exactly what the scan validated.
        EXPECT_EQ(j2.committed_sequence(), r.empty() ? 0 : r.back().first);
      });
}

// Property sweep: random append/commit/crash cycles always recover exactly the committed
// prefix, across payload-size regimes.
struct JournalWorkload {
  uint64_t seed;
  uint64_t max_payload;
};

// Printed into the CTest name (".../seed11_max32"). Without a printer gtest dumps the
// raw struct bytes, padding included, so the name changes from build to build.
void PrintTo(const JournalWorkload& w, std::ostream* os) {
  *os << "seed" << w.seed << "_max" << w.max_payload;
}

class JournalPropertyTest : public ::testing::TestWithParam<JournalWorkload> {};

TEST_P(JournalPropertyTest, RecoversExactlyCommittedPrefix) {
  const JournalWorkload p = GetParam();
  Random rng(p.seed);
  auto base = std::make_shared<MemoryBlockDevice>(4 * 1024 * 1024);
  Records committed;
  Records in_flight;  // Batch being committed when the crash (if any) happened.
  {
    FaultyBlockDevice dev(base);
    Journal j(&dev, 0, 4 * 1024 * 1024);
    Records batch;
    for (int op = 0; op < 500; op++) {
      if (rng.OneIn(4)) {
        if (rng.OneIn(10) && !batch.empty()) {
          // Crash this commit partway through.
          dev.SetWriteBudget(0);
          dev.EnableTornWrites(true);
          EXPECT_FALSE(j.Commit().ok());
          in_flight = batch;
          break;
        }
        ASSERT_TRUE(j.Commit().ok());
        committed.insert(committed.end(), batch.begin(), batch.end());
        batch.clear();
      } else {
        std::string payload = rng.NextString(rng.Range(0, p.max_payload));
        auto s = j.Append(payload);
        ASSERT_TRUE(s.ok());
        batch.emplace_back(*s, payload);
      }
    }
    if (!batch.empty() && in_flight.empty() && rng.OneIn(2)) {
      if (j.Commit().ok()) {
        committed.insert(committed.end(), batch.begin(), batch.end());
      }
    }
  }
  Journal j2(base.get(), 0, 4 * 1024 * 1024);
  Records r = RecoverAll(&j2);
  // Everything acked as committed must be recovered, in order; a torn commit may
  // additionally surface a prefix of the in-flight batch (each record is a complete op).
  ASSERT_GE(r.size(), committed.size());
  for (size_t i = 0; i < committed.size(); i++) {
    ASSERT_EQ(r[i], committed[i]) << "committed record " << i;
  }
  for (size_t i = committed.size(); i < r.size(); i++) {
    size_t k = i - committed.size();
    ASSERT_LT(k, in_flight.size());
    ASSERT_EQ(r[i], in_flight[k]) << "in-flight record " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, JournalPropertyTest,
                         ::testing::Values(JournalWorkload{11, 32},
                                           JournalWorkload{22, 512},
                                           JournalWorkload{33, 4096},
                                           JournalWorkload{44, 1}));

}  // namespace
}  // namespace journal
}  // namespace hfad
