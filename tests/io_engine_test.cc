// Tests for the src/io/ completion-based IoEngine: error propagation from
// fault-injected runs, shutdown with in-flight ops, multi-submitter stress (run
// under TSan in CI), re-entrant submission from a completion, and parity of
// FaultyBlockDevice accounting between the synchronous device API and the engine
// path, and a round trip through a file-backed device.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/io/io_engine.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace io {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("hfad_io_engine_test_" + name))
      .string();
}

// Submit one request and block until its completion, returning its status.
Status RunToCompletion(IoEngine* engine, IoRequest req) {
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> result = done->get_future();
  req.on_complete = [done](Status s) { done->set_value(std::move(s)); };
  Status submitted = engine->Submit(std::move(req));
  if (!submitted.ok()) return submitted;
  return result.get();
}

IoRequest Write(uint64_t offset, Slice data) {
  IoRequest req;
  req.op = IoOp::kWrite;
  req.offset = offset;
  req.data = data;
  return req;
}

IoRequest Sync() {
  IoRequest req;
  req.op = IoOp::kSync;
  return req;
}

TEST(IoEngineTest, ErrorsFromAFailedRunPropagateToTheCompletion) {
  auto base = std::make_unique<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice faulty(std::move(base));
  IoEngine engine(&faulty);

  faulty.SetWriteBudget(2);
  std::vector<Status> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(RunToCompletion(&engine, Write(4096 * (1 + i), Slice("x"))));
  }
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());

  // Sync after the injected crash fails through the engine exactly as it does
  // through the direct device API.
  EXPECT_FALSE(RunToCompletion(&engine, Sync()).ok());
}

TEST(IoEngineTest, FaultyDeviceAccountingIsIdenticalThroughTheEngine) {
  // Same op sequence executed (a) directly and (b) via the engine must land on
  // identical writes_attempted / syncs_attempted counts — the crash harness
  // depends on budget positions meaning the same thing on both paths.
  auto run_ops = [](FaultyBlockDevice* dev, IoEngine* engine) {
    if (engine == nullptr) {
      ASSERT_TRUE(dev->Write(0, Slice("one")).ok());
      ASSERT_TRUE(dev->Write(4096, Slice("two")).ok());
      ASSERT_TRUE(dev->Sync().ok());
    } else {
      ASSERT_TRUE(RunToCompletion(engine, Write(0, Slice("one"))).ok());
      ASSERT_TRUE(RunToCompletion(engine, Write(4096, Slice("two"))).ok());
      ASSERT_TRUE(RunToCompletion(engine, Sync()).ok());
    }
  };

  FaultyBlockDevice direct(std::make_unique<MemoryBlockDevice>(kMiB));
  run_ops(&direct, nullptr);

  FaultyBlockDevice via_engine(std::make_unique<MemoryBlockDevice>(kMiB));
  IoEngine engine(&via_engine);
  run_ops(&via_engine, &engine);

  EXPECT_EQ(direct.writes_attempted(), via_engine.writes_attempted());
  EXPECT_EQ(direct.syncs_attempted(), via_engine.syncs_attempted());
}

TEST(IoEngineTest, ShutdownAbortsQueuedOpsAndCompletesEverySubmission) {
  auto base = std::make_unique<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice faulty(std::move(base));

  // Park every worker inside Sync() (one sync each) so later submissions stack up
  // in the engine queue, then shut down with them in flight.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  int parked = 0;
  faulty.SetSyncHook([&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    ++parked;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  IoEngine engine(&faulty);

  std::atomic<int> completions{0};
  std::atomic<int> aborted{0};
  auto counting_cb = [&](Status s) {
    completions.fetch_add(1);
    if (!s.ok()) aborted.fetch_add(1);
  };

  for (int i = 0; i < IoEngine::kWorkers; ++i) {
    IoRequest sync = Sync();
    sync.on_complete = counting_cb;
    ASSERT_TRUE(engine.Submit(std::move(sync)).ok());
  }
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return parked == IoEngine::kWorkers; });
  }
  constexpr int kQueued = 5;
  for (int i = 0; i < kQueued; ++i) {
    IoRequest w = Write(4096 * (1 + i), Slice("queued"));
    w.on_complete = counting_cb;
    ASSERT_TRUE(engine.Submit(std::move(w)).ok());
  }

  std::thread shutdown_thread([&] { engine.Shutdown(); });
  // Shutdown flips the refusal flag and swaps out the queue in one critical
  // section, so keep submitting until one is refused: at that point every
  // accepted write above (and in this loop) is provably in the orphan set,
  // since every worker is still parked inside the sync hook.
  int extra = 0;
  for (;;) {
    IoRequest w = Write(4096 * (1 + kQueued + extra), Slice("racing"));
    w.on_complete = counting_cb;
    if (!engine.Submit(std::move(w)).ok()) break;
    ++extra;
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  shutdown_thread.join();

  // Exactly-once across the board: each parked sync ran to completion, every
  // queued write was aborted — no completion lost, none duplicated.
  EXPECT_EQ(completions.load(), IoEngine::kWorkers + kQueued + extra);
  EXPECT_EQ(aborted.load(), kQueued + extra);
  EXPECT_EQ(engine.completed(), engine.submitted());

  EXPECT_FALSE(engine.Submit(IoRequest{}).ok());
}

TEST(IoEngineTest, EightSubmitterStress) {
  MemoryBlockDevice dev(8 * kMiB);
  IoEngine engine(&dev);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> ok_count{0};
  std::atomic<int> done_count{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        IoRequest req =
            i % 7 == 0 ? Sync()
                       : Write(static_cast<uint64_t>(t) * kMiB + static_cast<uint64_t>(i) * 64,
                               Slice("stress"));
        req.on_complete = [&](Status s) {
          if (s.ok()) ok_count.fetch_add(1);
          if (done_count.fetch_add(1) + 1 == kThreads * kOpsPerThread) {
            std::lock_guard<std::mutex> lock(done_mu);
            done_cv.notify_all();
          }
        };
        ASSERT_TRUE(engine.Submit(std::move(req)).ok());
      }
    });
  }
  for (auto& s : submitters) s.join();
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock,
                 [&] { return done_count.load() == kThreads * kOpsPerThread; });
  }
  EXPECT_EQ(ok_count.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(engine.submitted(), static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(engine.completed(), engine.submitted());
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_GE(engine.max_queue_depth(), 1u);
}

TEST(IoEngineTest, CompletionCallbackMaySubmitFollowUpRequests) {
  // The journal's async chain submits the sync from the write's completion;
  // prove that re-entrant Submit from a completion thread is safe.
  MemoryBlockDevice dev(kMiB);
  IoEngine engine(&dev);

  std::mutex mu;
  std::condition_variable cv;
  bool chain_done = false;
  Status chain_status;

  IoRequest write = Write(4096, Slice("chained"));
  write.on_complete = [&](Status ws) {
    if (!ws.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      chain_status = ws;
      chain_done = true;
      cv.notify_one();
      return;
    }
    IoRequest sync = Sync();
    sync.on_complete = [&](Status ss) {
      std::lock_guard<std::mutex> lock(mu);
      chain_status = ss;
      chain_done = true;
      cv.notify_one();
    };
    ASSERT_TRUE(engine.Submit(std::move(sync)).ok());
  };
  ASSERT_TRUE(engine.Submit(std::move(write)).ok());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return chain_done; });
  EXPECT_TRUE(chain_status.ok()) << chain_status.ToString();
}

TEST(IoEngineTest, RoundTripsThroughAFileDevice) {
  std::string path = TempPath("file_roundtrip");
  std::filesystem::remove(path);
  auto dev = FileBlockDevice::Open(path, kMiB);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  IoEngine engine(dev->get());

  ASSERT_TRUE(RunToCompletion(&engine, Write(4096, Slice("via the pool"))).ok());
  ASSERT_TRUE(RunToCompletion(&engine, Write(8192, Slice("second op"))).ok());
  ASSERT_TRUE(RunToCompletion(&engine, Sync()).ok());

  // The workers wrote through the same fd the device reads from.
  std::string got;
  ASSERT_TRUE((*dev)->Read(4096, 12, &got).ok());
  EXPECT_EQ(got, "via the pool");
  ASSERT_TRUE((*dev)->Read(8192, 9, &got).ok());
  EXPECT_EQ(got, "second op");

  // Writes beyond the fixed capacity fail through their completion instead of
  // growing the file.
  EXPECT_FALSE(RunToCompletion(&engine, Write(kMiB, Slice("x"))).ok());

  engine.Shutdown();
  EXPECT_EQ(engine.completed(), engine.submitted());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace io
}  // namespace hfad
