// Tests for the src/io/ completion-based IoEngine: error propagation from
// fault-injected runs, shutdown with in-flight ops, multi-submitter stress (run
// under TSan in CI), re-entrant submission from a completion, and parity of
// FaultyBlockDevice accounting between the synchronous device API and the engine
// path. The io_uring backend is exercised when the runtime allows it, with a skip
// (not a failure) otherwise.
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

// Engine factory parameterization: every behavioral test runs against the
// thread-pool backend; the io_uring-specific suite below covers the other
// backend when the environment permits.
std::unique_ptr<IoEngine> MakePoolEngine(BlockDevice* dev, int threads = 3) {
  IoEngineOptions opts;
  opts.threads = threads;
  opts.backend = IoBackend::kThreadPool;
  return CreateIoEngine(dev, opts);
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
  auto engine = MakePoolEngine(&faulty, 1);

  faulty.SetWriteBudget(2);
  std::vector<Status> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(RunToCompletion(engine.get(), Write(4096 * (1 + i), Slice("x"))));
  }
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());

  // Sync after the injected crash fails through the engine exactly as it does
  // through the direct device API.
  EXPECT_FALSE(RunToCompletion(engine.get(), Sync()).ok());
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
  auto engine = MakePoolEngine(&via_engine, 2);
  run_ops(&via_engine, engine.get());

  EXPECT_EQ(direct.writes_attempted(), via_engine.writes_attempted());
  EXPECT_EQ(direct.syncs_attempted(), via_engine.syncs_attempted());
}

TEST(IoEngineTest, ShutdownAbortsQueuedOpsAndCompletesEverySubmission) {
  auto base = std::make_unique<MemoryBlockDevice>(kMiB);
  FaultyBlockDevice faulty(std::move(base));

  // Park the single worker inside Sync() so later submissions stack up in the
  // engine queue, then shut down with them in flight.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool parked = false;
  faulty.SetSyncHook([&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  auto engine = MakePoolEngine(&faulty, 1);

  std::atomic<int> completions{0};
  std::atomic<int> aborted{0};
  auto counting_cb = [&](Status s) {
    completions.fetch_add(1);
    if (!s.ok()) aborted.fetch_add(1);
  };

  IoRequest sync = Sync();
  sync.on_complete = counting_cb;
  ASSERT_TRUE(engine->Submit(std::move(sync)).ok());
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return parked; });
  }
  constexpr int kQueued = 5;
  for (int i = 0; i < kQueued; ++i) {
    IoRequest w = Write(4096 * (1 + i), Slice("queued"));
    w.on_complete = counting_cb;
    ASSERT_TRUE(engine->Submit(std::move(w)).ok());
  }

  std::thread shutdown_thread([&] { engine->Shutdown(); });
  // Shutdown flips the refusal flag and swaps out the queue in one critical
  // section, so keep submitting until one is refused: at that point every
  // accepted write above (and in this loop) is provably in the orphan set,
  // since the lone worker is still parked inside the sync hook.
  int extra = 0;
  for (;;) {
    IoRequest w = Write(4096 * (1 + kQueued + extra), Slice("racing"));
    w.on_complete = counting_cb;
    if (!engine->Submit(std::move(w)).ok()) break;
    ++extra;
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  shutdown_thread.join();

  // Exactly-once across the board: the parked sync ran to completion, every
  // queued write was aborted — no completion lost, none duplicated.
  EXPECT_EQ(completions.load(), 1 + kQueued + extra);
  EXPECT_EQ(aborted.load(), kQueued + extra);
  EXPECT_EQ(engine->completed(), engine->submitted());

  EXPECT_FALSE(engine->Submit(IoRequest{}).ok());
}

TEST(IoEngineTest, EightSubmitterStress) {
  MemoryBlockDevice dev(8 * kMiB);
  auto engine = MakePoolEngine(&dev, 4);

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
        ASSERT_TRUE(engine->Submit(std::move(req)).ok());
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
  EXPECT_EQ(engine->submitted(), static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(engine->completed(), engine->submitted());
  EXPECT_EQ(engine->in_flight(), 0u);
  EXPECT_GE(engine->max_queue_depth(), 1u);
}

TEST(IoEngineTest, CompletionCallbackMaySubmitFollowUpRequests) {
  // The journal's async chain submits the sync from the write's completion;
  // prove that re-entrant Submit from a completion thread is safe.
  MemoryBlockDevice dev(kMiB);
  auto engine = MakePoolEngine(&dev, 2);

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
    ASSERT_TRUE(engine->Submit(std::move(sync)).ok());
  };
  ASSERT_TRUE(engine->Submit(std::move(write)).ok());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return chain_done; });
  EXPECT_TRUE(chain_status.ok()) << chain_status.ToString();
}

// ------------------------------------------------------------------ io_uring

TEST(UringEngineTest, RoundTripsThroughTheKernelWhenAvailable) {
  std::string path = TempPath("uring_roundtrip");
  std::filesystem::remove(path);
  auto dev = FileBlockDevice::Open(path, kMiB);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();

  IoEngineOptions opts;
  opts.backend = IoBackend::kAuto;
  auto engine = CreateIoEngine(dev->get(), opts);
  if (std::string(engine->backend_name()) != "io_uring") {
    GTEST_SKIP() << "io_uring unavailable (not built or kernel refused); "
                    "thread-pool fallback covered by IoEngineTest";
  }

  ASSERT_TRUE(RunToCompletion(engine.get(), Write(4096, Slice("via the ring"))).ok());
  ASSERT_TRUE(RunToCompletion(engine.get(), Write(8192, Slice("second op"))).ok());
  ASSERT_TRUE(RunToCompletion(engine.get(), Sync()).ok());

  // The kernel wrote through the same fd the device reads from.
  std::string got;
  ASSERT_TRUE((*dev)->Read(4096, 12, &got).ok());
  EXPECT_EQ(got, "via the ring");
  ASSERT_TRUE((*dev)->Read(8192, 9, &got).ok());
  EXPECT_EQ(got, "second op");

  // Writes beyond the fixed capacity must fail instead of growing the file the way
  // a raw kernel write would.
  EXPECT_FALSE(RunToCompletion(engine.get(), Write(kMiB, Slice("x"))).ok());

  engine->Shutdown();
  EXPECT_EQ(engine->completed(), engine->submitted());
  std::filesystem::remove(path);
}

TEST(UringEngineTest, MemoryDevicesNeverSelectUring) {
  // No native fd -> CreateIoEngine must pick the thread pool even on kAuto,
  // because kernel IO would bypass MemoryBlockDevice/FaultyBlockDevice
  // semantics entirely.
  MemoryBlockDevice dev(kMiB);
  IoEngineOptions opts;
  opts.backend = IoBackend::kAuto;
  auto engine = CreateIoEngine(&dev, opts);
  EXPECT_STREQ(engine->backend_name(), "thread_pool");

  FaultyBlockDevice faulty(std::make_unique<MemoryBlockDevice>(kMiB));
  EXPECT_EQ(faulty.native_fd(), -1);
  auto faulty_engine = CreateIoEngine(&faulty, opts);
  EXPECT_STREQ(faulty_engine->backend_name(), "thread_pool");
}

}  // namespace
}  // namespace io
}  // namespace hfad
