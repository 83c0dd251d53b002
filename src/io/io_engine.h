// Completion-based I/O engine: explicit submission/completion semantics over a
// BlockDevice.
//
// A blocking device call burns a thread for the full round-trip. The IoEngine splits
// each op into a non-blocking Submit and an asynchronous completion, the DAOS/Ceph
// ObjectStore shape: callers submit IoRequests (write | sync), and each request's
// on_complete callback runs on an engine-internal thread once the op finishes. The
// thread count then stops being the ceiling on in-flight ops — the journal's group
// commit chain (its only client) keeps thousands of commits in flight on a handful of
// engine threads.
//
// The engine is a pool of kWorkers threads that pop one submission queue and run the
// device's own virtual Write/Sync. Because the device methods themselves execute,
// FaultyBlockDevice write-budget and sync-hook accounting is identical through the
// engine by construction, so the crash harness torn-write sweeps exercise the engine
// unchanged.
//
// Completion contract (the engine's one hard invariant): every successfully
// submitted request completes EXACTLY once — executed, failed, or aborted by
// Shutdown — and the buffer behind a write's data must stay valid until its
// completion fires. Completion ordering across requests is unspecified; callers
// needing write-then-sync ordering chain the second submit from the first completion
// (see Journal's commit chain).
//
// Callback rules (docs/CONCURRENCY.md "completion threads"): on_complete runs on an
// engine-internal thread with NO engine locks held. It may take leaf locks (the
// journal's mu_) and may Submit follow-up requests, but must never block on another
// completion or acquire the volume lock.
#ifndef HFAD_SRC_IO_IO_ENGINE_H_
#define HFAD_SRC_IO_IO_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace io {

enum class IoOp : uint8_t {
  kWrite,  // offset/data
  kSync,   // durability barrier for previously COMPLETED writes
};

// One submission. The buffer behind `data` must outlive the completion.
struct IoRequest {
  IoOp op = IoOp::kWrite;
  uint64_t offset = 0;  // kWrite.
  Slice data;           // kWrite.
  // Runs exactly once with the op's outcome, on an engine thread.
  std::function<void(Status)> on_complete;
};

class IoEngine {
 public:
  // Worker threads per engine. The journal keeps up to kWorkers commit links in flight,
  // at most one of them writing, so every link's request has a worker; a third link
  // would only queue behind two sleeping syncs.
  static constexpr int kWorkers = 2;

  explicit IoEngine(BlockDevice* device);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Enqueue one request. Never blocks on device IO; fails only after Shutdown().
  Status Submit(IoRequest req);

  // Drain in-flight ops and stop. Requests accepted but not yet started complete
  // with IoError("aborted by engine shutdown") — still exactly once. Idempotent;
  // the destructor calls it.
  void Shutdown();

  // ---- Gauges (DumpMetrics "io" block) ----
  uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t in_flight() const {
    uint64_t s = submitted();
    uint64_t c = completed();
    return s > c ? s - c : 0;
  }
  uint64_t max_queue_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerMain();

  // Account one accepted submission (mu_ held).
  void RecordSubmit();

  // Deliver one finished op: count it, then run its callback (engine thread, no
  // locks held). The exactly-once contract is the caller's to uphold.
  void Deliver(const std::function<void(Status)>& cb, Status status);

  BlockDevice* const device_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<IoRequest> queue_;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> max_depth_{0};
};

}  // namespace io
}  // namespace hfad

#endif  // HFAD_SRC_IO_IO_ENGINE_H_
