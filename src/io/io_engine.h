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
// Two backends behind one interface (CreateIoEngine picks at runtime):
//
//   * thread-pool — portable: N workers pop a submission queue and run the device's
//     own virtual Write/Sync. Because the device methods themselves execute,
//     FaultyBlockDevice write-budget and sync-hook accounting is identical through
//     the engine by construction, so the crash harness torn-write sweeps exercise
//     the engine unchanged.
//   * io_uring — Linux, raw syscalls (no liburing dependency), compiled under
//     HFAD_WITH_URING and selected only when the device exposes a native fd
//     (FileBlockDevice) and io_uring_setup succeeds at runtime (seccomp-restricted
//     environments fall back to the thread pool).
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
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

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

enum class IoBackend : uint8_t {
  kAuto,        // io_uring when built + device + kernel allow it, else thread pool.
  kThreadPool,  // Portable worker-pool backend.
};

struct IoEngineOptions {
  // Submission workers (thread-pool backend) / queue depth hint (io_uring).
  int threads = 2;
  IoBackend backend = IoBackend::kAuto;
};

// Shared engine shell: the gauges. Backends call Deliver() for every finished op.
class IoEngine {
 public:
  virtual ~IoEngine() = default;

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Enqueue one request. Never blocks on device IO; fails only after Shutdown().
  virtual Status Submit(IoRequest req) = 0;

  // Drain in-flight ops and stop. Requests accepted but not yet started complete
  // with IoError("aborted by engine shutdown") — still exactly once. Idempotent;
  // the destructor calls it.
  virtual void Shutdown() = 0;

  virtual const char* backend_name() const = 0;

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

 protected:
  IoEngine() = default;

  // Account one accepted submission.
  void RecordSubmit() {
    uint64_t s = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t depth = s - completed_.load(std::memory_order_relaxed);
    uint64_t prev = max_depth_.load(std::memory_order_relaxed);
    while (depth > prev &&
           !max_depth_.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
    }
  }

  // Deliver one finished op: count it, then run its callback (engine thread, no
  // locks held). The exactly-once contract is the caller's to uphold.
  void Deliver(const std::function<void(Status)>& cb, Status status) {
    // Counted before dispatch so in_flight() never under-reports while a callback
    // is still running.
    completed_.fetch_add(1, std::memory_order_release);
    if (cb) cb(std::move(status));
  }

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> max_depth_{0};
};

// Build an engine for `device`. Backend choice: kThreadPool always works; kAuto uses
// io_uring only when HFAD_WITH_URING is compiled in, the device has a native fd, and
// io_uring_setup succeeds at runtime — otherwise the thread pool is returned. Never
// fails: the thread-pool backend has no preconditions.
std::unique_ptr<IoEngine> CreateIoEngine(BlockDevice* device,
                                         const IoEngineOptions& options);

// Internal backend factories (thread_pool_engine.cc / uring_engine.cc).
// CreateUringEngine returns null when unsupported.
std::unique_ptr<IoEngine> CreateThreadPoolEngine(BlockDevice* device, int threads);
std::unique_ptr<IoEngine> CreateUringEngine(BlockDevice* device, int depth_hint);

}  // namespace io
}  // namespace hfad

#endif  // HFAD_SRC_IO_IO_ENGINE_H_
