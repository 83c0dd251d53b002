// io_uring IoEngine backend (Linux). Uses raw syscalls — io_uring_setup /
// io_uring_enter plus hand-mapped SQ/CQ rings — so no liburing dependency. Only
// compiled under HFAD_WITH_URING (CMake detects <linux/io_uring.h>); even then
// CreateUringEngine probes io_uring_setup at runtime and returns null when the
// kernel or a seccomp filter refuses, so callers transparently fall back to the
// thread-pool backend.
//
// Shape: a submitter fills one SQE per op under sq_mu_ and flushes it with a
// non-blocking io_uring_enter; one reactor thread parks in
// io_uring_enter(GETEVENTS) and drains CQEs, resolving per-op state and calling
// IoEngine::Deliver.
#include "src/io/io_engine.h"

#ifdef HFAD_WITH_URING

#include <linux/io_uring.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace hfad {
namespace io {
namespace {

long SysUringSetup(unsigned entries, struct io_uring_params* p) {
  return syscall(__NR_io_uring_setup, entries, p);
}

long SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                   unsigned flags) {
  return syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
                 nullptr, 0);
}

// Ring pointers live in kernel-shared memory; accesses use the same
// acquire/release pairing liburing uses (kernel releases CQ tail / acquires SQ
// tail, we do the mirror image).
uint32_t LoadAcquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
void StoreRelease(unsigned* p, uint32_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

constexpr uint64_t kWakeUserData = 0;  // NOP used to kick the reactor at shutdown.

class UringEngine : public IoEngine {
 public:
  // Takes ownership of ring_fd and the three mappings (sq may alias cq under
  // IORING_FEAT_SINGLE_MMAP).
  UringEngine(BlockDevice* device, int ring_fd, const io_uring_params& params,
              void* sq_ring, size_t sq_ring_bytes, void* cq_ring,
              size_t cq_ring_bytes, io_uring_sqe* sqes, size_t sqes_bytes)
      : device_(device),
        ring_fd_(ring_fd),
        file_fd_(device->native_fd()),
        sq_ring_(sq_ring),
        sq_ring_bytes_(sq_ring_bytes),
        cq_ring_(cq_ring),
        cq_ring_bytes_(cq_ring_bytes),
        sqes_(sqes),
        sqes_bytes_(sqes_bytes) {
    auto* sq = static_cast<char*>(sq_ring);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_entries_ = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_entries);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    auto* cq = static_cast<char*>(cq_ring);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    reactor_ = std::thread([this] { ReactorMain(); });
  }

  ~UringEngine() override {
    Shutdown();
    if (sqes_) munmap(sqes_, sqes_bytes_);
    if (cq_ring_ && cq_ring_ != sq_ring_) munmap(cq_ring_, cq_ring_bytes_);
    if (sq_ring_) munmap(sq_ring_, sq_ring_bytes_);
    if (ring_fd_ >= 0) close(ring_fd_);
  }

  Status Submit(IoRequest req) override {
    auto op = std::make_unique<OpState>();
    op->on_complete = std::move(req.on_complete);

    std::lock_guard<std::mutex> sq_lock(sq_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::IoError("io engine is shut down");
    }
    uint64_t id = next_op_id_++;

    // Compute the SQE's fields BEFORE publishing the op: once it is in ops_, the
    // reactor may touch (and free) the state at any moment, and the only
    // submit-to-reactor ordering visible to a race checker is the state_mu_
    // hand-off. After the emplace the op is never dereferenced on this thread.
    uint8_t opcode = IORING_OP_NOP;
    unsigned fsync_flags = 0;
    if (req.op == IoOp::kSync) {
      opcode = IORING_OP_FSYNC;
      fsync_flags = IORING_FSYNC_DATASYNC;  // Mirrors fdatasync().
    } else {
      // Bounds are enforced up front: the kernel would happily extend the file
      // past the device's fixed capacity. A failure still completes exactly once,
      // through the normal CQE path via a NOP.
      op->forced_error = RangeCheck(req.offset, req.data.size());
      op->expected_bytes = req.data.size();
      if (op->forced_error.ok()) opcode = IORING_OP_WRITE;
    }
    RecordSubmit();
    {
      std::lock_guard<std::mutex> st_lock(state_mu_);
      ops_.emplace(id, std::move(op));
    }

    io_uring_sqe* sqe = NextSqeLocked();
    sqe->fd = file_fd_;
    sqe->user_data = id;
    sqe->opcode = opcode;
    if (opcode == IORING_OP_WRITE) {
      sqe->addr = reinterpret_cast<uint64_t>(req.data.data());
      sqe->len = static_cast<unsigned>(req.data.size());
      sqe->off = req.offset;
    }
    sqe->fsync_flags = fsync_flags;
    PublishSqeLocked();
    return Status::Ok();
  }

  void Shutdown() override {
    {
      std::lock_guard<std::mutex> sq_lock(sq_mu_);
      if (shutdown_.exchange(true, std::memory_order_acq_rel)) {
        if (reactor_.joinable()) reactor_.join();
        return;
      }
      SubmitWakeNopLocked();
    }
    if (reactor_.joinable()) reactor_.join();
  }

  const char* backend_name() const override { return "io_uring"; }

 private:
  struct OpState {
    std::function<void(Status)> on_complete;
    Status forced_error = Status::Ok();  // Pre-submit bounds failure.
    uint64_t expected_bytes = 0;         // kWrite short-transfer detection.
  };

  Status RangeCheck(uint64_t offset, uint64_t size) const {
    uint64_t cap = device_->Size();
    if (offset > cap || size > cap - offset) {
      return Status::IoError("io beyond device capacity");
    }
    return Status::Ok();
  }

  void FlushSq(unsigned submitted_hint) {
    // to_submit just tells the kernel how many new entries to look at; it reads
    // the ring tail itself, so a conservative sq_entries_ is always safe.
    unsigned n = submitted_hint ? submitted_hint : sq_entries_;
    while (SysUringEnter(ring_fd_, n, 0, 0) < 0 && errno == EINTR) {
    }
  }

  // Claim the next SQE (zeroed) under sq_mu_; PublishSqeLocked hands it to the
  // kernel. SQ-full is transient (the kernel consumes entries inside
  // io_uring_enter), so flushing and retrying cannot spin forever.
  io_uring_sqe* NextSqeLocked() {
    for (;;) {
      unsigned tail = *sq_tail_;
      if (tail - LoadAcquire(sq_head_) < sq_entries_) {
        unsigned idx = tail & sq_mask_;
        io_uring_sqe* sqe = &sqes_[idx];
        memset(sqe, 0, sizeof(*sqe));
        sq_array_[idx] = idx;
        return sqe;
      }
      FlushSq(0);
    }
  }

  void PublishSqeLocked() {
    StoreRelease(sq_tail_, *sq_tail_ + 1);
    FlushSq(1);
  }

  void SubmitWakeNopLocked() {
    io_uring_sqe* sqe = NextSqeLocked();
    sqe->opcode = IORING_OP_NOP;
    sqe->user_data = kWakeUserData;
    PublishSqeLocked();
  }

  void ReactorMain() {
    for (;;) {
      bool drained_any = DrainCq();
      bool stopping = shutdown_.load(std::memory_order_acquire);
      if (stopping) {
        std::lock_guard<std::mutex> st_lock(state_mu_);
        if (ops_.empty()) return;
      }
      if (drained_any) continue;
      long rc = SysUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
      if (rc < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
        // Ring is wedged; abort everything still pending, exactly once each.
        AbortAllPending(Status::IoError(std::string("io_uring_enter: ") +
                                        strerror(errno)));
        return;
      }
    }
  }

  bool DrainCq() {
    bool any = false;
    unsigned head = *cq_head_;
    for (;;) {
      unsigned tail = LoadAcquire(cq_tail_);
      if (head == tail) break;
      io_uring_cqe cqe = cqes_[head & cq_mask_];
      StoreRelease(cq_head_, ++head);
      any = true;
      if (cqe.user_data == kWakeUserData) continue;
      ResolveCqe(cqe);
    }
    return any;
  }

  void ResolveCqe(const io_uring_cqe& cqe) {
    std::unique_ptr<OpState> finished;
    {
      std::lock_guard<std::mutex> st_lock(state_mu_);
      auto it = ops_.find(cqe.user_data);
      if (it == ops_.end()) return;  // Defensive: unknown CQE.
      finished = std::move(it->second);
      ops_.erase(it);
    }
    Status status = finished->forced_error;
    if (status.ok() && cqe.res < 0) {
      status = Status::IoError(std::string("io_uring op: ") + strerror(-cqe.res));
    } else if (status.ok() && static_cast<uint64_t>(cqe.res) < finished->expected_bytes) {
      status = Status::IoError("io_uring short transfer");
    }
    Deliver(finished->on_complete, std::move(status));
  }

  void AbortAllPending(const Status& why) {
    std::unordered_map<uint64_t, std::unique_ptr<OpState>> orphans;
    {
      std::lock_guard<std::mutex> st_lock(state_mu_);
      orphans.swap(ops_);
    }
    for (auto& kv : orphans) {
      Deliver(kv.second->on_complete, why);
    }
  }

  BlockDevice* const device_;
  const int ring_fd_;
  const int file_fd_;

  void* sq_ring_;
  size_t sq_ring_bytes_;
  void* cq_ring_;
  size_t cq_ring_bytes_;
  io_uring_sqe* sqes_;
  size_t sqes_bytes_;

  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  std::mutex sq_mu_;  // Serializes SQE fill + tail publish across submitters.
  uint64_t next_op_id_ = 1;  // 0 is the reactor wake token.
  std::atomic<bool> shutdown_{false};

  std::mutex state_mu_;  // Guards ops_; leaf — never held across Deliver.
  std::unordered_map<uint64_t, std::unique_ptr<OpState>> ops_;

  std::thread reactor_;
};

}  // namespace

std::unique_ptr<IoEngine> CreateUringEngine(BlockDevice* device,
                                            int depth_hint) {
  if (device->native_fd() < 0) return nullptr;
  unsigned entries = 256;
  while (entries < static_cast<unsigned>(depth_hint) && entries < 4096) {
    entries *= 2;
  }
  io_uring_params params;
  memset(&params, 0, sizeof(params));
  long fd = SysUringSetup(entries, &params);
  if (fd < 0) return nullptr;  // Old kernel or seccomp — use the thread pool.

  size_t sq_bytes = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  size_t cq_bytes =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_bytes = cq_bytes = sq_bytes > cq_bytes ? sq_bytes : cq_bytes;
  }
  void* sq_ring = mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, static_cast<int>(fd),
                       IORING_OFF_SQ_RING);
  if (sq_ring == MAP_FAILED) {
    close(static_cast<int>(fd));
    return nullptr;
  }
  void* cq_ring = sq_ring;
  if (!single_mmap) {
    cq_ring = mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, static_cast<int>(fd),
                   IORING_OFF_CQ_RING);
    if (cq_ring == MAP_FAILED) {
      munmap(sq_ring, sq_bytes);
      close(static_cast<int>(fd));
      return nullptr;
    }
  }
  size_t sqes_bytes = params.sq_entries * sizeof(io_uring_sqe);
  void* sqes = mmap(nullptr, sqes_bytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, static_cast<int>(fd),
                    IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    if (cq_ring != sq_ring) munmap(cq_ring, cq_bytes);
    munmap(sq_ring, sq_bytes);
    close(static_cast<int>(fd));
    return nullptr;
  }
  return std::unique_ptr<IoEngine>(new UringEngine(
      device, static_cast<int>(fd), params, sq_ring, sq_bytes, cq_ring,
      cq_bytes, static_cast<io_uring_sqe*>(sqes), sqes_bytes));
}

}  // namespace io
}  // namespace hfad

#else  // !HFAD_WITH_URING

namespace hfad {
namespace io {

std::unique_ptr<IoEngine> CreateUringEngine(BlockDevice*, int) {
  return nullptr;
}

}  // namespace io
}  // namespace hfad

#endif  // HFAD_WITH_URING
