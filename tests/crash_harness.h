// Shared torn-write crash harness for failure-injection tests.
//
// journal_test.cc, osd_test.cc, lazy_index_test.cc, and cluster_test.cc all drive the
// same crash shape: build acknowledged state behind a FaultyBlockDevice, arm a write
// budget with torn writes enabled, run the operation under test until the device dies
// mid-write, hard-kill the device so teardown reaches nothing, then reopen from the
// underlying MemoryBlockDevice and verify every acknowledged effect survived. This
// header owns that plumbing so each test supplies only its workload and its checks.
//
// A sweep is the same run repeated at every write budget (typically via TEST_P over
// ::testing::Range), which moves the tear across every device write the operation
// issues — epilogue pages, in-place batches, superblock, journal reset. SyncGate parks
// device syncs, so a test can hold commits in flight and observe which ones overlap.
#ifndef HFAD_TESTS_CRASH_HARNESS_H_
#define HFAD_TESTS_CRASH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/storage/block_device.h"

namespace hfad {
namespace test {

// Handle passed to the crash body. Tear() arms the fault: the next `budget` writes
// succeed and the one after is torn in half, after which all writes fail. Crash()
// kills the device outright so destructors and close paths reach nothing. The driver
// calls Crash() again after the body returns, so a body only needs its own Crash()
// when locals (an Osd, a FileSystem) would otherwise write during destruction.
class CrashPoint {
 public:
  CrashPoint(FaultyBlockDevice* dev, int64_t budget) : dev_(dev), budget_(budget) {}

  int64_t budget() const { return budget_; }

  void Tear() {
    dev_->SetWriteBudget(budget_);
    dev_->EnableTornWrites(true);
  }

  void Crash() { dev_->SetWriteBudget(0); }

 private:
  FaultyBlockDevice* dev_;
  int64_t budget_;
};

// Parks every device sync it is installed on until it is released, by its arrival number
// (1 for the first) or all at once, and records how many were parked at the same moment:
// a sync that is started only after another one finished never meets it here.
class SyncGate {
 public:
  SyncGate() = default;
  SyncGate(const SyncGate&) = delete;
  SyncGate& operator=(const SyncGate&) = delete;

  void Install(FaultyBlockDevice* dev) {
    dev->SetSyncHook([this] { Park(); });
  }

  // Waits up to `timeout` for `n` syncs parked together.
  bool WaitParked(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return parked_ >= n; });
  }

  // Lets sync number `ticket` through.
  void Release(int ticket) {
    std::lock_guard<std::mutex> lock(mu_);
    released_.insert(ticket);
    cv_.notify_all();
  }

  // Waits up to `timeout` for sync number `ticket` to leave the gate.
  bool WaitLeft(int ticket, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return left_.count(ticket) > 0; });
  }

  // Lets every parked sync through, and every later one without parking.
  void ReleaseAll() {
    std::lock_guard<std::mutex> lock(mu_);
    all_released_ = true;
    cv_.notify_all();
  }

  size_t max_parked() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_parked_;
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (all_released_) {
      return;
    }
    const int ticket = ++arrived_;
    parked_++;
    max_parked_ = std::max(max_parked_, parked_);
    cv_.notify_all();
    cv_.wait(lock, [&] { return all_released_ || released_.count(ticket) > 0; });
    parked_--;
    left_.insert(ticket);
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  size_t parked_ = 0;
  size_t max_parked_ = 0;
  std::set<int> released_;
  std::set<int> left_;
  bool all_released_ = false;
};

// Single-device torn-write crash: `body` builds state on the faulty device (budget
// unlimited until it calls point->Tear()), the driver hard-crashes the device, and
// `verify` reopens from the pristine base device — exactly what a real restart sees.
inline void RunTornWriteCrash(
    uint64_t device_bytes, int64_t budget,
    const std::function<void(const std::shared_ptr<FaultyBlockDevice>&, CrashPoint*)>&
        body,
    const std::function<void(const std::shared_ptr<MemoryBlockDevice>&)>& verify) {
  auto base = std::make_shared<MemoryBlockDevice>(device_bytes);
  {
    auto faulty = std::make_shared<FaultyBlockDevice>(base);
    CrashPoint point(faulty.get(), budget);
    body(faulty, &point);
    point.Crash();
  }
  verify(base);
}

// Multi-device variant for sharded clusters: `count` backing devices with the fault
// injected on shard `victim`. `body` receives the device vector with the victim slot
// wrapped in the FaultyBlockDevice; `verify` receives the bare base devices.
inline void RunTornWriteCrashMulti(
    size_t count, uint64_t device_bytes, size_t victim, int64_t budget,
    const std::function<void(const std::vector<std::shared_ptr<BlockDevice>>&,
                             CrashPoint*)>& body,
    const std::function<void(const std::vector<std::shared_ptr<BlockDevice>>&)>&
        verify) {
  std::vector<std::shared_ptr<BlockDevice>> bases;
  for (size_t i = 0; i < count; i++) {
    bases.push_back(std::make_shared<MemoryBlockDevice>(device_bytes));
  }
  {
    auto faulty = std::make_shared<FaultyBlockDevice>(bases[victim]);
    std::vector<std::shared_ptr<BlockDevice>> devices = bases;
    devices[victim] = faulty;
    CrashPoint point(faulty.get(), budget);
    body(devices, &point);
    point.Crash();
  }
  verify(bases);
}

// Read-fault sweep: run `round` once per arming position in [0, max_after], with the
// device failing `fail_count` consecutive reads (transient; -1 = persistent) starting
// `after` successful reads into the round. Moves the fault across every device read
// the operation under test issues, the read-side analogue of the write-budget sweep.
// Injection is cleared between rounds.
inline void RunReadFaultSweep(FaultyBlockDevice* dev, int64_t max_after, int64_t fail_count,
                              const std::function<void(int64_t after)>& round) {
  for (int64_t after = 0; after <= max_after; after++) {
    dev->SetReadFaults(after, fail_count);
    round(after);
    dev->SetReadFaults(-1, 0);
  }
}

// The bit RunBitFlipSweep flips in the page at `page_offset`: its position varies
// deterministically per page so the corruption lands in headers, payloads, and CRC
// fields alike.
struct BitFlip {
  uint64_t byte;  // Within the page.
  int bit;
};
inline BitFlip BitFlipFor(uint64_t page_offset, uint64_t page_size) {
  const uint64_t page_index = page_offset / page_size;
  return BitFlip{(page_index * 131) % page_size, static_cast<int>(page_index % 8)};
}

// Bit-flip sweep: for every page of `device_bytes`, save the pristine page, flip one
// bit (BitFlipFor), run `check(page_offset)` with the corruption present, then restore
// the saved bytes — each page's round is independent even when the check repairs or
// rewrites the page.
inline void RunBitFlipSweep(const std::shared_ptr<MemoryBlockDevice>& base,
                            FaultyBlockDevice* dev, uint64_t device_bytes,
                            uint64_t page_size,
                            const std::function<void(uint64_t page_offset)>& check) {
  for (uint64_t off = 0; off + page_size <= device_bytes; off += page_size) {
    std::string saved;
    if (!base->Read(off, page_size, &saved).ok()) {
      continue;
    }
    const BitFlip flip = BitFlipFor(off, page_size);
    if (!dev->FlipBit(off + flip.byte, flip.bit).ok()) {
      continue;
    }
    check(off);
    (void)base->Write(off, Slice(saved));
  }
}

}  // namespace test
}  // namespace hfad

#endif  // HFAD_TESTS_CRASH_HARNESS_H_
