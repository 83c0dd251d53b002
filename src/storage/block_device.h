// Stable-storage abstraction at the bottom of Figure 1.
//
// A BlockDevice is a flat, byte-addressable store with explicit durability (Sync). Three
// implementations:
//   * MemoryBlockDevice — RAM-backed, for tests and benchmarks.
//   * FileBlockDevice   — a single backing file, for persistence across process restarts.
//   * FaultyBlockDevice — wraps another device and injects failures (write caps, torn
//                         writes, batch tears, slow syncs) for crash-recovery testing of
//                         the journal and checkpoint paths.
//
// Besides single-range Write, every device takes a vectored WriteBatch: the ranges are
// sorted by offset and adjacent ranges coalesce into single device writes, so a checkpoint
// flushing hundreds of scattered-but-clustered dirty pages issues a handful of large
// sequential writes instead of one small write per page (the BlueStore/DAOS write-path
// idiom). Ranges in one batch must be disjoint.
#ifndef HFAD_SRC_STORAGE_BLOCK_DEVICE_H_
#define HFAD_SRC_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace hfad {

// One range of a vectored write. `data` must stay valid for the duration of the call.
struct WriteExtent {
  uint64_t offset = 0;
  Slice data;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Read size bytes at offset into out (resized to size). Reads beyond Size() fail.
  virtual Status Read(uint64_t offset, size_t size, std::string* out) const = 0;

  // Write data at offset. Writes beyond Size() fail (devices have fixed capacity).
  virtual Status Write(uint64_t offset, Slice data) = 0;

  // Write every extent, equivalent to per-extent Write(). Extents are sorted by offset
  // and adjacent extents are coalesced into single device writes; extents must not
  // overlap. Failure may leave any subset of the batch written (a crash mid-batch is a
  // torn batch — journal recovery semantics deal with it). The base implementation
  // sorts, coalesces into scratch buffers, and issues one Write per run; devices with a
  // native vectored path override it.
  virtual Status WriteBatch(std::vector<WriteExtent> extents);

  // Force all completed writes to stable storage.
  virtual Status Sync() = 0;

  // Device capacity in bytes.
  virtual uint64_t Size() const = 0;
};

// RAM-backed device. Thread-safe for non-overlapping concurrent access.
class MemoryBlockDevice : public BlockDevice {
 public:
  explicit MemoryBlockDevice(uint64_t size_bytes);

  Status Read(uint64_t offset, size_t size, std::string* out) const override;
  Status Write(uint64_t offset, Slice data) override;
  // Same sort/coalesce accounting as the base, but each extent lands by direct memcpy —
  // no scratch-buffer assembly for multi-part runs.
  Status WriteBatch(std::vector<WriteExtent> extents) override;
  Status Sync() override { return Status::Ok(); }
  uint64_t Size() const override { return data_.size(); }

 private:
  std::vector<char> data_;
};

// File-backed device. The file is created (and sized) if absent.
class FileBlockDevice : public BlockDevice {
 public:
  // Opens (creating if needed) path with the given capacity. A smaller file grows to
  // the capacity; a larger one is refused with InvalidArgument, never truncated.
  static Result<std::unique_ptr<FileBlockDevice>> Open(const std::string& path,
                                                       uint64_t size_bytes);
  ~FileBlockDevice() override;

  Status Read(uint64_t offset, size_t size, std::string* out) const override;
  Status Write(uint64_t offset, Slice data) override;
  // One pwritev per coalesced run: the kernel assembles the run from the extents'
  // buffers directly (no copy), and each run is a single contiguous device write.
  Status WriteBatch(std::vector<WriteExtent> extents) override;
  Status Sync() override;
  uint64_t Size() const override { return size_; }

 private:
  FileBlockDevice(int fd, uint64_t size) : fd_(fd), size_(size) {}

  int fd_;
  uint64_t size_;
};

// Failure-injection wrapper. After SetWriteBudget(n), the n+1-th write (and all later ones)
// fail with IoError; if torn_writes is enabled the failing write persists only a prefix,
// simulating a crash mid-sector. A WriteBatch counts one write per coalesced run, so the
// budget can exhaust mid-batch: earlier runs persist, the failing run tears, later runs are
// lost — exactly the torn-batch crash the journal watermark must survive. Read faults
// (SetReadFaults) and bit-flip corruption (FlipBit/CorruptRange) model the other two fault
// domains: transient/persistent EIO on read, and latent media corruption the checksum layer
// must catch. Used by journal, checkpoint, and scrub recovery tests.
class FaultyBlockDevice : public BlockDevice {
 public:
  explicit FaultyBlockDevice(std::shared_ptr<BlockDevice> base) : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t size, std::string* out) const override;
  Status Write(uint64_t offset, Slice data) override;
  Status WriteBatch(std::vector<WriteExtent> extents) override;
  Status Sync() override;
  uint64_t Size() const override { return base_->Size(); }

  // Allow exactly budget more successful writes; -1 means unlimited (default).
  void SetWriteBudget(int64_t budget);
  // When the budget is exhausted, persist a random-length prefix of the failing write.
  void EnableTornWrites(bool enabled) { torn_writes_ = enabled; }
  // Called at the top of every Sync(), before it is applied — park the caller here to
  // model a slow device flush (group-commit tests prove appends proceed meanwhile).
  void SetSyncHook(std::function<void()> hook);
  // Inject read faults: the next reads succeed until `after_reads` more have been
  // served, then the following `fail_count` reads fail with IoError (transient fault
  // that heals), or every later read fails when fail_count is -1 (persistent fault).
  // Passing after_reads = -1 clears injection.
  void SetReadFaults(int64_t after_reads, int64_t fail_count);
  // Flip one bit of the byte at `offset` directly in the base device, bypassing the
  // write budget — models latent media corruption, not a failed IO.
  Status FlipBit(uint64_t offset, int bit);
  // Count of writes attempted since construction (each coalesced batch run counts once).
  uint64_t writes_attempted() const {
    return writes_attempted_.load(std::memory_order_relaxed);
  }
  // Count of Syncs attempted since construction.
  uint64_t syncs_attempted() const {
    return syncs_attempted_.load(std::memory_order_relaxed);
  }
  // Count of Reads attempted since construction.
  uint64_t reads_attempted() const {
    return reads_attempted_.load(std::memory_order_relaxed);
  }

 private:
  // Write's body with mu_ already held.
  Status WriteLocked(uint64_t offset, Slice data);

  std::shared_ptr<BlockDevice> base_;
  mutable std::mutex mu_;
  int64_t write_budget_ = -1;
  bool torn_writes_ = false;
  // Read-fault plan, guarded by mu_ (mutable: Read is const).
  mutable int64_t reads_until_fault_ = -1;  // -1: no injection.
  mutable int64_t read_faults_left_ = 0;    // -1: persistent.
  std::atomic<uint64_t> writes_attempted_{0};
  std::atomic<uint64_t> syncs_attempted_{0};
  mutable std::atomic<uint64_t> reads_attempted_{0};
  std::function<void()> sync_hook_;
};

}  // namespace hfad

#endif  // HFAD_SRC_STORAGE_BLOCK_DEVICE_H_
