// The benchmark's latency-modelled device.
//
// A RAM device hides the IO the object store exists to amortize, so every workload
// runs on this wrapper instead. It charges a fixed cost per call, the constants of
// bench/bench_indexing.cc and bench/bench_journal.cc:
//   * Read: 25 us, busy-waited on the calling thread (a seek the caller waits out);
//   * Sync: 100 us, slept (a cache flush the caller blocks on);
//   * Write and WriteBatch: uncharged, but counted.
// Calls, bytes and busy time are counted per thread class: client threads (those with
// a ClientContext) against everything else (IoEngine workers, checkpointer, indexers).
//
// Optionally the device also keeps a durable image: writes land in the live image at
// once and in the durable image only when a later Sync runs. Devices that share a
// PowerDomain lose power together: after Cut() no sync on any of them reaches its
// durable image, so a FileSystem reopened from the DurableImage()s sees exactly what
// the syncs before that one instant made durable, on every shard.
#ifndef PERFBENCH_SRC_DEVICE_H_
#define PERFBENCH_SRC_DEVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/block_device.h"

namespace perfbench {

enum class DeviceCall : uint32_t { kRead = 0, kWrite = 1, kSync = 2 };
const char* DeviceCallName(DeviceCall call);

enum ThreadClass : int { kClientThread = 0, kBackgroundThread = 1, kThreadClasses = 2 };

// One power supply for a set of devices. Its mutex orders every durable-image update
// of its devices against the cut.
class PowerDomain {
 public:
  void Cut();

 private:
  friend class ModelDevice;
  std::mutex mu_;
  bool cut_ = false;  // Guarded by mu_.
};

struct DeviceModel {
  std::chrono::nanoseconds read_charge{25000};
  std::chrono::nanoseconds sync_charge{100000};
};

// Plain counts, summable and subtractable for per-window deltas.
struct DeviceTotals {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t writes = 0;  // Write calls plus WriteBatch calls.
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;

  uint64_t busy_ns() const { return read_ns + write_ns + sync_ns; }
  DeviceTotals& operator+=(const DeviceTotals& o);
  DeviceTotals operator-(const DeviceTotals& o) const;
};

class ModelDevice : public hfad::BlockDevice {
 public:
  // `power` null: no durable image is kept.
  ModelDevice(uint64_t size_bytes, DeviceModel model,
              std::shared_ptr<PowerDomain> power = nullptr);
  // A device whose live contents start as `image` (a reopen after a cut).
  ModelDevice(const std::string& image, DeviceModel model);

  hfad::Status Read(uint64_t offset, size_t size, std::string* out) const override;
  hfad::Status Write(uint64_t offset, hfad::Slice data) override;
  hfad::Status WriteBatch(std::vector<hfad::WriteExtent> extents) override;
  hfad::Status Sync() override;
  uint64_t Size() const override { return live_.Size(); }

  // Charges off serves calls at RAM speed (used only outside measured windows).
  void set_charging(bool on) { charging_.store(on, std::memory_order_relaxed); }

  DeviceTotals Totals(ThreadClass cls) const;
  DeviceTotals Totals() const;

  // Copy of the durable image; empty when the device keeps none.
  std::string DurableImage() const;

 private:
  struct Counters {
    std::atomic<uint64_t> reads{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> writes{0}, write_bytes{0}, write_ns{0};
    std::atomic<uint64_t> syncs{0}, sync_ns{0};
  };

  void Account(DeviceCall call, uint64_t bytes, uint64_t start_ns, uint64_t end_ns) const;
  void StageUnsynced(uint64_t offset, hfad::Slice data);

  hfad::MemoryBlockDevice live_;
  const DeviceModel model_;
  const std::shared_ptr<PowerDomain> power_;
  std::atomic<bool> charging_{true};
  mutable std::array<Counters, kThreadClasses> counters_;

  std::vector<std::pair<uint64_t, std::string>> unsynced_;  // Guarded by power_->mu_.
  std::string durable_;                                     // Guarded by power_->mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DEVICE_H_
