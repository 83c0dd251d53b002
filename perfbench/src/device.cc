#include "perfbench/src/device.h"

#include <thread>

#include "perfbench/src/spans.h"

namespace perfbench {

const char* DeviceCallName(DeviceCall call) {
  switch (call) {
    case DeviceCall::kRead:
      return "device.read";
    case DeviceCall::kWrite:
      return "device.write";
    case DeviceCall::kSync:
      return "device.sync";
  }
  return "device";
}

DeviceTotals& DeviceTotals::operator+=(const DeviceTotals& o) {
  reads += o.reads;
  read_bytes += o.read_bytes;
  read_ns += o.read_ns;
  writes += o.writes;
  write_bytes += o.write_bytes;
  write_ns += o.write_ns;
  syncs += o.syncs;
  sync_ns += o.sync_ns;
  return *this;
}

DeviceTotals DeviceTotals::operator-(const DeviceTotals& o) const {
  DeviceTotals d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.writes = writes - o.writes;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  d.syncs = syncs - o.syncs;
  d.sync_ns = sync_ns - o.sync_ns;
  return d;
}

void PowerDomain::Cut() {
  std::lock_guard<std::mutex> lock(mu_);
  cut_ = true;
}

ModelDevice::ModelDevice(uint64_t size_bytes, DeviceModel model,
                         std::shared_ptr<PowerDomain> power)
    : live_(size_bytes), model_(model), power_(std::move(power)) {
  if (power_ != nullptr) {
    durable_.assign(size_bytes, '\0');
  }
}

ModelDevice::ModelDevice(const std::string& image, DeviceModel model)
    : ModelDevice(image.size(), model) {
  (void)live_.Write(0, image);
}

hfad::Status ModelDevice::Read(uint64_t offset, size_t size, std::string* out) const {
  const uint64_t start = NowNs();
  if (charging_.load(std::memory_order_relaxed)) {
    // Busy-wait: a sleep would round 25 us up to scheduler granularity.
    const uint64_t until = start + static_cast<uint64_t>(model_.read_charge.count());
    while (NowNs() < until) {
    }
  }
  hfad::Status s = live_.Read(offset, size, out);
  Account(DeviceCall::kRead, size, start, NowNs());
  return s;
}

hfad::Status ModelDevice::Write(uint64_t offset, hfad::Slice data) {
  const uint64_t start = NowNs();
  hfad::Status s = live_.Write(offset, data);
  if (s.ok()) {
    StageUnsynced(offset, data);
  }
  Account(DeviceCall::kWrite, data.size(), start, NowNs());
  return s;
}

hfad::Status ModelDevice::WriteBatch(std::vector<hfad::WriteExtent> extents) {
  const uint64_t start = NowNs();
  uint64_t bytes = 0;
  for (const hfad::WriteExtent& e : extents) {
    bytes += e.data.size();
  }
  // Stage before the extents move into the live device; a failed batch can only come
  // from an out-of-range extent, which the live write rejects the same way.
  if (power_ != nullptr) {
    for (const hfad::WriteExtent& e : extents) {
      if (e.offset + e.data.size() <= Size()) {
        StageUnsynced(e.offset, e.data);
      }
    }
  }
  hfad::Status s = live_.WriteBatch(std::move(extents));
  Account(DeviceCall::kWrite, bytes, start, NowNs());
  return s;
}

hfad::Status ModelDevice::Sync() {
  const uint64_t start = NowNs();
  if (power_ != nullptr) {
    // Everything written before this call becomes durable, in write order.
    std::lock_guard<std::mutex> lock(power_->mu_);
    if (!power_->cut_) {
      for (const auto& [offset, bytes] : unsynced_) {
        durable_.replace(offset, bytes.size(), bytes);
      }
    }
    unsynced_.clear();
  }
  if (charging_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(model_.sync_charge);
  }
  hfad::Status s = live_.Sync();
  Account(DeviceCall::kSync, 0, start, NowNs());
  return s;
}

void ModelDevice::StageUnsynced(uint64_t offset, hfad::Slice data) {
  if (power_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(power_->mu_);
  if (!power_->cut_) {
    unsynced_.emplace_back(offset, std::string(data.data(), data.size()));
  }
}

std::string ModelDevice::DurableImage() const {
  if (power_ == nullptr) {
    return "";
  }
  std::lock_guard<std::mutex> lock(power_->mu_);
  return durable_;
}

void ModelDevice::Account(DeviceCall call, uint64_t bytes, uint64_t start_ns,
                          uint64_t end_ns) const {
  ClientContext* ctx = CurrentClient();
  Counters& c = counters_[ctx != nullptr ? kClientThread : kBackgroundThread];
  const uint64_t ns = end_ns - start_ns;
  switch (call) {
    case DeviceCall::kRead:
      c.reads.fetch_add(1, std::memory_order_relaxed);
      c.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
      c.read_ns.fetch_add(ns, std::memory_order_relaxed);
      break;
    case DeviceCall::kWrite:
      c.writes.fetch_add(1, std::memory_order_relaxed);
      c.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
      c.write_ns.fetch_add(ns, std::memory_order_relaxed);
      break;
    case DeviceCall::kSync:
      c.syncs.fetch_add(1, std::memory_order_relaxed);
      c.sync_ns.fetch_add(ns, std::memory_order_relaxed);
      break;
  }
  const Span span{ctx != nullptr ? ctx->op_id : 0, start_ns, end_ns, static_cast<uint32_t>(call)};
  if (ctx != nullptr) {
    if (ctx->traced && ctx->op_id != 0) {
      ctx->trace->device.push_back(span);
    }
  } else if (BackgroundTracing()) {
    RecordBackgroundSpan(span);
  }
}

DeviceTotals ModelDevice::Totals(ThreadClass cls) const {
  const Counters& c = counters_[cls];
  DeviceTotals t;
  t.reads = c.reads.load(std::memory_order_relaxed);
  t.read_bytes = c.read_bytes.load(std::memory_order_relaxed);
  t.read_ns = c.read_ns.load(std::memory_order_relaxed);
  t.writes = c.writes.load(std::memory_order_relaxed);
  t.write_bytes = c.write_bytes.load(std::memory_order_relaxed);
  t.write_ns = c.write_ns.load(std::memory_order_relaxed);
  t.syncs = c.syncs.load(std::memory_order_relaxed);
  t.sync_ns = c.sync_ns.load(std::memory_order_relaxed);
  return t;
}

DeviceTotals ModelDevice::Totals() const {
  DeviceTotals t = Totals(kClientThread);
  t += Totals(kBackgroundThread);
  return t;
}

}  // namespace perfbench
