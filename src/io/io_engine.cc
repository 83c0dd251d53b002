#include "src/io/io_engine.h"

#include <utility>

namespace hfad {
namespace io {

IoEngine::IoEngine(BlockDevice* device) : device_(device) {
  workers_.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

IoEngine::~IoEngine() { Shutdown(); }

Status IoEngine::Submit(IoRequest req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::IoError("io engine is shut down");
  }
  RecordSubmit();
  queue_.push_back(std::move(req));
  work_cv_.notify_one();
  return Status::Ok();
}

void IoEngine::Shutdown() {
  std::deque<IoRequest> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    // Requests accepted but not yet picked up are aborted here (exactly once);
    // requests a worker already holds run to normal completion below.
    orphans.swap(queue_);
  }
  work_cv_.notify_all();
  for (auto& req : orphans) {
    Deliver(req.on_complete, Status::IoError("aborted by engine shutdown"));
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void IoEngine::WorkerMain() {
  for (;;) {
    IoRequest req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with nothing left to run.
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    Status status = req.op == IoOp::kSync ? device_->Sync()
                                           : device_->Write(req.offset, req.data);
    Deliver(req.on_complete, std::move(status));
  }
}

void IoEngine::RecordSubmit() {
  uint64_t s = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t depth = s - completed_.load(std::memory_order_relaxed);
  uint64_t prev = max_depth_.load(std::memory_order_relaxed);
  while (depth > prev &&
         !max_depth_.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
  }
}

void IoEngine::Deliver(const std::function<void(Status)>& cb, Status status) {
  // Counted before dispatch, so a follow-up the callback submits (the journal's sync
  // after its write) does not read as queue depth 2, and a waiter the last callback
  // wakes reads in_flight() == 0: without this the gauges would over-report.
  completed_.fetch_add(1, std::memory_order_release);
  if (cb) cb(std::move(status));
}

}  // namespace io
}  // namespace hfad
