// Portable IoEngine backend: N workers draining a submission deque and executing
// each request through the BlockDevice virtuals. Fault injection, write-budget
// accounting, and sync hooks on FaultyBlockDevice therefore behave identically to
// direct device calls — the device cannot tell who called it.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/io/io_engine.h"

namespace hfad {
namespace io {
namespace {

class ThreadPoolEngine : public IoEngine {
 public:
  ThreadPoolEngine(BlockDevice* device, int threads) : device_(device) {
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  ~ThreadPoolEngine() override { Shutdown(); }

  Status Submit(IoRequest req) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::IoError("io engine is shut down");
    }
    RecordSubmit();
    queue_.push_back(std::move(req));
    work_cv_.notify_one();
    return Status::Ok();
  }

  void Shutdown() override {
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

  const char* backend_name() const override { return "thread_pool"; }

 private:
  void WorkerMain() {
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

  BlockDevice* const device_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<IoRequest> queue_;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace

std::unique_ptr<IoEngine> CreateThreadPoolEngine(BlockDevice* device,
                                                 int threads) {
  return std::unique_ptr<IoEngine>(
      new ThreadPoolEngine(device, threads > 0 ? threads : 1));
}

}  // namespace io
}  // namespace hfad
