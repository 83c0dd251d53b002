#include "src/core/lazy_tag_indexer.h"

#include <algorithm>
#include <map>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace hfad {
namespace core {

LazyTagIndexer::LazyTagIndexer(index::IndexCollection* indexes, osd::Osd* volume,
                               size_t queue_capacity)
    : indexes_(indexes),
      volume_(volume),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      worker_([this] { WorkerMain(); }) {}

LazyTagIndexer::~LazyTagIndexer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  slots_cv_.notify_all();
  applied_cv_.notify_all();
  worker_.join();
}

void LazyTagIndexer::ReserveSlots(size_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  slots_cv_.wait(lock, [&] {
    if (shutdown_) return true;
    size_t used = reserved_ + queue_.size() + in_flight_.size();
    // Oversized batches (n > capacity_) are admitted against an empty queue rather
    // than blocking forever.
    return used + n <= capacity_ || used == 0;
  });
  reserved_ += n;
}

void LazyTagIndexer::ReleaseSlots(size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min(reserved_, n);
  }
  slots_cv_.notify_all();
}

void LazyTagIndexer::EnqueueReserved(std::vector<Op> ops) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min(reserved_, ops.size());
    for (auto& op : ops) {
      ++enqueued_total_;
      ++enqueued_by_tag_[op.name.tag];
      queue_.push_back(std::move(op));
    }
  }
  work_cv_.notify_all();
}

void LazyTagIndexer::Seed(std::vector<Op> ops) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& op : ops) {
      ++enqueued_total_;
      ++enqueued_by_tag_[op.name.tag];
      queue_.push_back(std::move(op));
    }
  }
  work_cv_.notify_all();
}

Status LazyTagIndexer::WaitForTags(const std::vector<std::string>& tags) {
  std::unique_lock<std::mutex> lock(mu_);
  // Snapshot the horizon first: ops enqueued after this call need not be waited on.
  std::vector<std::pair<std::string, uint64_t>> targets;
  targets.reserve(tags.size());
  for (const auto& tag : tags) {
    auto it = enqueued_by_tag_.find(tag);
    if (it != enqueued_by_tag_.end() && it->second > 0) targets.emplace_back(tag, it->second);
  }
  applied_cv_.wait(lock, [&] {
    if (shutdown_) return true;
    for (const auto& t : targets) {
      auto it = applied_by_tag_.find(t.first);
      if (it == applied_by_tag_.end() || it->second < t.second) return false;
    }
    return true;
  });
  return first_error_;
}

Status LazyTagIndexer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = enqueued_total_;
  applied_cv_.wait(lock,
                   [&] { return shutdown_ || paused_ || applied_total_ >= target; });
  return first_error_;
}

std::vector<LazyTagIndexer::Op> LazyTagIndexer::SnapshotUnapplied() const {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight first, then queued: enqueue order.
  std::vector<Op> out(in_flight_);
  out.insert(out.end(), queue_.begin(), queue_.end());
  return out;
}

size_t LazyTagIndexer::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_.size();
}

Status LazyTagIndexer::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void LazyTagIndexer::SetPausedForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  work_cv_.notify_all();
  applied_cv_.notify_all();
}

void LazyTagIndexer::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || (!paused_ && !queue_.empty()); });
    if (shutdown_) return;

    size_t take = std::min(kBatchLimit, queue_.size());
    in_flight_.assign(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(take));
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(take));

    lock.unlock();
    Status s = ApplyOps(in_flight_);
    lock.lock();

    // Horizons advance even when application failed: the error is sticky and strict
    // readers must surface it rather than block forever.
    for (const auto& op : in_flight_) {
      ++applied_total_;
      ++applied_by_tag_[op.name.tag];
    }
    in_flight_.clear();
    if (!s.ok() && first_error_.ok()) first_error_ = s;

    applied_cv_.notify_all();
    slots_cv_.notify_all();
  }
}

Status LazyTagIndexer::ApplyOps(const std::vector<Op>& ops) {
  metrics::ScopedLatency latency(metrics::Hist::kIndexerApply);
  trace::OpScope op_scope("indexer_apply");
  // Collapse the FIFO batch to the LAST op per (tag, value, oid) — earlier ops are
  // superseded (add-then-remove nets to remove against a NotFound-tolerant store).
  // std::map keeps per-tag groups together and values pre-sorted for ApplyBatch's
  // bulk path.
  struct Final {
    bool add;
  };
  std::map<std::string, std::map<std::pair<std::string, index::ObjectId>, Final>> by_tag;
  for (const auto& op : ops) {
    by_tag[op.name.tag][{op.name.value, op.oid}] = Final{op.add};
  }

  Status first;
  for (const auto& tag_group : by_tag) {
    index::IndexStore* store = indexes_->store(tag_group.first);
    if (store == nullptr) {
      // Stores are validated before enqueue; a missing one here means the collection
      // changed underneath us. Record and keep draining the rest.
      if (first.ok())
        first = Status::Corruption("lazy indexer: no store for tag " + tag_group.first);
      continue;
    }
    // Each (value, oid) appears once in the collapsed group, so chunks may apply in
    // any split without reordering an add against its remove.
    const size_t chunk = std::max<size_t>(1, volume_->MaxCreditMutations() - 1);
    auto entry = tag_group.second.begin();
    while (entry != tag_group.second.end()) {
      std::vector<std::pair<std::string, index::ObjectId>> adds;
      std::vector<std::pair<std::string, index::ObjectId>> removes;
      for (; entry != tag_group.second.end() && adds.size() + removes.size() < chunk;
           ++entry) {
        (entry->second.add ? adds : removes).push_back(entry->first);
      }
      // One Put or Delete per entry, plus the store's root sync. A credit that cannot
      // be had (the volume is failing its checkpoints) must not strand acknowledged
      // intents: the chunk applies regardless, and the checkpoint's own fit check
      // still guards the journal.
      auto credit = volume_->ReserveApplyCredit(osd::Osd::CreditUse::kApply,
                                                adds.size() + removes.size() + 1);
      Status s = store->ApplyBatch(adds, removes);
      if (!s.ok() && first.ok()) first = s;
    }
  }
  return first;
}

}  // namespace core
}  // namespace hfad
